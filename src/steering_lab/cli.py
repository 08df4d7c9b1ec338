"""Command-line entry point.

Subcommands: bound, simulate, sweep, certify, optimize, analyze, montecarlo.
Parameter precedence is command-line flags over config-file entries over
the library's defaults, which match the reference experimental values
(r_a=0.233, r_b=0.217, eta=0.52, s=0.983, t=0.0656, m=4). A config file
holds key=value lines whose keys are the long flag names with dashes as
underscores; each entry becomes the default of the option of that name, so
argparse types and checks it like the flag. Entries for options the active
command lacks are ignored, so one file can serve the whole pipeline; the
output paths, --sample, --compare, --oracle and certify's --eta are
command-line only.

Every command exits 0 on success; failures print a single line
`<ErrorClass>: <message>` to stderr and exit 2 (validation/parse errors,
and a file that cannot be read or written) or 3 (computation errors: a
MemoryError, or a floating-point overflow, division by zero or invalid
operation, which numpy raises as FloatingPointError inside a command
instead of warning). A reader that closes stdout early ends the command
quietly with exit 1. All randomized commands take --seed and are
reproducible. --threads is accepted and checked to be an integer but
changes nothing: no command starts worker threads or sets a thread count.

Start-up follows the command: this module loads neither numpy nor another
package module, main parses argv before it imports numpy (so --help and
every parse error end without it), and each command imports the modules it
runs. No command loads numpy.ma, and run (the program entry) skips the
shutdown GC pass.
"""

import argparse
import math
import os
import re
import sys

from .errors import ParseError, SteeringLabError, ValidationError

_VALIDATION_EXIT = 2
_COMPUTATION_EXIT = 3
_CLOSED_STDOUT_EXIT = 1

# Namespace entries a config file may not set: the parser's own, mode
# switches and output destinations.
_COMMAND_LINE_ONLY = ("command", "config", "func", "compare", "oracle",
                      "output", "sample", "verdict_eta")


class _CliParser(argparse.ArgumentParser):
    """argparse variant keeping the single-line error contract. Options
    match by their full names only, so a prefix such as --m is an error
    where no option of that name exists, not the option it abbreviates;
    subparsers are built by this class too. No option looks like a
    number, so every token of '-' and a digit or '.' is a value: argparse
    alone would take -0.1,1.5 or -1e-3 for an option."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        raise ValidationError(message)


def _parse_phases(text):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"invalid phase list {text!r}")
    if not values:
        raise ValidationError(f"empty phase list {text!r}")
    return values


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _parse(parser, argv):
    """Parse argv; with --config, parse it again with the file's entries as
    defaults of the top-level parser (--threads) and of the active
    subcommand's parser, so a flag still beats its entry."""
    try:
        args = parser.parse_args(argv)
    except ValidationError:
        # argparse takes the value of an unknown option for the command
        top = _CliParser(add_help=False)
        for name in ("--config", "--threads"):
            top.add_argument(name, nargs="?")
        rest = top.parse_known_args(argv)[1]
        if rest and rest[0].startswith("-"):
            raise ValidationError("unrecognized arguments: " + rest[0])
        raise
    if args.config is None:
        return args
    entries = {key: value
               for key, value in _load_config_file(args.config).items()
               if key in vars(args) and key not in _COMMAND_LINE_ONLY}
    parser.set_defaults(threads=entries.pop("threads", None))
    parser.commands[args.command].set_defaults(**entries)
    try:
        return parser.parse_args(argv)
    except ValidationError as exc:
        raise ValidationError(f"config file {args.config}: {exc}") from None


def _given(args, *names, **renamed):
    """Library keyword arguments from the options that were set, so that
    every other parameter keeps the library's default; renamed maps a
    keyword to the option that feeds it, and an option the command lacks
    counts as unset."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {key: getattr(args, dest, None) for key, dest in pairs
            if getattr(args, dest, None) is not None}


def _family(args):
    from .inequality import InequalityFamily
    return InequalityFamily(**_given(args, "s", "t", "m",
                                     alice_phases="phases",
                                     bob_amplitude="r_b"))


def _with_ladder(args, kwargs):
    """kwargs, with the equally spaced phases of --m as alice_phases when
    --m is set and --phases is not; both set must agree in length."""
    if args.m is not None and args.phases is None:
        from .inequality import default_alice_phases
        kwargs["alice_phases"] = default_alice_phases(args.m)
    elif args.m is not None and len(args.phases) != args.m:
        raise ValidationError(
            f"alice_phases needs {args.m} entries, got {len(args.phases)}")
    return kwargs


def _model(args):
    from .quantum_model import ModelConfig
    return ModelConfig(**_with_ladder(args, _given(
        args, "eta", "r_a", "r_b", "visibility", alice_phases="phases")))


def _fmt_matrix(name, mat):
    lines = [f"{name}:"]
    for row in mat:
        lines.append("  " + " ".join("%.12g" % v for v in row))
    return lines


def cmd_bound(args):
    from .inequality import (build_probability_inequality, comparison_report,
                             export_inequality)
    family = _family(args)
    ineq = build_probability_inequality(family)
    lines = [
        "s_max_qubit=%.17g" % ineq.s_max_qubit,
        "s_max=%.17g" % ineq.s_max,
        "n_max_used=%d" % ineq.n_max_used,
        "c0=%.17g" % ineq.c0,
    ]
    lines += _fmt_matrix("c_pp", ineq.c_pp)
    lines += _fmt_matrix("c_pm", ineq.c_pm)
    lines += _fmt_matrix("c_mp", ineq.c_mp)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(export_inequality(ineq, family))
    lines.append(f"export written to {args.output}")
    if args.compare:
        lines.append("")
        lines.append(comparison_report())
    print("\n".join(lines))
    return 0


def cmd_simulate(args):
    import numpy as np

    from .quantum_model import (format_table, joint_probabilities,
                                oracle_probabilities)
    config = _model(args)
    table = joint_probabilities(config)
    text = format_table(table, config)
    if args.oracle:
        oracle = oracle_probabilities(config)
        deviation = float(np.abs(table - oracle).max())
        verdict = "pass" if deviation < 1e-6 else "fail"
        text += "oracle_max_deviation=%.3e\noracle_check=%s\n" % (
            deviation, verdict)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"table written to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_sweep(args):
    import numpy as np

    from .quantum_model import format_sweep, phase_sweep
    config = _model(args)
    if args.points < 4:
        raise ValidationError(f"points must be at least 4, got {args.points}")
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite phase is rejected by the model with exit 2
        phases = args.start + (args.stop - args.start) * np.arange(
            args.points) / args.points
    rows = phase_sweep(config, phases)
    if args.sample is not None:
        from . import analysis
        record = analysis.synthesize_counts(
            phases, rows, args.sample, **_given(args, "seed"))
        out = args.output or "sweep_counts.txt"
        analysis.write_counts(
            out, record,
            header="sampled sweep: %d expected events per point" %
                   args.sample)
        print(f"sampled counts written to {out}")
    else:
        text = format_sweep(phases, rows, config)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"sweep written to {args.output}")
        else:
            print(text, end="")
    return 0


def cmd_certify(args):
    from .lhs_certification import (experiment_critical_eta,
                                    verify_hidden_states)
    result = experiment_critical_eta(space="qubit", **_with_ladder(
        args, _given(args, "r_a", "visibility", alice_phases="phases")))
    eta = args.verdict_eta
    if eta is None:
        print("eta_star=%.17g" % result.eta_star)
        print("bracket_width=%.17g" % (result.eta_upper - result.eta_star))
        print("feasible_at=%.17g" % result.eta_star)
        print("infeasible_at=%.17g" % result.eta_upper)
        return 0
    verdict, certificate = result.verdict_at(eta)
    if verdict == "feasible":
        print("feasible (unsteerable)")
        detail = "certificate_residual=%.3e" % verify_hidden_states(
            certificate, result.problem, eta)
    elif verdict == "infeasible":
        print("infeasible (steerable)")
        detail = "functional_margin=%.3e" % (certificate.value(
            result.problem.table_at(eta)) - certificate.bound)
    else:
        print("indeterminate")
        detail = "certified_gap=%.3e" % (result.eta_upper - result.eta_star)
    print("iterations=%d" % result.iterations)
    print(detail)
    return 0


def cmd_optimize(args):
    from .lhs_certification import canonical_phases, optimize_phases
    result = optimize_phases(**_given(args, "r_a", "m", "restarts", "seed"))
    canon = canonical_phases(result.phases)
    print("phases=" + ",".join("%.17g" % p for p in canon))
    print("eta_star=%.17g" % result.eta_star)
    for i, rec in enumerate(result.restarts):
        print("restart_%d: start_eta=%.6g end_eta=%.6g" %
              (i, rec.eta_star_start, rec.eta_star_end))
    return 0


def cmd_analyze(args):
    from . import analysis
    record = analysis.load_counts(args.counts)
    family = _family(args)
    report = analysis.evaluate_record(record, family,
                                      **_given(args, "x_phases", "mode"))
    for i, label in enumerate(analysis.OUTCOME_LABELS):
        print("fit_%s: offset=%.6g amplitude=%.6g phase0=%.6g rss=%.3e "
              "clamped=%s" % (label, report.fit.offset[i],
                              report.fit.amplitude[i], report.fit.phase0[i],
                              report.fit.rss[i],
                              "yes" if report.fit.clamped[i] else "no"))
    print("s_value=%.17g" % report.s_value)
    print("s_max=%.17g" % report.s_max)
    print("delta_s=%.17g" % report.delta_s)
    print("steerable=%s" % ("yes" if report.delta_s > 0 else "no"))
    return 0


def cmd_montecarlo(args):
    from . import analysis
    record = analysis.load_counts(args.counts)
    family = _family(args)
    counts = analysis.setting_counts_from_record(
        record, **_given(args, "x_phases"))
    result = analysis.monte_carlo(
        counts, family, **_given(args, "runs", "seed", "r_b_sigma"))
    analysis.write_mc_result(args.output, result)
    print("mean=%.17g" % result.mean)
    print("std=%.17g" % result.std)
    print("runs=%d" % result.runs)
    print("seed=%d" % result.seed)
    print("redraws=%d" % result.redraws)
    print("grid_error=%.3e" % result.grid_error)
    print(f"results written to {args.output}")
    return 0


def _add_common(parser, *names):
    option = {
        "r_a": dict(type=float, help="untrusted-side displacement amplitude"),
        "r_b": dict(type=float, help="trusted-side displacement amplitude"),
        "eta": dict(type=float, help="heralding/transmission efficiency"),
        "s": dict(type=float, help="reduced-state matrix weight"),
        "t": dict(type=float, help="coherence matrix weight"),
        "m": dict(type=int, help="number of untrusted settings"),
        "visibility": dict(type=float, help="coherence visibility"),
        "phases": dict(type=_parse_phases,
                       help="comma-separated untrusted-side phases (rad)"),
        "x_phases": dict(type=_parse_phases,
                         help="comma-separated setting phases (rad)"),
        "seed": dict(type=int, help="random seed"),
    }
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            default=None, **option[name])


def build_parser():
    parser = _CliParser(prog="steering-lab",
                        description="Steering inequalities for "
                                    "displacement-based photon measurements")
    parser.add_argument("--config", default=None,
                        help="key=value parameter file")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute unsteerable bounds and "
                                     "coefficients")
    _add_common(p, "s", "t", "m", "r_b", "phases")
    p.add_argument("--output", default="inequality.txt",
                   help="export file path")
    p.add_argument("--compare", action="store_true",
                   help="append the reported-coefficient comparison")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="joint click probabilities of the "
                                        "lossy single-photon model")
    _add_common(p, "eta", "r_a", "r_b", "m", "visibility", "phases")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the truncated-Fock simulation")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="relative-phase sweep (plot data or "
                                     "sampled counts)")
    _add_common(p, "eta", "r_a", "r_b", "m", "visibility", "phases", "seed")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=math.tau)
    p.add_argument("--sample", type=int, default=None,
                   help="expected events per point; emit a counts file")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="certified critical efficiency of the "
                                       "assemblage (LHS model up to it, "
                                       "violated functional above it)")
    _add_common(p, "r_a", "m", "phases", "visibility")
    p.add_argument("--eta", dest="verdict_eta", metavar="ETA", type=float,
                   default=None, help="print the certified verdict at this "
                                      "efficiency instead")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("optimize", help="phase optimization by "
                                        "random-restart pattern search")
    _add_common(p, "r_a", "m", "seed")
    p.add_argument("--restarts", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("analyze", help="counts file -> fits -> setting "
                                       "table -> S - S_max")
    p.add_argument("counts", help="counts file path")
    _add_common(p, "s", "t", "r_b", "x_phases")
    p.add_argument("--mode", choices=("from_fit", "nearest_point"),
                   default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("montecarlo", help="resampling error estimate of "
                                          "S - S_max")
    p.add_argument("counts", help="counts file path")
    _add_common(p, "s", "t", "r_b", "x_phases", "seed")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--r-b-sigma", dest="r_b_sigma", type=float, default=None)
    p.add_argument("--output", default="mc_results.txt")
    p.set_defaults(func=cmd_montecarlo)
    parser.commands = sub.choices    # name -> subparser, for _parse
    return parser


def main(argv=None):
    try:
        args = _parse(build_parser(), argv)
        import numpy as np
        # the first overflow, division by zero or invalid operation ends
        # the command as its one error line, not as warnings beside it
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()          # a closed stdout raises here, not at exit
        return code
    except (ValidationError, ParseError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except (SteeringLabError, FloatingPointError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _COMPUTATION_EXIT
    except MemoryError as exc:      # numpy raises a private subclass
        print(f"MemoryError: {exc}", file=sys.stderr)
        return _COMPUTATION_EXIT
    except BrokenPipeError:
        # the reader has gone; what is left goes to devnull, so the flush
        # at exit cannot fail again (the recipe in the Python docs' notes
        # on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _CLOSED_STDOUT_EXIT
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


def run():
    """Program entry: main, then gc.freeze() to skip the shutdown GC pass."""
    code = main()
    import gc
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
