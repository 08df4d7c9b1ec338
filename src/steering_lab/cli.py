"""Command-line entry point.

Subcommands: bound, simulate, sweep, certify, optimize, analyze, montecarlo.
Parameter precedence is command-line flags over config-file entries
(key=value lines, same keys as the long flag names with dashes as
underscores) over built-in defaults matching the reference experimental
values (r_a=0.233, r_b=0.217, eta=0.52, s=0.983, t=0.0656, m=4).

Every command exits 0 on success; failures print a single line
`<ErrorClass>: <message>` to stderr and exit 2 (validation/parse errors) or
3 (computation errors). All randomized commands take --seed and are
reproducible. --threads (or STEERING_LAB_THREADS) caps worker counts.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis
from .errors import (IndeterminateFeasibilityError, ParseError,
                     SteeringLabError, ValidationError)
from .fock_ops import TWO_PI
from .inequality import (InequalityFamily, build_probability_inequality,
                         comparison_report, export_inequality)
from .lhs_certification import (canonical_phases, experiment_critical_eta,
                                optimize_phases, verify_hidden_states)
from .quantum_model import (ModelConfig, format_sweep, format_table,
                            joint_probabilities, oracle_probabilities,
                            phase_sweep)

DEFAULTS = {
    "r_a": 0.233,
    "r_b": 0.217,
    "eta": 0.52,
    "s": 0.983,
    "t": 0.0656,
    "m": 4,
    "visibility": 1.0,
}

_VALIDATION_EXIT = 2
_COMPUTATION_EXIT = 3


class _CliParser(argparse.ArgumentParser):
    """argparse variant keeping the single-line error contract."""

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
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"expected key=value, got {line!r}",
                                     line=lineno)
                key, _, value = line.partition("=")
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    return entries


class RunConfig:
    """Fully resolved invocation: command, parameter overrides, paths.

    Merges flags, config-file entries and built-in defaults, typed per key.
    Config keys irrelevant to the active command are ignored so one file can
    serve the whole pipeline.
    """

    def __init__(self, args):
        self.args = args
        self.command = getattr(args, "command", None)
        self.input_path = getattr(args, "counts", None)
        self.output_path = getattr(args, "output", None)
        self.file_entries = (_load_config_file(args.config)
                             if getattr(args, "config", None) else {})

    def get(self, key, kind=float, default=None):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file_entries:
            raw = self.file_entries[key]
            try:
                if kind is bool:
                    return raw.lower() in ("1", "true", "yes", "on")
                if kind is tuple:
                    return _parse_phases(raw)
                return kind(raw)
            except ValueError:
                raise ValidationError(
                    f"config key {key}={raw!r} is not a valid {kind.__name__}")
        if default is not None:
            return default
        return DEFAULTS.get(key)

    def threads(self):
        value = self.get("threads", int)
        if value is not None:
            return value
        env = os.environ.get("STEERING_LAB_THREADS")
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ValidationError(
                    f"STEERING_LAB_THREADS={env!r} is not an integer")
        return 1


def _family(res, r_b=None):
    return InequalityFamily(
        s=res.get("s"), t=res.get("t"), m=res.get("m", int),
        alice_phases=res.get("phases", tuple, default=()) or None,
        bob_amplitude=r_b if r_b is not None else res.get("r_b"))


def _model(res):
    phases = res.get("phases", tuple, default=()) or None
    kwargs = dict(eta=res.get("eta"), r_a=res.get("r_a"),
                  r_b=res.get("r_b"), visibility=res.get("visibility"))
    if phases is not None:
        kwargs["alice_phases"] = phases
    m = res.get("m", int)
    if phases is None and m != 4:
        kwargs["alice_phases"] = tuple(x * TWO_PI / m for x in range(m))
    return ModelConfig(**kwargs)


def _fmt_matrix(name, mat):
    lines = [f"{name}:"]
    for row in mat:
        lines.append("  " + " ".join("%.12g" % v for v in row))
    return lines


def cmd_bound(res):
    family = _family(res)
    tol = res.get("n_max_tol", float, default=1e-9)
    ineq = build_probability_inequality(family, convergence_tol=tol)
    lines = [
        "s_max_qubit=%.17g" % ineq.s_max_qubit,
        "s_max=%.17g" % ineq.s_max,
        "n_max_used=%d" % ineq.n_max_used,
        "c0=%.17g" % ineq.c0,
    ]
    lines += _fmt_matrix("c_pp", ineq.c_pp)
    lines += _fmt_matrix("c_pm", ineq.c_pm)
    lines += _fmt_matrix("c_mp", ineq.c_mp)
    out = res.args.output or "inequality.txt"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(export_inequality(ineq, family))
    lines.append(f"export written to {out}")
    if res.args.compare:
        lines.append("")
        lines.append(comparison_report(family))
    print("\n".join(lines))
    return 0


def cmd_simulate(res):
    config = _model(res)
    table = joint_probabilities(config)
    text = format_table(table, config)
    if res.args.oracle:
        oracle = oracle_probabilities(config)
        deviation = float(np.abs(table.probs - oracle.probs).max())
        verdict = "pass" if deviation < 1e-6 else "fail"
        text += "oracle_max_deviation=%.3e\noracle_check=%s\n" % (
            deviation, verdict)
    if res.args.output:
        with open(res.args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"table written to {res.args.output}")
    else:
        print(text, end="")
    return 0


def cmd_sweep(res):
    config = _model(res)
    points = res.get("points", int, default=50)
    if points < 4:
        raise ValidationError(f"points must be at least 4, got {points}")
    start = res.get("start", float, default=0.0)
    stop = res.get("stop", float, default=TWO_PI)
    phases = start + (stop - start) * np.arange(points) / points
    sweep = phase_sweep(config, phases)
    if res.args.sample is not None:
        if res.args.sample < 1:
            raise ValidationError("sample size must be at least 1")
        record = analysis.synthesize_counts(
            sweep.phases, sweep.probs, res.args.sample,
            seed=res.get("seed", int, default=0))
        out = res.args.output or "sweep_counts.txt"
        analysis.write_counts(
            out, record,
            header="sampled sweep: %d expected events per point" %
                   res.args.sample)
        print(f"sampled counts written to {out}")
    else:
        text = format_sweep(sweep, config)
        if res.args.output:
            with open(res.args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"sweep written to {res.args.output}")
        else:
            print(text, end="")
    return 0


def cmd_certify(res):
    m = res.get("m", int)
    phases = res.get("phases", tuple, default=()) or tuple(
        x * TWO_PI / m for x in range(m))
    fixed = res.args.eta is not None or "eta" in res.file_entries
    eta = res.get("eta") if fixed else None
    result = experiment_critical_eta(res.get("r_a"), phases, space="qubit",
                                     visibility=res.get("visibility"))
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
    print("iterations=%d" % result.newton_steps)
    print(detail)
    return 0


def cmd_optimize(res):
    result = optimize_phases(res.get("r_a"), res.get("m", int),
                             restarts=res.get("restarts", int, default=10),
                             seed=res.get("seed", int, default=0))
    canon = canonical_phases(result.phases)
    print("phases=" + ",".join("%.17g" % p for p in canon))
    print("eta_star=%.17g" % result.eta_star)
    for i, rec in enumerate(result.restarts):
        print("restart_%d: start_eta=%.6g end_eta=%.6g" %
              (i, rec.eta_star_start, rec.eta_star_end))
    return 0


def _x_phases(res):
    raw = res.get("x_phases", tuple, default=())
    return raw if raw else (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)


def cmd_analyze(res):
    record = analysis.load_counts(res.args.counts)
    family = _family(res)
    mode = res.get("mode", str, default="from_fit")
    report = analysis.evaluate_record(record, family, x_phases=_x_phases(res),
                                      mode=mode)
    for i, label in enumerate(analysis.OUTCOME_LABELS):
        print("fit_%s: offset=%.6g amplitude=%.6g phase0=%.6g rss=%.3e "
              "clamped=%s" % (label, report.fit.offset[i],
                              report.fit.amplitude[i], report.fit.phase0[i],
                              report.fit.rss[i],
                              "yes" if report.fit.clamped[i] else "no"))
    ineq = build_probability_inequality(family)
    print("s_value=%.17g" % report.s_value)
    print("s_max=%.17g" % ineq.s_max)
    print("delta_s=%.17g" % report.delta_s)
    print("steerable=%s" % ("yes" if report.delta_s > 0 else "no"))
    return 0


def cmd_montecarlo(res):
    record = analysis.load_counts(res.args.counts)
    r_b = res.get("r_b")
    family = _family(res, r_b=r_b)
    mc = analysis.MonteCarloConfig(
        runs=res.get("runs", int, default=200000),
        r_b_mean=r_b,
        r_b_sigma=res.get("r_b_sigma", float, default=0.005),
        seed=res.get("seed", int, default=0))
    x_phases = _x_phases(res) if record.n_points != 4 else None
    result = analysis.monte_carlo(record, family, mc, x_phases=x_phases,
                                  threads=res.threads())
    out = res.args.output or "mc_results.txt"
    analysis.write_mc_result(out, result)
    print("mean=%.17g" % result.mean)
    print("std=%.17g" % result.std)
    print("runs=%d" % result.runs)
    print("seed=%d" % result.seed)
    print("redraws=%d" % result.redraws)
    print("grid_error=%.3e" % result.grid_error)
    print(f"results written to {out}")
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
                        help="worker cap (fallback: STEERING_LAB_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute unsteerable bounds and "
                                     "coefficients")
    _add_common(p, "s", "t", "m", "r_b", "phases")
    p.add_argument("--n-max-tol", dest="n_max_tol", type=float, default=None,
                   help="full-space bound convergence tolerance")
    p.add_argument("--output", default=None, help="export file path")
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
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--sample", type=int, default=None,
                   help="expected events per point; emit a counts file")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="certified critical efficiency of the "
                                       "assemblage (LHS model up to it, "
                                       "violated functional above it)")
    _add_common(p, "r_a", "m", "phases", "visibility")
    p.add_argument("--eta", type=float, default=None,
                   help="print the certified verdict at this efficiency "
                        "instead")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("optimize", help="phase optimization by "
                                        "random-restart simplex")
    _add_common(p, "r_a", "m", "seed")
    p.add_argument("--restarts", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("analyze", help="counts file -> fits -> setting "
                                       "table -> S - S_max")
    p.add_argument("counts", help="counts file path")
    _add_common(p, "s", "t", "m", "r_b", "phases", "x_phases")
    p.add_argument("--mode", choices=("from_fit", "nearest_point"),
                   default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("montecarlo", help="resampling error estimate of "
                                          "S - S_max")
    p.add_argument("counts", help="counts file path")
    _add_common(p, "s", "t", "m", "r_b", "phases", "x_phases", "seed")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--r-b-sigma", dest="r_b_sigma", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        res = RunConfig(args)
        return args.func(res)
    except (ValidationError, ParseError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except IndeterminateFeasibilityError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _COMPUTATION_EXIT
    except SteeringLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _COMPUTATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
