"""End-to-end CLI tests, run in process through main(argv)."""

import contextlib
import io
import os
from pathlib import Path
import subprocess
import sys
import tempfile

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from steering_lab.analysis import load_counts, write_counts
from steering_lab.cli import main
from steering_lab.quantum_model import default_config, phase_sweep

QUBIT_BOUND_DEFAULT = "1.0002063393115832"
FULL_BOUND_DEFAULT = "1.0008400711084244"
FULL_BOUND_R20 = "1.0007083333333333"


def _lines(capsys):
    out, err = capsys.readouterr()
    return out.splitlines(), err.splitlines()


def _kv(lines):
    return dict(line.split("=", 1) for line in lines if "=" in line
                and " " not in line.split("=", 1)[0])


def _write_model_sweep(path, n_points=72, scale=1e9):
    phases = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    sweep = phase_sweep(default_config(), phases)
    counts = np.rint(scale * sweep.probs).astype(np.int64)
    from steering_lab.analysis import CountsRecord
    write_counts(path, CountsRecord(phases=phases, counts=counts))
    return path


def test_bound_defaults(tmp_path, capsys):
    out_file = tmp_path / "ineq.txt"
    assert main(["bound", "--output", str(out_file)]) == 0
    out, err = _lines(capsys)
    assert not err
    kv = _kv(out)
    assert kv["s_max_qubit"] == QUBIT_BOUND_DEFAULT
    assert kv["s_max"] == FULL_BOUND_DEFAULT
    assert kv["n_max_used"] == "3"
    assert float(kv["s_max"]) >= float(kv["s_max_qubit"])
    assert any(line.startswith("c_pp:") for line in out)
    exported = _kv(out_file.read_text().splitlines())
    assert exported["s_max"] == FULL_BOUND_DEFAULT
    assert exported["m"] == "4"


def test_bound_compare_appends_report(tmp_path, capsys):
    assert main(["bound", "--output", str(tmp_path / "i.txt"),
                 "--compare"]) == 0
    out, _ = _lines(capsys)
    assert any("reported" in line for line in out)


def test_bound_rejects_bad_parameters(capsys):
    assert main(["bound", "--t", "0"]) == 2
    out, err = _lines(capsys)
    assert not out
    assert len(err) == 1
    assert err[0].startswith("ValidationError:")


def test_bound_convergence_tolerance_flag(tmp_path, capsys):
    assert main(["bound", "--r-b", "0.2",
                 "--output", str(tmp_path / "i.txt")]) == 0
    out, _ = _lines(capsys)
    kv = _kv(out)
    assert kv["s_max"] == FULL_BOUND_R20
    assert int(kv["n_max_used"]) <= 4


def test_bound_is_exact_where_successive_cutoffs_agree_early(tmp_path,
                                                              capsys):
    # at r_B = 0.6 the cutoff-2 and cutoff-3 maxima agree to 1e-9 while
    # both lie 1.08e-3 below the photon-number-space bound
    assert main(["bound", "--r-b", "0.6",
                 "--output", str(tmp_path / "i.txt")]) == 0
    out, _ = _lines(capsys)
    kv = _kv(out)
    assert float(kv["s_max"]) == pytest.approx(1.083608314875498, abs=1e-12)
    assert int(kv["n_max_used"]) > 3


def test_simulate_lossless_no_displacement(capsys):
    assert main(["simulate", "--eta", "1", "--r-a", "0", "--r-b", "0"]) == 0
    out, _ = _lines(capsys)
    rows = [line.split() for line in out if line and not
            line.startswith("#")]
    assert len(rows) == 16
    for row in rows:
        vals = [float(v) for v in row[2:]]
        assert vals == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)


def test_simulate_oracle_check(capsys):
    assert main(["simulate", "--oracle"]) == 0
    out, _ = _lines(capsys)
    kv = _kv(out)
    assert kv["oracle_check"] == "pass"
    assert float(kv["oracle_max_deviation"]) < 1e-6


def test_sweep_rows_normalize(capsys):
    assert main(["sweep", "--points", "60"]) == 0
    out, _ = _lines(capsys)
    rows = [line.split() for line in out if line and not
            line.startswith("#")]
    assert len(rows) == 60
    for row in rows:
        assert sum(float(v) for v in row[1:]) == pytest.approx(1.0,
                                                               abs=1e-9)
    assert main(["sweep", "--points", "3"]) == 2


def test_sweep_sampling_emits_loadable_counts(tmp_path, capsys):
    out_file = tmp_path / "counts.txt"
    assert main(["sweep", "--sample", "2000", "--seed", "4",
                 "--output", str(out_file)]) == 0
    record = load_counts(out_file)
    assert record.n_points == 50
    assert record.counts.sum() > 0


def test_certify_fixed_eta(capsys):
    assert main(["certify", "--eta", "0.3", "--r-a", "0.2"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "feasible (unsteerable)"
    assert float(_kv(out)["certificate_residual"]) <= 1e-9
    assert any(line.startswith("iterations=") for line in out)
    assert main(["certify", "--eta", "1", "--r-a", "0.2"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "infeasible (steerable)"
    assert float(_kv(out)["functional_margin"]) > 0.0
    # one setting: every table has an LHS model, eta = 1 on its boundary
    assert main(["certify", "--m", "1", "--eta", "1", "--r-a", "0.2"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "feasible (unsteerable)"
    assert float(_kv(out)["certificate_residual"]) <= 1e-9


def test_certify_critical_efficiency(capsys):
    assert main(["certify", "--r-a", "0.2"]) == 0
    out, _ = _lines(capsys)
    kv = _kv(out)
    eta_star = float(kv["eta_star"])
    assert eta_star == pytest.approx(0.4195681, abs=1e-6)
    # inside the bracket the earlier bisection solver reported
    assert 0.4189453125 <= eta_star <= 0.419921875
    assert float(kv["feasible_at"]) == eta_star
    gap = float(kv["infeasible_at"]) - eta_star
    assert 0.0 < gap <= 1e-8
    assert float(kv["bracket_width"]) == pytest.approx(gap, rel=1e-6)


def test_certify_visibility_raises_the_critical_efficiency(capsys):
    stars = []
    for visibility in ("1", "0.9", "0.5"):
        assert main(["certify", "--r-a", "0.2",
                     "--visibility", visibility]) == 0
        out, _ = _lines(capsys)
        stars.append(float(_kv(out)["eta_star"]))
    assert stars[0] == pytest.approx(0.4195681, abs=1e-6)
    assert stars[0] < stars[1] < stars[2]


def test_optimize_is_reproducible(capsys):
    argv = ["optimize", "--restarts", "2", "--seed", "7", "--r-a", "0.2"]
    assert main(argv) == 0
    first, _ = _lines(capsys)
    assert main(argv) == 0
    second, _ = _lines(capsys)
    assert first == second
    kv = _kv(first)
    assert float(kv["eta_star"]) <= 1.0
    assert sum(1 for line in first if line.startswith("restart_")) == 2


def test_analyze_detects_steering(tmp_path, capsys):
    counts = _write_model_sweep(tmp_path / "sweep.txt")
    assert main(["analyze", str(counts)]) == 0
    out, _ = _lines(capsys)
    assert any(line.startswith("fit_pp:") for line in out)
    kv = _kv(out)
    assert float(kv["delta_s"]) > 0.0
    assert kv["steerable"] == "yes"
    assert float(kv["delta_s"]) == pytest.approx(0.002953518415892198,
                                                 abs=1e-6)


def test_montecarlo_writes_results(tmp_path, capsys):
    counts = _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    out_file = tmp_path / "mc.txt"
    assert main(["montecarlo", str(counts), "--runs", "300",
                 "--r-b-sigma", "0.0005", "--seed", "1",
                 "--output", str(out_file)]) == 0
    out, _ = _lines(capsys)
    kv = _kv(out)
    assert int(kv["runs"]) == 300
    text = out_file.read_text()
    head, _, hist = text.partition("histogram\n")
    entries = _kv(head.splitlines())
    assert entries["mean"] == kv["mean"]
    total = sum(int(line.split()[2]) for line in hist.strip().splitlines())
    assert total == 300


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep setup\nr_b=0.2\npoints=60\n")
    assert main(["--config", str(cfg), "bound",
                 "--output", str(tmp_path / "a.txt")]) == 0
    out, _ = _lines(capsys)
    assert _kv(out)["s_max"] == FULL_BOUND_R20
    # flags beat the file
    assert main(["--config", str(cfg), "bound", "--r-b", "0.217",
                 "--output", str(tmp_path / "b.txt")]) == 0
    out, _ = _lines(capsys)
    assert _kv(out)["s_max"] == FULL_BOUND_DEFAULT
    # irrelevant keys (points) are ignored by bound; bad files are not
    bad = tmp_path / "bad.cfg"
    bad.write_text("r_b 0.2\n")
    assert main(["--config", str(bad), "bound"]) == 2


def test_shared_config_file_leaves_each_command_its_mode(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("eta=0.52\nr_a=0.2\noutput=%s\nsample=10\n"
                   "verdict_eta=0.3\n" % (tmp_path / "elsewhere.txt"))
    # eta= is simulate's; certify still prints the critical efficiency
    assert main(["--config", str(cfg), "certify"]) == 0
    out, _ = _lines(capsys)
    assert float(_kv(out)["eta_star"]) == pytest.approx(0.4195681, abs=1e-6)
    assert "verdict" not in " ".join(out)
    # output= and sample= are command-line only: both commands print
    assert main(["--config", str(cfg), "simulate"]) == 0
    out, _ = _lines(capsys)
    assert out[0].startswith("# eta=0.52000000000000002 r_a=0.2000")
    assert len(out) == 18
    assert main(["--config", str(cfg), "sweep", "--points", "8"]) == 0
    out, _ = _lines(capsys)
    assert len(out) == 10
    assert not (tmp_path / "elsewhere.txt").exists()


def test_threads_environment_fallback(tmp_path, capsys, monkeypatch):
    counts = _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    base = ["montecarlo", str(counts), "--runs", "200", "--r-b-sigma", "0",
            "--seed", "2", "--output"]
    assert main(base + [str(tmp_path / "a.txt")]) == 0
    one, _ = _lines(capsys)
    monkeypatch.setenv("STEERING_LAB_THREADS", "3")
    assert main(base + [str(tmp_path / "b.txt")]) == 0
    three, _ = _lines(capsys)
    assert _kv(one)["mean"] == _kv(three)["mean"]
    monkeypatch.setenv("STEERING_LAB_THREADS", "lots")
    assert main(base + [str(tmp_path / "c.txt")]) == 2


def test_analyze_computation_errors_exit_3(tmp_path, capsys):
    path = tmp_path / "degenerate.txt"
    rows = ["%.17g 10 10 10 10" % p
            for p in (0.0, np.pi, 2 * np.pi, 3 * np.pi)]
    path.write_text("\n".join(rows) + "\n")
    assert main(["analyze", str(path)]) == 3
    _, err = _lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("FitError:")


def test_parse_errors_carry_the_line_number(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("0.1 1 2 3\n")
    assert main(["analyze", str(path)]) == 2
    _, err = _lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("ParseError:")
    assert "line 1" in err[0]


def test_unknown_flags_exit_2(capsys):
    assert main(["bound", "--frobnicate"]) == 2
    _, err = _lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("ValidationError:")


@pytest.mark.parametrize("command, entry", [
    (["simulate"], "eta=abc"),
    (["montecarlo", "COUNTS", "--runs", "10", "--output", "OUT"],
     "threads=x"),
    (["montecarlo", "COUNTS", "--runs", "10", "--output", "OUT"],
     "r_b_sigma=inf"),
    (["montecarlo", "COUNTS", "--runs", "10", "--output", "OUT"],
     "r_b_sigma=nan"),
])
def test_config_values_are_read_typed(tmp_path, capsys, command, entry):
    counts = _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    argv = [str(counts) if a == "COUNTS" else str(tmp_path / "mc.txt")
            if a == "OUT" else a for a in command]
    assert main(["--config", str(cfg), *argv]) == 2
    out, err = _lines(capsys)
    assert not out
    assert len(err) == 1
    assert err[0].startswith("ValidationError:")
    assert entry.split("=")[0] in err[0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--r-a", "inf"],
    ["simulate", "--r-b", "nan"],
    ["simulate", "--phases", "0,inf,1,2"],
    ["certify", "--r-a", "inf"],
    ["bound", "--s", "inf"],
    ["bound", "--t", "inf"],
    ["bound", "--phases", "0,1,2,inf"],
    # seeds outside [0, 2**64) are out of range in the same way
    ["sweep", "--sample", "10", "--seed", "-1"],
    ["optimize", "--restarts", "1", "--seed", "-1"],
])
def test_non_finite_input_is_rejected(capsys, argv):
    assert main(argv) == 2
    out, err = _lines(capsys)
    assert not out
    assert len(err) == 1
    assert err[0].startswith("ValidationError:")


_FLOAT = st.one_of(st.sampled_from((np.inf, -np.inf, np.nan)),
                  st.floats(-2.0, 2.0), st.floats())
_FLOATS = _FLOAT.map(repr)
_INTS = st.one_of(st.integers(-3, 3), st.integers(-3, 60)).map(str)
_VALUES = {
    "eta": _FLOATS, "r_a": _FLOATS, "r_b": _FLOATS, "s": _FLOATS,
    "t": _FLOATS, "visibility": _FLOATS, "start": _FLOATS, "stop": _FLOATS,
    # 2^m strategies are enumerated at up to 25 cutoffs, so m stays small
    "m": st.integers(-2, 8).map(str),
    "phases": st.lists(_FLOAT, max_size=6).map(
        lambda xs: ",".join(map(repr, xs))),
    "seed": _INTS, "points": _INTS, "sample": _INTS,
}
_OPTIONS = {
    "bound": ("s", "t", "m", "r_b", "phases"),
    "simulate": ("eta", "r_a", "r_b", "m", "visibility", "phases"),
    "sweep": ("eta", "r_a", "r_b", "m", "visibility", "phases", "seed",
              "points", "start", "stop", "sample"),
}
_CONFIG_LINE = st.one_of(
    st.sampled_from(sorted(_VALUES) + ["threads", "output", "bogus"]).flatmap(
        lambda key: st.one_of(
            _VALUES.get(key, _INTS),
            st.text(".,-+eainf x", max_size=8)).map(
                lambda value: f"{key}={value}")),
    st.text("abc =#", max_size=6))


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    names = draw(st.lists(st.sampled_from(_OPTIONS[command]), unique=True))
    flags = ["--%s=%s" % (name.replace("_", "-"), draw(_VALUES[name]))
             for name in names]
    config = draw(st.one_of(st.none(), st.lists(_CONFIG_LINE, max_size=5)))
    return command, flags, config


@settings(max_examples=200, deadline=None)
@given(_invocations())
def test_fuzzed_invocations_exit_cleanly(invocation):
    command, flags, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        if command != "simulate":
            argv += ["--output", f"{tmp}/out.txt"]
        if config is not None:
            with open(f"{tmp}/run.cfg", "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            argv = ["--config", f"{tmp}/run.cfg", *argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, lines)
    assert len(lines) <= 1, (argv, lines)
    assert not any("Traceback" in line for line in lines)


def _fresh_python(cwd, *args):
    """Run a new interpreter on the package sources, with numpy's warnings
    written to stderr rather than recorded by pytest, and with no module
    imported by an earlier test."""
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("argv, code", [
    # numpy overflows in the first two; no warning may reach stderr
    (["bound", "--t", "1e308"], 3),
    (["sweep", "--points", "5", "--stop", "1e308"], 2),
    (["bound", "--s", "1e-308", "--m", "5"], 0),
    (["simulate", "--r-a", "1e200", "--r-b", "1e-200", "--eta", "1e-320"], 0),
])
def test_real_stderr_keeps_the_one_line_contract(tmp_path, argv, code):
    """Run in a subprocess: in process, pytest records numpy's warnings
    instead of letting them reach stderr."""
    proc = _fresh_python(tmp_path, "-m", "steering_lab.cli", *argv,
                         "--output", str(tmp_path / "out.txt"))
    err = proc.stderr.splitlines()
    assert proc.returncode == code, err
    assert len(err) == (1 if code else 0), err
    if code:
        assert err[0].split(":")[0].isidentifier()


def test_short_commands_leave_scipy_unloaded(tmp_path):
    # only the phase optimizer needs scipy; a module-level scipy import
    # anywhere in the package fails this
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    script = "\n".join([
        "import sys",
        "from steering_lab.cli import main",
        "for argv in (['bound'], ['sweep'], ['simulate', '--oracle'],",
        "             ['certify', '--r-a', '0.2', '--eta', '0.3'],",
        "             ['analyze', 'sweep.txt'],",
        "             ['montecarlo', 'sweep.txt', '--runs', '2000']):",
        "    assert main(argv) == 0, argv",
        "print(sorted(name for name in sys.modules",
        "             if name.partition('.')[0] == 'scipy'))",
    ])
    proc = _fresh_python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    keys = _kv((tmp_path / "mc_results.txt").read_text().splitlines())
    assert {"gauss_amp", "gauss_mean", "gauss_std"} <= set(keys)


@pytest.mark.parametrize("argv", [
    ["optimize", "--restarts", "1", "--seed", "7"],
    ["simulate", "--oracle"],
    ["montecarlo", "sweep.txt", "--runs", "2000"],
])
def test_first_scipy_import_runs_under_the_raising_errstate(tmp_path, argv):
    """Each command runs in a fresh process inside cli.main's
    np.errstate(raise) and leaves the real stderr empty. optimize, the one
    command that loads scipy, imports it there for the first time; in
    process an earlier test has imported it."""
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    proc = _fresh_python(tmp_path, "-m", "steering_lab.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_heavy_tailed_montecarlo_keeps_stderr_empty(tmp_path):
    """Draws of r_B near zero give margins growing as 1/r_B; the histogram
    fit over that heavy tail must neither raise nor warn."""
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    proc = _fresh_python(tmp_path, "-m", "steering_lab.cli", "montecarlo",
                         "sweep.txt", "--r-b", "0.002", "--r-b-sigma",
                         "0.002", "--runs", "2000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
