"""End-to-end CLI tests, run in process through main(argv)."""

import ast
import contextlib
import importlib
import io
import json
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys
import tempfile
import time

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from steering_lab.analysis import load_counts, write_counts
from steering_lab.cli import build_parser, main
from steering_lab.quantum_model import ModelConfig, phase_sweep

QUBIT_BOUND_DEFAULT = "1.0002063393115832"
FULL_BOUND_DEFAULT = "1.0008400711084244"
FULL_BOUND_R20 = "1.0007083333333333"


def _lines(capsys):
    out, err = capsys.readouterr()
    return out.splitlines(), err.splitlines()


def _nan_tokens(lines):
    """The values printed as nan in key=value output lines."""
    return [tok for line in lines for tok in re.split(r"[\s=]+", line)
            if tok == "nan"]


def _kv(lines):
    return dict(line.split("=", 1) for line in lines if "=" in line
                and " " not in line.split("=", 1)[0])


def _write_model_sweep(path, n_points=72, scale=1e9):
    phases = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    sweep = phase_sweep(ModelConfig(), phases)
    counts = np.rint(scale * sweep).astype(np.int64)
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


@pytest.mark.parametrize("r_b", [[], ["--r-b", "0.217"], ["--r-b", "0.3"]])
def test_bound_compare_is_taken_at_the_snapshot_parameters(tmp_path, capsys,
                                                           r_b):
    # the reported values were taken at r_B = 0.21: the report compares
    # there, whatever amplitude the bound itself is built at
    assert main(["bound", "--output", str(tmp_path / "i.txt"), "--compare",
                 *r_b]) == 0
    out, _ = _lines(capsys)
    assert "coefficient comparison at s=0.983 t=0.0656 r_B=0.21" in out


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
    assert record.phases.size == 50
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


@pytest.mark.parametrize("r_a", ["0.2", "0.233"])
def test_certify_printed_ends_give_their_own_verdicts(capsys, r_a):
    assert main(["certify", "--r-a", r_a]) == 0
    kv = _kv(_lines(capsys)[0])
    for end, verdict in (("feasible_at", "feasible (unsteerable)"),
                         ("infeasible_at", "infeasible (steerable)")):
        assert main(["certify", "--r-a", r_a, "--eta", kv[end]]) == 0
        out, _ = _lines(capsys)
        assert out[0] == verdict, (end, kv[end])


def test_certify_visibility_raises_the_critical_efficiency(capsys):
    stars = []
    for visibility in ("1", "0.9", "0.5"):
        assert main(["certify", "--r-a", "0.2",
                     "--visibility", visibility]) == 0
        out, _ = _lines(capsys)
        stars.append(float(_kv(out)["eta_star"]))
    assert stars[0] == pytest.approx(0.4195681, abs=1e-6)
    assert stars[0] < stars[1] < stars[2]


def test_certify_decides_on_a_thin_interior(capsys):
    """Near r_A = 0 the LHS set has an interior of width O(r_A^2), and the
    Newton systems of an interior-point method are ill-conditioned."""
    for r_a in ("5e-4", "1e-3", "2e-3", "3e-3"):
        assert main(["certify", "--r-a", r_a]) == 0
        out, _ = _lines(capsys)
        assert 0.0 < float(_kv(out)["bracket_width"]) <= 1e-8, r_a


def test_certify_at_r_a_zero_decides_that_nothing_steers(capsys):
    """At r_A = 0 every setting is the same measurement. The table has an
    LHS model up to eta = 1 exactly, where a trusted conditional state turns
    singular, and the LHS set has no interior: the certified interval holds
    1, and eta = 1 itself reads feasible."""
    assert main(["certify", "--r-a", "0"]) == 0
    kv = _kv(_lines(capsys)[0])
    assert float(kv["feasible_at"]) <= 1.0 <= float(kv["infeasible_at"])
    assert 0.0 < float(kv["bracket_width"]) <= 1e-8
    assert main(["certify", "--r-a", "0", "--eta", "1"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "feasible (unsteerable)"
    # below the thin-interior range the solve may run out of iterations,
    # which ends in one line and exit 3
    code = main(["certify", "--r-a", "1e-4"])
    out, err = _lines(capsys)
    assert (code, len(err)) in ((0, 0), (3, 1))


def test_certify_names_the_rounding_floor(capsys):
    # below r_A ~ 3.5e-4 the functional's rounding unit alone is wider than
    # the certified interval may be: one line says so, at once
    start = time.monotonic()
    assert main(["certify", "--r-a", "1e-4"]) == 3
    assert time.monotonic() - start < 1.0
    out, err = _lines(capsys)
    assert not out and len(err) == 1
    assert re.fullmatch(r"IndeterminateFeasibilityError: r_A=0\.0001: rounding "
                        r"unit \S+ in eta exceeds GAP_TOL 1e-08", err[0])


@pytest.mark.parametrize("flag, value", [("--m", "nearest_point"),
                                         ("--mo", "from_fit")])
def test_option_prefixes_are_not_taken_as_abbreviations(tmp_path, capsys,
                                                        flag, value):
    counts = _write_model_sweep(tmp_path / "sweep.txt")
    assert main(["analyze", str(counts), flag, value]) == 2
    out, err = _lines(capsys)
    assert not out
    assert err == [f"ValidationError: unrecognized arguments: {flag} {value}"]


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


def test_montecarlo_picks_setting_rows_as_analyze_does(tmp_path, capsys):
    # four rows on the ladder; setting phases a quarter step away have no
    # row near them, under either command
    path = tmp_path / "four.txt"
    path.write_text("".join("%r 1000 500 400 100\n" % (k * np.pi / 2)
                            for k in range(4)))
    x_phases = ",".join(repr(0.5 + k * np.pi / 2) for k in range(4))
    errors = []
    for argv in (["analyze", str(path), "--mode", "nearest_point"],
                 ["montecarlo", str(path), "--runs", "10",
                  "--output", str(tmp_path / "mc.txt")]):
        assert main([*argv, "--x-phases", x_phases]) == 3
        out, err = _lines(capsys)
        assert not out and len(err) == 1
        errors.append(err[0])
    assert errors[0] == errors[1]
    assert errors[0].startswith("ExtractionError: no sweep sample within")
    # the ladder's own rows serve both
    assert main(["montecarlo", str(path), "--runs", "10",
                 "--output", str(tmp_path / "mc.txt")]) == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("r_b", [[], ["--r-b", "0.3"]])
def test_analyze_prints_the_montecarlo_point_estimate(tmp_path, capsys,
                                                      seed, r_b):
    # one kernel scores both commands: the same rows at the same r_B give
    # the same digits
    counts = tmp_path / "counts.txt"
    assert main(["sweep", "--points", "60", "--sample", "20000", "--seed",
                 str(seed), "--output", str(counts)]) == 0
    assert main(["analyze", str(counts), "--mode", "nearest_point",
                 *r_b]) == 0
    delta_s = _kv(_lines(capsys)[0])["delta_s"]
    assert main(["montecarlo", str(counts), "--runs", "10",
                 "--output", str(tmp_path / "mc.txt"), *r_b]) == 0
    saved = _kv((tmp_path / "mc.txt").read_text().splitlines())
    assert saved["point_estimate"] == delta_s


@pytest.mark.parametrize("sample, code", [(9999999999999999999, 2),
                                          (2 ** 61 + 1, 2), (2 ** 61, 0),
                                          (0, 2)])
def test_sweep_sample_is_bounded_by_two_to_the_61(tmp_path, capsys, sample,
                                                  code):
    # past 2**61 a row total could pass load_counts' 2**62; the int64 row
    # sum of the first value once wrapped negative and the redraw of empty
    # rows never ended
    path = tmp_path / "counts.txt"
    start = time.monotonic()
    assert main(["sweep", "--points", "8", "--sample", str(sample),
                 "--output", str(path)]) == code
    assert time.monotonic() - start < 1.0
    out, err = _lines(capsys)
    if code:
        assert not out
        assert err == ["ValidationError: events_per_point must be in "
                       f"(0, 2**61], got {sample}"]
        return
    for mode in ("from_fit", "nearest_point"):
        assert main(["analyze", str(path), "--mode", mode]) == 0
    out, err = _lines(capsys)
    assert not err and not _nan_tokens(out)


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


@pytest.mark.parametrize("argv, option", [
    (["--thr", "2", "bound"], "--thr"),
    (["--conf", "x", "bound"], "--conf"),
])
def test_unknown_top_level_options_are_named(capsys, argv, option):
    # argparse sets the unknown option aside and would report the word after
    # it as an invalid command
    assert main(argv) == 2
    out, err = _lines(capsys)
    assert out == []
    assert err == [f"ValidationError: unrecognized arguments: {option}"]


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
    # '-' and a letter stays an option, whose value is then missing
    ["sweep", "--start", "-inf"],
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


@pytest.mark.parametrize("argv, option, value", [
    (["certify"], "--phases", "-0.1,1.5,3.1,4.6"),
    (["analyze", "sweep.txt"], "--x-phases",
     "-1.5707963267948966,0,1.5707963267948966,3.141592653589793"),
    (["sweep"], "--start", "-1e-3"),
])
def test_negative_values_argparse_would_take_for_options(
        tmp_path, capsys, monkeypatch, argv, option, value):
    # argparse alone reads a comma list or an exponent after '-' as an
    # option, and the spaced form ends in "expected one argument"
    _write_model_sweep(tmp_path / "sweep.txt")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, f"{option}={value}"]) == 0
    joined = _lines(capsys)
    assert main([*argv, option, value]) == 0
    assert _lines(capsys) == joined and joined[0]


_SCORING = [["analyze"], ["analyze", "--mode", "nearest_point"],
            ["montecarlo", "--runs", "300"]]


def _scoring_argv(tmp_path, command, counts, *options):
    """argv of a _SCORING command on a counts file; montecarlo writes its
    results under tmp_path."""
    argv = [command[0], str(counts), *command[1:], *options]
    if command[0] == "montecarlo":
        argv += ["--output", str(tmp_path / "mc.txt")]
    return argv


@pytest.mark.parametrize("x_phases", ["nan,1,2,3", "0,1,2,nan"])
@pytest.mark.parametrize("command", _SCORING)
def test_non_finite_x_phases_are_rejected(tmp_path, capsys, command,
                                          x_phases):
    # NaN passes every comparison, the pi/2 spacing check's included
    counts = _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    assert main(_scoring_argv(tmp_path, command, counts, "--x-phases",
                              x_phases)) == 2
    out, err = _lines(capsys)
    assert not out
    assert len(err) == 1
    assert err[0].startswith("ValidationError: x_phases must be finite")


@pytest.mark.parametrize("total, code", [(2 ** 62, 0), (2 ** 62 + 1, 2),
                                         (2 ** 63, 2)])
@pytest.mark.parametrize("command", _SCORING)
def test_counts_files_hold_row_totals_up_to_two_to_the_62(
        tmp_path, capsys, command, total, code):
    # a larger total overflows int64 or the Poisson resampler; the ladder
    # rows carry it, so montecarlo resamples it
    path = tmp_path / "counts.txt"
    path.write_text("".join("%r %d 1 1 1\n" % (k * np.pi / 2, n)
                            for k, n in enumerate((total - 3, 5, 2 ** 40, 7))))
    assert main(_scoring_argv(tmp_path, command, path)) == code
    out, err = _lines(capsys)
    if code:
        assert not out
        assert err == ["ParseError: line 1: row total must be at most 2**62"]
    else:
        assert not err
        assert not _nan_tokens(out)


@pytest.mark.parametrize("r_b", [["--r-b", "0.9", "--r-b-sigma", "0.05"],
                                 ["--r-b-sigma", "0.3"]])
def test_montecarlo_redraws_r_b_at_or_past_one(tmp_path, capsys, r_b):
    # the bound needs r_B < 1; such draws are redrawn as r_B <= 0 ones are
    counts = _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    assert main(["montecarlo", str(counts), "--runs", "2000", *r_b,
                 "--output", str(tmp_path / "mc.txt")]) == 0
    out, err = _lines(capsys)
    assert not err
    assert int(_kv(out)["redraws"]) > 0
    assert not _nan_tokens(out)


def test_montecarlo_stops_when_r_b_draws_rarely_land_inside(tmp_path,
                                                            capsys):
    # about 4e-7 of these draws fall in (0, 1): redrawing until all do
    # would not end
    counts = _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    start = time.monotonic()
    code = main(["montecarlo", str(counts), "--r-b", "0.5", "--r-b-sigma",
                 "1e6", "--runs", "100", "--output", str(tmp_path / "m")])
    assert time.monotonic() - start < 1.0
    assert code == 2
    out, err = _lines(capsys)
    assert not out
    assert len(err) == 1 and err[0].startswith("ValidationError: r_B draws")


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
    "seed": _INTS, "points": _INTS,
    # around the 2**61 bound, load_counts' 2**62 and int64's end
    "sample": st.one_of(_INTS, st.sampled_from(
        (2 ** 61, 2 ** 61 + 1, 2 ** 62, 2 ** 63, 9999999999999999999)).map(
            str)),
    "mode": st.sampled_from(("from_fit", "nearest_point", "fit")),
    "r_b_sigma": st.sampled_from(("0", "0.005", "0.02", "0.1", "1e-300",
                                  "-1", "nan", "inf")),
    "runs": st.integers(-1, 40).map(str),
}
_VALUES["x_phases"] = _VALUES["phases"]


def _parser_options():
    """The options that take a value, by command, as build_parser declares
    them: certify and optimize have their own fuzz test below, and the
    output path and the switches that only add output (--compare,
    --oracle) are left out."""
    return {command: tuple(action.dest for action in sub._actions
                           if action.option_strings and action.nargs != 0
                           and action.dest != "output")
            for command, sub in build_parser().commands.items()
            if command not in ("certify", "optimize")}


_OPTIONS = _parser_options()
# Where a command reads its counts file and writes its output: one that
# works, a missing file or directory, a directory in place of a file, and
# a file that is not UTF-8.
_COUNTS_SOURCES = ("model", "drawn", "missing", "directory", "binary")
_OUTPUTS = {"bound": ("file", "missing", "directory"),
            "simulate": (None, "file", "missing", "directory"),
            "sweep": ("file", "missing", "directory"),
            "montecarlo": ("file", "missing", "directory")}
# counts rows at phases k pi/4, so that 4 rows can hold the ladder, mixed
# with junk lines; most drawn files are malformed
_COUNTS_ROWS = st.lists(st.one_of(
    st.lists(st.integers(-1, 40), min_size=4, max_size=4),
    st.text("0123456789 .-+einf#x", max_size=14)), max_size=12)
_CONFIG_LINE = st.one_of(
    st.sampled_from(sorted(_VALUES) + ["threads", "output", "bogus"]).flatmap(
        lambda key: st.one_of(
            _VALUES.get(key, _INTS),
            st.text(".,-+eainf x", max_size=8)).map(
                lambda value: f"{key}={value}")),
    st.text("abc =#", max_size=6))
_NOT_UTF8 = b"\xff\xfe0.5 1 2 3 4\n"


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    names = draw(st.lists(st.sampled_from(_OPTIONS[command]), unique=True))
    if command == "montecarlo" and "runs" not in names:
        names.append("runs")       # the default 200000 runs take too long
    flags = ["--%s=%s" % (name.replace("_", "-"), draw(_VALUES[name]))
             for name in names]
    counts = rows = None
    if command in ("analyze", "montecarlo"):
        counts = draw(st.sampled_from(_COUNTS_SOURCES))
        if counts == "drawn":
            rows = draw(_COUNTS_ROWS)
    output = draw(st.sampled_from(_OUTPUTS.get(command, (None,))))
    config = draw(st.one_of(st.none(), st.just(_NOT_UTF8),
                            st.lists(_CONFIG_LINE, max_size=5)))
    return command, flags, (counts, rows), output, config


def _counts_argument(tmp, source, rows):
    if source == "model":
        return str(_write_model_sweep(Path(tmp) / "counts.txt", scale=1e5))
    if source == "drawn":
        lines = [row if isinstance(row, str) else "%r %s" % (
            k * np.pi / 4, " ".join(map(str, row)))
            for k, row in enumerate(rows)]
        Path(tmp, "counts.txt").write_text("\n".join(lines) + "\n")
        return f"{tmp}/counts.txt"
    if source == "binary":
        Path(tmp, "counts.txt").write_bytes(_NOT_UTF8)
        return f"{tmp}/counts.txt"
    return {"missing": f"{tmp}/absent.txt", "directory": tmp}[source]


@settings(max_examples=300, deadline=None)
@given(_invocations())
# NaN setting phases, which pass the pi/2 spacing check's comparison
@example(("analyze", ["--x-phases=nan,1,2,3"], ("model", None), None, None))
@example(("montecarlo", ["--x-phases=0,1,2,nan", "--runs=10"],
          ("model", None), "file", None))
# an int64 row sum that wrapped negative once made this loop forever
@example(("sweep", ["--sample=9999999999999999999"], (None, None), "file",
          None))
def test_fuzzed_invocations_exit_cleanly(invocation):
    # an option the parser gained without a value strategy fails here
    assert {name for names in _OPTIONS.values() for name in names} \
        <= set(_VALUES)
    command, flags, (counts, rows), output, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        if counts is not None:
            argv.insert(1, _counts_argument(tmp, counts, rows))
        if output is not None:
            argv += ["--output", {"file": f"{tmp}/out.txt",
                                  "missing": f"{tmp}/absent/out.txt",
                                  "directory": tmp}[output]]
        if config is not None:
            Path(tmp, "run.cfg").write_bytes(
                config if config == _NOT_UTF8
                else ("\n".join(config) + "\n").encode())
            argv = ["--config", f"{tmp}/run.cfg", *argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, lines)
    assert len(lines) <= 1, (argv, lines)
    assert not any("Traceback" in line for line in lines)
    # a scoring command that succeeds scores finite numbers
    if code == 0 and command in ("analyze", "montecarlo"):
        assert not _nan_tokens(out.getvalue().splitlines()), argv


# the certified gap of the m = 4 ladder at the default r_A, as certify
# prints it (feasible_at, infeasible_at)
_LADDER_GAP = ("0.4267373781442953", "0.42673737844208903")


@st.composite
def _decisions(draw):
    if draw(st.booleans()):
        return ["optimize", "--m", "4",
                "--restarts", str(draw(st.integers(1, 3))),
                "--seed", str(draw(st.integers(0, 3)))]
    argv = ["certify", "--m", str(draw(st.integers(1, 6)))]
    # the solver's edges: no interior at r_A = 0, a thin one at 1e-3
    r_a = draw(st.sampled_from((None, "0", "1e-3", "0.2", "0.233", "0.9")))
    eta = draw(st.sampled_from((None, "0", "1") + _LADDER_GAP))
    return argv + ([] if r_a is None else ["--r-a", r_a]) + (
        [] if eta is None else ["--eta", eta])


@settings(max_examples=10, deadline=None)
@given(_decisions())
# r_A = 0: the LHS set has no interior, and eta* = 1 exactly
@example(["certify", "--r-a", "0", "--eta", "0.5"])
def test_fuzzed_decisions_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, lines)
    assert len(lines) <= 1, (argv, lines)
    assert not any("Traceback" in line for line in lines)


# what each command needs besides --m and --phases to run
_RUNNABLE = {"bound": ["--output", "{tmp}/out.txt"], "simulate": [],
             "sweep": ["--output", "{tmp}/out.txt"],
             "certify": ["--eta", "0.5"]}
# the data commands, which score counts against the m = 4 ladder only
_DATA = {"analyze": ["{tmp}/counts.txt"],
         "montecarlo": ["{tmp}/counts.txt", "--runs", "10",
                        "--output", "{tmp}/out.txt"]}


@pytest.mark.parametrize("command", sorted(_RUNNABLE))
def test_m_and_phases_of_another_length_are_rejected(tmp_path, capsys,
                                                      command):
    _write_model_sweep(tmp_path / "counts.txt")
    extra = [arg.format(tmp=tmp_path) for arg in _RUNNABLE[command]]
    assert main([command, *extra, "--m", "5", "--phases", "0,1,2,3"]) == 2
    out, err = _lines(capsys)
    assert not out
    assert err == ["ValidationError: alice_phases needs 5 entries, got 4"]
    # the same phases under a matching --m run
    assert main([command, *extra, "--m", "4", "--phases", "0,1,2,3"]) == 0


@pytest.mark.parametrize("command", sorted(_DATA))
def test_data_commands_reject_ladder_options(tmp_path, capsys, command):
    _write_model_sweep(tmp_path / "counts.txt")
    extra = [arg.format(tmp=tmp_path) for arg in _DATA[command]]
    rotated = ",".join(repr(k * np.pi / 2) for k in (1, 2, 3, 0))
    for options in (["--phases", "0,1,2,3"], ["--phases", rotated],
                    ["--m", "5", "--phases", "0,1,2,3"]):
        assert main([command, *extra, *options]) == 2
        out, err = _lines(capsys)
        assert not out
        assert len(err) == 1 and err[0].startswith("ValidationError: ")
    assert main([command, *extra]) == 0


def test_readme_examples_run_in_order(tmp_path, capsys, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [shlex.split(line.partition("#")[0])[1:]
                for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("steering-lab ")]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        _, err = _lines(capsys)
        assert code == 0, (argv, err)


def _fresh_env(**overrides):
    """The environment of a new interpreter on the package sources, with
    numpy's warnings written to stderr rather than recorded by pytest; an
    override of None removes the variable."""
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for key, value in overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return env


def _fresh_python(cwd, *args, **env):
    """Run a new interpreter, with no module imported by an earlier test."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_fresh_env(**env), cwd=cwd,
                          timeout=120)


# Runs main on argv in a fresh interpreter and prints, as its last line,
# the exit code and the loaded modules.
_REPORT_MAIN = """
import json, sys
from steering_lab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _report_main(cwd, argv, **env):
    proc = _fresh_python(cwd, "-c", _REPORT_MAIN, *argv, **env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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


def test_an_overflowing_trusted_amplitude_is_a_floating_point_error(capsys):
    # 1 / (2 r_B) overflows inside the Pauli resolution
    code = main(["bound", "--r-b", "1e-320"])
    out, err = _lines(capsys)
    assert code == 3 and out == []
    assert err == ["FloatingPointError: overflow encountered in divide"]


@pytest.mark.parametrize("r_b, command", [
    pytest.param("1e-10", ["bound"], id="1e-10"),
    pytest.param("1e-20", ["bound"], id="1e-20"),
    # the fixed-amplitude row of montecarlo is the checked build of bound
    # and analyze; at sigma 0 it printed mean=30422507.17 with exit 0
    *(pytest.param("1e-10", ["montecarlo", "sweep.txt", "--runs", "2000",
                             "--r-b-sigma", sigma], id=f"montecarlo-{sigma}")
      for sigma in ("0", "0.005")),
])
def test_a_bound_that_rounding_swamps_is_one_error_line(
        tmp_path, capsys, monkeypatch, r_b, command):
    # F grows as t / (2 r_B); at 1e-20 S_max printed 110.57 with exit 0
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--r-b", r_b, "--output", "out.txt"])
    out, err = _lines(capsys)
    assert code == 3 and out == [] and len(err) == 1
    assert re.fullmatch(rf"SingularDecompositionError: r_B={r_b}: rounding "
                        r"unit \S+ in S_max exceeds NORM_TOL 1e-09", err[0])
    assert not (tmp_path / "out.txt").exists()


# Runs main on argv in a fresh interpreter whose address space is capped
# at 4 GiB, so that an allocation past it fails whatever the host's
# overcommit policy.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from steering_lab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["sweep", "--points", "100000000000"],
    ["montecarlo", "sweep.txt", "--runs", "1000000000000"],
])
def test_an_array_too_large_for_memory_keeps_the_one_line_contract(tmp_path,
                                                                   argv):
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    proc = _fresh_python(tmp_path, "-c", _CAPPED_MAIN, *argv, "--output",
                         str(tmp_path / "out.txt"))
    err = proc.stderr.splitlines()
    assert proc.returncode == 3, err
    assert len(err) == 1 and err[0].startswith("MemoryError: "), err
    assert proc.stdout == ""


def test_short_commands_leave_scipy_unloaded(tmp_path):
    # the package runs on numpy alone; a scipy import anywhere in it, at
    # module level or inside a command, fails this
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    script = "\n".join([
        "import sys",
        "from steering_lab.cli import main",
        "for argv in (['bound'], ['sweep'], ['simulate', '--oracle'],",
        "             ['certify', '--r-a', '0.2', '--eta', '0.3'],",
        "             ['optimize', '--restarts', '1', '--seed', '7'],",
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


@pytest.mark.parametrize("argv, code, absent", [
    # parsed before numpy is imported
    (["--help"], 0, "numpy"),
    (["bound", "--frobnicate"], 2, "numpy"),
    (["bound"], 0, "steering_lab.lhs_certification steering_lab.analysis"),
    (["certify", "--r-a", "0.2", "--eta", "0.3"], 0,
     "steering_lab.analysis"),
    # numpy.ma comes in through np.unique, np.percentile among its callers
    (["analyze", "sweep.txt"], 0, "numpy.ma"),
    (["analyze", "sweep.txt", "--mode", "nearest_point"], 0, "numpy.ma"),
    (["montecarlo", "sweep.txt", "--runs", "3000", "--r-b-sigma", "0.005"],
     0, "numpy.ma steering_lab.quantum_model"),
    # numpy.fft serves only trusted amplitudes r_B >= 1
    (["bound"], 0, "numpy.fft"),
    # analyze scores the four distributions without building a table
    (["analyze", "sweep.txt"], 0, "steering_lab.quantum_model numpy.fft"),
    (["analyze", "sweep.txt", "--mode", "nearest_point"], 0,
     "steering_lab.quantum_model numpy.fft"),
    (["montecarlo", "sweep.txt", "--runs", "3000", "--r-b-sigma", "0.005"],
     0, "numpy.fft"),
    # optimize draws its starting phases from the stdlib random module
    (["optimize", "--restarts", "1", "--seed", "7"], 0, "numpy.random"),
    (["certify", "--r-a", "0.2"], 0, "numpy.random"),
    # exact arithmetic serves the certify and optimize verdicts alone
    *((argv, 0, "fractions") for argv in (
        ["--help"], ["bound"], ["simulate"], ["sweep"],
        ["analyze", "sweep.txt"],
        ["montecarlo", "sweep.txt", "--runs", "3000",
         "--r-b-sigma", "0.005"])),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, code, absent):
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    got, modules = _report_main(tmp_path, argv)
    assert got == code
    assert not set(absent.split()) & set(modules)


def test_program_entry_prints_what_main_prints(tmp_path, capsys,
                                               monkeypatch):
    # `python -m steering_lab.cli` leaves main through run, which freezes the
    # collector before the exit; the output and exit code stay main's
    monkeypatch.chdir(tmp_path)
    assert main(["bound"]) == 0
    out, err = capsys.readouterr()
    written = (tmp_path / "inequality.txt").read_bytes()
    (tmp_path / "inequality.txt").unlink()
    proc = _fresh_python(tmp_path, "-m", "steering_lab.cli", "bound")
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (out, err)
    assert (tmp_path / "inequality.txt").read_bytes() == written


def test_package_import_loads_no_numpy(tmp_path):
    proc = _fresh_python(tmp_path, "-c", "import sys, steering_lab; "
                         "print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


def _blas_threads_after_simulate(cwd, **env):
    """Run `simulate` through main in a fresh process, so that main is the
    one to import numpy, with the BLAS thread variables unset but for env;
    the last line says whether os.environ came out unchanged and what
    OPENBLAS_NUM_THREADS then holds."""
    script = "\n".join([
        "import os, sys",
        "from steering_lab.cli import main",
        "before = dict(os.environ)",
        "assert main(['simulate']) == 0 and 'numpy' in sys.modules",
        "print(dict(os.environ) == before,",
        "      os.environ.get('OPENBLAS_NUM_THREADS'))",
    ])
    unset = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS"])
    proc = _fresh_python(cwd, "-c", script, **{**unset, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_sets_no_blas_thread_count(tmp_path):
    # BLAS keeps its own default thread count
    assert _blas_threads_after_simulate(tmp_path) == "True None"


@pytest.mark.parametrize("env, threads", [
    pytest.param({"OPENBLAS_NUM_THREADS": "2"}, "2", id="env1-2"),
    pytest.param({"OMP_NUM_THREADS": "2"}, None, id="env2-None"),
    pytest.param({"MKL_NUM_THREADS": "2"}, None, id="env3-None"),
])
def test_blas_runs_one_thread_unless_the_user_chose(tmp_path, env, threads):
    # the thread count the user chose is the one BLAS reads: the CLI neither
    # rewrites OPENBLAS_NUM_THREADS nor sets it beside OMP_ or MKL_NUM_THREADS
    assert _blas_threads_after_simulate(tmp_path, **env) == "True %s" % threads


def test_package_namespace_resolves_every_public_name():
    import steering_lab
    for name in steering_lab.__all__:
        home = importlib.import_module(
            "steering_lab." + steering_lab._HOME[name])
        assert getattr(steering_lab, name) is getattr(home, name)
        assert name in dir(steering_lab)
    with pytest.raises(AttributeError):
        steering_lab.no_such_name


def test_package_source_calls_nothing_newer_than_numpy_1_24():
    # pyproject.toml declares numpy>=1.24; these names came with numpy 2.0
    newer = re.compile(r"\b(?:np|numpy)\.(?:vecdot|matvec|vecmat)\b|\.mT\b")
    source = Path(__file__).resolve().parents[1] / "src" / "steering_lab"
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(source.glob("*.py"))
             for i, line in enumerate(path.read_text(
                 encoding="utf-8").splitlines(), start=1)
             if newer.search(line)]
    assert found == []
    for line in ("np.vecdot(a, b)", "numpy.matvec(m, v)", "np.vecmat(v, m)",
                 "a.mT @ b"):
        assert newer.search(line), line


def test_package_modules_share_only_the_functional_format_privately():
    # a private name one module takes from another is a second copy of its
    # work; lhs_certification reads the functional's summary format
    source = Path(__file__).resolve().parents[1] / "src" / "steering_lab"
    found = sorted(
        f"{node.module}.{alias.name}"
        for path in source.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if alias.name.startswith("_"))
    assert found == ["inequality._marginals", "inequality._strategy_rows"]


def test_bench_tracer_names_resolve_on_their_modules():
    # bench/tracer.py wraps these by name with getattr; its source is read
    # here, not run
    source = (Path(__file__).resolve().parents[1] / "bench"
              / "tracer.py").read_text(encoding="utf-8")
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in (
                  "PREFIXES", "COUNTED", "FOREIGN")}
    assert set(tables) == {"PREFIXES", "COUNTED", "FOREIGN"}
    for module in tables["PREFIXES"]:
        importlib.import_module("steering_lab." + module)
    for table in ("COUNTED", "FOREIGN"):
        for module, names in tables[table].items():
            home = importlib.import_module("steering_lab." + module)
            for name in names:
                assert callable(getattr(home, name, None)), (table, name)


@pytest.mark.parametrize("argv, error", [
    (["analyze", "absent.txt"], "FileNotFoundError"),
    (["montecarlo", "absent.txt"], "FileNotFoundError"),
    (["analyze", "subdir"], "IsADirectoryError"),
    (["bound", "--output", "absent/x.txt"], "FileNotFoundError"),
    (["simulate", "--output", "absent/x.txt"], "FileNotFoundError"),
    (["sweep", "--sample", "10", "--output", "absent/x.txt"],
     "FileNotFoundError"),
    (["montecarlo", "sweep.txt", "--runs", "10", "--output", "absent/x.txt"],
     "FileNotFoundError"),
    (["bound", "--output", "subdir"], "IsADirectoryError"),
    (["analyze", "bytes.txt"],
     "ValidationError: cannot read counts file bytes.txt"),
    (["montecarlo", "bytes.txt"],
     "ValidationError: cannot read counts file bytes.txt"),
    (["--config", "bytes.txt", "bound"],
     "ValidationError: cannot read config file bytes.txt"),
])
def test_file_errors_keep_the_one_line_contract(tmp_path, capsys, monkeypatch,
                                                argv, error):
    _write_model_sweep(tmp_path / "sweep.txt", scale=1e5)
    (tmp_path / "subdir").mkdir()
    (tmp_path / "bytes.txt").write_bytes(_NOT_UTF8)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = _lines(capsys)
    assert code == 2, err
    assert len(err) == 1 and err[0].startswith(error + ": "), err
    assert out == []


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_ends_quietly(tmp_path, unbuffered):
    """The reader closes the pipe before the command writes, as
    `steering-lab certify | head -1` can. Unbuffered, the first print
    fails; buffered, the table fits in the buffer and the flush fails."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "steering_lab.cli", "simulate"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_fresh_env(PYTHONUNBUFFERED=unbuffered), cwd=tmp_path)
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
    finally:
        proc.stderr.close()
        proc.wait(timeout=120)
    assert proc.returncode == 1
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["optimize", "--restarts", "1", "--seed", "7"],
    ["simulate", "--oracle"],
    ["montecarlo", "sweep.txt", "--runs", "2000"],
])
def test_first_scipy_import_runs_under_the_raising_errstate(tmp_path, argv):
    """Each command runs in a fresh process inside cli.main's
    np.errstate(raise) and leaves the real stderr empty. A fresh process is
    the only place where an import made inside a command would run under
    the errstate; test_short_commands_leave_scipy_unloaded checks that
    these three commands, which each had one, import no scipy."""
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
