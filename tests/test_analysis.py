"""Tests for the counts pipeline, cosine fits, extraction, and Monte Carlo."""

import math

import numpy as np
import pytest

from steering_lab import analysis
from steering_lab.analysis import (CountsRecord, MonteCarloConfig,
                                   evaluate_record, extract_setting_table,
                                   fit_cosine, format_mc_result, load_counts,
                                   monte_carlo, probabilities_from_counts,
                                   setting_counts_from_record,
                                   synthesize_counts, write_counts)
from steering_lab.errors import (ExtractionError, FitError, ParseError,
                                 ValidationError)
from steering_lab.inequality import (InequalityFamily,
                                     build_probability_inequality,
                                     evaluate_steering)
from steering_lab.quantum_model import (default_config, joint_probabilities,
                                        phase_sweep, theoretical_delta_S)

LADDER4 = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)


def _model_sweep(n_points, **overrides):
    cfg = default_config(**overrides)
    phases = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return phases, phase_sweep(cfg, phases).probs, cfg


# --- counts ingestion ---------------------------------------------------------

def test_counts_round_trip(tmp_path):
    phases = np.linspace(0.0, 5.9, 50)
    rng = np.random.Generator(np.random.Philox(2))
    counts = rng.integers(1, 5000, size=(50, 4))
    record = CountsRecord(phases=phases, counts=counts)
    path = tmp_path / "sweep.txt"
    write_counts(path, record, header="synthetic sweep\nsecond line")
    back = load_counts(path)
    np.testing.assert_array_equal(back.phases, phases)
    np.testing.assert_array_equal(back.counts, counts)
    assert back.n_points == 50


@pytest.mark.parametrize("line,offending", [
    ("0.5 1 2 3", 3),            # four fields only
    ("zot 1 2 3 4", 3),          # unparseable phase
    ("0.5 1 2.5 3 4", 3),        # non-integer count
    ("0.5 1 -2 3 4", 3),         # negative count
    ("0.5 0 0 0 0", 3),          # empty row
    ("0.05 1 2 3 4", 3),         # phase does not ascend
])
def test_load_counts_reports_the_offending_line(tmp_path, line, offending):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n0.1 5 5 5 5\n" + line +
                    "\n0.9 5 5 5 5\n1.3 5 5 5 5\n2.0 5 5 5 5\n")
    with pytest.raises(ParseError) as err:
        load_counts(path)
    assert err.value.line == offending


def test_load_counts_requires_four_points(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("0.1 1 1 1 1\n0.2 1 1 1 1\n")
    with pytest.raises(ParseError):
        load_counts(path)


def test_record_validation():
    good = dict(phases=np.array([0.0, 1.0, 2.0, 3.0]),
                counts=np.ones((4, 4), dtype=int))
    CountsRecord(**good)
    with pytest.raises(ValidationError):
        CountsRecord(phases=good["phases"], counts=np.ones((3, 4), int))
    with pytest.raises(ValidationError):
        CountsRecord(phases=np.array([0.0, 2.0, 1.0, 3.0]),
                     counts=good["counts"])
    with pytest.raises(ValidationError):
        CountsRecord(phases=good["phases"],
                     counts=np.zeros((4, 4), dtype=int))


def test_probabilities_are_row_frequencies():
    record = CountsRecord(phases=np.array([0.0, 1.0, 2.0, 3.0]),
                          counts=np.array([[1, 1, 1, 1], [2, 0, 0, 2],
                                           [10, 0, 0, 0], [3, 3, 3, 1]]))
    probs = probabilities_from_counts(record)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)
    np.testing.assert_allclose(probs[0], 0.25)
    np.testing.assert_allclose(probs[2], [1.0, 0.0, 0.0, 0.0])


def test_synthesize_counts_statistics_and_determinism():
    phases, probs, _ = _model_sweep(24)
    n = 10000
    rec1 = synthesize_counts(phases, probs, n, seed=42)
    rec2 = synthesize_counts(phases, probs, n, seed=42)
    np.testing.assert_array_equal(rec1.counts, rec2.counts)
    expect = n * probs
    slack = 4.0 * np.sqrt(np.maximum(expect, 1.0))
    assert (np.abs(rec1.counts - expect) <= slack).all()
    # near-empty rows are redrawn until the record invariant holds
    tiny = np.tile([[0.01, 0.0, 0.0, 0.0]], (4, 1))
    rec3 = synthesize_counts(np.arange(4.0), tiny, 10, seed=0)
    assert rec3.counts.sum(axis=1).min() >= 1
    with pytest.raises(ValidationError):
        synthesize_counts(phases, probs, 0)


# --- cosine fitting ------------------------------------------------------------

def test_fit_recovers_exact_cosine_parameters():
    phases = np.linspace(0.0, 2.0 * np.pi, 37, endpoint=False)
    params = [(0.45, 0.05, 0.3), (0.25, 0.02, 4.0), (0.2, 0.04, 1.2),
              (0.1, 0.0, 0.0)]
    probs = np.column_stack([a + b * np.cos(phases - p0)
                             for a, b, p0 in params])
    fit = fit_cosine(phases, probs)
    for k, (a, b, p0) in enumerate(params):
        assert fit.offset[k] == pytest.approx(a, abs=1e-12)
        assert fit.amplitude[k] == pytest.approx(b, abs=1e-12)
        if b > 0:
            assert fit.phase0[k] == pytest.approx(p0, abs=1e-10)
    assert fit.rss.max() < 1e-24
    assert not fit.clamped.any()
    # constant column: canonical zero amplitude and phase
    assert fit.amplitude[3] == 0.0
    assert fit.phase0[3] == 0.0
    np.testing.assert_allclose(fit.evaluate(0.3),
                               [a + b * math.cos(0.3 - p0)
                                for a, b, p0 in params], atol=1e-12)


def test_fit_rejects_rank_deficient_phase_designs():
    phases = np.array([0.0, np.pi, 2.0 * np.pi, 3.0 * np.pi])
    probs = np.tile([[0.3, 0.3, 0.2, 0.2]], (4, 1))
    with pytest.raises(FitError):
        fit_cosine(phases, probs)
    with pytest.raises(ValidationError):
        fit_cosine(np.array([0.0, 1.0, 2.0, 2.0]), probs)


def test_fit_flags_out_of_range_cosines():
    phases = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    probs = np.column_stack([
        0.9 + 0.3 * np.cos(phases),        # exceeds 1
        0.05 + 0.2 * np.cos(phases),       # dips below 0
        0.5 + 0.1 * np.cos(phases),
        0.5 + 0.1 * np.cos(phases)])
    fit = fit_cosine(phases, probs)
    assert fit.clamped[0] and fit.clamped[1]
    assert not fit.clamped[2] and not fit.clamped[3]


def test_fit_on_poisson_counts_recovers_the_phase_origin():
    phases, probs, _ = _model_sweep(50)
    record = synthesize_counts(phases, probs, 1_000_000, seed=9)
    fit = fit_cosine(record.phases, probabilities_from_counts(record))
    # p_pp peaks at zero relative phase
    wrapped = (fit.phase0[0] + np.pi) % (2.0 * np.pi) - np.pi
    assert abs(wrapped) < 1e-2
    exact = fit_cosine(phases, probs)
    np.testing.assert_allclose(fit.offset, exact.offset, atol=2e-3)
    np.testing.assert_allclose(fit.amplitude, exact.amplitude, atol=2e-3)


# --- setting-table extraction ---------------------------------------------------

def test_extracted_table_reproduces_the_analytic_model():
    phases, probs, cfg = _model_sweep(73)
    fit = fit_cosine(phases, probs)
    table = extract_setting_table(fit, LADDER4, mode="from_fit")
    want = joint_probabilities(cfg).probs
    np.testing.assert_allclose(table.probs, want, atol=1e-9)


def test_extracted_table_has_the_relative_phase_structure():
    phases, probs, _ = _model_sweep(73)
    fit = fit_cosine(phases, probs)
    table = extract_setting_table(fit, LADDER4).probs
    for x in range(4):
        for y in range(4):
            np.testing.assert_allclose(table[:, :, x, y],
                                       table[:, :, (x + 1) % 4, (y + 1) % 4],
                                       atol=1e-14)
    np.testing.assert_allclose(table.sum(axis=(0, 1)), 1.0, atol=1e-12)


def test_nearest_point_extraction_matches_measured_rows():
    # 72 points put samples exactly on the pi/2 ladder
    phases, probs, _ = _model_sweep(72)
    counts = np.rint(1e9 * probs).astype(np.int64)
    record = CountsRecord(phases=phases, counts=counts)
    table = extract_setting_table(record, LADDER4, mode="nearest_point")
    fit_table = extract_setting_table(fit_cosine(phases, probs), LADDER4)
    np.testing.assert_allclose(table.probs, fit_table.probs, atol=1e-6)
    sparse = CountsRecord(phases=np.array(LADDER4) + 0.3,
                          counts=counts[:4])
    with pytest.raises(ExtractionError):
        extract_setting_table(sparse, LADDER4, mode="nearest_point")


def test_extraction_argument_validation():
    phases, probs, _ = _model_sweep(24)
    fit = fit_cosine(phases, probs)
    with pytest.raises(ValidationError):
        extract_setting_table(fit, (0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        extract_setting_table(fit, LADDER4, mode="nearest_point")
    with pytest.raises(ValidationError):
        extract_setting_table(fit, LADDER4, mode="junk")


def test_full_pipeline_recovers_the_theoretical_margin():
    phases, probs, cfg = _model_sweep(73)
    counts = np.rint(1e9 * probs).astype(np.int64)
    record = CountsRecord(phases=phases, counts=counts)
    family = InequalityFamily()
    report = evaluate_record(record, family)
    want = theoretical_delta_S(cfg, family)
    assert report.delta_s == pytest.approx(want, abs=1e-7)
    assert report.s_value == pytest.approx(want + 1.0008400711084255,
                                           abs=1e-7)
    assert report.delta_s > 0.0
    with pytest.raises(ValidationError):
        evaluate_record(record, InequalityFamily(m=5))


# --- Monte Carlo ----------------------------------------------------------------

def _model_setting_counts(events=100000, **overrides):
    cfg = default_config(**overrides)
    table = joint_probabilities(cfg)
    dists = np.array([table.probs[:, :, j, 0].ravel() for j in range(4)])
    return np.rint(events * dists).astype(np.int64)


def test_setting_counts_selection():
    counts4 = _model_setting_counts()
    record = CountsRecord(phases=np.array(LADDER4), counts=counts4)
    np.testing.assert_array_equal(setting_counts_from_record(record), counts4)
    bad_spacing = CountsRecord(phases=np.array([0.0, 1.0, 2.0, 3.0]),
                               counts=counts4)
    with pytest.raises(ValidationError):
        setting_counts_from_record(bad_spacing)
    phases = np.linspace(0.0, 2.0 * np.pi, 73)
    sweep_counts = np.tile(counts4[:1], (73, 1))
    sweep = CountsRecord(phases=phases, counts=sweep_counts)
    with pytest.raises(ValidationError):
        setting_counts_from_record(sweep)
    rows = setting_counts_from_record(sweep, LADDER4)
    assert rows.shape == (4, 4)
    # both nearest-row searches name the setting and the closest distance
    sparse = CountsRecord(phases=np.array(LADDER4) + 0.3, counts=counts4)
    for reduce in (lambda: setting_counts_from_record(sparse, LADDER4),
                   lambda: extract_setting_table(sparse, LADDER4,
                                                 mode="nearest_point")):
        with pytest.raises(ExtractionError,
                           match=r"phase 0\.000000 \(closest is 0\.3000"):
            reduce()


def test_monte_carlo_is_deterministic_and_thread_invariant():
    counts = _model_setting_counts(events=20000)
    family = InequalityFamily()
    mc = MonteCarloConfig(runs=300, r_b_sigma=0.0005, seed=5)
    res1 = monte_carlo(counts, family, mc, threads=1)
    res2 = monte_carlo(counts, family, mc, threads=3)
    np.testing.assert_array_equal(res1.samples, res2.samples)
    assert res1.mean == res2.mean and res1.std == res2.std
    assert res1.bin_counts.sum() == 300
    assert res1.grid_error < 1e-6


def test_monte_carlo_mean_tracks_the_point_estimate():
    counts = _model_setting_counts(events=200000)
    family = InequalityFamily()
    mc = MonteCarloConfig(runs=400, r_b_sigma=0.0, seed=1)
    res = monte_carlo(counts, family, mc)
    assert res.std > 0.0
    assert abs(res.mean - res.point_estimate) < 4.0 * res.std / 20.0
    assert res.point_estimate == pytest.approx(0.002953518415892198,
                                               abs=2e-5)


def test_monte_carlo_count_noise_scales_as_inverse_sqrt():
    family = InequalityFamily()
    base = _model_setting_counts(events=20000)
    stds = []
    for scale in (1, 16):
        mc = MonteCarloConfig(runs=600, r_b_sigma=0.0, seed=7)
        stds.append(monte_carlo(base * scale, family, mc).std)
    assert stds[0] / stds[1] == pytest.approx(4.0, rel=0.15)


def test_monte_carlo_amplitude_noise_widens_the_spread():
    # huge counts suppress Poisson noise; the same seed reuses the same
    # count draws, so the comparison isolates the amplitude resampling
    counts = _model_setting_counts(events=100_000_000)
    family = InequalityFamily()
    narrow = monte_carlo(counts, family,
                         MonteCarloConfig(runs=200, r_b_sigma=0.0, seed=3))
    wide = monte_carlo(counts, family,
                       MonteCarloConfig(runs=200, r_b_sigma=0.005, seed=3))
    assert wide.std > 1.2 * narrow.std


def test_monte_carlo_counts_redraws():
    family = InequalityFamily()
    counts = np.tile([[1, 0, 0, 0]], (4, 1))
    mc = MonteCarloConfig(runs=100, r_b_mean=0.002, r_b_sigma=0.002, seed=2)
    res = monte_carlo(counts, family, mc)
    assert res.redraws > 0
    assert res.zero_total_redraws > 0


def test_monte_carlo_null_data_never_crosses_the_bound():
    # all-click untrusted side: a deterministic strategy with the trusted
    # mode left in vacuum, so the margin sits far below zero
    q = math.exp(-0.217 ** 2)
    n = 100000
    row = [0, 0, round(n * q), n - round(n * q)]
    counts = np.tile([row], (4, 1))
    family = InequalityFamily()
    mc = MonteCarloConfig(runs=500, r_b_sigma=0.005, seed=11)
    res = monte_carlo(counts, family, mc)
    assert res.samples.max() <= 1e-9
    assert res.mean < -0.01


def test_monte_carlo_input_validation():
    family = InequalityFamily()
    mc = MonteCarloConfig(runs=10, r_b_sigma=0.0)
    with pytest.raises(ValidationError):
        monte_carlo(np.ones((3, 4)), family, mc)
    with pytest.raises(ValidationError):
        monte_carlo(np.zeros((4, 4)), family, mc)
    with pytest.raises(ValidationError):
        monte_carlo(np.ones((4, 4)), InequalityFamily(m=5), mc)
    with pytest.raises(ValidationError):
        MonteCarloConfig(runs=0)
    with pytest.raises(ValidationError):
        MonteCarloConfig(r_b_mean=0.0)
    with pytest.raises(ValidationError):
        MonteCarloConfig(r_b_sigma=-0.1)
    with pytest.raises(ValidationError):
        MonteCarloConfig(seed=-1)
    for name in ("r_b_mean", "r_b_sigma"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValidationError, match=name):
                MonteCarloConfig(**{name: value})


def test_bound_grid_evaluates_exactly_off_its_ends():
    # the grid starts at r_B = 1e-4; a draw half a step below it lies off
    # the grid and must not be extrapolated
    family = InequalityFamily(bob_amplitude=0.002)
    grid = analysis._BoundGrid(family, 0.002, 0.002)
    assert grid.r_grid[0] == pytest.approx(1e-4)
    rows = grid.lookup(np.array([5e-5, 0.002, 5e-5]))
    exact = analysis._coefficient_row(family, 5e-5)
    np.testing.assert_array_equal(rows[0], exact)
    np.testing.assert_array_equal(rows[2], exact)
    np.testing.assert_allclose(
        rows[1], analysis._coefficient_row(family, 0.002), atol=1e-6)
    # a mean past the 0.999 ceiling leaves a one-point grid, not an empty one
    family = InequalityFamily(bob_amplitude=0.9995)
    grid = analysis._BoundGrid(family, 0.9995, 1e-5)
    assert grid.r_grid.size == 1
    np.testing.assert_array_equal(grid.lookup(np.array([0.9995]))[0],
                                  analysis._coefficient_row(family, 0.9995))
    assert grid.probe_error() == 0.0


@pytest.mark.parametrize("mean", [0.002, 0.217, 0.6])
def test_stacked_grid_rows_equal_one_point_builds(mean):
    # the grid is one stacked build; each row must be the row of a one-point
    # build_probability_inequality at its r_B (at 0.002 the grid starts at
    # the 1e-4 floor)
    family = InequalityFamily(bob_amplitude=mean)
    grid = analysis._BoundGrid(family, mean, 0.005)
    n = grid.r_grid.size
    for i in sorted({*range(0, n, 97), n // 2, n - 1}):
        r_b = float(grid.r_grid[i])
        ineq = build_probability_inequality(
            InequalityFamily(bob_amplitude=r_b))
        one = np.concatenate([analysis._aggregate_coefficients(ineq).ravel(),
                              [ineq.c0, ineq.s_max]])
        np.testing.assert_allclose(grid.rows[i], one, rtol=1e-15, atol=0)
    if mean == 0.002:
        assert grid.r_grid[0] == pytest.approx(1e-4)


def test_monte_carlo_samples_are_margins_of_their_resampled_tables():
    # reference: rebuild chunk 0's draws and evaluate each resampled table
    # through the public extraction and evaluation path, exactly at its r_B
    counts = _model_setting_counts(events=20000)
    family = InequalityFamily()
    mc = MonteCarloConfig(runs=40, r_b_sigma=0.005, seed=9)
    res = monte_carlo(counts, family, mc)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, 0))))
    resampled, r_b, _, _ = analysis._resample_chunk(
        rng, 40, counts.astype(float), mc)
    for i in range(0, 40, 8):
        table = extract_setting_table(
            CountsRecord(phases=np.array(LADDER4), counts=resampled[i]),
            LADDER4, mode="nearest_point")
        ineq = build_probability_inequality(
            InequalityFamily(bob_amplitude=float(r_b[i])))
        assert res.samples[i] == pytest.approx(
            evaluate_steering(ineq, table)[1], abs=1e-6)


def test_fixed_amplitude_evaluates_the_bound_once(monkeypatch):
    calls = []
    build = analysis.stacked_inequality

    def counted(family, r_b):
        calls.append(r_b)
        return build(family, r_b)

    monkeypatch.setattr(analysis, "stacked_inequality", counted)
    res = monte_carlo(_model_setting_counts(), InequalityFamily(),
                      MonteCarloConfig(runs=5000, r_b_sigma=0.0, seed=4))
    assert calls == [0.217]
    assert res.grid_error == 0.0 and res.redraws == 0


def test_result_formatting_round_trips_key_values():
    counts = _model_setting_counts(events=20000)
    family = InequalityFamily()
    res = monte_carlo(counts, family,
                      MonteCarloConfig(runs=2000, r_b_sigma=0.0, seed=0))
    text = format_mc_result(res)
    head, _, hist = text.partition("histogram\n")
    entries = dict(line.split("=", 1) for line in head.splitlines())
    assert float(entries["mean"]) == res.mean
    assert float(entries["std"]) == res.std
    assert int(entries["runs"]) == 2000
    assert entries["binning"] == "freedman-diaconis"
    rows = [line.split() for line in hist.strip().splitlines()]
    assert len(rows) == res.bin_counts.size
    assert sum(int(r[2]) for r in rows) == 2000
    if res.gaussian_fit is not None:
        assert float(entries["gauss_std"]) == pytest.approx(res.std, rel=0.5)


def _mids(res):
    return 0.5 * (res.bin_edges[:-1] + res.bin_edges[1:])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_histogram_gaussian_agrees_with_a_least_squares_fit(seed):
    # scipy's iterative least squares in linear counts is the reference
    from scipy.optimize import curve_fit

    res = monte_carlo(_model_setting_counts(), InequalityFamily(),
                      MonteCarloConfig(runs=20000, seed=seed))
    mids, counts = _mids(res), res.bin_counts.astype(float)
    want, _ = curve_fit(
        lambda x, amp, mu, sigma: amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2),
        mids, counts, p0=(counts.max(), res.mean, res.std))
    want[2] = abs(want[2])
    assert res.gaussian_fit == analysis.curve_fit(mids, res.bin_counts)
    np.testing.assert_allclose(res.gaussian_fit, want, rtol=0.01)


def test_histogram_gaussian_is_none_or_finite_and_never_raises():
    x = np.linspace(-1.0, 1.0, 41)
    spike = np.zeros(41)
    spike[20] = 500
    twin = np.zeros(41)
    twin[[5, 6, 7, 33, 34, 35]] = [40, 90, 40, 50, 100, 50]
    heavy = monte_carlo(_model_setting_counts(), InequalityFamily(),
                        MonteCarloConfig(runs=2000, r_b_mean=0.002,
                                         r_b_sigma=0.002, seed=1))
    cases = [(x, spike), (x, np.full(41, 7.0)),
             (x[:4], np.array([3.0, 9.0, 8.0, 2.0])), (x, twin),
             (_mids(heavy), heavy.bin_counts)]
    with np.errstate(all="raise"):
        fits = [analysis.curve_fit(*case) for case in cases]
    assert fits[0] is None                       # one positive bin
    for fit in fits:
        assert fit is None or (np.all(np.isfinite(fit)) and fit[0] > 0.0
                               and fit[2] > 0.0)
