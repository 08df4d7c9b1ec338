"""Tests for the counts pipeline, cosine fits, extraction, and Monte Carlo."""

import math
import tracemalloc

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from steering_lab import analysis
from steering_lab.analysis import (CountsRecord, evaluate_record,
                                   extract_setting_table, fit_cosine,
                                   format_mc_result, load_counts, monte_carlo,
                                   probabilities_from_counts,
                                   setting_counts_from_record,
                                   synthesize_counts, write_counts)
from steering_lab.errors import (ExtractionError, FitError, ParseError,
                                 ValidationError)
from steering_lab.inequality import (InequalityFamily,
                                     build_probability_inequality,
                                     evaluate_steering)
from steering_lab.quantum_model import (ModelConfig, joint_probabilities,
                                        phase_sweep, theoretical_delta_S)

LADDER4 = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)
# four phases, but not the ladder the data are scored against: any other
# set, the ladder relabelled, or the ladder rotated by one step
OFF_LADDER4 = ((0.0, 1.0, 2.0, 3.0), (0.5 * np.pi, 0.0, np.pi, 1.5 * np.pi),
               tuple(p + 0.5 * np.pi for p in LADDER4))


def _model_sweep(n_points, **overrides):
    cfg = ModelConfig(**overrides)
    phases = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return phases, phase_sweep(cfg, phases), cfg


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
    assert back.phases.size == 50


@pytest.mark.parametrize("line,offending", [
    ("0.5 1 2 3", 3),            # four fields only
    ("zot 1 2 3 4", 3),          # unparseable phase
    ("0.5 1 2.5 3 4", 3),        # non-integer count
    ("0.5 1 -2 3 4", 3),         # negative count
    ("0.5 0 0 0 0", 3),          # empty row
    ("0.5 %d 1 0 0" % 2 ** 62, 3),    # total past 2**62
    ("0.5 %d 0 0 0" % 2 ** 63, 3),    # count past int64
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


def test_synthesize_counts_bounds_the_events_per_point():
    # a row drawn about 2**61 events stays far inside load_counts' 2**62;
    # past the bound the int64 row sum could wrap (it once made the
    # empty-row redraw loop forever) and rng.poisson refuses means > ~9.2e18
    phases, probs, _ = _model_sweep(8)
    record = synthesize_counts(phases, probs, 2 ** 61, seed=1)
    assert 0 < record.counts.sum(axis=1).min()
    assert record.counts.sum(axis=1).max() <= 2 ** 62
    for events in (2 ** 61 + 1, 9999999999999999999, math.inf, math.nan):
        with pytest.raises(ValidationError, match="events_per_point"):
            synthesize_counts(phases, probs, events)


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


@pytest.mark.parametrize("phases", [
    [2.0, 0.0, 1.0, 2.0, 0.0, 1.0],
    [0.0, -0.0, 1.0, 2.0],
    [3.0, 3.0, 3.0, 3.0, 1.0, 2.0, 1.0],
])
def test_fit_needs_four_distinct_phases(phases):
    probs = np.tile([[0.3, 0.3, 0.2, 0.2]], (len(phases), 1))
    with pytest.raises(ValidationError, match="4 distinct phases"):
        fit_cosine(np.array(phases), probs)


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
    want = joint_probabilities(cfg)
    np.testing.assert_allclose(table, want, atol=1e-9)


def test_extracted_table_has_the_relative_phase_structure():
    phases, probs, _ = _model_sweep(73)
    fit = fit_cosine(phases, probs)
    table = extract_setting_table(fit, LADDER4)
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
    np.testing.assert_allclose(table, fit_table, atol=1e-6)
    sparse = CountsRecord(phases=np.array(LADDER4) + 0.3,
                          counts=counts[:4])
    with pytest.raises(ExtractionError):
        extract_setting_table(sparse, LADDER4, mode="nearest_point")


_ROWS = arrays(np.int64, (4, 4), elements=st.integers(0, 10 ** 6)).filter(
    lambda rows: rows.sum(axis=1).min() > 0)


@settings(max_examples=60, deadline=None)
@given(_ROWS, st.floats(1e-3, 0.99))
def test_kernel_scores_as_the_general_functional(rows, r_b):
    # the numbers per r_B against the general path: the setting table of
    # the permutation construction, scored by F and S_max of a one-point build
    record = CountsRecord(phases=np.array(LADDER4), counts=rows)
    family = InequalityFamily(bob_amplitude=r_b)
    ineq = build_probability_inequality(family)
    table = extract_setting_table(record, LADDER4, mode="nearest_point")
    want = ineq.value(table) - ineq.bound
    got = analysis._margin(
        analysis._coefficient_row(family, r_b),
        analysis._setting_distributions(record, LADDER4, "nearest_point"))
    scale = np.abs(ineq.coefficients).sum() + abs(ineq.bound)
    assert abs(got - want) <= 4 * np.finfo(float).eps * scale


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
    assert evaluate_record(record, InequalityFamily(
        alice_phases=LADDER4)).delta_s == report.delta_s
    for family in (InequalityFamily(m=5),
                   *(InequalityFamily(alice_phases=p) for p in OFF_LADDER4)):
        with pytest.raises(ValidationError, match="m = 4 ladder"):
            evaluate_record(record, family)


# --- Monte Carlo ----------------------------------------------------------------

def _model_setting_counts(events=100000, **overrides):
    cfg = ModelConfig(**overrides)
    table = joint_probabilities(cfg)
    dists = np.array([table[:, :, j, 0].ravel() for j in range(4)])
    return np.rint(events * dists).astype(np.int64)


def test_setting_counts_selection():
    counts4 = _model_setting_counts()
    record = CountsRecord(phases=np.array(LADDER4), counts=counts4)
    np.testing.assert_array_equal(setting_counts_from_record(record), counts4)
    # rows are picked by one rule, nearest the setting phases, whatever the
    # record's length: four rows off the ladder have no row near pi/2
    bad_spacing = CountsRecord(phases=np.array([0.0, 1.0, 2.0, 3.0]),
                               counts=counts4)
    with pytest.raises(ExtractionError):
        setting_counts_from_record(bad_spacing)
    with pytest.raises(ValidationError):
        setting_counts_from_record(record, (0.0, 1.0, 2.0, 3.0))
    phases = np.linspace(0.0, 2.0 * np.pi, 73)
    sweep_counts = np.tile(counts4[:1], (73, 1))
    sweep = CountsRecord(phases=phases, counts=sweep_counts)
    rows = setting_counts_from_record(sweep, LADDER4)
    assert rows.shape == (4, 4)
    np.testing.assert_array_equal(setting_counts_from_record(sweep), rows)
    # both nearest-row searches name the setting and the closest distance
    sparse = CountsRecord(phases=np.array(LADDER4) + 0.3, counts=counts4)
    for reduce in (lambda: setting_counts_from_record(sparse, LADDER4),
                   lambda: extract_setting_table(sparse, LADDER4,
                                                 mode="nearest_point")):
        with pytest.raises(ExtractionError,
                           match=r"phase 0\.000000 \(closest is 0\.3000"):
            reduce()


def test_monte_carlo_is_deterministic():
    counts = _model_setting_counts(events=20000)
    family = InequalityFamily()
    mc = dict(runs=300, r_b_sigma=0.0005, seed=5)
    res1 = monte_carlo(counts, family, **mc)
    res2 = monte_carlo(counts, family, **mc)
    np.testing.assert_array_equal(res1.samples, res2.samples)
    assert res1.mean == res2.mean and res1.std == res2.std
    assert res1.bin_counts.sum() == 300
    assert res1.grid_error < 1e-12


def test_monte_carlo_mean_tracks_the_point_estimate():
    counts = _model_setting_counts(events=200000)
    family = InequalityFamily()
    mc = dict(runs=400, r_b_sigma=0.0, seed=1)
    res = monte_carlo(counts, family, **mc)
    assert res.std > 0.0
    assert abs(res.mean - res.point_estimate) < 4.0 * res.std / 20.0
    assert res.point_estimate == pytest.approx(0.002953518415892198,
                                               abs=2e-5)


def test_monte_carlo_count_noise_scales_as_inverse_sqrt():
    family = InequalityFamily()
    base = _model_setting_counts(events=20000)
    stds = []
    for scale in (1, 16):
        mc = dict(runs=600, r_b_sigma=0.0, seed=7)
        stds.append(monte_carlo(base * scale, family, **mc).std)
    assert stds[0] / stds[1] == pytest.approx(4.0, rel=0.15)


def test_monte_carlo_amplitude_noise_widens_the_spread():
    # huge counts suppress Poisson noise; the same seed reuses the same
    # count draws, so the comparison isolates the amplitude resampling
    counts = _model_setting_counts(events=100_000_000)
    family = InequalityFamily()
    narrow = monte_carlo(counts, family,
                         runs=200, r_b_sigma=0.0, seed=3)
    wide = monte_carlo(counts, family,
                       runs=200, r_b_sigma=0.005, seed=3)
    assert wide.std > 1.2 * narrow.std


def test_monte_carlo_counts_redraws():
    family = InequalityFamily(bob_amplitude=0.002)
    counts = np.tile([[1, 0, 0, 0]], (4, 1))
    mc = dict(runs=100, r_b_sigma=0.002, seed=2)
    res = monte_carlo(counts, family, **mc)
    assert res.redraws > 0
    assert res.zero_total_redraws > 0


def test_r_b_draws_are_redrawn_into_the_unit_interval():
    # the bound needs 0 < r_B < 1; the redraws stop with an error once
    # almost no draw lands there
    rng = np.random.Generator(np.random.Philox(3))
    _, r_b, redraws, _ = analysis._resample_chunk(
        rng, 1000, np.ones((4, 4)), 0.9, 0.1)
    assert 0.0 < r_b.min() and r_b.max() < 1.0
    assert redraws > 100
    with pytest.raises(ValidationError, match="narrow r_b_sigma"):
        analysis._resample_chunk(rng, 1000, np.ones((4, 4)), 0.5, 1e6)


def test_monte_carlo_null_data_never_crosses_the_bound():
    # all-click untrusted side: a deterministic strategy with the trusted
    # mode left in vacuum, so the margin sits far below zero
    q = math.exp(-0.217 ** 2)
    n = 100000
    row = [0, 0, round(n * q), n - round(n * q)]
    counts = np.tile([row], (4, 1))
    family = InequalityFamily()
    mc = dict(runs=500, r_b_sigma=0.005, seed=11)
    res = monte_carlo(counts, family, **mc)
    assert res.samples.max() <= 1e-9
    assert res.mean < -0.01


def test_monte_carlo_input_validation():
    family = InequalityFamily()
    mc = dict(runs=10, r_b_sigma=0.0)
    with pytest.raises(ValidationError):
        monte_carlo(np.ones((3, 4)), family, **mc)
    with pytest.raises(ValidationError):
        monte_carlo(np.zeros((4, 4)), family, **mc)
    for bad in (InequalityFamily(m=5),
                *(InequalityFamily(alice_phases=p) for p in OFF_LADDER4)):
        with pytest.raises(ValidationError, match="m = 4 ladder"):
            monte_carlo(np.ones((4, 4)), bad, **mc)
    with pytest.raises(ValidationError):
        monte_carlo(np.ones((4, 4)), family, runs=0)
    with pytest.raises(ValidationError):
        monte_carlo(np.ones((4, 4)), family, r_b_sigma=-0.1)
    with pytest.raises(ValidationError):
        monte_carlo(np.ones((4, 4)), family, seed=-1)
    for value in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="r_b_sigma"):
            monte_carlo(np.ones((4, 4)), family, r_b_sigma=value)
    # r_B's mean is the family's amplitude, checked where the family is made
    with pytest.raises(ValidationError, match="bob_amplitude"):
        InequalityFamily(bob_amplitude=0.0)


def test_monte_carlo_centres_on_the_family_amplitude():
    counts = _model_setting_counts(events=200000)
    mc = dict(runs=50, r_b_sigma=0.0, seed=1)
    table = extract_setting_table(
        CountsRecord(phases=np.array(LADDER4), counts=counts), LADDER4,
        mode="nearest_point")
    estimates = {}
    for r_b in (0.217, 0.3):
        family = InequalityFamily(bob_amplitude=r_b)
        res = monte_carlo(counts, family, **mc)
        want = evaluate_steering(build_probability_inequality(family),
                                 table)[1]
        assert res.point_estimate == pytest.approx(want, abs=1e-12)
        estimates[r_b] = res.point_estimate
    assert abs(estimates[0.3] - estimates[0.217]) > 1e-3


def test_bound_grid_evaluates_exactly_off_its_ends():
    # the window starts at r_B = 1e-4; a draw below it lies off the window
    # and must not be extrapolated
    family = InequalityFamily(bob_amplitude=0.002)
    grid = analysis._BoundInterpolant(family, 0.002)
    assert grid.nodes[0] == pytest.approx(1e-4)
    rows = grid.lookup(np.array([5e-5, 0.002, 5e-5]))
    exact = analysis._coefficient_row(family, 5e-5)
    np.testing.assert_array_equal(rows[0], exact)
    np.testing.assert_array_equal(rows[2], exact)
    exact = analysis._coefficient_row(family, 0.002)
    np.testing.assert_allclose(rows[1], exact, rtol=0,
                               atol=1e-12 * np.abs(exact).max())
    # a draw on a node takes the node's exact row, with no division by zero
    node = grid.nodes[3]
    with np.errstate(all="raise"):
        rows = grid.lookup(np.array([node, node]))
    np.testing.assert_array_equal(rows[1], analysis._coefficient_row(
        family, np.array([node]))[0])
    # a mean past the 0.999 ceiling, or a spread too narrow for distinct
    # nodes, leaves no window: every draw is evaluated exactly
    family = InequalityFamily(bob_amplitude=0.9995)
    grid = analysis._BoundInterpolant(family, 1e-5)
    assert grid.nodes is None
    np.testing.assert_array_equal(grid.lookup(np.array([0.9995]))[0],
                                  analysis._coefficient_row(family, 0.9995))
    assert grid.error == 0.0
    assert analysis._BoundInterpolant(InequalityFamily(), 1e-300).nodes is None


def _reference_lookup(family, nodes, weights, scaled, r_b):
    """Barycentric rows (n, 23) at r_b as three (nodes, draws) arrays give
    them, draws on a node or off the window evaluated exactly."""
    diff = nodes[:, None] - r_b
    inside = (diff[0] < 0) & (diff[-1] > 0) & (diff != 0).all(axis=0)
    c = weights[:, None] / np.where(inside, diff, 1.0)
    c /= np.where(inside, c.sum(axis=0) * r_b * (1.0 - r_b * r_b), 1.0)
    rows = scaled @ c
    if not inside.all():
        values, which = np.unique(r_b[~inside], return_inverse=True)
        rows[:, ~inside] = analysis._coefficient_row(family, values)[which].T
    return rows.T


def _eager_interpolant(family, r_b_sigma):
    """(nodes, weights, scaled, error) from one stacked build of all 129
    nodes and 32 probes, then the search for the first level within 1e-12;
    None when the window holds no distinct nodes."""
    lo = max(1e-4, family.bob_amplitude - 8.0 * r_b_sigma)
    hi = min(0.999, family.bob_amplitude + 8.0 * r_b_sigma)
    r = (lo + hi) / 2 + (lo - hi) / 2 * np.cos(np.linspace(0, np.pi, 257))
    nodes, probes = r[::2], r[1::8]
    if not np.all(np.diff(nodes) > 0.0):
        return None
    rows = analysis._coefficient_row(family, np.concatenate([nodes, probes]))
    scale = np.maximum(1.0, np.abs(rows[129:]).max(axis=1))
    values = rows[:129].T * (nodes * (1.0 - nodes * nodes))
    for step in (16, 8, 4, 2, 1):
        level, scaled = nodes[::step], values[:, ::step]
        weights = np.resize([1.0, -1.0], level.size)
        weights[[0, -1]] *= 0.5
        got = _reference_lookup(family, level, weights, scaled, probes)
        error = float((np.abs(got - rows[129:]).max(axis=1) / scale).max())
        if error <= 1e-12:
            break
    return level, weights, scaled, error


@pytest.mark.parametrize("mean", [0.002, 0.217, 0.6, 0.9995])
@pytest.mark.parametrize("sigma", [0.001, 0.005, 0.02, 0.1, 0.3, 1e-300])
def test_lazy_bound_levels_equal_the_eager_build(monkeypatch, mean, sigma):
    # each level builds only its new nodes; the result must be the one
    # stacked build of every node bit for bit (the windows at 0.002 and
    # 0.9995 are clipped, and 1e-300 leaves no distinct nodes)
    family = InequalityFamily(bob_amplitude=mean)
    want = _eager_interpolant(family, sigma)
    built = []
    row = analysis._coefficient_row
    monkeypatch.setattr(analysis, "_coefficient_row", lambda family, r_b:
                        built.append(np.size(r_b)) or row(family, r_b))
    grid = analysis._BoundInterpolant(family, sigma)
    if want is None:
        assert grid.nodes is None and grid.error == 0.0 and not built
        return
    nodes, weights, scaled, error = want
    np.testing.assert_array_equal(grid.nodes, nodes)
    np.testing.assert_array_equal(grid.weights, weights)
    np.testing.assert_array_equal(grid.scaled, scaled)
    assert grid.error == error
    # the probes and the nodes kept, each built once: at the workload's
    # spread the 9-node level serves, 41 rows where one build of every
    # node and probe takes 161
    assert sum(built) == 32 + nodes.size
    if (mean, sigma) == (0.217, 0.005):
        assert sum(built) == 41
    monkeypatch.undo()
    # draws inside, on nodes and off the window read the same rows
    draws = np.concatenate([np.linspace(1e-5, 0.9999, 200), nodes[::3]])
    np.testing.assert_array_equal(
        grid.lookup(draws),
        _reference_lookup(family, nodes, weights, scaled, draws))


@pytest.mark.parametrize("mean", [0.002, 0.217, 0.6])
def test_stacked_grid_rows_equal_one_point_builds(mean):
    # the nodes are one stacked build; each node's values, unscaled, must be
    # the 7 coefficients and S_max read off the F and S_max of a one-point
    # build_probability_inequality at its r_B (at 0.002 the window starts
    # at the 1e-4 floor)
    family = InequalityFamily(bob_amplitude=mean)
    grid = analysis._BoundInterpolant(family, 0.005)
    rows = (grid.scaled / (grid.nodes * (1.0 - grid.nodes ** 2))).T
    assert rows.shape == (grid.nodes.size, 23) and grid.nodes.size >= 9
    for r_b, row in zip(grid.nodes, rows):
        ineq = build_probability_inequality(
            InequalityFamily(bob_amplitude=float(r_b)))
        f = ineq.coefficients
        one = [sum(f[x, (x - j) % 4] for x in range(4)) for j in range(4)]
        one += [f[:4, 4].sum(), f[4, :4].sum(), f[4, 4], ineq.s_max]
        np.testing.assert_allclose([*row[:7], row[7:].max()], one,
                                   rtol=1e-15, atol=0)
    if mean == 0.002:
        assert grid.nodes[0] == pytest.approx(1e-4)


@pytest.mark.parametrize("sigma", [0.005, 0.1])
def test_monte_carlo_samples_are_margins_of_their_resampled_tables(sigma):
    # reference: rebuild chunk 0's draws and evaluate each resampled table
    # through the public extraction and evaluation path, exactly at its r_B
    counts = _model_setting_counts(events=20000)
    family = InequalityFamily()
    mc = dict(runs=40, r_b_sigma=sigma, seed=9)
    res = monte_carlo(counts, family, **mc)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, 0))))
    resampled, r_b, _, _ = analysis._resample_chunk(
        rng, 40, counts.astype(float), family.bob_amplitude, sigma)
    for i in range(0, 40, 4):
        table = extract_setting_table(
            CountsRecord(phases=np.array(LADDER4), counts=resampled[i]),
            LADDER4, mode="nearest_point")
        ineq = build_probability_inequality(
            InequalityFamily(bob_amplitude=float(r_b[i])))
        row = analysis._coefficient_row(family, float(r_b[i]))
        assert res.samples[i] == pytest.approx(
            evaluate_steering(ineq, table)[1],
            abs=1e-12 * max(1.0, np.abs(row).max()))


def test_fixed_amplitude_evaluates_the_bound_once(monkeypatch):
    calls = []
    build = analysis.stacked_inequality

    def counted(family, r_b):
        calls.append(r_b)
        return build(family, r_b)

    monkeypatch.setattr(analysis, "stacked_inequality", counted)
    res = monte_carlo(_model_setting_counts(), InequalityFamily(),
                      runs=5000, r_b_sigma=0.0, seed=4)
    assert calls == [0.217]
    assert res.grid_error == 0.0 and res.redraws == 0


def test_coefficient_row_reads_the_strategy_values_of_its_build(
        monkeypatch):
    # S_max and its 16 branches come from the build's one eigensolve
    family = InequalityFamily()
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    row = analysis._coefficient_row(family)
    assert len(calls) == 1
    monkeypatch.undo()
    one = build_probability_inequality(family)
    stack = analysis.stacked_inequality(family, [0.1, family.bob_amplitude])
    assert one.strategy_values.shape == (16,)
    np.testing.assert_array_equal(one.strategy_values,
                                  stack.strategy_values[1])
    np.testing.assert_array_equal(row[7:], one.strategy_values)
    assert one.bound == one.strategy_values.max(-1)
    np.testing.assert_array_equal(stack.bound, stack.strategy_values.max(-1))


def test_result_formatting_round_trips_key_values():
    counts = _model_setting_counts(events=20000)
    family = InequalityFamily()
    res = monte_carlo(counts, family,
                      runs=2000, r_b_sigma=0.0, seed=0)
    text = format_mc_result(res)
    head, _, hist = text.partition("histogram\n")
    entries = dict(line.split("=", 1) for line in head.splitlines())
    assert float(entries["mean"]) == res.mean
    assert float(entries["std"]) == res.std
    assert int(entries["runs"]) == 2000
    assert entries["binning"] == "freedman-diaconis"
    counts, edges = np.histogram(res.samples, bins="fd")
    assert np.array_equal(res.bin_counts, counts)
    assert np.array_equal(res.bin_edges, edges)
    rows = [line.split() for line in hist.strip().splitlines()]
    assert len(rows) == res.bin_counts.size
    assert sum(int(r[2]) for r in rows) == 2000
    if res.gaussian_fit is not None:
        assert float(entries["gauss_std"]) == pytest.approx(res.std, rel=0.5)


def test_heavy_tail_histogram_has_at_most_root_runs_bins():
    """Draws of r_B near zero give margins growing as 1/r_B: a tiny
    interquartile range against a wide span, where the Freedman-Diaconis
    rule asks for more bins than there are runs."""
    runs = 2000
    res = monte_carlo(_model_setting_counts(),
                      InequalityFamily(bob_amplitude=0.002),
                      runs=runs, r_b_sigma=0.002, seed=1)
    cap = math.ceil(math.sqrt(runs))
    assert np.histogram(res.samples, bins="fd")[0].size > runs
    assert res.binning == "square-root"
    hist = format_mc_result(res).partition("histogram\n")[2]
    rows = [line.split() for line in hist.strip().splitlines()]
    assert len(rows) == res.bin_counts.size <= cap
    assert sum(int(r[2]) for r in rows) == runs
    assert float(rows[0][0]) == res.samples.min()
    assert float(rows[-1][1]) == res.samples.max()


_SAMPLES = arrays(
    np.float64, st.integers(1, 5000),
    elements=st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([0.0, -0.0, 1.0, 2.5])))


@settings(max_examples=100, deadline=None)
@given(_SAMPLES)
# the upper quartile falls halfway between the top two samples, where the
# two sides of numpy's lerp round differently
@example(np.array([-1e6, 2.3643249400513432e-07, 9.009273926518706e-05]))
def test_quartiles_equal_numpy_percentile(samples):
    # bit for bit from two samples on; at one, equal up to a zero's sign
    got = np.array(analysis._quartiles(samples))
    want = np.percentile(samples, [75, 25])
    np.testing.assert_array_equal(got, want)
    if samples.size > 1:
        assert got.tobytes() == want.tobytes()


def _mids(res):
    return 0.5 * (res.bin_edges[:-1] + res.bin_edges[1:])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_histogram_gaussian_agrees_with_a_least_squares_fit(seed):
    # scipy's iterative least squares in linear counts is the reference
    from scipy.optimize import curve_fit

    res = monte_carlo(_model_setting_counts(), InequalityFamily(),
                      runs=20000, seed=seed)
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
    heavy = monte_carlo(_model_setting_counts(),
                        InequalityFamily(bob_amplitude=0.002),
                        runs=2000, r_b_sigma=0.002, seed=1)
    cases = [(x, spike), (x, np.full(41, 7.0)),
             (x[:4], np.array([3.0, 9.0, 8.0, 2.0])), (x, twin),
             (_mids(heavy), heavy.bin_counts)]
    with np.errstate(all="raise"):
        fits = [analysis.curve_fit(*case) for case in cases]
    assert fits[0] is None                       # one positive bin
    for fit in fits:
        assert fit is None or (np.all(np.isfinite(fit)) and fit[0] > 0.0
                               and fit[2] > 0.0)


def _lstsq_gaussian(x, y):
    """The histogram Gaussian as LAPACK least squares (dgelsd) solved it:
    the reference for the closed-form normal equations of curve_fit."""
    if np.count_nonzero(y > 0) < 3:
        return None
    x, log_y = x[y > 0], np.log(y[y > 0])
    center, scale = x.mean(), np.ptp(x)
    t = (x - center) / scale
    design = np.column_stack([np.ones_like(t), t, t * t])
    log_w = 2.0 * log_y
    for _ in range(21):
        w = np.exp(np.maximum(log_w - log_w.max(), -100.0))
        coef = np.linalg.lstsq(design * w[:, None], log_y * w, rcond=None)[0]
        log_w = design @ coef
    c0, c1, c2 = coef.tolist()
    if not c2 < 0.0:
        return None
    peak = -c1 / (2.0 * c2)
    log_amp = c0 - c2 * peak * peak
    if not (t.min() <= peak <= t.max() and abs(log_amp) < 700.0):
        return None
    return (math.exp(log_amp), float(center + scale * peak),
            float(scale / math.sqrt(-2.0 * c2)))


def _fit_cases():
    """Histograms (x, y): Monte Carlo ones over runs, spread, s and seed,
    Poisson-noised Gaussians on even and uneven x, and sparse ones."""
    counts = _model_setting_counts()
    for runs in (3, 50, 2000, 20000):
        for sigma in (0.0, 0.005, 0.05):
            for s in (0.1, 0.5, 0.983):
                for seed in (1, 2, 3):
                    res = monte_carlo(counts, InequalityFamily(s=s), runs=runs,
                                      r_b_sigma=sigma, seed=seed)
                    yield _mids(res), res.bin_counts
    rng = np.random.default_rng(5)
    for k in range(200):
        n = int(rng.integers(3, 200))
        x = (np.sort(rng.uniform(-5.0, 5.0, n)) if k % 2
             else np.linspace(-3.0, 3.0, n))
        mu, sd = rng.uniform(-3.0, 3.0), rng.uniform(0.05, 5.0)
        yield x, rng.poisson(rng.uniform(1.0, 1e4)
                             * np.exp(-0.5 * ((x - mu) / sd) ** 2))
    for _ in range(200):
        n = int(rng.integers(3, 60))
        y = np.zeros(n)
        hit = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)),
                         replace=False)
        y[hit] = rng.integers(1, 100, hit.size)
        yield np.linspace(-1.0, 1.0, n), y


def test_histogram_gaussian_equals_the_lstsq_fit():
    fitted = 0
    cases = list(_fit_cases())
    with np.errstate(all="raise"):
        for x, y in cases:
            want, got = _lstsq_gaussian(x, y), analysis.curve_fit(x, y)
            assert (got is None) == (want is None), (x, y)
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
                fitted += 1
    assert fitted > 300


def test_monte_carlo_runs_without_lapack_least_squares(monkeypatch):
    # the histogram fit solves its normal equations in closed form, so the
    # command never pages in the LAPACK code behind np.linalg.lstsq
    want = monte_carlo(_model_setting_counts(), InequalityFamily(),
                       runs=2000, seed=3)

    def unavailable(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", unavailable)
    got = monte_carlo(_model_setting_counts(), InequalityFamily(),
                      runs=2000, seed=3)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert (got.mean, got.std) == (want.mean, want.std)
    assert got.gaussian_fit == want.gaussian_fit is not None


def test_monte_carlo_holds_one_chunk_of_arrays_at_a_time():
    # beyond the samples themselves the peak stays within four times one
    # chunk's int64 counts (0.25 MiB); holding the counts through the r_B
    # lookup and the rows into the next draws took 4.55 times
    counts = _model_setting_counts()
    monte_carlo(counts, InequalityFamily(), runs=2000, seed=1)   # warm
    tracemalloc.start()
    try:
        res = monte_carlo(counts, InequalityFamily(), runs=20000,
                          r_b_sigma=0.005, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - res.samples.nbytes <= 4 * analysis.MC_CHUNK * 16 * 8


@pytest.mark.parametrize("s", [0.5, 0.01])
def test_grid_error_bounds_the_lookups_where_a_branch_has_a_kink(s):
    # away from the default s a strategy's top eigenvalue crosses another
    # inside the window, so no node set meets 1e-12; grid_error must then
    # say by how much the 129-node set misses, in its relative form
    family = InequalityFamily(s=s)
    grid = analysis._BoundInterpolant(family, 0.005)
    assert grid.nodes.size == 129 and grid.error > 1e-12
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    r_b = rng.normal(family.bob_amplitude, 0.005, analysis.MC_CHUNK)
    exact = analysis._coefficient_row(family, r_b)
    miss = (np.abs(grid.lookup(r_b) - exact).max(axis=1)
            / np.maximum(1.0, np.abs(exact).max(axis=1)))
    assert miss.max() <= grid.error
