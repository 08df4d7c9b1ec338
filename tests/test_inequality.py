"""Tests for the inequality family, bounds, and coefficient pipeline."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from steering_lab import inequality
from steering_lab.errors import (NormalizationError,
                                 SingularDecompositionError, ValidationError)
from steering_lab.fock_ops import (RESOLUTION_PHASES, projector_qubit,
                                   trusted_basis)
from steering_lab.inequality import (InequalityFamily,
                                     build_probability_inequality,
                                     comparison_report, decompose_g,
                                     default_alice_phases,
                                     deterministic_strategies,
                                     evaluate_steering, export_inequality,
                                     family_matrices, fullspace_g,
                                     identity_residual, lhs_bound,
                                     qubit_bound)

# Converged bounds at reference parameters, frozen from hand-checked runs.
QUBIT_BOUND_DEFAULT = 1.0002063393115832
FULL_BOUND_DEFAULT = 1.0008400711084255   # r_B = 0.217
FULL_BOUND_R20 = 1.0007083333333335       # r_B = 0.2
FULL_BOUND_R21 = 1.0007842870593158       # r_B = 0.21


def test_family_validation():
    with pytest.raises(ValidationError):
        InequalityFamily(s=0.0)
    with pytest.raises(ValidationError):
        InequalityFamily(t=-0.1)
    with pytest.raises(ValidationError):
        InequalityFamily(m=3)
    with pytest.raises(ValidationError):
        InequalityFamily(alice_phases=(0.0, 1.0))
    with pytest.raises(ValidationError):
        InequalityFamily(bob_amplitude=0.0)
    for bad in (np.inf, np.nan):
        for field in ("s", "t", "bob_amplitude"):
            with pytest.raises(ValidationError, match=field):
                InequalityFamily(**{field: bad})
        with pytest.raises(ValidationError, match="alice_phases"):
            InequalityFamily(alice_phases=(0.0, 1.0, 2.0, bad))


def test_default_phases_are_an_even_ladder():
    assert default_alice_phases(4) == (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
    fam = InequalityFamily()
    assert fam.alice_phases == default_alice_phases(4)


def test_strategies_binary_order():
    strat = deterministic_strategies(4)
    assert strat.shape == (16, 4)
    assert (strat[0] == 0).all()
    np.testing.assert_array_equal(strat[1], [0, 0, 0, 1])
    np.testing.assert_array_equal(strat[9], [1, 0, 0, 1])
    assert len({tuple(row) for row in strat}) == 16
    with pytest.raises(ValidationError):
        deterministic_strategies(0)
    with pytest.raises(ValidationError):
        deterministic_strategies(17)


def _brute_force_qubit_bound(family):
    g_r, g_x = family_matrices(family)
    best = -np.inf
    for strat in deterministic_strategies(family.m):
        total = g_r.copy()
        for x, bit in enumerate(strat):
            if bit:
                total = total + g_x[x]
        best = max(best, np.linalg.eigvalsh(total)[-1])
    return best


def test_qubit_bound_matches_brute_force_on_random_families():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(20):
        m = int(rng.integers(4, 7))
        fam = InequalityFamily(
            s=float(rng.uniform(0.5, 1.2)), t=float(rng.uniform(0.01, 0.3)),
            m=m, alice_phases=tuple(rng.uniform(0, 2 * np.pi, size=m)))
        assert abs(qubit_bound(fam) - _brute_force_qubit_bound(fam)) < 1e-12


def test_qubit_bound_frozen_value():
    assert abs(qubit_bound(InequalityFamily()) - QUBIT_BOUND_DEFAULT) < 1e-12


def test_stacked_qubit_bound_equals_per_family_bounds():
    rng = np.random.Generator(np.random.Philox(23))
    for m in (4, 5, 6):
        family = InequalityFamily(s=float(rng.uniform(0.5, 1.2)),
                                  t=float(rng.uniform(0.01, 0.3)), m=m)
        phases = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=(5, 3, m))
        stacked = qubit_bound(family, phases)
        assert stacked.shape == (5, 3)
        for idx in np.ndindex(5, 3):
            one = InequalityFamily(s=family.s, t=family.t, m=m,
                                   alice_phases=tuple(phases[idx]))
            assert stacked[idx] == qubit_bound(one)
        assert qubit_bound(family, family.alice_phases) == qubit_bound(family)


def test_decomposition_identity_on_random_triples():
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(20):
        fam = InequalityFamily(s=float(rng.uniform(0.3, 1.5)),
                               t=float(rng.uniform(0.005, 0.4)),
                               bob_amplitude=float(rng.uniform(0.05, 0.9)))
        coeffs = decompose_g(fam)
        assert identity_residual(coeffs, fam) < 1e-12


def test_decomposition_component_structure():
    fam = InequalityFamily()
    coeffs = decompose_g(fam)
    assert coeffs.shape == (5, 5)
    # the reduced-state matrix (last row) is diagonal: no
    # imaginary-quadrature weight
    assert coeffs[4, 1] == pytest.approx(0.0, abs=1e-15)
    assert coeffs[4, 3] == pytest.approx(0.0, abs=1e-15)
    # rebuild one setting matrix explicitly as an independent route
    projs = [projector_qubit(fam.bob_amplitude, th)
             for th in RESOLUTION_PHASES]
    g_x = family_matrices(fam)[1][2]
    rebuilt = coeffs[2, 4] * np.eye(2) + sum(
        coeffs[2, y] * projs[y] for y in range(4))
    np.testing.assert_allclose(rebuilt, g_x, atol=1e-13)


def test_decomposition_rejects_bad_trusted_side():
    with pytest.raises(SingularDecompositionError):
        decompose_g(InequalityFamily(bob_amplitude=1.2))


@pytest.mark.parametrize("t", [0.0656, 0.73])
def test_small_trusted_amplitudes_decompose(t):
    # F grows as t / (2 r_B), so the identity residual is judged relative to
    # max(1, max|F|); with an absolute 1e-12 tens of these points failed
    family = InequalityFamily(t=t)
    r_b = np.geomspace(1e-9, 1e-3, 600)
    stack = inequality.stacked_inequality(family, r_b)
    assert stack.coefficients.shape == (600, 5, 5)
    assert (stack.n_max_used == 3).all()
    for i in range(0, 600, 60):
        one = build_probability_inequality(
            InequalityFamily(t=t, bob_amplitude=float(r_b[i])))
        assert one.s_max == stack.s_max[i]
        np.testing.assert_array_equal(one.coefficients, stack.coefficients[i])


def test_decomposition_failures_name_their_cause(monkeypatch):
    with pytest.raises(SingularDecompositionError, match="needs r_B < 1"):
        decompose_g(InequalityFamily(bob_amplitude=1.0))
    # a resolution that is off by 1e-9 leaves a residual no rounding explains
    exact = inequality.pauli_resolution

    def skewed(r):
        on_projectors, on_identity = exact(r)
        return on_projectors * (1 + 1e-9), on_identity

    monkeypatch.setattr(inequality, "pauli_resolution", skewed)
    with pytest.raises(SingularDecompositionError,
                       match=r"identity failed at r_B=0\.217: residual"):
        decompose_g(InequalityFamily())


def test_decomposition_passes_other_errors_through(monkeypatch):
    # only a singular resolution is a decomposition error
    def exhausted(r):
        raise MemoryError("resolution arrays")

    monkeypatch.setattr(inequality, "pauli_resolution", exhausted)
    with pytest.raises(MemoryError, match="resolution arrays"):
        decompose_g(InequalityFamily())


def _brute_force_full_bound(family, n_max):
    coeffs = decompose_g(family)
    g_r, g_x = fullspace_g(coeffs, family, n_max)
    best = -np.inf
    for strat in deterministic_strategies(family.m):
        total = g_r.copy()
        for x, bit in enumerate(strat):
            if bit:
                total = total + g_x[x]
        total = 0.5 * (total + total.conj().T)
        best = max(best, np.linalg.eigvalsh(total)[-1])
    return best


def test_fullspace_bound_frozen_values_and_cutoff():
    for r_b, frozen in ((0.217, FULL_BOUND_DEFAULT), (0.2, FULL_BOUND_R20),
                        (0.21, FULL_BOUND_R21)):
        fam = InequalityFamily(bob_amplitude=r_b)
        bound = build_probability_inequality(fam)
        assert abs(bound.s_max - frozen) < 1e-12
        assert bound.n_max_used == 3


def test_truncated_columns_are_built_only_when_the_cutoff_is_read(
        monkeypatch):
    calls = []
    exact = inequality.coherent_amplitudes

    def counted(*args):
        calls.append(args[-1])
        return exact(*args)

    monkeypatch.setattr(inequality, "coherent_amplitudes", counted)
    stack = inequality.stacked_inequality(InequalityFamily(),
                                          np.linspace(0.2, 0.6, 5))
    one = build_probability_inequality(InequalityFamily(bob_amplitude=0.6))
    assert calls == []
    assert one.r_b == 0.6
    assert one.n_max_used == 8
    assert calls == list(range(3, 9))
    np.testing.assert_array_equal(stack.r_b, np.linspace(0.2, 0.6, 5))
    assert stack.n_max_used.shape == (5,)
    assert stack.n_max_used[-1] == 8


def test_fullspace_bound_matches_brute_force_and_is_flat():
    fam = InequalityFamily()
    bound = build_probability_inequality(fam)
    for n in (2, 4, 8):
        assert abs(_brute_force_full_bound(fam, n) - bound.s_max) < 1e-11


def test_exact_bound_keeps_its_precision_at_small_amplitude():
    # the span of the |alpha_y> has directions of weight ~1, r^2, r^4/2 and
    # r^6/6, the last ones far below the rounding of the Gram matrix here
    for r_b in (1e-4, 0.005):
        fam = InequalityFamily(bob_amplitude=r_b)
        bound = build_probability_inequality(fam)
        assert abs(bound.s_max - _brute_force_full_bound(fam, 24)) < 1e-12


@st.composite
def _families(draw):
    m = draw(st.integers(4, 6))
    return InequalityFamily(
        s=draw(st.floats(0.3, 1.5)), t=draw(st.floats(0.005, 0.4)), m=m,
        alice_phases=tuple(draw(st.lists(st.floats(0.0, 2 * np.pi),
                                         min_size=m, max_size=m))),
        bob_amplitude=draw(st.floats(0.02, 0.95)))


@settings(max_examples=25, deadline=None)
@given(_families())
def test_bounds_agree_across_independent_paths(family):
    bound = build_probability_inequality(family)
    coeffs = bound.coefficients
    # exact kernel against brute force in truncated Fock space
    assert abs(bound.s_max - _brute_force_full_bound(family, 24)) < 1e-10
    assert bound.s_max >= qubit_bound(family) - 1e-12
    # closed-form qubit bound against the kernel on the 0-1 subspace
    qubit = lhs_bound(coeffs, trusted_basis(family.bob_amplitude, "qubit"))
    assert abs(qubit - qubit_bound(family)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(_families(), st.integers(0, 2 ** 32 - 1))
def test_evaluation_matches_the_paper_form(family, seed):
    """S = sum_{a,b,x,y} c^{ab}_{xy} p(ab|xy) + c0, summed term by term."""
    ineq = build_probability_inequality(family)
    m = family.m
    rng = np.random.Generator(np.random.Philox(seed))
    cells = rng.dirichlet(np.ones(4), size=(m, 4))    # [x, y, (a, b)]
    probs = np.moveaxis(cells, -1, 0).reshape(2, 2, m, 4)
    tables = {(0, 0): ineq.c_pp, (0, 1): ineq.c_pm, (1, 0): ineq.c_mp,
              (1, 1): ineq.c_mm}
    paper = ineq.c0
    for (a, b), table in tables.items():
        for x in range(m):
            for y in range(4):
                paper += table[x, y] * probs[a, b, x, y]
    s_value, delta = evaluate_steering(ineq, probs)
    assert abs(s_value - paper) < 1e-14
    assert delta == s_value - ineq.s_max


def test_fullspace_bound_dominates_qubit_bound():
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(10):
        fam = InequalityFamily(s=float(rng.uniform(0.5, 1.2)),
                               t=float(rng.uniform(0.01, 0.2)),
                               bob_amplitude=float(rng.uniform(0.05, 0.5)))
        bound = build_probability_inequality(fam)
        assert bound.s_max >= qubit_bound(fam) - 1e-12


def test_probability_coefficient_structure(monkeypatch):
    fam = InequalityFamily()
    ineq = build_probability_inequality(fam)
    coeffs = decompose_g(fam)
    np.testing.assert_array_equal(ineq.coefficients, coeffs)
    assert (ineq.c_mm == 0.0).all()
    np.testing.assert_allclose(ineq.c_pm,
                               np.tile(coeffs[:4, 4, None] / 4.0, (1, 4)))
    np.testing.assert_allclose(ineq.c_mp,
                               np.tile(coeffs[None, 4, :4] / 4.0, (4, 1)))
    np.testing.assert_allclose(
        ineq.c_pp, coeffs[:4, :4] + coeffs[None, 4, :4] / 4.0
        + coeffs[:4, 4, None] / 4.0)
    assert ineq.c0 == pytest.approx(coeffs[4, 4])
    assert ineq.m == 4
    assert ineq.s_max == ineq.bound
    # a full-space bound below the qubit bound is refused by the build
    monkeypatch.setattr(inequality, "qubit_bound", lambda family: 2.0)
    with pytest.raises(ValidationError):
        build_probability_inequality(fam)


def _lhs_product_table(family, strat, trusted_state):
    """Joint table of a deterministic strategy with a fixed trusted state."""
    probs = np.empty((2, 2, family.m, 4))
    q_plus = np.array([
        float(np.real(np.trace(
            projector_qubit(family.bob_amplitude, th)
            @ trusted_state)))
        for th in RESOLUTION_PHASES])
    for x in range(family.m):
        pa = 1.0 if strat[x] else 0.0
        for y in range(4):
            probs[0, 0, x, y] = pa * q_plus[y]
            probs[0, 1, x, y] = pa * (1.0 - q_plus[y])
            probs[1, 0, x, y] = (1.0 - pa) * q_plus[y]
            probs[1, 1, x, y] = (1.0 - pa) * (1.0 - q_plus[y])
    return probs


def _random_qubit_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_lhs_product_tables_respect_the_bound():
    fam = InequalityFamily()
    ineq = build_probability_inequality(fam)
    rng = np.random.Generator(np.random.Philox(31))
    for strat in deterministic_strategies(4):
        for _ in range(5):
            table = _lhs_product_table(fam, strat, _random_qubit_state(rng))
            s_value, delta = evaluate_steering(ineq, table)
            assert delta <= 1e-9
            assert s_value <= ineq.s_max + 1e-9


def test_evaluate_steering_rejects_unnormalized_tables():
    ineq = build_probability_inequality(InequalityFamily())
    bad = np.full((2, 2, 4, 4), 0.3)
    with pytest.raises(NormalizationError):
        evaluate_steering(ineq, bad)
    with pytest.raises(ValidationError):
        evaluate_steering(ineq, np.zeros((2, 2, 5, 4)))


def test_export_round_trip_precision():
    fam = InequalityFamily()
    ineq = build_probability_inequality(fam)
    text = export_inequality(ineq, fam)
    entries = dict(line.split("=", 1) for line in text.splitlines()
                   if "=" in line)
    assert float(entries["s_max"]) == ineq.s_max
    assert float(entries["s_max_qubit"]) == ineq.s_max_qubit
    assert int(entries["n_max_used"]) == ineq.n_max_used
    assert float(entries["c_pp.1.1"]) == ineq.c_pp[0, 0]
    assert float(entries["alice_phase.2"]) == fam.alice_phases[1]
    assert int(entries["m"]) == 4


def test_comparison_report_mentions_reference_values():
    report = comparison_report()
    assert "0.48" in report and "-0.06" in report
    assert "identity residual" in report
