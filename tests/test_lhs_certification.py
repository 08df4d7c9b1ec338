"""Tests for LHS certification, critical efficiency, and phase optimization."""

from dataclasses import replace
from fractions import Fraction
import random
import re
import time

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from steering_lab import lhs_certification
from steering_lab.errors import (IndeterminateFeasibilityError,
                                 ValidationError)
from steering_lab.fock_ops import coherent_amplitudes
from steering_lab.inequality import (InequalityFamily,
                                     build_probability_inequality,
                                     _marginals, deterministic_strategies,
                                     evaluate_steering)
from steering_lab.lhs_certification import (TableProblem, _max_eta,
                                            canonical_phases,
                                            experiment_critical_eta,
                                            ladder_distance, lhs_bound,
                                            optimize_phases, trusted_basis,
                                            verify_hidden_states)
from steering_lab.quantum_model import (ModelConfig, compute_assemblage,
                                        joint_probabilities, make_state)

LADDER4 = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)
LADDER5 = tuple(i * 2.0 * np.pi / 5.0 for i in range(5))
_RANDOM4 = tuple(tuple(np.random.Generator(np.random.Philox(seed)).uniform(
    0.0, 2.0 * np.pi, 4)) for seed in range(3))

# Critical efficiencies of the assemblage on the ladder
# (experiment_critical_eta with space="qubit"), certified to a gap below
# 1e-8. Each lies inside the bracket an earlier bisection solver reported
# at precision 1e-3.
ETA_STAR_R20 = 0.4195681
ETA_STAR_R233 = 0.4267374
ETA_STAR_R20_M5 = 0.3725280
ASSEMBLAGE_BRACKET_R20 = (0.4189453125, 0.419921875)
ASSEMBLAGE_BRACKET_R233 = (0.42578125, 0.4267578125)
ASSEMBLAGE_BRACKET_R20_M5 = (0.3720703125, 0.373046875)

# Critical efficiency of the joint click table at r_A = 0.2, r_B = 0.217 on
# the ladder, with the trusted side's hidden states anywhere in photon-number
# space. An independent column-generation LP over (strategy, pure state)
# columns gave the same value.
ETA_EXPERIMENT_R20 = 0.4232583

# (eta_star, eta_upper, iterations) of the joint click table in
# photon-number space on the m-setting ladder, keyed by (m, r_A), as the
# solve with a separate weight variable outside the detectors' span
# certified them; an equal program must give overlapping intervals in as
# many iterations.
FOCK_LADDER = {
    (1, 0.2): (1.0001445206439437, 1.0001445212185986, 12),
    (1, 0.233): (1.000001247659383, 1.0000012479346059, 11),
    (2, 0.2): (0.6909378576470718, 0.6909378578612435, 19),
    (2, 0.233): (0.6958931164845035, 0.6958931166357806, 19),
    (3, 0.2): (0.5159720881229574, 0.5159720882816037, 20),
    (3, 0.233): (0.5195961296611998, 0.5195961304589491, 14),
    (4, 0.2): (0.42325826890375196, 0.42325826911887404, 18),
    (4, 0.233): (0.43035263705563, 0.4303526374340561, 17),
    (5, 0.2): (0.3752164887196872, 0.3752164889198062, 19),
    (5, 0.233): (0.3892705657854775, 0.38927056597678217, 19),
}


def _ladder(m):
    return tuple(k * 2.0 * np.pi / m for k in range(m))


def _assert_certified(res, eta_star, bracket):
    """eta* to 1e-6 inside its old bracket, with both certificates."""
    assert res.eta_star == pytest.approx(eta_star, abs=1e-6)
    assert bracket[0] <= res.eta_star <= res.eta_upper <= bracket[1]
    assert 0.0 < res.eta_upper - res.eta_star <= 1e-8
    assert verify_hidden_states(res.model, res.problem, res.eta_star) <= 1e-9
    func = res.functional
    assert func.value(res.problem.table_at(res.eta_upper + 1e-9)) > func.bound


@pytest.fixture(scope="module")
def assemblage_r233():
    return experiment_critical_eta(0.233, LADDER4, space="qubit")


def test_vacuum_assemblage_is_feasible_with_verifiable_certificate(
        assemblage_r233, experiment_r20):
    for res in (assemblage_r233, experiment_r20):
        verdict, model = res.verdict_at(0.0)
        assert verdict == "feasible"
        assert verify_hidden_states(model, res.problem, 0.0) <= 1e-12


def _qubit_table(blocks, problem):
    """p[a, b, x, y] of hidden 0-1 subspace states, by explicit traces."""
    strat = deterministic_strategies(problem.m).astype(float)
    projs = np.einsum('ay,by->yab', problem.basis, problem.basis.conj())
    q = np.einsum('yab,kba->ky', projs, blocks).real
    tr = np.trace(blocks, axis1=1, axis2=2).real
    probs = np.empty((2, 2, problem.m, 4))
    for a, d in enumerate((strat, 1.0 - strat)):
        probs[a, 0] = d.T @ q
        probs[a, 1] = d.T @ (tr[:, None] - q)
    return probs


def test_constructed_lhs_mixture_is_recognized_and_certified():
    rng = np.random.Generator(np.random.Philox(11))
    a = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    hidden = a @ np.conj(np.swapaxes(a, 1, 2))
    hidden /= np.trace(hidden, axis1=1, axis2=2).real.sum()
    base = TableProblem.from_model(0.233, LADDER4, space="qubit")
    problem = replace(base, table_steered=_qubit_table(hidden, base))
    res, = _max_eta([problem])
    # both ends of the segment are LHS tables, so the whole of it is
    assert res.eta_star > 1.0
    verdict, model = res.verdict_at(1.0)
    assert verdict == "feasible"
    assert verify_hidden_states(model, problem, 1.0) <= 1e-9


@st.composite
def _phase_sets(draw):
    m = draw(st.integers(4, 5))
    return tuple(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=m,
                               max_size=m)))


@settings(max_examples=15, deadline=None)
@given(phases=_phase_sets(), r_a=st.floats(0.01, 0.9),
       space=st.just("qubit"))
# hidden states with weight outside the span of the |alpha_y>, on the
# zero row of the photon-number basis
@example(phases=LADDER5, r_a=0.05, space="fock")
@example(phases=_RANDOM4[1], r_a=0.5, space="fock")
@example(phases=(0.3, 2.0, 2.1, 4.4, 5.9), r_a=0.233, space="fock")
@example(phases=_RANDOM4[2], r_a=0.9, space="fock")
def test_every_assemblage_verdict_checks_by_arithmetic(phases, r_a, space):
    res = experiment_critical_eta(r_a, phases, space=space)
    problem, func = res.problem, res.functional
    assert problem.basis.shape == ((5, 4) if space == "fock" else (2, 4))
    assert verify_hidden_states(res.model, problem,
                                res.eta_star) <= lhs_certification.MODEL_TOL
    assert func.bound == lhs_bound(func.coefficients, problem.basis)
    assert func.value(problem.table_at(res.eta_upper + 1e-6)) > func.bound
    assert 0.0 < res.eta_upper - res.eta_star <= lhs_certification.GAP_TOL


def test_verify_certificate_flags_corruption(assemblage_r233):
    res = assemblage_r233
    verdict, model = res.verdict_at(0.2)
    assert verdict == "feasible"
    assert verify_hidden_states(model, res.problem, 0.2) <= 1e-9
    bad = model.copy()
    bad[0, 0, 0] += 0.01
    assert verify_hidden_states(bad, res.problem, 0.2) > 1e-3


def test_lossless_ladder_assemblage_is_infeasible(assemblage_r233):
    res = assemblage_r233
    verdict, func = res.verdict_at(1.0)
    assert verdict == "infeasible"
    # the bound is re-derived from the coefficients alone
    assert func.bound == lhs_bound(func.coefficients, res.problem.basis)
    assert func.value(res.problem.table_at(1.0)) > func.bound + 0.1


def test_interpolation_endpoints_match_direct_construction():
    problem = TableProblem.from_model(0.15, LADDER4, space="qubit",
                                      visibility=0.9)
    assert problem.m == 4
    for eta in (0.0, 0.25, 1.0):
        direct = joint_probabilities(ModelConfig(
            eta=eta, r_a=0.15, alice_phases=LADDER4, visibility=0.9))
        np.testing.assert_allclose(problem.table_at(eta), direct,
                                   atol=1e-15)


def test_critical_eta_frozen_values_and_bracket(assemblage_r233):
    res = experiment_critical_eta(0.2, LADDER4, space="qubit")
    _assert_certified(res, ETA_STAR_R20, ASSEMBLAGE_BRACKET_R20)
    _assert_certified(assemblage_r233, ETA_STAR_R233, ASSEMBLAGE_BRACKET_R233)


def test_critical_eta_is_invariant_under_global_phase_shift():
    base = experiment_critical_eta(0.2, LADDER4, space="qubit")
    shifted = experiment_critical_eta(0.2, tuple(p + 0.7 for p in LADDER4),
                                      space="qubit")
    # the two certified intervals overlap
    assert max(base.eta_star, shifted.eta_star) <= min(base.eta_upper,
                                                       shifted.eta_upper)


def test_all_equal_phases_are_never_steerable():
    res = experiment_critical_eta(0.2, (1.3, 1.3, 1.3, 1.3), space="qubit")
    assert res.eta_star == pytest.approx(1.0, abs=1e-8)
    assert res.eta_upper >= 1.0
    # eta = 1 lies on the boundary of the LHS set (the conditional states
    # of a pure state are singular), reached by the tangent from eta_star
    for eta in np.linspace(0.0, 1.0, 11):
        verdict, model = res.verdict_at(eta)
        assert verdict == "feasible"
        assert verify_hidden_states(model, res.problem, eta) <= 1e-9


def test_more_settings_lower_the_critical_efficiency():
    res5 = experiment_critical_eta(0.2, LADDER5, space="qubit")
    _assert_certified(res5, ETA_STAR_R20_M5, ASSEMBLAGE_BRACKET_R20_M5)
    assert res5.eta_star < ETA_STAR_R20


def test_a_solve_out_of_iterations_certifies_nothing(monkeypatch):
    problem = TableProblem.from_model(0.2, LADDER4, space="qubit")
    monkeypatch.setattr(lhs_certification, "ITERATION_CAP", 2)
    with pytest.raises(IndeterminateFeasibilityError,
                       match="after 2 iterations"):
        _max_eta([problem])


@pytest.mark.parametrize("r_a", [3e-4, 2e-4, 1e-4, 5e-5])
def test_a_rounding_unit_past_the_gap_ends_the_solve_at_once(r_a):
    # in qubit space one rounding unit of the separating functional, about
    # 1.2e-15 / r_A^2 in eta, exceeds GAP_TOL below r_A ~ 3.5e-4: no interval
    # that narrow exists in float64, and the solve says so without running
    # to ITERATION_CAP; in Fock space the unit stays small and it decides
    start = time.perf_counter()
    floor = re.escape(f"r_A={r_a}: rounding unit ") + r"\S+ in eta exceeds"
    with pytest.raises(IndeterminateFeasibilityError,
                       match=floor + " GAP_TOL 1e-08$"):
        experiment_critical_eta(r_a, space="qubit")
    assert time.perf_counter() - start < 0.5
    res = experiment_critical_eta(r_a)
    assert 0.0 < res.eta_upper - res.eta_star <= lhs_certification.GAP_TOL


def test_a_stack_solves_each_problem_as_it_is_solved_alone():
    # a stack shares one trusted basis: the ladder and three random phase
    # sets in qubit space, and a Fock-space pair at the same r_B; each
    # problem keeps its own steps, so it takes the iterations of its
    # one-problem solve, and its interval moves by less than its gap
    qubit = [TableProblem.from_model(0.2, phases, space="qubit")
             for phases in (LADDER4, *_RANDOM4)]
    fock = [TableProblem.from_model(0.2, phases, r_b=0.217)
            for phases in (LADDER4, _RANDOM4[0])]
    for stack in (qubit, fock):
        solved = _max_eta(stack)
        assert len(solved) == len(stack)
        for problem, res in zip(stack, solved):
            alone, = _max_eta([problem])
            assert res.problem is problem
            assert res.iterations == alone.iterations
            gap = alone.eta_upper - alone.eta_star
            assert abs(res.eta_star - alone.eta_star) <= gap
            assert abs(res.eta_upper - alone.eta_upper) <= gap
            residual = verify_hidden_states(res.model, problem, res.eta_star)
            assert residual <= lhs_certification.MODEL_TOL


def test_a_problem_at_the_rounding_floor_raises_alike_in_a_stack():
    floor = TableProblem.from_model(1e-4, LADDER4, space="qubit")
    with pytest.raises(IndeterminateFeasibilityError) as alone:
        _max_eta([floor])
    ladder = TableProblem.from_model(0.2, LADDER4, space="qubit")
    with pytest.raises(IndeterminateFeasibilityError) as stacked:
        _max_eta([ladder, floor, ladder])
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith("rounding unit ")
    assert "\n" not in str(alone.value)


@pytest.mark.parametrize("space, sizes", [("qubit", range(1, 9)),
                                          ("fock", range(1, 6))])
def test_ladder_solves_stay_within_fifty_iterations(space, sizes):
    for m in sizes:
        for r_a in (0.2, 0.233):
            res = experiment_critical_eta(r_a, _ladder(m), space=space)
            assert res.iterations <= 50, (m, r_a)
            gap = res.eta_upper - res.eta_star
            assert 0.0 < gap <= lhs_certification.GAP_TOL, (m, r_a)
            if space == "fock":
                eta_star, eta_upper, iterations = FOCK_LADDER[m, r_a]
                assert res.iterations == iterations, (m, r_a)
                assert max(eta_star, res.eta_star) <= min(
                    eta_upper, res.eta_upper), (m, r_a)


def _verdict_case(phases, space="qubit", r_a=0.2):
    name = "m%d_%.3f" % (len(phases), sum(phases))
    name += "" if space == "qubit" else f"_{space}"
    return pytest.param(phases, space, r_a,
                        id=name if r_a == 0.2 else f"{name}_r{r_a:g}")


def _exact_excess(func, problem, eta):
    """Value of func on the exact mix eta T1 + (1 - eta) T0 of the float
    tables, less its bound, in Fractions."""
    eta = Fraction(eta)
    mix = np.array([eta * Fraction(t1) + (1 - eta) * Fraction(t0)
                    for t1, t0 in zip(problem.table_steered.ravel().tolist(),
                                      problem.table_vacuum.ravel().tolist())],
                   dtype=object).reshape(problem.table_vacuum.shape)
    value = sum(Fraction(f) * v for f, v in zip(
        func.coefficients.ravel().tolist(), _marginals(mix).ravel()))
    return value - Fraction(func.bound)


@pytest.mark.parametrize("phases, space, r_a", [
    *(_verdict_case(p) for p in (*_RANDOM4, *(_ladder(m) for m in
                                             (1, 2, 3, 5, 6)), (0.4,) * 3)),
    # hidden states with weight outside the span of the |alpha_y>, on the
    # zero row of the photon-number basis
    _verdict_case(_ladder(4), "fock"),
    _verdict_case(_RANDOM4[0], "fock"),
    # near the rounding floor, where a rounding unit of the float value is
    # a sizeable share of the certified gap
    _verdict_case(LADDER4, r_a=1e-3),
    _verdict_case(LADDER4, r_a=4e-4),
])
def test_every_verdict_carries_a_certificate_that_checks(phases, space, r_a):
    res = experiment_critical_eta(r_a, phases, space=space)
    margin = Fraction(1e-10) * max(1, abs(Fraction(res.functional.bound)))
    # eta_upper and the floats just above it: each must read infeasible
    above = [res.eta_upper]
    for _ in range(8):
        above.append(np.nextafter(above[-1], 2.0))
    probes = {*np.linspace(0.0, 1.0, 21), res.eta_star, *above,
              0.5 * (res.eta_star + res.eta_upper), res.eta_star - 1e-3,
              res.eta_upper + 1e-12, res.eta_upper + 1e-7}
    seen = set()
    for eta in sorted(e for e in probes if 0.0 <= e <= 1.0):
        verdict, certificate = res.verdict_at(eta)
        seen.add(verdict)
        if eta >= res.eta_upper:
            # eta_upper is the first infeasible efficiency, and every
            # efficiency above it reads infeasible too: the functional
            # beats its bound by the margin on the exact table, and the
            # value less the bound that certify prints is that excess,
            # rounded once, so it reads above 0
            assert verdict == "infeasible", eta - res.eta_upper
            excess = _exact_excess(certificate, res.problem, eta)
            assert excess > margin
            assert res.margin_at(eta) == float(excess) > 0
        elif verdict == "feasible":
            assert verify_hidden_states(certificate, res.problem, eta) <= 1e-9
        else:
            # the certified gap
            assert verdict == "indeterminate"
            assert res.eta_star < eta and certificate is None
    # eta_upper is tight: one float below it the margin is not met
    assert _exact_excess(res.functional, res.problem, np.nextafter(
        res.eta_upper, 0.0)) <= margin
    assert "feasible" in seen
    assert ("infeasible" in seen) == (res.eta_upper <= 1.0)
    with pytest.raises(ValidationError):
        res.verdict_at(1.5)


def test_canonical_phases_and_ladder_distance():
    rotated = tuple((p + 1.1) % (2 * np.pi) for p in LADDER4)
    permuted = (rotated[2], rotated[0], rotated[3], rotated[1])
    np.testing.assert_allclose(canonical_phases(permuted),
                               (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi),
                               atol=1e-12)
    assert ladder_distance(permuted) < 1e-12
    bumped = (0.0, 0.5 * np.pi + 0.1, np.pi, 1.5 * np.pi)
    assert ladder_distance(bumped) == pytest.approx(0.1, abs=1e-12)
    assert ladder_distance((0.3, 0.3, 0.3, 0.3)) == pytest.approx(np.pi)


def test_optimize_phases_is_deterministic_and_never_loses_to_its_start():
    first = optimize_phases(0.2, 4, restarts=2, seed=3)
    second = optimize_phases(0.2, 4, restarts=2, seed=3)
    assert first.phases == second.phases
    assert first.eta_star == second.eta_star
    assert len(first.restarts) == 2
    floor = min(min(r.eta_star_start, r.eta_star_end)
                for r in first.restarts)
    assert first.eta_star == floor
    for rec in first.restarts:
        assert rec.eta_star_end <= rec.eta_star_start + 1e-12
    with pytest.raises(ValidationError):
        optimize_phases(0.2, 4, restarts=0)


def test_optimize_phases_draws_its_starts_from_the_stdlib_stream():
    # m uniform phases per restart, restart by restart, from random.Random
    draw = random.Random(7).uniform
    starts = [tuple(draw(0.0, 2.0 * np.pi) for _ in range(4))
              for _ in range(2)]
    plain = optimize_phases(0.2, 4, restarts=2, seed=7)
    assert [rec.start_phases for rec in plain.restarts] == starts
    # numpy integers pass check_seed and seed the same stream as 7
    for seed in (np.uint64(7), np.int64(7)):
        assert optimize_phases(0.2, 4, restarts=2, seed=seed) == plain


def test_optimize_phases_solves_in_stacks_of_bounded_size(monkeypatch):
    # at most STACK_STRATEGIES // 2^m problems share a stack, so memory does
    # not grow with restarts; how they are split moves no result by a bit
    sizes, solve = [], lhs_certification._max_eta

    def spy(problems, label=""):
        sizes.append(len(problems))
        return solve(problems, label)

    monkeypatch.setattr(lhs_certification, "_max_eta", spy)
    whole = optimize_phases(0.2, 4, restarts=2, seed=5)
    assert sizes == [4]
    monkeypatch.setattr(lhs_certification, "STACK_STRATEGIES", 48)
    assert optimize_phases(0.2, 4, restarts=2, seed=5) == whole
    assert sizes == [4, 3, 1]


@pytest.fixture(scope="module")
def experiment_r20():
    return experiment_critical_eta(0.2, LADDER4)


def _family_threshold(r_a):
    """Efficiency at which the (s, t) family meets its full-space bound."""
    ineq = build_probability_inequality(InequalityFamily())
    lo, hi = (evaluate_steering(ineq, joint_probabilities(
        ModelConfig(eta=eta, r_a=r_a)))[1] for eta in (0.0, 1.0))
    return -lo / (hi - lo)


def test_experiment_eta_lies_between_assemblage_and_family_threshold(
        experiment_r20):
    res = experiment_r20
    assert res.eta_star == pytest.approx(ETA_EXPERIMENT_R20, abs=1e-6)
    assert 0.0 < res.eta_upper - res.eta_star <= 1e-8
    # more hidden states than the assemblage problem admits, and the
    # family's own full-space inequality is one steering witness among many
    assert ASSEMBLAGE_BRACKET_R20[1] <= res.eta_star
    assert res.eta_upper <= _family_threshold(0.2)


def test_experiment_program_on_the_qubit_subspace_is_the_assemblage_problem():
    res = experiment_critical_eta(0.2, LADDER4, space="qubit")
    lo, hi = ASSEMBLAGE_BRACKET_R20
    assert lo <= res.eta_star <= res.eta_upper <= hi
    assert res.problem.basis.shape == (2, 4)
    assert verify_hidden_states(res.model, res.problem, res.eta_star) <= 1e-8
    # summed per strategy, the hidden states rebuild the assemblage of the
    # state itself: sigma_{+|x} = sum_k D_k(+|x) X_k and sigma_R = sum_k X_k
    strat = deterministic_strategies(4).astype(float)
    for eta in (res.eta_star, 0.3):
        _, model = res.verdict_at(eta)
        sigma = compute_assemblage(make_state(eta), 0.2, LADDER4)
        np.testing.assert_allclose(
            np.einsum('kx,kab->xab', strat, model), sigma[0], atol=1e-8)
        np.testing.assert_allclose(model.sum(axis=0),
                                   sigma.sum(axis=0)[0], atol=1e-8)


def test_trusted_basis_reproduces_coherent_state_overlaps():
    # from r_B = 1 on the norms come from the closed form through an FFT
    for r_b in (0.217, 1.0, 1.7, 2.5):
        basis = trusted_basis(r_b)
        assert basis.shape == (5, 4)
        assert not basis[4].any()
        cols = coherent_amplitudes(r_b, np.array(LADDER4), 80).T
        np.testing.assert_allclose(basis.conj().T @ basis,
                                   cols.conj().T @ cols, rtol=0.0, atol=1e-14)
        qubit = trusted_basis(r_b, space="qubit")
        assert qubit.shape == (2, 4)
        np.testing.assert_allclose(qubit, cols[:2], rtol=0.0, atol=1e-15)
    with pytest.raises(ValidationError):
        trusted_basis(0.217, space="truncated")
    with pytest.raises(ValidationError):
        experiment_critical_eta(0.2, LADDER4, r_b=0.0)


def test_experiment_certificates_hold_in_photon_number_space(experiment_r20):
    """Both certificates, re-checked on explicit photon-number operators."""
    res = experiment_r20
    problem = res.problem
    assert verify_hidden_states(res.model, problem, res.eta_star) <= 1e-8
    n_max = 30
    cols = coherent_amplitudes(0.217, np.array(LADDER4), n_max).T
    # orthonormal frame of the span, and last a state orthogonal to it, for
    # the basis's zero row
    outside = np.linalg.svd(cols.conj().T)[2][-1].conj()
    frame = np.column_stack([cols @ np.linalg.inv(problem.basis[:4]),
                             outside])
    states = np.einsum('ia,kab,jb->kij', frame, res.model, frame.conj())
    assert np.linalg.eigvalsh(states).min() >= -1e-12
    strat = deterministic_strategies(4).astype(float)
    q = np.einsum('iy,kij,jy->ky', cols.conj(), states, cols).real
    tr = np.trace(states, axis1=1, axis2=2).real
    table = problem.table_at(res.eta_star)
    for a, d in enumerate((strat, 1.0 - strat)):
        np.testing.assert_allclose(d.T @ q, table[a, 0], atol=1e-8)
        np.testing.assert_allclose(d.T @ (tr[:, None] - q), table[a, 1],
                                   atol=1e-8)

    # the functional's bound is the top eigenvalue over strategies of its
    # trusted-side operator on the whole (truncated) photon-number space
    func = res.functional
    rows = np.hstack([strat, np.ones((16, 1))])
    projs = np.einsum('iy,jy->yij', cols, cols.conj())
    bound = max(np.linalg.eigvalsh(
        np.einsum('y,yij->ij', g[:4], projs) + g[4] * np.eye(n_max + 1))[-1]
        for g in rows @ func.coefficients)
    assert func.bound == pytest.approx(bound, abs=1e-12)
    assert func.value(problem.table_at(res.eta_star)) <= func.bound + 1e-12
    assert func.value(problem.table_at(res.eta_star + 1e-4)) > func.bound


def test_verify_hidden_states_flags_an_indefinite_block(experiment_r20):
    res = experiment_r20
    basis = res.problem.basis
    # a Hermitian direction invisible to every detector and to the trace
    dim = basis.shape[0]
    probes = np.concatenate([np.einsum('ay,by->yab', basis, basis.conj()),
                             np.eye(dim)[None]])
    rng = np.random.Generator(np.random.Philox(5))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    z = z + z.conj().T
    gram = np.einsum('jab,kab->jk', probes.conj(), probes).real
    weights = np.linalg.solve(gram, np.einsum('jab,ab->j', probes.conj(),
                                              z).real)
    hidden = z - np.einsum('j,jab->ab', weights, probes)
    assert np.abs(np.einsum('jba,ab->j', probes, hidden)).max() < 1e-12
    bad = res.model.copy()
    bad[3] += 0.1 * hidden / np.abs(hidden).max()
    assert verify_hidden_states(bad, res.problem, res.eta_star) > 1e-3
    assert verify_hidden_states(res.model, res.problem,
                                res.eta_star + 1e-3) > 1e-5


def test_lhs_bound_counts_weight_outside_the_detector_span():
    # penalizing every trusted-side no-click is best met by a hidden state
    # orthogonal to all |alpha_y>, which exists only in photon-number space
    fock = TableProblem.from_model(0.2, LADDER4)
    qubit = TableProblem.from_model(0.2, LADDER4, space="qubit")
    coefficients = np.zeros((5, 5))
    coefficients[4, :4] = -1.0
    assert lhs_bound(coefficients, fock.basis) == 0.0
    projs = np.einsum('ay,by->ab', qubit.basis, qubit.basis.conj())
    assert lhs_bound(coefficients, qubit.basis) == pytest.approx(
        -np.linalg.eigvalsh(projs)[0], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), r_b=st.floats(1e-3, 0.999),
       scale=st.floats(1e-2, 1e3), data=st.data())
def test_the_zero_row_bounds_each_strategy_below_by_its_identity_weight(
        m, r_b, scale, data):
    # on the span of the |alpha_y> a strategy's operator may be negative
    # definite; the zero row stands for a hidden state outside the span,
    # which scores g_0 alone, so each strategy scores max(top, 0) + g_0
    coefficients = scale * np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=5 * (m + 1), max_size=5 * (m + 1)))
    ).reshape(m + 1, 5)
    basis = trusted_basis(r_b)
    span = basis[:4]
    g = np.hstack([deterministic_strategies(m),
                   np.ones((2 ** m, 1))]) @ coefficients
    tops = [np.linalg.eigvalsh(np.einsum('ay,y,by->ab', span, row[:4],
                                         span.conj()))[-1] for row in g]
    expected = max(max(top, 0.0) + row[4] for top, row in zip(tops, g))
    assert lhs_bound(coefficients, basis) == expected
