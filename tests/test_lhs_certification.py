"""Tests for LHS certification, critical efficiency, and phase optimization."""

from dataclasses import replace

import numpy as np
import pytest

from steering_lab import lhs_certification
from steering_lab.errors import (IndeterminateFeasibilityError,
                                 ValidationError)
from steering_lab.fock_ops import DisplacementSetting, coherent_amplitudes
from steering_lab.inequality import (InequalityFamily,
                                     build_probability_inequality,
                                     deterministic_strategies,
                                     evaluate_steering)
from steering_lab.lhs_certification import (HiddenStateModel, TableProblem,
                                            _max_eta, canonical_phases,
                                            experiment_critical_eta,
                                            ladder_distance, lhs_bound,
                                            optimize_phases, trusted_basis,
                                            verify_hidden_states)
from steering_lab.quantum_model import (ModelConfig, compute_assemblage,
                                        default_config, joint_probabilities,
                                        make_state)

LADDER4 = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)
LADDER5 = tuple(i * 2.0 * np.pi / 5.0 for i in range(5))

# Assemblage critical efficiencies on the ladder (experiment_critical_eta
# with space="qubit"), certified to a gap below 1e-8. Each lies inside the
# bracket an earlier bisection solver reported at precision 1e-3.
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
    res = _max_eta(problem)
    # both ends of the segment are LHS tables, so the whole of it is
    assert res.eta_star > 1.0
    verdict, model = res.verdict_at(1.0)
    assert verdict == "feasible"
    assert verify_hidden_states(model, problem, 1.0) <= 1e-9


def test_verify_certificate_flags_corruption(assemblage_r233):
    res = assemblage_r233
    verdict, model = res.verdict_at(0.2)
    assert verdict == "feasible"
    assert verify_hidden_states(model, res.problem, 0.2) <= 1e-9
    blocks = model.blocks.copy()
    blocks[0, 0, 0] += 0.01
    bad = HiddenStateModel(blocks=blocks, weights=model.weights)
    assert verify_hidden_states(bad, res.problem, 0.2) > 1e-3


def test_lossless_ladder_assemblage_is_infeasible(assemblage_r233):
    res = assemblage_r233
    verdict, func = res.verdict_at(1.0)
    assert verdict == "infeasible"
    # the bound is re-derived from the coefficients alone
    assert func.bound == lhs_bound(func.coefficients, res.problem.basis,
                                   res.problem.outside)
    assert func.value(res.problem.table_at(1.0)) > func.bound + 0.1


def test_interpolation_endpoints_match_direct_construction():
    problem = TableProblem.from_model(0.15, LADDER4, space="qubit",
                                      visibility=0.9)
    assert problem.m == 4
    for eta in (0.0, 0.25, 1.0):
        direct = joint_probabilities(ModelConfig(
            eta=eta, r_a=0.15, alice_phases=LADDER4, visibility=0.9)).probs
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


def test_barrier_stall_falls_back_to_the_last_certified_interval(
        monkeypatch):
    problem = TableProblem.from_model(0.2, LADDER4, space="qubit")
    # no centering finished: nothing is certified
    monkeypatch.setattr(lhs_certification, "NEWTON_CAP", 5)
    with pytest.raises(IndeterminateFeasibilityError):
        _max_eta(problem)
    # a gap target out of reach: the barrier stalls, and the last
    # certified interval comes back with both certificates
    monkeypatch.setattr(lhs_certification, "NEWTON_CAP", 2000)
    monkeypatch.setattr(lhs_certification, "GAP_TOL", 1e-14)
    res = _max_eta(problem)
    assert res.eta_upper - res.eta_star <= lhs_certification.FALLBACK_GAP
    assert (ASSEMBLAGE_BRACKET_R20[0] <= res.eta_star <= res.eta_upper
            <= ASSEMBLAGE_BRACKET_R20[1])
    assert verify_hidden_states(res.model, problem, res.eta_star) <= 1e-9
    func = res.functional
    assert func.value(problem.table_at(res.eta_upper + 1e-9)) > func.bound


@pytest.mark.parametrize("phases", [
    *(tuple(np.random.Generator(np.random.Philox(seed)).uniform(
        0.0, 2.0 * np.pi, 4)) for seed in range(3)),
    *(_ladder(m) for m in (1, 2, 3, 5, 6)),
    (0.4,) * 3,
], ids=lambda p: "m%d_%.3f" % (len(p), sum(p)))
def test_every_verdict_carries_a_certificate_that_checks(phases):
    res = experiment_critical_eta(0.2, phases, space="qubit")
    probes = {*np.linspace(0.0, 1.0, 21), res.eta_star, res.eta_upper,
              0.5 * (res.eta_star + res.eta_upper),
              np.nextafter(res.eta_upper, 2.0), res.eta_star - 1e-3,
              res.eta_upper + 1e-7}
    seen = set()
    for eta in sorted(e for e in probes if 0.0 <= e <= 1.0):
        verdict, certificate = res.verdict_at(eta)
        seen.add(verdict)
        if verdict == "feasible":
            assert eta <= res.eta_upper
            assert verify_hidden_states(certificate, res.problem, eta) <= 1e-9
        elif verdict == "infeasible":
            assert eta > res.eta_upper
            value = certificate.value(res.problem.table_at(eta))
            assert value > certificate.bound + 1e-10 * max(
                1.0, abs(value), abs(certificate.bound))
        else:
            # the certified gap, and rounding units just above it
            assert res.eta_star < eta < res.eta_upper + 1e-7
            assert certificate is None
    assert "feasible" in seen
    if res.eta_upper + 1e-7 <= 1.0:
        assert "infeasible" in seen
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


@pytest.fixture(scope="module")
def experiment_r20():
    return experiment_critical_eta(0.2, LADDER4)


def _family_threshold(r_a):
    """Efficiency at which the (s, t) family meets its full-space bound."""
    ineq = build_probability_inequality(InequalityFamily())
    lo, hi = (evaluate_steering(ineq, joint_probabilities(
        default_config(eta=eta, r_a=r_a)))[1] for eta in (0.0, 1.0))
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
    assert not res.problem.outside
    assert verify_hidden_states(res.model, res.problem, res.eta_star) <= 1e-8
    # summed per strategy, the hidden states rebuild the assemblage of the
    # state itself: sigma_{+|x} = sum_k D_k(+|x) X_k and sigma_R = sum_k X_k
    settings = [DisplacementSetting(0.2, th) for th in LADDER4]
    strat = deterministic_strategies(4).astype(float)
    for eta in (res.eta_star, 0.3):
        _, model = res.verdict_at(eta)
        assemblage = compute_assemblage(make_state(eta), settings)
        np.testing.assert_allclose(
            np.einsum('kx,kab->xab', strat, model.blocks),
            assemblage.sigma[0], atol=1e-8)
        np.testing.assert_allclose(model.blocks.sum(axis=0),
                                   assemblage.sigma_r, atol=1e-8)


def test_trusted_basis_reproduces_coherent_state_overlaps():
    basis, outside = trusted_basis(0.217)
    assert outside and basis.shape == (4, 4)
    cols = np.array([coherent_amplitudes(DisplacementSetting(0.217, th), 30)
                     for th in LADDER4]).T
    np.testing.assert_allclose(basis.conj().T @ basis, cols.conj().T @ cols,
                               atol=1e-14)
    qubit, outside = trusted_basis(0.217, space="qubit")
    assert not outside
    np.testing.assert_allclose(qubit, cols[:2], atol=1e-15)
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
    cols = np.array([coherent_amplitudes(DisplacementSetting(0.217, th),
                                         n_max) for th in LADDER4]).T
    # orthonormal frame of the span, and one state orthogonal to it
    frame = cols @ np.linalg.inv(problem.basis)
    outside = np.linalg.svd(cols.conj().T)[2][-1].conj()
    states = (np.einsum('ia,kab,jb->kij', frame, res.model.blocks,
                        frame.conj())
              + res.model.weights[:, None, None]
              * np.outer(outside, outside.conj()))
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
    probes = np.concatenate([np.einsum('ay,by->yab', basis, basis.conj()),
                             np.eye(4)[None]])
    rng = np.random.Generator(np.random.Philox(5))
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    z = z + z.conj().T
    gram = np.einsum('jab,kab->jk', probes.conj(), probes).real
    weights = np.linalg.solve(gram, np.einsum('jab,ab->j', probes.conj(),
                                              z).real)
    hidden = z - np.einsum('j,jab->ab', weights, probes)
    assert np.abs(np.einsum('jba,ab->j', probes, hidden)).max() < 1e-12
    blocks = res.model.blocks.copy()
    blocks[3] += 0.1 * hidden / np.abs(hidden).max()
    bad = HiddenStateModel(blocks=blocks, weights=res.model.weights)
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
    assert lhs_bound(coefficients, fock.basis, fock.outside) == 0.0
    projs = np.einsum('ay,by->ab', qubit.basis, qubit.basis.conj())
    assert lhs_bound(coefficients, qubit.basis,
                     qubit.outside) == pytest.approx(
        -np.linalg.eigvalsh(projs)[0], abs=1e-12)
