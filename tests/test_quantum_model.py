"""Tests for the analytic model, the assemblage map, and the Fock oracle."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from steering_lab.errors import CutoffError, ValidationError
from steering_lab.fock_ops import DisplacementSetting
from steering_lab.inequality import InequalityFamily
from steering_lab.quantum_model import (ModelConfig, compute_assemblage,
                                        default_config, format_sweep,
                                        format_table, joint_probabilities,
                                        make_state, oracle_probabilities,
                                        phase_sweep, side_povm,
                                        theoretical_delta_S, _displacement,
                                        _lowering)

# Frozen model outputs at the default configuration (hand-checked against the
# closed form below and the Fock-space oracle).
P_PP_00 = 0.4812979649466836
P_PM_00 = 0.23296847785544766
DELTA_S_V097 = 0.0020501457680013324
DELTA_S_V1 = 0.002953518415892198


def _cell_closed_form(eta, v, r_a, r_b, delta):
    """No-click/no-click probability for phase difference delta, by hand.

    Expanding tr[rho (Pi_A x Pi_B)] over the basis (|00>, |01>, |10>, |11>)
    with Pi entries Pi_00 = e^{-r^2}, Pi_11 = r^2 e^{-r^2}, |Pi_01| = r e^{-r^2}
    gives the closed form below; the visibility multiplies only the
    interference term.
    """
    damp = math.exp(-(r_a ** 2 + r_b ** 2))
    cross = r_a ** 2 + r_b ** 2 + 2.0 * v * r_a * r_b * math.cos(delta)
    return damp * ((1.0 - eta) + 0.5 * eta * cross)


def test_make_state_shape_trace_and_visibility():
    rho = make_state(0.52, 0.9)
    assert rho.shape == (4, 4)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    assert rho[1, 2] == pytest.approx(0.5 * 0.52 * 0.9)
    assert rho[1, 1] == pytest.approx(0.26)
    assert rho[0, 0] == pytest.approx(0.48)
    np.testing.assert_allclose(make_state(0.0), np.diag([1, 0, 0, 0.0]))
    with pytest.raises(ValidationError):
        make_state(1.2)
    with pytest.raises(ValidationError):
        make_state(0.5, -0.1)


def test_model_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(eta=-0.1)
    with pytest.raises(ValidationError):
        ModelConfig(visibility=1.5)
    with pytest.raises(ValidationError):
        ModelConfig(r_a=-0.2)
    with pytest.raises(ValidationError):
        ModelConfig(bob_phases=(0.0, 1.0))
    for bad in (dict(r_a=np.inf), dict(r_b=np.nan),
                dict(alice_phases=(0.0, np.inf)),
                dict(bob_phases=(0.0, 1.0, np.nan, 2.0))):
        with pytest.raises(ValidationError):
            ModelConfig(**bad)
    assert ModelConfig(alice_phases=(0.0, 1.0, 2.0)).m == 3


def test_side_povm_completeness():
    plus, minus = side_povm(DisplacementSetting(0.3, 1.1))
    np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-15)
    assert np.linalg.eigvalsh(plus).min() >= -1e-15
    assert np.linalg.eigvalsh(minus).min() >= -1e-15


def _assemblage_by_loops(state, settings):
    """Literal partial trace over the untrusted mode, element by element."""
    out = np.empty((2, len(settings), 2, 2), dtype=complex)
    for x, setting in enumerate(settings):
        for a, povm in enumerate(side_povm(setting)):
            for i in range(2):
                for j in range(2):
                    acc = 0.0
                    for k in range(2):
                        for l in range(2):
                            acc += povm[l, k] * state[2 * k + i, 2 * l + j]
                    out[a, x, i, j] = acc
    return out


def test_assemblage_matches_literal_partial_trace():
    settings = [DisplacementSetting(0.233, th)
                for th in (0.0, 0.7, 2.0, 4.4)]
    state = make_state(0.52, 0.93)
    asm = compute_assemblage(state, settings)
    np.testing.assert_allclose(asm.sigma,
                               _assemblage_by_loops(state, settings),
                               atol=1e-13)
    assert asm.m == 4
    # no-signalling: outcome sums are the setting-independent reduced state
    for x in range(4):
        np.testing.assert_allclose(asm.sigma[0, x] + asm.sigma[1, x],
                                   asm.sigma_r, atol=1e-13)
    assert np.trace(asm.sigma_r).real == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        compute_assemblage(np.eye(3), settings)


def test_joint_probabilities_match_closed_form():
    cfg = default_config(visibility=0.97)
    table = joint_probabilities(cfg)
    assert table.probs.shape == (2, 2, 4, 4)
    np.testing.assert_allclose(table.probs.sum(axis=(0, 1)), 1.0, atol=1e-12)
    for x in range(4):
        for y in range(4):
            want = _cell_closed_form(cfg.eta, cfg.visibility, cfg.r_a,
                                     cfg.r_b,
                                     cfg.alice_phases[x] - cfg.bob_phases[y])
            assert table.probs[0, 0, x, y] == pytest.approx(want, abs=1e-12)


def test_joint_probabilities_frozen_cell():
    table = joint_probabilities(default_config())
    assert table.probs[0, 0, 0, 0] == pytest.approx(P_PP_00, abs=1e-12)
    assert table.probs[0, 1, 0, 0] == pytest.approx(P_PM_00, abs=1e-12)


def test_marginals_do_not_signal():
    table = joint_probabilities(default_config(visibility=0.9))
    p = table.probs
    alice_marg = p.sum(axis=1)  # [a, x, y]
    bob_marg = p.sum(axis=0)    # [b, x, y]
    assert np.abs(alice_marg - alice_marg[:, :, :1]).max() < 1e-12
    assert np.abs(bob_marg - bob_marg[:, :1, :]).max() < 1e-12


def test_phase_sweep_is_an_exact_cosine_peaking_at_zero():
    cfg = default_config()
    phases = np.linspace(0.0, 2.0 * np.pi, 73)
    sweep = phase_sweep(cfg, phases)
    assert sweep.probs.shape == (73, 4)
    assert int(np.argmax(sweep.probs[:, 0])) in (0, 72)
    design = np.column_stack([np.ones_like(phases), np.cos(phases),
                              np.sin(phases)])
    for col in range(4):
        coef, *_ = np.linalg.lstsq(design, sweep.probs[:, col], rcond=None)
        resid = np.abs(design @ coef - sweep.probs[:, col]).max()
        assert resid < 1e-13
    want = [_cell_closed_form(cfg.eta, 1.0, cfg.r_a, cfg.r_b, ph)
            for ph in phases]
    np.testing.assert_allclose(sweep.probs[:, 0], want, atol=1e-12)
    with pytest.raises(ValidationError):
        phase_sweep(cfg, [])


def test_theoretical_margin_frozen_values():
    fam = InequalityFamily()
    assert theoretical_delta_S(default_config(visibility=0.97), fam) == \
        pytest.approx(DELTA_S_V097, abs=1e-12)
    assert theoretical_delta_S(default_config(), fam) == \
        pytest.approx(DELTA_S_V1, abs=1e-12)


def test_theoretical_margin_requires_matching_family():
    fam = InequalityFamily()
    with pytest.raises(ValidationError):
        theoretical_delta_S(default_config(r_b=0.2), fam)
    with pytest.raises(ValidationError):
        theoretical_delta_S(
            default_config(alice_phases=(0.1, 1.0, 2.0, 3.0)), fam)
    with pytest.raises(ValidationError):
        theoretical_delta_S(
            default_config(bob_phases=(0.1, 0.5 * np.pi, np.pi,
                                       1.5 * np.pi)), fam)


def test_oracle_agrees_with_analytic_model():
    for cfg in (default_config(),
                default_config(eta=1.0, visibility=0.9),
                default_config(eta=0.3, r_a=0.15, r_b=0.28,
                               alice_phases=(0.2, 1.3, 3.0, 5.1))):
        got = oracle_probabilities(cfg).probs
        want = joint_probabilities(cfg).probs
        assert np.abs(got - want).max() < 1e-6


_PHASE = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=20, deadline=None)
@given(eta=st.floats(0.0, 1.0), r_a=st.floats(0.0, 0.9),
       r_b=st.floats(0.0, 0.9), visibility=st.floats(0.0, 1.0),
       alice=st.lists(_PHASE, min_size=1, max_size=4),
       bob=st.lists(_PHASE, min_size=4, max_size=4))
def test_oracle_matches_the_analytic_table_over_the_parameter_box(
        eta, r_a, r_b, visibility, alice, bob):
    cfg = ModelConfig(eta=eta, r_a=r_a, r_b=r_b, visibility=visibility,
                      alice_phases=tuple(alice), bob_phases=tuple(bob))
    want = joint_probabilities(cfg).probs
    got = oracle_probabilities(cfg).probs
    assert np.abs(got - want).max() < 1e-6
    for p in (want, got):
        np.testing.assert_allclose(p.sum(axis=(0, 1)), 1.0, atol=1e-9)
        # no signalling: each side's marginal ignores the other's setting
        alice_marginal = p.sum(axis=1)          # [a, x, y]
        bob_marginal = p.sum(axis=0)            # [b, x, y]
        assert np.ptp(alice_marginal, axis=2).max() < 1e-12
        assert np.ptp(bob_marginal, axis=1).max() < 1e-12


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.0, 0.95), theta=_PHASE, n_max=st.integers(6, 24))
def test_displacement_matches_the_matrix_exponential(r, theta, n_max):
    # scipy is the reference here only; the package builds U by eigh
    from scipy.linalg import expm

    alpha = r * np.exp(1j * theta)
    a = _lowering(n_max + 1)
    u = _displacement(alpha, n_max)
    assert np.abs(u - expm(-alpha * a.T + np.conj(alpha) * a)).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(n_max + 1)).max() < 1e-12


def test_oracle_cutoff_guards():
    with pytest.raises(ValidationError):
        oracle_probabilities(default_config(), n_max=4)
    with pytest.raises(CutoffError):
        oracle_probabilities(default_config(r_a=0.9), n_max=6)


def test_text_formats():
    cfg = default_config()
    table_text = format_table(joint_probabilities(cfg), cfg)
    lines = table_text.strip().splitlines()
    assert len(lines) == 2 + 16
    assert lines[0].startswith("# eta=")
    row = lines[2].split()
    assert row[:2] == ["1", "1"]
    assert float(row[2]) == pytest.approx(P_PP_00, abs=1e-11)
    sweep_text = format_sweep(phase_sweep(cfg, [0.0, 1.0]), cfg)
    assert len(sweep_text.strip().splitlines()) == 4
