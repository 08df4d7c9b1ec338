"""Tests for the analytic model, the assemblage map, and the Fock oracle."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from steering_lab import quantum_model
from steering_lab.analysis import extract_setting_table, fit_cosine
from steering_lab.errors import CutoffError, ValidationError
from steering_lab.fock_ops import RESOLUTION_PHASES, TWO_PI
from steering_lab.inequality import (InequalityFamily,
                                     build_probability_inequality,
                                     evaluate_steering)
from steering_lab.quantum_model import (ModelConfig, compute_assemblage,
                                        format_sweep, format_table,
                                        joint_probabilities, make_state,
                                        oracle_probabilities, phase_sweep,
                                        side_povm, theoretical_delta_S,
                                        _displacement, _lowering)

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
    for bad in (dict(r_a=np.inf), dict(r_b=np.nan),
                dict(alice_phases=(0.0, np.inf))):
        with pytest.raises(ValidationError):
            ModelConfig(**bad)
    assert ModelConfig(alice_phases=(0.0, 1.0, 2.0)).m == 3


def test_side_povm_completeness():
    plus, minus = side_povm(0.3, 1.1)
    np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-15)
    assert np.linalg.eigvalsh(plus).min() >= -1e-15
    assert np.linalg.eigvalsh(minus).min() >= -1e-15


def _assemblage_by_loops(state, r, phases):
    """Literal partial trace over the untrusted mode, element by element."""
    out = np.empty((2, len(phases), 2, 2), dtype=complex)
    for x, phase in enumerate(phases):
        for a, povm in enumerate(side_povm(r, phase)):
            for i in range(2):
                for j in range(2):
                    acc = 0.0
                    for k in range(2):
                        for l in range(2):
                            acc += povm[l, k] * state[2 * k + i, 2 * l + j]
                    out[a, x, i, j] = acc
    return out


def test_assemblage_matches_literal_partial_trace():
    phases = (0.0, 0.7, 2.0, 4.4)
    state = make_state(0.52, 0.93)
    sigma = compute_assemblage(state, 0.233, phases)
    np.testing.assert_allclose(sigma,
                               _assemblage_by_loops(state, 0.233, phases),
                               atol=1e-13)
    assert sigma.shape == (2, 4, 2, 2)
    # no-signalling: outcome sums are the setting-independent reduced state
    for x in range(4):
        np.testing.assert_allclose(sigma[0, x] + sigma[1, x],
                                   sigma.sum(axis=0)[0], atol=1e-13)
    assert np.trace(sigma.sum(axis=0)[0]).real == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        compute_assemblage(np.eye(3), 0.233, phases)
    # the untrusted setting is checked and reduced as a ModelConfig's
    for r, bad in ((-0.1, phases), (math.inf, phases), (math.nan, phases),
                   (0.233, (0.0, math.inf)), (0.233, (math.nan,))):
        with pytest.raises(ValidationError):
            compute_assemblage(state, r, bad)
    turned = compute_assemblage(state, 0.233, [p + TWO_PI for p in phases])
    np.testing.assert_allclose(turned, sigma, atol=1e-15)


def test_joint_probabilities_match_closed_form():
    cfg = ModelConfig(visibility=0.97)
    table = joint_probabilities(cfg)
    assert table.shape == (2, 2, 4, 4)
    np.testing.assert_allclose(table.sum(axis=(0, 1)), 1.0, atol=1e-12)
    for x in range(4):
        for y in range(4):
            want = _cell_closed_form(cfg.eta, cfg.visibility, cfg.r_a,
                                     cfg.r_b,
                                     cfg.alice_phases[x]
                                     - RESOLUTION_PHASES[y])
            assert table[0, 0, x, y] == pytest.approx(want, abs=1e-12)


def test_joint_probabilities_frozen_cell():
    table = joint_probabilities(ModelConfig())
    assert table[0, 0, 0, 0] == pytest.approx(P_PP_00, abs=1e-12)
    assert table[0, 1, 0, 0] == pytest.approx(P_PM_00, abs=1e-12)


def _extracted_table(phases):
    sweep_phases = np.linspace(0.0, TWO_PI, 73)
    fit = fit_cosine(sweep_phases, phase_sweep(ModelConfig(), sweep_phases))
    return extract_setting_table(fit, phases)


_OFF_LADDER5 = (0.3, 2.0, 4.1, 5.0, 1.1)


@pytest.mark.parametrize("table_of, phases", [
    (lambda p: joint_probabilities(ModelConfig(alice_phases=p)),
     _OFF_LADDER5),
    (lambda p: oracle_probabilities(ModelConfig(alice_phases=p)),
     _OFF_LADDER5),
    (_extracted_table, RESOLUTION_PHASES)],
    ids=["joint", "oracle", "extracted"])
def test_every_click_table_is_one_float_array(table_of, phases):
    # one table format: p[a, b, x, y] with shape (2, 2, m, 4)
    probs = table_of(phases)
    assert type(probs) is np.ndarray and probs.dtype == np.float64
    assert probs.shape == (2, 2, len(phases), 4)
    np.testing.assert_allclose(probs.sum(axis=(0, 1)), 1.0, atol=1e-9)
    ineq = build_probability_inequality(
        InequalityFamily(m=len(phases), alice_phases=phases))
    s_value, delta_s = evaluate_steering(ineq, probs)
    assert math.isfinite(s_value) and delta_s == s_value - ineq.s_max


def test_marginals_do_not_signal():
    p = joint_probabilities(ModelConfig(visibility=0.9))
    alice_marg = p.sum(axis=1)  # [a, x, y]
    bob_marg = p.sum(axis=0)    # [b, x, y]
    assert np.abs(alice_marg - alice_marg[:, :, :1]).max() < 1e-12
    assert np.abs(bob_marg - bob_marg[:, :1, :]).max() < 1e-12


def test_phase_sweep_is_an_exact_cosine_peaking_at_zero():
    cfg = ModelConfig()
    phases = np.linspace(0.0, 2.0 * np.pi, 73)
    sweep = phase_sweep(cfg, phases)
    assert sweep.shape == (73, 4)
    assert int(np.argmax(sweep[:, 0])) in (0, 72)
    design = np.column_stack([np.ones_like(phases), np.cos(phases),
                              np.sin(phases)])
    for col in range(4):
        coef, *_ = np.linalg.lstsq(design, sweep[:, col], rcond=None)
        resid = np.abs(design @ coef - sweep[:, col]).max()
        assert resid < 1e-13
    want = [_cell_closed_form(cfg.eta, 1.0, cfg.r_a, cfg.r_b, ph)
            for ph in phases]
    np.testing.assert_allclose(sweep[:, 0], want, atol=1e-12)
    with pytest.raises(ValidationError):
        phase_sweep(cfg, [])


def test_phase_sweep_is_column_zero_of_the_joint_table():
    # both come from one click-table kernel: equal bit for bit
    cfg = ModelConfig(eta=0.61, r_a=0.3, r_b=0.25, visibility=0.9,
                      alice_phases=(0.0, 0.4, 2.5, 5.9, 3.1))
    sweep = phase_sweep(cfg, cfg.alice_phases)
    probs = joint_probabilities(cfg)
    np.testing.assert_array_equal(sweep, np.stack(
        [probs[a, b, :, 0] for a in range(2) for b in range(2)], axis=-1))
    # phases enter the projectors reduced mod 2 pi, as a ModelConfig's do
    # (unreduced, dozens of these rows move in the last bit)
    wide = np.linspace(-50.0, 50.0, 201)
    turned = phase_sweep(cfg, wide)
    np.testing.assert_array_equal(turned,
                                  phase_sweep(cfg, wide % TWO_PI))


def test_phase_sweep_checks_its_table_as_the_joint_table_is(monkeypatch):
    click_table = quantum_model._click_table

    def heavy(*args):
        probs = click_table(*args)
        probs[0, 0] += 1e-6     # every cell now sums to 1 + 1e-6
        return probs

    monkeypatch.setattr(quantum_model, "_click_table", heavy)
    with pytest.raises(ValidationError,
                       match="outcome probabilities do not sum to 1"):
        phase_sweep(ModelConfig(), [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_phase_sweep_rejects_a_non_finite_phase(bad):
    with pytest.raises(ValidationError, match="finite"):
        phase_sweep(ModelConfig(), [0.0, 1.0, bad])


def test_theoretical_margin_frozen_values():
    fam = InequalityFamily()
    assert theoretical_delta_S(ModelConfig(visibility=0.97), fam) == \
        pytest.approx(DELTA_S_V097, abs=1e-12)
    assert theoretical_delta_S(ModelConfig(), fam) == \
        pytest.approx(DELTA_S_V1, abs=1e-12)


def test_theoretical_margin_requires_matching_family():
    fam = InequalityFamily()
    with pytest.raises(ValidationError):
        theoretical_delta_S(ModelConfig(r_b=0.2), fam)
    with pytest.raises(ValidationError):
        theoretical_delta_S(
            ModelConfig(alice_phases=(0.1, 1.0, 2.0, 3.0)), fam)


def test_oracle_agrees_with_analytic_model():
    for cfg in (ModelConfig(),
                ModelConfig(eta=1.0, visibility=0.9),
                ModelConfig(eta=0.3, r_a=0.15, r_b=0.28,
                               alice_phases=(0.2, 1.3, 3.0, 5.1))):
        got = oracle_probabilities(cfg)
        want = joint_probabilities(cfg)
        assert np.abs(got - want).max() < 1e-6


_PHASE = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=20, deadline=None)
@given(eta=st.floats(0.0, 1.0), r_a=st.floats(0.0, 0.9),
       r_b=st.floats(0.0, 0.9), visibility=st.floats(0.0, 1.0),
       alice=st.lists(_PHASE, min_size=1, max_size=4))
def test_oracle_matches_the_analytic_table_over_the_parameter_box(
        eta, r_a, r_b, visibility, alice):
    cfg = ModelConfig(eta=eta, r_a=r_a, r_b=r_b, visibility=visibility,
                      alice_phases=tuple(alice))
    want = joint_probabilities(cfg)
    got = oracle_probabilities(cfg)
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
    # the Poisson tail past the fixed cutoff of 10 is about 4e-7 at 1.2
    with pytest.raises(CutoffError, match="cutoff 10 too small"):
        oracle_probabilities(ModelConfig(r_a=1.2))


def test_text_formats():
    cfg = ModelConfig()
    table_text = format_table(joint_probabilities(cfg), cfg)
    lines = table_text.strip().splitlines()
    assert len(lines) == 2 + 16
    assert lines[0].startswith("# eta=")
    row = lines[2].split()
    assert row[:2] == ["1", "1"]
    assert float(row[2]) == pytest.approx(P_PP_00, abs=1e-11)
    sweep_text = format_sweep([0.0, 1.0], phase_sweep(cfg, [0.0, 1.0]), cfg)
    assert len(sweep_text.strip().splitlines()) == 4
