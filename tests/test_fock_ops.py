"""Tests for coherent-state projectors and the Pauli resolution."""

import math

import numpy as np
import pytest

from steering_lab.errors import SingularResolutionError, ValidationError
from steering_lab.fock_ops import (DisplacementSetting, PAULI_X, PAULI_Y,
                                   PAULI_Z, RESOLUTION_PHASES,
                                   coherent_amplitudes, coherent_tail,
                                   hermitize, pauli_resolution,
                                   projector_full, projector_qubit)


def test_setting_validation_and_normalization():
    for r, theta in ((-0.1, 0.0), (math.inf, 0.0), (math.nan, 0.0),
                     (0.2, math.inf), (0.2, math.nan)):
        with pytest.raises(ValidationError):
            DisplacementSetting(r, theta)
    s = DisplacementSetting(0.2, 2.0 * math.pi + 0.3)
    assert abs(s.theta - 0.3) < 1e-12
    assert abs(s.alpha - 0.2 * np.exp(0.3j)) < 1e-12


def test_coherent_amplitudes_match_poisson_weights():
    s = DisplacementSetting(0.37, 1.1)
    amps = coherent_amplitudes(s, 12)
    weights = np.abs(amps) ** 2
    expect = np.exp(-0.37 ** 2) * (0.37 ** (2 * np.arange(13))
                                   / [math.factorial(n) for n in range(13)])
    np.testing.assert_allclose(weights, expect, atol=1e-15)
    # phases wind linearly with the number index
    np.testing.assert_allclose(np.angle(amps[1:4] / amps[0:3]),
                               [1.1, 1.1, 1.1], atol=1e-12)


def test_tail_complements_truncated_norm():
    for r in (0.1, 0.3, 0.8):
        amps = coherent_amplitudes(DisplacementSetting(r, 0.4), 9)
        tail = coherent_tail(r, 9)
        assert abs((np.abs(amps) ** 2).sum() + tail - 1.0) < 1e-14


def test_qubit_projector_is_truncated_full_projector():
    s = DisplacementSetting(0.217, 0.9)
    full = projector_full(s, 8)
    np.testing.assert_allclose(projector_qubit(s), full[:2, :2], atol=1e-15)
    # rank one and consistent trace
    w = np.linalg.eigvalsh(full)
    assert abs(w[-1] - 1.0) < 1e-12 and abs(w[:-1]).max() < 1e-12


def test_hermitize_accepts_noise_and_rejects_structure():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T)
    with pytest.raises(ValidationError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-10)


def test_pauli_resolution_reconstructs_all_three_paulis():
    for r in (0.05, 0.217, 0.6, 0.95):
        res = pauli_resolution(r)
        rx, ry, rz = res.reconstruct()
        np.testing.assert_allclose(rx, PAULI_X, atol=1e-11)
        np.testing.assert_allclose(ry, PAULI_Y, atol=1e-11)
        np.testing.assert_allclose(rz, PAULI_Z, atol=1e-11)


def test_pauli_resolution_against_direct_projector_sums():
    # independent route: combine the four projectors explicitly
    r = 0.217
    res = pauli_resolution(r)
    projs = [projector_qubit(DisplacementSetting(r, th))
             for th in RESOLUTION_PHASES]
    for pauli, row, extra in zip((PAULI_X, PAULI_Y, PAULI_Z),
                                 res.on_projectors, res.on_identity):
        combo = sum(c * p for c, p in zip(row, projs)) + extra * np.eye(2)
        np.testing.assert_allclose(combo, pauli, atol=1e-11)


def test_pauli_resolution_singular_amplitudes():
    for r in (0.0, 1.0, 1.3):
        with pytest.raises(SingularResolutionError):
            pauli_resolution(r)
