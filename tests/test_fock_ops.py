"""Tests for coherent-state projectors and the Pauli resolution."""

import math

import numpy as np
import pytest

from steering_lab.errors import SingularDecompositionError, ValidationError
from steering_lab.fock_ops import (RESOLUTION_PHASES, coherent_amplitudes,
                                   coherent_tail, hermitize, pauli_resolution,
                                   projector_full, projector_qubit)

PAULIS = (np.array([[0.0, 1.0], [1.0, 0.0]]),
          np.array([[0.0, -1.0j], [1.0j, 0.0]]),
          np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_coherent_amplitudes_match_poisson_weights():
    amps = coherent_amplitudes(0.37, 1.1, 12)
    weights = np.abs(amps) ** 2
    expect = np.exp(-0.37 ** 2) * (0.37 ** (2 * np.arange(13))
                                   / [math.factorial(n) for n in range(13)])
    np.testing.assert_allclose(weights, expect, atol=1e-15)
    # phases wind linearly with the number index
    np.testing.assert_allclose(np.angle(amps[1:4] / amps[0:3]),
                               [1.1, 1.1, 1.1], atol=1e-12)
    with pytest.raises(ValidationError, match="n_max"):
        coherent_amplitudes(0.37, 1.1, 0)


def test_tail_complements_truncated_norm():
    for r in (0.1, 0.3, 0.8):
        amps = coherent_amplitudes(r, 0.4, 9)
        tail = coherent_tail(r, 9)
        assert abs((np.abs(amps) ** 2).sum() + tail - 1.0) < 1e-14


def test_qubit_projector_is_truncated_full_projector():
    full = projector_full(0.217, 0.9, 8)
    np.testing.assert_allclose(projector_qubit(0.217, 0.9), full[:2, :2],
                               atol=1e-15)
    # rank one and consistent trace
    w = np.linalg.eigvalsh(full)
    assert abs(w[-1] - 1.0) < 1e-12 and abs(w[:-1]).max() < 1e-12


def test_kernels_broadcast_to_their_one_point_values():
    # a stacked build must equal, bit for bit, the one-point builds
    r = np.array([[0.0], [0.217], [0.6]])
    theta = np.array([0.0, 0.9, 4.0, 6.2])
    amps = coherent_amplitudes(r, theta, 7)
    full = projector_full(r, theta, 7)
    qubit = projector_qubit(r, theta)
    assert amps.shape == (3, 4, 8)
    assert full.shape == (3, 4, 8, 8) and qubit.shape == (3, 4, 2, 2)
    for i, j in np.ndindex(3, 4):
        one = (float(r[i, 0]), float(theta[j]))
        np.testing.assert_array_equal(amps[i, j],
                                      coherent_amplitudes(*one, 7))
        np.testing.assert_array_equal(full[i, j], projector_full(*one, 7))
        np.testing.assert_array_equal(qubit[i, j], projector_qubit(*one))


def test_hermitize_accepts_noise_and_rejects_structure():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T)
    # a stack is symmetrized matrix by matrix
    np.testing.assert_array_equal(hermitize(np.stack([a, a.T]))[0], h)
    with pytest.raises(ValidationError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-10)


def test_pauli_resolution_against_direct_projector_sums():
    # independent route: combine the four projectors explicitly
    for r in (0.05, 0.217, 0.6, 0.95):
        on_projectors, on_identity = pauli_resolution(r)
        projs = [projector_qubit(r, th) for th in RESOLUTION_PHASES]
        for pauli, row, extra in zip(PAULIS, on_projectors, on_identity):
            combo = sum(c * p for c, p in zip(row, projs)) + extra * np.eye(2)
            np.testing.assert_allclose(combo, pauli, atol=1e-11)


def test_pauli_resolution_singular_amplitudes():
    for r in (0.0, 1.0, 1.3):
        with pytest.raises(SingularDecompositionError):
            pauli_resolution(r)
