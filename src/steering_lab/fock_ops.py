"""Operator algebra on the 0-1 photon subspace and truncated Fock space.

Everything here is dense complex numpy: the relevant dimensions are 2x2 for
the qubit restriction and at most ~25x25 for truncated photon-number space,
so closed forms and exact eigen-solvers are the right tools.

Displacement measurements are parameterized by alpha = r * exp(i*theta). The
no-click outcome of an unbalanced-homodyne detector corresponds to the
coherent-state projector |alpha><alpha|; its restriction to the 0-1 photon
subspace is the 2x2 matrix

    [[e^{-r^2},        e^{-r^2} r e^{-i theta}],
     [e^{-r^2} r e^{i theta},  e^{-r^2} r^2   ]]

The convention throughout the package: outcome +1 means no click.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import SingularResolutionError, ValidationError

TWO_PI = 2.0 * math.pi

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENT2 = np.eye(2, dtype=complex)

# The four local-oscillator phases over which the Pauli resolution is taken.
RESOLUTION_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)


@dataclass(frozen=True)
class DisplacementSetting:
    """A finite amplitude r >= 0 and a finite phase, stored reduced to [0, 2*pi)."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValidationError(
                f"displacement amplitude must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValidationError(
                f"displacement phase must be finite, got {self.theta}")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "r", float(self.r))

    @property
    def alpha(self):
        return self.r * np.exp(1j * self.theta)


def hermitize(a, tol=1e-10):
    """Symmetrize (A + A^dag)/2 after checking A was already nearly Hermitian.

    Arithmetic chains accumulate rounding drift in the anti-Hermitian part;
    symmetrizing keeps eigen-solvers honest. A genuine asymmetry above tol is
    a logic error upstream, not drift, so it raises instead of being hidden.
    """
    a = np.asarray(a, dtype=complex)
    asym = np.abs(a - a.conj().T).max()
    if asym > tol:
        raise ValidationError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    return 0.5 * (a + a.conj().T)


def _factorial_table(n_max):
    """n! for n = 0..n_max by cumulative product (exact in float at this scale)."""
    t = np.ones(n_max + 1)
    t[1:] = np.cumprod(np.arange(1.0, n_max + 1))
    return t


def coherent_amplitudes(alpha: DisplacementSetting, n_max: int):
    """Photon-number components of |alpha> up to n_max.

    Component n is e^{-r^2/2} r^n e^{i n theta} / sqrt(n!). The squared norm
    falls short of 1 by the Poisson tail beyond the cutoff.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(n_max + 1)
    fact = _factorial_table(n_max)
    amps = math.exp(-0.5 * alpha.r**2) * alpha.r**n / np.sqrt(fact)
    return amps * np.exp(1j * alpha.theta * n)


def coherent_tail(r, n_max):
    """Poisson-tail weight sum_{n > n_max} e^{-r^2} r^{2n} / n!."""
    n = np.arange(n_max + 1)
    head = np.exp(-r * r) * r ** (2 * n) / _factorial_table(n_max)
    return max(0.0, 1.0 - head.sum())


def projector_full(alpha: DisplacementSetting, n_max: int):
    """|alpha><alpha| in the truncated photon-number space (rank 1, PSD)."""
    v = coherent_amplitudes(alpha, n_max)
    return np.outer(v, v.conj())


def projector_qubit(alpha: DisplacementSetting):
    """No-click operator restricted to the 0-1 photon subspace (rank 1)."""
    r, th = alpha.r, alpha.theta
    e = math.exp(-r * r)
    off = e * r * np.exp(-1j * th)
    return np.array([[e, off], [np.conj(off), e * r * r]], dtype=complex)


def observable(alpha: DisplacementSetting, n_max=None):
    """Click/no-click observable 2*Pi - identity.

    Qubit space when n_max is None, truncated Fock space otherwise.
    """
    if n_max is None:
        return 2.0 * projector_qubit(alpha) - IDENT2
    return 2.0 * projector_full(alpha, n_max) - np.eye(n_max + 1, dtype=complex)


@dataclass(frozen=True)
class PauliResolution:
    """Coefficients expressing X, Y, Z over four no-click projectors + identity.

    on_projectors[k, y] multiplies the projector at amplitude r and phase
    RESOLUTION_PHASES[y]; on_identity[k] multiplies the 2x2 identity. Row
    order is (X, Y, Z).
    """

    r: float
    on_projectors: np.ndarray = field(repr=False)
    on_identity: np.ndarray = field(repr=False)

    def reconstruct(self):
        """Rebuild the three Pauli matrices from the coefficients."""
        projs = [projector_qubit(DisplacementSetting(self.r, th))
                 for th in RESOLUTION_PHASES]
        out = []
        for k in range(3):
            acc = self.on_identity[k] * IDENT2
            for y in range(4):
                acc = acc + self.on_projectors[k, y] * projs[y]
            out.append(acc)
        return out


def pauli_resolution(r):
    """Resolve the Pauli matrices over no-click projectors at phases 0..3pi/2.

    X and Y come from phase-opposed projector differences scaled by
    e^{r^2}/(2r); Z uses the phase-0 and phase-pi projectors plus an identity
    term with denominator 1 - r^2. Singular at r = 0 and for r >= 1.
    """
    if r <= 0.0:
        raise SingularResolutionError("resolution needs r > 0 (X, Y scale as 1/r)")
    if r >= 1.0:
        raise SingularResolutionError(
            f"resolution needs r < 1 (Z denominator 1 - r^2 vanishes), got r={r}")
    k = math.exp(r * r) / (2.0 * r)
    kz = math.exp(r * r) / (1.0 - r * r)
    z0 = (r * r + 1.0) / (r * r - 1.0)
    on_proj = np.array([
        [k, 0.0, -k, 0.0],
        [0.0, k, 0.0, -k],
        [kz, 0.0, kz, 0.0],
    ])
    on_id = np.array([0.0, 0.0, z0])
    return PauliResolution(r=float(r), on_projectors=on_proj, on_identity=on_id)
