"""Analytic model of the experiment and an independent brute-force oracle.

A heralded single photon is delocalized over two spatial modes; with overall
transmission-and-detection efficiency eta the shared state on the 0-1 photon
subspace of modes (A, B) is

    rho(eta) = eta * |Psi><Psi| + (1 - eta) * |00><00|,
    |Psi> = (|01> + |10>) / sqrt(2),

optionally with the |01><10| coherences damped by a visibility factor v.
Both sides measure by displacing their mode and checking a non-number-
resolving detector; outcome +1 is no click. The analytic path works entirely
on the 0-1 subspace; oracle_probabilities re-simulates the whole chain in
truncated photon-number space (splitting, loss as a beamsplitter before the
displacement, exact displacement by eigendecomposition) and must agree.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import CutoffError, ValidationError
from .fock_ops import (RESOLUTION_PHASES, TWO_PI, DisplacementSetting,
                       coherent_tail, hermitize, projector_qubit)
from .inequality import (DEFAULT_R_B, InequalityFamily,
                         build_probability_inequality, default_alice_phases,
                         evaluate_steering)

DEFAULT_ETA = 0.52
DEFAULT_R_A = 0.233


@dataclass(frozen=True)
class ModelConfig:
    """Experiment parameters; phases default to the equally spaced ladder."""

    eta: float = DEFAULT_ETA
    r_a: float = DEFAULT_R_A
    r_b: float = DEFAULT_R_B
    alice_phases: tuple = RESOLUTION_PHASES
    bob_phases: tuple = RESOLUTION_PHASES
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValidationError(
                f"visibility must be in [0, 1], got {self.visibility}")
        if not all(r >= 0 and math.isfinite(r) for r in (self.r_a, self.r_b)):
            raise ValidationError(
                f"amplitudes must be finite and >= 0, got r_a={self.r_a}, "
                f"r_b={self.r_b}")
        alice = tuple(float(p) for p in self.alice_phases)
        bob = tuple(float(p) for p in self.bob_phases)
        if not all(map(math.isfinite, alice + bob)):
            raise ValidationError("phases must be finite")
        alice = tuple(p % TWO_PI for p in alice)
        if len(alice) < 1:
            raise ValidationError("need at least one untrusted-side phase")
        bob = tuple(p % TWO_PI for p in bob)
        if len(bob) != 4:
            raise ValidationError(
                f"bob_phases needs exactly 4 entries, got {len(bob)}")
        object.__setattr__(self, "alice_phases", alice)
        object.__setattr__(self, "bob_phases", bob)

    @property
    def m(self):
        return len(self.alice_phases)


def make_state(eta, visibility=1.0):
    """Two-mode 0-1 subspace density matrix on basis (|00>, |01>, |10>, |11>).

    eta weights the shared single photon against vacuum; visibility damps
    the |01><10| coherences only.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must be in [0, 1], got {eta}")
    if not 0.0 <= visibility <= 1.0:
        raise ValidationError(f"visibility must be in [0, 1], got {visibility}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - eta
    rho[1, 1] = 0.5 * eta
    rho[2, 2] = 0.5 * eta
    rho[1, 2] = 0.5 * eta * visibility
    rho[2, 1] = 0.5 * eta * visibility
    return rho


def side_povm(setting: DisplacementSetting):
    """Binary POVM of one side: (no-click element, click element)."""
    plus = projector_qubit(setting)
    return plus, np.eye(2, dtype=complex) - plus


@dataclass(frozen=True)
class Assemblage:
    """Unnormalized conditional states of the trusted side.

    sigma[a, x] is the 2x2 operator for outcome index a (0 = no click) and
    setting x; sigma_r is the setting-independent reduced state.
    """

    sigma: np.ndarray = field(repr=False)
    sigma_r: np.ndarray = field(repr=False)

    @property
    def m(self):
        return self.sigma.shape[1]


def compute_assemblage(state, alice_settings):
    """Conditional trusted-side states for each untrusted outcome and setting.

    Traces the untrusted mode out of (POVM x identity) * state. Verifies the
    no-signalling structure: the outcome sum is setting-independent and is
    returned as sigma_r (trace 1).
    """
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"state must be 4x4, got {rho.shape}")
    rho4 = rho.reshape(2, 2, 2, 2)  # [nA, nB, nA', nB']
    m = len(alice_settings)
    sigma = np.empty((2, m, 2, 2), dtype=complex)
    for x, setting in enumerate(alice_settings):
        for a, povm in enumerate(side_povm(setting)):
            sigma[a, x] = hermitize(
                np.einsum('abcd,ca->bd', rho4, povm), tol=1e-9)
    sums = sigma.sum(axis=0)
    sigma_r = sums[0]
    if np.abs(sums - sigma_r[None]).max() > 1e-12:
        raise ValidationError("outcome sums depend on the setting")
    if abs(np.trace(sigma_r).real - 1.0) > 1e-12:
        raise ValidationError("reduced state trace differs from 1")
    for a in range(2):
        for x in range(m):
            w = np.linalg.eigvalsh(sigma[a, x])
            if w.min() < -1e-12:
                raise ValidationError(
                    f"conditional state ({a},{x}) not PSD (min eig {w.min():.2e})")
    return Assemblage(sigma=sigma, sigma_r=sigma_r)


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint click statistics p[a, b, x, y]; index 0 is the no-click outcome."""

    probs: np.ndarray = field(repr=False)
    alice_phases: tuple
    bob_phases: tuple

    @property
    def m(self):
        return self.probs.shape[2]


def _joint_cell(rho4, povm_a, povm_b):
    """The four outcome probabilities for one setting pair, from marginals."""
    p_pp = np.einsum('abcd,ca,db->', rho4, povm_a, povm_b).real
    p_a = np.einsum('abcd,ca,bd->', rho4, povm_a,
                    np.eye(povm_b.shape[0])).real
    p_b = np.einsum('abcd,ac,db->', rho4, np.eye(povm_a.shape[0]),
                    povm_b).real
    return np.array([p_pp, p_a - p_pp, p_b - p_pp, 1.0 - p_a - p_b + p_pp])


def joint_probabilities(config: ModelConfig):
    """Full table p(a, b | x, y) of the analytic model."""
    rho4 = make_state(config.eta, config.visibility).reshape(2, 2, 2, 2)
    m = config.m
    probs = np.empty((2, 2, m, 4))
    povms_a = [projector_qubit(DisplacementSetting(config.r_a, th))
               for th in config.alice_phases]
    povms_b = [projector_qubit(DisplacementSetting(config.r_b, th))
               for th in config.bob_phases]
    for x, pa in enumerate(povms_a):
        for y, pb in enumerate(povms_b):
            cell = _joint_cell(rho4, pa, pb)
            probs[:, :, x, y] = cell.reshape(2, 2)
    _check_table(probs)
    return ProbabilityTable(probs=probs, alice_phases=config.alice_phases,
                            bob_phases=config.bob_phases)


def _check_table(probs, tol=1e-9):
    if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
        raise ValidationError("probabilities out of [0, 1]")
    np.clip(probs, 0.0, 1.0, out=probs)
    totals = probs.sum(axis=(0, 1))
    if np.abs(totals - 1.0).max() > tol:
        raise ValidationError("outcome probabilities do not sum to 1")


@dataclass(frozen=True)
class SweepTable:
    """Joint outcome probabilities as one side's phase is swept.

    probs columns are (p_pp, p_pm, p_mp, p_mm) at each swept phase, with the
    trusted side fixed at its first phase.
    """

    phases: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)


def phase_sweep(config: ModelConfig, phases):
    """Sweep the untrusted side's phase against the trusted side's first phase."""
    phases = np.asarray(list(phases), dtype=float)
    if phases.size == 0:
        raise ValidationError("phase list must be non-empty")
    rho4 = make_state(config.eta, config.visibility).reshape(2, 2, 2, 2)
    povm_b = projector_qubit(
        DisplacementSetting(config.r_b, config.bob_phases[0]))
    rows = np.empty((phases.size, 4))
    for i, ph in enumerate(phases):
        povm_a = projector_qubit(DisplacementSetting(config.r_a, ph))
        rows[i] = _joint_cell(rho4, povm_a, povm_b)
    if rows.min() < -1e-12:
        raise ValidationError("sweep produced negative probability")
    np.clip(rows, 0.0, 1.0, out=rows)
    return SweepTable(phases=phases, probs=rows)


def theoretical_delta_S(config: ModelConfig, family: InequalityFamily):
    """Predicted inequality margin S - S_max of the model for a family.

    The family must use the same trusted amplitude and untrusted phases as
    the model configuration, and the configuration's trusted phases must be
    the RESOLUTION_PHASES the family is resolved over; otherwise the
    coefficient tables do not refer to the probabilities being produced.
    """
    if abs(family.bob_amplitude - config.r_b) > 1e-12:
        raise ValidationError(
            f"family r_B {family.bob_amplitude} differs from config {config.r_b}")
    if family.m != config.m or any(
            abs(a - b) > 1e-9 for a, b in zip(family.alice_phases,
                                              config.alice_phases)):
        raise ValidationError("family and config untrusted phases differ")
    if any(abs(a - b) > 1e-9 for a, b in zip(RESOLUTION_PHASES,
                                             config.bob_phases)):
        raise ValidationError(
            "config trusted phases differ from the RESOLUTION_PHASES")
    ineq = build_probability_inequality(family)
    table = joint_probabilities(config)
    _, delta_s = evaluate_steering(ineq, table)
    return delta_s


# --- independent truncated-space oracle ------------------------------------

def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _displacement(alpha, n_max):
    """Truncated displacement U = exp(G), G = -alpha a^dag + alpha* a, from
    the eigenvectors of the Hermitian H = iG: U = V diag(exp(-i lambda)) V^dag.
    """
    a = _lowering(n_max + 1)
    lam, v = np.linalg.eigh(1j * (np.conj(alpha) * a - alpha * a.T))
    return (v * np.exp(-1j * lam)) @ v.conj().T


def _noclick_full(setting: DisplacementSetting, n_max):
    """No-click POVM element U^dag |0><0| U: displace by -alpha, project on
    vacuum. U comes from diagonalizing the displacement generator, a
    construction path independent of the closed-form coherent expansion."""
    row = _displacement(setting.alpha, n_max)[0]
    return np.outer(row.conj(), row)


def _loss_kraus(eta, n_max):
    """Beamsplitter-loss Kraus operators K_k (k photons lost) on one mode."""
    dim = n_max + 1
    ks = []
    for k in range(dim):
        kk = np.zeros((dim, dim))
        for n in range(k, dim):
            kk[n - k, n] = math.sqrt(
                math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        ks.append(kk)
    return ks


def oracle_probabilities(config: ModelConfig, n_max=10):
    """Brute-force table from simulating the physical chain in Fock space.

    Single photon split 50/50 over two modes (coherences damped by the
    visibility), loss on each mode as a beamsplitter before the displacement,
    then the displaced vacuum projector per side. Exists to cross-check
    joint_probabilities through entirely different operator constructions.
    """
    if n_max < 6:
        raise ValidationError(f"oracle needs n_max >= 6, got {n_max}")
    for r in (config.r_a, config.r_b):
        tail = coherent_tail(r, n_max)
        if tail > 1e-8:
            raise CutoffError(
                f"cutoff {n_max} too small for amplitude {r} (tail {tail:.2e})")
    dim = n_max + 1
    psi = np.zeros((dim, dim))
    psi[0, 1] = psi[1, 0] = 1.0 / math.sqrt(2.0)
    rho = np.einsum('ab,cd->abcd', psi, psi)  # [nA, nB, nA', nB']
    v = config.visibility
    rho[0, 1, 1, 0] *= v
    rho[1, 0, 0, 1] *= v

    ks = _loss_kraus(config.eta, n_max)
    rho = sum(np.einsum('ij,jbkd,lk->ibld', kk, rho, kk.conj())
              for kk in ks)
    rho = sum(np.einsum('ij,ajck,lk->aicl', kk, rho, kk.conj())
              for kk in ks)
    m = config.m
    probs = np.empty((2, 2, m, 4))
    povms_a = [_noclick_full(DisplacementSetting(config.r_a, th), n_max)
               for th in config.alice_phases]
    povms_b = [_noclick_full(DisplacementSetting(config.r_b, th), n_max)
               for th in config.bob_phases]
    for x, pa in enumerate(povms_a):
        for y, pb in enumerate(povms_b):
            cell = _joint_cell(rho, pa, pb)
            probs[:, :, x, y] = cell.reshape(2, 2)
    _check_table(probs, tol=1e-7)
    return ProbabilityTable(probs=probs, alice_phases=config.alice_phases,
                            bob_phases=config.bob_phases)


# --- text output ------------------------------------------------------------

def _config_header(config: ModelConfig):
    parts = [f"eta={config.eta:.17g}", f"r_a={config.r_a:.17g}",
             f"r_b={config.r_b:.17g}",
             f"visibility={config.visibility:.17g}", f"m={config.m}"]
    return "# " + " ".join(parts)


def format_table(table: ProbabilityTable, config: ModelConfig):
    """Probability table as text: one row per setting pair, 12 digits."""
    lines = [_config_header(config), "# x y p_pp p_pm p_mp p_mm"]
    p = table.probs
    for x in range(table.m):
        for y in range(4):
            vals = " ".join(f"{p[a, b, x, y]:.12g}"
                            for a in range(2) for b in range(2))
            lines.append(f"{x + 1} {y + 1} {vals}")
    return "\n".join(lines) + "\n"


def format_sweep(sweep: SweepTable, config: ModelConfig):
    """Sweep as text rows `phase p_pp p_pm p_mp p_mm`."""
    lines = [_config_header(config), "# phase p_pp p_pm p_mp p_mm"]
    for ph, row in zip(sweep.phases, sweep.probs):
        vals = " ".join(f"{v:.12g}" for v in row)
        lines.append(f"{ph:.17g} {vals}")
    return "\n".join(lines) + "\n"


def default_config(**overrides):
    """ModelConfig with the standard experimental defaults."""
    return ModelConfig(**overrides)
