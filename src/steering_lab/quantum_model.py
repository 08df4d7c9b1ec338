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

from dataclasses import dataclass
import math

import numpy as np

from .errors import CutoffError, ValidationError
from .fock_ops import (RESOLUTION_PHASES, TWO_PI, coherent_tail, hermitize,
                       projector_qubit)
from .inequality import (DEFAULT_R_B, InequalityFamily,
                         build_probability_inequality, evaluate_steering)

DEFAULT_ETA = 0.52
DEFAULT_R_A = 0.233
ORACLE_N_MAX = 10     # photon-number cutoff of oracle_probabilities


@dataclass(frozen=True)
class ModelConfig:
    """Experiment parameters; the untrusted phases default to the equally
    spaced ladder, and the trusted side measures at the RESOLUTION_PHASES
    its steering functionals are resolved over."""

    eta: float = DEFAULT_ETA
    r_a: float = DEFAULT_R_A
    r_b: float = DEFAULT_R_B
    alice_phases: tuple = RESOLUTION_PHASES
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
        if not all(map(math.isfinite, alice)):
            raise ValidationError("phases must be finite")
        alice = tuple(p % TWO_PI for p in alice)
        if len(alice) < 1:
            raise ValidationError("need at least one untrusted-side phase")
        object.__setattr__(self, "alice_phases", alice)

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


def side_povm(r, theta):
    """Binary POVM of one side at amplitudes r and phases theta broadcast
    together: (no-click elements, click elements), each (..., 2, 2)."""
    plus = projector_qubit(r, theta)
    return plus, np.eye(2, dtype=complex) - plus


def compute_assemblage(state, r_a, alice_phases):
    """Conditional trusted-side states for each untrusted outcome and setting.

    Traces the untrusted mode out of (POVM x identity) * state, with the
    untrusted side displaced at amplitude r_a and each of alice_phases
    (checked and reduced as a ModelConfig's). Returns sigma with shape
    (2, m, 2, 2): sigma[a, x] is the unnormalized 2x2 state for outcome a
    (0 = no click) at setting x. Verifies the no-signalling structure: the
    outcome sum sigma.sum(axis=0)[x] is the same reduced state (trace 1) at
    every setting.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"state must be 4x4, got {rho.shape}")
    side = ModelConfig(r_a=r_a, alice_phases=alice_phases)
    povms = np.stack(side_povm(side.r_a, np.array(side.alice_phases)))
    sigma = hermitize(np.einsum('abcd,...ca->...bd', rho.reshape(2, 2, 2, 2),
                                povms), tol=1e-9)
    sums = sigma.sum(axis=0)
    sigma_r = sums[0]
    if np.abs(sums - sigma_r[None]).max() > 1e-12:
        raise ValidationError("outcome sums depend on the setting")
    if abs(np.trace(sigma_r).real - 1.0) > 1e-12:
        raise ValidationError("reduced state trace differs from 1")
    w = np.linalg.eigvalsh(sigma).min()
    if w < -1e-12:
        raise ValidationError(f"conditional state not PSD (min eig {w:.2e})")
    return sigma


def _click_table(rho4, povms_a, povms_b):
    """p[a, b, x, y] from the no-click elements povms_a[x] and povms_b[y]
    of the two sides, through the no-click/no-click cell and the marginals.
    rho4 is the two-mode state with indices [nA, nB, nA', nB']."""
    p_pp = np.einsum('abcd,xca,ydb->xy', rho4, povms_a, povms_b).real
    p_a = np.einsum('abcb,xca->x', rho4, povms_a).real[:, None]
    p_b = np.einsum('abad,ydb->y', rho4, povms_b).real
    return np.array([[p_pp, p_a - p_pp],
                     [p_b - p_pp, 1.0 - p_a - p_b + p_pp]])


def joint_probabilities(config: ModelConfig):
    """Full table p(a, b | x, y) of the analytic model, as the array
    p[a, b, x, y] with shape (2, 2, m, 4); index 0 is the no-click outcome
    and y runs over the RESOLUTION_PHASES."""
    rho4 = make_state(config.eta, config.visibility).reshape(2, 2, 2, 2)
    probs = _click_table(
        rho4, projector_qubit(config.r_a, np.array(config.alice_phases)),
        projector_qubit(config.r_b, np.array(RESOLUTION_PHASES)))
    _check_table(probs)
    return probs


def _check_table(probs, tol=1e-9):
    if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
        raise ValidationError("probabilities out of [0, 1]")
    np.clip(probs, 0.0, 1.0, out=probs)
    totals = probs.sum(axis=(0, 1))
    if np.abs(totals - 1.0).max() > tol:
        raise ValidationError("outcome probabilities do not sum to 1")


def phase_sweep(config: ModelConfig, phases):
    """Sweep the untrusted side's phase against the trusted side's first,
    RESOLUTION_PHASES[0]; phases are checked and reduced mod 2 pi as a
    ModelConfig's are. Returns the (n, 4) rows (p_pp, p_pm, p_mp, p_mm),
    one per swept phase, checked and clipped as joint_probabilities'
    table is."""
    phases = np.asarray(list(phases), dtype=float)
    if phases.size == 0 or not np.all(np.isfinite(phases)):
        raise ValidationError("phases must be finite and non-empty")
    rho4 = make_state(config.eta, config.visibility).reshape(2, 2, 2, 2)
    probs = _click_table(
        rho4, projector_qubit(config.r_a, phases % TWO_PI),
        projector_qubit(config.r_b, np.array(RESOLUTION_PHASES[:1])))
    _check_table(probs)
    return probs[..., 0].reshape(4, -1).T


def theoretical_delta_S(config: ModelConfig, family: InequalityFamily):
    """Predicted inequality margin S - S_max of the model for a family.

    The family must use the same trusted amplitude and untrusted phases as
    the model configuration; otherwise the coefficient tables do not refer
    to the probabilities being produced.
    """
    if abs(family.bob_amplitude - config.r_b) > 1e-12:
        raise ValidationError(
            f"family r_B {family.bob_amplitude} differs from config {config.r_b}")
    if family.m != config.m or any(
            abs(a - b) > 1e-9 for a, b in zip(family.alice_phases,
                                              config.alice_phases)):
        raise ValidationError("family and config untrusted phases differ")
    ineq = build_probability_inequality(family)
    _, delta_s = evaluate_steering(ineq, joint_probabilities(config))
    return delta_s


# --- independent truncated-space oracle ------------------------------------

def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _displacement(alpha, n_max):
    """Truncated displacement U = exp(G), G = -alpha a^dag + alpha* a, from
    the eigenvectors of the Hermitian H = iG: U = V diag(exp(-i lambda)) V^dag.
    An array alpha stacks one U per entry in front.
    """
    a = _lowering(n_max + 1)
    alpha = np.asarray(alpha)[..., None, None]
    lam, v = np.linalg.eigh(1j * (np.conj(alpha) * a - alpha * a.T))
    return ((v * np.exp(-1j * lam)[..., None, :])
            @ np.swapaxes(v.conj(), -1, -2))


def _noclick_full(r, theta, n_max):
    """No-click POVM element U^dag |0><0| U at amplitudes r and phases theta
    broadcast together: displace by -alpha, project on vacuum. U comes from
    diagonalizing the displacement generator, a construction path
    independent of the closed-form coherent expansion."""
    row = _displacement(r * np.exp(1j * np.asarray(theta)), n_max)[..., 0, :]
    return row.conj()[..., :, None] * row[..., None, :]


def _loss_kraus(eta, n_max):
    """Beamsplitter-loss Kraus operators on one mode, stacked: ks[k] is K_k
    (k photons lost)."""
    dim = n_max + 1
    ks = np.zeros((dim, dim, dim))
    for k in range(dim):
        for n in range(k, dim):
            ks[k, n - k, n] = math.sqrt(
                math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
    return ks


def oracle_probabilities(config: ModelConfig):
    """Brute-force table from simulating the physical chain in Fock space.

    Single photon split 50/50 over two modes (coherences damped by the
    visibility), loss on each mode as a beamsplitter before the displacement,
    then the displaced vacuum projector per side. Returns p[a, b, x, y]
    with shape (2, 2, m, 4), as joint_probabilities does, which it exists
    to cross-check through entirely different operator constructions, at
    the cutoff ORACLE_N_MAX (a Poisson tail past it above 1e-8 raises).
    """
    n_max = ORACLE_N_MAX
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

    # the channel sum_k K_k rho K_k^dag of one mode as a matrix on its
    # (ket, bra) index pairs, applied to each mode by one product
    ks = _loss_kraus(config.eta, n_max)
    loss = np.einsum('kij,kln->iljn', ks, ks.conj()).reshape(dim ** 2, -1)
    pairs = rho.transpose(0, 2, 1, 3).reshape(dim ** 2, -1)
    rho = (loss @ pairs @ loss.T).reshape((dim,) * 4).transpose(0, 2, 1, 3)
    probs = _click_table(
        rho, _noclick_full(config.r_a, np.array(config.alice_phases), n_max),
        _noclick_full(config.r_b, np.array(RESOLUTION_PHASES), n_max))
    _check_table(probs, tol=1e-7)
    return probs


# --- text output ------------------------------------------------------------

def _config_header(config: ModelConfig):
    parts = [f"eta={config.eta:.17g}", f"r_a={config.r_a:.17g}",
             f"r_b={config.r_b:.17g}",
             f"visibility={config.visibility:.17g}", f"m={config.m}"]
    return "# " + " ".join(parts)


def format_table(probs, config: ModelConfig):
    """Probability table p[a, b, x, y] as text: one row per setting pair,
    12 digits."""
    lines = [_config_header(config), "# x y p_pp p_pm p_mp p_mm"]
    cells = probs.reshape(4, -1, 4)     # (a, b) flattened
    lines += [f"{x + 1} {y + 1} "
              + " ".join(f"{v:.12g}" for v in cells[:, x, y])
              for x, y in np.ndindex(cells.shape[1:])]
    return "\n".join(lines) + "\n"


def format_sweep(phases, rows, config: ModelConfig):
    """Sweep rows of phase_sweep at phases as text rows
    `phase p_pp p_pm p_mp p_mm`."""
    lines = [_config_header(config), "# phase p_pp p_pm p_mp p_mm"]
    for ph, row in zip(phases, rows):
        vals = " ".join(f"{v:.12g}" for v in row)
        lines.append(f"{ph:.17g} {vals}")
    return "\n".join(lines) + "\n"
