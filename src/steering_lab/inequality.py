"""Steering-inequality family: matrices, coefficients, bounds, evaluation.

The family is parameterized by two positive weights (s, t), m measurement
phases for the untrusted side, and a displacement amplitude r_B for the
trusted side, which measures at the four RESOLUTION_PHASES. Its matrix form
lives on the 0-1 photon subspace:

    G_R = [[s, 0], [0, 0]]
    G_x = [[0, t e^{-i theta_x}], [t e^{i theta_x}, 1/m]]

The off-diagonal phase is the conjugate of the x-th measurement phase so the
quantum cross terms align setting by setting. Resolving each matrix over the
trusted side's four no-click projectors turns the matrix inequality into a
linear function of observable click probabilities with coefficients
c^{ab}_{xy} and offset c0; the unsteerable bound S_max is the largest
eigenvalue over all 2^m deterministic outcome assignments, computed both on
the 0-1 subspace (closed form) and in truncated photon-number space.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (CutoffError, NormalizationError,
                     SingularDecompositionError, ValidationError)
from .fock_ops import (RESOLUTION_PHASES, TWO_PI, DisplacementSetting,
                       pauli_resolution, projector_full, projector_qubit)

DEFAULT_S = 0.983
DEFAULT_T = 0.0656
DEFAULT_R_B = 0.217
CUTOFF_TOL = 1e-9    # successive cutoffs whose strategy maxima agree this well

# Coefficient values reported elsewhere for s=0.983, t=0.0656, r_B=0.21,
# kept only as cross-check data for the emitted comparison report. The
# decomposition identity is the authoritative check on our coefficients;
# these numbers are known not to match it (see comparison_report).
REPORTED_SNAPSHOT = {
    "c_pp_diag": (0.48, 0.46, 0.43, 0.45),
    "c_pm": 0.07,
    "c_mp_columns": (0.14, 0.0, 0.14, 0.0),
    "c0": -0.06,
}


def default_alice_phases(m):
    """Equally spaced phases (x-1) * 2*pi/m for x = 1..m."""
    return tuple((x * TWO_PI) / m for x in range(m))


@dataclass(frozen=True)
class InequalityFamily:
    """Parameter bundle (s, t, m, phases, trusted amplitude) of the family."""

    s: float = DEFAULT_S
    t: float = DEFAULT_T
    m: int = 4
    alice_phases: tuple = None
    bob_amplitude: float = DEFAULT_R_B

    def __post_init__(self):
        for name in ("s", "t", "bob_amplitude"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(
                    f"{name} must be finite and > 0, got {value}")
        if not (isinstance(self.m, int) and self.m >= 4):
            raise ValidationError(f"m must be an integer >= 4, got {self.m}")
        phases = self.alice_phases
        if phases is None:
            phases = default_alice_phases(self.m)
        phases = tuple(float(p) for p in phases)
        if not all(map(math.isfinite, phases)):
            raise ValidationError(f"alice_phases must be finite, got {phases}")
        if len(phases) != self.m:
            raise ValidationError(
                f"alice_phases needs {self.m} entries, got {len(phases)}")
        object.__setattr__(self, "alice_phases",
                           tuple(p % TWO_PI for p in phases))


def family_matrices(family: InequalityFamily):
    """The 2x2 matrices (G_R, [G_x]) of the family on the 0-1 subspace."""
    s, t, m = family.s, family.t, family.m
    g_r = np.array([[s, 0.0], [0.0, 0.0]], dtype=complex)
    g_x = []
    for th in family.alice_phases:
        off = t * np.exp(-1j * th)
        g_x.append(np.array([[0.0, off], [np.conj(off), 1.0 / m]], dtype=complex))
    return g_r, g_x


def deterministic_strategies(m):
    """All 2^m outcome assignments as a (2^m, m) 0/1 array.

    Row k is the binary expansion of k, most significant bit first, so the
    first row is all zeros (outcome -1 on every input) and rows are pairwise
    distinct in ascending binary order. Entry 1 means outcome +1 (no click)
    on that input.
    """
    if not (isinstance(m, int) and 1 <= m <= 16):
        raise ValidationError(f"m must be an integer in [1, 16], got {m}")
    k = np.arange(2 ** m, dtype=np.uint32)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint32)
    return ((k[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _eigmax_2x2(a, d, b):
    """Largest eigenvalue of [[a, b], [conj(b), d]] with a, d real (closed form)."""
    mean = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(b) ** 2)
    return mean + rad


def qubit_bound(family: InequalityFamily):
    """Unsteerable bound on the 0-1 subspace.

    Maximum over all 2^m deterministic strategies of the largest eigenvalue
    of G_R + sum_x l_x G_x, evaluated with the closed-form 2x2 eigenvalue
    formula (the truncated-space path uses a general Hermitian solver, so the
    two bounds cross-check each other structurally).
    """
    strat = deterministic_strategies(family.m).astype(float)
    offs = family.t * np.exp(-1j * np.asarray(family.alice_phases))
    b = strat @ offs
    d = strat.sum(axis=1) / family.m
    a = np.full(strat.shape[0], family.s)
    return float(_eigmax_2x2(a, d, b).max())


@dataclass(frozen=True)
class CoefficientSet:
    """Resolution of each family matrix over the trusted-side projectors.

    G_nu = sum_y c[nu, y] * Pi(r_B, phi_y) + c[nu, 0] * identity, where nu
    runs over R and the m settings, and phi_y are the four trusted phases.
    """

    c_r0: float
    c_ry: np.ndarray = field(repr=False)
    c_x0: np.ndarray = field(repr=False)
    c_xy: np.ndarray = field(repr=False)


def _h_components(g):
    """Real coordinates of a 2x2 Hermitian matrix over (I, X, Y, Z)/identity."""
    h0 = 0.5 * (g[0, 0].real + g[1, 1].real)
    hz = 0.5 * (g[0, 0].real - g[1, 1].real)
    hx = g[1, 0].real
    hy = g[1, 0].imag
    return h0, hx, hy, hz


def decompose_g(family: InequalityFamily):
    """Coefficients resolving every family matrix over the no-click projectors.

    Works through the Pauli resolution at the trusted amplitude: each G is
    written in (identity, X, Y, Z) coordinates and the Pauli pieces are
    replaced by their projector expansions over the RESOLUTION_PHASES; the
    identity is re-verified on return.
    """
    r_b = family.bob_amplitude
    if r_b >= 1.0:
        raise SingularDecompositionError(
            f"decomposition needs r_B < 1, got {r_b}")
    try:
        res = pauli_resolution(r_b)
    except Exception as exc:
        raise SingularDecompositionError(str(exc)) from exc

    g_r, g_x = family_matrices(family)

    def resolve(g):
        h0, hx, hy, hz = _h_components(g)
        c_y = (hx * res.on_projectors[0] + hy * res.on_projectors[1]
               + hz * res.on_projectors[2])
        c_0 = h0 + hz * res.on_identity[2]
        return c_0, c_y

    c_r0, c_ry = resolve(g_r)
    c_x0 = np.empty(family.m)
    c_xy = np.empty((family.m, 4))
    for x, g in enumerate(g_x):
        c_x0[x], c_xy[x] = resolve(g)
    coeffs = CoefficientSet(c_r0=float(c_r0), c_ry=c_ry, c_x0=c_x0, c_xy=c_xy)

    resid = identity_residual(coeffs, family)
    if not resid <= 1e-12:    # a NaN residual fails too
        raise SingularDecompositionError(
            f"decomposition identity failed at residual {resid:.3e} "
            f"(r_B={r_b} too close to 1?)")
    return coeffs


def identity_residual(coeffs: CoefficientSet, family: InequalityFamily):
    """Max entrywise residual of the reconstruction of every family matrix."""
    projs = [projector_qubit(DisplacementSetting(family.bob_amplitude, th))
             for th in RESOLUTION_PHASES]
    eye = np.eye(2, dtype=complex)
    g_r, g_x = family_matrices(family)

    def rebuild(c_0, c_y):
        acc = c_0 * eye
        for y in range(4):
            acc = acc + c_y[y] * projs[y]
        return acc

    resid = [np.abs(rebuild(coeffs.c_r0, coeffs.c_ry) - g_r).max()]
    resid += [np.abs(rebuild(coeffs.c_x0[x], coeffs.c_xy[x]) - g_x[x]).max()
              for x in range(family.m)]
    return float(np.max(resid))    # NaN, not dropped as the builtin max would


def fullspace_g(coeffs: CoefficientSet, family: InequalityFamily, n_max):
    """Family matrices in truncated photon-number space.

    Same coefficients, with each 0-1 subspace projector replaced by the full
    coherent-state projector at the trusted amplitude and phase.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    dim = n_max + 1
    projs = [projector_full(DisplacementSetting(family.bob_amplitude, th), n_max)
             for th in RESOLUTION_PHASES]
    eye = np.eye(dim, dtype=complex)

    def rebuild(c_0, c_y):
        acc = c_0 * eye
        for y in range(4):
            acc = acc + c_y[y] * projs[y]
        return acc

    g_r = rebuild(coeffs.c_r0, coeffs.c_ry)
    g_x = [rebuild(coeffs.c_x0[x], coeffs.c_xy[x]) for x in range(family.m)]
    return g_r, g_x


@dataclass(frozen=True)
class FullspaceBound:
    s_max: float
    n_max_used: int


def _strategy_bound_full(coeffs, family, n_max):
    """Strategy maximum of the largest eigenvalue at a fixed cutoff."""
    g_r, g_x = fullspace_g(coeffs, family, n_max)
    strat = deterministic_strategies(family.m).astype(float)
    stack = np.stack(g_x)
    mats = g_r[None, :, :] + np.einsum('kx,xij->kij', strat, stack)
    mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    return float(np.linalg.eigvalsh(mats)[:, -1].max())


def fullspace_bound(coeffs: CoefficientSet, family: InequalityFamily):
    """Unsteerable bound in photon-number space with automatic cutoff.

    Increases the cutoff from 2 until two successive strategy maxima differ
    by less than CUTOFF_TOL; returns the converged bound and the cutoff at
    which convergence was established.
    """
    prev = _strategy_bound_full(coeffs, family, 2)
    for n in range(3, 25):
        cur = _strategy_bound_full(coeffs, family, n)
        if abs(cur - prev) < CUTOFF_TOL:
            return FullspaceBound(s_max=cur, n_max_used=n)
        prev = cur
    raise CutoffError(
        "strategy bound did not converge by cutoff 24 "
        f"(last change {abs(cur - prev):.3e}); amplitude too large for this method")


@dataclass(frozen=True)
class ProbabilityInequality:
    """Click-probability form of the inequality with its unsteerable bounds.

    S = sum_{a,b,x,y} c^{ab}_{xy} p(ab|xy) + c0 with coefficient tables
    indexed [x, y]; outcome ++ means no click on both sides. c_mm is
    identically zero: double clicks never enter.
    """

    c_pp: np.ndarray = field(repr=False)
    c_pm: np.ndarray = field(repr=False)
    c_mp: np.ndarray = field(repr=False)
    c_mm: np.ndarray = field(repr=False)
    c0: float
    s_max: float
    s_max_qubit: float
    n_max_used: int

    @property
    def m(self):
        return self.c_pp.shape[0]


def probability_coefficients(coeffs: CoefficientSet, family: InequalityFamily,
                             s_max, s_max_qubit, n_max_used):
    """Repackage the matrix coefficients as click-probability coefficients.

    The reduced-state term spreads evenly over the m untrusted settings
    (weight 1/m) and the identity terms spread over the trusted side's 4
    settings (weight 1/4); the offset c0 is the reduced-state identity
    coefficient.
    """
    if s_max < s_max_qubit - 1e-12:
        raise ValidationError(
            f"full-space bound {s_max} below qubit bound {s_max_qubit}")
    m = family.m
    c_pp = coeffs.c_xy + coeffs.c_ry[None, :] / m + coeffs.c_x0[:, None] / 4.0
    c_pm = np.tile(coeffs.c_x0[:, None] / 4.0, (1, 4))
    c_mp = np.tile(coeffs.c_ry[None, :] / m, (m, 1))
    c_mm = np.zeros((m, 4))
    return ProbabilityInequality(c_pp=c_pp, c_pm=c_pm, c_mp=c_mp, c_mm=c_mm,
                                 c0=float(coeffs.c_r0), s_max=float(s_max),
                                 s_max_qubit=float(s_max_qubit),
                                 n_max_used=int(n_max_used))


def build_probability_inequality(family: InequalityFamily):
    """Construct the full probability-form inequality for a family."""
    coeffs = decompose_g(family)
    sq = qubit_bound(family)
    fb = fullspace_bound(coeffs, family)
    return probability_coefficients(coeffs, family, fb.s_max, sq, fb.n_max_used)


def evaluate_steering(ineq: ProbabilityInequality, probs, norm_tol=1e-9):
    """Value S of the inequality on a probability table and its margin.

    probs is a (2, 2, m, 4) array (or an object exposing one as .probs)
    indexed [a, b, x, y] with index 0 meaning the no-click outcome. Each
    (x, y) cell must sum to 1 within norm_tol. delta_s > 0 certifies
    steering.
    """
    p = np.asarray(getattr(probs, "probs", probs), dtype=float)
    m = ineq.m
    if p.shape != (2, 2, m, 4):
        raise ValidationError(
            f"probability table shape {p.shape} does not match (2, 2, {m}, 4)")
    totals = p.sum(axis=(0, 1))
    if np.abs(totals - 1.0).max() > norm_tol:
        raise NormalizationError(
            f"table cells are not normalized (max deviation "
            f"{np.abs(totals - 1.0).max():.3e})")
    s_value = float(
        (ineq.c_pp * p[0, 0]).sum() + (ineq.c_pm * p[0, 1]).sum()
        + (ineq.c_mp * p[1, 0]).sum() + ineq.c0)
    return s_value, s_value - ineq.s_max


def export_inequality(ineq: ProbabilityInequality, family: InequalityFamily):
    """Line-oriented key=value export, keys sorted for byte-stable diffs."""
    lines = {}
    lines["s"] = family.s
    lines["t"] = family.t
    lines["m"] = family.m
    lines["r_b"] = family.bob_amplitude
    for x, ph in enumerate(family.alice_phases, start=1):
        lines[f"alice_phase.{x}"] = ph
    for y, ph in enumerate(RESOLUTION_PHASES, start=1):
        lines[f"bob_phase.{y}"] = ph
    lines["c0"] = ineq.c0
    lines["s_max"] = ineq.s_max
    lines["s_max_qubit"] = ineq.s_max_qubit
    lines["n_max_used"] = ineq.n_max_used
    for name, table in (("c_pp", ineq.c_pp), ("c_pm", ineq.c_pm),
                        ("c_mp", ineq.c_mp), ("c_mm", ineq.c_mm)):
        for x in range(ineq.m):
            for y in range(4):
                lines[f"{name}.{x + 1}.{y + 1}"] = table[x, y]
    out = []
    for key in sorted(lines):
        val = lines[key]
        if isinstance(val, int):
            out.append(f"{key}={val}")
        else:
            out.append(f"{key}={val:.17g}")
    return "\n".join(out) + "\n"


def comparison_report(family: InequalityFamily = None):
    """Text report comparing our evaluated coefficients to reported values.

    The reported snapshot (diagonal of c^{++}, the constant c^{+-}, the
    nonzero c^{-+} columns, and c0 at s=0.983, t=0.0656, r_B=0.21) does not
    match what the closed-form decomposition yields; the decomposition
    identity is the authoritative check, so the mismatch is documented here
    rather than asserted anywhere.
    """
    if family is None:
        family = InequalityFamily(bob_amplitude=0.21)
    ineq = build_probability_inequality(family)
    snap = REPORTED_SNAPSHOT
    rows = []
    rows.append("coefficient comparison at "
                f"s={family.s} t={family.t} r_B={family.bob_amplitude}")
    rows.append(f"{'quantity':<14} {'ours':>12} {'reported':>12} {'match':>7}")

    def row(name, ours, reported):
        ok = "yes" if abs(ours - reported) < 5e-3 else "NO"
        rows.append(f"{name:<14} {ours:>12.4f} {reported:>12.4f} {ok:>7}")

    for x in range(4):
        row(f"c_pp[{x + 1},{x + 1}]", ineq.c_pp[x, x], snap["c_pp_diag"][x])
    row("c_pm[1,1]", ineq.c_pm[0, 0], snap["c_pm"])
    for y in range(4):
        row(f"c_mp[1,{y + 1}]", ineq.c_mp[0, y], snap["c_mp_columns"][y])
    row("c0", ineq.c0, snap["c0"])
    rows.append("decomposition identity residual: "
                f"{identity_residual(decompose_g(family), family):.3e} "
                "(authoritative check)")
    return "\n".join(rows) + "\n"
