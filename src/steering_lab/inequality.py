"""Steering-inequality family and the one format of a steering functional.

The family is parameterized by two positive weights (s, t), m measurement
phases for the untrusted side, and a displacement amplitude r_B for the
trusted side, which measures at the four RESOLUTION_PHASES. Its matrix form
lives on the 0-1 photon subspace:

    G_R = [[s, 0], [0, 0]]
    G_x = [[0, t e^{-i theta_x}], [t e^{i theta_x}, 1/m]]

The off-diagonal phase is the conjugate of the x-th measurement phase so the
quantum cross terms align setting by setting. Resolving each matrix over the
trusted side's four no-click projectors (decompose_g) turns the matrix
inequality into a steering functional: an (m+1) x 5 array F that weights
the table summary of _marginals (p(++|xy), p_A(+|x) in the last column,
p_B(+|y) in the last row, 1 in the corner). The same format carries the
LHS certificates of lhs_certification, and one kernel, lhs_bound, gives
the exact maximum of any such functional over local-hidden-state models.
The family's unsteerable bound S'_max on the 0-1 subspace has a closed
form (qubit_bound); S_max on the whole photon-number space is lhs_bound on
the exact coordinates of the trusted no-click vectors (trusted_basis), with
no cutoff. The paper's coefficients c^{ab}_{xy} and offset c0 are views of
F. decompose_g and lhs_bound broadcast over an array of trusted
amplitudes, so stacked_inequality builds the inequality on a whole r_B
grid in one pass through the same arithmetic as a one-point build.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (CutoffError, NormalizationError,
                     SingularDecompositionError, ValidationError)
from .fock_ops import (RESOLUTION_PHASES, TWO_PI, coherent_amplitudes,
                       pauli_resolution, projector_full, projector_qubit,
                       trusted_basis)

DEFAULT_S = 0.983
DEFAULT_T = 0.0656
DEFAULT_R_B = 0.217
CUTOFF_TOL = 1e-9    # n_max_used: a truncation agreeing this well with S_max
NORM_TOL = 1e-9      # largest deviation from 1 of an evaluated table cell

# Coefficient values reported elsewhere, with the s, t, r_B they were
# reported at, kept only as cross-check data for the emitted comparison
# report. The decomposition identity is the authoritative check on our
# coefficients; these numbers are known not to match it.
REPORTED_SNAPSHOT = {
    "s": 0.983, "t": 0.0656, "r_b": 0.21,
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


def qubit_bound(family: InequalityFamily, phases=None):
    """Unsteerable bound on the 0-1 subspace.

    Maximum over all 2^m deterministic strategies of the largest eigenvalue
    of G_R + sum_x l_x G_x, evaluated with the closed-form 2x2 eigenvalue
    formula; lhs_bound of decompose_g's coefficients on the 0-1 subspace
    gives the same value through a general Hermitian solver. An array of
    phase sets, m on its last axis, replaces the family's phases and gives
    one bound per set: each set's arithmetic is elementwise, so its bound is
    bit-identical to that of the family with those phases.
    """
    phases = np.asarray(family.alice_phases if phases is None else phases,
                        dtype=float) % TWO_PI
    strat = deterministic_strategies(family.m).astype(float)
    offs = family.t * np.exp(-1j * phases)
    b = (strat * offs[..., None, :]).sum(axis=-1)
    d = strat.sum(axis=1) / family.m
    # top eigenvalue of [[s, b], [conj(b), d]] in closed form
    top = 0.5 * (family.s + d) + np.sqrt((0.5 * (family.s - d)) ** 2
                                         + np.abs(b) ** 2)
    return _unstack(top.max(axis=-1))


def _strategy_rows(m):
    """Rows (D_k(+|x) for every x, 1): strategy k's weight in each summary row."""
    strat = deterministic_strategies(m).astype(float)
    return np.hstack([strat, np.ones((strat.shape[0], 1))])


def _marginals(probs):
    """The (m+1) x (n+1) summary of a table p[a, b, x, y] that LHS models fix.

    p(++|xy) fills the leading block, p_A(+|x) the last column, p_B(+|y)
    the last row and 1 the corner.
    """
    p = np.asarray(probs, dtype=float)
    m, n = p.shape[2:]
    out = np.ones((m + 1, n + 1))
    out[:m, :n] = p[0, 0]
    out[:m, n] = p[0].sum(axis=0).mean(axis=1)
    out[m, :n] = p[:, 0].sum(axis=0).mean(axis=0)
    return out


@dataclass(frozen=True)
class SteeringFunctional:
    """Probability-level steering inequality sum(coefficients * M) <= bound.

    M is the (m+1) x (n+1) summary of a table (_marginals: p(++|xy),
    p_A(+|x) in the last column, p_B(+|y) in the last row, 1 in the
    corner). Row x of the coefficients is the trusted-side operator G_x =
    sum_y F[x, y] Pi_y + F[x, n] 1 that strategy rows with D(+|x) = 1
    collect, and the last row is the operator every strategy collects.
    bound is the exact maximum over LHS models (lhs_bound).
    """

    coefficients: np.ndarray = field(repr=False)
    bound: float

    def value(self, probs):
        return float((self.coefficients * _marginals(probs)).sum())


def _unstack(a):
    """A 0-d result as a Python float; a stacked one as it is."""
    return float(a) if np.ndim(a) == 0 else a


def lhs_bound(coefficients, basis):
    """Exact maximum of a table functional over LHS models.

    The columns of basis are the coordinates of the trusted no-click
    vectors (see trusted_basis). Per strategy the maximum is the top
    eigenvalue of its operator sum_y g_y |b_y><b_y| + g_0 1 on the basis;
    the bound is the largest over all 2^m strategies. A zero row of the
    basis, a direction outside the detectors' span, gives each operator an
    exact 0 eigenvalue, g_0 alone. On exact coordinates of photon-number
    space no cutoff enters: A diag(g) A^dag keeps its nonzero eigenvalues
    when A is replaced by any B with B^dag B = A^dag A (Horn & Johnson,
    Matrix Analysis, Thm 1.3.22).

    Leading axes of coefficients and basis broadcast together and give one
    bound each: one stacked eigensolve serves a whole grid of amplitudes.
    """
    return _unstack(_strategy_values(coefficients, basis).max(axis=-1))


def _strategy_values(coefficients, basis):
    """lhs_bound per strategy: the 2^m values on the last axis."""
    n = basis.shape[-1]
    g = _strategy_rows(coefficients.shape[-2] - 1) @ coefficients
    ops = np.einsum('...ay,...ky,...by->...kab', basis, g[..., :n],
                    basis.conj())
    return np.linalg.eigvalsh(ops)[..., -1] + g[..., n]


def _amplitudes(family, r_b):
    """r_b as a float array, the family's trusted amplitude when None."""
    return np.asarray(family.bob_amplitude if r_b is None else r_b,
                      dtype=float)


def decompose_g(family: InequalityFamily, r_b=None):
    """The family as a steering functional: its (m+1) x 5 coefficients F.

    Row x resolves G_x and the last row G_R over the trusted side's no-click
    projectors Pi_y at the RESOLUTION_PHASES, G_nu = sum_y F[nu, y] Pi_y +
    F[nu, 4] * identity, through the Pauli resolution at the trusted
    amplitude; the identity is re-verified on return. An array r_b replaces
    the family's amplitude and stacks one F per entry in front.
    """
    r_b = _amplitudes(family, r_b)
    if np.any(r_b >= 1.0):
        raise SingularDecompositionError(
            f"decomposition needs r_B < 1, got {r_b.max()}")
    on_proj, on_id = pauli_resolution(r_b)

    g_r, g_x = family_matrices(family)
    g = np.stack([*g_x, g_r])
    # coordinates of each G over (identity, X, Y, Z)
    hz = 0.5 * (g[:, 0, 0].real - g[:, 1, 1].real)
    on_proj = on_proj[..., None, :, :]
    coefficients = np.empty(r_b.shape + (family.m + 1, 5))
    coefficients[..., :4] = (g[:, 1, 0].real[:, None] * on_proj[..., 0, :]
                             + g[:, 1, 0].imag[:, None] * on_proj[..., 1, :]
                             + hz[:, None] * on_proj[..., 2, :])
    coefficients[..., 4] = (0.5 * (g[:, 0, 0].real + g[:, 1, 1].real)
                            + hz * on_id[..., None, 2])

    # F grows as t/(2 r_B), and the rounding of the rebuilt G with it
    resid = identity_residual(coefficients, family, r_b)
    tol = 1e-12 * np.maximum(1.0, np.abs(coefficients).max(axis=(-2, -1)))
    failed = ~(resid <= tol)    # a NaN residual fails too
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise SingularDecompositionError(
            f"decomposition identity failed at r_B={r_b.ravel()[i]}: "
            f"residual {np.ravel(resid)[i]:.3e} exceeds "
            f"{np.ravel(tol)[i]:.3e}")
    return coefficients


def _operators(coefficients, projectors):
    """G_nu = sum_y F[nu, y] Pi_y + F[nu, 4] 1 for every row nu of F."""
    ops = coefficients[..., 4, None, None] * np.eye(projectors[0].shape[-1])
    for y, proj in enumerate(projectors):
        ops = ops + coefficients[..., y, None, None] * proj
    return ops


def identity_residual(coefficients, family: InequalityFamily, r_b=None):
    """Max entrywise residual of the reconstruction of every family matrix.

    With an array r_b (see decompose_g), one residual per stacked F.
    """
    r_b = _amplitudes(family, r_b)[..., None]
    projs = [projector_qubit(r_b, th) for th in RESOLUTION_PHASES]
    g_r, g_x = family_matrices(family)
    resid = np.abs(_operators(coefficients, projs) - np.stack([*g_x, g_r]))
    # NaN, not dropped as the builtin max would
    return _unstack(resid.max(axis=(-3, -2, -1)))


def fullspace_g(coefficients, family: InequalityFamily, n_max):
    """Family matrices (G_R, [G_x]) in truncated photon-number space.

    Same coefficients, with each 0-1 subspace projector replaced by the full
    coherent-state projector at the trusted amplitude and phase.
    """
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    ops = _operators(coefficients, projector_full(
        family.bob_amplitude, np.array(RESOLUTION_PHASES), n_max))
    return ops[-1], ops[:-1]


@dataclass(frozen=True)
class ProbabilityInequality(SteeringFunctional):
    """The family's inequality S <= S_max as a steering functional.

    coefficients is decompose_g's F and bound is S_max; s_max_qubit is the
    bound on the 0-1 subspace and r_b the trusted amplitude of the build.
    n_max_used is computed only when read: the first cutoff from 3 whose
    truncated strategy maximum agrees with S_max to CUTOFF_TOL (none up to
    24 is a CutoffError). The paper's form S = sum_{a,b,x,y} c^{ab}_{xy}
    p(ab|xy) + c0 (outcome + is no click) is read off F: the reduced-state
    row spreads evenly over the m settings, each setting's identity term
    over the 4 trusted ones, and c_mm is zero (double clicks never enter).
    A stack built by stacked_inequality holds one inequality per trusted
    amplitude, and every field and view then carries the stack's shape in
    front. strategy_values holds the 2^m values that bound is the maximum
    of, one per deterministic strategy (lhs_bound per strategy).
    """

    s_max_qubit: float
    r_b: float
    strategy_values: np.ndarray = field(repr=False)

    @property
    def n_max_used(self):
        r_b = np.asarray(self.r_b)
        s_max = np.asarray(self.bound)
        n_used = np.zeros(r_b.shape, dtype=int)
        for n in range(3, 25):
            todo = n_used == 0
            columns = coherent_amplitudes(r_b[todo][:, None],
                                          RESOLUTION_PHASES, n)
            gap = np.abs(lhs_bound(self.coefficients[todo],
                                   np.swapaxes(columns, -1, -2))
                         - s_max[todo])
            n_used[todo] = np.where(gap < CUTOFF_TOL, n, 0)
            if n_used.all():
                return int(n_used) if n_used.ndim == 0 else n_used
        raise CutoffError(
            f"cutoff 24 still misses the exact bound by {gap.max():.3e}; "
            "amplitude too large for this method")

    @property
    def m(self):
        return self.coefficients.shape[-2] - 1

    @property
    def s_max(self):
        return self.bound

    @property
    def c_pp(self):
        f, m = self.coefficients, self.m
        return (f[..., :m, :4] + f[..., m, None, :4] / m
                + f[..., :m, 4, None] / 4.0)

    @property
    def c_pm(self):
        return np.repeat(self.coefficients[..., :self.m, 4, None] / 4.0, 4,
                         axis=-1)

    @property
    def c_mp(self):
        m = self.m
        return np.repeat(self.coefficients[..., m, None, :4] / m, m, axis=-2)

    @property
    def c_mm(self):
        return np.zeros(self.coefficients.shape[:-2] + (self.m, 4))

    @property
    def c0(self):
        return _unstack(self.coefficients[..., self.m, 4])


def build_probability_inequality(family: InequalityFamily):
    """Construct the family's inequality with both unsteerable bounds.

    S_max is rounded on the scale eps max|F|, and F grows as t/(2 r_B): where
    that unit exceeds NORM_TOL no printed bound would hold, so the build
    raises SingularDecompositionError (r_B below about 7e-9 at the default
    t). stacked_inequality keeps every point, for Monte Carlo draws.
    """
    ineq = stacked_inequality(family, family.bob_amplitude)
    unit = np.finfo(float).eps * np.abs(ineq.coefficients).max()
    if unit > NORM_TOL:
        raise SingularDecompositionError(
            f"r_B={family.bob_amplitude}: rounding unit {unit:.3g} in S_max "
            f"exceeds NORM_TOL {NORM_TOL:g}")
    return ineq


def stacked_inequality(family: InequalityFamily, r_b):
    """The family's inequality at every trusted amplitude of r_b at once.

    S_max is lhs_bound on the exact coordinates of the trusted no-click
    vectors (trusted_basis), with no cutoff: within 2e-15 of the brute-force
    cutoff-24 maximum for r_B >= 0.02; below, the coefficients grow as
    1/r_B and the brute force's own rounding dominates (2.5e-12 at r_B =
    7e-6). The fields of the returned ProbabilityInequality carry r_b's
    shape in front (s_max_qubit does not depend on r_B). Every amplitude
    passes the same two checks as a one-point build: the decomposition
    identity and S_max >= S'_max. No truncated column is built unless
    n_max_used is read.
    """
    r_b = _amplitudes(family, r_b)
    coefficients = decompose_g(family, r_b)
    s_max_qubit = qubit_bound(family)
    branches = _strategy_values(coefficients, trusted_basis(r_b))
    s_max = _unstack(branches.max(axis=-1))
    # a bound computed from F is rounded on the scale of its largest entry,
    # which grows as 1/r_B: 0.54 at the paper's r_B, ~1e5 at r_B = 3e-6
    scale = np.maximum(1.0, np.abs(coefficients).max(axis=(-2, -1)))
    low = s_max < s_max_qubit - 1e-12 * scale
    if np.any(low):
        raise ValidationError(
            f"full-space bound {np.ravel(s_max)[np.ravel(low)][0]} "
            f"below qubit bound {s_max_qubit}")
    return ProbabilityInequality(coefficients=coefficients, bound=s_max,
                                 s_max_qubit=s_max_qubit, r_b=_unstack(r_b),
                                 strategy_values=branches)


def evaluate_steering(ineq: ProbabilityInequality, probs):
    """Value S of the inequality on a probability table and its margin.

    probs is a (2, 2, m, 4) array indexed [a, b, x, y] with index 0
    meaning the no-click outcome. Each (x, y) cell must sum to 1 within
    NORM_TOL. delta_s > 0 certifies steering.
    """
    p = np.asarray(probs, dtype=float)
    m = ineq.m
    if p.shape != (2, 2, m, 4):
        raise ValidationError(
            f"probability table shape {p.shape} does not match (2, 2, {m}, 4)")
    totals = p.sum(axis=(0, 1))
    if np.abs(totals - 1.0).max() > NORM_TOL:
        raise NormalizationError(
            f"table cells are not normalized (max deviation "
            f"{np.abs(totals - 1.0).max():.3e})")
    s_value = ineq.value(p)
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


def comparison_report():
    """Text report comparing our coefficients to the reported snapshot, both
    at the snapshot's own parameters (s=0.983, t=0.0656, r_B=0.21).

    The reported values (diagonal of c^{++}, the constant c^{+-}, the
    nonzero c^{-+} columns, and c0) do not match what the closed-form
    decomposition yields; the decomposition identity is the authoritative
    check, so the mismatch is documented here rather than asserted anywhere.
    """
    snap = REPORTED_SNAPSHOT
    family = InequalityFamily(snap["s"], snap["t"], bob_amplitude=snap["r_b"])
    ineq = build_probability_inequality(family)
    rows = ["coefficient comparison at "
            f"s={family.s} t={family.t} r_B={family.bob_amplitude}",
            f"{'quantity':<14} {'ours':>12} {'reported':>12} {'match':>7}"]

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
                f"{identity_residual(ineq.coefficients, family):.3e} "
                "(authoritative check)")
    return "\n".join(rows) + "\n"
