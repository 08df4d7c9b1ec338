"""Local-hidden-state certification of the click table, and phase optimization.

A joint click table p(ab|xy) admits a local-hidden-state (LHS) model iff
there are trusted-side states sigma_lambda >= 0, one per deterministic
outcome assignment lambda of the untrusted side, with

    sum_lambda D_lambda(a|x) tr(Pi_{b|y} sigma_lambda) = p(ab|xy).

The trusted side is seen only through the no-click projectors
|alpha_y><alpha_y| of its four displacement detectors. With space='fock'
the hidden states live anywhere in photon-number space and enter through
their compression onto the span of the |alpha_y> and one direction outside
it, which holds their weight there (exact coordinates from
fock_ops.trusted_basis, no cutoff). With space='qubit' they are confined
to the 0-1 subspace, where the table fixes the conditional states
sigma_{+|x} and sigma_R completely: that is the assemblage problem.

The table is exactly linear in the efficiency eta, so the critical
efficiency eta* (the largest eta with an LHS model) is one conic program,
solved by a primal-dual interior-point method with no bisection (several
tables of one trusted-side space at once, as one stack). The solve
returns both certificates: hidden states that reproduce the table at
eta_star, checked by verify_hidden_states, and a probability-level
steering functional in the format of the family's inequality
(inequality.SteeringFunctional), whose exact LHS bound (lhs_bound) is a
maximum of small eigenvalue problems, violated from eta_upper on. A verdict
at a fixed eta follows from the same solve
(ExperimentEfficiency.verdict_at): feasible wherever the eta_star model
extends to a checked model at eta (always up to eta_star), infeasible
from eta_upper on by a margin, indeterminate otherwise.

Measurement phases are optimized by a compass (pattern) search; its
objective is the closed-form qubit bound of the family adapted to the
candidate phases (a surrogate sharing its minimizer, the equally spaced
ladder, with the critical efficiency, at no conic solve per candidate), and
one stacked call rates a whole pattern of candidates. The reported eta* is
always the critical efficiency of the actual candidate phases.
"""

from dataclasses import dataclass, field
import math
import random

import numpy as np

from .errors import (IndeterminateFeasibilityError, ValidationError,
                     check_seed)
from .fock_ops import RESOLUTION_PHASES, TWO_PI, trusted_basis
from .inequality import (DEFAULT_R_B, InequalityFamily, SteeringFunctional,
                         _marginals, _strategy_rows, deterministic_strategies,
                         lhs_bound, qubit_bound)
from .quantum_model import DEFAULT_R_A, ModelConfig, joint_probabilities

GAP_TOL = 1e-8            # width of the certified eta interval
MODEL_TOL = 1e-9          # largest verify_hidden_states error of a model
FUNCTIONAL_MARGIN = 1e-10  # relative margin a functional must win by
ITERATION_CAP = 100       # primal-dual iterations of one solve
PATTERN_STEP = 0.3        # rad, first step of the phase search
PATTERN_TOL = 1e-3        # rad, step below which the phase search stops
PATTERN_CAP = 2000        # iterations of one phase search
STACK_STRATEGIES = 320    # problems x 2^m strategies of one optimize stack


@dataclass(frozen=True)
class TableProblem:
    """LHS problem of the joint click table, linear in eta.

    table_vacuum / table_steered are p[a, b, x, y] at eta = 0 and 1. The
    trusted side enters only through its no-click vectors (see
    trusted_basis): a hidden state sigma yields tr(Pi_y sigma) =
    b_y^dag X b_y and trace tr X, X its compression onto the basis's
    coordinates. In photon-number space the zero row of the basis is the
    direction outside the span of the |alpha_y>: X's entry there holds the
    weight outside, which only the trace sees.
    """

    table_vacuum: np.ndarray = field(repr=False)
    table_steered: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    @property
    def m(self):
        return self.table_vacuum.shape[2]

    def table_at(self, eta):
        return eta * self.table_steered + (1.0 - eta) * self.table_vacuum

    @classmethod
    def from_model(cls, r_a, alice_phases, r_b=DEFAULT_R_B, space="fock",
                   visibility=1.0):
        tables = [joint_probabilities(ModelConfig(
            eta=eta, r_a=r_a, r_b=r_b, alice_phases=tuple(alice_phases),
            visibility=visibility)) for eta in (0.0, 1.0)]
        return cls(*tables, trusted_basis(r_b, space))


def _lhs_table(blocks, problem: TableProblem):
    """Joint table p[a, b, x, y] that hidden states predict: blocks[k] is
    the compression of sigma_k onto the problem's basis, one per
    deterministic strategy k."""
    strat = deterministic_strategies(problem.m).astype(float)
    basis = problem.basis
    q = np.einsum('ay,kab,by->ky', basis.conj(), blocks, basis).real
    tr = np.trace(blocks, axis1=1, axis2=2).real
    probs = np.empty((2, 2, problem.m, basis.shape[1]))
    for a, d in enumerate((strat, 1.0 - strat)):
        probs[a, 0] = d.T @ q
        probs[a, 1] = d.T @ (tr[:, None] - q)
    return probs


def verify_hidden_states(blocks, problem: TableProblem, eta):
    """Worst violation, by direct arithmetic, of hidden states at efficiency
    eta: blocks is the (2^m, d, d) array of their compressions onto the
    problem's basis. Covers the mismatch with their table p(ab|xy) and the
    PSD deficit of the blocks.
    """
    mismatch = float(np.abs(_lhs_table(blocks, problem)
                            - problem.table_at(eta)).max())
    psd_deficit = -float(np.linalg.eigvalsh(blocks).min())
    return max(mismatch, psd_deficit, 0.0)


def _product_model(problem: TableProblem):
    """Hidden states of the eta = 0 table, which is a product table.

    At eta = 0 both modes hold vacuum: the untrusted side answers every
    setting x independently, + with probability p_A(+|x), and the trusted
    side holds |0>, whose overlap with each no-click vector |alpha_y> is the
    real sqrt(p_B(+|y)). Strategy k carries prod_x p_A(D_k(x)|x) times
    |0><0|, held as its compression onto the basis; on a zero last row of
    the basis, the direction outside the detectors' span, |0> puts the
    rest of its unit norm.
    """
    summary = _marginals(problem.table_vacuum)
    basis = problem.basis
    m, n = problem.m, basis.shape[1]
    p_a = summary[:m, n]
    weights = np.prod(np.where(deterministic_strategies(m), p_a, 1.0 - p_a),
                      axis=1)
    vacuum = np.linalg.lstsq(basis.conj().T, np.sqrt(
        summary[m, :n]).astype(complex), rcond=None)[0]
    if not basis[-1].any():
        vacuum[-1] = math.sqrt(max(0.0, 1.0 - float(np.vdot(
            vacuum[:-1], vacuum[:-1]).real)))
    return weights[:, None, None] * np.outer(vacuum, vacuum.conj())


@dataclass(frozen=True)
class ExperimentEfficiency:
    """Critical efficiency of the joint table, decided from both sides.

    model holds hidden states, the (2^m, d, d) blocks of verify_hidden_states,
    that reproduce problem.table_at(eta_star) to MODEL_TOL; functional is
    violated, by FUNCTIONAL_MARGIN, from eta_upper on (eta_upper - eta_star
    is the certified gap). A value above 1 means no physical efficiency steers.
    """

    eta_star: float
    eta_upper: float
    model: np.ndarray = field(repr=False)
    functional: SteeringFunctional
    problem: TableProblem
    iterations: int
    tangent: np.ndarray = field(repr=False)

    def verdict_at(self, eta):
        """Verdict on problem.table_at(eta), with its certificate.

        'feasible' carries hidden states of the table at eta. Up to
        eta_star it is the eta_star model mixed with the product model of
        the eta = 0 table, PSD by construction. Inside the certified gap it
        is the eta_star model moved along tangent, kept if
        verify_hidden_states passes it to MODEL_TOL (a table on the cone's
        boundary, such as eta = 1 with one effective setting, is decided
        this way). From eta_upper on, where the functional beats its bound
        by FUNCTIONAL_MARGIN and a rounding unit, 'infeasible' carries it
        if it wins. Otherwise the verdict is 'indeterminate', with none.
        """
        if not 0.0 <= eta <= 1.0:
            raise ValidationError(f"eta must be in [0, 1], got {eta}")
        if eta <= self.eta_star:
            share = eta / self.eta_star if eta < self.eta_star else 1.0
            return "feasible", (share * self.model + (1.0 - share)
                                * _product_model(self.problem))
        if eta >= self.eta_upper:
            if _beats_bound(self.functional, self.problem.table_at(eta)):
                return "infeasible", self.functional
            return "indeterminate", None
        model = self.model + (eta - self.eta_star) * self.tangent
        if verify_hidden_states(model, self.problem, eta) <= MODEL_TOL:
            return "feasible", model
        return "indeterminate", None


def _beats_bound(func: SteeringFunctional, table, spare=0):
    """Whether table violates func by the relative FUNCTIONAL_MARGIN, and
    by spare rounding units of func.value (eps sum |F M| each) besides."""
    terms = func.coefficients * _marginals(table)
    value = float(terms.sum())
    return value > (func.bound + spare * np.finfo(float).eps
                    * float(np.abs(terms).sum()) + FUNCTIONAL_MARGIN
                    * max(1.0, abs(value), abs(func.bound)))


def _first_violation(func: SteeringFunctional, problem, eta, slope):
    """First eta from which func beats its bound by FUNCTIONAL_MARGIN and a
    rounding unit of func.value (its rounding stays under half a unit, so no
    larger eta reads otherwise): from its crossing, in doubling steps."""
    upper = eta + (func.bound - func.value(problem.table_at(eta)) + (
        FUNCTIONAL_MARGIN * max(1.0, abs(func.bound)))) / slope
    step = math.ulp(upper)
    while not _beats_bound(func, problem.table_at(upper), spare=1):
        upper, step = upper + step, 2.0 * step
    return upper


def _max_eta(problems, label=""):
    """Primal-dual interior-point method for max eta s.t. A(X) = b + eta d,
    for each of a list of problems: one ExperimentEfficiency each.

    A(X) = sum_k c_k phi(X_k)^T over PSD X_k: c_k = (D_k(+|x), 1) are the
    strategy rows, phi(X) = (b_y^dag X b_y, tr X) the trusted-side
    functionals reduced to a basis of their span. The dual y (min y^T b
    s.t. S = A*(y) PSD, y^T d = -1) is a steering functional. Nesterov-Todd
    scaling W = R R^dag, R^-1 X R^-dag = R^dag S R = Lambda diagonal (Todd,
    Toh & Tutuncu, SIAM J. Optim. 8, 1998), and Mehrotra's
    predictor-corrector from an infeasible start, as in CVXOPT's cone
    solvers (Vandenberghe, 2010); X and S are held as factors that each step
    multiplies by a Cholesky factor of a definite matrix. Below a duality
    gap of GAP_TOL / 10 (margins and rounding, not the iterate, then set the
    interval) an iterate is taken if its hidden states pass
    verify_hidden_states at eta_star (eta moved to where y values their own
    table) and y, bounded by lhs_bound, is violated from an eta_upper with
    0 < eta_upper - eta_star <= GAP_TOL. The solve raises after ITERATION_CAP,
    or below a gap of GAP_TOL once y's rounding unit in eta (eps sum |F M| /
    slope) exceeds GAP_TOL, as float64 then holds no such interval; label
    leads either message, and a raise ends the whole stack. The tangent
    F_k D_k F_k^dag (a QR in the final factor F) follows the table per unit
    eta with the least relative change. The problems share one basis and
    m, and form one stack: each keeps its own step, centering and iteration
    count, and is masked out once taken. Stacked products are matmuls of
    [..., None] views, so each problem meets the BLAS calls of a
    one-problem solve.
    """
    basis = problems[0].basis
    dim, n = basis.shape
    rows = _strategy_rows(problems[0].m)
    n_strat, count = rows.shape[0], len(problems)
    # functionals as real vectors over (Re X, Im X), then reduced
    mats = np.concatenate([np.einsum('ay,by->yab', basis, basis.conj()),
                           np.eye(dim)[None]])
    phi = np.hstack([mats.real.reshape(n + 1, -1),
                     mats.imag.reshape(n + 1, -1)])
    u, sv, _ = np.linalg.svd(phi, full_matrices=True)
    rank = int((sv > 1e-12 * sv[0]).sum())
    red, perp = u[:, :rank], u[:, rank:]
    t0 = np.array([_marginals(p.table_vacuum) for p in problems])
    td = np.array([_marginals(p.table_steered) for p in problems]) - t0
    if np.abs(np.hstack([t0, td]) @ perp).max(initial=0.0) > 1e-9:
        raise ValidationError("the table lies outside what any hidden state "
                              "on this trusted-side space can produce")
    mats = np.einsum('jk,jab->kab', red, mats)
    target0, target_d = ((t @ red).reshape(count, -1) for t in (t0, td))
    size = target0.shape[1]

    def dagger(a):
        return np.conj(np.swapaxes(a, -1, -2))

    def dot(a, b):      # a_i . b_i along the last axis, per problem i
        return (a[..., None, :] @ b[..., None])[..., 0, 0]

    def apply(mat, v):  # mat_i v_i, per problem i
        return (mat @ v[..., None])[..., 0]

    def jacobian(factor):
        """Constraints' derivative in scaled coordinates F D F^dag."""
        lead = factor.shape[:-3]
        scaled = np.einsum('...lba,kbc,...lcd->...lkad', factor.conj(), mats,
                           factor)
        return np.einsum('li,...lkp->...iklp', rows, np.concatenate(
            [scaled.real, scaled.imag], -2).reshape(lead + (
                n_strat, rank, -1))).reshape(lead + (size, -1))

    def scaled_change(move):
        """Hermitian D_k of moves (last axis) in scaled coordinates."""
        parts = move.reshape(move.shape[:-1] + (n_strat, 2, dim, dim))
        d = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
        return 0.5 * (d + dagger(d))

    def vector(blocks):     # inverse of scaled_change on Hermitian D
        return np.stack([blocks.real, blocks.imag], -3).reshape(
            len(blocks), -1)

    def direction(rc, scale):
        """Moves dx, ds, T dy and d_eta of J dx - d_eta d = scale r_p, ds =
        J^T dy + scale r_d, d^T dy = scale r_e, dx + ds = rc (J^T = Q T)."""
        g = rc - scale[:, None] * res_d
        z = apply(ortho.transpose(0, 2, 1), g) - scale[:, None] * solved_p
        d_eta = (dot(solved_d, z) - scale * res_e) / dot(solved_d, solved_d)
        z -= d_eta[:, None] * solved_d
        dx = g - apply(ortho, z)
        return np.stack([dx, rc - dx], axis=1), z, d_eta

    def relative(moves):
        """Lambda^-1/2 D Lambda^-1/2 of the moves, and the least eigenvalue:
        a step s keeps the cone iff 1 + s least > 0."""
        blocks = scaled_change(moves) / np.sqrt(
            lam[:, None, :, :, None] * lam[:, None, :, None, :])
        return blocks, np.linalg.eigvalsh(blocks).min(axis=(1, 2, 3))

    def certified(p, iterations):
        problem = problems[ids[p]]
        coefficients = -y[p].reshape(-1, rank) @ red.T
        slope = float((coefficients * td[ids[p]]).sum())
        if slope <= 0.0:
            return None
        eta_star = float(eta[p] + (y[p] @ res_p[p]) / slope)
        unit = np.finfo(float).eps * float(np.abs(coefficients * _marginals(
            problem.table_at(eta_star))).sum()) / slope
        if unit > GAP_TOL:
            raise IndeterminateFeasibilityError(
                f"{label}rounding unit {unit:.2e} in eta exceeds GAP_TOL "
                f"{GAP_TOL:g}")
        if gap[p] > 0.1 * GAP_TOL:
            return None
        func = SteeringFunctional(coefficients, lhs_bound(coefficients,
                                                          basis))
        eta_upper = _first_violation(func, problem, eta_star, slope)
        lx = factors[p, 0]
        model = lx @ dagger(lx)
        if not (eta_star < eta_upper <= eta_star + GAP_TOL and
                verify_hidden_states(model, problem, eta_star) <= MODEL_TOL):
            return None
        ortho, tri = np.linalg.qr(jacobian(lx).T)
        move = scaled_change(ortho @ np.linalg.solve(tri.T, target_d[p]))
        return ExperimentEfficiency(
            eta_star=eta_star, eta_upper=eta_upper, model=model,
            functional=func, problem=problem, iterations=iterations,
            tangent=lx @ move @ dagger(lx))

    # factors F_k, G_k of X_k = F_k F_k^dag and S_k = G_k G_k^dag
    nu, eye = n_strat * dim, np.eye(dim)
    factors = np.broadcast_to(np.stack([eye / math.sqrt(nu), eye])[:, None]
                              + 0j, (count, 2, n_strat, dim, dim))
    y, eta = np.zeros((count, size)), np.zeros(count)
    ids, results = np.arange(count), [None] * count
    for iterations in range(ITERATION_CAP + 1):
        # NT scaling from G^dag F = U Lambda V^dag: R = F V Lambda^-1/2; in
        # its coordinates X and S are both Lambda
        left, lam, right = np.linalg.svd(dagger(factors[:, 1]) @ factors[:, 0])
        rotations = np.stack([dagger(right), left], axis=1)
        lam_vec = vector(lam[..., None] * eye)
        jac = jacobian(factors[:, 0] @ rotations[:, 0]
                       / np.sqrt(lam)[..., None, :])
        res_p = target0 + eta[:, None] * target_d - apply(jac, lam_vec)
        gap = dot(lam_vec, lam_vec)
        for p in np.flatnonzero(gap <= GAP_TOL):
            results[ids[p]] = certified(p, iterations)
        live = np.array([results[i] is None for i in ids])
        if not live.any():
            return results
        if not live.all():
            (ids, factors, y, eta, target0, target_d, rotations, lam, lam_vec,
             jac, res_p, gap) = (a[live] for a in (
                 ids, factors, y, eta, target0, target_d, rotations, lam,
                 lam_vec, jac, res_p, gap))
        res_d, res_e = apply(jac.transpose(0, 2, 1), y) - lam_vec, -1.0 - dot(
            target_d, y)
        ortho, tri = np.linalg.qr(jac.transpose(0, 2, 1))
        solved_p, solved_d = np.linalg.solve(tri.transpose(0, 2, 1), np.stack(
            [res_p, target_d], axis=-1)).transpose(2, 0, 1)
        # predictor: the affine move, whose reach sets the centering; sigma
        # takes libm's pow, as numpy's vector pow may round otherwise
        moves, _, _ = direction(-lam_vec, np.ones(len(gap)))
        reach = np.minimum(1.0, 1.0 / np.maximum(-relative(moves)[1], 1e-300))
        sigma = np.array([min(1.0, max(0.0, v)) ** 3 for v in (
            1.0 - reach + reach * reach * dot(moves[:, 0], moves[:, 1])
            / gap).tolist()])
        # corrector: lambda o (dx + ds) = sigma mu e - lambda o lambda -
        # dx_a o ds_a, elementwise for the diagonal lambda
        blocks = scaled_change(moves)
        cross = blocks[:, 0] @ blocks[:, 1]
        cross = (cross + dagger(cross)) / (lam[..., None] + lam[:, :, None])
        mu = sigma * gap / nu
        moves, z, d_eta = direction(vector(
            (mu[:, None, None] / lam - lam)[..., None] * eye - cross),
            1.0 - sigma)
        blocks, least = relative(moves)
        step = np.minimum(1.0, 0.99 / np.maximum(-least, 1e-300))
        factors = factors @ rotations @ np.linalg.cholesky(
            eye + step[:, None, None, None, None] * blocks)
        y = y + step[:, None] * np.linalg.solve(tri, z[..., None])[..., 0]
        eta = eta + step * d_eta
    raise IndeterminateFeasibilityError(f"{label}no certified interval after "
                                        f"{ITERATION_CAP} iterations")


def experiment_critical_eta(r_a=DEFAULT_R_A, alice_phases=RESOLUTION_PHASES,
                            r_b=DEFAULT_R_B, space="fock", visibility=1.0):
    """Largest efficiency at which the joint click table admits an LHS model.

    The trusted side is seen only through its four displacement detectors,
    acting on photon-number space (space='fock', exact through the Gram
    matrix of the coherent states) or on the 0-1 subspace (space='qubit',
    the assemblage problem). Solved directly, as a stack of one (_max_eta),
    by a primal-dual interior-point method, no bisection; the answer carries
    hidden states at eta_star and a steering functional violated from
    eta_upper on, at most GAP_TOL above eta_star, or the solve raises
    IndeterminateFeasibilityError. The defaults are the reference amplitude
    r_A = 0.233 and the m = 4 ladder.
    """
    return _max_eta([TableProblem.from_model(
        r_a, alice_phases, r_b, space, visibility)], f"r_A={r_a}: ")[0]


# --- phase optimization ------------------------------------------------------

def canonical_phases(phases):
    """Rotation/relabeling-invariant form: subtract the first, sort ascending."""
    arr = np.asarray(phases, dtype=float)
    return tuple(np.sort((arr - arr[0]) % TWO_PI))


def ladder_distance(phases):
    """Max circular distance of canonicalized phases from the uniform ladder."""
    rel = np.asarray(canonical_phases(phases))
    ladder = np.arange(rel.size) * TWO_PI / rel.size
    diff = np.abs(rel - ladder)
    return float(np.minimum(diff, TWO_PI - diff).max())


@dataclass(frozen=True)
class RestartRecord:
    start_phases: tuple
    end_phases: tuple
    eta_star_start: float
    eta_star_end: float


@dataclass(frozen=True)
class PhaseOptimum:
    phases: tuple
    eta_star: float
    restarts: tuple


def _pattern_search(score, start):
    """Compass search of score from start (Kolda, Lewis & Torczon,
    "Optimization by direct search", SIAM Review 45, 2003).

    The pattern is +-e_i and +-e_i +- e_j for every pair i < j, scaled by
    the step h; one stacked call of score rates every candidate. The best
    candidate is taken if it improves, otherwise h is halved, until h drops
    below PATTERN_TOL or PATTERN_CAP iterations have run. The pair sums
    e_i + e_j matter: the surrogate is a maximum over strategies, and
    without them the search stalls on its kinks (at m = 6, 0-1 of 10
    restarts ended within 0.05 rad of the ladder, against 6-9 with them).
    """
    eye = np.eye(start.size)
    i, j = np.triu_indices(start.size, 1)
    pattern = np.vstack([eye, eye[i] + eye[j], eye[i] - eye[j]])
    pattern = np.vstack([pattern, -pattern])
    x, value, h = start, score(start), PATTERN_STEP
    for _ in range(PATTERN_CAP):
        if h < PATTERN_TOL:
            break
        candidates = x + h * pattern
        values = score(candidates)
        k = int(np.argmin(values))
        if values[k] < value:
            x, value = candidates[k], values[k]
        else:
            h *= 0.5
    return x


def optimize_phases(r_a=DEFAULT_R_A, m=4, restarts=10, seed=0):
    """Search measurement phases minimizing the critical efficiency.

    Each restart draws m phases uniformly in [0, 2 pi) from the stdlib
    random.Random(seed), restart by restart, and runs _pattern_search from
    them (steps PATTERN_STEP = 0.3 rad down to PATTERN_TOL = 1e-3 rad) on
    the closed-form qubit bound of the family adapted to them (same
    minimizer as eta*, see module docstring). Then _max_eta solves the
    assemblage eta* (space='qubit') of every start and end, in stacks of
    STACK_STRATEGIES // 2^m problems (20 at m = 4; one from m = 9), so peak
    memory does not grow with restarts. The best of them is returned, so the
    result never loses to its own start. The defaults are the reference
    amplitude r_A = 0.233 and m = 4.
    """
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    draw = random.Random(int(check_seed(seed))).uniform
    family = InequalityFamily(m=m)
    pairs = []
    for _ in range(restarts):
        start = np.array([draw(0.0, TWO_PI) for _ in range(m)])
        pairs += [tuple(start), tuple(_pattern_search(
            lambda p: qubit_bound(family, p), start) % TWO_PI)]
    etas, per_stack = [], max(1, STACK_STRATEGIES >> m)
    for i in range(0, len(pairs), per_stack):
        etas += [res.eta_star for res in _max_eta([TableProblem.from_model(
            r_a, phases, space="qubit") for phases in pairs[i:i + per_stack]],
            f"r_A={r_a}: ")]
    best = min(range(len(pairs)), key=etas.__getitem__)
    return PhaseOptimum(pairs[best], etas[best], tuple(
        RestartRecord(*pairs[i:i + 2], *etas[i:i + 2])
        for i in range(0, len(pairs), 2)))
