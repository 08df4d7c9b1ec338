"""Local-hidden-state certification of the click table, and phase optimization.

A joint click table p(ab|xy) admits a local-hidden-state (LHS) model iff
there are trusted-side states sigma_lambda >= 0, one per deterministic
outcome assignment lambda of the untrusted side, with

    sum_lambda D_lambda(a|x) tr(Pi_{b|y} sigma_lambda) = p(ab|xy).

The trusted side is seen only through the no-click projectors
|alpha_y><alpha_y| of its four displacement detectors. With space='fock'
the hidden states live anywhere in photon-number space and enter through
their compression onto the span of the |alpha_y> (exact coordinates from
fock_ops.trusted_basis, no cutoff) plus a weight outside it. With
space='qubit' they are confined to the 0-1 subspace, where the table fixes
the conditional states sigma_{+|x} and sigma_R completely: that is the
assemblage problem.

The table is exactly linear in the efficiency eta, so the critical
efficiency eta* (the largest eta with an LHS model) is one conic program,
maximized directly by a barrier method with no bisection. The solve
returns both certificates: hidden states that reproduce the table at
eta_star, checked by verify_hidden_states, and a probability-level
steering functional in the format of the family's inequality
(inequality.SteeringFunctional), whose exact LHS bound (lhs_bound) is a
maximum of small eigenvalue problems, violated above eta_upper. A verdict
at a fixed eta follows from the same solve
(ExperimentEfficiency.verdict_at): feasible wherever the eta_star model
extends to a checked model at eta (always up to eta_star), infeasible
above eta_upper by a margin, indeterminate otherwise.

Measurement phases are optimized by scipy's Nelder-Mead; the simplex
objective is the closed-form qubit bound of the family adapted to the
candidate phases (a smooth surrogate sharing its minimizer, the equally
spaced ladder, with the critical efficiency, at no conic solve per
vertex). The reported eta* is always the critical efficiency of the actual
candidate phases.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .errors import (IndeterminateFeasibilityError, ValidationError,
                     check_seed)
from .fock_ops import RESOLUTION_PHASES, TWO_PI, trusted_basis
from .inequality import (DEFAULT_R_B, InequalityFamily, SteeringFunctional,
                         _marginals, _strategy_rows, deterministic_strategies,
                         lhs_bound, qubit_bound)
from .quantum_model import ModelConfig, joint_probabilities

GAP_TOL = 1e-8            # width of the certified eta interval
MODEL_TOL = 1e-9          # largest verify_hidden_states error of a model
FUNCTIONAL_MARGIN = 1e-10  # relative margin a functional must win by
FALLBACK_GAP = 1e-6       # widest interval returned when the barrier stalls
CENTERING_TOL = 1e-2      # Newton decrement that ends a centering
BARRIER_GROWTH = 10.0
NEWTON_CAP = 2000


@dataclass(frozen=True)
class TableProblem:
    """LHS problem of the joint click table, linear in eta.

    table_vacuum / table_steered are p[a, b, x, y] at eta = 0 and 1. The
    trusted side enters only through its no-click vectors (see
    trusted_basis): a hidden state sigma yields tr(Pi_y sigma) =
    b_y^dag X b_y and trace tr X + w, X its compression onto the basis and
    w >= 0 its weight outside (allowed only when outside is True).
    """

    table_vacuum: np.ndarray = field(repr=False)
    table_steered: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    outside: bool

    @property
    def m(self):
        return self.table_vacuum.shape[2]

    def table_at(self, eta):
        return eta * self.table_steered + (1.0 - eta) * self.table_vacuum

    @classmethod
    def from_model(cls, r_a, alice_phases, r_b=DEFAULT_R_B, space="fock",
                   visibility=1.0):
        basis, outside = trusted_basis(r_b, space)
        tables = [joint_probabilities(ModelConfig(
            eta=eta, r_a=r_a, r_b=r_b, alice_phases=tuple(alice_phases),
            bob_phases=RESOLUTION_PHASES, visibility=visibility)).probs
            for eta in (0.0, 1.0)]
        return cls(table_vacuum=tables[0], table_steered=tables[1],
                   basis=basis, outside=outside)


@dataclass(frozen=True)
class HiddenStateModel:
    """Hidden states of the trusted side, one per deterministic strategy.

    blocks[k] is the compression of sigma_k onto the problem's basis and
    weights[k] its trace outside it (all zero when outside is barred).
    """

    blocks: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _lhs_table(model: HiddenStateModel, problem: TableProblem):
    """Joint table p[a, b, x, y] that a hidden-state model predicts."""
    strat = deterministic_strategies(problem.m).astype(float)
    basis = problem.basis
    q = np.einsum('ay,kab,by->ky', basis.conj(), model.blocks, basis).real
    tr = np.trace(model.blocks, axis1=1, axis2=2).real + model.weights
    probs = np.empty((2, 2, problem.m, basis.shape[1]))
    for a, d in enumerate((strat, 1.0 - strat)):
        probs[a, 0] = d.T @ q
        probs[a, 1] = d.T @ (tr[:, None] - q)
    return probs


def verify_hidden_states(model: HiddenStateModel, problem: TableProblem, eta):
    """Worst violation, by direct arithmetic, of the model at efficiency eta.

    Covers the mismatch with the model's table p(ab|xy), the PSD deficit of
    the blocks, negative outside weights and, when the problem bars weight
    outside its basis, any such weight.
    """
    mismatch = float(np.abs(_lhs_table(model, problem)
                            - problem.table_at(eta)).max())
    psd_deficit = -float(np.linalg.eigvalsh(model.blocks).min())
    weights = model.weights
    weight_fault = (-float(weights.min()) if problem.outside
                    else float(np.abs(weights).max()))
    return max(mismatch, psd_deficit, weight_fault, 0.0)


def _product_model(problem: TableProblem):
    """Hidden states of the eta = 0 table, which is a product table.

    At eta = 0 both modes hold vacuum: the untrusted side answers every
    setting x independently, + with probability p_A(+|x), and the trusted
    side holds |0>, whose overlap with each no-click vector |alpha_y> is the
    real sqrt(p_B(+|y)). Strategy k carries prod_x p_A(D_k(x)|x) times
    |0><0|, held as its compression onto the basis plus its weight outside.
    """
    summary = _marginals(problem.table_vacuum)
    m, n = problem.m, problem.basis.shape[1]
    p_a = summary[:m, n]
    weights = np.prod(np.where(deterministic_strategies(m), p_a, 1.0 - p_a),
                      axis=1)
    vacuum = np.linalg.lstsq(problem.basis.conj().T,
                             np.sqrt(summary[m, :n]).astype(complex),
                             rcond=None)[0]
    outside = (max(0.0, 1.0 - float(np.vdot(vacuum, vacuum).real))
               if problem.outside else 0.0)
    return HiddenStateModel(
        blocks=weights[:, None, None] * np.outer(vacuum, vacuum.conj()),
        weights=weights * outside)


@dataclass(frozen=True)
class ExperimentEfficiency:
    """Critical efficiency of the joint table, decided from both sides.

    model reproduces problem.table_at(eta_star); functional is violated by
    the table at every eta above eta_upper (eta_upper - eta_star is the
    certified gap). A value above 1 means no physical efficiency steers.
    """

    eta_star: float
    eta_upper: float
    model: HiddenStateModel
    functional: SteeringFunctional
    problem: TableProblem
    newton_steps: int
    tangent: HiddenStateModel = field(repr=False)

    def verdict_at(self, eta):
        """Verdict on problem.table_at(eta), with its certificate.

        'feasible' carries a HiddenStateModel of the table at eta. Up to
        eta_star it is the eta_star model mixed with the product model of
        the eta = 0 table, PSD by construction. Inside the certified gap it
        is the eta_star model moved along tangent, which reproduces the
        table exactly and is kept if verify_hidden_states passes it to
        MODEL_TOL (a table on the cone's boundary, such as eta = 1 with one
        effective setting, is decided this way). 'infeasible' (eta above
        eta_upper) carries the functional, whose value on that table beats
        its bound in direct arithmetic by a relative FUNCTIONAL_MARGIN.
        Otherwise the verdict is 'indeterminate', with no certificate.
        """
        if not 0.0 <= eta <= 1.0:
            raise ValidationError(f"eta must be in [0, 1], got {eta}")
        if eta <= self.eta_star:
            share = eta / self.eta_star if eta < self.eta_star else 1.0
            vacuum = _product_model(self.problem)
            return "feasible", HiddenStateModel(
                blocks=share * self.model.blocks
                + (1.0 - share) * vacuum.blocks,
                weights=share * self.model.weights
                + (1.0 - share) * vacuum.weights)
        if eta <= self.eta_upper:
            step = eta - self.eta_star
            model = HiddenStateModel(
                blocks=self.model.blocks + step * self.tangent.blocks,
                weights=self.model.weights + step * self.tangent.weights)
            if verify_hidden_states(model, self.problem, eta) <= MODEL_TOL:
                return "feasible", model
            return "indeterminate", None
        func = self.functional
        value = func.value(self.problem.table_at(eta))
        if value > func.bound + FUNCTIONAL_MARGIN * max(1.0, abs(value),
                                                        abs(func.bound)):
            return "infeasible", func
        return "indeterminate", None


def _max_eta(problem: TableProblem):
    """Barrier method for max eta s.t. sum_k c_k phi(X_k, w_k)^T = M(eta).

    c_k = (D_k(+|x), 1) are the strategy rows and phi(X, w) = (b_y^dag X b_y,
    tr X + w) the trusted-side functionals, reduced to an orthonormal basis
    of their span. Infeasible-start Newton on -t eta - sum log det X_k -
    sum log w_k; every centering ends with a certified interval, and t
    grows until the interval is narrower than GAP_TOL. The last growth is
    capped to land the gap near GAP_TOL / 2, short of the large t at which
    Newton steps stall. Should a centering still fail (step cap, eta past a
    proven upper bound, or hidden states off the table), the last certified
    interval is returned if it is at most FALLBACK_GAP wide. Each certified
    iterate carries a tangent: the change per unit eta of its hidden states
    that follows the table with the least relative change, F_k D_k F_k^dag,
    so X_k + s F_k D_k F_k^dag stays PSD for small s even where X_k is
    nearly singular.
    """
    basis, outside = problem.basis, problem.outside
    dim, n = basis.shape
    rows = _strategy_rows(problem.m)
    n_strat = rows.shape[0]
    # functionals as real vectors over (Re X, Im X, w), then reduced
    mats = np.concatenate([np.einsum('ay,by->yab', basis, basis.conj()),
                           np.eye(dim)[None]])
    outs = np.zeros(n + 1)
    outs[n] = 1.0 if outside else 0.0
    phi = np.hstack([mats.real.reshape(n + 1, -1),
                     mats.imag.reshape(n + 1, -1), outs[:, None]])
    u, sv, _ = np.linalg.svd(phi, full_matrices=True)
    rank = int((sv > 1e-12 * sv[0]).sum())
    red, perp = u[:, :rank], u[:, rank:]
    t0, td = _marginals(problem.table_vacuum), _marginals(problem.table_steered)
    td = td - t0
    if max(np.abs(t0 @ perp).max(initial=0.0),
           np.abs(td @ perp).max(initial=0.0)) > 1e-9:
        raise ValidationError("the table lies outside what any hidden state "
                              "on this trusted-side space can produce")
    mats = np.einsum('jk,jab->kab', red, mats)
    outs = outs @ red
    target0, target_d = (t0 @ red).ravel(), (td @ red).ravel()
    size = target0.size

    def amap(x, w):
        vals = np.einsum('kab,lba->lk', mats, x).real + w[:, None] * outs
        return (rows.T @ vals).ravel()

    def hidden(factor):
        return factor @ np.conj(np.swapaxes(factor, 1, 2))

    def jacobian(factor, w):
        """Constraints' derivative in scaled coordinates F D F^dag, w d_w."""
        scaled = np.einsum('lba,kbc,lcd->lkad', factor.conj(), mats, factor)
        jac = np.einsum('li,lkp->iklp', rows, np.concatenate(
            [scaled.real, scaled.imag], axis=2).reshape(
                n_strat, rank, -1)).reshape(size, -1)
        if outside:
            jac = np.hstack([jac, np.einsum(
                'li,k,l->ikl', rows, outs, w).reshape(size, -1)])
        return jac

    coords = n_strat * 2 * dim * dim

    def scaled_change(move):
        """Hermitian D_k and d_w of a move in scaled coordinates."""
        parts = move[:coords].reshape(n_strat, 2, dim, dim)
        d = parts[:, 0] + 1j * parts[:, 1]
        return 0.5 * (d + np.conj(np.swapaxes(d, 1, 2))), move[coords:]

    # X_k = F_k F_k^dag; each step multiplies F_k by a Cholesky factor of
    # a definite matrix, so rounding can never make a hidden state indefinite
    share = 1.0 / (n_strat * (dim + outside))
    factor = np.broadcast_to(math.sqrt(share) * np.eye(dim, dtype=complex),
                             (n_strat, dim, dim)).copy()
    w = np.full(n_strat, share if outside else 0.0)
    eta, t, steps, feasible = 0.0, 1.0, 0, False
    certified = None
    while True:
        stall = None
        while True:
            if steps >= NEWTON_CAP:
                stall = f"more than {NEWTON_CAP} Newton steps"
                break
            steps += 1
            # Newton step in scaled coordinates X + F D F^dag, w (1 + d_w):
            # it is the minimum-norm solution of the linearized constraints
            # plus a multiple of the eta direction, so one least-squares
            # solve of the constraint Jacobian gives it
            jac = jacobian(factor, w)
            rhs = target0 + eta * target_d - 2.0 * amap(hidden(factor), w)
            p, q = np.linalg.lstsq(jac, np.column_stack([rhs, target_d]),
                                   rcond=None)[0].T
            d_eta = (t - p @ q) / (q @ q)
            move = p + d_eta * q
            change, d_w = scaled_change(move)
            delta = np.eye(dim) + change
            rel = np.linalg.eigvalsh(delta).ravel()
            if outside:
                rel = np.append(rel, 1.0 + d_w)
            decrement = math.sqrt(float(rel @ rel))
            if feasible:
                # damped Newton on a self-concordant function: stays inside
                # the cones and decreases it, with no line search
                step = 1.0 if decrement <= 0.25 else 1.0 / (1.0 + decrement)
            else:
                step = min(1.0, 0.99 / max(-float(rel.min()), 1e-300))
            factor = factor @ np.linalg.cholesky(np.eye(dim) + step * delta)
            if outside:
                w = w * (1.0 + step * (1.0 + d_w))
            eta += step * d_eta
            feasible = feasible or step == 1.0
            if certified is not None and eta > certified.eta_upper:
                stall = f"eta={eta:.9f} passed its proven upper bound"
                break
            if feasible and decrement <= CENTERING_TOL:
                break
        if stall is None:
            nu = np.linalg.lstsq(jac.T, -move, rcond=None)[0].reshape(-1, rank)
            coefficients = -(nu / t) @ red.T
            func = SteeringFunctional(coefficients=coefficients,
                                      bound=lhs_bound(coefficients, basis,
                                                      outside))
            slope_d = float((coefficients * td).sum())
            eta_upper = (eta + (func.bound - func.value(problem.table_at(eta)))
                         / slope_d if slope_d > 0.0 else math.inf)
            model = HiddenStateModel(blocks=hidden(factor), weights=w)
            error = verify_hidden_states(model, problem, eta)
            if error > MODEL_TOL:
                stall = (f"hidden states miss the table at eta={eta:.9f} "
                         f"by {error:.2e}")
        if stall is not None:
            if (certified is not None
                    and certified.eta_upper - certified.eta_star
                    <= FALLBACK_GAP):
                return replace(certified, newton_steps=steps)
            raise IndeterminateFeasibilityError(
                f"barrier method stalled at t={t:.3e}: {stall}")
        d_x, d_w = scaled_change(np.linalg.lstsq(
            jacobian(factor, w), target_d, rcond=None)[0])
        tangent = HiddenStateModel(
            blocks=factor @ d_x @ np.conj(np.swapaxes(factor, 1, 2)),
            weights=w * d_w if outside else np.zeros_like(w))
        certified = ExperimentEfficiency(
            eta_star=eta, eta_upper=eta_upper, model=model, functional=func,
            problem=problem, newton_steps=steps, tangent=tangent)
        gap = eta_upper - eta
        if gap <= GAP_TOL:
            return certified
        t *= min(BARRIER_GROWTH, 2.0 * gap / GAP_TOL)


def experiment_critical_eta(r_a, alice_phases, r_b=DEFAULT_R_B,
                            space="fock", visibility=1.0):
    """Largest efficiency at which the joint click table admits an LHS model.

    The trusted side is seen only through its four displacement detectors,
    acting on photon-number space (space='fock', exact through the Gram
    matrix of the coherent states) or on the 0-1 subspace (space='qubit',
    the assemblage problem). Solved directly by a barrier method, no
    bisection; the answer carries hidden states at eta_star and a steering
    functional violated above eta_upper, normally within GAP_TOL of
    eta_star and never more than FALLBACK_GAP above it.
    """
    return _max_eta(TableProblem.from_model(r_a, alice_phases, r_b, space,
                                            visibility))


# --- phase optimization ------------------------------------------------------

def canonical_phases(phases):
    """Rotation/relabeling-invariant form: subtract the first, sort ascending."""
    arr = np.asarray(phases, dtype=float)
    rel = np.sort((arr - arr[0]) % TWO_PI)
    return tuple(rel)


def ladder_distance(phases, m=None):
    """Max circular distance of canonicalized phases from the uniform ladder."""
    rel = np.asarray(canonical_phases(phases))
    m = rel.size if m is None else m
    ladder = np.arange(m) * TWO_PI / m
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


def optimize_phases(r_a, m, restarts=10, seed=0):
    """Search measurement phases minimizing the critical efficiency.

    Random-restart Nelder-Mead over the m phases, each restart's simplex
    spanning the start plus 0.3 rad on each coordinate and stopping once
    every vertex is within 1e-3 rad of the best. The simplex ranks
    candidates by the closed-form qubit bound of the family adapted to them
    (same minimizer as eta*, see module docstring); the assemblage critical
    efficiency (experiment_critical_eta with space='qubit') is then solved
    for every restart's start and end phases, and the best candidate by
    actual eta* is returned, so the result never loses to its own starting
    point. Fully reproducible from the seed.
    """
    from scipy.optimize import minimize

    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.Generator(np.random.Philox(check_seed(seed)))

    def surrogate(phases):
        return qubit_bound(InequalityFamily(m=m, alice_phases=phases))

    def critical(phases):
        return experiment_critical_eta(r_a, phases, space="qubit").eta_star

    records = []
    best = None
    for _ in range(restarts):
        start = rng.uniform(0.0, TWO_PI, size=m)
        end = minimize(surrogate, start, method="Nelder-Mead", options=dict(
            initial_simplex=np.vstack([start, start + 0.3 * np.eye(m)]),
            xatol=1e-3, fatol=np.inf, maxiter=2000)).x
        eta_start = critical(tuple(start))
        eta_end = critical(tuple(end % TWO_PI))
        rec = RestartRecord(start_phases=tuple(start),
                            end_phases=tuple(end % TWO_PI),
                            eta_star_start=eta_start, eta_star_end=eta_end)
        records.append(rec)
        for phases, eta in ((rec.start_phases, eta_start),
                            (rec.end_phases, eta_end)):
            if best is None or eta < best[1]:
                best = (phases, eta)
    return PhaseOptimum(phases=best[0], eta_star=best[1],
                        restarts=tuple(records))
