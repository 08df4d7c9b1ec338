"""Experimental data pipeline.

Ingests phase-sweep click counts, estimates probabilities, fits each outcome
pair to a cosine, extracts the 4x4 setting table through the relative-phase
permutation construction, evaluates the inequality margin S - S_max, and
propagates counting and local-oscillator-amplitude uncertainty by Monte
Carlo resampling, drawn as whole arrays in fixed chunks of runs with one
seeded random stream per chunk.

Counts file format: UTF-8, line oriented; full-line comments start with '#';
data lines are `phase_radians N_pp N_pm N_mp N_mm` whitespace separated with
phases strictly ascending. Results file: key=value lines followed by a
histogram block of `bin_lo bin_hi count` rows.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (ExtractionError, FitError, ParseError, ValidationError,
                     check_seed)
from .fock_ops import RESOLUTION_PHASES, TWO_PI
from .inequality import (DEFAULT_R_B, InequalityFamily,
                         build_probability_inequality, evaluate_steering,
                         stacked_inequality)
from .quantum_model import ProbabilityTable

OUTCOME_LABELS = ("pp", "pm", "mp", "mm")
NEAREST_POINT_TOL = 0.05      # rad; max distance of a sweep sample to a setting
GRID_SPACING = 1e-4           # r_B spacing of the cached bound grid
MC_CHUNK = 2048               # runs per seeded random stream; fixed


# --- counts ingestion --------------------------------------------------------

@dataclass(frozen=True)
class CountsRecord:
    """Phase-sweep click counts: one row of four outcome counts per phase."""

    phases: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if phases.ndim != 1 or counts.shape != (phases.size, 4):
            raise ValidationError(
                f"counts shape {counts.shape} does not match "
                f"{phases.size} phases x 4 outcomes")
        if phases.size < 4:
            raise ValidationError(
                f"at least 4 phase points required, got {phases.size}")
        if np.any(np.diff(phases) <= 0.0):
            raise ValidationError("phases must be strictly ascending")
        if counts.min() < 0:
            raise ValidationError("counts must be non-negative")
        if counts.sum(axis=1).min() < 1:
            raise ValidationError("every row needs a total of at least 1")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "counts", counts)

    @property
    def n_points(self):
        return self.phases.size


def load_counts(path):
    """Parse a counts file into a CountsRecord.

    Malformed rows, negative counts, zero-total rows and non-ascending
    phases raise ParseError carrying the offending line number.
    """
    phases = []
    counts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 5:
                raise ParseError(
                    f"expected 5 fields (phase + 4 counts), got "
                    f"{len(tokens)}", line=lineno)
            try:
                phase = float(tokens[0])
            except ValueError:
                raise ParseError(f"invalid phase {tokens[0]!r}", line=lineno)
            if not math.isfinite(phase):
                raise ParseError(f"non-finite phase {tokens[0]!r}", line=lineno)
            row = []
            for tok in tokens[1:]:
                try:
                    value = int(tok)
                except ValueError:
                    raise ParseError(f"invalid count {tok!r}", line=lineno)
                if value < 0:
                    raise ParseError(f"negative count {tok!r}", line=lineno)
                row.append(value)
            if sum(row) < 1:
                raise ParseError("row total must be at least 1", line=lineno)
            if phases and phase <= phases[-1]:
                raise ParseError(
                    f"phase {phase!r} does not ascend past {phases[-1]!r}",
                    line=lineno)
            phases.append(phase)
            counts.append(row)
    if len(phases) < 4:
        raise ParseError(f"file has {len(phases)} data rows; at least 4 "
                         "phase points are required")
    return CountsRecord(phases=np.array(phases), counts=np.array(counts))


def write_counts(path, record: CountsRecord, header=None):
    """Write a CountsRecord in the loadable counts format."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append("# phase_radians N_pp N_pm N_mp N_mm")
    for phase, row in zip(record.phases, record.counts):
        lines.append("%.17g %d %d %d %d" % (phase, *row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def probabilities_from_counts(record: CountsRecord):
    """Maximum-likelihood outcome frequencies per phase point, rows sum to 1."""
    totals = record.counts.sum(axis=1, keepdims=True)
    return record.counts / totals


def synthesize_counts(phases, probs, events_per_point, seed=0):
    """Poisson-sample a counts record from per-phase outcome probabilities.

    Each count is drawn as Poisson(events_per_point * p); a row that comes
    out all-zero is redrawn so the record invariant (total >= 1) holds.
    """
    phases = np.asarray(phases, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (phases.size, 4):
        raise ValidationError(
            f"probability array shape {probs.shape} does not match "
            f"{phases.size} phases x 4 outcomes")
    if events_per_point <= 0:
        raise ValidationError("events_per_point must be positive")
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(check_seed(seed))))
    counts = rng.poisson(events_per_point * probs)
    for i in range(phases.size):
        while counts[i].sum() < 1:
            counts[i] = rng.poisson(events_per_point * probs[i])
    return CountsRecord(phases=phases, counts=counts)


# --- cosine fitting ----------------------------------------------------------

@dataclass(frozen=True)
class CosineFit:
    """Per-outcome-pair least-squares fit p(phi) = A + B cos(phi - phi0).

    Arrays are indexed by outcome pair in OUTCOME_LABELS order. B >= 0 is
    canonical; a constant signal reports B = 0 and phi0 = 0. clamped marks
    pairs whose fitted range A +/- B leaves [0, 1].
    """

    offset: np.ndarray
    amplitude: np.ndarray
    phase0: np.ndarray
    rss: np.ndarray
    clamped: np.ndarray
    n_points: int

    def evaluate(self, phase):
        """Fitted outcome-pair values at one phase, shape (4,), unclamped."""
        return self.offset + self.amplitude * np.cos(phase - self.phase0)


def fit_cosine(phases, probs):
    """Fit each outcome pair to A + B cos(phi - phi0) by linear least squares.

    The fit is linear in (A, B cos phi0, B sin phi0). A rank-deficient
    design (too few independent phase points) raises FitError.
    """
    phases = np.asarray(phases, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if phases.size < 4 or np.unique(phases).size < 4:
        raise ValidationError(
            f"at least 4 distinct phases required, got {phases.size}")
    if probs.shape != (phases.size, 4):
        raise ValidationError(
            f"probability array shape {probs.shape} does not match "
            f"{phases.size} phases x 4 outcomes")
    design = np.column_stack(
        [np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, _, rank, _ = np.linalg.lstsq(design, probs, rcond=None)
    if rank < 3:
        raise FitError(
            "phase design is rank-deficient; the swept phases do not "
            "determine amplitude and phase offset")
    offset = coef[0]
    amplitude = np.hypot(coef[1], coef[2])
    phase0 = np.where(amplitude > 1e-14,
                      np.arctan2(coef[2], coef[1]) % TWO_PI, 0.0)
    amplitude = np.where(amplitude > 1e-14, amplitude, 0.0)
    rss = ((design @ coef - probs) ** 2).sum(axis=0)
    clamped = ((offset + amplitude > 1.0 + 1e-12)
               | (offset - amplitude < -1e-12))
    return CosineFit(offset=offset, amplitude=amplitude, phase0=phase0,
                     rss=rss, clamped=clamped, n_points=int(phases.size))


# --- setting-table extraction ------------------------------------------------

def _validate_x_phases(x_phases):
    x_phases = np.asarray(x_phases, dtype=float)
    if x_phases.shape != (4,):
        raise ValidationError(f"x_phases must hold 4 values, got "
                              f"{x_phases.shape}")
    if np.abs(np.diff(x_phases) - np.pi / 2).max() > 1e-6:
        raise ValidationError(
            "x_phases must be spaced pi/2 apart (within 1e-6) for the "
            "permutation construction to apply")
    return x_phases


def _circular_distance(a, b):
    return np.abs((a - b + np.pi) % TWO_PI - np.pi)


def _nearest_rows(phases, x_phases):
    """Index of the sweep row closest to each setting phase (circular
    distance); ExtractionError if one lies beyond NEAREST_POINT_TOL."""
    dist = _circular_distance(phases[None, :], x_phases[:, None])
    for target, gap in zip(x_phases, dist.min(axis=1)):
        if gap > NEAREST_POINT_TOL:
            raise ExtractionError(
                f"no sweep sample within {NEAREST_POINT_TOL} rad of phase "
                f"{target:.6f} (closest is {gap:.4f} rad away)")
    return dist.argmin(axis=1)


def extract_setting_table(source, x_phases, mode="from_fit"):
    """Build the 4x4 setting table from sweep data.

    With both sides' phases on the same pi/2-spaced ladder the joint
    distribution depends only on the relative phase, so cell (x, y) is the
    sweep distribution at relative phase index (x - y) mod 4. mode
    'from_fit' evaluates a CosineFit at the four x_phases; 'nearest_point'
    takes the closest measured sweep row (within 0.05 rad) of a
    CountsRecord. Each cell is clipped to be non-negative and normalized.
    """
    x_phases = _validate_x_phases(x_phases)
    if mode == "from_fit":
        if not isinstance(source, CosineFit):
            raise ValidationError("mode 'from_fit' needs a CosineFit source")
        dists = np.array([source.evaluate(ph) for ph in x_phases])
    elif mode == "nearest_point":
        if not isinstance(source, CountsRecord):
            raise ValidationError(
                "mode 'nearest_point' needs a CountsRecord source")
        dists = probabilities_from_counts(source)[
            _nearest_rows(source.phases, x_phases)]
    else:
        raise ValidationError(
            f"mode must be 'from_fit' or 'nearest_point', got {mode!r}")
    dists = np.clip(dists, 0.0, None)
    totals = dists.sum(axis=1)
    if totals.min() <= 0.0:
        raise ExtractionError("an extracted distribution has no weight")
    dists = dists / totals[:, None]
    table = np.empty((2, 2, 4, 4))
    for x in range(4):
        for y in range(4):
            table[:, :, x, y] = dists[(x - y) % 4].reshape(2, 2)
    anchored = tuple((x_phases % TWO_PI).tolist())
    return ProbabilityTable(probs=table, alice_phases=anchored,
                            bob_phases=anchored)


@dataclass(frozen=True)
class AnalysisReport:
    s_value: float
    delta_s: float
    fit: CosineFit
    table: ProbabilityTable


def evaluate_record(record: CountsRecord, family: InequalityFamily,
                    x_phases=RESOLUTION_PHASES, mode="from_fit"):
    """Full pipeline: counts -> fit -> setting table -> S and S - S_max."""
    if family.m != 4:
        raise ValidationError(
            f"the relative-phase construction needs m = 4, got {family.m}")
    fit = fit_cosine(record.phases, probabilities_from_counts(record))
    source = fit if mode == "from_fit" else record
    table = extract_setting_table(source, x_phases, mode=mode)
    ineq = build_probability_inequality(family)
    s_value, delta_s = evaluate_steering(ineq, table)
    return AnalysisReport(s_value=s_value, delta_s=delta_s, fit=fit,
                          table=table)


# --- Monte Carlo error estimation --------------------------------------------

@dataclass(frozen=True)
class MonteCarloConfig:
    """Resampling controls: run count, the Gaussian spread of the trusted
    amplitude r_B about its mean (0 holds r_B fixed), and the seed."""

    runs: int = 200000
    r_b_mean: float = DEFAULT_R_B
    r_b_sigma: float = 0.005
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.runs, int) or self.runs < 1:
            raise ValidationError(f"runs must be a positive integer, got "
                                  f"{self.runs}")
        for name in ("r_b_mean", "r_b_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got "
                                      f"{getattr(self, name)}")
        if self.r_b_mean <= 0.0:
            raise ValidationError(f"r_b_mean must be positive, got "
                                  f"{self.r_b_mean}")
        if self.r_b_sigma < 0.0:
            raise ValidationError(f"r_b_sigma must be non-negative, got "
                                  f"{self.r_b_sigma}")
        check_seed(self.seed)


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    std: float
    runs: int
    seed: int
    bin_edges: np.ndarray = field(repr=False)
    bin_counts: np.ndarray = field(repr=False)
    binning: str
    gaussian_fit: tuple
    redraws: int
    zero_total_redraws: int
    grid_error: float
    point_estimate: float
    samples: np.ndarray = field(repr=False)


def setting_counts_from_record(record: CountsRecord, x_phases=None):
    """Reduce a sweep record to the four relative-phase count rows.

    A 4-row pi/2-spaced record is used directly; otherwise x_phases selects
    the nearest measured rows (within 0.05 rad each).
    """
    if x_phases is None:
        if record.n_points != 4:
            raise ValidationError(
                f"record has {record.n_points} rows; pass x_phases to "
                "select 4 of them")
        _validate_x_phases(record.phases)
        return record.counts.copy()
    x_phases = _validate_x_phases(x_phases)
    return record.counts[_nearest_rows(record.phases, x_phases)]


def _aggregate_coefficients(ineq):
    """Sum inequality coefficients over the (x, y) cells sharing each
    relative-phase index, so S = sum_j agg[j] . d_j + c0 for tables built by
    the permutation construction."""
    tables = np.stack([ineq.c_pp, ineq.c_pm, ineq.c_mp, ineq.c_mm], axis=-1)
    agg = np.zeros(tables.shape[:-3] + (4, 4))
    for x in range(4):
        for y in range(4):
            agg[..., (x - y) % 4, :] += tables[..., x, y, :]
    return agg


def _coefficient_row(family: InequalityFamily, r_b):
    """Exact coefficient row at r_B: the 16 aggregated coefficients
    (relative-phase index major), c0 and s_max. An array of r_B gives one
    row per entry from one stacked build."""
    ineq = stacked_inequality(family, r_b)
    agg = _aggregate_coefficients(ineq)
    return np.concatenate([agg.reshape(agg.shape[:-2] + (16,)),
                           np.stack([ineq.c0, ineq.s_max], axis=-1)],
                          axis=-1)


def _margin(rows, dists):
    """S - S_max from coefficient rows (..., 18) and relative-phase
    distributions (..., 4, 4)."""
    flat = dists.reshape(dists.shape[:-2] + (16,))
    return (rows[..., :16] * flat).sum(axis=-1) + rows[..., 16] \
        - rows[..., 17]


class _BoundGrid:
    """Coefficient rows (see _coefficient_row) on an r_B grid.

    The inequality is built on a GRID_SPACING-spaced grid spanning +/- 8
    sigma around the mean in one stacked pass (stacked_inequality), with
    every grid point checked as a one-point build is; per-run values are
    linear interpolations. Draws outside the grid fall back to exact
    evaluation, again one stacked pass per chunk. The interpolation error
    is probed at off-grid points and reported.
    """

    def __init__(self, family: InequalityFamily, r_b_mean, r_b_sigma):
        self.family = family
        lo = max(GRID_SPACING, r_b_mean - 8.0 * r_b_sigma)
        hi = max(lo, min(0.999, r_b_mean + 8.0 * r_b_sigma))
        n = int(math.ceil((hi - lo) / GRID_SPACING)) + 1
        self.r_grid = lo + GRID_SPACING * np.arange(n)
        self.rows = _coefficient_row(family, self.r_grid)

    def lookup(self, r_b):
        """Coefficient rows (n, 18) at the r_B values of a 1-D array: linear
        interpolation between grid points, one exact evaluation per distinct
        value off the grid."""
        rows = np.empty((r_b.size, 18))
        i = np.floor((r_b - self.r_grid[0]) / GRID_SPACING)
        inside = (i >= 0) & (i < self.r_grid.size - 1)
        k = i[inside].astype(np.intp)
        w = ((r_b[inside] - self.r_grid[k]) / GRID_SPACING)[:, None]
        rows[inside] = (1.0 - w) * self.rows[k] + w * self.rows[k + 1]
        if not inside.all():
            values, which = np.unique(r_b[~inside], return_inverse=True)
            rows[~inside] = _coefficient_row(self.family, values)[which]
        return rows

    def probe_error(self):
        """Max interpolation error of s_max and coefficients at off-grid
        points straddling the mean."""
        n = self.r_grid.size
        base = [b for b in (n // 2 - 1, n // 2, n // 2 + 1) if 0 <= b < n - 1]
        r = (self.r_grid[base][:, None]
             + np.array([0.25, 0.5, 0.75]) * GRID_SPACING).ravel()
        if r.size == 0:
            return 0.0
        exact = _coefficient_row(self.family, r)
        return float(np.abs(self.lookup(r) - exact).max())


def _resample_chunk(rng, n, base_counts, mc):
    """n runs of Poisson-resampled count rows (n, 4, 4) and Gaussian r_B
    draws, redrawing zero-total rows and non-positive r_B; returns both with
    the two redraw counts."""
    counts = rng.poisson(base_counts, size=(n, 4, 4))
    zero_redraws = 0
    while True:
        run, row = np.nonzero(counts.sum(axis=2) == 0)
        if run.size == 0:
            break
        zero_redraws += run.size
        counts[run, row] = rng.poisson(base_counts[row])
    r_b = rng.normal(mc.r_b_mean, mc.r_b_sigma, size=n)
    redraws = 0
    while True:
        bad = np.flatnonzero(r_b <= 0.0)
        if bad.size == 0:
            break
        redraws += bad.size
        r_b[bad] = rng.normal(mc.r_b_mean, mc.r_b_sigma, size=bad.size)
    return counts, r_b, redraws, zero_redraws


def monte_carlo(counts, family: InequalityFamily, mc: MonteCarloConfig,
                x_phases=None, threads=1):
    """Propagate counting and amplitude uncertainty into S - S_max.

    counts is a CountsRecord (reduced via setting_counts_from_record) or a
    (4, 4) array of relative-phase rows. Per run every count is
    Poisson-resampled, r_B is Gaussian-resampled (non-positive draws
    redrawn and counted), the inequality coefficients and the full-space
    bound are re-evaluated at the drawn r_B through the bound grid (exactly,
    once, when r_b_sigma = 0), and S - S_max is recorded. Runs are drawn in
    fixed MC_CHUNK chunks, each from its own stream keyed on (seed, chunk
    index), so results depend on the config alone. threads is accepted for
    compatibility and changes nothing.
    """
    if family.m != 4:
        raise ValidationError(
            f"the relative-phase construction needs m = 4, got {family.m}")
    if isinstance(counts, CountsRecord):
        base_counts = setting_counts_from_record(counts, x_phases)
    else:
        base_counts = np.asarray(counts)
        if base_counts.shape != (4, 4):
            raise ValidationError(
                f"setting counts must have shape (4, 4), got "
                f"{base_counts.shape}")
        if base_counts.min() < 0:
            raise ValidationError("counts must be non-negative")
        if base_counts.sum(axis=1).min() < 1:
            raise ValidationError("every row needs a total of at least 1")
    base_counts = base_counts.astype(float)

    point = _coefficient_row(family, mc.r_b_mean)
    point_estimate = float(_margin(
        point, base_counts / base_counts.sum(axis=1, keepdims=True)))
    grid = (_BoundGrid(family, mc.r_b_mean, mc.r_b_sigma)
            if mc.r_b_sigma > 0.0 else None)

    samples = np.empty(mc.runs)
    redraws = 0
    zero_redraws = 0
    for chunk, start in enumerate(range(0, mc.runs, MC_CHUNK)):
        stop = min(start + MC_CHUNK, mc.runs)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((mc.seed, chunk))))
        resampled, r_b, rd, zr = _resample_chunk(rng, stop - start,
                                                 base_counts, mc)
        rows = grid.lookup(r_b) if grid is not None else point
        samples[start:stop] = _margin(
            rows, resampled / resampled.sum(axis=2, keepdims=True))
        redraws += rd
        zero_redraws += zr

    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if mc.runs > 1 else 0.0
    bin_counts, bin_edges = np.histogram(samples, bins="fd")
    # a visual aid; the sample std stays the estimate of record
    gaussian = curve_fit(0.5 * (bin_edges[:-1] + bin_edges[1:]), bin_counts)
    return MonteCarloResult(
        mean=mean, std=std, runs=mc.runs, seed=mc.seed,
        bin_edges=bin_edges, bin_counts=bin_counts.astype(np.int64),
        binning="freedman-diaconis", gaussian_fit=gaussian,
        redraws=redraws, zero_total_redraws=zero_redraws,
        grid_error=grid.probe_error() if grid is not None else 0.0,
        point_estimate=point_estimate, samples=samples)


def curve_fit(x, y):
    """Gaussian (amp, mean, std) through the points (x, y > 0) in closed form
    (H. Guo, IEEE Signal Process. Mag. 28(5), 2011): a parabola through log y
    by weighted linear least squares, weighted first by y^2 so that sparse
    tail points cannot pull it off the peak, then 20 times by its fitted
    values (a near-Gaussian histogram settles within 5; a heavy-tailed one
    needs the rest). None with fewer than 3 positive points, or when the
    parabola has no maximum inside their x range. The name stays because
    bench/tracer.py times the histogram fit by looking analysis.curve_fit up
    (its FOREIGN table); renaming it breaks the benchmark's traced replay.
    """
    if np.count_nonzero(y > 0) < 3:
        return None
    x, log_y = x[y > 0], np.log(y[y > 0])
    center, scale = x.mean(), np.ptp(x)
    t = (x - center) / scale           # conditions the quadratic design
    design = np.column_stack([np.ones_like(t), t, t * t])
    log_w = 2.0 * log_y
    for _ in range(21):
        # weights relative to the largest, floored so none underflows
        w = np.exp(np.maximum(log_w - log_w.max(), -100.0))
        coef = np.linalg.lstsq(design * w[:, None], log_y * w, rcond=None)[0]
        log_w = design @ coef
    c0, c1, c2 = coef.tolist()        # Python floats: no numpy errstate
    if not c2 < 0.0:
        return None
    peak = -c1 / (2.0 * c2)
    log_amp = c0 - c2 * peak * peak
    if not (t.min() <= peak <= t.max() and abs(log_amp) < 700.0):
        return None
    return (math.exp(log_amp), float(center + scale * peak),
            float(scale / math.sqrt(-2.0 * c2)))


def format_mc_result(result: MonteCarloResult):
    """Results-file text: key=value lines then the histogram block."""
    lines = [
        "mean=%.17g" % result.mean,
        "std=%.17g" % result.std,
        "runs=%d" % result.runs,
        "seed=%d" % result.seed,
        "redraws=%d" % result.redraws,
        "zero_total_redraws=%d" % result.zero_total_redraws,
        "grid_error=%.17g" % result.grid_error,
        "point_estimate=%.17g" % result.point_estimate,
        "binning=%s" % result.binning,
    ]
    if result.gaussian_fit is not None:
        amp, mu, sigma = result.gaussian_fit
        lines.append("gauss_amp=%.17g" % amp)
        lines.append("gauss_mean=%.17g" % mu)
        lines.append("gauss_std=%.17g" % sigma)
    lines.append("histogram")
    for lo, hi, c in zip(result.bin_edges[:-1], result.bin_edges[1:],
                         result.bin_counts):
        lines.append("%.17g %.17g %d" % (lo, hi, c))
    return "\n".join(lines) + "\n"


def write_mc_result(path, result: MonteCarloResult):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_mc_result(result))
