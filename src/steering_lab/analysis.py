"""Experimental data pipeline.

Ingests phase-sweep click counts, estimates probabilities, fits each outcome
pair to a cosine, extracts the four distributions of the relative-phase
permutation construction, scores S - S_max by one kernel (_margin) for both
analyze and the Monte Carlo, which propagates counting and local-oscillator
amplitude uncertainty by resampling (the bound at each drawn amplitude
interpolated, _BoundInterpolant), drawn as whole arrays in fixed chunks of
runs with one seeded random stream per chunk.

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
from .inequality import (InequalityFamily, build_probability_inequality,
                         stacked_inequality)

OUTCOME_LABELS = ("pp", "pm", "mp", "mm")
NEAREST_POINT_TOL = 0.05      # rad; max distance of a sweep sample to a setting
MC_CHUNK = 2048               # runs per seeded random stream; fixed
# relative-phase index (x - y) mod 4 of setting pair (x, y) on the ladder
_RELATIVE = (np.arange(4)[:, None] - np.arange(4)) % 4


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


def load_counts(path):
    """Parse a counts file into a CountsRecord.

    Malformed rows, negative counts, rows totalling 0 or more than 2**62
    (half the int64 range, so that a Poisson resample of the row fits it
    too) and non-ascending phases raise ParseError carrying the offending
    line number; a file that is not UTF-8 raises ValidationError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read counts file {path}: {exc}")
    phases = []
    counts = []
    for lineno, raw in enumerate(lines, start=1):
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
        if sum(row) > 2 ** 62:
            raise ParseError("row total must be at most 2**62", line=lineno)
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

    Each count is drawn as Poisson(events_per_point * p), all-zero rows
    redrawn as the Monte Carlo redraws them. Up to 2**61 events per point
    every mean suits rng.poisson and a row total stays below load_counts'
    2**62 (by 2**30 standard deviations), so no int64 sum wraps.
    """
    phases = np.asarray(phases, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (phases.size, 4):
        raise ValidationError(
            f"probability array shape {probs.shape} does not match "
            f"{phases.size} phases x 4 outcomes")
    if not 0 < events_per_point <= 2 ** 61:
        raise ValidationError(f"events_per_point must be in (0, 2**61], "
                              f"got {events_per_point}")
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(check_seed(seed))))
    means = events_per_point * probs
    counts = rng.poisson(means)
    _redraw_empty_rows(rng, counts, means)
    return CountsRecord(phases=phases, counts=counts)


def _redraw_empty_rows(rng, counts, means):
    """Redraw all-zero rows of Poisson counts (last axis), row i from
    means[i], in place until none is left; returns the rows redrawn."""
    redraws = 0
    while (index := np.nonzero(counts.sum(axis=-1) == 0))[0].size:
        redraws += index[0].size
        counts[index] = rng.poisson(means[index[-1]])
    return redraws


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
    if phases.size < 4 or len(set(phases.ravel().tolist())) < 4:
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
                     rss=rss, clamped=clamped)


# --- setting-table extraction ------------------------------------------------

def _validate_x_phases(x_phases):
    x_phases = np.asarray(x_phases, dtype=float)
    if x_phases.shape != (4,):
        raise ValidationError(f"x_phases must hold 4 values, got "
                              f"{x_phases.shape}")
    if not np.isfinite(x_phases).all():
        raise ValidationError(f"x_phases must be finite, got {x_phases.tolist()}")
    if np.abs(np.diff(x_phases) - np.pi / 2).max() > 1e-6:
        raise ValidationError(
            "x_phases must be spaced pi/2 apart (within 1e-6) for the "
            "permutation construction to apply")
    return x_phases


def _setting_distributions(source, x_phases, mode):
    """The four relative-phase distributions (4, 4), row j at x_phases[j]:
    mode 'from_fit' evaluates a CosineFit there, 'nearest_point' takes the
    nearest count rows of a CountsRecord (as setting_counts_from_record
    does). Each row is clipped to be non-negative and normalized, once."""
    x_phases = _validate_x_phases(x_phases)
    if mode == "from_fit":
        if not isinstance(source, CosineFit):
            raise ValidationError("mode 'from_fit' needs a CosineFit source")
        rows = np.array([source.evaluate(ph) for ph in x_phases])
    elif mode == "nearest_point":
        if not isinstance(source, CountsRecord):
            raise ValidationError(
                "mode 'nearest_point' needs a CountsRecord source")
        rows = setting_counts_from_record(source, x_phases)
    else:
        raise ValidationError(
            f"mode must be 'from_fit' or 'nearest_point', got {mode!r}")
    rows = np.clip(rows.astype(float), 0.0, None)
    totals = rows.sum(axis=1)
    if totals.min() <= 0.0:
        raise ExtractionError("an extracted distribution has no weight")
    return rows / totals[:, None]


def extract_setting_table(source, x_phases, mode="from_fit"):
    """Build the setting table p[a, b, x, y], shape (2, 2, 4, 4), from
    sweep data.

    With both sides' phases on the same pi/2-spaced ladder the joint
    distribution depends only on the relative phase, so cell (x, y) is
    distribution (x - y) mod 4 of _setting_distributions (mode 'from_fit'
    or 'nearest_point').
    """
    dists = _setting_distributions(source, x_phases, mode)
    return np.moveaxis(dists[_RELATIVE], -1, 0).reshape(2, 2, 4, 4)


@dataclass(frozen=True)
class AnalysisReport:
    s_value: float
    s_max: float
    delta_s: float
    fit: CosineFit


def evaluate_record(record: CountsRecord, family: InequalityFamily,
                    x_phases=RESOLUTION_PHASES, mode="from_fit"):
    """Full pipeline: counts -> fit -> distributions -> S and S - S_max."""
    fit = fit_cosine(record.phases, probabilities_from_counts(record))
    dists = _setting_distributions(fit if mode == "from_fit" else record,
                                   x_phases, mode)
    row = _coefficient_row(family)
    delta_s, s_max = float(_margin(row, dists)), float(row[7:].max())
    return AnalysisReport(s_value=delta_s + s_max, s_max=s_max,
                          delta_s=delta_s, fit=fit)


# --- Monte Carlo error estimation --------------------------------------------

@dataclass(frozen=True)
class MonteCarloResult:
    """S - S_max over the runs; grid_error: _BoundInterpolant.error or 0."""

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


def setting_counts_from_record(record: CountsRecord,
                               x_phases=RESOLUTION_PHASES):
    """The four relative-phase count rows of a sweep record, whatever its
    length: the rows nearest the pi/2-spaced x_phases, within 0.05 rad each
    (as 'nearest_point' extraction picks them), else ExtractionError."""
    x_phases = _validate_x_phases(x_phases)
    # circular distance of every sweep phase to every setting phase
    dist = np.abs((record.phases[None, :] - x_phases[:, None] + np.pi)
                  % TWO_PI - np.pi)
    for target, gap in zip(x_phases, dist.min(axis=1)):
        if gap > NEAREST_POINT_TOL:
            raise ExtractionError(
                f"no sweep sample within {NEAREST_POINT_TOL} rad of phase "
                f"{target:.6f} (closest is {gap:.4f} rad away)")
    return record.counts[dist.argmin(axis=1)]


def _coefficient_row(family: InequalityFamily, r_b=None):
    """The 23 numbers of _margin at r_B read off the inequality's F: G_j =
    sum of F[x, y] over (x - y) mod 4 = j, A = sum_x F[x, 4], B = sum_y
    F[4, y], c = F[4, 4] and the 16 branches of S_max (strategy_values);
    the family's own build at its r_B when r_b is None, else one row per
    r_B from one stacked build. The relative-phase construction holds on
    the m = 4 ladder alone."""
    if family.m != 4 or any(abs(a - b) > 1e-9 for a, b in
                            zip(family.alice_phases, RESOLUTION_PHASES)):
        raise ValidationError(f"the relative-phase construction needs the "
                              f"m = 4 ladder, got {family.alice_phases}")
    ineq = (build_probability_inequality(family) if r_b is None
            else stacked_inequality(family, r_b))
    f = ineq.coefficients
    return np.stack([*(f[..., :4, :4][..., _RELATIVE == j].sum(axis=-1)
                       for j in range(4)),
                     f[..., :4, 4].sum(axis=-1), f[..., 4, :4].sum(axis=-1),
                     f[..., 4, 4], *np.moveaxis(ineq.strategy_values, -1, 0)],
                    axis=-1)


def _margin(rows, dists):
    """S - S_max from rows (..., 23) of _coefficient_row and distributions
    d_j (..., 4, 4): on the ladder S = sum_j G_j d_j[++] + A a + B b + c,
    a = mean_j d_j[++] + d_j[+-] = p_A(+|x), b likewise p_B(+|y)."""
    pp = dists[..., 0]
    a = (pp + dists[..., 1]).mean(axis=-1)
    b = (pp + dists[..., 2]).mean(axis=-1)
    return ((rows[..., :4] * pp).sum(axis=-1) + rows[..., 4] * a
            + rows[..., 5] * b + rows[..., 6]) - rows[..., 7:].max(axis=-1)


class _BoundInterpolant:
    """Rows of _coefficient_row at the r_B draws of a Monte Carlo.

    Each number times r_B (1 - r_B^2) is smooth on the window [max(1e-4, mu
    - 8 sigma), min(0.999, mu + 8 sigma)], a branch of S_max through the
    kinks of their maximum too, and is interpolated barycentrically (Berrut
    & Trefethen, SIAM Review 46, 2004) on the first nested Chebyshev-Lobatto
    set of 9, 17, ..., 129 nodes whose error at 32 probes halfway between
    nodes, |interpolated - exact| / max(1, |exact row|), is at most 1e-12:
    error. The probes and the 9 nodes are built first, in one stacked build;
    each finer level builds only its new nodes, halfway between the old,
    and only while the error is above 1e-12. Draws on a node or off the
    window, and all draws when it holds no distinct nodes, are evaluated
    exactly.
    """

    def __init__(self, family: InequalityFamily, r_b_sigma):
        self.family, self.nodes, self.error = family, None, 0.0
        lo = max(1e-4, family.bob_amplitude - 8.0 * r_b_sigma)
        hi = min(0.999, family.bob_amplitude + 8.0 * r_b_sigma)
        r = (lo + hi) / 2 + (lo - hi) / 2 * np.cos(np.linspace(0, np.pi, 257))
        nodes, probes = r[::2], r[1::8]
        if not np.all(np.diff(nodes) > 0.0):
            return
        rows = _coefficient_row(family, np.concatenate([nodes[::16], probes]))
        rows, exact = rows[:9], rows[9:]
        scale = np.maximum(1.0, np.abs(exact).max(axis=1))
        for step in (16, 8, 4, 2, 1):
            if step < 16:       # the new nodes fall halfway between the old
                new = _coefficient_row(family, nodes[step::2 * step])
                rows = np.insert(rows, range(1, len(rows)), new, axis=0)
            self.nodes = nodes[::step]
            self.scaled = rows.T * (self.nodes * (1.0 - self.nodes ** 2))
            # the Chebyshev-Lobatto weights: (-1)^j, halved at both ends
            self.weights = np.resize([1.0, -1.0], self.nodes.size)
            self.weights[[0, -1]] *= 0.5
            self.error = float((np.abs(self.lookup(probes) - exact).max(
                axis=1) / scale).max())
            if self.error <= 1e-12:
                break

    def lookup(self, r_b):
        """Coefficient rows (n, 23) at the r_B values of a 1-D array."""
        # draws run along the last axis, so every reduction is over rows
        if self.nodes is None:
            rows, inside = np.empty((23, r_b.size)), np.zeros(r_b.size, bool)
        else:
            # one (nodes, draws) buffer: the differences, then the terms
            c = self.nodes[:, None] - r_b
            inside = (c[0] < 0) & (c[-1] > 0) & c.all(axis=0)
            np.divide(self.weights[:, None], c, out=c, where=inside)
            c /= np.where(inside, c.sum(axis=0) * r_b * (1.0 - r_b * r_b), 1.0)
            rows = self.scaled @ c
        if not inside.all():
            values, which = np.unique(r_b[~inside], return_inverse=True)
            rows[:, ~inside] = _coefficient_row(self.family, values)[which].T
        return rows.T


def _resample_chunk(rng, n, base_counts, r_b_mean, r_b_sigma):
    """n runs of Poisson-resampled count rows (n, 4, 4) and Gaussian r_B
    draws about r_b_mean, redrawing zero-total rows and r_B outside (0, 1),
    where the bound exists; returns both with the two redraw counts. More
    than 100 r_B redraws per run means almost no draw lands inside, and
    raises ValidationError instead of drawing on."""
    counts = rng.poisson(base_counts, size=(n, 4, 4))
    zero_redraws = _redraw_empty_rows(rng, counts, base_counts)
    r_b = rng.normal(r_b_mean, r_b_sigma, size=n)
    redraws = 0
    while True:
        bad = np.flatnonzero((r_b <= 0.0) | (r_b >= 1.0))
        if bad.size == 0:
            break
        redraws += bad.size
        if redraws > 100 * n:
            raise ValidationError(
                f"r_B draws about {r_b_mean} with sigma {r_b_sigma} fall "
                "outside (0, 1) on nearly every try; narrow r_b_sigma")
        r_b[bad] = rng.normal(r_b_mean, r_b_sigma, size=bad.size)
    return counts, r_b, redraws, zero_redraws


def monte_carlo(counts, family: InequalityFamily, runs=200000,
                r_b_sigma=0.005, seed=0):
    """Propagate counting and amplitude uncertainty into S - S_max.

    counts is the (4, 4) array of relative-phase rows (see
    setting_counts_from_record) and family is on the m = 4 ladder. Each of
    the runs Poisson-resamples every count, draws r_B from a Gaussian of
    spread r_b_sigma about family.bob_amplitude (0 holds it fixed; draws
    outside (0, 1) redrawn and counted), re-evaluates the inequality
    coefficients and the full-space bound at the drawn r_B through
    _BoundInterpolant (exactly, once, when r_b_sigma = 0), and records
    S - S_max. Runs are drawn in fixed MC_CHUNK chunks, each from its own
    stream keyed on (seed, chunk index), so results depend on the arguments
    alone. Returns a MonteCarloResult whose samples have shape (runs,).
    """
    if not isinstance(runs, int) or runs < 1:
        raise ValidationError(f"runs must be a positive integer, got "
                              f"{runs}")
    if not (r_b_sigma >= 0.0 and math.isfinite(r_b_sigma)):
        raise ValidationError(f"r_b_sigma must be finite and "
                              f"non-negative, got {r_b_sigma}")
    check_seed(seed)
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

    point = _coefficient_row(family, family.bob_amplitude)
    point_estimate = float(_margin(
        point, base_counts / base_counts.sum(axis=1, keepdims=True)))
    grid = _BoundInterpolant(family, r_b_sigma) if r_b_sigma else None

    samples = np.empty(runs)
    redraws = 0
    zero_redraws = 0
    for chunk, start in enumerate(range(0, runs, MC_CHUNK)):
        stop = min(start + MC_CHUNK, runs)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, chunk))))
        resampled, r_b, rd, zr = _resample_chunk(
            rng, stop - start, base_counts, family.bob_amplitude, r_b_sigma)
        rows = grid.lookup(r_b) if grid is not None else point
        samples[start:stop] = _margin(
            rows, resampled / resampled.sum(axis=2, keepdims=True))
        redraws += rd
        zero_redraws += zr

    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if runs > 1 else 0.0
    n_bins, binning = _bin_count(samples)
    bin_counts, bin_edges = np.histogram(samples, bins=n_bins)
    # a visual aid; the sample std stays the estimate of record
    gaussian = curve_fit(0.5 * (bin_edges[:-1] + bin_edges[1:]), bin_counts)
    return MonteCarloResult(
        mean=mean, std=std, runs=runs, seed=seed,
        bin_edges=bin_edges, bin_counts=bin_counts.astype(np.int64),
        binning=binning, gaussian_fit=gaussian,
        redraws=redraws, zero_total_redraws=zero_redraws,
        grid_error=grid.error if grid is not None else 0.0,
        point_estimate=point_estimate, samples=samples)


def _bin_count(samples):
    """Histogram bin count and its rule: numpy's Freedman-Diaconis count
    (bins="fd": ceil(range / (2 IQR n^(-1/3))), or 1 at zero IQR) while it
    is at most ceil(sqrt(n)), else ceil(sqrt(n)), the square-root rule. A
    heavy tail gives a tiny IQR against a wide range, so the first rule
    alone can ask for far more bins than samples."""
    cap = math.isqrt(samples.size - 1) + 1
    q75, q25 = _quartiles(samples)
    width = 2.0 * (q75 - q25) * samples.size ** (-1.0 / 3.0)
    if not width:
        return 1, "freedman-diaconis"
    n_fd = math.ceil((samples.max() - samples.min()) / width)
    if n_fd <= cap:
        return n_fd, "freedman-diaconis"
    return cap, "square-root"


def _quartiles(samples):
    """np.percentile(samples, [75, 25]) bit for bit from two samples on (one
    sample is both), without the np.unique call that loads numpy.ma: the
    'linear' method's index n q + (1 - q) - 1, partition and two-sided lerp."""
    n = samples.size
    index = [n * q + (1 - q) - 1 for q in (0.75, 0.25)]
    ends = [(k, min(k + 1, n - 1)) for k in map(math.floor, index)]
    part = np.partition(samples, sorted({0, n - 1, *sum(ends, ())}))
    lerp = [(part[k], part[j], v - k) for v, (k, j) in zip(index, ends)]
    return [b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
            for a, b, t in lerp]


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
