"""The three benchmark sessions and the inputs they are generated from.

A session is a fixed list of `steering-lab` invocations. Every input (phase
sets, counts file) is derived from the workload seed alone, so the program
receives only files and flags, and the same seed gives the same session.
"""

from dataclasses import dataclass
import math
from pathlib import Path
from typing import Callable

import numpy as np

import checks

TWO_PI = 2.0 * math.pi
LADDER = tuple(k * TWO_PI / 4 for k in range(4))
COUNTS_FILE = "counts.txt"
COUNTS_POINTS = 60             # a multiple of 4, so the ladder is sampled
PHASE_JITTER = 0.25            # rad, half-width of the design phase draws
OPTIMIZE_SEED = 7              # the README's optimize example
SUBCOMMANDS = ("bound", "simulate", "sweep", "certify", "optimize",
               "analyze", "montecarlo")


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    check: Callable

    @property
    def subcommand(self):
        return next((a for a in self.argv if a in SUBCOMMANDS), "help")


@dataclass(frozen=True)
class Session:
    workload: str
    seed: int
    commands: tuple
    inputs: dict           # everything generated from the seed, recorded
    counts_rows: tuple = None

    def write_inputs(self, workdir):
        if self.counts_rows is not None:
            lines = ["# benchmark counts: seed %d" % self.seed,
                     "# phase_radians N_pp N_pm N_mp N_mm"]
            lines += ["%.17g %d %d %d %d" % row for row in self.counts_rows]
            (Path(workdir) / COUNTS_FILE).write_text("\n".join(lines) + "\n")

    def clear_outputs(self, workdir):
        """Delete what earlier repetitions wrote, so that no check reads a
        stale file."""
        for path in Path(workdir).iterdir():
            if path.name != COUNTS_FILE:
                path.unlink()


def sweep_probabilities(phases, eta, visibility, r_a=0.233, r_b=0.217):
    """Closed-form click statistics of the lossy single-photon state as the
    untrusted phase is swept against trusted phase 0: rows (p_pp, p_pm,
    p_mp, p_mm), with outcome + meaning no click."""
    rho = np.zeros((4, 4), dtype=complex)            # basis |nA nB>
    rho[0, 0] = 1.0 - eta
    rho[1, 1] = rho[2, 2] = 0.5 * eta
    rho[1, 2] = rho[2, 1] = 0.5 * eta * visibility

    def no_click(r, theta):
        e = math.exp(-r * r)
        off = e * r * np.exp(-1j * theta)
        return np.array([[e, off], [np.conj(off), e * r * r]])

    eye = np.eye(2)
    pb = no_click(r_b, 0.0)
    rows = []
    for phi in phases:
        pa = no_click(r_a, phi)
        p_pp = np.trace(rho @ np.kron(pa, pb)).real
        p_a = np.trace(rho @ np.kron(pa, eye)).real
        p_b = np.trace(rho @ np.kron(eye, pb)).real
        rows.append((p_pp, p_a - p_pp, p_b - p_pp, 1.0 - p_a - p_b + p_pp))
    return np.clip(np.array(rows), 0.0, 1.0)


def _counts(rng):
    eta = float(rng.uniform(0.50, 0.56))
    visibility = float(rng.uniform(0.96, 1.0))
    events = int(rng.integers(20000, 60001))
    phases = TWO_PI * np.arange(COUNTS_POINTS) / COUNTS_POINTS
    counts = rng.poisson(events * sweep_probabilities(phases, eta,
                                                      visibility))
    rows = tuple((float(p), *map(int, c)) for p, c in zip(phases, counts))
    params = {"eta": eta, "visibility": visibility, "r_a": 0.233,
              "r_b": 0.217, "events_per_point": events,
              "points": COUNTS_POINTS}
    return rows, params


def _fmt_phases(phases):
    return ",".join("%.17g" % p for p in phases)


def design(seed, small=False):
    """Experiment design: bounds and the reported-coefficient comparison,
    eta* on the ladder at two r_A, eta* on a phase set drawn uniformly
    within PHASE_JITTER of the ladder, and the phase optimizer."""
    rng = np.random.default_rng(seed)
    restarts = 1 if small else 2
    jittered = tuple(float(p) for p in (np.array(LADDER) + rng.uniform(
        -PHASE_JITTER, PHASE_JITTER, 4)) % TWO_PI)
    r20, r233 = checks.REFERENCE["eta_star_r20"], \
        checks.REFERENCE["eta_star_r233"]
    cmds = (
        Command("bound", ("bound",), checks.check_bound),
        Command("bound_compare", ("bound", "--compare"),
                checks.check_bound_compare),
        Command("certify_r20", ("certify", "--r-a", "0.2"),
                checks.check_critical(bracket=r20)),
        Command("certify_r233", ("certify", "--r-a", "0.233"),
                checks.check_critical(bracket=r233)),
        Command("certify_set", ("certify", "--r-a", "0.2", "--phases",
                                _fmt_phases(jittered)),
                checks.check_critical(floor=r20[0])),
        Command("optimize", ("optimize", "--r-a", "0.2", "--restarts",
                             str(restarts), "--seed", str(OPTIMIZE_SEED)),
                checks.check_optimize(restarts)),
    )
    inputs = {"phase_set": jittered, "phase_jitter_rad": PHASE_JITTER,
              "optimize_restarts": restarts, "optimize_seed": OPTIMIZE_SEED}
    return Session("design", seed, cmds, inputs)


def data(seed, small=False, threads=2):
    """Data analysis on a 60-point counts file: a sampled sweep, both
    extraction modes, and Monte Carlo error bars at one and at `threads`
    worker threads."""
    rows, params = _counts(np.random.default_rng(seed))
    runs = 2000 if small else 20000
    sample = 20000
    mc = ("montecarlo", COUNTS_FILE, "--runs", str(runs),
          "--r-b-sigma", "0.005", "--seed", str(seed))
    cmds = (
        Command("sweep_sample", (
            "sweep", "--points", str(COUNTS_POINTS), "--sample", str(sample),
            "--seed", str(seed), "--output", "sampled.txt"),
            checks.check_sampled("sampled.txt", COUNTS_POINTS)),
        Command("analyze_fit", ("analyze", COUNTS_FILE, "--mode",
                                "from_fit"), checks.check_analyze),
        Command("analyze_nearest", ("analyze", COUNTS_FILE, "--mode",
                                    "nearest_point"), checks.check_analyze),
        Command("mc_t1", mc + ("--output", "mc_t1.txt"),
                checks.check_montecarlo(runs, "mc_t1.txt")),
        Command("mc_t%d" % threads, ("--threads", str(threads)) + mc + (
            "--output", "mc_tn.txt"), checks.check_montecarlo(
                runs, "mc_tn.txt", same_as=("mc_t1", "mc_t1.txt"))),
    )
    inputs = {"counts": params, "sweep_sample": sample, "mc_runs": runs,
              "mc_threads": [1, threads]}
    return Session("data", seed, cmds, inputs, counts_rows=rows)


def quick(seed, small=False):
    """Many short commands: start-up and import dominate each one."""
    rows, params = _counts(np.random.default_rng(seed))
    bracket = checks.REFERENCE["eta_star_r20"]
    cmds = [
        Command("help", ("--help",), checks.check_help),
        Command("bound", ("bound",), checks.check_bound),
        Command("bound_compare", ("bound", "--compare"),
                checks.check_bound_compare),
        Command("simulate", ("simulate",), checks.check_simulate),
        Command("simulate_oracle", ("simulate", "--oracle"),
                checks.check_oracle),
        Command("sweep", ("sweep", "--points", str(COUNTS_POINTS)),
                checks.check_sweep(COUNTS_POINTS)),
    ]
    cmds += [Command(f"certify_eta{eta}", (
        "certify", "--r-a", "0.2", "--eta", str(eta)),
        checks.check_verdict(eta, bracket)) for eta in (0.3, 0.45, 0.6)]
    cmds += [
        Command("analyze", ("analyze", COUNTS_FILE), checks.check_analyze),
        Command("mc_exact", ("montecarlo", COUNTS_FILE, "--runs", "2000",
                             "--r-b-sigma", "0", "--seed", str(seed),
                             "--output", "mc.txt"),
                checks.check_montecarlo(2000, "mc.txt")),
    ]
    inputs = {"counts": params, "mc_runs": 2000}
    return Session("quick", seed, tuple(cmds), inputs, counts_rows=rows)


WORKLOADS = {"design": design, "data": data, "quick": quick}
