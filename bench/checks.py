"""Output checks for every command a benchmark session runs.

Each checker takes the command's stdout and its working directory and
returns a list of problems; an empty list means the output is correct.
Reference values live in REFERENCE so a test can feed a wrong one and watch
the failure show up in the failed-operation count.
"""

import math
from pathlib import Path

TWO_PI = 2.0 * math.pi

REFERENCE = {
    # Full-space and qubit bounds at the defaults (s=0.983, t=0.0656, m=4,
    # r_B=0.217), compared to ABS_TOL.
    "s_max": 1.0008400711084255,
    "s_max_qubit": 1.0002063393115832,
    "n_max_used": 3,
    # Bisection brackets of eta* on the ladder phases.
    "eta_star_r20": (0.418945, 0.419922),
    "eta_star_r233": (0.425781, 0.426758),
    # Optimized phases must land this close (rad) to the uniform ladder.
    "ladder_tol": 0.05,
    "abs_tol": 1e-12,
    "bracket_precision": 1e-3,
}


def key_values(text):
    """key=value lines of a command's output, as strings."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key and " " not in key:
            out[key] = value
    return out


def _floats(kv, *names):
    try:
        return [float(kv[n]) for n in names]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"missing or malformed {exc}") from None


def _near(name, got, want):
    if abs(got - want) > REFERENCE["abs_tol"]:
        return [f"{name}={got!r} differs from {want!r}"]
    return []


def _numeric_rows(text, width):
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("#") or len(parts) != width:
            continue
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            continue
    return rows


def _normalized(rows, expected, label):
    if len(rows) != expected:
        return [f"{label}: {len(rows)} rows, expected {expected}"]
    worst = max(abs(sum(r[-4:]) - 1.0) for r in rows)
    return [f"{label}: a row sums to 1 only within {worst:.2e}"] \
        if worst > 1e-9 else []


def check_help(stdout, workdir):
    return [] if stdout.startswith("usage:") else ["no usage text"]


def check_bound(stdout, workdir):
    kv = key_values(stdout)
    s_max, s_qubit = _floats(kv, "s_max", "s_max_qubit")
    problems = _near("s_max", s_max, REFERENCE["s_max"])
    problems += _near("s_max_qubit", s_qubit, REFERENCE["s_max_qubit"])
    if kv.get("n_max_used") != str(REFERENCE["n_max_used"]):
        problems.append(f"n_max_used={kv.get('n_max_used')}")
    exported = key_values((Path(workdir) / "inequality.txt").read_text())
    problems += _near("exported s_max", float(exported["s_max"]),
                      REFERENCE["s_max"])
    return problems


def check_bound_compare(stdout, workdir):
    problems = check_bound(stdout, workdir)
    if "decomposition identity residual" not in stdout:
        problems.append("comparison report missing")
    return problems


def check_simulate(stdout, workdir):
    return _normalized(_numeric_rows(stdout, 6), 16, "table")


def check_oracle(stdout, workdir):
    problems = check_simulate(stdout, workdir)
    if key_values(stdout).get("oracle_check") != "pass":
        problems.append("oracle_check is not pass")
    return problems


def check_sweep(points):
    def check(stdout, workdir):
        return _normalized(_numeric_rows(stdout, 5), points, "sweep")
    return check


def check_sampled(path, points):
    def check(stdout, workdir):
        rows = _numeric_rows((Path(workdir) / path).read_text(), 5)
        if len(rows) != points:
            return [f"{path}: {len(rows)} rows, expected {points}"]
        if any(min(r[1:]) < 0 or r[1:] != [int(c) for c in r[1:]]
               for r in rows):
            return [f"{path}: counts are not non-negative integers"]
        return []
    return check


def check_verdict(eta, bracket):
    """certify --eta on the ladder: feasible below the eta* bracket,
    infeasible above it."""
    want = ("feasible (unsteerable)" if eta < bracket[0]
            else "infeasible (steerable)")

    def check(stdout, workdir):
        lines = stdout.splitlines()
        problems = [] if lines and lines[0] == want else [
            f"verdict {lines[:1]} at eta={eta}, expected {want!r}"]
        if "iterations" not in key_values(stdout):
            problems.append("iterations missing")
        return problems
    return check


def check_critical(bracket=None, floor=None):
    """certify by bisection: the bracket holds eta*, is at most the target
    width, and lies inside the reference bracket (or, for phase sets other
    than the ladder, ends above the ladder's optimum `floor`)."""
    def check(stdout, workdir):
        kv = key_values(stdout)
        eta, lo, hi = _floats(kv, "eta_star", "feasible_at", "infeasible_at")
        problems = []
        if not lo <= eta <= hi:
            problems.append(f"eta_star={eta} outside [{lo}, {hi}]")
        if hi - lo > REFERENCE["bracket_precision"] + 1e-15:
            problems.append(f"bracket width {hi - lo}")
        if bracket is not None and not bracket[0] <= eta <= bracket[1]:
            problems.append(f"eta_star={eta} outside reference {bracket}")
        if floor is not None and hi <= floor:
            problems.append(f"infeasible_at={hi} below the ladder optimum")
        return problems
    return check


def ladder_distance(phases):
    rel = sorted((p - phases[0]) % TWO_PI for p in phases)
    m = len(rel)
    worst = 0.0
    for k, p in enumerate(rel):
        d = abs(p - k * TWO_PI / m)
        worst = max(worst, min(d, TWO_PI - d))
    return worst


def check_optimize(restarts):
    def check(stdout, workdir):
        kv = key_values(stdout)
        phases = [float(p) for p in kv["phases"].split(",")]
        problems = []
        dist = ladder_distance(phases)
        if dist > REFERENCE["ladder_tol"]:
            problems.append(f"phases {dist:.3f} rad from the ladder")
        found = sum(1 for line in stdout.splitlines()
                    if line.startswith("restart_"))
        if found != restarts:
            problems.append(f"{found} restart lines, expected {restarts}")
        return problems
    return check


def check_analyze(stdout, workdir):
    kv = key_values(stdout)
    s_value, s_max, delta = _floats(kv, "s_value", "s_max", "delta_s")
    problems = _near("delta_s", delta, s_value - s_max)
    problems += _near("s_max", s_max, REFERENCE["s_max"])
    if kv.get("steerable") != ("yes" if delta > 0 else "no"):
        problems.append(f"steerable={kv.get('steerable')} with "
                        f"delta_s={delta}")
    fits = sum(1 for line in stdout.splitlines() if line.startswith("fit_"))
    if fits != 4:
        problems.append(f"{fits} fit lines, expected 4")
    return problems


def check_montecarlo(runs, path, same_as=None):
    """montecarlo: the results file parses and holds every run; with
    same_as, stdout and results file must equal those of that earlier
    command (another thread count) byte for byte, output name aside."""
    def check(stdout, workdir):
        kv = key_values(stdout)
        text = (Path(workdir) / path).read_text()
        head, sep, hist = text.partition("histogram\n")
        saved = key_values(head)
        problems = []
        if not sep:
            problems.append("results file has no histogram block")
        if kv.get("runs") != str(runs) or saved.get("runs") != str(runs):
            problems.append(f"runs {kv.get('runs')}/{saved.get('runs')}, "
                            f"expected {runs}")
        binned = sum(int(line.split()[2]) for line in hist.splitlines())
        if binned != runs:
            problems.append(f"histogram holds {binned} of {runs} runs")
        for key in ("mean", "std"):
            if kv.get(key) != saved.get(key):
                problems.append(f"{key} differs between stdout and file")
        if same_as is not None:
            label, other = same_as
            earlier = (Path(workdir) / f"{label}.out").read_text()
            if earlier.replace(other, path) != stdout:
                problems.append(f"stdout differs from {label}")
            if (Path(workdir) / other).read_bytes() != text.encode():
                problems.append(f"results file differs from {label}")
        return problems
    return check


def run_check(checker, stdout, workdir):
    """Problems found in one command's output; a crashing checker (say, on
    a missing line) is itself a problem, and so is `indeterminate`."""
    problems = []
    if "indeterminate" in stdout:
        problems.append("indeterminate verdict")
    try:
        problems += checker(stdout, workdir)
    except (KeyError, ValueError, IndexError, OSError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
