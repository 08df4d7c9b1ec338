"""Session benchmark for steering_lab.

Runs one workload's session of `steering-lab` commands and prints, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics:

    python3 bench/run.py --workload design --seed 1 --seconds 30 --trace 0

With --trace 0 every command runs as its own process (`python -m
steering_lab.cli` with src on PYTHONPATH), one at a time in a throwaway
working directory, and sessions repeat until --seconds have passed; the
metrics are the end-to-end numbers. With --trace 1 the same session is
replayed in-process through steering_lab.cli.main, each command once
untraced and once with every public function wrapped; the metrics are
per-layer numbers, and the spans are written as JSON lines under
.bench_work/results.

Every command's output is checked against references (checks.py). A command
fails when it exits non-zero, times out, prints `indeterminate` or fails a
check; failures count in `failed` and never stop the run.
"""

import argparse
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
import io
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0            # no new command starts after this
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])


@dataclass
class Outcome:
    label: str
    subcommand: str
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    problems: list = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd, timeout):
    """Run one CLI invocation as a process; (wall seconds, rc, out, err)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "steering_lab.cli", *argv],
                            cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\ntimed out after {timeout:.0f} s"
    return time.perf_counter() - start, proc.returncode, out, err


def judge(outcomes, workdir, commands):
    """Attach to each outcome the problems found in it (none: correct)."""
    for o in outcomes:
        (Path(workdir) / f"{o.label}.out").write_text(o.stdout)
    for o, cmd in zip(outcomes, commands):
        o.problems = []
        if o.returncode != 0:
            last = (o.stderr.strip().splitlines() or ["no stderr"])[-1]
            o.problems.append(f"exit {o.returncode}: {last}")
        o.problems += checks.run_check(cmd.check, o.stdout, workdir)


def run_session(session, workdir, deadline):
    session.clear_outputs(workdir)
    outcomes = []
    for cmd in session.commands:
        left = deadline - time.perf_counter()
        if left <= 0:
            outcomes.append(Outcome(cmd.label, cmd.subcommand, 0.0, -1, "",
                                    "not started: run time limit"))
            continue
        wall, rc, out, err = spawn(cmd.argv, workdir,
                                   min(COMMAND_TIMEOUT_S, left))
        outcomes.append(Outcome(cmd.label, cmd.subcommand, wall, rc, out,
                                err))
    return outcomes


def setup(session, run_dir):
    """Generate the inputs into a fresh directory and warm up with one
    `--help`; repeated, and the median reported as setup_s."""
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workdir = run_dir / f"work{k}"
        workdir.mkdir()
        session.write_inputs(workdir)
        _, rc, out, err = spawn(["--help"], workdir, COMMAND_TIMEOUT_S)
        if rc != 0 or not out.startswith("usage:"):
            raise RuntimeError(f"warm-up --help failed (exit {rc}): "
                               f"{err.strip()[-300:]}")
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, workdir


def keep_going(start, durations, seconds, deadline):
    """Start another repetition while that brings the run's end closer to
    `seconds`, so every run of a workload does about as many."""
    now = time.perf_counter()
    mean = statistics.fmean(durations)
    return now - start + 0.5 * mean < seconds and now + mean < deadline


def timed_runs(session, workdir, seconds, deadline):
    """Closed loop, one client: sessions back to back for about `seconds`.
    session_s and cmd_max_s are medians over the sessions; cmd_p50_s is the
    median over every command the run made."""
    start = time.perf_counter()
    per_session = []
    every = []
    while True:
        t0 = time.perf_counter()
        outcomes = run_session(session, workdir, deadline)
        per_session.append((time.perf_counter() - t0,
                            max(o.wall_s for o in outcomes)))
        judge(outcomes, workdir, session.commands)
        every += outcomes
        if not keep_going(start, [s for s, _ in per_session], seconds,
                          deadline):
            break
    metrics = {
        "session_s": statistics.median(s for s, _ in per_session),
        "cmd_p50_s": statistics.median(o.wall_s for o in every),
        "cmd_max_s": statistics.median(m for _, m in per_session),
    }
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    return metrics, every, len(per_session)


def replay(cmd, workdir, main):
    """Run one command in-process through `main`; its outcome and wall."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(list(cmd.argv))
            except SystemExit as exc:              # argparse on --help
                rc = exc.code or 0
            except Exception:                      # recorded as a failure
                rc = -1
                err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    finally:
        os.chdir(here)
    return Outcome(cmd.label, cmd.subcommand, wall, rc, out.getvalue(),
                   err.getvalue())


def import_walls():
    """Fresh-process `import steering_lab` times, measured in the child."""
    code = ("import time; t = time.perf_counter(); import steering_lab; "
            "print(repr(time.perf_counter() - t))")
    walls = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=True)
        walls.append(float(proc.stdout.strip()))
    return walls


def _median(values):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from steering_lab import cli
    return cli


def replay_pair(session, workdir, main, name):
    """Each command of the session in-process twice, untraced and traced,
    back to back and alternating which goes first, so that drift in machine
    speed and first-call costs fall on both alike. Returns the per-layer
    metrics, every outcome, and the tracer holding the spans."""
    session.clear_outputs(workdir)
    trace = tracer.Tracer(name)
    plain, traced = [], []
    for k, cmd in enumerate(session.commands):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            undo = tracer.install(trace) if with_trace else None
            try:
                outcome = replay(cmd, workdir, main)
            finally:
                if undo:
                    undo()
            judge([outcome], workdir, [cmd])
            (traced if with_trace else plain).append(outcome)
    m = tracer.layer_metrics(trace)
    plain_s = sum(o.wall_s for o in plain)
    traced_s = sum(o.wall_s for o in traced)
    for sub in workloads.SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = sum(o.wall_s for o in plain
                                     if o.subcommand == sub)
    m["trace.overhead_share"] = traced_s / plain_s - 1.0
    m["trace.unaccounted_s"] = plain_s - sum(
        v for k, v in m.items() if k.startswith("layer."))
    return m, plain + traced, trace


def traced_runs(session, workdir, seconds, deadline, spans_path):
    """Replay pairs repeated until `seconds`; per-layer metrics are medians
    over the pairs, and the first pair's spans are written out."""
    walls = import_walls()
    startup = [spawn(["--help"], workdir, COMMAND_TIMEOUT_S)[0]
               for _ in range(IMPORT_REPEATS)]
    cli = load_cli()
    start = time.perf_counter()
    pairs = []
    durations = []
    every = []
    while True:
        t0 = time.perf_counter()
        m, outcomes, trace = replay_pair(
            session, workdir, cli.main,
            f"{session.workload}-{session.seed}-{len(pairs)}")
        pairs.append(m)
        every += outcomes
        if len(pairs) == 1:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for w in walls:
                    fh.write(json.dumps({"name": "import", "start": 0.0,
                                         "end": w, "session": trace.session})
                             + "\n")
                for rec in tracer.span_records(trace):
                    fh.write(json.dumps(rec) + "\n")
        durations.append(time.perf_counter() - t0)
        if not keep_going(start, durations, seconds, deadline):
            break
    metrics = {k: _median([p[k] for p in pairs]) for k in pairs[0]}
    metrics["import.wall_s"] = statistics.median(walls)
    metrics["cli.startup_s"] = statistics.median(startup)
    return metrics, every, len(pairs)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset (library default: "
                                              "nproc)") for k in BLAS_ENV},
        "machine": platform.node(),
        "platform": platform.platform(),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="smallest session size, for the benchmark's tests")
    return p.parse_args(argv)


def build_session(name, seed, small):
    if name == "data":
        return workloads.data(seed, small, threads=min(2, os.cpu_count()))
    return workloads.WORKLOADS[name](seed, small)


def run(args):
    """One benchmark run; returns the result dictionary."""
    if not (SRC / "steering_lab" / "cli.py").is_file():
        raise RuntimeError(f"steering_lab sources not found under {SRC}")
    deadline = time.perf_counter() + RUN_LIMIT_S
    session = build_session(args.workload, args.seed, args.small)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=WORK))
    try:
        setup_s, setup_times, workdir = setup(session, run_dir)
        if args.trace:
            spans = results / f"{tag}-spans.jsonl"
            metrics, outcomes, loops = traced_runs(
                session, workdir, args.seconds, deadline, spans)
        else:
            metrics, outcomes, loops = timed_runs(
                session, workdir, args.seconds, deadline)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(1 for o in outcomes if o.problems)
    record = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args.seed), "inputs": session.inputs,
        "repetitions": loops, "setup_times_s": setup_times,
        "commands": [{"label": o.label, "wall_s": o.wall_s,
                      "returncode": o.returncode, "problems": o.problems}
                     for o in outcomes],
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record, len(outcomes), failed


def main(argv=None):
    args = parse_args(argv)
    try:
        record, attempted, failed = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = record["metrics"]
    print("environment: " + json.dumps(record["environment"]))
    print("inputs: " + json.dumps(record["inputs"]))
    for c in record["commands"]:
        if c["problems"]:
            print(f"FAILED {c['label']}: {'; '.join(c['problems'])}")
    ratio = failed / attempted
    print(f"{args.workload} seed={args.seed}: {record['repetitions']} "
          f"{'replay pairs' if args.trace else 'sessions'}, {attempted} "
          f"commands, ops_failed_ratio={ratio:.4g} failed/attempted")
    if not args.trace:
        print("  " + "  ".join(f"{k}={metrics[k]:.6g} {UNITS[k]}"
                               for k in END_TO_END))
        shown = {k: metrics[k] for k in END_TO_END}
    else:
        shown = metrics
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in sorted(shown.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
