"""Benchmark of the affine_actions library: one workload per invocation.

    python3 perfbench/run.py --workload dense_decide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``. The loop
is closed with one client: each op is one public call, issued after the
previous one returned and was checked. A run executes a fixed number of whole
passes over the workload's cases, ``--seconds`` divided by the workload's
nominal pass time, so the parent and a change do the same ops and the tail
percentile rests on the same sample count. Throughput is taken from the median
pass, so one pass slowed by a busy neighbour on a shared host does not move it.

Each run starts fresh worker processes with BLAS pinned to one thread: a few
that only set up (their median is ``setup_s``) and one that also measures.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the traced passes, and the
spans of the first traced pass go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seconds one pass takes at the baseline on the reference machine (2 CPUs,
# one BLAS thread). Fixed, so that --seconds maps to the same work on every
# commit; a faster commit finishes the same passes sooner.
NOMINAL_PASS_S = {
    "dense_decide": 7.0,
    "cohomology_search": 1.5,
    "lattice_words": 5.0,
    "cli_batch": 0.6,
}

# Seconds the worker's calibration kernel takes on the reference host at its
# usual speed. Times are reported at that speed: on a shared host the speed of
# the same code drifts by tens of percent over minutes, and dividing by the
# kernel's slowdown in the same run removes most of that drift.
CALIBRATION_NOMINAL_S = 0.048

SETUP_ONLY_PROCESSES = 10
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # no bytecode cache in the checkout, so every run compiles the same sources
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, passes: int, setup_only: bool, index: int, deadline: float) -> tuple[float, dict]:
    """Run one worker; return the time it was started and its report."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes),
        "--trace", str(args.trace),
        "--workdir", str(ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}-{index}"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "affine_actions" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(2, passes)  # at least one untraced and one traced pass
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    setups = []
    try:
        for i in range(SETUP_ONLY_PROCESSES):
            started, report = spawn(args, passes, True, i, deadline)
            setups.append(report["ready"] - started)
        started, report = spawn(args, passes, False, SETUP_ONLY_PROCESSES, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["ready"] - started)

    durations = report["durations"]
    tail_pct, tail_s = tail(durations)
    timed = {
        "setup_s": statistics.median(setups),
        "ops_per_s": report["ops_per_pass"] / statistics.median(report["pass_s"]),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    slowdown = statistics.median(report["calibration_s"]) / CALIBRATION_NOMINAL_S
    end_to_end = dict(timed)
    end_to_end["ops_per_s"] *= slowdown
    for name in ("setup_s", "op_p50_s", "op_tail_s"):
        end_to_end[name] /= slowdown
    fail_ratio = report["failed"] / report["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"python {sys.version.split()[0]}  numpy {report['numpy']}  blas {report['blas']}  "
        f"blas threads 1  nproc {os.cpu_count()}"
    )
    print(
        f"closed loop, 1 client: {report['passes']} passes x {report['ops_per_pass']} ops; "
        f"{len(durations)} timed samples; set-up measured {len(setups)} times: "
        + " ".join(f"{s:.3f}" for s in setups)
    )
    print(
        f"host slowdown x{slowdown:.4f}: calibration median over {len(report['calibration_s'])} samples "
        f"vs {CALIBRATION_NOMINAL_S} s nominal; metrics at reference speed (as timed in brackets)"
    )
    for name, value in end_to_end.items():
        note = f"  (p{tail_pct:.2f} of {len(durations)} samples)" if name == "op_tail_s" else ""
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}  [{timed[name]:.6g}]{note}")
    print(
        f"  {'fail_ratio':<12} {fail_ratio:.6g}  "
        f"({report['failed']} of {report['attempted']} ops failed, {report['wrong']} wrong)"
    )
    for key, count in sorted(report["failures"].items()):
        print(f"    x{count} {key}")

    if args.trace:
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in report["layers"].items()}
        print(f"traced passes {report['traced_pass_s']} s vs untraced {report['pass_s']} s")
        print(f"spans of the first traced pass in {report['spans_file']}")
        for name, value in report["layers"].items():
            print(f"  {name:<52} {value:.6g} {tracing.unit(name)}")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in end_to_end.items()}

    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
