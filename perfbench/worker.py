"""One benchmark process: set up a workload, run whole passes, print one JSON line.

Started by ``run.py`` in a fresh process per workload, with BLAS pinned to one
thread in its environment, so that its peak RSS belongs to that workload alone.
With ``--setup-only`` it stops right after set-up and reports when it became
ready; ``run.py`` uses those processes to repeat the set-up measurement.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build = workloads.WORKLOADS[args.workload]
        cases = build(args.seed, workdir)
        cases[0].call()  # warm-up: lazy imports and LAPACK initialisation
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        report = run_passes(cases, lambda: build(args.seed, workdir), args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["ready"] = ready
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["numpy"] = np.__version__
    report["blas"] = _blas_name()
    print(json.dumps(report))
    return 0


# often enough that the samples follow the host's speed through a run
CALIBRATE_EVERY_S = 0.5


def calibration_s() -> float:
    """Seconds for a fixed kernel of the library's kinds of work.

    One LAPACK SVD and a Python loop of small matrix products, the best of
    two. Its time tracks how fast the host runs at the moment, since the
    library's changes cannot reach it.
    """
    rng = np.random.default_rng(0)
    big, small = rng.standard_normal((600, 200)), rng.standard_normal((6, 6))
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        np.linalg.svd(big)
        x = small
        for _ in range(3000):
            x = small @ x
            x = x / np.linalg.norm(x)
        best = min(best, time.perf_counter() - start)
    return best


def run_passes(cases, rebuild, args) -> dict:
    """Time every case once per pass; check each outcome outside the timer.

    Every pass after the first runs on inputs rebuilt from the same seed: the
    same numbers in fresh library objects, so that nothing the library keeps
    on an object carries over from one pass to the next.

    In a traced run, odd passes run with the layer wrappers installed and the
    even passes without, so the overhead compares like with like. Between
    ops, after every ``CALIBRATE_EVERY_S`` of timed work, the host's speed is
    sampled with ``calibration_s``.
    """
    calibration = [calibration_s()]
    since_calibration = 0.0
    tracer = tracing.Tracer(keep_spans_of_ops=len(cases)) if args.trace else None
    durations: list[float] = []
    pass_s = {False: [], True: []}
    outcomes: dict[str, int] = {}
    attempted = failed = wrong = 0
    for index in range(args.passes):
        if index:
            cases = rebuild()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        spent = 0.0
        for case in cases:
            error = None
            if traced:
                tracer.op += 1
                tracer.armed = True
            start = time.perf_counter()
            try:
                result = case.call()
            except Exception as exc:  # a refusal by the library: counted, not fatal
                error = ("failed", f"raised {type(exc).__name__}")
            elapsed = time.perf_counter() - start
            if traced:
                tracer.armed = False
                if args.workload == "cli_batch" and error is None:
                    tracer.counters["cli.main.bytes_out"] += len(result[1])
            if error is None:
                try:
                    error = case.check(result)
                except Exception as exc:  # a malformed result the check could not read
                    error = ("wrong", f"check raised {type(exc).__name__}: {exc}")
            spent += elapsed
            if not traced:
                durations.append(elapsed)
            attempted += 1
            if error is not None:
                failed += 1
                wrong += error[0] == "wrong"
                key = f"{case.name}: {error[0]} ({error[1]})"
                outcomes[key] = outcomes.get(key, 0) + 1
            since_calibration += elapsed
            if since_calibration >= CALIBRATE_EVERY_S:
                calibration.append(calibration_s())
                since_calibration = 0.0
        if traced:
            tracer.uninstall()
        pass_s[traced].append(spent)
    report = {
        "durations": durations,
        "ops_per_pass": len(cases),
        "passes": args.passes,
        "pass_s": pass_s[False],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": outcomes,
        "calibration_s": calibration,
    }
    if tracer is not None:
        traced_passes = len(pass_s[True])
        layers = tracer.per_pass(traced_passes)
        untraced = sum(pass_s[False]) / len(pass_s[False])
        layers["trace.overhead_pct"] = 100.0 * (sum(pass_s[True]) / traced_passes / untraced - 1.0)
        report["layers"] = layers
        report["traced_pass_s"] = pass_s[True]
        spans = Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans)
    return report


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:  # show_config's layout is not a stable API
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
