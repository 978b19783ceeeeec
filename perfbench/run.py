"""Benchmark for tkgmlp: training, scoring and encoding, plus a traced run.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload train-h64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own child process, with the BLAS thread count set
to one (each child prints it on its ``machine:`` line), so that
``peak_rss_mb`` and the timings belong to that workload alone.

``--trace 0`` prints the end-to-end metrics of the workload. ``--trace 1``
runs one traced probe per workload, each in its own process, and prints the
per-layer metrics (each taken from the workload it belongs to), the self
times of every traced span and the tracing overhead. Spans are written to
``.perfbench-out/``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-h64", "train-h512", "score-csv", "encode-ple")
RESULT_TAG = "PERFBENCH_RESULT"
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1
WORK_DIR = ".perfbench-work"


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TKGMLP_LOG"] = "warning"  # keep the CLI's info log lines off stderr
    return env


def run_child(workload: str, seed: int, seconds: float, probe: bool, timeout: float) -> dict:
    """Run one workload process; relay its output; return its result."""
    work = Path(WORK_DIR) / f"{workload}-{'probe' if probe else 'timed'}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--work-dir", str(work)]
    if probe:
        cmd.append("--probe")
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {timeout:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG + " "):
            result = json.loads(line[len(RESULT_TAG) + 1:])
        else:
            print(f"[{workload}] {line}")
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload}: workload process exited {proc.returncode} without a result")
    return result


def _merge(results: dict[str, dict], prefix: bool) -> dict:
    metrics = {}
    for name, res in results.items():
        for key, val in res["metrics"].items():
            metrics[f"{name}/{key}" if prefix else key] = val
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (Path("src") / "tkgmlp" / "__init__.py").is_file():
        print("error: run from the root of a tkgmlp checkout (src/tkgmlp not found)", file=sys.stderr)
        return 2

    # --trace 1 runs a probe of every workload, so each per-layer metric is
    # measured in every traced run. A single-workload call keeps all its
    # children inside one 170 s budget.
    names = WORKLOADS if args.trace or args.workload == "all" else (args.workload,)
    budget_end = time.perf_counter() + CHILD_TIMEOUT_S
    results = {}
    try:
        for name in names:
            timeout = (CHILD_TIMEOUT_S if args.workload == "all"
                       else max(budget_end - time.perf_counter(), 1.0))
            results[name] = run_child(name, args.seed, args.seconds, bool(args.trace), timeout)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _merge(results, prefix=args.workload == "all" and not args.trace)

    for key, val in out["metrics"].items():
        print(f"{key:40s} {val['value']:>18.6f} {val['unit']}")
    print(f"correct={out['correct']} attempted={out['attempted']} failed={out['failed']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
