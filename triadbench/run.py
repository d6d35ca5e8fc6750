"""Run one workload of the triadlab benchmark and print its metrics.

    python3 triadbench/run.py --workload fd-wide --seed 3 --seconds 10 \
        --trace 0

Run from the root of a checkout that holds ``src/triadlab``.  The launcher
holds numpy's BLAS pool to one thread for every process it starts, times
``setup_s`` over several fresh interpreters, and starts one worker process
that serves the requests (see worker.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(*args) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py")] + list(args)


def setup_time(env) -> float:
    """Seconds from spawning Python until triadlab and catalog() are ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(worker_cmd("--probe"), env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed (exit %s)" % proc.returncode)
    return elapsed


def run_worker(env, args) -> dict:
    cmd = worker_cmd("--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace",
                     str(args.trace))
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d)" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "triadlab", "__init__.py")):
        print("error: src/triadlab not found; run from the root of a "
              "triadlab checkout", file=sys.stderr)
        return 2

    env = child_env()
    try:
        if not args.trace:
            setup_time(env)            # untimed: fills the bytecode cache
            setups = [setup_time(env) for _ in range(SETUP_PROBES)]
        raw = run_worker(env, args)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    for errs in raw["problems"]:
        print("failed request: " + "; ".join(errs))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(raw["layers"].items())}
    else:
        lat = raw["latencies"]
        metrics = {
            "points_per_s": {"value": sum(raw["points"]) / sum(lat),
                             "unit": "1/s"},
            "request_p50_ms": {"value": 1000.0 * statistics.median(lat),
                               "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024.0,
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": len(raw["latencies"]),
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
