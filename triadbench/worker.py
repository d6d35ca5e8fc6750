"""The process that serves the benchmark's requests; started by run.py.

``worker.py --probe`` imports triadlab, builds the catalog and prints
``ready``: run.py times it for ``setup_s``.  Otherwise the worker sends the
workload's request list in a closed loop from one thread, reads its own peak
RSS, then checks every report with the verifier and one point of every
request with the oracle, and prints one JSON line of raw figures.  With
``--trace 1`` it sends the first round untraced, then again under the
tracer, and prints the per-layer metrics instead of the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import triadlab
import workloads

OUT_DIR = ".triadbench_out"     # in the checkout; ignored by git


def serve(reqs, out_dir, tracer=None):
    """Send every request once; return latencies and report paths."""
    latencies, paths = [], []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        report = triadlab.run_suite(triadlab.RunConfig(**req))
        payload = triadlab.emit_report(report, "json")
        latencies.append(time.perf_counter() - t0)
        del report
        if tracer is not None:
            tracer.end_request()
            tracer.counts["runner.report_bytes"] += len(payload)
        # Reports go to disk, outside the timed region, so that holding them
        # does not raise the serving process's memory.
        path = os.path.join(out_dir, "%s-%d.json"
                            % ("traced" if tracer else "report", i))
        with open(path, "wb") as fh:
            fh.write(payload)
        paths.append(path)
    return latencies, paths


def check(reqs, paths) -> list:
    """One list of broken rules per request (verifier, then oracle)."""
    import numpy as np
    import verify

    cat = triadlab.catalog()
    problems = []
    for i, (req, path) in enumerate(zip(reqs, paths)):
        with open(path, "rb") as fh:
            payload = fh.read()
        errs = verify.verify_report(payload, req)
        if not errs:
            recs = json.loads(payload)["records"]
            k = i % req["points"]
            p = next(r["point"] for r in recs if r["point_index"] == k)
            triad = cat[req["example_id"]].build(
                triadlab.DiffEngine(mode=req["mode"]))
            errs = verify.oracle_errors(triad, req["example_id"], req["mode"],
                                        np.asarray(p))
        problems.append(errs)
    return problems


def serve_and_check(args, run_dir) -> dict:
    reqs = workloads.requests(args.workload, args.seed, args.seconds)
    if args.trace:
        # A traced run sends the first round untraced, then again traced,
        # so that it costs about two rounds whatever --seconds is.
        reqs = reqs[:len(workloads.WORKLOADS[args.workload].examples)]
    latencies, paths = serve(reqs, run_dir)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"latencies": latencies, "points": [r["points"] for r in reqs]}

    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tr.install()
        try:
            traced, traced_paths = serve(reqs, run_dir, tr)
        finally:
            tr.restore()
        layers = tr.layer_metrics()
        layers["trace.overhead_s"] = sum(traced) - sum(latencies)
        tr.write(os.path.join(OUT_DIR, "spans-%s-%d.npz"
                              % (args.workload, args.seed)))
        out["layers"] = layers
    else:
        out["peak_rss_kb"] = peak_kb

    problems = check(reqs, paths)
    if args.trace:
        for errs, a, b in zip(problems, paths, traced_paths):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    errs.append("tracing changed the report bytes")
    out["failed"] = sum(1 for e in problems if e)
    out["problems"] = [e for e in problems if e][:5]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.probe:
        triadlab.catalog()
        print("ready", flush=True)
        return 0

    # One directory per run, so that runs sharing a checkout never read
    # each other's reports; it is removed once the reports are checked.
    run_dir = os.path.join(OUT_DIR, "%s-%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
    os.makedirs(run_dir)
    try:
        out = serve_and_check(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
