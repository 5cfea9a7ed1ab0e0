"""One workload process of the fermiopt benchmark.

Started by ``run.py``, which pins the BLAS/OpenMP thread counts in this
process's environment before numpy is imported here.  The process sets up
(imports, builds the instance list, runs one untimed warm-up instance) and
then runs whole passes over the fixed instance list, one instance after the
other, while another pass is predicted to fit in ``--seconds``.  With
``--trace 1`` it times the same passes once untraced and once traced and
reports per-layer metrics instead of end-to-end ones.  The last stdout line
is one JSON object.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

E2E_UNITS = {
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "guarantee_frac": "ratio",
    "setup_s": "s",  # taken over several processes by run.py
}


def run_passes(instances, budget_s=None, passes=None, on_start=None):
    """Run whole passes over ``instances``.

    Either exactly ``passes`` passes, or passes while the elapsed time plus
    the longest pass so far stays within ``budget_s`` (at least one).
    Returns ``(records, wall_s, passes)`` with one ``(seconds, outcome)``
    record per instance run.
    """
    records = []
    start = time.perf_counter()
    longest = 0.0
    done = 0
    while True:
        pass_start = time.perf_counter()
        for index, inst in enumerate(instances):
            if on_start is not None:
                on_start(done * len(instances) + index)
            t0 = time.perf_counter()
            outcome = workloads.run_instance(inst)
            records.append((time.perf_counter() - t0, outcome))
        done += 1
        longest = max(longest, time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if passes is not None and done >= passes:
            break
        if passes is None and elapsed + longest > budget_s:
            break
    return records, time.perf_counter() - start, done


def check_passes(records, per_pass):
    """Problems across passes: failed instances, and any pass whose artifact
    digests differ from the first pass's.  Returns (problems, digest)."""
    problems = [
        f"instance {i % per_pass}: {p}"
        for i, (_, outcome) in enumerate(records)
        for p in outcome.problems
    ]
    digests = [outcome.digest for _, outcome in records]
    first = digests[:per_pass]
    for start in range(per_pass, len(digests), per_pass):
        if digests[start : start + per_pass] != first:
            problems.append(f"artifact digests of pass {start // per_pass} differ from pass 0")
    joined = "".join(d for d in first if d is not None)
    return problems, hashlib.sha256(joined.encode()).hexdigest() if joined else None


def end_to_end(records, per_pass):
    """End-to-end metrics of the untraced timed phase.

    The rate takes, for each instance of the list, its median time over the
    passes, so a burst of load from outside the process that slows one pass
    does not move it; the mix of instances stays that of one pass.
    """
    outcomes = [outcome for _, outcome in records]
    passed = sum(outcome.ok for outcome in outcomes)
    certified = [outcome.guarantee for outcome in outcomes if outcome.guarantee is not None]
    seconds = [s for s, _ in records]
    pass_time = sum(statistics.median(seconds[i::per_pass]) for i in range(per_pass))
    return {
        "instances_per_s": passed / len(outcomes) * per_pass / pass_time,
        "instance_s.p50": statistics.median(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": passed / len(outcomes),
        "guarantee_frac": sum(certified) / len(certified) if certified else 0.0,
    }


def write_trace(tracer, workload, seed) -> str:
    """Write the spans kept in memory, one row each, and return the path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    doc = {
        "columns": ["id", "name", "start", "end", "parent", "instance", "ok"],
        "spans": [[s.id, s.name, s.start, s.end, s.parent, s.instance, s.ok] for s in tracer.spans],
        "counts": dict(tracer.counts),
        "patched_bindings": len(tracer.bindings),
    }
    path.write_text(json.dumps(doc))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    instances = workloads.build_instances(args.workload, args.seed)
    warm = workloads.run_instance(instances[0])
    setup_s = time.monotonic() - args.t0
    doc = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    per_pass = len(instances)
    if not args.trace:
        records, wall_s, passes = run_passes(instances, budget_s=args.seconds)
        problems, digest = check_passes(records, per_pass)
        metrics = end_to_end(records, per_pass)
        doc["units"] = E2E_UNITS
    else:
        untraced, wall_u, passes = run_passes(instances, budget_s=args.seconds / 2)
        tracer = Tracer()
        tracer.install("fermiopt", layers.targets(tracer))
        try:
            records, wall_s, _ = run_passes(
                instances, passes=passes, on_start=lambda i: setattr(tracer, "instance", i)
            )
        finally:
            restored = tracer.uninstall()
        problems, digest = check_passes(untraced + records, per_pass)
        if not restored:
            problems.append("a patched fermiopt name was not restored")
        by_id = {i: instances[i % per_pass] for i in range(len(records))}
        metrics = layers.derive(tracer, by_id, wall_s, wall_u)
        doc["trace_file"] = write_trace(tracer, args.workload, args.seed)
        doc["units"] = {metric.name: metric.unit for metric in layers.LAYER_METRICS}
        doc["layer_map"] = {
            metric.name: {"kind": metric.kind, "moves": metric.moves, "no_change": metric.no_change}
            for metric in layers.LAYER_METRICS
        }
        doc["layer_notes"] = layers.NOTES
        doc["hot_spots"] = layers.hot_spots(tracer)
    doc.update(
        attempted=len(records),
        failed=sum(not outcome.ok for _, outcome in records),
        problems=warm.problems + problems,
        metrics=metrics,
        info={
            "passes": passes,
            "instances_per_pass": per_pass,
            "instance_samples": len(records),
            "instance_seconds": [
                [instances[i % per_pass].kind, instances[i % per_pass].size, seconds]
                for i, (seconds, _) in enumerate(records)
            ],
            "timed_wall_s": wall_s,
            "artifact_digest": digest,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
