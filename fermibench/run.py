#!/usr/bin/env python3
"""fermiopt benchmark: one workload per call, run from the repository root.

    python3 fermibench/run.py --workload ssyk_certify --seed 1 --seconds 25 --trace 0

Each workload runs in its own single-threaded process (BLAS/OpenMP pinned to
one thread), one at a time.  With ``--trace 0`` the command prints every
end-to-end metric; with ``--trace 1`` a separate traced run prints the
per-layer metrics.  Set-up time is taken from several fresh processes and
reported as their median.  The last stdout line is the result as one JSON
object; the full record, with provenance, goes to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 2  # set-up-only processes besides the measured one
DEADLINE_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def spawn(args, deadline: float, extra=()) -> dict:
    """Run one worker process to completion and return its JSON document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in PINNED})
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--t0={time.monotonic()!r}",
        *extra,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="see fermibench/workloads.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fermiopt" / "__init__.py").is_file():
        print(f"fermibench: no fermiopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        doc = spawn(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"fermibench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    setups.append(doc["setup_s"])
    metrics = dict(doc["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = doc["units"]
    for problem in doc["problems"]:
        print(f"fermibench: check failed: {problem}", file=sys.stderr)

    info = doc["info"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "pinned_threads": {var: "1" for var in PINNED},
        "setup_samples_s": setups,
        "problems": doc["problems"],
        "trace_file": doc.get("trace_file"),
        "layer_map": doc.get("layer_map"),
        "layer_notes": doc.get("layer_notes"),
        "hot_spots": doc.get("hot_spots"),
        **info,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(
        f"{args.workload} seed={args.seed}: {info['instance_samples']} instances in "
        f"{info['passes']} pass(es) of {info['instances_per_pass']}, "
        f"{info['timed_wall_s']:.2f} s timed; artifact_digest {info['artifact_digest']}"
    )
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for name, seconds, share in doc.get("hot_spots", ()):
        print(f"  hot spot {name:<44} {seconds:9.3f} s self {share:7.1%}")
    result = {
        "correct": not doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
