"""skewcodes benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is taken from src/.  With
--trace 0 it prints the end-to-end metrics (jobs_per_s, job_p50_ms,
job_tail_ms, setup_s, peak_rss_mb, and failed_ratio on the summary lines),
with --trace 1 the per-layer metrics of a traced run.  The last line of
standard output is one JSON object.  Workloads: divisors, codes, bigfield,
cli-cold (see NOTES.md).
"""

from __future__ import annotations

import argparse
import compileall
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import ROOT, WORKLOADS, median, pin_to_one_cpu
from worker import per_layer_units

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 3      # fresh-interpreter set-ups per run; setup_s is their median
DEADLINE_S = 170       # a run must end within 180 s
END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def run_worker(args, deadline, setup_only=False):
    """Start a worker; returns (seconds until it printed READY, scaled by the
    worker's speed factor; its result dict or None).  The worker is killed if
    the deadline passes."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, factor = first.partition(" ")
    if word != "READY" or code != 0:
        raise RuntimeError(f"worker exited with {code} before finishing")
    ready *= float(factor)
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="skewcodes benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src" / "skewcodes"
    if not (src / "__init__.py").is_file():
        print(f"benchmark: no skewcodes sources under {src}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    compileall.compile_dir(str(src), quiet=1)
    deadline = time.monotonic() + DEADLINE_S
    try:
        ready, result = run_worker(args, deadline)
        setups = [ready]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, deadline, setup_only=True)[0])
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={result['attempted']} failed={result['failed']}")
    if args.trace:
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
    else:
        metrics["setup_s"] = median(setups)
        units = END_TO_END
    shown = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in shown.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"failed_ratio = {result['failed_ratio']:.6g} ratio")
        print(f"job_tail_ms is p{result['tail_pct']:.1f} of {result['tail_samples']} samples; "
              f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for p in result["problems"][:5]:
        print(f"FAILED {p}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
