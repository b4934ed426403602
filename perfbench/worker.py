"""One benchmark process: set up a workload, run its job stream, check it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

The worker prints "READY <speed factor>" once set-up is done (the launcher
times that line and scales it by the factor), then, with --trace 0, runs whole rounds of jobs one after another
until the jobs have taken --seconds, checks every answer and prints one
JSON line.
With --trace 1 it runs the first TRACE_ROUNDS rounds twice, untraced and
then traced, and prints the per-layer metrics instead.  Details (per-job
calibration records, table builds, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time

import harness
from harness import (
    OUT_DIR,
    Outcome,
    SpeedGauge,
    TableTimer,
    Verifier,
    load_goldens,
    median,
    tail,
    verify,
)
from tracing import (
    KERNEL_KEYS,
    LAYERS,
    KernelCounters,
    NullTracer,
    Tracer,
    span_totals,
    write_spans,
)

MODULES = {
    "divisors": "jobs_divisors",
    "codes": "jobs_codes",
    "bigfield": "jobs_bigfield",
    "cli-cold": "jobs_cli",
}

SKEWPOLY_FNS = ("mul", "right_divmod", "left_divmod", "evaluate", "gcrd_bezout", "lclm")
ROOTSETS_FNS = ("vanishing_set", "minimal_polynomial", "minimal_poly_over_subfield")
LINEARIZED_FNS = ("to_linearized", "lin_compose")
CODES_FNS = ("SkewCyclicCode", "contains", "dual_code", "check_polynomial")
BCH_FNS = ("min_distance_exact", "bch1_code", "bch2_code", "skew_rs1")


def per_layer_units():
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {f"fields.{k}.calls": ("count", "lower") for k in KERNEL_KEYS}
    units["fields.slow.calls"] = ("count", "lower")
    units["fields.self_s"] = ("s", "lower")
    units["fields.table_build_s"] = ("s", "lower")
    for fn in SKEWPOLY_FNS:
        units[f"skewpoly.{fn}.calls"] = ("count", "lower")
        units[f"skewpoly.{fn}.s"] = ("s", "lower")
    for layer, fns in (("rootsets", ROOTSETS_FNS), ("linearized", LINEARIZED_FNS),
                       ("linalg", ("matrix_rank",))):
        for fn in fns:
            units[f"{layer}.{fn}.s"] = ("s", "lower")
    units["codes.enumerate_right_divisors.s"] = ("s", "lower")
    units["codes.enumerate.candidates"] = ("count", "lower")
    units["codes.enumerate.found_per_candidate"] = ("ratio", "higher")
    units["codes.enumerate.candidates_per_s"] = ("1/s", "higher")
    for fn in CODES_FNS:
        units[f"codes.{fn}.s"] = ("s", "lower")
    for fn in BCH_FNS:
        units[f"bch.{fn}.s"] = ("s", "lower")
    units["bch.distance.cost_bound"] = ("count", "lower")
    for name in ("interpreter_ms", "import_ms", "command_ms"):
        units[f"cli.{name}"] = ("ms", "lower")
    for layer in LAYERS:
        units[f"{layer}.errors"] = ("count", "lower")
    units["trace.jobs_per_s_untraced"] = ("1/s", "higher")
    units["trace.jobs_per_s_traced"] = ("1/s", "higher")
    units["trace.overhead_pct"] = ("%", "lower")
    return units


def execute(module, state, job, tr):
    t0 = time.perf_counter()
    try:
        out = module.run(state, job, tr)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return Outcome(job, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Outcome(job, time.perf_counter() - t0, output=out)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def calibration_entry(module, oc):
    """The guard's cost formula next to the measured time, for one job."""
    return {"job": oc.job.jid, "kind": oc.job.kind,
            "cost": module.guard(oc.job, oc.output), "ms": oc.seconds * 1e3}


def per_kind(outcomes):
    """{job kind: [jobs, median ms]}."""
    lat = {}
    for oc in outcomes:
        lat.setdefault(oc.job.kind, []).append(oc.seconds * 1e3)
    return {kind: [len(v), median(v)] for kind, v in sorted(lat.items())}


def problems_of(outcomes, limit=20):
    out = []
    for oc in outcomes:
        if oc.failed:
            out.append({"job": oc.job.jid, "kind": oc.job.kind,
                        "error": oc.error, "problems": oc.problems[:3]})
    return out[:limit]


def timed_run(workload, module, state, seed, seconds):
    """Run whole rounds, one job at a time, until the jobs have taken
    `seconds`, speed-corrected (SpeedGauge), so that the number of rounds
    does not depend on the host's state.  Each output is checked and dropped
    right after its job, off the clock, so the harness neither holds outputs
    nor adds to the time.

    Every round holds the same job classes, so each round is one sample of
    the throughput; jobs_per_s is the median over rounds of correct jobs per
    second, which a burst of load on a shared machine moves less than the
    total would."""
    tr = NullTracer()
    check = Verifier(module, state, load_goldens(workload, seed))
    guarded = hasattr(module, "guard")
    gauge = SpeedGauge()
    outcomes, calib, round_s, round_rate = [], [], [], []
    rounds = state.rounds
    while sum(round_s) < seconds or not round_s:
        spent, ok = 0.0, 0
        for job in rounds[len(round_s) % len(rounds)]:
            oc = execute(module, state, job, tr)
            oc.seconds *= gauge.factor()
            spent += oc.seconds
            if not check(oc):
                ok += 1
                if guarded:
                    calib.append(calibration_entry(module, oc))
            oc.output = None
            outcomes.append(oc)
        round_s.append(spent)
        round_rate.append(ok / spent)
    rss = peak_rss_mb(workload)
    failed = sum(oc.failed for oc in outcomes)
    lat = [oc.seconds * 1e3 for oc in outcomes]
    raw = [oc.raw_seconds * 1e3 for oc in outcomes]
    tail_ms, tail_pct, n = tail(lat)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "rounds": len(round_s),
        "timed_s": sum(round_s),
        "round_s": round_s,
        "metrics": {
            "jobs_per_s": median(round_rate),
            "job_p50_ms": median(lat),
            "job_tail_ms": tail_ms,
            "peak_rss_mb": rss,
        },
        "jobs_per_s_overall": (len(outcomes) - failed) / sum(round_s),
        "uncorrected": {"jobs_per_s": (len(outcomes) - failed) / sum(raw) * 1e3,
                        "job_p50_ms": median(raw), "job_tail_ms": tail(raw)[0]},
        "tail_pct": tail_pct,
        "tail_samples": n,
        "failed_ratio": failed / len(outcomes),
        "problems": problems_of(outcomes),
        "per_kind": per_kind(outcomes),
        "calibration": calib,
    }


IMPORT_PROBE = ("import time; t = time.perf_counter(); import skewcodes; "
                "print((time.perf_counter() - t) * 1e3)")


def cli_probe(state):
    """(ms to run `python -c pass`, ms to import skewcodes measured inside a
    fresh interpreter).  Output is piped as for the CLI calls: with a
    timeout and no pipe, subprocess polls for the exit in steps of up to
    50 ms."""
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=harness.ROOT, env=state.env,
                   check=True, timeout=60, **pipes)
    start_ms = (time.perf_counter() - t0) * 1e3
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=harness.ROOT,
                         env=state.env, check=True, timeout=60, **pipes).stdout
    return start_ms, float(out)


def traced_run(workload, module, state, seed, timer):
    """The first TRACE_ROUNDS rounds untraced, then traced.  For cli-cold a
    start-up and an import probe follow every traced call, so that all
    three are sampled under the same machine load."""
    jobs = [job for rnd in state.rounds[: module.TRACE_ROUNDS] for job in rnd]
    gauge = SpeedGauge()

    def timed(job, tr):
        with tr.job(job.jid):
            oc = execute(module, state, job, tr)
        oc.seconds *= gauge.factor()
        return oc

    null = NullTracer()
    plain = [timed(job, null) for job in jobs]

    tracer = Tracer()
    counters = KernelCounters()
    probes = []
    counters.install(state.fields)
    traced = []
    try:
        for job in jobs:
            traced.append(timed(job, tracer))
            if workload == "cli-cold":
                probes.append(cli_probe(state))
    finally:
        counters.uninstall()
    time_plain = sum(oc.seconds for oc in plain)
    time_traced = sum(oc.seconds for oc in traced)

    goldens = load_goldens(workload, seed)
    failed = verify(module, state, plain, goldens) + verify(module, state, traced, goldens)
    totals = span_totals(tracer.spans)

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    m = {name: 0 for name in per_layer_units()}
    for key in KERNEL_KEYS:
        m[f"fields.{key}.calls"] = counters.counts[key]
    m["fields.slow.calls"] = counters.counts["slow"]
    m["fields.self_s"] = sum(s for name, (_, s) in totals.items() if name.startswith("fields."))
    m["fields.table_build_s"] = timer.total
    for fn in SKEWPOLY_FNS:
        m[f"skewpoly.{fn}.calls"] = totals.get(f"skewpoly.{fn}", (0, 0))[0]
        m[f"skewpoly.{fn}.s"] = secs(f"skewpoly.{fn}")
    for layer, fns in (("rootsets", ROOTSETS_FNS), ("linearized", LINEARIZED_FNS),
                       ("linalg", ("matrix_rank",)), ("codes", CODES_FNS), ("bch", BCH_FNS)):
        for fn in fns:
            m[f"{layer}.{fn}.s"] = secs(f"{layer}.{fn}")
    enum_s = secs("codes.enumerate_right_divisors")
    m["codes.enumerate_right_divisors.s"] = enum_s
    ok = [oc for oc in traced if oc.error is None]
    if hasattr(module, "enumeration_counts"):
        cands, found = module.enumeration_counts(ok)
        m["codes.enumerate.candidates"] = cands
        m["codes.enumerate.found_per_candidate"] = found / cands if cands else 0
        m["codes.enumerate.candidates_per_s"] = cands / enum_s if enum_s else 0
    if workload == "codes":
        m["bch.distance.cost_bound"] = sum(module.guard(oc.job, oc.output) for oc in ok)
    if probes:
        calls = [(end - start) / 1e6 for name, start, end, _, _ in tracer.spans
                 if name.startswith("cli.")]
        m["cli.interpreter_ms"] = median(p[0] for p in probes)
        m["cli.import_ms"] = median(p[1] for p in probes)
        m["cli.command_ms"] = median(c - p[0] - p[1] for c, p in zip(calls, probes))
    for layer in LAYERS:
        m[f"{layer}.errors"] = tracer.errors[layer]
    m["trace.jobs_per_s_untraced"] = len(jobs) / time_plain
    m["trace.jobs_per_s_traced"] = len(jobs) / time_traced
    m["trace.overhead_pct"] = 100.0 * (1 - time_plain / time_traced)

    write_spans(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl", tracer.spans)
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": m,
        "problems": problems_of(plain + traced),
        "calibration": [calibration_entry(module, oc) for oc in traced
                        if hasattr(module, "guard") and not oc.failed],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gauge = SpeedGauge()
    module = importlib.import_module(MODULES[args.workload])
    timer = TableTimer()
    state = module.setup(args.seed, timer)
    print(f"READY {gauge.factor()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(args.workload, module, state, args.seed, timer)
    else:
        result = timed_run(args.workload, module, state, args.seed, args.seconds)
    result["table_build"] = timer.entries
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1))
    result.pop("calibration")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
