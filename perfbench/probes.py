"""Layer probes: the field, ring and reach figures of the ROADMAP baseline
table, in one command.

    python3 perfbench/probes.py            # layer probes, a few seconds
    python3 perfbench/probes.py --reach    # also the two reach limits (~40 s)

Each probe is the median over REPEATS timings of a loop of calls.  Results
are printed and written to perfbench/out/probes.json together with nproc,
the Python version and the CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import time

from harness import OUT_DIR, median

from skewcodes import FieldSpec, SkewRing, evaluate, find_irreducible, get_field

REPEATS = 7


def per_call_us(fn, args_list):
    """Median over REPEATS of the mean time per call, in microseconds."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter() - t0) / len(args_list) * 1e6)
    return median(samples)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_probes(rng):
    out = {}
    F16 = get_field("F16")
    pairs = [(rng.randrange(1, 16), rng.randrange(1, 16)) for _ in range(20000)]
    out["F16.mul_i"] = per_call_us(F16.mul_i, pairs)
    out["F16.frob_i"] = per_call_us(F16.frob_i, [(a, b % 4) for a, b in pairs])
    elems = [(F16.element(a), F16.element(b)) for a, b in pairs]
    out["F16 FieldElement *"] = per_call_us(lambda a, b: a * b, elems)

    F217 = FieldSpec(2, (1, 0, 0, 1) + (0,) * 13 + (1,), name="F2_17")
    big = [(rng.randrange(1, F217.order), rng.randrange(1, F217.order)) for _ in range(200)]
    out["F2_17.mul_i"] = per_call_us(F217.mul_i, big)
    out["F2_17.inv_i"] = per_call_us(F217.inv_i, [(a,) for a, _ in big[:10]])

    ring = SkewRing(F16, 1)
    for deg in (8, 32, 128):
        def poly(d):
            return ring.from_indices([rng.randrange(16) for _ in range(d)] + [1])
        fs = [(poly(deg), poly(deg)) for _ in range(4)]
        out[f"skewpoly * deg {deg}"] = per_call_us(lambda f, g: f * g, fs)
        divs = [(poly(2 * deg), poly(deg)) for _ in range(4)]
        out[f"skewpoly right_divmod deg {2 * deg}/{deg}"] = per_call_us(
            lambda f, g: f.right_divmod(g), divs)
        pts = [(f, F16.element(rng.randrange(1, 16))) for f, _ in fs]
        out[f"skewpoly evaluate deg {deg}"] = per_call_us(evaluate, pts)
    return out


def reach_probes(rng):
    """The two reach limits: Frobenius tables above 2^16 elements and the
    F_3^7 addition table."""
    out = {}
    F217 = FieldSpec(2, (1, 0, 0, 1) + (0,) * 13 + (1,), name="F2_17")
    sample = [rng.randrange(1, F217.order) for _ in range(300)]
    # frob_i(a, j) builds a table of a^(2^j) for every element on first use;
    # time the per-element power on a sample and scale to the field
    shifts = {}
    for j in range(9):
        t0 = time.perf_counter()
        for a in sample:
            F217.pow_i(a, 2 ** j)
        shifts[j] = (time.perf_counter() - t0) / len(sample) * F217.order
    out["F2_17 frob table, shift 1 (s, extrapolated)"] = shifts[1]
    # a product whose left factor has degree 8 touches shifts 0..8 (e = 1)
    out["F2_17 frob tables 0..8 for a degree-8 product (s, extrapolated)"] = sum(shifts.values())

    F37 = FieldSpec(3, find_irreducible(3, 7), name="F3_7")
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    F37.add_i(1, 1)
    out["F3_7 add table build (s)"] = time.perf_counter() - t0
    out["F3_7 add table peak RSS growth (MB)"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="skewcodes layer probes")
    ap.add_argument("--reach", action="store_true", help="also measure the reach limits")
    args = ap.parse_args(argv)
    rng = random.Random(1)
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "probes_us": layer_probes(rng),
    }
    if args.reach:
        result["reach"] = reach_probes(rng)
    print(f"nproc={result['nproc']} python={result['python']} cpu={result['cpu']}")
    for name, us in result["probes_us"].items():
        print(f"{name:40s} {us:12.2f} us")
    for name, value in result.get("reach", {}).items():
        print(f"{name:64s} {value:10.2f}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "probes.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
