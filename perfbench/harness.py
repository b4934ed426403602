"""Statistics, digests and job bookkeeping shared by the benchmark's processes.

Nothing here imports skewcodes, so the launcher can use it before it knows
whether the library is present.  Importing this module puts the checkout's
src/ first on sys.path: the benchmark always measures the library next to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

WORKLOADS = ("divisors", "codes", "bigfield", "cli-cold")

# Goldens are recorded for this seed of every workload (see NOTES.md).
PINNED_SEED = 1

# A tail percentile needs this many samples strictly above it.
TAIL_MIN_BEYOND = 10

# One pass of SpeedGauge's reference loop, in ms, on the 2-core Intel Xeon
# host the benchmark was defined on, in its faster state.
REFERENCE_MS = 2.3


def median(values):
    return statistics.median(values)


def tail(values):
    """(value, percentile, n): the highest percentile of the samples that
    still has TAIL_MIN_BEYOND samples above it.

    With n sorted samples that is the sample at rank n - TAIL_MIN_BEYOND
    (1-based), i.e. the percentile 100 * (n - 10) / n.  With too few
    samples the maximum is returned as the 100th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = n - TAIL_MIN_BEYOND
    if rank < 1:
        return xs[-1], 100.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_goldens(workload, seed):
    """{job id: digest} for the pinned seed, else None."""
    if seed != PINNED_SEED or not GOLDEN_PATH.exists():
        return None
    data = json.loads(GOLDEN_PATH.read_text())
    entry = data.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digests"]


class Job:
    """One unit of work in a job stream.

    ``jid`` is stable for a seed ("r<round>.<slot>"), ``kind`` names the job
    class and ``args`` holds the generated inputs.
    """

    __slots__ = ("jid", "kind", "args")

    def __init__(self, jid, kind, args):
        self.jid = jid
        self.kind = kind
        self.args = args

    def __repr__(self):
        return f"Job({self.jid}, {self.kind})"


def number_rounds(rounds):
    """Give every job of a list of rounds its stable id; returns the rounds."""
    for r, jobs in enumerate(rounds):
        for s, job in enumerate(jobs):
            job.jid = f"r{r}.{s}"
    return rounds


class Outcome:
    """What one executed job produced: latency, output or error, verdict.

    ``seconds`` is the job's time corrected for the machine's speed (see
    SpeedGauge); ``raw_seconds`` the time as measured."""

    __slots__ = ("job", "seconds", "raw_seconds", "output", "error", "problems")

    def __init__(self, job, seconds, output=None, error=None):
        self.job = job
        self.seconds = seconds
        self.raw_seconds = seconds
        self.output = output
        self.error = error
        self.problems = []

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


class Verifier:
    """Checks outcomes against the workload's invariants and, on the pinned
    seed, against the golden digests; sets each outcome's problems.

    A job that runs more than once (the stream cycles through its pool) is
    checked once per distinct output."""

    def __init__(self, module, state, goldens):
        self.module = module
        self.state = state
        self.goldens = goldens
        self.verdicts = {}

    def __call__(self, oc):
        """Check one outcome; returns True when the job failed."""
        if oc.error is None:
            try:
                got = digest(self.module.canonical(oc.job, oc.output))
                key = (oc.job.jid, got)
                if key not in self.verdicts:
                    problems = list(self.module.check(self.state, oc.job, oc.output))
                    want = self.goldens.get(oc.job.jid) if self.goldens else None
                    if want is not None and want != got:
                        problems.append(f"golden digest {got} != {want}")
                    self.verdicts[key] = problems
                oc.problems.extend(self.verdicts[key])
            except Exception as exc:  # a check that crashes is a failed job
                oc.problems.append(f"check raised {type(exc).__name__}: {exc}")
        return oc.failed


def verify(module, state, outcomes, goldens):
    """Check a list of outcomes; returns the failed count."""
    check = Verifier(module, state, goldens)
    return sum(check(oc) for oc in outcomes)


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU, so that the
    reference loop and the jobs run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedGauge:
    """How fast the machine runs right now, from a fixed pure-Python loop.

    The benchmark's host is shared: each core switches, every few seconds,
    between two speeds about 1.5x apart, and the same code slows down with
    it (see NOTES.md).  The loop (table lookups and integer arithmetic; no
    skewcodes code) is timed between jobs, at most every INTERVAL_S, and a
    job's time is scaled by REFERENCE_MS over the mean of the two latest
    loop times, taken just before and after it when the job is long: times
    are reported at the host's faster speed.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        rng = random.Random(0)
        self._table = [rng.randrange(1 << 16) for _ in range(4096)]
        self._index = [rng.randrange(4096) for _ in range(20000)]
        self.last = self.reference_ms()
        self.scale = 1.0
        self.stamp = None

    def reference_ms(self):
        t0 = time.perf_counter()
        acc = 0
        table = self._table
        for i in self._index:
            acc ^= table[i] * (i | 1) & 0xFFFF
            acc = table[acc & 4095]
        return (time.perf_counter() - t0) * 1e3

    def factor(self):
        """Scale for the time since the previous call."""
        if self.stamp is None or time.perf_counter() - self.stamp >= self.INTERVAL_S:
            now = self.reference_ms()
            self.scale = 2 * REFERENCE_MS / (self.last + now)
            self.last = now
            self.stamp = time.perf_counter()
        return self.scale


class TableTimer:
    """Times first touches of lazily built field tables during set-up."""

    def __init__(self):
        self.entries = []

    def touch(self, label, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.entries.append((label, time.perf_counter() - t0))
        return out

    def warm_field(self, field):
        """Build the log, add and every Frobenius table of a table field."""
        label = field.name
        if field.order > 1 << 16:
            return
        self.touch(f"{label}.log", field.mul_i, 1, 1)
        if field.p != 2:
            self.touch(f"{label}.add", field.add_i, 0, 0)
        for j in range(field.degree):
            self.touch(f"{label}.frob{j}", field.frob_i, 1, j)

    @property
    def total(self):
        return sum(s for _, s in self.entries)
