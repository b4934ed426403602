"""divisors: a stream of enumerate_right_divisors(x^n - a) jobs.

Each round holds one job per entry of N_LADDER, over F4, F8, F9, F16 and
F27, plus the fixed anchor x^14 + 1 over F_4[x; sigma] (603 nontrivial
divisors).  The ladder fixes n per slot so that every round costs the same
number of candidate divisions; the seed draws a, the slot order, and which
admissible sigma exponent e each slot uses (every e recurs in turn).
"""

from __future__ import annotations

import random

from harness import Job, number_rounds
from skewcodes import SkewRing, enumerate_right_divisors, get_field

POOL_ROUNDS = 24
TRACE_ROUNDS = 1

ENUM_GUARD = 1 << 25

# field -> (admissible sigma exponents, n values per round); with the anchor,
# guard costs run from 785 to 27,306 candidate divisions
N_LADDER = {
    "F4": ((1, 2), (10, 12, 13)),
    "F8": ((1, 3), (7, 8, 9)),
    "F9": ((1, 2), (6, 7)),
    "F16": ((1, 2, 4), (6, 7)),
    "F27": ((1, 3), (4, 5)),
}
ANCHOR = ("F4", 1, 14, 1)
ANCHOR_NONTRIVIAL = 603


def guard_cost(N, n):
    """The library's guard formula sum_{d=0..n} N^min(d, n-d)."""
    return sum(N ** min(d, n - d) for d in range(n + 1))


def candidates(N, n):
    """Trial divisions actually made: the guard formula without the trivial
    degrees 0 and n."""
    return guard_cost(N, n) - 2


class State:
    def __init__(self):
        self.fields = []
        self.rings = {}
        self.rounds = []


def setup(seed, timer):
    st = State()
    for name, (es, _) in N_LADDER.items():
        field = timer.touch(f"{name}.build", get_field, name)
        timer.warm_field(field)
        st.fields.append(field)
        for e in es:
            st.rings[name, e] = SkewRing(field, e)
    rng = random.Random(seed)
    offsets = {name: rng.randrange(len(es)) for name, (es, _) in N_LADDER.items()}
    for r in range(POOL_ROUNDS):
        jobs = [_job(st, *ANCHOR)]
        for name, (es, ns) in N_LADDER.items():
            order = st.rings[name, es[0]].field.order
            for i, n in enumerate(ns):
                e = es[(r + i + offsets[name]) % len(es)]
                jobs.append(_job(st, name, e, n, rng.randrange(1, order)))
        rng.shuffle(jobs)
        st.rounds.append(jobs)
    number_rounds(st.rounds)
    return st


def _job(st, name, e, n, a):
    ring = st.rings[name, e]
    field = ring.field
    if guard_cost(field.order, n) > ENUM_GUARD:
        raise AssertionError(f"generated job over the enumeration guard: {name} n={n}")
    f = ring.x_pow_minus(n, field.element(a))
    return Job(None, f"{name}/e{e}/n{n}", (f, (name, e, n, a)))


def run(state, job, tr):
    return tr.call("codes.enumerate_right_divisors", enumerate_right_divisors, job.args[0])


def canonical(job, out):
    parts = []
    for d in sorted(out):
        parts.append(f"{d}:" + ";".join(
            ",".join(str(c.i) for c in g.coefficients) for g in out[d]))
    return "|".join(parts)


def nontrivial(out, n):
    return sum(len(v) for d, v in out.items() if 0 < d < n)


def check(state, job, out):
    """Each divisor g is monic of its degree and q*g == f for the right
    quotient q, checked by multiplication; lists are strictly increasing."""
    f, (name, e, n, a) = job.args
    problems = []
    if sorted(out) != list(range(n + 1)):
        problems.append(f"degrees {sorted(out)}")
    for d, divs in out.items():
        keys = [[c.i for c in g.coefficients] for g in divs]
        if keys != sorted(keys) or len({tuple(k) for k in keys}) != len(keys):
            problems.append(f"degree {d} list not strictly ordered")
        for g in divs:
            if g.degree != d or not g.is_monic:
                problems.append(f"degree {d}: {g} not monic of degree {d}")
                continue
            q, r = f.right_divmod(g)
            if r or q * g != f:
                problems.append(f"degree {d}: q*g != f for g = {g}")
    if (name, e, n, a) == ANCHOR and nontrivial(out, n) != ANCHOR_NONTRIVIAL:
        problems.append(f"anchor count {nontrivial(out, n)} != {ANCHOR_NONTRIVIAL}")
    return problems


def guard(job, out):
    f = job.args[0]
    return guard_cost(f.ring.field.order, f.degree)


def enumeration_counts(outcomes):
    """(candidate divisions, nontrivial divisors found) over the outcomes."""
    cands = found = 0
    for oc in outcomes:
        f = oc.job.args[0]
        cands += candidates(f.ring.field.order, f.degree)
        found += nontrivial(oc.output, f.degree)
    return cands, found
