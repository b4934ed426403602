"""codes: build a code, then run the distance oracle, the dual, the check
polynomial and membership tests on it.

Each round holds the same 24 job classes: first-kind and second-kind
skew-BCH codes over F2_6 with roots in F2_12, one per (delta, nu) of
BCH_DESIGNS; skew-RS codes over F2_6 (n = 6) and F2_12 (n = 12), one per
delta of RS_DELTAS; and one SkewCyclicCode per field of POOL and sigma
exponent, whose generator comes from a divisor pool built before timing
starts.  Fixing these classes keeps the cost of a round the same on every
seed; the seed draws the elements, offsets and pool entries, filtered with
integer arithmetic so that no construction condition or guard can refuse a
job.
"""

from __future__ import annotations

import random
from math import comb, gcd

from harness import Job, number_rounds
from skewcodes import (
    Bch1Spec,
    Bch2Spec,
    FieldEmbedding,
    Modulus,
    SkewCyclicCode,
    SkewRing,
    bch1_code,
    bch2_code,
    check_kernel_contains,
    check_polynomial,
    dual_code,
    enumerate_right_divisors,
    get_field,
    min_distance_exact,
    moore_matrix,
    skew_rs1,
)
from skewcodes.linalg import matrix_rank

POOL_ROUNDS = 60
TRACE_ROUNDS = 2

MESSAGE_GUARD = 1 << 24
COLUMN_GUARD = 1 << 25
LENGTH_GUARD = 24
# the second distance route is run as a cross-check when it costs at most this
CROSS_CHECK_BUDGET = 1 << 13
WORDS = 4  # codewords per job; as many random words again

# field -> (sigma exponents in turn, modulus degree n, generator degrees)
POOL = {
    "F4": ((1, 2), 12, (6,)),
    "F8": ((1, 3), 7, (3,)),
    "F9": ((1, 2), 6, (3,)),
}


def distance_costs(N, n, k):
    """(message route, column route) cost formulas of min_distance_exact."""
    return N ** k, sum(comb(n, w) for w in range(1, n - k + 2))


def auto_cost(N, n, k):
    """The guard estimate of the route strategy="auto" picks."""
    return min(distance_costs(N, n, k))


class State:
    def __init__(self):
        self.fields = []
        self.rounds = []
        self.pool = {}
        self.cross_checked = {}   # (ring, modulus, generator) -> distance by the other route


def _bracket_ok(order, k, t, n, q=2):
    """(alpha^t)^[i] != 1 for 1 <= i < n, alpha = gen^k of the given order,
    [i] = (q^i - 1)/(q - 1)."""
    return all((k * t * ((q ** i - 1) // (q - 1))) % order for i in range(1, n))


def _distinct_brackets(order, k, n, q=2):
    """alpha^[i] pairwise distinct for 0 <= i < n."""
    vals = {(k * ((q ** i - 1) // (q - 1))) % order for i in range(n)}
    return len(vals) == n


def _full_degree(order, k, degree):
    """gen^k lies in no proper subfield of F_{2^degree}."""
    ord_k = order // gcd(k, order)
    return all((2 ** d - 1) % ord_k for d in range(1, degree) if degree % d == 0)


# (delta, nu): at most five designed roots, so the generator degree stays
# below 12 and every code has k >= 2
BCH_DESIGNS = ((2, 0), (3, 0), (4, 0), (2, 1), (3, 1))
# field order -> designed distances of the skew-RS codes (n = 6 and n = 12)
RS_DELTAS = {64: (2, 3, 4, 5), 4096: (3, 4, 5, 6)}


def setup(seed, timer):
    st = State()
    F64 = timer.touch("F2_6.build", get_field, "F2_6")
    F4096 = timer.touch("F2_12.build", get_field, "F2_12")
    st.tower = timer.touch("F2_6->F2_12.embed", FieldEmbedding, F64, F4096)
    timer.touch("F2_6->F2_12.restrict", st.tower.restrict, F4096.one)
    st.R64 = SkewRing(F64, 1)
    st.R4096 = SkewRing(F4096, 1)
    for field in (F64, F4096):
        timer.warm_field(field)
    st.fields += [F64, F4096]
    rng = random.Random(seed)

    for name, (es, n, degs) in POOL.items():
        field = timer.touch(f"{name}.build", get_field, name)
        timer.warm_field(field)
        st.fields.append(field)
        for e in es:
            ring = SkewRing(field, e)
            # x^n - 1 and one drawn x^n - a: the same enumeration cost on every seed
            a = rng.randrange(2, field.order)
            pairs = []
            for f in (ring.x_pow_minus(n, field.one), ring.x_pow_minus(n, field.element(a))):
                res = enumerate_right_divisors(f, degrees=degs)
                pairs += [(f, g) for d in degs for g in res[d]]
            if not pairs:
                raise AssertionError(f"no divisor of degree {degs} for {name} e={e}")
            st.pool[name, e] = pairs

    normal = []
    k = 1
    while len(normal) < 8:
        orbit = [st.R4096.sigma(F4096.gen ** k, j) for j in range(12)]
        if matrix_rank(moore_matrix(st.R4096, orbit, 12), F4096) == 12:
            normal.append(k)
        k += 1
    st.normal = normal

    for _ in range(POOL_ROUNDS):
        jobs = [_bch1(st, rng, *dn) for dn in BCH_DESIGNS]
        jobs += [_bch2(st, rng, *dn) for dn in BCH_DESIGNS]
        jobs += [_rs(st, rng, order, delta) for order, deltas in RS_DELTAS.items()
                 for delta in deltas]
        for (name, e), pairs in st.pool.items():
            f, g = rng.choice(pairs)
            jobs.append(Job(None, f"pool/{name}/e{e}",
                            ("pool", (f, g), _words(rng, f.ring.field, f.degree))))
        rng.shuffle(jobs)
        st.rounds.append(jobs)
    number_rounds(st.rounds)
    return st


def _words(rng, field, n):
    msgs = [[rng.randrange(field.order) for _ in range(n)] for _ in range(WORDS)]
    rand = [[rng.randrange(field.order) for _ in range(n)] for _ in range(WORDS)]
    return msgs, rand


def _bch1(st, rng, delta, nu):
    F4096 = st.tower.target
    while True:
        k = rng.randrange(1, 4095)
        t1, t2 = rng.randrange(1, 64), rng.randrange(1, 64)
        ts = (t1,) if nu == 0 else (t1, t2)
        if all(_bracket_ok(4095, k, t, 12) for t in ts):
            break
    spec = Bch1Spec(base_ring=st.R64, emb=st.tower, alpha=F4096.gen ** k,
                    b=rng.randrange(0, 64), t1=t1, t2=t2, delta=delta, nu=nu, n=12)
    return Job(None, f"bch1/d{delta}n{nu}", ("bch1", spec, _words(rng, st.R64.field, 12)))


def _bch2(st, rng, delta, nu):
    F4096 = st.tower.target
    t2 = rng.choice([t for t in range(1, 24) if gcd(12, t) < delta])
    spec = Bch2Spec(base_ring=st.R64, emb=st.tower, alpha=F4096.gen ** rng.choice(st.normal),
                    b=rng.randrange(0, 12), t1=rng.choice((1, 5, 7, 11, 13)), t2=t2,
                    delta=delta, nu=nu)
    return Job(None, f"bch2/d{delta}n{nu}", ("bch2", spec, _words(rng, st.R64.field, 12)))


def _rs(st, rng, order, delta):
    ring, n = (st.R64, 6) if order == 64 else (st.R4096, 12)
    while True:
        k = rng.randrange(1, order - 1)
        if _full_degree(order - 1, k, n) and _distinct_brackets(order - 1, k, n):
            break
    args = (ring.field.gen ** k, rng.randrange(0, order - 1), delta, n)
    return Job(None, f"rs/F{order}/d{delta}", ("rs", (ring, args), _words(rng, ring.field, n)))


class CodeOut:
    __slots__ = ("code", "distance", "dual", "check", "c_tilde", "words", "members")


def run(state, job, tr):
    kind, params, (msgs, rand) = job.args
    if kind == "bch1":
        code = tr.call("bch.bch1_code", bch1_code, params)[0]
    elif kind == "bch2":
        code = tr.call("bch.bch2_code", bch2_code, params)[0]
    elif kind == "rs":
        ring, args = params
        code = tr.call("bch.skew_rs1", skew_rs1, ring, *args)
    else:
        f, g = params
        code = tr.call("codes.SkewCyclicCode", SkewCyclicCode, Modulus(f), g)
    out = CodeOut()
    out.code = code
    out.distance = tr.call("bch.min_distance_exact", min_distance_exact, code)
    out.dual = tr.call("codes.dual_code", dual_code, code)
    out.check, out.c_tilde = tr.call("codes.check_polynomial", check_polynomial, code)
    out.words = _codewords(code, msgs) + [[code.field.element(c) for c in w] for w in rand]
    out.members = [tr.call("codes.contains", code.contains, w) for w in out.words]
    return out


def _codewords(code, msgs):
    """Codewords u(x) * g for messages u of degree below k."""
    ring = code.ring
    words = []
    for m in msgs:
        c = ring.from_indices(m[: code.k]) * code.generator
        words.append([c.coefficient(i) for i in range(code.n)])
    return words


def guard(job, out):
    code = out.code
    return auto_cost(code.field.order, code.n, code.k)


def _key(f):
    return ",".join(str(c.i) for c in f.coefficients)


def canonical(job, out):
    code = out.code
    return "|".join([
        f"{code.n},{code.k},{out.distance}",
        _key(code.modulus.poly), _key(code.generator),
        _key(out.dual.code.generator), _key(out.dual.raw_generator),
        _key(out.check), str(out.c_tilde.i),
        "".join("1" if m else "0" for m in out.members),
    ])


def check(state, job, out):
    """Invariants that do not reuse the computing path: f = cofactor * g by
    multiplication, the Singleton and designed bounds, the other distance
    route where it is cheap, dual of the dual, and membership against the
    check-polynomial map."""
    kind, params, _ = job.args
    code = out.code
    n, k = code.n, code.k
    problems = []
    if k != n - code.generator.degree or code.cofactor * code.generator != code.modulus.poly:
        problems.append("generator does not divide the modulus")
    d = out.distance
    if not 1 <= d <= n - k + 1:
        problems.append(f"distance {d} outside [1, {n - k + 1}]")
    if kind in ("bch1", "bch2") and d < params.delta + params.nu:
        problems.append(f"distance {d} below designed {params.delta + params.nu}")
    if kind == "rs" and d != params[1][2]:
        problems.append(f"skew-RS distance {d} != delta {params[1][2]}")
    msg_cost, col_cost = distance_costs(code.field.order, n, k)
    other = "columns" if msg_cost <= col_cost else "messages"
    if max(msg_cost, col_cost) <= CROSS_CHECK_BUDGET:
        key = (code.ring, _key(code.modulus.poly), _key(code.generator))
        if key not in state.cross_checked:
            state.cross_checked[key] = min_distance_exact(code, strategy=other)
        d2 = state.cross_checked[key]
        if d2 != d:
            problems.append(f"distance routes disagree: {d} vs {other} {d2}")
    dual = out.dual.code
    if dual.k != n - k:
        problems.append(f"dual dimension {dual.k} != {n - k}")
    back = dual_code(dual).code
    if back.generator != code.generator or back.modulus != code.modulus:
        problems.append("dual of the dual is not the code")
    for i, w in enumerate(out.words):
        expect = check_kernel_contains(code, out.check, out.c_tilde, w)
        if i < WORDS and not expect:
            problems.append(f"codeword {i} fails the check polynomial")
        if out.members[i] != expect:
            problems.append(f"word {i}: contains {out.members[i]}, check map {expect}")
    if n > LENGTH_GUARD or min(msg_cost, col_cost) > min(MESSAGE_GUARD, COLUMN_GUARD):
        problems.append("job exceeds a distance guard")
    return problems
