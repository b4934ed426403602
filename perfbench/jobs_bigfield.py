"""bigfield: ring, root and field-only jobs where the field kernel's table
builds and slow path decide the time.

Ring jobs run over F_2^16 (the largest table field, XOR addition), F_3^10
(table multiplication, list-based addition) and F_3^6 (addition table).
Field-only jobs run over F_2^17 and F_3^11, above the 2^16 table limit.
Every round holds the same job classes; the seed draws the sigma exponent
of each ring (in turn over the admissible ones), the polynomials, the
points and the matrices.
"""

from __future__ import annotations

import random

from harness import Job, number_rounds
from skewcodes import (
    FieldEmbedding,
    FieldSpec,
    SkewRing,
    evaluate,
    from_linearized,
    gcrd_bezout,
    lclm,
    lin_compose,
    minimal_poly_over_subfield,
    minimal_polynomial,
    to_linearized,
    vanishing_set,
)
from skewcodes.linalg import matrix_rank

POOL_ROUNDS = 48
TRACE_ROUNDS = 4

# name -> (p, ascending defining polynomial, primitive flag)
FIELDS = {
    "F2_16": (2, (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1), True),
    "F3_10": (3, (1, 0, 2) + (0,) * 7 + (1,), False),
    "F3_6": (3, (2, 1, 0, 0, 0, 0, 1), False),
    "F2_8": (2, (1, 0, 1, 1, 1, 0, 0, 0, 1), True),
    "F2_17": (2, (1, 0, 0, 1) + (0,) * 13 + (1,), False),
    "F3_11": (3, (2, 0, 1) + (0,) * 8 + (1,), False),
}
RING_FIELDS = {"F2_16": (1, 2, 4, 8), "F3_10": (1, 2, 5), "F3_6": (1, 2, 3)}
SUBFIELD_ES = (1, 2, 4)        # F_2^8 -> F_2^16 needs e | 8
SLOW_FIELDS = ("F2_17", "F3_11")
SWEEP_FIELDS = ("F2_16", "F3_6")  # an F_3^10 sweep takes about 2.7 s

MUL_DEG = 32
GCD_DEG = 12
LCLM_DEG = 6
EVAL_DEG = 16
EVAL_POINTS = 24
MINPOLY_POINTS = 6
SWEEP_ROOTS = 3
PRODUCTS = 160
POWERS = 3
MATRIX = 7


class State:
    def __init__(self):
        self.F = {}
        self.fields = []
        self.rounds = []


def setup(seed, timer):
    st = State()
    for name, (p, mod, prim) in FIELDS.items():
        st.F[name] = timer.touch(f"{name}.build", FieldSpec, p, mod, prim, name)
        timer.warm_field(st.F[name])
        st.fields.append(st.F[name])
    st.emb = timer.touch("F2_8->F2_16.embed", FieldEmbedding, st.F["F2_8"], st.F["F2_16"])
    timer.touch("F2_8->F2_16.restrict", st.emb.restrict, st.F["F2_16"].one)
    st.rings = {(name, e): SkewRing(st.F[name], e)
                for name, es in RING_FIELDS.items() for e in es}
    for e in SUBFIELD_ES:
        st.rings["F2_8", e] = SkewRing(st.F["F2_8"], e)
    rng = random.Random(seed)
    offsets = {name: rng.randrange(len(es)) for name, es in RING_FIELDS.items()}
    for r in range(POOL_ROUNDS):
        jobs = []
        for name, es in RING_FIELDS.items():
            ring = st.rings[name, es[(r + offsets[name]) % len(es)]]
            jobs += _ring_jobs(rng, ring)
            if name in SWEEP_FIELDS:
                pts = _points(rng, ring.field, SWEEP_ROOTS)
                f = minimal_polynomial(ring, pts)
                jobs.append(Job(None, f"vanish/{name}", ("vanish", ring, f, pts)))
        base = st.rings["F2_8", SUBFIELD_ES[r % len(SUBFIELD_ES)]]
        a = st.F["F2_16"].element(rng.randrange(1, st.F["F2_16"].order))
        jobs.append(Job(None, "mpos/F2_8<F2_16", ("mpos", base, a)))
        for name in SLOW_FIELDS:
            F = st.F[name]
            jobs.append(Job(None, f"fops/{name}", ("fops", F, _points(rng, F, PRODUCTS + 1),
                                                   [rng.randrange(2, F.order) for _ in range(POWERS)])))
            rank = rng.randrange(2, MATRIX + 1)
            jobs.append(Job(None, f"rank/{name}", ("rank", F, _matrix(rng, F, rank), rank)))
        rng.shuffle(jobs)
        st.rounds.append(jobs)
    number_rounds(st.rounds)
    return st


def _points(rng, field, k):
    return [field.element(i) for i in rng.sample(range(1, field.order), k)]


def _poly(rng, ring, deg, monic=False):
    N = ring.field.order
    ci = [rng.randrange(N) for _ in range(deg)] + [1 if monic else rng.randrange(1, N)]
    return ring.from_indices(ci)


def _ring_jobs(rng, ring):
    name = ring.field.name
    f, g = _poly(rng, ring, MUL_DEG), _poly(rng, ring, MUL_DEG)
    h = _poly(rng, ring, 2 * MUL_DEG)
    common = _poly(rng, ring, 4, monic=True)
    g1 = _poly(rng, ring, GCD_DEG - 4) * common
    g2 = _poly(rng, ring, GCD_DEG - 4) * common
    return [
        Job(None, f"mul/{name}", ("mul", ring, f, g)),
        Job(None, f"rdiv/{name}", ("rdiv", ring, h, g)),
        Job(None, f"ldiv/{name}", ("ldiv", ring, h, g)),
        Job(None, f"gcrd/{name}", ("gcrd", ring, g1, g2, common)),
        Job(None, f"lclm/{name}", ("lclm", ring, _poly(rng, ring, LCLM_DEG), _poly(rng, ring, LCLM_DEG))),
        Job(None, f"eval/{name}", ("eval", ring, _poly(rng, ring, EVAL_DEG), _points(rng, ring.field, EVAL_POINTS))),
        Job(None, f"minpoly/{name}", ("minpoly", ring, _points(rng, ring.field, MINPOLY_POINTS))),
        Job(None, f"lin/{name}", ("lin", ring, f, g)),
    ]


def _matrix(rng, F, rank):
    """A MATRIX x MATRIX matrix of exactly the given rank, built with
    additions only: rows [I_rank | random] and sums of them, then rows and
    columns permuted."""
    N = F.order
    top = [[1 if j == i else 0 for j in range(rank)] +
           [rng.randrange(N) for _ in range(MATRIX - rank)] for i in range(rank)]
    rows = list(top)
    for _ in range(MATRIX - rank):
        acc = [0] * MATRIX
        for row in rng.sample(top, rng.randrange(1, rank + 1)):
            acc = [F.add_i(x, y) for x, y in zip(acc, row)]
        rows.append(acc)
    rng.shuffle(rows)
    perm = rng.sample(range(MATRIX), MATRIX)
    return [[F.element(row[j]) for j in perm] for row in rows]


def run(state, job, tr):
    kind = job.args[0]
    if kind == "mul":
        _, _, f, g = job.args
        return tr.call("skewpoly.mul", f.__mul__, g)
    if kind == "rdiv":
        _, _, h, g = job.args
        return tr.call("skewpoly.right_divmod", h.right_divmod, g)
    if kind == "ldiv":
        _, _, h, g = job.args
        return tr.call("skewpoly.left_divmod", h.left_divmod, g)
    if kind == "gcrd":
        return tr.call("skewpoly.gcrd_bezout", gcrd_bezout, job.args[2], job.args[3])
    if kind == "lclm":
        return tr.call("skewpoly.lclm", lclm, job.args[2], job.args[3])
    if kind == "eval":
        _, _, f, pts = job.args
        return [tr.call("skewpoly.evaluate", evaluate, f, a) for a in pts]
    if kind == "minpoly":
        _, ring, pts = job.args
        return tr.call("rootsets.minimal_polynomial", minimal_polynomial, ring, pts)
    if kind == "lin":
        _, _, f, g = job.args
        F = tr.call("linearized.to_linearized", to_linearized, f)
        G = tr.call("linearized.to_linearized", to_linearized, g)
        return tr.call("linearized.lin_compose", lin_compose, F, G)
    if kind == "vanish":
        return tr.call("rootsets.vanishing_set", vanishing_set, job.args[2])
    if kind == "mpos":
        _, base, a = job.args
        return tr.call("rootsets.minimal_poly_over_subfield",
                       minimal_poly_over_subfield, base, state.emb, a)
    if kind == "fops":
        _, F, xs, ks = job.args
        with tr.span("fields.mul"):
            prods = [a * b for a, b in zip(xs, xs[1:])]
        with tr.span("fields.inv"):
            invs = [a.inverse() for a in xs[:POWERS]]
        with tr.span("fields.pow"):
            pows = [a ** k for a, k in zip(xs, ks)]
        return prods, invs, pows
    if kind == "rank":
        _, F, M, _ = job.args
        return tr.call("linalg.matrix_rank", matrix_rank, M, F)
    raise ValueError(f"unknown job kind {kind}")


def _key(f):
    return ",".join(str(c.i) for c in f.coefficients)


def canonical(job, out):
    kind = job.args[0]
    if kind in ("mul", "lclm", "minpoly", "mpos"):
        return _key(out)
    if kind in ("rdiv", "ldiv"):
        return _key(out[0]) + "|" + _key(out[1])
    if kind == "gcrd":
        return "|".join(_key(x) for x in out)
    if kind == "eval":
        return ",".join(str(v.i) for v in out)
    if kind == "lin":
        return ",".join(str(c.i) for c in out.coefficients)
    if kind == "vanish":
        return ",".join(str(a.i) for a in out)
    if kind == "fops":
        return "|".join(",".join(str(v.i) for v in part) for part in out)
    return str(out)


def _naive_mul(ring, f, g):
    """f*g straight from x a = sigma(a) x, with FieldElement arithmetic."""
    fc, gc = f.coefficients, g.coefficients
    zero = ring.field.zero
    out = [zero] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] = out[i + j] + a * ring.sigma(b, i)
    return ring.poly(out)


def _pow_by_squaring(a, k):
    acc, base = a.field.one, a
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def check(state, job, out):
    kind = job.args[0]
    problems = []
    if kind == "mul":
        _, ring, f, g = job.args
        if out != _naive_mul(ring, f, g):
            problems.append("product differs from the naive product")
    elif kind in ("rdiv", "ldiv"):
        _, ring, h, g = job.args
        s, r = out
        back = s * g + r if kind == "rdiv" else g * s + r
        if back != h or not r.degree < g.degree:
            problems.append(f"{kind}: quotient and remainder do not rebuild the dividend")
    elif kind == "gcrd":
        _, ring, g1, g2, common = job.args
        d, u, v = out
        if not d.is_monic or u * g1 + v * g2 != d:
            problems.append("Bezout identity fails")
        if g1.right_divmod(d)[1] or g2.right_divmod(d)[1] or d.right_divmod(common)[1]:
            problems.append("gcrd does not divide both inputs or misses the common factor")
    elif kind == "lclm":
        _, ring, f1, f2 = job.args
        if not out.is_monic or out.right_divmod(f1)[1] or out.right_divmod(f2)[1]:
            problems.append("lclm is not a monic common left multiple")
        if out.degree > f1.degree + f2.degree:
            problems.append("lclm degree above the sum of degrees")
    elif kind == "eval":
        _, ring, f, pts = job.args
        for a, v in zip(pts, out):
            r = f.right_divmod(ring.x_minus(a))[1]
            if r.coefficient(0) != v:
                problems.append(f"f({a}) differs from the remainder mod x - a")
    elif kind == "minpoly":
        _, ring, pts = job.args
        if not out.is_monic or out.degree > len(pts) or any(out(a) for a in pts):
            problems.append("minimal polynomial misses a point")
    elif kind == "lin":
        _, ring, f, g = job.args
        if from_linearized(out) != _naive_mul(ring, f, g):
            problems.append("composition differs from the skew product")
    elif kind == "vanish":
        _, ring, f, pts = job.args
        found = set(a.i for a in out)
        if any(f(a) for a in out) or not found >= {a.i for a in pts}:
            problems.append("vanishing set has a non-root or misses a known root")
        elif f.right_divmod(minimal_polynomial(ring, list(out)))[1]:
            problems.append("minimal polynomial of the set does not divide f")
    elif kind == "mpos":
        _, base, a = job.args
        ext = SkewRing(state.emb.target, base.e)
        lifted = ext.poly([state.emb.embed(c) for c in out.coefficients])
        if not out.is_monic or out.degree > 2 or lifted(a):
            problems.append("subfield minimal polynomial does not vanish at a")
    elif kind == "fops":
        _, F, xs, ks = job.args
        prods, invs, pows = out
        for a, b, ab in zip(xs, xs[1:], prods):
            if ab != b * a:
                problems.append("product not commutative")
        for a, ai in zip(xs, invs):
            if a * ai != F.one:
                problems.append("inverse fails")
        for a, k, ak in zip(xs, ks, pows):
            if ak != _pow_by_squaring(a, k):
                problems.append("power differs from square-and-multiply")
    elif kind == "rank":
        if out != job.args[3]:
            problems.append(f"rank {out} != constructed {job.args[3]}")
    return problems
