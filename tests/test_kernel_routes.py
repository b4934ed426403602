"""One kernel route matrix: every small field through both kernel kinds.

``_make_kernel`` picks one route per field from its order, so the
polynomial kernel, which serves only the fields above 2^16 elements, is
never checked on a small field.  Here each field is built twice from the
same modulus: once with its table kernel, and once with a
``_PolyKernel`` over the table route's own adder installed as its kernel,
so that the polynomial kernel runs on every adder: XOR (p = 2), the full
digit-add table of a field of one chunk (F9, F27), the half-width table
of the low ceil(d/2) digits for even degree (F_3^6, F_3^8) and odd degree
(F_7^3, and F_3^9 with the largest, 243 rows), and the digit loop of a
prime field (F7) and of fields whose half table would pass 2^16 entries
(F_7^5, F_37^3).  Every kernel operation must agree on
seeded inputs, and divisor lists, root sets, minimal polynomials, lclm,
gcrd_bezout and minimum distances must be the same packed values on both
routes."""

import operator
import random

import pytest

from skewcodes.bch import min_distance_exact
from skewcodes.codes import SkewCyclicCode, enumerate_right_divisors
from skewcodes.fields import FieldSpec, _PolyKernel, _TableKernel, get_field
from skewcodes.rootsets import minimal_polynomial, vanishing_set
from skewcodes.skewpoly import SkewRing, gcrd_bezout, lclm

from conftest import EXTRA_FIELDS, held_tables

# name -> (p, modulus, degree n of the x^n - a whose divisors are listed)
ROUTE_FIELDS = {
    **{name: (get_field(name).p, get_field(name).modulus, n)
       for name, n in (("F2", 5), ("F4", 4), ("F8", 4), ("F9", 4), ("F16", 3), ("F27", 3))},
    "F3_6": (*EXTRA_FIELDS["F3_6"], 2),
    "F3_8": (3, (2, 0, 1, 0, 0, 0, 0, 0, 1), 2),
    "F7_3": (7, (2, 0, 0, 1), 2),
    "F3_9": (3, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3),
    "F7_5": (*EXTRA_FIELDS["F7_5"], 2),
    "F37_3": (*EXTRA_FIELDS["F37_3"], 3),
    "F7": (7, (4, 1), 4),
}


@pytest.fixture(scope="module", params=sorted(ROUTE_FIELDS))
def routes(request):
    """(name, table-route field, polynomial-route field) on one modulus."""
    p, modulus, _ = ROUTE_FIELDS[request.param]
    table, poly = FieldSpec(p, modulus), FieldSpec(p, modulus)
    poly._kernel = _PolyKernel(poly, poly.kernel().add)
    assert isinstance(table.kernel(), _TableKernel) and poly.kernel() is poly._kernel
    return request.param, table, poly


def test_the_matrix_covers_every_adder():
    fields = {name: FieldSpec(p, modulus) for name, (p, modulus, _) in ROUTE_FIELDS.items()}
    for F in fields.values():
        F.kernel()
    widths = {name: len(held_tables(F)["add"])
              for name, F in fields.items() if "add" in held_tables(F)}
    assert widths == {"F9": 9, "F27": 27, "F3_6": 27, "F3_8": 81, "F7_3": 49, "F3_9": 243}
    assert {name for name, F in fields.items() if F.kernel().add is operator.xor} == {
        "F2", "F4", "F8", "F16"}
    assert fields["F7"].degree == 1 and "add" not in held_tables(fields["F7"])
    assert fields["F7_3"].degree % 2 == 1 and fields["F7_3"].order > 256
    assert {name for name, F in fields.items() if F.p != 2 and F.degree > 1
            and "add" not in held_tables(F)} == {"F7_5", "F37_3"}


def test_every_kernel_operation_agrees(routes):
    name, T, P = routes
    kt, kp = T.kernel(), P.kernel()
    rng = random.Random(name)
    N, d = T.order, T.degree

    def some(count, zeros=True):
        return [rng.randrange(N) if zeros and rng.random() < 0.3 else rng.randrange(1, N)
                for _ in range(count)]

    for a, b in zip(some(300), some(300)):
        assert kt.add(a, b) == kp.add(a, b) and kt.neg(a) == kp.neg(a)
    for a, b in zip(some(300, False), some(300, False)):
        assert kt.mul(a, b) == kp.mul(a, b) and kt.inv(a) == kp.inv(a)
        k = rng.randrange(2 * N)
        assert kt.pow(a, k % (N - 1)) == kp.pow(a, k % (N - 1))
        assert [kt.frobenius(a, t) for t in range(d)] == [kp.frobenius(a, t) for t in range(d)]
    for _ in range(60):
        c, t = some(1, False)[0], rng.randrange(d)
        f = some(rng.randrange(1, 8))
        assert kt.scale(c, f) == kp.scale(c, f)
        pairs = [(j, x) for j, x in enumerate(some(rng.randrange(1, 6))) if x]
        outs = [some(8), None]
        outs[1] = list(outs[0])
        kt.addmul(outs[0], 2, c, pairs, t)
        kp.addmul(outs[1], 2, c, pairs, t)
        assert outs[0] == outs[1]
        cs, xs, ts = some(5), some(5), [rng.randrange(d) for _ in range(5)]
        acc = some(1)[0]
        assert kt.dot(acc, cs, xs, ts) == kp.dot(acc, cs, xs, ts)
        a, e = some(1, False)[0], rng.randrange(1, d + 1)
        assert kt.evaluate(f, a, e) == kp.evaluate(f, a, e)
        grids = [[some(5) for _ in range(4)]]
        r, col = rng.randrange(4), rng.randrange(5)
        grids[0][r][col] = c
        grids.append([list(row) for row in grids[0]])
        kt.eliminate(grids[0], r, col)
        kp.eliminate(grids[1], r, col)
        assert grids[0] == grids[1]


# the commutative ring's roots are a sweep of every point, so above this order
# the answers are taken at the sigma exponents e < d only
SWEEP_LIMIT = 1 << 13


def _public_answers(F, n, seed):
    """Divisor lists, root sets, minimal polynomials, lclm, gcrd_bezout and
    distances over F at every sigma exponent (below d past SWEEP_LIMIT), as
    packed values."""
    rng = random.Random(seed)
    out = []
    top = F.degree if F.order <= SWEEP_LIMIT else F.degree - 1
    for e in (e for e in range(1, top + 1) if F.degree % e == 0):
        R = SkewRing(F, e)
        for a in (1, F.order - 1, rng.randrange(1, F.order)):
            divisors = enumerate_right_divisors(R.x_pow_minus(n, a))
            out.append({deg: [g._ci for g in gs] for deg, gs in divisors.items()})
            # the divisor of top degree below n: x - 1 divides x^n - 1 at the least
            g = next((g for deg in range(n - 1, 0, -1) for g in divisors.get(deg, ())), None)
            if g is not None:
                code = SkewCyclicCode(R.x_pow_minus(n, a), g)
                out.append([min_distance_exact(code, s) for s in ("messages", "columns")])
        polys = [R.from_indices([rng.randrange(F.order) for _ in range(rng.randrange(2, 5))] + [1])
                 for _ in range(4)]
        out.append([[x.i for x in vanishing_set(f)] for f in polys])
        out.append([x._ci for x in gcrd_bezout(polys[0], polys[1] * polys[2])])
        out.append(lclm(*polys)._ci)
        points = [rng.randrange(F.order) for _ in range(3)]
        out.append(minimal_polynomial(R, points)._ci)
    return out


def test_public_answers_agree(routes):
    name, T, P = routes
    n = ROUTE_FIELDS[name][2]
    assert _public_answers(T, n, name) == _public_answers(P, n, name)
