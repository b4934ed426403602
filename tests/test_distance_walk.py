"""The subset walk behind the column route of the distance oracle.

bch._distance_by_columns is checked against the rank loop it replaced
(oracle_utils.distance_by_column_ranks: one rank per column subset), and
against the message route where N^k <= 2^13, on every code family the
benchmark's ``codes`` workload times, on seeded random generators over
table and polynomial kernels, and on the edge cases r = 0, a zero column,
two proportional columns and r = 1.  Its eliminations are counted against
the node formula of its docstring, each with the r - s free rows of its
prefix of s columns, its cancellation checks are counted and
stopped at every one of them, and the message route is counted at one
message per projective point.  Skew-constacyclic codes, x^n - a with
a != 1 and their duals included, take the shifted walk, which visits only
the canonical rotation of each support (column 0 first, the wrap gap at
least every other gap); each count is checked on it and on the full walk
of the same rows, against counts taken by filtering
itertools.combinations.  The cut's edges (the repetition code, two equal
largest gaps, k = n and MDS codes) run on every preset at every sigma
exponent, and a modulus that is not constacyclic, or a duck-typed code,
is checked to keep the full walk.
"""

import itertools
import random
import types
from math import comb

import pytest

from skewcodes.bch import (
    Bch1Spec,
    Bch2Spec,
    _generator_rows_i,
    bch1_code,
    bch2_code,
    min_distance_exact,
    skew_rs1,
)
from skewcodes.codes import (
    Modulus,
    SkewCyclicCode,
    constacyclic_shift,
    dual_code,
    enumerate_right_divisors,
)
from skewcodes.errors import ConditionViolatedError, SearchCancelledError
from skewcodes.fields import get_field, preset_names
from skewcodes.linalg import rank_i
from skewcodes.skewpoly import SkewRing
from oracle_utils import distance_by_column_ranks

MESSAGE_BUDGET = 1 << 13   # largest N^k also checked by the message route
BCH_DESIGNS = ((2, 0), (3, 0), (4, 0), (2, 1), (3, 1))
RS_DELTAS = {6: (2, 3, 4, 5), 12: (3, 4, 5, 6)}   # length -> delta
# field -> (modulus degree n, generator degree): the divisor pools
POOLS = {"F4": (12, 6), "F8": (7, 3), "F9": (6, 3)}
# field -> modulus degree n of x^n - a, a != 0, 1: the shift wraps through a
TWISTED_LENGTHS = {"F4": 8, "F8": 7, "F9": 6, "F16": 6}


def _code(field, rows):
    return types.SimpleNamespace(field=field, _gen_rows_i=rows)


def _assert_routes_agree(code):
    """The walk against the rank loop, and against the message route when
    it costs at most MESSAGE_BUDGET; returns the distance."""
    field, rows = code.field, _generator_rows_i(code)
    k, n = len(rows), len(rows[0])
    d = min_distance_exact(code, strategy="columns")
    assert d == distance_by_column_ranks(rows, field, n, k), (field, rows)
    if field.order ** k <= MESSAGE_BUDGET:
        assert min_distance_exact(code, strategy="messages") == d, (field, rows)
    return d


def _bch1_specs(R64, tower, rng):
    """One admissible first-kind spec of length 12 per design, alpha and
    the offsets drawn until the bracket condition holds."""
    F4096 = tower.target
    for delta, nu in BCH_DESIGNS:
        while True:
            spec = Bch1Spec(base_ring=R64, emb=tower, alpha=F4096.gen ** rng.randrange(1, 4095),
                            b=rng.randrange(64), t1=rng.randrange(1, 64), t2=rng.randrange(1, 64),
                            delta=delta, nu=nu, n=12)
            try:
                spec.validate()
            except ConditionViolatedError:
                continue
            yield spec
            break


def test_bch1_codes_agree(R64, tower):
    rng = random.Random(1)
    for spec in _bch1_specs(R64, tower, rng):
        code, designed = bch1_code(spec)
        assert _assert_routes_agree(code) >= designed


def test_bch2_codes_agree(R64, tower):
    F4096 = tower.target
    for delta, nu in BCH_DESIGNS:
        spec = Bch2Spec(base_ring=R64, emb=tower, alpha=F4096.gen ** 5,
                        b=0, t1=23, t2=1, delta=delta, nu=nu)
        code, designed = bch2_code(spec)
        assert _assert_routes_agree(code) >= designed


@pytest.mark.parametrize("n", sorted(RS_DELTAS))
def test_skew_rs_codes_agree(n):
    ring = SkewRing(get_field("F2_6" if n == 6 else "F2_12"), 1)
    F = ring.field
    rng = random.Random(n)
    for delta in RS_DELTAS[n]:
        while True:
            try:
                code = skew_rs1(ring, F.gen ** rng.randrange(1, F.order - 1),
                                rng.randrange(F.order - 1), delta, n)
            except ConditionViolatedError:
                continue
            break
        assert _assert_routes_agree(code) == delta


@pytest.mark.parametrize("name", sorted(POOLS))
def test_divisor_pool_codes_agree(name):
    """Every divisor of the pool degree of x^n - 1, at every sigma exponent."""
    F = get_field(name)
    n, degree = POOLS[name]
    for e in (e for e in range(1, F.degree + 1) if F.degree % e == 0):
        f = SkewRing(F, e).x_pow_minus(n, F.one)
        for g in enumerate_right_divisors(f, degrees=(degree,))[degree]:
            _assert_routes_agree(SkewCyclicCode(Modulus(f), g))


@pytest.mark.parametrize("name", sorted(TWISTED_LENGTHS))
def test_twisted_constacyclic_codes_and_duals_agree(name):
    """Seeded divisors of x^n - a with a != 0, 1, at every sigma exponent,
    each with its dual, whose modulus is x^n - a^(-1): the shifted walk
    against the full walk, the rank loop and, where N^k <= 2^13, the message
    route.  The shift wraps the last coordinate round as a sigma(c_{n-1}),
    and each generator row's shift is checked to stay in the code."""
    F = get_field(name)
    n = TWISTED_LENGTHS[name]
    rng = random.Random(name)
    tried = 0
    for e in (e for e in range(1, F.degree + 1) if F.degree % e == 0):
        ring = SkewRing(F, e)
        a = F.gen ** rng.randrange(1, F.order - 1)
        f = ring.x_pow_minus(n, a)
        found = enumerate_right_divisors(f, degrees=range(1, n))
        gens = [g for degree in range(1, n) for g in found[degree]]
        for g in rng.sample(gens, min(6, len(gens))):
            primal = SkewCyclicCode(Modulus(f), g)
            for code in (primal, dual_code(primal).code):
                wrap = code.modulus.constacyclic_constant
                assert wrap not in (F.zero, F.one)
                for row in code.generator_matrix:
                    assert code.contains(constacyclic_shift(ring, wrap, row))
                d = _assert_routes_agree(code)
                assert min_distance_exact(_full(code), strategy="columns") == d
                tried += 1
    assert tried >= 12


def test_shift_only_where_it_holds(F4, R4):
    """The shifted walk is taken only for a constacyclic modulus.  The code
    of x^2 modulo x^4 holds the words e_2 and e_3 of weight 1, and none of
    its words is nonzero at column 0, so a walk from column 0 would miss
    them and answer 2; a duck-typed code with the word e_3 keeps the full
    walk too."""
    x = R4.one.times_x(1)
    code = SkewCyclicCode(Modulus(x.times_x(3)), x.times_x(1))
    assert not code.modulus.is_constacyclic
    assert _assert_routes_agree(code) == 1
    a, b = 2, 3   # the elements of F4 other than 0 and 1
    e_3 = _code(F4, [[1, a, b, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    assert min_distance_exact(e_3, strategy="columns") == 1


@pytest.mark.parametrize("name", ["F2", "F4", "F9", "F27", "F2_17"])
def test_random_generators_agree(name, field_named):
    """Seeded full-rank generators, a third of their entries zero so that
    the distances spread below the Singleton bound; F_2^17 runs the
    polynomial kernel's eliminate."""
    F = field_named(name)
    rng = random.Random(name)
    seen = set()
    for _ in range(40):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, n + 1)
        rows = [[rng.randrange(1, F.order) if rng.random() < 0.67 else 0 for _ in range(n)]
                for _ in range(k)]
        if rank_i(rows, F) == k:
            seen.add(_assert_routes_agree(_code(F, rows)))
    assert len(seen) >= 3


def test_edge_cases(F4, F9):
    a, b = 2, 3   # the elements of F4 other than 0 and 1
    cases = [
        (F4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),           # k = n: no parity row
        (F4, [[1, a, b, 0], [0, 1, 1, 0], [0, 0, 0, 1]], 1),  # e_3 a codeword: H column 3 is zero
        (F4, [[1, 1, 1, 0], [0, 1, a, 0]], 2),                # G column 3 zero
        (F4, [[1, a, 0, 0], [0, 0, 1, 1]], 2),                # H columns 0, 1 proportional
        (F9, [[1, 0, 0, 4], [0, 1, 0, 5], [0, 0, 1, 7]], 2),  # r = 1, H with no zero
        (F9, [[1, 0, 0, 4], [0, 1, 0, 0], [0, 0, 1, 7]], 1),  # r = 1, H with a zero
        (F9, [[1, 1, 1, 1, 1]], 5),                           # k = 1: d = r + 1 = n
    ]
    for F, rows, d in cases:
        assert rank_i(rows, F) == len(rows)
        assert _assert_routes_agree(_code(F, rows)) == d, rows


# -- the edges of the canonical-rotation cut ----------------------------------------
#
# Each code below is skew-constacyclic, on every preset at every sigma
# exponent e, so its column walk keeps only the canonical w-sets; each
# distance is checked against the rank loop and the full walk.

PRESET_RINGS = [(name, e) for name in preset_names()
                for e in range(1, get_field(name).degree + 1) if get_field(name).degree % e == 0]


def _rs_length(name, e):
    """m(q - 1): x^n - 1 is central and every x - b right-divides it, since
    N_n(b) = N_m(b)^(q - 1) = 1."""
    ring = SkewRing(get_field(name), e)
    return ring.m * (ring.q - 1)


RS_RINGS = [(name, e) for name, e in PRESET_RINGS if 2 <= _rs_length(name, e) <= 24]


def _assert_cut_keeps(code, d):
    assert code.modulus.is_constacyclic
    assert _assert_routes_agree(code) == d
    assert min_distance_exact(_full(code), strategy="columns") == d


@pytest.mark.parametrize("name,e", PRESET_RINGS)
def test_cut_keeps_the_repetition_code(name, e):
    """g = (x^n - 1)/(x - 1) = 1 + x + ... + x^(n-1): the one support of
    the lightest words is every column, all its gaps and its wrap gap 1,
    and only the last leaf of level n closes it."""
    ring = SkewRing(get_field(name), e)
    for n in (7, 8):
        _assert_cut_keeps(SkewCyclicCode(Modulus(ring.x_pow_minus(n, 1)), ring.poly([1] * n)), n)


@pytest.mark.parametrize("name,e", PRESET_RINGS)
def test_cut_keeps_two_equal_largest_gaps(name, e):
    """g = x^(n/2) - 1: the lightest words are c (x^i - x^(i + n/2)), of
    support {i, i + n/2}, whose canonical rotation {0, n/2} has its wrap
    gap equal to its one inner gap."""
    ring = SkewRing(get_field(name), e)
    for n in (6, 8):
        code = SkewCyclicCode(Modulus(ring.x_pow_minus(n, 1)), ring.x_pow_minus(n // 2, 1))
        _assert_cut_keeps(code, 2)


@pytest.mark.parametrize("name,e", PRESET_RINGS)
def test_cut_keeps_the_whole_space(name, e):
    """g = 1, k = n: no parity row, so column 0 alone closes level 1."""
    ring = SkewRing(get_field(name), e)
    for a in (1, ring.field.gen):
        _assert_cut_keeps(SkewCyclicCode(Modulus(ring.x_pow_minus(5, a)), ring.one), 1)


@pytest.mark.parametrize("name,e", RS_RINGS)
def test_cut_keeps_an_mds_code(name, e):
    """The skew-RS code of length n = m(q - 1) (``_rs_length``), on every
    ring where the guard's n <= 24 admits it: r = min(n/2, 4) designed
    roots give d = r + 1, every (r + 1)-set dependent and every r-set
    not."""
    ring, n = SkewRing(get_field(name), e), _rs_length(name, e)
    r = min(n // 2, 4)
    code = skew_rs1(ring, ring.field.gen, 0, r + 1, n, f=ring.x_pow_minus(n, 1))
    assert code.k == n - r
    _assert_cut_keeps(code, r + 1)


def test_cut_only_where_the_shift_holds(F4):
    """A duck-typed code, not closed under the shift, whose lightest words
    are the multiples of one word of support {0, 4} at n = 6: its wrap
    gap 2 is shorter than its inner gap 4, so no rotation the code holds
    is canonical.  The full walk finds d = 2; a walk that cut it would
    answer 3, at the canonical {0, 2, 4}."""
    a = 2   # an element of F4 other than 0 and 1
    code = _code(F4, [[1, 0, 0, 0, a, 0], [0, 1, 1, 1, 0, 1]])
    assert not _canonical((0, 4), 6)
    assert _assert_routes_agree(code) == 2


# -- the work, counted -------------------------------------------------------------
#
# A skew-constacyclic code takes the shifted walk, which visits only the
# canonical w-sets: column 0 first, and a wrap gap n - c_(w-1) at least
# every gap between neighbours.  The same generator rows wrapped by _code,
# with no modulus, take the full walk.  Each count is checked for both; the
# shifted counts come from filtering itertools.combinations, not from the
# walk's column bounds.


def _full(code):
    """The rows of code behind an object with no modulus: the full walk."""
    return _code(code.field, _generator_rows_i(code))


def _canonical(cols, n):
    """Whether the sorted columns start at 0 and leave a wrap gap from the
    last one round to column 0 at least every gap between neighbours."""
    return cols[0] == 0 and all(b - a <= n - cols[-1] for a, b in zip(cols, cols[1:]))


def _canonical_sets(n, w):
    """The canonical w-sets of columns 0..n-1, in lexicographic order."""
    return [cols for cols in itertools.combinations(range(n), w) if _canonical(cols, n)]


def _level_nodes(n, w, shifted=False):
    """Eliminations of a whole level w: C(n - w + j, j) at each prefix
    size j = 1..w-1, or one per distinct prefix of a canonical set."""
    if shifted:
        return len({cols[:j] for cols in _canonical_sets(n, w) for j in range(1, w)})
    return sum(comb(n - w + j, j) for j in range(1, w))


def _leaves(n, w, shifted=False):
    """Leaf zero-tests of a whole level w: C(n, w), or its canonical sets."""
    return len(_canonical_sets(n, w)) if shifted else comb(n, w)


def test_canonical_level_counts_at_n_12():
    """The worst cases the docstring quotes, over levels 2..d at n = 12:
    179 eliminations when d = 6 and 83 when d = 5, against 562 and 232
    with column 0 fixed and 1,580 and 789 for the full walk.  The
    rotations of the canonical w-sets cover every w-set, so the cut loses
    no support."""
    n = 12
    for d, shifted, at_0, full in ((5, 83, 232, 789), (6, 179, 562, 1580)):
        levels = range(2, d + 1)
        assert sum(_level_nodes(n, w, True) for w in levels) == shifted
        assert sum(comb(n - w + j - 1, j - 1) for w in levels for j in range(1, w)) == at_0
        assert sum(_level_nodes(n, w) for w in levels) == full
    for w in range(1, n + 1):
        rotations = {tuple(sorted((c + t) % n for c in cols))
                     for cols in _canonical_sets(n, w) for t in range(n)}
        assert len(rotations) == comb(n, w)


def _eliminated_rows(monkeypatch, code):
    """(distance, the row count of each eliminate call) of the column
    route on code: first the k generator rows that right_kernel_i reduces,
    then the walk's."""
    kern = code.field.kernel()
    counts = []
    real = kern.eliminate

    def counted(m, r, col):
        counts.append(len(m))
        return real(m, r, col)

    monkeypatch.setattr(kern, "eliminate", counted)
    d = min_distance_exact(code, strategy="columns")
    monkeypatch.undo()
    return d, counts


def _non_mds_bch1_code(R64, tower):
    """The first seeded bch1 code whose distance is below n - k + 1."""
    codes = (bch1_code(spec)[0] for spec in _bch1_specs(R64, tower, random.Random(1)))
    return next(c for c in codes if min_distance_exact(c) < c.n - c.k + 1)


def _prefix_sizes(n, w, shifted=False, s=0, last=-1):
    """The prefix size s of each elimination of level w, in walk order: the
    walk eliminates each prefix of a set of the level the first time a set,
    in lexicographic order, starts with it."""
    if shifted:
        before = ()
        for cols in _canonical_sets(n, w):
            yield from (j - 1 for j in range(1, w) if cols[:j] != before[:j])
            before = cols
        return
    for c in range(last + 1, n - w + s + 1):
        if s < w - 1:
            yield s
            yield from _prefix_sizes(n, w, s=s + 1, last=c)


@pytest.mark.parametrize("field,n,delta", [("F2_6", 6, 4), ("F2_12", 12, 5)])
def test_eliminations_on_mds_codes(monkeypatch, field, n, delta):
    """Every level below d = r + 1 in full, then the first prefix of r
    columns, whose first leaf closes a dependent set; right_kernel_i adds
    one elimination per generator row."""
    ring = SkewRing(get_field(field), 1)
    code = skew_rs1(ring, ring.field.gen, 0, delta, n)
    k, r = code.k, n - code.k
    assert code.modulus.is_constacyclic
    pins = {False: ((22, 25), (299, 307)), True: ((7, 10), (34, 42))}
    for shifted, walked in ((False, _full(code)), (True, code)):
        d, counts = _eliminated_rows(monkeypatch, walked)
        calls = len(counts)
        assert d == r + 1 == delta
        walk = sum(_level_nodes(n, w, shifted) for w in range(2, d)) + r
        assert calls == walk + k
        assert (walk, calls) == pins[shifted][n == 12]


def test_eliminations_bound_on_a_bch1_code(monkeypatch, R64, tower):
    """Below d the levels run in full; level d makes at least the d - 1 of
    its first prefix and at most its whole count."""
    code = _non_mds_bch1_code(R64, tower)
    n, k = code.n, code.k
    assert (n, k) == (12, 6) and code.modulus.is_constacyclic
    pins = {False: 815, True: 101}
    for shifted, walked in ((False, _full(code)), (True, code)):
        d, counts = _eliminated_rows(monkeypatch, walked)
        assert d == 6
        below = sum(_level_nodes(n, w, shifted) for w in range(2, d))
        assert below + d - 1 <= len(counts) - k <= below + _level_nodes(n, d, shifted)
        assert len(counts) - k == pins[shifted]


def test_walk_eliminations_carry_the_free_rows(monkeypatch, R64, tower, f8_code):
    """Each walk elimination at prefix size s is handed exactly the r - s
    free rows: the levels below d in full, then a start of level d's walk
    order; right_kernel_i's eliminations before them see the k rows of G."""
    F4096 = get_field("F2_12")
    rs = skew_rs1(SkewRing(F4096, 1), F4096.gen, 0, 5, 12)
    for code in (rs, _non_mds_bch1_code(R64, tower), f8_code):
        n, k = code.n, code.k
        for shifted, walked in ((False, _full(code)), (True, code)):
            d, counts = _eliminated_rows(monkeypatch, walked)
            assert counts[:k] == [k] * k
            walk = [n - k - s for w in range(2, d) for s in _prefix_sizes(n, w, shifted)]
            level_d = [n - k - s for s in _prefix_sizes(n, d, shifted)]
            assert len(walk) < len(counts) - k <= len(walk) + len(level_d)
            assert counts[k:] == walk + level_d[:len(counts) - k - len(walk)]


class _CountingToken:
    """A cancellation token that sets after ``after`` checks (never when
    None) and counts the checks."""

    def __init__(self, after=None):
        self.after, self.asked = after, 0

    def is_set(self):
        self.asked += 1
        return self.after is not None and self.asked > self.after


@pytest.fixture(scope="module")
def f8_code(R8, F8):
    """A [7, 3] code over F8 of distance 4."""
    a = F8.gen
    return SkewCyclicCode(Modulus(R8.x_pow_minus(7, a)), R8.poly([a, 0, a ** 5, a, 1]))


def test_column_checks_are_the_walk_nodes(f8_code):
    """One check per column tried at each node: the prefix columns at each
    size j and the leaves of every level below d, then part of level d;
    the shifted walk tries column 0 alone at the root of each level and
    only the columns that keep the set canonical below it."""
    n = 7
    pins = {False: 95, True: 26}
    for shifted, walked in ((False, _full(f8_code)), (True, f8_code)):
        token = _CountingToken()
        assert min_distance_exact(walked, strategy="columns", cancel=token) == 4
        below = sum(_level_nodes(n, w, shifted) + _leaves(n, w, shifted) for w in range(1, 4))
        assert below < token.asked <= below + _level_nodes(n, 4, shifted) + _leaves(n, 4, shifted)
        assert token.asked == pins[shifted]


def test_messages_visit_one_per_projective_point(f8_code):
    token = _CountingToken()
    assert min_distance_exact(f8_code, strategy="messages", cancel=token) == 4
    assert token.asked == (8 ** 3 - 1) // (8 - 1)
    words = list(f8_code.words())
    assert len(words) == len(set(words)) == 8 ** 3


@pytest.mark.parametrize("strategy", ["columns", "messages"])
def test_cancellation_at_every_check(f8_code, strategy):
    """A token that sets after j checks stops the search for every j below
    the count of a full search: at the first node, inside each level and
    at the last one; a token that never sets returns the distance."""
    total = _CountingToken()
    assert min_distance_exact(f8_code, strategy=strategy, cancel=total) == 4
    for after in range(total.asked):
        with pytest.raises(SearchCancelledError, match="^distance search cancelled$"):
            min_distance_exact(f8_code, strategy=strategy, cancel=_CountingToken(after))
    assert min_distance_exact(f8_code, strategy=strategy, cancel=_CountingToken(total.asked)) == 4

