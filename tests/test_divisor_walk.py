"""The coefficient walk behind every monic right-divisor search.

skewpoly._monic_right_divisors_ci is checked against the candidate loop it
replaced (oracle_utils.monic_right_divisors_by_division: one full right
division per candidate) as sorted (g, s) lists; its three callers,
enumerate_right_divisors, is_irreducible_bruteforce and self_dual_search,
against the same loop put in its place; and its route and node count
against the guard's candidate count.  The top digit runs over one value
per orbit of the maps x -> lam x that fix f: the orbit sizes are read off
the node count, and every x^n - a within the budget is walked against the
division loop.  enumerate_right_divisors makes each distinct walk once per
call, so where sigma^2 = id and mu(f) = f the cofactor degrees n - D reuse
the walk for D: counted here, along with degree subsets against the full
call and cancellation on a shared walk.
"""

import itertools
import random
from functools import partial

import pytest

from skewcodes import codes, skewpoly
from skewcodes.codes import count_divisors, enumerate_right_divisors, self_dual_search
from skewcodes.errors import SearchCancelledError
from skewcodes.fields import get_field
from skewcodes.skewpoly import (
    SkewRing,
    _mirror_ci,
    _monic_right_divisors_ci,
    is_irreducible_bruteforce,
)
from conftest import PRESETS
from oracle_utils import monic_right_divisors_by_division

WALK_BUDGET = 1 << 10   # largest N^D compared per preset
SUBSET_BUDGET = 1 << 8  # largest N^D of the degree-subset comparison


def _rings(field):
    """The ring of every admissible sigma exponent of the field."""
    return [SkewRing(field, e) for e in range(1, field.degree + 1) if field.degree % e == 0]


def _moduli(ring, n, rng):
    """Monic f of degree n: random with f_0 != 0, random with f_0 = 0, and
    x^n - a for a random nonzero a."""
    N = ring.field.order
    dense = [rng.randrange(1, N)] + [rng.randrange(N) for _ in range(n - 1)] + [1]
    low = [0] + dense[1:]
    return [tuple(dense), tuple(low), ring.x_pow_minus(n, ring.field.element(rng.randrange(1, N)))._ci]


def _counted_walk(ring, f, degree):
    """(nodes, sorted hits) of one walk, whose hits must be the division
    loop's, each once."""
    token = _CountingToken()
    walk = sorted(_monic_right_divisors_ci(ring, f, degree, token))
    assert walk == sorted(monic_right_divisors_by_division(ring, f, degree)), (ring, f, degree)
    return token.asked, walk


@pytest.mark.parametrize("name", PRESETS)
def test_walk_agrees_with_division_on_every_preset(name, field_named):
    """Every admissible e, in the ring and in its mirror, every D <= n/2,
    at the two largest n with N^(n//2) <= WALK_BUDGET (n = 2 and 3 when
    even N^1 is over it)."""
    field = field_named(name)
    N = field.order
    top = 3
    while N ** ((top + 1) // 2) <= WALK_BUDGET:
        top += 1
    rng = random.Random(name)
    found = 0
    for ring in _rings(field):
        for n in (top - 1, top):
            for f in _moduli(ring, n, rng):
                for side, fci in ((ring, f), (ring._mirror, _mirror_ci(ring, f))):
                    for degree in range(1, n // 2 + 1):
                        found += len(_counted_walk(side, fci, degree)[1])
    assert found


@pytest.mark.parametrize("name,f", [("F2_17", (3, 0, 0, 1)), ("F3_11", (0, 1, 1))])
def test_walk_agrees_with_division_above_the_table_limit(name, f, field_named):
    """D = 1 over the polynomial kernel at e = 1: x^3 - a over F_2^17, and
    x^2 + x over F_3^11 (f_0 = 0, so x is a divisor)."""
    ring = SkewRing(field_named(name), 1)
    walk = _counted_walk(ring, f, 1)[1]
    assert f[0] or walk[0][0] == (0, 1)


@pytest.mark.parametrize("name", PRESETS)
def test_walk_agrees_with_division_on_every_x_n_minus_a(name, field_named):
    """x^n - a for every nonzero a, every admissible e, in the ring and in
    its mirror, every D <= n/2 and every n >= 2 with N^(n//2) <= WALK_BUDGET:
    the hits of the orbit walk are the division loop's, each once.  Where
    maps x -> lam x fix f (fewer nodes than the full walk), some hit has
    top digit g_{D-1} = 0 over F4 and F16, from its fully walked subtree."""
    field = field_named(name)
    N = field.order
    zero_top_hits = 0
    for ring in _rings(field):
        for n in itertools.takewhile(lambda n: N ** (n // 2) <= WALK_BUDGET, itertools.count(2)):
            for a in range(1, N):
                f = ring.x_pow_minus(n, field.element(a))._ci
                for side, fci in ((ring, f), (ring._mirror, _mirror_ci(ring, f))):
                    for degree in range(1, n // 2 + 1):
                        nodes, walk = _counted_walk(side, fci, degree)
                        if nodes < sum(N ** k for k in range(1, degree + 1)):
                            zero_top_hits += sum(not g[degree - 1] for g, _ in walk)
    if name in ("F4", "F16"):
        assert zero_top_hits


@pytest.mark.parametrize("name,e,n,h", [
    ("F4", 1, 14, 3), ("F4", 1, 12, 3), ("F8", 1, 9, 7), ("F16", 2, 6, 15), ("F4", 1, 13, 1),
])
def test_top_digit_takes_one_value_per_orbit(name, e, n, h):
    """x^n - 1: the maps x -> lam x fixing f form the subgroup of order h of
    F^*, and walk D = 1 visits 0 and one top digit per coset, in the ring
    and in its mirror."""
    f = _x_minus_1(name, e, n)
    ring, N = f.ring, f.ring.field.order
    for side, fci in ((ring, f._ci), (ring._mirror, _mirror_ci(ring, f._ci))):
        assert _counted_walk(side, fci, 1)[0] == 1 + (N - 1) // h


@pytest.mark.parametrize("name", PRESETS)
def test_dense_f_has_no_orbit(name, field_named):
    """f with every coefficient nonzero: N_1(lam) = lam = 1 is forced, so
    walk D = 1 visits all N top digits, at every e."""
    field = field_named(name)
    N = field.order
    rng = random.Random(name)
    for ring in _rings(field):
        f = tuple(rng.randrange(1, N) for _ in range(3)) + (1,)
        assert _counted_walk(ring, f, 1)[0] == N


@pytest.mark.parametrize("name", PRESETS)
def test_self_dual_search_agrees_with_the_division_loop(name, field_named, monkeypatch):
    """self_dual_search over the walk and over the division loop put in its
    place list the same codes, at n = 2 and at each even n up to 12 with
    N^(n/2) <= WALK_BUDGET, all of which the search's 2^20 guard admits."""
    field = field_named(name)
    cases = [(ring, n, eps) for ring in _rings(field) for n in range(2, 13, 2)
             if n == 2 or field.order ** (n // 2) <= WALK_BUDGET for eps in (1, -1)]
    assert cases

    def generators():
        return [[c.generator._ci for c in self_dual_search(*case)] for case in cases]

    walked = generators()
    monkeypatch.setattr(codes, "_monic_right_divisors_ci", monic_right_divisors_by_division)
    assert walked == generators()


def _reducible_by_division(ring, fci):
    return any(next(monic_right_divisors_by_division(ring, fci, d), None)
               for d in range(1, (len(fci) - 1) // 2 + 1))


@pytest.mark.parametrize("e", [1, 2])
def test_irreducibility_on_every_small_f4_polynomial(e, F4):
    """Every monic F4 polynomial of degree 2 to 5, f_0 = 0 included, and its
    left multiple by a, against the division loop."""
    ring = SkewRing(F4, e)
    a = F4.gen
    reducible = 0
    for n in range(2, 6):
        for f in ring.monic_polys(n):
            want = not _reducible_by_division(ring, f._ci)
            assert is_irreducible_bruteforce(f) == want, f
            assert is_irreducible_bruteforce(ring.poly([a]) * f) == want, f
            reducible += not want
    assert 0 < reducible < 4 ** 2 + 4 ** 3 + 4 ** 4 + 4 ** 5


class _CountingToken:
    """A cancellation token that is never set and counts how often the
    search asks: once per node of the walk."""

    def __init__(self):
        self.asked = 0

    def is_set(self):
        self.asked += 1
        return False


def _count_walks(monkeypatch):
    """Put a counting copy of the walk in codes; the returned list gets one
    (degree, nodes) pair per walk run."""
    walks = []

    def counted(ring, f, degree, cancel, what="divisor"):
        token = _CountingToken()
        yield from _monic_right_divisors_ci(ring, f, degree, token, what)
        walks.append((degree, token.asked))

    monkeypatch.setattr(codes, "_monic_right_divisors_ci", counted)
    return walks


def test_divisor_walk_divides_no_candidate_and_visits_at_most_twice_the_guard(
        R4, F4, monkeypatch):
    """x^14 + 1 over F4, e = 1: no right division per candidate, one walk
    per degree D = 1..7 (sigma^2 = id and mu(f) = f, so the cofactor walk
    for degree 14 - D is the walk for D), 14,558 nodes in all: every
    lam in F4^* fixes f, so the top digit takes 0 and 1 only, and walk D
    visits 2 (4^D - 1) / 3 nodes.  Each walk of degree D visits at most
    sum_{k=1}^{D} N^k <= 2 N^D nodes, so the whole enumeration visits at
    most twice the guard's count sum_d N^min(d, n - d)."""
    divisions = []
    divmod_ci = skewpoly._right_divmod_ci
    monkeypatch.setattr(skewpoly, "_right_divmod_ci",
                        lambda *args: divisions.append(args) or divmod_ci(*args))
    walks = _count_walks(monkeypatch)
    n, N = 14, F4.order
    out = enumerate_right_divisors(R4.x_pow_minus(n, F4.one))
    assert sum(len(out[d]) for d in range(1, n)) == 603
    assert divisions == []
    assert sorted(walks) == list(zip(range(1, 8), [2, 10, 42, 170, 682, 2_730, 10_922]))
    assert sum(nodes for _, nodes in walks) == 14_558
    for degree, nodes in walks:
        assert 0 < nodes <= sum(N ** k for k in range(1, degree + 1)) <= 2 * N ** degree
    guard_cost = sum(N ** min(d, n - d) for d in range(n + 1))
    assert sum(nodes for _, nodes in walks) <= 2 * guard_cost


def _x_minus_1(name, e, n):
    field = get_field(name)
    return SkewRing(field, e).x_pow_minus(n, field.one)


def _f4_dense():
    """x^7 + x^5 + a^2 x^3 + x^2 + a x + a^2 over F4, e = 1: a product of
    degrees 3 and 4 with mu(f) != f."""
    ring = SkewRing(get_field("F4"), 1)
    f = ring.from_indices((2, 1, 3, 1)) * ring.from_indices((2, 3, 1, 2, 1))
    assert _mirror_ci(ring, f._ci) != f._ci
    return f


@pytest.mark.parametrize("case,walked,total", [
    # sigma of order 3: the mirror twist differs, so every D < n/2 walks
    # twice, each with one top digit per orbit of F8^*
    (partial(_x_minus_1, "F8", 1, 9), [1, 1, 2, 2, 3, 3, 4, 4], 2_672),
    # sigma = id: the mirror is the ring and mu(f) = f
    (partial(_x_minus_1, "F8", 3, 9), [1, 2, 3, 4], 5_344),
    # sigma of order 2 and x^n - 1: mu(f) = f
    (partial(_x_minus_1, "F16", 2, 7), [1, 2, 3], 4_656),
    # sigma of order 2 but mu(f) != f: both walks
    (_f4_dense, [1, 1, 2, 2, 3, 3], 216),
], ids=["F8-e1-x9-1", "F8-e3-x9-1", "F16-e2-x7-1", "F4-e1-dense"])
def test_divisor_enumeration_walks_each_distinct_walk_once(case, walked, total, monkeypatch):
    """One walk per distinct (twist mod d, coefficient tuple, D), counted,
    and the same lists as the division loop put in the walk's place."""
    f = case()
    walks = _count_walks(monkeypatch)
    out = enumerate_right_divisors(f)
    assert sorted(degree for degree, _ in walks) == walked
    assert sum(nodes for _, nodes in walks) == total
    monkeypatch.setattr(codes, "_monic_right_divisors_ci", monic_right_divisors_by_division)
    assert out == enumerate_right_divisors(f)


@pytest.mark.parametrize("name", PRESETS)
def test_degree_subsets_agree_with_the_full_enumeration(name, field_named):
    """degrees = [d], [n - d] and [d, n - d] list what the full call lists,
    for x^n - a and a dense f, at every e, with n the largest at which
    N^(n//2) <= SUBSET_BUDGET (at least 2)."""
    field = field_named(name)
    n = 2
    while field.order ** ((n + 1) // 2) <= SUBSET_BUDGET:
        n += 1
    rng = random.Random(name)
    for ring in _rings(field):
        dense, _, x_minus_a = _moduli(ring, n, rng)
        for fci in (x_minus_a, dense):
            f = ring.from_indices(fci)
            full = enumerate_right_divisors(f)
            for d in range(n + 1):
                for degrees in ([d], [n - d], [d, n - d]):
                    assert enumerate_right_divisors(f, degrees=degrees) == {
                        k: full[k] for k in degrees}, (ring, fci, degrees)


class _SetAfter(_CountingToken):
    """A token that turns set once the search has asked `after` times."""

    def __init__(self, after):
        super().__init__()
        self.after = after

    def is_set(self):
        super().is_set()
        return self.asked > self.after


@pytest.mark.parametrize("after", [0, 1_000, 10_000, 14_557])
def test_cancel_stops_the_shared_walk(after, R4, F4):
    """x^14 + 1 over F4, e = 1, walks each D once for both D and 14 - D; a
    token that turns set after any of the walk's 14,558 nodes still stops
    the enumeration, and one set after the last does not."""
    f = R4.x_pow_minus(14, F4.one)
    with pytest.raises(SearchCancelledError, match="^divisor search cancelled$"):
        enumerate_right_divisors(f, cancel=_SetAfter(after))
    assert count_divisors(enumerate_right_divisors(f, cancel=_SetAfter(14_558)), 14, True) == 603

