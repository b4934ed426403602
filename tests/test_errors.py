"""The one search control: errors._guard compares a cost with its bound, caps
the powers and sums it is built from, and prints it with _cost_text;
errors._cancellable stops a search once its token is set.  Every _guard
call in src/ has a boundary case below, named by its module and function
(``tests/test_dependencies.py`` checks that the two lists match): an input
whose cost is exactly the limit is admitted, and the next cost the guard's
formula can take is refused with that exact cost."""

import threading
import types

import pytest

from skewcodes.bch import Bch1Spec, Bch2Spec, bch1_code, min_distance_exact
from skewcodes.codes import SkewCyclicCode, enumerate_right_divisors, self_dual_search
from skewcodes.errors import (
    ConditionViolatedError,
    GuardExceededError,
    SearchCancelledError,
    _cancellable,
    _cost_text,
    _guard,
)
from skewcodes.fields import FieldEmbedding, FieldSpec, get_field
from skewcodes.rootsets import _minpoly_ci, _vandermonde_i, vanishing_set
from skewcodes.skewpoly import (
    SkewRing,
    _circulant_rows_i,
    is_irreducible_bruteforce,
    similar_bruteforce,
)
from skewcodes.textio import parse_poly


def test_guard_refuses_only_above_its_bound():
    _guard("cost {} exceeds 2^4", 16, 16)
    _guard("cost {} exceeds 2^4", 16, 2, [4])
    _guard("cost {} exceeds 2^4", 16, 2, [3, 3])
    with pytest.raises(GuardExceededError) as info:
        _guard("cost {} exceeds 2^4", 16, 17)
    assert str(info.value) == "cost 17 exceeds 2^4"
    assert info.value.cost == 17
    with pytest.raises(GuardExceededError) as info:
        _guard("matrix of {} entries exceeds 2^4", 16, 2, [4, 0])
    assert str(info.value) == "matrix of 17 entries exceeds 2^4"


def test_costs_print_in_decimal_below_10_100():
    assert _cost_text(10 ** 100 - 1) == "9" * 100
    assert _cost_text(10 ** 100) == "at least 10^100"
    assert _cost_text(10 ** 5000) == "at least 10^100"


def test_costs_below_10_100_are_exact():
    with pytest.raises(GuardExceededError) as info:
        _guard("cost {}", 0, 3, [1, 2, 209])
    assert info.value.cost == 3 + 9 + 3 ** 209 < 10 ** 100
    assert str(info.value) == f"cost {3 + 9 + 3 ** 209}"


def test_powers_and_sums_past_10_100_are_capped():
    """A power is formed with its exponent capped at 333 (2^333 > 10^100)
    and a sum stops once it reaches 10^100: the cost is a lower bound."""
    with pytest.raises(GuardExceededError) as info:
        _guard("cost {} exceeds 2^25", 1 << 25, 27, [10 ** 9])
    assert str(info.value) == "cost at least 10^100 exceeds 2^25"
    assert info.value.cost == 27 ** 333
    with pytest.raises(GuardExceededError) as info:
        _guard("cost {}", 1 << 25, 2, range(10 ** 9))
    assert info.value.cost == 2 ** 333 - 1   # 2^0 + ... + 2^332, the first sum past 10^100


def test_cancellable_without_a_token_is_the_items_themselves():
    items = iter(range(3))
    assert _cancellable(items, None, "divisor") is items


def test_cancellable_refuses_before_the_first_item_once_set():
    stop = threading.Event()
    stop.set()
    with pytest.raises(SearchCancelledError) as info:
        next(_cancellable(range(3), stop, "divisor"))
    assert str(info.value) == "divisor search cancelled"


def test_cancellable_stops_before_the_next_item_once_set():
    stop = threading.Event()
    seen = []
    with pytest.raises(SearchCancelledError, match="^similarity search cancelled$"):
        for item in _cancellable(range(5), stop, "similarity"):
            seen.append(item)
            if item == 2:
                stop.set()
    assert seen == [0, 1, 2]


def test_cancellable_yields_every_item_in_order_while_unset():
    assert list(_cancellable(iter("skew"), threading.Event(), "distance")) == list("skew")


def _x_n_plus_1(R2, n):
    return R2.x_pow_minus(n, R2.field.one)


SEARCH_GUARDS = [
    pytest.param("codes.self_dual_search",
                 lambda R2, n, stop: self_dual_search(R2, n, 1, cancel=stop), 40, 42, 1 << 21,
                 id="self_dual"),
    pytest.param("skewpoly.similar_bruteforce",
                 lambda R2, n, stop: similar_bruteforce(_x_n_plus_1(R2, n), _x_n_plus_1(R2, n),
                                                        cancel=stop),
                 16, 17, 1 << 17, id="similarity"),
    pytest.param("codes.enumerate_right_divisors",
                 lambda R2, degrees, stop: enumerate_right_divisors(_x_n_plus_1(R2, 50), degrees,
                                                                    stop),
                 [25], [0, 25], (1 << 25) + 1, id="divisors"),
    pytest.param("skewpoly.is_irreducible_bruteforce",
                 lambda R2, n, stop: is_irreducible_bruteforce(_x_n_plus_1(R2, n), cancel=stop),
                 48, 50, 1 << 25, id="irreducible"),
]


@pytest.mark.parametrize("site,search,limit,over,cost", SEARCH_GUARDS)
def test_search_guards_admit_their_limit_and_refuse_the_next_cost(R2, site, search, limit, over,
                                                                    cost):
    """Over F2: a search whose cost is exactly its guard's limit (2^20
    self-dual candidates at n = 40, 2^16 similarity candidates at n = 16,
    2^25 divisor candidates for degree 25 of x^50 + 1, 2^24 irreducibility
    candidates at degree 48) starts and stops at once on a set token; the
    next cost the formula takes is refused with that exact cost."""
    stop = threading.Event()
    stop.set()
    with pytest.raises(SearchCancelledError):
        search(R2, limit, stop)
    with pytest.raises(GuardExceededError) as info:
        search(R2, over, stop)
    assert info.value.cost == cost


# -- the other guards: each admitted call returns, or fails after its guard --------


def _rows(n, k):
    """Generator rows [I_k | 0] of length n, for min_distance_exact."""
    return [[int(i == j) for j in range(n)] for i in range(k)]


def _distance(field, rows, strategy="auto"):
    stop = threading.Event()
    stop.set()
    code = types.SimpleNamespace(field=field, _gen_rows_i=rows)
    return min_distance_exact(code, strategy, cancel=stop)


def _designed_residues(delta):
    spec = Bch2Spec(**{**dict.fromkeys(Bch2Spec._fields, 1), "delta": delta, "nu": 0})
    return spec._designed_residues(1)


def _zero_alpha_code(n):
    F4 = get_field("F4")
    spec = Bch1Spec(SkewRing(F4, 1), FieldEmbedding(F4, F4), F4.zero, 0, 1, 1, 2, 0, 2)
    return bch1_code(spec, n)


def _words(n):
    """The first word of the binary code of x^n + 1 generated by x + 1."""
    R = SkewRing(get_field("F2"), 1)
    return next(SkewCyclicCode(R.x_pow_minus(n, 1), R.from_indices([1, 1])).words())


F2_20 = (2, (1, 0, 0, 1) + (0,) * 16 + (1,))   # x^20 + x^3 + 1
P_ABOVE_2_20 = 1048583   # the least prime power above 2^20
PRIMITIVE_F2_16 = (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1)


def _field(p, modulus, primitive=False):
    return lambda: FieldSpec(p, modulus, primitive=primitive)


def _one_row_circulant(n):
    R2 = SkewRing(get_field("F2"), 1)
    return _circulant_rows_i(R2, (1,) + (0,) * (n - 1) + (1,), (1,), 1)


def _one_row_vandermonde(points):
    return _vandermonde_i(SkewRing(get_field("F2"), 1), 1, [1] * points)


def _root_of_x_minus_1(p, modulus):
    R = SkewRing(FieldSpec(p, modulus), 1)
    return vanishing_set(R.x_pow_minus(1, 1))


def _stubbed_fold(k):
    """k points under the guard of a commutative ring over F_4096 (m = 1,
    q = 4096); the ring has no field, so the fold stops at its first step."""
    return _minpoly_ci(types.SimpleNamespace(m=1, q=1 << 12, field=None), range(k))


def _fold_over_f5_8(k):
    """k points in F_5^8 with sigma = frob_2, q = 25 and m = 4: the rank is
    at most m(q - 1) + 1 = 97, and 97 * 172,961 = 2^24 + 1."""
    return _minpoly_ci(SkewRing(FieldSpec(5, (2,) + (0,) * 7 + (1,)), 2), range(k))


def _parse(text):
    return parse_poly(SkewRing(get_field("F2"), 1), text)


# site, admitted call, what it does past the guard (None: it returns, else
# the error and its text), refused call, the refused cost
GUARD_BOUNDARIES = [
    pytest.param("bch.min_distance_exact", lambda: _distance(get_field("F2"), [[1] * 24] * 2),
                 (ValueError, "^generator matrix must have full rank$"),
                 lambda: _distance(get_field("F2"), [[1] * 25] * 2), 25, id="distance_length"),
    pytest.param("bch.min_distance_exact",
                 lambda: _distance(get_field("F4"), _rows(24, 12), "messages"),
                 (SearchCancelledError, "^distance search cancelled$"),
                 lambda: _distance(get_field("F4"), _rows(24, 13), "messages"), 4 ** 13,
                 id="distance_messages"),
    pytest.param("bch._BchSpec._designed_ranges", lambda: _designed_residues((1 << 20) + 1), None,
                 lambda: _designed_residues((1 << 20) + 2), (1 << 20) + 1, id="designed_set"),
    pytest.param("bch.bch1_code", lambda: _zero_alpha_code(1 << 16),
                 (ConditionViolatedError, "^alpha must be nonzero$"),
                 lambda: _zero_alpha_code((1 << 16) + 1), (1 << 16) + 1, id="bch1_length"),
    pytest.param("codes.SkewCyclicCode.words", lambda: _words(21), None,
                 lambda: _words(22), 1 << 21, id="code_words"),
    pytest.param("fields._check_modulus", _field(4294967291, (0,)),   # isqrt = 2^16 - 1
                 (ValueError, "^defining polynomial must be monic of degree >= 1$"),
                 _field(4294967311, (0,)), (1 << 16) - 1, id="primality"),
    pytest.param("fields._check_modulus", _field(2, (0,) * 32 + (1,)),
                 (ValueError, "is reducible over F_2$"),
                 _field(65537, (0, 0, 1)), 65537, id="modulus_range"),
    pytest.param("fields.FieldSpec.__init__", _field(2, PRIMITIVE_F2_16, True), None,
                 _field(65537, (65534, 1), True), 65537, id="log_tables"),
    pytest.param("fields.FieldEmbedding.__init__",
                 lambda: FieldEmbedding(FieldSpec(*F2_20), FieldSpec(*F2_20)), None,
                 lambda: FieldEmbedding(*[FieldSpec(P_ABOVE_2_20, (1, 1))] * 2), P_ABOVE_2_20,
                 id="embedding"),
    pytest.param("rootsets._roots_i", lambda: _root_of_x_minus_1(*F2_20), None,
                 lambda: _root_of_x_minus_1(P_ABOVE_2_20, (1, 1)), P_ABOVE_2_20,
                 id="root_sweep"),
    pytest.param("skewpoly._circulant_rows_i", lambda: _one_row_circulant(1 << 20), None,
                 lambda: _one_row_circulant((1 << 20) + 1), (1 << 20) + 1, id="circulant"),
    pytest.param("rootsets._vandermonde_i", lambda: _one_row_vandermonde(1 << 20), None,
                 lambda: _one_row_vandermonde((1 << 20) + 1), (1 << 20) + 1, id="vandermonde"),
    pytest.param("rootsets._minpoly_ci", lambda: _stubbed_fold(1 << 12),
                 (AttributeError, "neg_i"), lambda: _fold_over_f5_8(257 * 673),
                 (1 << 24) + 1, id="minpoly_fold"),
    pytest.param("textio.parse_poly", lambda: _parse("x^" + "1" * 100),
                 (GuardExceededError, "^x exponent 1{100} exceeds 2\\^16$"),
                 lambda: _parse("x^" + "1" * 101), 101, id="exponent_digits"),
    pytest.param("textio.parse_poly", lambda: _parse("x^65536"), None,
                 lambda: _parse("x^65537"), 65537, id="exponent"),
]


@pytest.mark.parametrize("site,admit,past,refuse,cost", GUARD_BOUNDARIES)
def test_guards_admit_their_limit_and_refuse_the_next_cost(site, admit, past, refuse, cost):
    if past is None:
        admit()
    else:
        with pytest.raises(past[0], match=past[1]):
            admit()
    with pytest.raises(GuardExceededError) as info:
        refuse()
    assert info.value.cost == cost
