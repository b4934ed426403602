"""The one search control: errors._guard compares a cost with its bound, caps
the powers and sums it is built from, and prints it with _cost_text;
errors._cancellable stops a search once its token is set.  Each guard in
front of the divisor walk and the similarity search admits its limit and
refuses the next cost its formula can take."""

import threading

import pytest

from skewcodes.codes import enumerate_right_divisors, self_dual_search
from skewcodes.errors import (
    GuardExceededError,
    SearchCancelledError,
    _cancellable,
    _cost_text,
    _guard,
)
from skewcodes.skewpoly import is_irreducible_bruteforce, similar_bruteforce


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


@pytest.mark.parametrize("search,limit,over,cost", [
    (lambda R2, n, stop: self_dual_search(R2, n, 1, cancel=stop), 40, 42, 1 << 21),
    (lambda R2, n, stop: similar_bruteforce(_x_n_plus_1(R2, n), _x_n_plus_1(R2, n), cancel=stop),
     16, 17, 1 << 17),
    (lambda R2, degrees, stop: enumerate_right_divisors(_x_n_plus_1(R2, 50), degrees, stop),
     [25], [0, 25], (1 << 25) + 1),
    (lambda R2, n, stop: is_irreducible_bruteforce(_x_n_plus_1(R2, n), cancel=stop),
     48, 50, 1 << 25),
], ids=["self_dual", "similarity", "divisors", "irreducible"])
def test_search_guards_admit_their_limit_and_refuse_the_next_cost(R2, search, limit, over, cost):
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
