"""The one cost guard: errors._guard compares a cost with its bound, caps the
powers and sums it is built from, and prints it with _cost_text."""

import pytest

from skewcodes.errors import GuardExceededError, _cost_text, _guard


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
