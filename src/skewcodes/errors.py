"""Exception types shared across the library."""


class SkewError(Exception):
    """Base class for all library-specific errors."""


class FieldMismatchError(SkewError):
    """Operands belong to different fields or rings."""


class GuardExceededError(SkewError):
    """A brute-force search would exceed its desk-scale cost guard; ``cost``
    is exact below 10^100 and a lower bound past it (see _guard), or None."""

    def __init__(self, message, cost=None):
        super().__init__(message)
        self.cost = cost


_SHOWN = 10 ** 100            # a cost below this prints in decimal
_CAP = _SHOWN.bit_length()    # b^_CAP > 10^100 for every base b >= 2


def _cost_text(cost):
    return str(cost) if cost < _SHOWN else "at least 10^100"


def _guard(message, limit, base, exponents=(1,)):
    """Refuse a cost, the sum of base^e over exponents, above limit: raise
    GuardExceededError with the {} of message filled by _cost_text(cost).
    Each exponent is capped at _CAP and the sum stops once it reaches
    10^100, so no unbounded int is formed: the cost is exact below 10^100
    and a lower bound past it."""
    cost = 0
    for e in exponents:
        cost += base ** min(e, _CAP)
        if cost >= _SHOWN:
            break
    if cost > limit:
        raise GuardExceededError(message.format(_cost_text(cost)), cost=cost)


class ConditionViolatedError(SkewError):
    """A construction precondition does not hold; the message names it."""


class NotARightDivisorError(SkewError):
    """The given polynomial does not right-divide the modulus."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotTwoSidedError(SkewError):
    """The modulus does not generate a two-sided ideal."""


class NotConstacyclicError(SkewError):
    """The operation needs a modulus of the form x^n - a with a nonzero."""


class NotWedderburnError(SkewError):
    """The polynomial is not the minimal polynomial of its vanishing set."""


class ParseError(SkewError):
    """Malformed polynomial, element, or config text."""


class SearchCancelledError(SkewError):
    """A cooperative cancellation token stopped a long-running search."""
