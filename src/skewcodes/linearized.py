"""The bridge between F_{q^m}[x; sigma] and q-linearized polynomials.

A skew polynomial sum g_i x^i corresponds to the linearized polynomial
sum g_i y^(q^i); multiplication on the skew side becomes composition.
Moore matrices test F_q-linear independence and the Dickson matrix (the
q-circulant) represents the induced F_q-linear map.
"""

from __future__ import annotations

from .errors import FieldMismatchError
from .fields import FieldElement
from .linalg import wrap
from .skewpoly import SkewPoly, _add_ci, _circulant_rows_i, _eval_ci, _join_terms, _mul_ci, _trim


class LinearizedPoly:
    """sum_i f_i y^(q^i) over F_{q^m}; the induced map a -> f(a) is F_q-linear.

    Coefficients are kept as given (unreduced); reduce_map() folds exponents
    modulo m, which does not change the induced map on F_{q^m}.
    """

    __slots__ = ("ring", "_ci")

    def __init__(self, ring, ci):
        self.ring = ring
        self._ci = tuple(ci)

    @classmethod
    def _make(cls, ring, ci):
        return cls(ring, _trim(tuple(ci)))

    @property
    def coefficients(self):
        return tuple(FieldElement(self.ring.field, c) for c in self._ci)

    @property
    def q_degree(self):
        """Largest i with a y^(q^i) term, or -1 for zero."""
        return len(self._ci) - 1

    def _same_ring(self, other):
        if not isinstance(other, LinearizedPoly):
            raise TypeError(f"expected LinearizedPoly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise FieldMismatchError("linearized polynomials from different rings")
        return other

    def __add__(self, other):
        other = self._same_ring(other)
        return LinearizedPoly(self.ring, _add_ci(self.ring, self._ci, other._ci))

    def compose(self, other):
        """Composition, re-expressed in the y^(q^i) basis.

        (F o G) has coefficient sum over i+j=k of F_i * G_j^(q^i); only
        exponent arithmetic on q-powers is used, never a dense expansion.
        """
        other = self._same_ring(other)
        return LinearizedPoly._make(self.ring, _mul_ci(self.ring, self._ci, other._ci))

    def reduce_map(self):
        """Fold exponents modulo m (valid on F_{q^m} since a^(q^m) = a):
        one kernel addmul per block of m coefficients."""
        ring, ci, m = self.ring, self._ci, self.ring.m
        addmul = ring.field.kernel().addmul
        out = [0] * m
        for b in range(0, len(ci), m):
            addmul(out, 0, 1, [(j, x) for j, x in enumerate(ci[b:b + m]) if x], 0)
        return LinearizedPoly._make(ring, out)

    def apply(self, a):
        """Evaluate the induced map: sum f_i a^(q^i), the right evaluation
        of the skew product f*a at 1."""
        ring = self.ring
        a = ring.field.element(a)
        return FieldElement(ring.field, _eval_ci(ring, _mul_ci(ring, self._ci, (a.i,)), 1))

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.ring == other.ring
            and self._ci == other._ci
        )

    def __hash__(self):
        return hash((self.ring, self._ci))

    def __str__(self):
        ci = self._ci
        return _join_terms(
            ((ci[i], "y" if i == 0 else "y^q" if i == 1 else f"y^q^{i}")
             for i in range(len(ci) - 1, -1, -1)),
            self.ring.field.format_element,
        )

    def __repr__(self):
        return f"<linearized over {self.ring.field.name}: {self}>"


def to_linearized(g):
    """Transport exponents i -> q^i; a ring isomorphism onto composition."""
    return LinearizedPoly(g.ring, g._ci)


def from_linearized(L):
    """Inverse transport back to the skew ring."""
    return SkewPoly(L.ring, L._ci)


def lin_compose(F, G):
    return F.compose(G)


def moore_matrix(ring, elements, rows=None):
    """The rows x len(elements) matrix (b_j^(q^i)).

    Invertible (for rows = len(elements) elements of F_{q^m}, m = rows) iff
    the elements are linearly independent over F_q.
    """
    field = ring.field
    idx = [field.element(b).i for b in elements]
    frob, d, e = field.kernel().frobenius, field.degree, ring.e
    return [
        [FieldElement(field, frob(b, e * i % d)) for b in idx]
        for i in range(len(idx) if rows is None else rows)
    ]


def dickson_matrix(g):
    """The m x m q-circulant D with D[i][j] = sigma^i(g_{(j-i) mod m}).

    Input may be a SkewPoly or a LinearizedPoly; either is reduced modulo
    x^m - 1, which folds exponents modulo m as reduce_map does.  It is the
    skew circulant of g for the modulus x^m - 1, and represents the induced
    map of the linearized counterpart up to Moore-matrix conjugation.
    """
    ring = g.ring
    f = ring.x_pow_minus(ring.m, ring.field.one)._ci
    return wrap(_circulant_rows_i(ring, f, g._ci, ring.m), ring.field)


def root_correspondence(g, b):
    """For nonzero b: the pair (g(b^(q-1)) == 0, linearized g vanishing at b).

    The two statements are equivalent; disagreement raises.
    """
    ring = g.ring
    b = ring.field.element(b)
    if not b:
        raise ValueError("root correspondence needs nonzero b")
    skew_side = g(b ** (ring.q - 1)).i == 0
    lin_side = to_linearized(g).apply(b).i == 0
    if skew_side != lin_side:
        raise ArithmeticError("root correspondence identity failed; arithmetic bug")
    return skew_side, lin_side
