"""The bridge between F_{q^m}[x; sigma] and q-linearized polynomials.

A skew polynomial sum g_i x^i corresponds to the linearized polynomial
sum g_i y^(q^i); multiplication on the skew side becomes composition.
Moore matrices test F_q-linear independence and the Dickson matrix (the
q-circulant) represents the induced F_q-linear map.
"""

from __future__ import annotations

from .fields import FieldElement
from .linalg import wrap
from .skewpoly import SkewPoly, _TuplePoly, _circulant_rows_i, _eval_ci, _mul_ci, _right_divmod_ci


class LinearizedPoly(_TuplePoly):
    """sum_i f_i y^(q^i) over F_{q^m}; the induced map a -> f(a) is F_q-linear.

    It shares SkewPoly's coefficient-tuple base (skewpoly._TuplePoly), read
    through x^i -> y^(q^i).  Exponents are not folded modulo m: reduce_map()
    does that, which does not change the induced map on F_{q^m}.  Trailing
    zero coefficients are trimmed.
    """

    __slots__ = ()
    _mismatch = "linearized polynomials from different rings"

    @staticmethod
    def _term(i):
        return "y" if i == 0 else "y^q" if i == 1 else f"y^q^{i}"

    @property
    def q_degree(self):
        """Largest i with a y^(q^i) term, or -1 for zero."""
        return len(self._ci) - 1

    def compose(self, other):
        """Composition, re-expressed in the y^(q^i) basis.

        (F o G) has coefficient sum over i+j=k of F_i * G_j^(q^i); only
        exponent arithmetic on q-powers is used, never a dense expansion.
        """
        other = self._same_ring(other)
        return LinearizedPoly(self.ring, _mul_ci(self.ring, self._ci, other._ci))

    def reduce_map(self):
        """Fold exponents modulo m (valid on F_{q^m} since a^(q^m) = a): the
        remainder of right division by x^m - 1, as in dickson_matrix."""
        ring = self.ring
        f = ring.x_pow_minus(ring.m, ring.field.one)._ci
        return LinearizedPoly(ring, _right_divmod_ci(ring, self._ci, f)[1])

    def apply(self, a):
        """Evaluate the induced map: sum f_i a^(q^i), the right evaluation
        of the skew product f*a at 1."""
        ring = self.ring
        a = ring.field.element(a)
        return FieldElement(ring.field, _eval_ci(ring, _mul_ci(ring, self._ci, (a.i,)), 1))

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
