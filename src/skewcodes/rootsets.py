"""Vanishing sets, algebraic sets, minimal polynomials and skew Vandermonde
matrices for right evaluation of skew polynomials.

Roots are found one sigma-conjugacy class at a time: each class is one
F_p-kernel, solved and spanned by the packed-digit algebra of ``fields``
(``_fp_kernel``, ``_fp_span``), with every scalar through the field kernel
bound once per call.  The reduced norm chi_f (``_reduced_norm_ci``, the
characteristic polynomial of x^m on R/Rf from ``linalg.charpoly_i``)
vanishes exactly at the norms of the classes that hold roots, so only
those, at most deg f, are solved, and one kernel vector per F_q-line is
mapped to its root (``_line_points``).  Roots, minimal polynomials
(``_minpoly_ci``), the Vandermonde rows and the tower transport work on
packed indices; a public function boxes FieldElement values once, where it
returns.
"""

from __future__ import annotations

from .errors import NotWedderburnError, _guard
from .fields import FieldElement, _fp_kernel, _fp_span
from .linalg import charpoly_i, rank_i, wrap
from .skewpoly import SkewPoly, SkewRing, _circulant_rows_i, _eval_ci, _lclm_ci, _monic_ci, _mul_ci

_DOMAIN_SWEEP_LIMIT = 1 << 20


class AlgebraicSet:
    """A finite, deduplicated set of points in one field.

    Stored sorted by packed index so iteration order, and therefore every
    lclm fold over the set, is deterministic.
    """

    def __init__(self, field, elements):
        self._box(field, sorted({field.element(a).i for a in elements}))

    def _box(self, field, idx):
        """Fill the set from sorted distinct packed indices; returns it."""
        self.field, self.elements = field, tuple(FieldElement(field, i) for i in idx)
        return self

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        a = self.field.element(a)
        return any(a == b for b in self.elements)

    def __eq__(self, other):
        if isinstance(other, AlgebraicSet):
            return self.field == other.field and self.elements == other.elements
        if isinstance(other, (set, frozenset, list, tuple)):
            return {e for e in self.elements} == {self.field.element(a) for a in other}
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.elements))

    def __or__(self, other):
        return AlgebraicSet(self.field, list(self.elements) + list(other))

    def __repr__(self):
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def vanishing_set(f, emb=None):
    """All right roots of f, by conjugacy class, sorted by packed index.

    Nonzero a and b are sigma-conjugate (b = sigma(c) a c^-1) exactly when
    their norms to the fixed field F_q agree, so there are q - 1 nonzero
    classes.  By the product theorem f(sigma(c) a c^-1) = 0 exactly when
    L_a(c) = sum_i f_i N_i(a) sigma^i(c) = 0, and L_a is F_q-linear: the
    roots in the class of a are its conjugates by the nonzero vectors of
    one d x d kernel over F_p (``_class_kernels``), and 0 is a root when
    f_0 = 0.  The class of norm gamma holds a root exactly when the
    reduced norm chi_f (``_reduced_norm_ci``) vanishes at gamma, so at most
    deg f kernels are solved.  sigma(c) a c^-1 = a c^(q-1) is the same for
    every F_q-multiple of c, so one vector per F_q-line of the kernel is
    mapped and each root is computed once.  With sigma the identity every
    class is one point, and f is evaluated there directly.

    With an embedding the roots are taken in the extension field, with sigma
    extended as the Frobenius power of the same q.
    """
    if emb is not None:
        f = _lift(f, emb)
    return AlgebraicSet.__new__(AlgebraicSet)._box(f.ring.field, _roots_i(f))


def _roots_i(f):
    """The right roots of f as sorted packed indices (see vanishing_set)."""
    ring = f.ring
    domain = ring.field
    _guard("root sweep limited to 2^20 points, domain has {}", _DOMAIN_SWEEP_LIMIT, domain.order)
    ci = f._ci
    if not ci:   # f = 0 vanishes everywhere
        return list(range(domain.order))
    if ring.m == 1:
        return [a for a in range(domain.order) if _eval_ci(ring, ci, a) == 0]
    kern = domain.kernel()
    mul, pow_, q1 = kern.mul, kern.pow, ring.q - 1
    roots = [] if ci[0] else [0]
    for a, basis in _class_kernels(ring, ci):
        # sigma(c) a c^-1 = a c^(q-1), one c per F_q-line
        roots += [mul(a, pow_(c, q1)) for c in _line_points(domain, basis, ring.e)]
    return sorted(roots)


def _class_kernels(ring, ci):
    """Yield (a, basis) for the representative a = g^j, 0 <= j < q - 1, of
    each nonzero conjugacy class that holds a right root of f, where basis
    is an F_p-basis, as packed indices, of the kernel of
    L_a(c) = sum_i f_i N_i(a) sigma^i(c).

    g is the generator of F^* the field is built on, so its norm nu = N(g)
    generates F_q^* and the g^j lie in distinct classes, of norms nu^j.
    When q - 1 > deg f the reduced norm chi_f is evaluated at each nu^j and
    only its roots, at most deg f, are solved; otherwise every class is.  L_a(c) is the right evaluation
    of the product f*c at a, and L_a is F_q-linear: the gamma^u x^v, u < e,
    v < m, are an F_p-basis of the field (1, x, ..., x^(m-1) span it over
    F_q, and gamma = nu^u), so each class takes m evaluations of the
    products f*x^v, formed once, and e*m scalings.  Taken in that order
    (v outer), the kernel comes in runs of e vectors: the first of each run
    is x^v plus an F_q-combination of the x^v' with v' < v, so the run
    starts form an F_q-basis, and the runs before one span the F_q-span of
    their starts (``_line_points`` relies on both).
    """
    field = ring.field
    kern = field.kernel()
    mul, pow_, scale = kern.mul, kern.pow, kern.scale
    p, n, q = field.p, field.order - 1, ring.q
    g = field._generator_i()
    nu = pow_(g, n // (q - 1))
    gammas = [pow_(nu, u) for u in range(ring.e)]
    xs = [p ** v for v in range(ring.m)]
    domain = [mul(gu, xv) for xv in xs for gu in gammas]
    products = [_mul_ci(ring, ci, (xv,)) for xv in xs]
    chi = _reduced_norm_ci(ring, ci) if q - 1 > len(ci) - 1 else None
    a = gamma = 1
    for _ in range(q - 1):
        if chi is None or not kern.evaluate(chi, gamma, field.degree):
            cols = []
            for fx in products:
                acc = _eval_ci(ring, fx, a)
                cols += scale(acc, gammas) if acc else [0] * ring.e
            yield a, _fp_kernel(field, cols, domain)
        a, gamma = mul(a, g), mul(gamma, nu)


def _reduced_norm_ci(ring, ci):
    """chi_f(y), the characteristic polynomial of right multiplication by
    the central y = x^m on R/Rf, ascending; its coefficients lie in F_q.

    Row i of the matrix is x^(m+i) mod_r f for the monic f of degree n: the
    n rows of the skew circulant of x^m.  _class_kernels builds chi_f only
    when n < q - 1, and _roots_i admits at most 2^20 elements, so with
    m >= 2, q <= 2^10 and n^2 <= 1022^2 < 2^20: the circulant's guard never
    fires.
    """
    f = _monic_ci(ring, ci)
    return charpoly_i(_circulant_rows_i(ring, f, (0,) * ring.m + (1,), len(f) - 1), ring.field)


def _line_points(field, basis, e):
    """One vector on each F_q-line of the span of a class kernel basis, in
    the order ``_class_kernels`` gives it: basis[j] for each run start j,
    plus every F_p-combination of basis[:j], which spans F_q-combinations
    of the earlier run starts."""
    add = field.kernel().add
    points = []
    for j in range(0, len(basis), e):
        points += [add(s, basis[j]) for s in _fp_span(field, basis[:j])]
    return points


def minimal_polynomial(ring, points):
    """m_A = lclm(x - a : a in A), the monic minimal polynomial of the set."""
    return SkewPoly(ring, _minpoly_ci(ring, [ring.field.element(a).i for a in points]))


def _minpoly_ci(ring, idx):
    """lclm(x - a) over the distinct packed points, folded in index order.
    The fold's work grows as the k points times the rank, at most
    m(q - 1) + 1, the degree of the minimal polynomial of the whole field:
    k * min(k, m(q - 1) + 1) above 2^24 is refused before the fold."""
    if not idx:
        raise ValueError("minimal polynomial of the empty set")
    points = sorted(set(idx))
    k = len(points)
    _guard("minimal polynomial fold of {} point-rank steps exceeds 2^24", 1 << 24,
           k * min(k, ring.m * (ring.q - 1) + 1))
    neg = ring.field.neg_i
    return _lclm_ci(ring, [(neg(a), 1) for a in points])


def set_rank(ring, points):
    """rk(A) = deg m_A; at most |A|."""
    return minimal_polynomial(ring, points).degree


def skew_vandermonde(ring, n, points):
    """The n x r matrix with entry (i, j) = N_i(a_j).

    Satisfies (g(a_1), ..., g(a_r)) = (g_0, ..., g_{n-1}) V for deg g < n,
    and its rank equals the rank of the point set when n >= r.
    """
    field = ring.field
    return wrap(_vandermonde_i(ring, n, [field.element(a).i for a in points]), field)


def _vandermonde_i(ring, n, idx):
    """skew_vandermonde on packed points: row i + 1 is row i times sigma^i(a_j).
    Refuses more than 2^20 entries."""
    if n < 1:
        raise ValueError("need at least one row")
    _guard("Vandermonde matrix of {} entries exceeds 2^20", 1 << 20, n * len(idx))
    field = ring.field
    mul, frob = field.mul_i, field.kernel().frobenius
    rows = [[1] * len(idx)]
    for i in range(n - 1):
        t = ring.e * i % field.degree
        rows.append([mul(c, frob(a, t)) for c, a in zip(rows[-1], idx)])
    return rows


def is_wedderburn(f, emb=None):
    """True when f is the minimal polynomial of its own vanishing set.

    The root domain is the coefficient field, or the target of the given
    embedding; the minimal polynomial is then taken in that domain's ring.
    """
    if not f.is_monic:
        raise ValueError("Wedderburn test applies to monic polynomials")
    if emb is not None:
        f = _lift(f, emb)
    roots = _roots_i(f)
    return _minpoly_ci(f.ring, roots) == f._ci if roots else f.degree == 0


def _wedderburn_roots_i(f):
    roots = _roots_i(f)
    if not roots or _minpoly_ci(f.ring, roots) != f._ci:
        raise NotWedderburnError(
            f"{f} is not the minimal polynomial of its vanishing set"
        )
    return roots


def minimal_poly_over_subfield(base_ring, emb, a):
    """The monic polynomial over the base field of least degree with right
    root a in the extension."""
    return _subfield_minimal_polynomial(base_ring, emb, [emb.target.element(a).i])


# -- transport along a field tower: one lift, one restriction ----------------------


def _lift(f, emb):
    """f with its coefficients embedded into the extension, in the ring with
    the same e: sigma extends as the Frobenius power of the same q."""
    if emb.source != f.ring.field:
        raise ValueError("embedding source must be the coefficient field")
    return SkewRing(emb.target, f.ring.e).from_indices(emb._embed_i(c) for c in f._ci)


def _restrict(base_ring, emb, m):
    """The coefficients m of a polynomial over the extension, each restricted
    to the base field.  Only minimal polynomials of automorphism-closed sets
    come here, and their coefficients lie in the base field by theorem, so a
    coefficient that escapes means an arithmetic bug."""
    coeffs = [emb._restrict_i(c) for c in m]
    if None in coeffs:
        raise ArithmeticError(
            "minimal polynomial coefficient escaped the base field; "
            "this indicates a bug in the orbit computation"
        )
    return base_ring.from_indices(coeffs)


def _subfield_minimal_polynomial(base_ring, emb, idx):
    """The monic polynomial over the base field of least degree with every
    packed point of the extension as a right root.

    The automorphisms a -> a^(p^(d1*l)) of the extension fixing the base
    field F_{p^d1} commute with sigma, so a base polynomial vanishing at the
    points vanishes on their closure under them; the extension ring's
    minimal polynomial of that closure has its coefficients fixed by them,
    hence in the base field.
    """
    if emb.source != base_ring.field:
        raise ValueError("embedding source must be the base ring's field")
    frob, d1 = emb.target.frob_i, emb.source.degree
    closure = [frob(a, d1 * l) for l in range(emb.relative_degree) for a in idx]
    return _restrict(base_ring, emb, _minpoly_ci(SkewRing(emb.target, base_ring.e), closure))


def vandermonde_rank(ring, n, points):
    field = ring.field
    return rank_i(_vandermonde_i(ring, n, [field.element(a).i for a in points]), field)
