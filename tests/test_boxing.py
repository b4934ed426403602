"""FieldElement values are built only where a public function returns.

The minimal polynomial, the closure across a field tower, the root set, the
normal-element scan and the Vandermonde rows each work on packed indices
inside; a call that returns polynomials or counts builds no element, and a
call that returns elements builds each of them once.
"""

from skewcodes.bch import (
    Bch1Spec,
    Bch2Spec,
    bch1_generator,
    bch2_generator,
    evaluation_code,
    find_normal_element,
    skew_rs1,
)
from skewcodes.codes import vandermonde_parity_check
from skewcodes.fields import FieldElement
from skewcodes.rootsets import is_wedderburn, minimal_polynomial
from skewcodes.skewpoly import SkewRing


def _boxed(monkeypatch, call):
    """(number of FieldElement constructions during call(), its result)."""
    count = 0
    init = FieldElement.__init__

    def counting(self, field, index):
        nonlocal count
        count += 1
        init(self, field, index)

    with monkeypatch.context() as m:
        m.setattr(FieldElement, "__init__", counting)
        result = call()
    return count, result


def test_skew_bch_generators_box_nothing(monkeypatch, R64, tower, F4096):
    spec1 = Bch1Spec(
        base_ring=R64, emb=tower, alpha=F4096.gen,
        b=0, t1=1, t2=1, delta=3, nu=0, n=12,
    )
    count, (g, _) = _boxed(monkeypatch, lambda: bch1_generator(spec1))
    assert count == 0 and g.degree >= 2
    count, alpha = _boxed(monkeypatch, lambda: find_normal_element(SkewRing(F4096, 1)))
    assert count == 1 and alpha.field == F4096   # the returned element only
    spec2 = Bch2Spec(
        base_ring=R64, emb=tower, alpha=alpha,
        b=0, t1=1, t2=1, delta=3, nu=0,
    )
    count, (g, _) = _boxed(monkeypatch, lambda: bch2_generator(spec2))
    assert count == 0 and g.degree >= 2


def test_root_sets_and_vandermonde_rows_box_only_their_result(monkeypatch, R16, R64, F16, F64):
    a = F16.gen
    m = minimal_polynomial(R16, [a, a ** 2])
    assert _boxed(monkeypatch, lambda: is_wedderburn(m)) == (0, True)
    code = skew_rs1(R64, F64.gen, 0, 3, 6)
    count, M = _boxed(monkeypatch, lambda: vandermonde_parity_check(code))
    assert (len(M), len(M[0])) == (6, 3)
    assert count == 18   # one per entry of the returned matrix
    points = [F16.gen ** k for k in (1, 2, 3, 4)]
    count, ec = _boxed(monkeypatch, lambda: evaluation_code(R16, points, 2))
    assert count == 0 and ec.k == 2
