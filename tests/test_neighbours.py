"""The curve is its dual graph: neighbour lists on every pairing path, and
the dense Gram matrix built only by the outputs that print a matrix."""

import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kodlat import (
    QC,
    KClass,
    KodairaCurve,
    NormalizedCharge,
    TwistWord,
    apply_word,
    build_curve,
    curve_from_label,
    enumerate_roots_in_box,
    fundamental_roots,
    jh_of_skyscraper,
    membership,
    pair,
    reduce_to_fundamental,
    reference_charge,
    reflect_class,
    support_form,
    wall_crossings_on_segment,
)
from kodlat.charge import _kernel_factor, _root_scan
from kodlat.roots import positive_roots
from oracles import random_normalized_plus_charge

# every family at small parameters
SMALL_LABELS = [
    "I_2", "I_3", "I_5", "mI_2_2", "mI_3_2", "III", "IV",
    "IStar_0", "IStar_1", "IStar_3", "IIStar", "IIIStar", "IVStar",
]


def fresh_curve(label: str) -> KodairaCurve:
    """The curve built anew, with every per-curve cache of the library empty."""
    for cache in (build_curve, positive_roots, fundamental_roots, _kernel_factor, _root_scan):
        cache.cache_clear()
    curve = curve_from_label(label)
    assert "gram" not in curve.__dict__
    return curve


def plus_charge(curve):
    return random_normalized_plus_charge(curve, random.Random(7))


def segment(curve):
    za = NormalizedCharge(tuple(QC(Fraction(1, 3), i + 1) for i in range(curve.n)))
    zb = NormalizedCharge(tuple(QC(Fraction(5, 2) + i, -1) for i in range(curve.n)))
    return wall_crossings_on_segment(curve, za, zb)


WORD = TwistWord.parse("T(1,0);T(2,-1);T(1,3)")
SPARSE_VERBS = {
    "membership": lambda c: membership(c, reference_charge(c)),
    "reduce_to_fundamental": lambda c: reduce_to_fundamental(c, plus_charge(c)),
    "pair": lambda c: pair(c, KClass(1, (1,) * c.n), KClass(0, tuple(range(c.n)))),
    "apply_word_class": lambda c: apply_word(c, WORD, KClass(2, tuple(range(c.n)))),
    "apply_word_charge": lambda c: apply_word(c, WORD, plus_charge(c)),
    "jh_of_skyscraper": lambda c: jh_of_skyscraper(c, 2, 1),
    "wall_crossings_on_segment": segment,
    "fundamental_roots": fundamental_roots,
    "enumerate_roots_in_box": lambda c: enumerate_roots_in_box(c, 2),
}


@pytest.mark.parametrize("label", ["I_2", "mI_3_2", "IStar_1", "IVStar"])
@pytest.mark.parametrize("verb", sorted(SPARSE_VERBS))
def test_verbs_do_not_build_the_gram_matrix(verb, label):
    curve = fresh_curve(label)
    SPARSE_VERBS[verb](curve)
    assert "gram" not in curve.__dict__


@pytest.mark.parametrize("label", ["I_2", "IStar_1", "IVStar"])
def test_matrix_outputs_build_the_gram_matrix(label):
    curve = fresh_curve(label)
    support_form(curve, plus_charge(curve))
    assert "gram" in curve.__dict__
    curve = fresh_curve(label)
    assert curve.to_dict()["gram"] == [list(row) for row in curve.gram]
    assert "gram" in curve.__dict__


def test_the_stored_fields():
    assert [f.name for f in fields(KodairaCurve)] == [
        "id", "n", "marks", "neighbours", "affine_node",
    ]


def test_pinned_neighbour_lists():
    assert curve_from_label("I_2").neighbours == ((1, 1), (0, 0))
    assert curve_from_label("III").neighbours == ((1, 1), (0, 0))
    assert curve_from_label("IV").neighbours == ((1, 2), (0, 2), (1, 0))
    assert curve_from_label("IStar_0").neighbours == ((4,), (4,), (4,), (4,), (0, 1, 2, 3))


@pytest.mark.parametrize("label", SMALL_LABELS + ["I_40", "IStar_30"])
def test_neighbour_lists_are_symmetric_and_balanced(label):
    """j is listed at i as often as i at j, and at each node the marks of the
    listed neighbours sum to twice its own mark."""
    curve = curve_from_label(label)
    nbrs, marks = curve.neighbours, curve.marks
    assert len(nbrs) == curve.n
    for i, nb in enumerate(nbrs):
        assert i not in nb
        assert all(Counter(nbrs[j])[i] == count for j, count in Counter(nb).items())
        assert sum(marks[j] for j in nb) == 2 * marks[i]


@st.composite
def curve_and_ranks(draw):
    curve = curve_from_label(draw(st.sampled_from(SMALL_LABELS)))
    ranks = st.tuples(*[st.integers(-9, 9)] * curve.n)
    return curve, KClass(draw(st.integers(-9, 9)), draw(ranks)), KClass(0, draw(ranks))


@given(curve_and_ranks(), st.data())
def test_pair_and_reflection_match_the_dense_matrix(drawn, data):
    curve, v, w = drawn
    g = curve.gram
    dense = [sum(x * y for x, y in zip(row, w.ranks)) for row in g]  # gram . w
    assert pair(curve, v, w) == sum(x * y for x, y in zip(v.ranks, dense))
    i, k = data.draw(st.integers(1, curve.n)), data.draw(st.integers(-5, 5))
    coeff = sum(x * y for x, y in zip(g[i - 1], v.ranks))
    unit = tuple(int(t == i - 1) for t in range(curve.n))
    expected = KClass(v.chi + coeff * (k + 1), tuple(r + coeff * e for r, e in zip(v.ranks, unit)))
    assert reflect_class(curve, i, k, v) == expected


def test_a_large_cycle_pairs_without_the_matrix():
    build_curve.cache_clear()
    try:
        curve = curve_from_label("I_100000")
        v = KClass(0, (1, 1) + (0,) * (curve.n - 2))
        assert pair(curve, v, v) == -2
        assert "gram" not in curve.__dict__
    finally:
        build_curve.cache_clear()
