"""Root systems: reflection closure, coset decomposition, box enumeration."""

import pytest

from kodlat import (
    KClass,
    NotARoot,
    compose_root,
    curve_from_label,
    decompose_root,
    enumerate_roots_in_box,
    fundamental_roots,
    pair,
    radical_basis,
)
from oracles import coset_box_roots, naive_box_roots

COUNTS = {
    "I_2": 2,
    "I_3": 6,
    "I_5": 20,
    "I_8": 56,
    "mI_2_3": 2,
    "mI_3_2": 6,
    "III": 2,
    "IV": 6,
    "IStar_0": 24,
    "IStar_1": 40,
    "IStar_4": 112,
    "IVStar": 72,
    "IIIStar": 126,
    "IIStar": 240,
}


@pytest.mark.parametrize("label,count", sorted(COUNTS.items()))
def test_fundamental_root_counts(label, count):
    curve = curve_from_label(label)
    roots = fundamental_roots(curve)
    assert len(roots) == count
    affine = curve.affine_node
    for w0 in roots:
        assert w0.chi == 0
        assert w0.ranks[affine] == 0
        assert pair(curve, w0, w0) == -2
    # closed under negation, lexicographically sorted, no duplicates
    ranks = [w0.ranks for w0 in roots]
    assert ranks == sorted(set(ranks))
    assert {tuple(-r for r in t) for t in ranks} == set(ranks)


def test_pinned_i2_fundamental_roots():
    i2 = curve_from_label("I_2")
    assert [w.ranks for w in fundamental_roots(i2)] == [(-1, 0), (1, 0)]


class TestBoxEnumeration:
    def test_pinned_boxes(self):
        i2 = curve_from_label("I_2")
        assert {w.ranks for w in enumerate_roots_in_box(i2, 1)} == {
            (1, 0), (-1, 0), (0, 1), (0, -1),
        }
        assert len(enumerate_roots_in_box(i2, 2)) == 8
        assert enumerate_roots_in_box(curve_from_label("IV"), 0) == ()

    @pytest.mark.parametrize(
        "bound,label",
        [
            (bound, label)
            for bound in (1, 2, 3)
            for label in ("I_2", "I_3", "III", "IV", "IStar_0", "mI_2_3")
        ]
        + [(2, "I_4"), (1, "IVStar")],
    )
    def test_matches_naive_product_scan(self, bound, label):
        """The translate construction equals a dumb full scan on small instances."""
        curve = curve_from_label(label)
        got = {w.ranks for w in enumerate_roots_in_box(curve, bound)}
        assert got == naive_box_roots(curve, bound)

    @pytest.mark.parametrize("label", ["I_4", "IStar_1", "IVStar"])
    def test_matches_coset_construction(self, label):
        curve = curve_from_label(label)
        got = {w.ranks for w in enumerate_roots_in_box(curve, 4)}
        assert got == coset_box_roots(curve, 4)

    def test_results_sorted_and_chi_zero(self):
        curve = curve_from_label("I_3")
        out = enumerate_roots_in_box(curve, 2)
        assert all(w.chi == 0 for w in out)
        assert [w.ranks for w in out] == sorted(w.ranks for w in out)


class TestDecomposition:
    def test_pinned_example(self):
        i2 = curve_from_label("I_2")
        dec = decompose_root(i2, KClass(2, (2, 1)))
        assert dec.point_coeff == 2
        assert dec.fundamental.ranks == (1, 0)
        assert dec.cycle_coeff == 1

    def test_not_a_root(self):
        i2 = curve_from_label("I_2")
        with pytest.raises(NotARoot):
            decompose_root(i2, KClass(0, (1, 1)))

    @pytest.mark.parametrize("label", ["I_2", "I_3", "IV", "IStar_0", "IIStar", "mI_2_3"])
    def test_round_trip_over_box(self, label):
        """Every box root decomposes into a fundamental root plus radical."""
        curve = curve_from_label(label)
        fund = set(fundamental_roots(curve))
        bound = 2 if curve.n > 7 else 3
        for delta in enumerate_roots_in_box(curve, bound):
            dec = decompose_root(curve, delta)
            assert dec.fundamental in fund
            assert compose_root(curve, dec) == delta

    def test_radical_shift_invariance(self):
        """Shifting by skyscraper or cycle moves the coefficients, not w0."""
        iv = curve_from_label("IV")
        rad = radical_basis(iv)
        delta = KClass(0, (1, 0, 0))
        shifted = delta + rad.skyscraper.scale(3) + rad.cycle.scale(-2)
        dec = decompose_root(iv, shifted)
        assert dec.point_coeff == 3
        assert dec.cycle_coeff == -2
        assert dec.fundamental == delta

    def test_affine_unit_class_is_a_shifted_root(self):
        """The unit class at the affine node is a cycle shift of a long root."""
        e8 = curve_from_label("IIStar")
        affine = e8.affine_node
        unit = KClass(0, tuple(1 if j == affine else 0 for j in range(e8.n)))
        dec = decompose_root(e8, unit)
        assert dec.cycle_coeff == 1
        assert dec.fundamental in set(fundamental_roots(e8))
