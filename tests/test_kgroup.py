"""Lattice classes, the Euler pairing, and the radical."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kodlat import (
    DimensionMismatch,
    IndexOutOfRange,
    KClass,
    ParseError,
    curve_from_label,
    is_effective,
    line_bundle_class,
    pair,
    radical_basis,
)
from oracles import random_class

CURVES = [curve_from_label(s) for s in ["I_2", "I_3", "IV", "IStar_0", "mI_2_3"]]


def classes(curve):
    return st.builds(
        KClass,
        st.integers(-9, 9),
        st.tuples(*([st.integers(-9, 9)] * curve.n)),
    )


class TestFromDict:
    @pytest.mark.parametrize(
        "data",
        [
            {"chi": 1.7, "ranks": [1, 0]},
            {"chi": True, "ranks": [1, 0]},
            {"chi": 1, "ranks": "10"},
            {"chi": 1, "ranks": [True, 0]},
            {"chi": 1, "ranks": [1.0, 0]},
        ],
    )
    def test_rejects_non_integers(self, data):
        """Floats, booleans and strings are not coerced to integers."""
        with pytest.raises(ParseError):
            KClass.from_dict(data)


class TestPairing:
    def test_pinned_values(self):
        i2 = curve_from_label("I_2")
        e1 = line_bundle_class(i2, 1, -1)
        e2 = line_bundle_class(i2, 2, -1)
        assert pair(i2, e1, e1) == -2
        assert pair(i2, e1, e2) == 2
        iv = curve_from_label("IV")
        assert pair(iv, line_bundle_class(iv, 1, 0), line_bundle_class(iv, 2, 5)) == 1

    def test_chi_is_immaterial(self):
        i2 = curve_from_label("I_2")
        a = KClass(3, (1, 2))
        b = KClass(-7, (1, 2))
        w = KClass(1, (4, -1))
        assert pair(i2, a, w) == pair(i2, b, w)

    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id.label)
    def test_bilinear_symmetric_even(self, curve):
        rng = random.Random(101)
        for _ in range(200):
            u, v, w = (random_class(curve, rng) for _ in range(3))
            assert pair(curve, u, w) == pair(curve, w, u)
            assert pair(curve, u + v, w) == pair(curve, u, w) + pair(curve, v, w)
            assert pair(curve, u, u) % 2 == 0

    def test_dimension_mismatch(self):
        i2 = curve_from_label("I_2")
        with pytest.raises(DimensionMismatch):
            pair(i2, KClass(0, (1, 0, 0)), KClass(0, (1, 0)))


class TestRadical:
    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id.label)
    def test_radical_pairs_to_zero(self, curve):
        rad = radical_basis(curve)
        rng = random.Random(7)
        for _ in range(50):
            v = random_class(curve, rng)
            assert pair(curve, rad.skyscraper, v) == 0
            assert pair(curve, rad.cycle, v) == 0
            assert pair(curve, rad.fiber, v) == 0

    def test_cycle_is_primitive_marks(self):
        i3 = curve_from_label("I_3")
        assert radical_basis(i3).cycle == KClass(0, (1, 1, 1))
        istar0 = curve_from_label("IStar_0")
        assert radical_basis(istar0).cycle.ranks == (1, 1, 1, 1, 2)

    def test_multiple_fiber_scales_by_multiplicity(self):
        mi = curve_from_label("mI_2_3")
        rad = radical_basis(mi)
        assert rad.cycle.ranks == (1, 1)
        assert rad.fiber.ranks == (3, 3)
        assert radical_basis(curve_from_label("I_2")).fiber.ranks == (1, 1)


class TestLineBundles:
    def test_chi_convention(self):
        iv = curve_from_label("IV")
        v = line_bundle_class(iv, 2, 3)
        assert v == KClass(4, (0, 1, 0))
        assert line_bundle_class(iv, 1, -1).chi == 0

    def test_degree_step_is_skyscraper(self):
        # [O_i(k+1)] - [O_i(k)] is the class of a point
        for curve in CURVES:
            for i in (1, curve.n):
                step = line_bundle_class(curve, i, 4) - line_bundle_class(curve, i, 3)
                assert step == radical_basis(curve).skyscraper

    def test_index_out_of_range(self):
        i2 = curve_from_label("I_2")
        for i in (0, 3, -1):
            with pytest.raises(IndexOutOfRange):
                line_bundle_class(i2, i, 0)


class TestEffective:
    def test_examples(self):
        i2 = curve_from_label("I_2")
        assert is_effective(i2, KClass(5, (0, 0)))
        assert not is_effective(i2, KClass(0, (0, 0)))
        assert not is_effective(i2, KClass(-1, (0, 0)))
        assert is_effective(i2, KClass(-3, (2, 1)))
        assert not is_effective(i2, KClass(4, (1, -1)))

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_sum_of_effectives_is_effective(self, chi1, chi2, r):
        i2 = curve_from_label("I_2")
        a = KClass(chi1, (abs(r), 1))
        b = KClass(chi2, (1, abs(chi1) + 1))
        assert is_effective(i2, a) and is_effective(i2, b)
        assert is_effective(i2, a + b)
