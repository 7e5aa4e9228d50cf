"""Reflection actions on classes and charges, and words of twists."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kodlat import (
    CentralCharge,
    DimensionMismatch,
    IndexOutOfRange,
    KClass,
    ParseError,
    QC,
    TwistGenerator,
    TwistWord,
    apply_word,
    curve_from_label,
    cycle_value,
    decompose_root,
    dual_reflect_charge,
    enumerate_roots_in_box,
    evaluate,
    line_bundle_class,
    pair,
    radical_basis,
    reflect_class,
)
from oracles import random_charge, random_class

I2 = curve_from_label("I_2")


def charge(z0: str, *zs: str) -> CentralCharge:
    return CentralCharge(QC.parse(z0), tuple(QC.parse(s) for s in zs))


class TestGeneratorSyntax:
    def test_str_and_parse(self):
        g = TwistGenerator(1, -3)
        assert str(g) == "T(1,-3)"
        assert TwistGenerator.parse("T(1,-3)") == g
        inv = TwistGenerator.parse(" T(2,0)^-1 ")
        assert inv == TwistGenerator(2, 0, True)
        assert str(inv) == "T(2,0)^-1"

    def test_bad_syntax(self):
        for text in ("T(1)", "T(a,0)", "S(1,0)", "T(1,0)^2", ""):
            with pytest.raises(ParseError):
                TwistGenerator.parse(text)

    def test_word_round_trip(self):
        word = TwistWord.parse("T(1,0);T(2,-1)^-1;T(1,3)")
        assert word.to_list() == ["T(1,0)", "T(2,-1)^-1", "T(1,3)"]
        assert TwistWord.from_list(word.to_list()) == word
        assert word.reversed().to_list() == ["T(1,3)", "T(2,-1)^-1", "T(1,0)"]
        assert TwistWord.parse("") == TwistWord(())


class TestReflectClass:
    def test_root_goes_to_minus_itself(self):
        for i, k in [(1, 0), (2, -1), (1, 5)]:
            delta = line_bundle_class(I2, i, k)
            assert reflect_class(I2, i, k, delta) == -delta

    def test_fixes_point_class(self):
        ox = radical_basis(I2).skyscraper
        assert reflect_class(I2, 1, 0, ox) == ox

    def test_pinned_shift(self):
        v = line_bundle_class(I2, 1, 1)
        out = reflect_class(I2, 1, 0, v)
        assert out == KClass(0, (-1, 0))
        assert out == -line_bundle_class(I2, 1, -1)

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            reflect_class(I2, 3, 0, KClass(0, (1, 0)))
        with pytest.raises(IndexOutOfRange):
            reflect_class(I2, 0, 0, KClass(0, (1, 0)))

    def test_involution_pairing_and_radical(self):
        rng = random.Random(71)
        for label in ("I_2", "mI_2_3", "IV", "IStar_1", "IIIStar"):
            curve = curve_from_label(label)
            rad = radical_basis(curve)
            for _ in range(25):
                i = rng.randint(1, curve.n)
                k = rng.randint(-4, 4)
                v, w = random_class(curve, rng), random_class(curve, rng)
                sv = reflect_class(curve, i, k, v)
                assert reflect_class(curve, i, k, sv) == v
                sw = reflect_class(curve, i, k, w)
                assert pair(curve, sv, sw) == pair(curve, v, w)
                assert reflect_class(curve, i, k, rad.skyscraper) == rad.skyscraper
                assert reflect_class(curve, i, k, rad.cycle) == rad.cycle

    def test_permutes_roots(self):
        for label in ("I_2", "IV"):
            curve = curve_from_label(label)
            for delta in enumerate_roots_in_box(curve, 2):
                image = reflect_class(curve, 1, 0, delta)
                assert pair(curve, image, image) == -2
                decompose_root(curve, image)


class TestDualReflectCharge:
    def test_pinned_examples(self):
        out = dual_reflect_charge(I2, 1, -1, charge("-1,0", "1/3,-1", "0,2"))
        assert out == charge("-1,0", "-1/3,1", "2/3,0")
        out = dual_reflect_charge(I2, 1, 0, charge("-1,0", "1,-1", "0,1"))
        assert out == charge("-1,0", "1,1", "0,-1")

    def test_z0_and_cycle_fixed(self):
        rng = random.Random(73)
        for label in ("I_2", "IV", "IStar_0"):
            curve = curve_from_label(label)
            for _ in range(15):
                zc = random_charge(curve, rng)
                i = rng.randint(1, curve.n)
                k = rng.randint(-4, 4)
                out = dual_reflect_charge(curve, i, k, zc)
                assert out.z0 == zc.z0
                assert cycle_value(curve, out) == cycle_value(curve, zc)

    def test_duality_with_class_action(self):
        rng = random.Random(79)
        for label in ("I_2", "mI_3_2", "IVStar"):
            curve = curve_from_label(label)
            for _ in range(15):
                zc = random_charge(curve, rng)
                v = random_class(curve, rng)
                i = rng.randint(1, curve.n)
                k = rng.randint(-3, 3)
                lhs = evaluate(curve, dual_reflect_charge(curve, i, k, zc), v)
                rhs = evaluate(curve, zc, reflect_class(curve, i, k, v))
                assert lhs == rhs

    def test_involution(self):
        zc = charge("2,1", "1/3,-1", "0,2")
        once = dual_reflect_charge(I2, 2, 3, zc)
        assert dual_reflect_charge(I2, 2, 3, once) == zc


class TestApplyWord:
    def test_identity_and_involution(self):
        v = KClass(2, (3, -1))
        assert apply_word(I2, TwistWord(()), v) == v
        word = TwistWord.parse("T(1,0);T(1,0)")
        assert apply_word(I2, word, v) == v

    def test_single_step_matches_generator(self):
        zc = charge("-1,0", "1/3,-1", "0,2")
        out = apply_word(I2, TwistWord.parse("T(1,-1)"), zc)
        assert out == charge("-1,0", "-1/3,1", "2/3,0")

    def test_reversed_word_inverts(self):
        rng = random.Random(83)
        for label in ("I_2", "IStar_1"):
            curve = curve_from_label(label)
            for _ in range(10):
                gens = tuple(
                    TwistGenerator(rng.randint(1, curve.n), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 6))
                )
                word = TwistWord(gens)
                v = random_class(curve, rng)
                zc = random_charge(curve, rng)
                assert apply_word(curve, word.reversed(), apply_word(curve, word, v)) == v
                assert (
                    apply_word(curve, word.reversed(), apply_word(curve, word, zc)) == zc
                )

    def test_composition_has_infinite_order(self):
        step = TwistWord.parse("T(1,0);T(2,0)")
        v = KClass(0, (1, 0))
        current = v
        for _ in range(20):
            current = apply_word(I2, step, current)
            assert current != v

    def test_dimension_checked_before_any_generator(self):
        i3 = curve_from_label("I_3")
        for word in (TwistWord(()), TwistWord.parse("T(9,0)")):
            with pytest.raises(DimensionMismatch, match="charge has 1 component values"):
                apply_word(i3, word, charge("-1,0", "0,1"))
            with pytest.raises(DimensionMismatch, match="class has 1 ranks"):
                apply_word(i3, word, KClass(0, (1,)))
        with pytest.raises(DimensionMismatch):
            dual_reflect_charge(i3, 9, 0, charge("-1,0", "0,1"))

    def test_rejects_other_targets(self):
        with pytest.raises(TypeError):
            apply_word(I2, TwistWord(()), "not a class")

    @given(st.integers(1, 2), st.integers(-6, 6), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_reflection_is_isometric_involution(self, i, k, chi, r1, r2):
        v = KClass(chi, (r1, r2))
        sv = reflect_class(I2, i, k, v)
        assert reflect_class(I2, i, k, sv) == v
        assert pair(I2, sv, sv) == pair(I2, v, v)
