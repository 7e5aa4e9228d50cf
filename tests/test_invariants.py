"""The paper's group-level facts as seeded property tests.

Twists act on charges through reflections in roots: they preserve the
validity data, the chamber Im z_i > 0 is a fundamental domain for their
action on imaginary parts, and the greedy walk takes one step per positive
affine root that the charge sends below the real axis.  The oracles are in
``oracles.py``.
"""

import random
from fractions import Fraction

import pytest

from kodlat import (
    QC,
    CentralCharge,
    TwistGenerator,
    TwistWord,
    apply_word,
    curve_from_label,
    membership,
    reduce_to_fundamental,
)
from oracles import (
    count_negative_positive_roots,
    gram_column_combination,
    precompose_word,
    random_charge,
    random_normalized_plus_charge,
    vanishing_charge,
)

CURVES = ("I_2", "I_3", "mI_3_2", "III", "IV", "IStar_0", "IStar_2", "IVStar")


def random_word(curve, rng, longest=6) -> TwistWord:
    return TwistWord(tuple(
        TwistGenerator(rng.randint(1, curve.n), rng.randint(-5, 5))
        for _ in range(rng.randint(1, longest))
    ))


def pairs(word: TwistWord):
    return [(g.i, g.k) for g in word.generators]


@pytest.mark.parametrize("label", CURVES)
def test_twists_preserve_validity_data(label):
    curve = curve_from_label(label)
    rng = random.Random(f"validity {label}")
    charges = [random_charge(curve, rng) for _ in range(20)]
    charges += [vanishing_charge(curve, rng)[0] for _ in range(4)]
    for zc in charges:
        word = random_word(curve, rng)
        twisted = apply_word(curve, word, zc)
        assert twisted == precompose_word(curve, zc, pairs(word))
        before, after = membership(curve, zc), membership(curve, twisted)
        assert after.component is before.component
        assert after.min_modulus_sq == before.min_modulus_sq
        assert after.independent == before.independent
        assert (after.vanishing is None) == (before.vanishing is None)


def chamber_charge(curve, rng) -> CentralCharge:
    """z0 = -1 and every Im z_i > 0, with no vanishing root."""
    while True:
        zc = CentralCharge(QC(-1), tuple(
            QC(Fraction(rng.randint(-300, 300), 97), Fraction(rng.randint(1, 300), 97))
            for _ in range(curve.n)
        ))
        if membership(curve, zc).in_p0:
            return zc


@pytest.mark.parametrize("label", CURVES)
def test_chamber_is_a_fundamental_domain_for_im(label):
    curve = curve_from_label(label)
    rng = random.Random(f"chamber {label}")
    for _ in range(15):
        zc = chamber_charge(curve, rng)
        word = random_word(curve, rng)
        trace = reduce_to_fundamental(curve, precompose_word(curve, zc, pairs(word)))
        assert [v.im for v in trace.final.z] == [v.im for v in zc.z]
        shift = [a.re - b.re for a, b in zip(trace.final.z, zc.z)]
        coeffs = gram_column_combination(curve, shift)
        assert coeffs is not None and all(c.denominator == 1 for c in coeffs)


@pytest.mark.parametrize("label", CURVES)
def test_walk_length_counts_negative_positive_roots(label):
    curve = curve_from_label(label)
    rng = random.Random(f"walk length {label}")
    counted = 0
    for _ in range(20):
        zc = random_normalized_plus_charge(curve, rng, num=4, den=97)
        expected = count_negative_positive_roots(curve, [v.im for v in zc.z])
        if expected is None:  # a root with Im Z = 0: the walk may end on a wall
            continue
        assert len(reduce_to_fundamental(curve, zc).steps) == expected
        counted += 1
    assert counted >= 15
