"""Charge validity: independence, vanishing roots, minimal modulus, support form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kodlat import (
    CentralCharge,
    Component,
    DegenerateRadical,
    DimensionMismatch,
    KClass,
    NotInP0,
    QC,
    VanishingRoot,
    curve_from_label,
    decompose_root,
    evaluate,
    is_stability_function,
    membership,
    min_root_modulus,
    min_root_modulus_witness,
    orientation_det,
    pair,
    radical_basis,
    radical_independence,
    reference_charge,
    support_form,
    vanishing_root,
)
from kodlat.ratlinalg import nullspace, psd_pivots
from oracles import (
    charge_grid_scan,
    random_charge,
    random_class,
    random_qc,
    vanishing_charge,
)

I2 = curve_from_label("I_2")
IV = curve_from_label("IV")


def charge(z0: str, *zs: str) -> CentralCharge:
    return CentralCharge(QC.parse(z0), tuple(QC.parse(s) for s in zs))


def scale_charge(zc: CentralCharge, lam: QC) -> CentralCharge:
    return CentralCharge(zc.z0 * lam, tuple(v * lam for v in zc.z))


class TestEvaluate:
    def test_reference_values(self):
        zc = reference_charge(I2)
        assert evaluate(I2, zc, KClass(1, (0, 0))) == QC(-1)
        assert evaluate(I2, zc, KClass(0, (1, 0))) == QC(0, 1)
        assert evaluate(I2, zc, KClass(3, (2, 5))) == QC(-3, 7)

    def test_dimension_checks(self):
        zc = reference_charge(I2)
        with pytest.raises(DimensionMismatch):
            evaluate(I2, zc, KClass(0, (1, 0, 0)))
        with pytest.raises(DimensionMismatch):
            evaluate(curve_from_label("I_3"), zc, KClass(0, (1, 0, 0)))

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(50):
            zc = random_charge(I2, rng)
            v, w = random_class(I2, rng), random_class(I2, rng)
            assert evaluate(I2, zc, v + w) == evaluate(I2, zc, v) + evaluate(I2, zc, w)


class TestIndependence:
    def test_reference_det(self):
        assert orientation_det(I2, reference_charge(I2)) == Fraction(-2)
        assert radical_independence(I2, reference_charge(I2))

    def test_real_image_is_degenerate(self):
        assert not radical_independence(I2, charge("-1,0", "1,0", "1,0"))

    def test_diagonal_image_is_independent(self):
        zc = charge("-1,0", "1,1", "1,1")
        assert orientation_det(I2, zc) == Fraction(-2)
        assert radical_independence(I2, zc)


class TestVanishingRoot:
    def test_pinned_witness(self):
        zc = charge("-1,0", "1,-1", "0,2")
        delta = vanishing_root(I2, zc)
        assert delta == KClass(2, (2, 1))
        assert evaluate(I2, zc, delta) == QC(0)
        assert pair(I2, delta, delta) == -2

    def test_pinned_absent(self):
        assert vanishing_root(I2, charge("-1,0", "1/3,-1", "0,2")) is None

    def test_reference_never_vanishes(self):
        for label in ("I_2", "I_5", "mI_2_3", "IV", "IStar_1", "IIStar"):
            curve = curve_from_label(label)
            assert vanishing_root(curve, reference_charge(curve)) is None

    def test_degenerate_refused(self):
        with pytest.raises(DegenerateRadical):
            vanishing_root(I2, charge("-1,0", "1,0", "1,0"))

    def test_constructed_kills_are_found(self):
        rng = random.Random(23)
        for label in ("I_2", "I_3", "IV"):
            curve = curve_from_label(label)
            for _ in range(20):
                zc, planted = vanishing_charge(curve, rng)
                delta = vanishing_root(curve, zc)
                assert delta is not None
                assert evaluate(curve, zc, delta) == QC(0)
                assert pair(curve, delta, delta) == -2
                first = next(r for r in delta.ranks if r)
                assert first > 0

    def test_agrees_with_grid_scan(self):
        rng = random.Random(31)
        for label in ("I_2", "I_3"):
            curve = curve_from_label(label)
            for _ in range(40):
                zc = random_charge(curve, rng, num=6, den=6)
                if not radical_independence(curve, zc):
                    continue
                delta = vanishing_root(curve, zc)
                _, zeros = charge_grid_scan(curve, zc, 25, 25)
                if delta is None:
                    assert not zeros
                else:
                    assert evaluate(curve, zc, delta) == QC(0)


class TestMinRootModulus:
    def test_pinned_examples(self):
        assert min_root_modulus(I2, reference_charge(I2)) == 1
        assert min_root_modulus(IV, reference_charge(IV)) == 1
        assert min_root_modulus(I2, charge("-1,0", "1/3,-1", "0,2")) == Fraction(1, 9)

    def test_witness_attains_minimum(self):
        msq, delta = min_root_modulus_witness(I2, charge("-1,0", "1/3,-1", "0,2"))
        assert msq == Fraction(1, 9)
        assert evaluate(I2, charge("-1,0", "1/3,-1", "0,2"), delta).abs2() == msq
        assert pair(I2, delta, delta) == -2

    @pytest.mark.parametrize(
        "zc,msq,witness",
        [
            # several roots tie within one closest-vector window
            (charge("1,-2", "3,2", "-4,-3"), 1, KClass(0, (-4, -3))),
            # both fundamental roots reach the minimum; the first one wins
            (charge("-1,1", "-2,-3/2", "2,-3/2"), Fraction(1, 4), KClass(2, (0, 1))),
        ],
    )
    def test_witness_tie_break_pinned(self, zc, msq, witness):
        """On equal moduli the witness comes from the first fundamental root,
        and within its window from the least reduced coordinates."""
        assert min_root_modulus_witness(I2, zc) == (msq, witness)

    def test_vanishing_is_an_error(self):
        with pytest.raises(VanishingRoot):
            min_root_modulus(I2, charge("-1,0", "1,-1", "0,2"))
        with pytest.raises(DegenerateRadical):
            min_root_modulus(I2, charge("-1,0", "1,0", "1,0"))

    def test_matches_grid_scan(self):
        rng = random.Random(47)
        for label in ("I_2", "I_3", "IV"):
            curve = curve_from_label(label)
            checked = 0
            while checked < 25:
                zc = random_charge(curve, rng, num=6, den=6)
                rep = membership(curve, zc)
                if not rep.in_p0:
                    continue
                checked += 1
                msq, delta = min_root_modulus_witness(curve, zc)
                grid_min, _ = charge_grid_scan(curve, zc, 25, 25)
                assert msq <= grid_min
                dec = decompose_root(curve, delta)
                if abs(dec.point_coeff) <= 25 and abs(dec.cycle_coeff) <= 25:
                    assert msq == grid_min


class TestMembership:
    def test_reference_is_plus(self):
        for label in ("I_2", "mI_3_2", "III", "IStar_0", "IVStar"):
            curve = curve_from_label(label)
            rep = membership(curve, reference_charge(curve))
            assert rep.in_p0 and rep.independent
            assert rep.component is Component.PLUS
            assert rep.vanishing is None and rep.min_modulus_sq == 1

    def test_conjugate_is_minus(self):
        zc = CentralCharge(QC(-1), tuple(QC(0, -1) for _ in range(2)))
        rep = membership(I2, zc)
        assert rep.in_p0 and rep.component is Component.MINUS

    def test_failure_reports(self):
        rep = membership(I2, charge("-1,0", "1,0", "1,0"))
        assert rep == membership(I2, charge("-1,0", "1,0", "1,0"))
        assert not rep.in_p0 and not rep.independent
        assert rep.component is Component.NOT_IN_P0 and rep.min_modulus_sq is None
        rep = membership(I2, charge("-1,0", "1,-1", "0,2"))
        assert not rep.in_p0 and rep.independent
        assert rep.vanishing == KClass(2, (2, 1))
        assert rep.component is Component.NOT_IN_P0

    def test_wire_format(self):
        rep = membership(I2, reference_charge(I2))
        assert rep.to_dict() == {
            "in_p0": True,
            "independent": True,
            "vanishing": None,
            "component": "plus",
            "min_modulus_sq": "1",
        }

    def test_complex_scaling_invariance(self):
        rng = random.Random(59)
        for _ in range(20):
            zc = random_charge(I2, rng, num=5, den=5)
            lam = random_qc(rng, num=4, den=4)
            if lam.abs2() == 0:
                continue
            before = membership(I2, zc)
            after = membership(I2, scale_charge(zc, lam))
            assert before.component is after.component
            if before.in_p0:
                assert after.min_modulus_sq == before.min_modulus_sq * lam.abs2()

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_positive_rescaling_preserves_report(self, p, q):
        zc = charge("-1,0", "1/3,-1", "0,2")
        lam = QC(Fraction(p, q))
        before = membership(I2, zc)
        after = membership(I2, scale_charge(zc, lam))
        assert before.component is after.component
        assert after.min_modulus_sq == before.min_modulus_sq * lam.abs2()


class TestSupportForm:
    def test_reference_closed_form(self):
        # Q(v) = -2 (r1 - r2)^2 + 2 chi^2 + 2 (r1 + r2)^2 at the reference charge
        form = support_form(I2, reference_charge(I2))
        for chi, r1, r2 in [(1, 0, 0), (0, 1, -1), (0, 1, 1), (2, -3, 5), (1, 1, 0)]:
            expected = -2 * (r1 - r2) ** 2 + 2 * chi**2 + 2 * (r1 + r2) ** 2
            assert form.value(KClass(chi, (r1, r2))) == expected
        assert form.value(KClass(1, (0, 0))) == 2
        assert form.value(KClass(0, (1, -1))) == -8

    def test_matrix_identity_and_symmetry(self):
        rng = random.Random(61)
        for label in ("I_2", "IV", "IStar_0"):
            curve = curve_from_label(label)
            checked = 0
            while checked < 10:
                zc = random_charge(curve, rng, num=4, den=4)
                rep = membership(curve, zc)
                if not rep.in_p0:
                    continue
                checked += 1
                form = support_form(curve, zc)
                assert form.matrix == tuple(zip(*form.matrix))
                for _ in range(10):
                    v = random_class(curve, rng)
                    expected = (
                        pair(curve, v, v)
                        + Fraction(2) / rep.min_modulus_sq * evaluate(curve, zc, v).abs2()
                    )
                    assert form.value(v) == expected

    def test_kernel_certificate(self):
        form = support_form(I2, reference_charge(I2))
        assert len(form.kernel_pivots) == I2.n - 1
        assert all(p > 0 for p in form.kernel_pivots)

    @pytest.mark.parametrize("label", ["IVStar", "IStar_4", "I_8"])
    def test_kernel_pivots_are_those_of_q_on_ker_z(self, label):
        # the certificate is -K^T Q K for the kernel basis K, by a literal sum
        curve = curve_from_label(label)
        dim = curve.n + 1
        rng = random.Random(83)
        checked = 0
        while checked < 3:
            zc = random_charge(curve, rng, num=4, den=4)
            if not membership(curve, zc).in_p0:
                continue
            checked += 1
            form = support_form(curve, zc)
            values = (zc.z0,) + zc.z
            kernel = nullspace([[v.re for v in values], [v.im for v in values]])
            restricted = [
                [
                    sum(u[a] * form.matrix[a][b] * w[b] for a in range(dim) for b in range(dim))
                    for w in kernel
                ]
                for u in kernel
            ]
            assert tuple(psd_pivots([[-x for x in row] for row in restricted])) == (
                form.kernel_pivots
            )

    def test_kernel_pivots_pinned(self):
        zc = charge(
            "3/4,-3/2", "2,-2", "-1/2,0", "-1,-2/3", "0,3/2", "3/2,-4", "-1,1/4", "-2/3,3/4"
        )
        form = support_form(curve_from_label("IVStar"), zc)
        assert form.kernel_pivots == (
            Fraction(3, 2),
            Fraction(44, 9),
            Fraction(113, 88),
            Fraction(165, 113),
            Fraction(1303, 440),
            Fraction(14641, 7818),
        )

    def test_zero_on_extremal_root(self):
        zc = charge("-1,0", "1/3,-1", "0,2")
        _, delta = min_root_modulus_witness(I2, zc)
        assert support_form(I2, zc).value(delta) == 0

    def test_nonnegative_on_grid_roots(self):
        zc = charge("-1,0", "1/3,-1", "0,2")
        form = support_form(I2, zc)
        rad = radical_basis(I2)
        from kodlat import fundamental_roots

        for w0 in fundamental_roots(I2):
            for c in range(-6, 7):
                for m in range(-6, 7):
                    delta = rad.skyscraper.scale(c) + w0 + rad.cycle.scale(m)
                    assert form.value(delta) >= 0

    def test_invalid_charges_refused(self):
        with pytest.raises(NotInP0):
            support_form(I2, charge("-1,0", "1,-1", "0,2"))
        with pytest.raises(NotInP0):
            support_form(I2, charge("-1,0", "1,0", "1,0"))


class TestStabilityFunction:
    def test_reference_qualifies(self):
        assert is_stability_function(I2, reference_charge(I2))

    def test_shape_requirements(self):
        assert is_stability_function(I2, charge("-1,0", "5,1/3", "-2,7"))
        assert not is_stability_function(I2, charge("-1,0", "1,0", "0,2"))
        assert not is_stability_function(I2, charge("1,0", "0,1", "0,1"))
        assert not is_stability_function(I2, charge("-1,1", "0,1", "0,1"))
