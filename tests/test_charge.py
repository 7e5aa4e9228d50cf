"""Charge validity: independence, vanishing roots, minimal modulus, support form."""

import random
import sys
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
    fundamental_roots,
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
from kodlat import charge as charge_module
from kodlat.roots import positive_roots
from oracles import (
    charge_grid_scan,
    cramer_kernel_pivots,
    determinant,
    full_root_scan,
    nullspace,
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


def _library_cache_clears() -> list:
    """Every module attribute's ``cache_clear`` in the library."""
    import kodlat.cli  # noqa: F401  (imports every module of the library)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kodlat"]
    return [
        obj.cache_clear for mod in modules for obj in vars(mod).values()
        if hasattr(obj, "cache_clear")
    ]


SCAN_CURVES = ("I_2", "IV", "IStar_0", "IVStar", "IStar_8", "IIStar", "I_20")


def _sign_normalized(delta: KClass) -> KClass:
    first = next(r for r in delta.ranks if r)
    return delta if first > 0 else -delta


class TestRootScan:
    """The scan over the ranks <= 0 half, with values from parents, against
    a scan of every fundamental root with exhaustive closest vectors."""

    @pytest.mark.parametrize("label", SCAN_CURVES)
    def test_matches_full_scan(self, label):
        curve = curve_from_label(label)
        rng = random.Random(f"scan:{label}")
        charges = [random_charge(curve, rng) for _ in range(4)]
        charges += [random_charge(curve, rng, num=2, den=2) for _ in range(6)]  # tie-dense
        charges += [vanishing_charge(curve, rng)[0] for _ in range(3)]
        for zc in charges:
            if not radical_independence(curve, zc):
                with pytest.raises(DegenerateRadical):
                    min_root_modulus_witness(curve, zc)
                with pytest.raises(DegenerateRadical):
                    vanishing_root(curve, zc)
                continue
            msq, witness = full_root_scan(curve, zc)
            if msq == 0:
                with pytest.raises(VanishingRoot):
                    min_root_modulus_witness(curve, zc)
                assert vanishing_root(curve, zc) == _sign_normalized(witness)
            else:
                assert min_root_modulus_witness(curve, zc) == (msq, witness)
                assert vanishing_root(curve, zc) is None

    @pytest.mark.parametrize("label", SCAN_CURVES + ("mI_3_2", "IIIStar"))
    def test_table_is_the_negative_half_with_parents(self, label):
        """The scan reads one table: ``fundamental_roots`` is the sorted
        positive roots and their negatives, with the ranks <= 0 half, the
        negated table in reverse order, first."""
        curve = curve_from_label(label)
        pos = [ranks for ranks, _, _ in positive_roots(curve)]
        neg = [tuple(-r for r in ranks) for ranks in pos]
        roots = [w.ranks for w in fundamental_roots(curve)]
        assert roots == sorted(pos + neg)
        assert roots[: len(pos)] == neg[::-1]
        assert all(r <= 0 for ranks in roots[: len(pos)] for r in ranks)

    def test_membership_builds_no_fundamental_roots(self):
        """On a curve with every library cache empty, a membership check
        reads ``positive_roots`` alone and builds no root classes."""
        for clear in _library_cache_clears():
            clear()
        curve = curve_from_label("I_20")
        assert membership(curve, reference_charge(curve)).in_p0
        assert fundamental_roots.cache_info().currsize == 0
        assert positive_roots.cache_info().currsize == 1


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


class TestScanMemo:
    """The last root scan is reused; a reuse must be invisible."""

    def test_interleaved_calls_equal_fresh_ones(self):
        rng = random.Random(97)
        cases = [
            (curve, random_charge(curve, rng, num=4, den=4))
            for curve in (curve_from_label("IV"), curve_from_label("IStar_4"))
            for _ in range(3)
        ]
        cases = [(curve, zc) for curve, zc in cases if membership(curve, zc).in_p0]
        assert len(cases) >= 4
        order = [(k, f) for k in range(len(cases)) for f in (membership, support_form)]
        order += [(k, f) for k in reversed(range(len(cases))) for f in (support_form, membership)]
        interleaved = [f(*cases[k]) for k, f in order]
        fresh = []
        for k, f in order:
            charge_module._root_scan.cache_clear()
            fresh.append(f(*cases[k]))
        assert interleaved == fresh

    def test_value_equal_charges_give_equal_reports(self):
        curve = curve_from_label("IVStar")
        texts = ("3/4,-3/2", "2,-2", "-1/2,0", "-1,-2/3", "0,3/2", "3/2,-4", "-1,1/4", "-2/3,3/4")
        zc = charge(*texts)
        same = CentralCharge(
            QC(Fraction(6, 8), Fraction(-9, 6)), tuple(QC.parse(t) for t in texts[1:])
        )
        assert same == zc and same is not zc
        assert membership(curve, zc) == membership(curve, same)
        assert support_form(curve, zc) == support_form(curve, same)
        charge_module._root_scan.cache_clear()
        assert support_form(curve, same) == support_form(curve, zc)

    def test_same_charge_on_two_curves_is_scanned_on_each(self):
        """IStar_0 and I_5 both have 5 components, so one charge object fits
        either; the memo must not hand one curve's scan to the other."""
        curves = (curve_from_label("IStar_0"), curve_from_label("I_5"))
        rng = random.Random(41)
        charges = [random_charge(curves[0], rng, num=3, den=3) for _ in range(6)]
        charges = [zc for zc in charges if all(membership(c, zc).in_p0 for c in curves)]
        assert len(charges) >= 3
        order = [(zc, c, f) for zc in charges for c in curves for f in (membership, support_form)]
        interleaved = [f(c, zc) for zc, c, f in order]
        fresh = []
        for zc, c, f in order:
            charge_module._root_scan.cache_clear()
            fresh.append(f(c, zc))
        assert interleaved == fresh
        assert any(fresh[4 * k] != fresh[4 * k + 2] for k in range(len(charges)))

    def test_every_cache_clear_takes_no_arguments(self):
        """The benchmark empties the library's caches by calling every module
        attribute's ``cache_clear``; a class with a ``cache_clear`` method
        would raise TypeError there."""
        clears = _library_cache_clears()
        assert charge_module._root_scan.cache_clear in clears
        for clear in clears:
            clear()

    def test_degenerate_still_raises_after_membership(self):
        zc = charge("-1,0", "1,0", "1,0")
        assert not membership(I2, zc).independent
        with pytest.raises(DegenerateRadical):
            vanishing_root(I2, zc)
        with pytest.raises(DegenerateRadical):
            min_root_modulus_witness(I2, zc)

    def test_wrong_dimension_still_raises(self):
        message = "charge has 1 component values, curve I_2 has 2"
        short = charge("-1,0", "0,1")
        for _ in range(2):
            membership(I2, reference_charge(I2))
            for f in (membership, vanishing_root, min_root_modulus_witness, support_form):
                with pytest.raises(DimensionMismatch) as err:
                    f(I2, short)
                assert str(err.value) == message


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
        # the certificate is -K^T Q K for the kernel basis K, by a literal sum;
        # its LDL^T pivots are the ratios of consecutive leading minors
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
            minors = [
                determinant([[-x for x in row[:k]] for row in restricted[:k]])
                for k in range(len(kernel) + 1)
            ]
            assert form.kernel_pivots == tuple(
                minors[k] / minors[k - 1] for k in range(1, len(minors))
            )

    def test_kernel_pivots_match_term_by_term_oracle(self):
        rng = random.Random(101)
        checked = 0
        for label in ("IVStar", "IStar_8", "IIStar", "I_20"):
            curve = curve_from_label(label)
            for _ in range(26):
                zc = random_charge(curve, rng)
                if membership(curve, zc).in_p0:
                    checked += 1
                    assert support_form(curve, zc).kernel_pivots == cramer_kernel_pivots(curve, zc)
        assert checked >= 100

    @pytest.mark.parametrize(
        "label",
        ["I_2", "III", "IV", "I_8", "I_20", "mI_5_2", "IStar_1", "IStar_8", "IVStar",
         "IIIStar", "IIStar"],
    )
    def test_kernel_pivots_for_every_second_pivot_column(self, label):
        # z_1 .. z_{q-1} are small real multiples of z0, so the Cramer kernel's
        # second pivot column is q: the factor of N_F is then the one with q cut
        # out, which fills a column on a cycle and has non-unit row denominators
        curve = curve_from_label(label)
        rng = random.Random(f"forced-q:{label}")
        for q in range(1, curve.n + 1):
            checked = 0
            while checked < 2:
                z0, zq = random_qc(rng), random_qc(rng)
                if z0.re * zq.im == z0.im * zq.re:
                    continue
                lead = [z0.scale(Fraction(1, 97 * j)) for j in range(1, q)]
                rest = [random_qc(rng) for _ in range(curve.n - q)]
                zc = CentralCharge(z0, (*lead, zq, *rest))
                if membership(curve, zc).in_p0:
                    checked += 1
                    assert support_form(curve, zc).kernel_pivots == cramer_kernel_pivots(curve, zc)

    @given(
        st.sampled_from(["I_2", "IV", "IStar_0", "IVStar"]),
        st.integers(0, 10**6),
        st.integers(-60, 60).filter(bool),
        st.integers(1, 60),
    )
    def test_rational_rescaling_keeps_the_form(self, label, seed, p, q):
        # Q = <,> + 2|Z|^2/M^2 and the echelon basis of ker Z are scale-invariant;
        # an integer factor inflates the common factor the certificate divides out
        curve = curve_from_label(label)
        zc = random_charge(curve, random.Random(seed), num=6, den=6)
        if not membership(curve, zc).in_p0:
            return
        assert support_form(curve, scale_charge(zc, QC(Fraction(p, q)))) == support_form(curve, zc)

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

    def test_kernel_pivots_when_first_columns_are_parallel(self):
        # z0 and z_1 are both real, so the second kernel pivot column is z_2
        curve = curve_from_label("I_3")
        zc = charge("-1,0", "1/2,0", "0,1", "1/3,2")
        assert membership(curve, zc).min_modulus_sq == Fraction(1, 4)
        assert support_form(curve, zc).kernel_pivots == (Fraction(2), Fraction(27, 2))

    @pytest.mark.parametrize("ranks", [(1,), (1, 0, 5)])
    def test_value_rejects_wrong_dimension(self, ranks):
        form = support_form(I2, reference_charge(I2))
        with pytest.raises(DimensionMismatch):
            form.value(KClass(0, ranks))

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
