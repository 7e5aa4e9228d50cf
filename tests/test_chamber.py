"""Normalization, chamber verdicts, greedy reduction, walls, and JH data."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kodlat import (
    CentralCharge,
    CornerOnPath,
    DegenerateCharge,
    DimensionMismatch,
    EndpointOnWall,
    IndexOutOfRange,
    InvalidParams,
    KClass,
    NormalizedCharge,
    NotGeneral,
    NotPlusComponent,
    Position,
    QC,
    StepLimitExceeded,
    TwistGenerator,
    apply_word,
    curve_from_label,
    cycle_value,
    in_fundamental_chamber,
    jh_of_skyscraper,
    line_bundle_class,
    normalize,
    radical_basis,
    reduce_to_fundamental,
    torsion_pair_data,
    wall_crossings_on_segment,
)
from kodlat.chamber import _normalized_pairs, _walk_length
from kodlat.errors import KodlatError
from kodlat.exact import clear_denominators
from oracles import (
    count_negative_positive_roots,
    qc_normalize,
    random_charge,
    random_fraction,
    random_normalized_plus_charge,
)

I2 = curve_from_label("I_2")
I3 = curve_from_label("I_3")


def ch(z0: str, *zs: str) -> CentralCharge:
    return CentralCharge(QC.parse(z0), tuple(QC.parse(s) for s in zs))


def zn(*zs: str) -> NormalizedCharge:
    return NormalizedCharge(tuple(QC.parse(s) for s in zs))


class TestNormalize:
    def test_examples(self):
        assert normalize(I2, ch("-1,0", "0,1", "0,1")) == zn("0,1", "0,1")
        assert normalize(I2, ch("-2,0", "0,2", "0,2")) == zn("0,1", "0,1")
        assert normalize(I2, ch("0,1", "1,0", "1,0")) == zn("0,1", "0,1")

    def test_zero_point_value_refused(self):
        with pytest.raises(DegenerateCharge):
            normalize(I2, ch("0,0", "0,1", "0,1"))

    def test_round_trip(self):
        znorm = normalize(I2, ch("2,3", "1/3,-1", "0,2"))
        assert normalize(I2, znorm.as_charge()) == znorm
        assert NormalizedCharge.from_dict(znorm.to_dict()) == znorm

    def test_matches_qc_division(self):
        rng = random.Random(29)
        for label in ("I_2", "IV", "IStar_0", "IVStar"):
            curve = curve_from_label(label)
            for _ in range(40):
                zc = random_charge(curve, rng, num=30, den=30)
                if zc.z0:
                    assert normalize(curve, zc).z == qc_normalize(zc)

    def test_integer_pairs_are_those_of_the_normalized_values(self):
        # dividing by the gcd gives the lcm denominator, not just some multiple of it
        rng = random.Random(31)
        for _ in range(100):
            zc = random_charge(I3, rng, num=30, den=30)
            if zc.z0:
                _, pairs = clear_denominators((zc.z0, *zc.z))
                assert _normalized_pairs(pairs) == clear_denominators(qc_normalize(zc))


class TestChamberVerdict:
    def test_reference_inside(self):
        assert in_fundamental_chamber(I2, zn("0,1", "0,1")).position is Position.INSIDE

    def test_pinned_wall(self):
        verdict = in_fundamental_chamber(I2, zn("-1/3,1", "2/3,0"), closed=True)
        assert verdict.position is Position.ON_WALL
        assert verdict.walls == ((2, -1),)

    def test_outside(self):
        verdict = in_fundamental_chamber(I2, zn("1/3,-1", "0,2"))
        assert verdict.position is Position.OUTSIDE

    def test_open_vs_closed_on_wall(self):
        on_wall = zn("0,1", "5/3,0")
        assert in_fundamental_chamber(I2, on_wall).position is Position.OUTSIDE
        verdict = in_fundamental_chamber(I2, on_wall, closed=True)
        assert verdict.position is Position.ON_WALL and verdict.walls == ((2, 0),)

    def test_corner_raises(self):
        with pytest.raises(NotGeneral):
            in_fundamental_chamber(I2, zn("0,1", "1,0"), closed=True)
        with pytest.raises(NotGeneral):
            in_fundamental_chamber(I2, zn("0,1", "-3,0"), closed=True)

    def test_wall_index_bracketing(self):
        for re, k in [("2/3", -1), ("5/3", 0), ("-1/3", -2), ("-7/2", -5), ("7/2", 2)]:
            verdict = in_fundamental_chamber(I2, zn("0,1", f"{re},0"), closed=True)
            assert verdict.walls == ((2, k),)
            assert k + 1 < Fraction(re) < k + 2

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            in_fundamental_chamber(I3, zn("0,1", "0,1"))

    def test_shear_invariance(self):
        # verdicts agree under (re, im) -> (re + b im, d im), d > 0, on every
        # component: such maps fix the real axis pointwise
        rng = random.Random(97)
        for _ in range(40):
            values = []
            for _ in range(I3.n):
                re = random_fraction(rng, 8, 8)
                im = rng.choice([Fraction(0), random_fraction(rng, 8, 8)])
                values.append(QC(re, im))
            base = NormalizedCharge(tuple(values))
            b = random_fraction(rng, 5, 5)
            d = abs(random_fraction(rng, 5, 5)) + 1
            sheared = NormalizedCharge(
                tuple(QC(v.re + b * v.im, d * v.im) for v in base.z)
            )
            for closed in (False, True):
                try:
                    expected = in_fundamental_chamber(I3, base, closed)
                except NotGeneral:
                    with pytest.raises(NotGeneral):
                        in_fundamental_chamber(I3, sheared, closed)
                    continue
                assert in_fundamental_chamber(I3, sheared, closed) == expected


class TestReduce:
    def test_pinned_single_step(self):
        trace = reduce_to_fundamental(I2, ch("-1,0", "1/3,-1", "0,2"))
        assert trace.terminated
        assert trace.word.to_list() == ["T(1,-1)"]
        assert trace.final == zn("-1/3,1", "2/3,0")
        verdict = in_fundamental_chamber(I2, trace.final, closed=True)
        assert verdict.position is Position.ON_WALL and verdict.walls == ((2, -1),)

    def test_already_inside(self):
        trace = reduce_to_fundamental(I2, ch("-1,0", "0,1", "0,1"))
        assert trace.terminated and trace.word.to_list() == [] and trace.steps == ()

    def test_not_plus_refused(self):
        with pytest.raises(NotPlusComponent):
            reduce_to_fundamental(I2, ch("-1,0", "1,-1", "0,1"))
        with pytest.raises(NotPlusComponent):
            reduce_to_fundamental(I2, ch("-1,0", "0,-1", "0,-1"))

    def test_step_cap_carries_partial_trace(self):
        zc = ch("-1,0", "1/5,-1", "1/7,-1", "0,5")
        with pytest.raises(StepLimitExceeded) as exc:
            reduce_to_fundamental(I3, zc, max_steps=1)
        partial = exc.value.trace
        assert not partial.terminated
        assert len(partial.steps) == 1 and partial.word.to_list() == ["T(1,-1)"]

    def test_negative_step_cap_refused_before_any_work(self):
        # refused even where the walk would take no step, or would be refused itself
        for zc in (ch("-1,0", "0,1", "0,1"), ch("-1,0", "1,-1", "0,1")):
            with pytest.raises(InvalidParams, match="max_steps must be >= 0, got -1"):
                reduce_to_fundamental(I2, zc, max_steps=-1)
        assert reduce_to_fundamental(I2, ch("-1,0", "0,1", "0,1"), max_steps=0).terminated

    def test_multi_step_pinned(self):
        trace = reduce_to_fundamental(I3, ch("-1,0", "1/5,-1", "1/7,-1", "0,5"))
        assert trace.terminated
        assert trace.word.to_list() == ["T(1,-1)", "T(2,-1)", "T(1,-1)"]
        assert trace.final == zn("-1/7,1", "-1/5,1", "24/35,1")

    def test_random_walks(self):
        rng = random.Random(101)
        for label in ("I_2", "I_3", "IV"):
            curve = curve_from_label(label)
            for _ in range(12):
                zc = random_normalized_plus_charge(curve, rng, num=4, den=12)
                trace = reduce_to_fundamental(curve, zc)
                assert trace.terminated
                verdict = in_fundamental_chamber(curve, trace.final, closed=True)
                assert verdict.position in (Position.INSIDE, Position.ON_WALL)
                znorm = normalize(curve, zc)
                replay = apply_word(curve, trace.word, znorm.as_charge())
                assert NormalizedCharge(replay.z) == trace.final
                back = apply_word(curve, trace.word.reversed(), replay)
                assert NormalizedCharge(back.z) == znorm
                level = cycle_value(curve, znorm.as_charge()).im
                assert level > 0
                for step in trace.steps:
                    after = cycle_value(curve, step.charge_after.as_charge())
                    assert after.im == level

    @pytest.mark.parametrize(
        "re, word",
        [("1/2", "T(1,-1)"), ("3/2", "T(1,0)"), ("-1/2", "T(1,-2)"), ("-3/2", "T(1,-3)")],
    )
    def test_greedy_degree_ties_round_down(self, re, word):
        """k + 1 is the nearest integer to Re z_i, and a half rounds down."""
        trace = reduce_to_fundamental(I2, ch("-1,0", f"{re},-1", "0,3"))
        assert trace.terminated and trace.word.to_list() == [word]

    def test_trace_serialization(self):
        trace = reduce_to_fundamental(I2, ch("-1,0", "1/3,-1", "0,2"))
        data = trace.to_dict()
        assert data["word"] == ["T(1,-1)"]
        assert data["final"] == {"z": [["-1/3", "1"], ["2/3", "0"]]}
        assert data["terminated"] is True
        assert data["steps"][0]["generator"] == "T(1,-1)"


def rotate(zc: CentralCharge, lam: QC) -> CentralCharge:
    return CentralCharge(zc.z0 * lam, tuple(v * lam for v in zc.z))


def outcome(curve, zc):
    """The trace's JSON form, or the code of the error the walk raised."""
    try:
        return reduce_to_fundamental(curve, zc).to_dict()
    except KodlatError as exc:
        return exc.code


WALK_CURVES = ("I_2", "I_3", "mI_3_2", "III", "IV", "IStar_0", "IStar_2", "IVStar")


class TestWalkLength:
    """The walk's length is counted before it starts, and is its only guard."""

    @pytest.mark.parametrize("label", WALK_CURVES)
    def test_count_matches_the_oracle(self, label):
        curve = curve_from_label(label)
        rng = random.Random(f"count {label}")
        counts = []
        for t in range(30):
            zc = random_normalized_plus_charge(curve, rng, num=4, den=97)
            if t % 5 == 0:  # in the chamber: the count is 0
                zc = CentralCharge(zc.z0, tuple(QC(v.re, abs(v.im) + 1) for v in zc.z))
            lam = QC(random_fraction(rng) or 1, random_fraction(rng) or 1)
            zc = rotate(zc, lam)
            assert zc.z0.re and zc.z0.im
            expected = count_negative_positive_roots(curve, [v.im for v in qc_normalize(zc)])
            if expected is None:  # a root with Im Z = 0; the oracle does not count there
                continue
            _, pairs = clear_denominators((zc.z0, *zc.z))
            counts.append(_walk_length(curve, _normalized_pairs(pairs)[1]))
            assert counts[-1] == expected
        assert len(counts) >= 20 and 0 in counts and max(counts) > 0

    @pytest.mark.parametrize("label", ("I_3", "IV", "IStar_0", "IVStar"))
    def test_cap_at_the_count(self, label):
        curve = curve_from_label(label)
        rng = random.Random(f"cap {label}")
        for _ in range(8):
            zc = random_normalized_plus_charge(curve, rng, num=3, den=97)
            full = reduce_to_fundamental(curve, zc)
            count = len(full.steps)
            if count == 0:
                continue
            assert reduce_to_fundamental(curve, zc, max_steps=count) == full
            with pytest.raises(StepLimitExceeded, match=f"within {count - 1} steps") as exc:
                reduce_to_fundamental(curve, zc, max_steps=count - 1)
            partial = exc.value.trace
            assert not partial.terminated
            assert partial.steps == full.steps[: count - 1]
            assert partial.word.generators == full.word.generators[: count - 1]
            before = full.steps[count - 2].charge_after if count > 1 else normalize(curve, zc)
            assert partial.final == before

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(["I_2", "IV", "IStar_0", "I_8", "IVStar"]),
        st.integers(0, 10**6),
        st.fractions(-9, 9, max_denominator=9),
        st.fractions(-9, 9, max_denominator=9),
    )
    def test_rescaling_keeps_the_trace(self, label, seed, re, im):
        # a nonzero complex factor keeps the component and the normalized values
        assume(re or im)
        curve = curve_from_label(label)
        zc = random_normalized_plus_charge(curve, random.Random(seed), num=3, den=97)
        assert outcome(curve, rotate(zc, QC(re, im))) == outcome(curve, zc)


class TestWallCrossings:
    def test_pinned_single_event(self):
        events = wall_crossings_on_segment(I2, zn("0,1", "0,2"), zn("1,-1", "0,2"))
        assert len(events) == 1
        ev = events[0]
        assert (ev.t, ev.i, ev.k, ev.re_at_wall) == (Fraction(1, 2), 1, -1, Fraction(1, 2))

    def test_pinned_far_wall(self):
        events = wall_crossings_on_segment(I2, zn("0,1", "0,2"), zn("3,-1", "0,2"))
        assert len(events) == 1
        ev = events[0]
        assert (ev.t, ev.i, ev.k, ev.re_at_wall) == (Fraction(1, 2), 1, 0, Fraction(3, 2))

    def test_constant_path_inside(self):
        ref = zn("0,1", "0,1")
        assert wall_crossings_on_segment(I2, ref, ref) == ()

    def test_sorted_by_t_then_i(self):
        events = wall_crossings_on_segment(
            I3, zn("0,1", "0,1", "0,1"), zn("1,-1", "1,-3", "0,1")
        )
        assert [(e.t, e.i) for e in events] == [(Fraction(1, 4), 2), (Fraction(1, 2), 1)]

    def test_endpoint_on_wall_refused(self):
        with pytest.raises(EndpointOnWall):
            wall_crossings_on_segment(I2, zn("1/2,0", "0,1"), zn("0,1", "0,1"))
        with pytest.raises(EndpointOnWall):
            wall_crossings_on_segment(I2, zn("0,1", "0,1"), zn("1/2,0", "0,1"))

    def test_corner_on_path_refused(self):
        with pytest.raises(CornerOnPath):
            wall_crossings_on_segment(I2, zn("0,1", "0,2"), zn("2,-1", "0,2"))

    def test_event_serialization(self):
        (ev,) = wall_crossings_on_segment(I2, zn("0,1", "0,2"), zn("1,-1", "0,2"))
        assert ev.to_dict() == {"t": "1/2", "i": 1, "k": -1, "re_at_wall": "1/2"}

    def test_reflection_reenters_after_crossing(self):
        za, zb = zn("0,1", "0,2"), zn("1,-1", "0,2")
        (ev,) = wall_crossings_on_segment(I2, za, zb)
        t = ev.t + Fraction(1, 100)
        at_t = NormalizedCharge(
            tuple(a.scale(1 - t) + b.scale(t) for a, b in zip(za.z, zb.z))
        )
        assert at_t.z[ev.i - 1].im < 0
        from kodlat import dual_reflect_charge

        back = dual_reflect_charge(I2, ev.i, ev.k, at_t.as_charge())
        assert back.z[ev.i - 1].im > 0


class TestJordanHolder:
    def test_pinned_factors(self):
        assert jh_of_skyscraper(I2, 1, -1) == (KClass(1, (1, 0)), KClass(0, (-1, 0)))
        assert jh_of_skyscraper(I2, 1, 0) == (KClass(2, (1, 0)), KClass(-1, (-1, 0)))

    def test_factors_sum_to_point_class(self):
        for label in ("I_2", "IV", "IIStar"):
            curve = curve_from_label(label)
            ox = radical_basis(curve).skyscraper
            for i in range(1, curve.n + 1):
                for k in range(-3, 3):
                    first, second = jh_of_skyscraper(curve, i, k)
                    assert first + second == ox
                    assert first == line_bundle_class(curve, i, k + 1)

    def test_factors_negative_real_on_wall(self):
        wall_charge = ch("-1,0", "-1/3,1", "2/3,0")
        first, second = jh_of_skyscraper(I2, 2, -1)
        from kodlat import evaluate

        for factor in (first, second):
            value = evaluate(I2, wall_charge, factor)
            assert value.im == 0 and value.re < 0

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            jh_of_skyscraper(I2, 3, 0)


class TestTorsionPair:
    def test_description_record(self):
        data = torsion_pair_data(I2, 1, 0)
        assert data.to_dict() == {
            "i": 1,
            "k": 0,
            "f_generators": {"i": 1, "degrees": "<= 0"},
            "t": "left-orthogonal",
        }
        assert torsion_pair_data(I2, 2, -3).to_dict()["f_generators"]["degrees"] == "<= -3"

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            torsion_pair_data(I2, 0, 0)

    def test_matches_jh_classes(self):
        data = torsion_pair_data(I2, 1, 4)
        first, second = jh_of_skyscraper(I2, data.i, data.k)
        assert first == KClass(6, (1, 0)) and second == KClass(-5, (-1, 0))
