"""Exact arithmetic helpers: complex rationals and the small linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kodlat import OutputTooLarge, ParseError, QC, format_rational, parse_rational
from kodlat.exact import clear_denominators, from_scaled
from kodlat.ratlinalg import (
    closest_lattice_point,
    lagrange_reduce,
    ldlt_psd,
    nullspace,
    psd_pivots,
)
from oracles import brute_closest

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestRationals:
    def test_parse_and_format(self):
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("-7") == Fraction(-7)
        assert format_rational(Fraction(2, 6)) == "1/3"
        assert format_rational(Fraction(4, 2)) == "2"
        with pytest.raises(ParseError):
            parse_rational("one")
        with pytest.raises(ParseError):
            parse_rational("1/0")
        assert parse_rational(" -2/4 ") == Fraction(-1, 2)

    @pytest.mark.parametrize("text", ["1e2", "0.5", "1_0", "+1"])
    def test_parse_rejects_forms_outside_grammar(self, text):
        """Only -?digits(/digits)? is read; Fraction's other forms are errors."""
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_format_past_digit_limit_is_output_too_large(self):
        with pytest.raises(OutputTooLarge, match="integer conversion limit"):
            format_rational(Fraction(1, 3 ** 10000))

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5))
    def test_clear_denominators_round_trip(self, parts):
        values = tuple(QC(a, b) for a, b in parts)
        den, pairs = clear_denominators(values)
        assert all(isinstance(x, int) for pair in pairs for x in pair)
        assert all(den % x.denominator == 0 for v in values for x in (v.re, v.im))
        assert from_scaled(den, pairs) == values


class TestQC:
    def test_parse_pair(self):
        v = QC.parse("1/3,-1")
        assert (v.re, v.im) == (Fraction(1, 3), Fraction(-1))
        with pytest.raises(ParseError):
            QC.parse("1/3")

    @given(rationals, rationals, rationals, rationals)
    def test_multiplication_modulus(self, a, b, c, d):
        """|uv|^2 = |u|^2 |v|^2 exactly."""
        u, v = QC(a, b), QC(c, d)
        assert (u * v).abs2() == u.abs2() * v.abs2()

    @given(rationals, rationals)
    def test_inverse(self, a, b):
        u = QC(a, b)
        if u:
            assert u * u.inverse() == QC(1)


class TestLinalg:
    def test_ldlt_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_pivots([[Fraction(-1)]])
        with pytest.raises(ValueError):
            # PSD fails: zero pivot with nonzero column
            psd_pivots([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])

    def test_ldlt_reconstructs(self):
        a = [
            [Fraction(2), Fraction(-2)],
            [Fraction(-2), Fraction(2)],
        ]
        lmat, d = ldlt_psd(a)
        n = len(a)
        for i in range(n):
            for j in range(n):
                s = sum(lmat[i][k] * d[k] * lmat[j][k] for k in range(n))
                assert s == a[i][j]

    def test_nullspace(self):
        basis = nullspace([[Fraction(1), Fraction(1), Fraction(1)]])
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    @given(
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
        st.integers(-20, 20), st.integers(-20, 20),
    )
    def test_closest_point_matches_brute_force(self, a, b, c, d, tx, ty):
        """Exact CVP agrees with a coefficient box scan (targets t/7, scaled by 7)."""
        b1, b2 = (7 * a, 7 * b), (7 * c, 7 * d)
        if a * d - b * c == 0:
            return
        target = (tx, ty)
        u, v, umat = lagrange_reduce(b1, b2)
        dist, (x, y) = closest_lattice_point(u, v, target)
        diff = [x * p + y * q - t for p, q, t in zip(u, v, target)]
        assert sum(e * e for e in diff) == dist
        # the same point in the original basis, through U
        x0, y0 = x * umat[0][0] + y * umat[1][0], x * umat[0][1] + y * umat[1][1]
        assert [x0 * p + y0 * q for p, q in zip(b1, b2)] == [t + e for t, e in zip(target, diff)]
        assert dist == brute_closest(b1, b2, target)

    @given(
        st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
        st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    )
    def test_lagrange_reduction_invariants(self, b1, b2):
        if b1[0] * b2[1] - b1[1] * b2[0] == 0:
            return
        u, v, umat = lagrange_reduce(b1, b2)
        nu = sum(x * x for x in u)
        nv = sum(x * x for x in v)
        uv = sum(x * y for x, y in zip(u, v))
        assert nu <= nv and 2 * abs(uv) <= nu
        assert umat[0][0] * umat[1][1] - umat[0][1] * umat[1][0] in (1, -1)
        for row, c in zip(umat, (u, v)):
            assert tuple(row[0] * p + row[1] * q for p, q in zip(b1, b2)) == c
