"""Curve catalog: construction, conventions, and Cartan-matrix facts."""

from fractions import Fraction

import pytest

from kodlat import (
    CurveId,
    Family,
    InvalidParams,
    KodairaCurve,
    build_curve,
    curve_from_label,
    list_types,
    parse_curve_id,
)
from kodlat.ratlinalg import psd_pivots

ALL_LABELS = [
    "I_2", "I_3", "I_4", "I_5", "I_6", "I_7", "I_8",
    "mI_2_2", "mI_2_3", "mI_3_2",
    "III", "IV",
    "IStar_0", "IStar_1", "IStar_2", "IStar_3", "IStar_4",
    "IIStar", "IIIStar", "IVStar",
]


def test_list_types_has_eight_families():
    infos = list_types()
    assert len(infos) == 8
    assert {i.family for i in infos} == set(Family)


def test_list_types_pinned():
    assert [(i.family.value, i.parameters, i.constraints) for i in list_types()] == [
        ("I", ("N",), "N >= 2"),
        ("mI", ("N", "m"), "N >= 2, m >= 2"),
        ("III", (), ""),
        ("IV", (), ""),
        ("IStar", ("N",), "N >= 0"),
        ("IIStar", (), ""),
        ("IIIStar", (), ""),
        ("IVStar", (), ""),
    ]


@pytest.mark.parametrize(
    "family, N, m",
    [
        (Family.I, 2, None),
        (Family.MI, 2, 2),
        (Family.III, None, None),
        (Family.IV, None, None),
        (Family.ISTAR, 0, None),
        (Family.IISTAR, None, None),
        (Family.IIISTAR, None, None),
        (Family.IVSTAR, None, None),
    ],
)
def test_least_parameters_accepted(family, N, m):
    assert CurveId(family, N, m).N == N


@pytest.mark.parametrize(
    "family, N, m, message",
    [
        (Family.I, 1, None, "I requires N >= 2, got N=1"),
        (Family.I, None, None, "I requires N >= 2, got N=None"),
        (Family.I, 2, 2, "I takes no multiplicity parameter"),
        (Family.MI, 1, 2, "mI requires N >= 2, got N=1"),
        (Family.MI, 2, 1, "mI requires multiplicity m >= 2, got m=1"),
        (Family.MI, 2, None, "mI requires multiplicity m >= 2, got m=None"),
        (Family.III, 2, None, "III takes no N parameter"),
        (Family.III, None, 2, "III takes no multiplicity parameter"),
        (Family.IV, 3, None, "IV takes no N parameter"),
        (Family.IV, None, 2, "IV takes no multiplicity parameter"),
        (Family.ISTAR, -1, None, "IStar requires N >= 0, got N=-1"),
        (Family.ISTAR, None, None, "IStar requires N >= 0, got N=None"),
        (Family.ISTAR, 0, 2, "IStar takes no multiplicity parameter"),
        (Family.IISTAR, 0, None, "IIStar takes no N parameter"),
        (Family.IISTAR, None, 2, "IIStar takes no multiplicity parameter"),
        (Family.IIISTAR, 0, None, "IIIStar takes no N parameter"),
        (Family.IIISTAR, None, 2, "IIIStar takes no multiplicity parameter"),
        (Family.IVSTAR, 0, None, "IVStar takes no N parameter"),
        (Family.IVSTAR, None, 2, "IVStar takes no multiplicity parameter"),
    ],
)
def test_invalid_params_message(family, N, m, message):
    with pytest.raises(InvalidParams) as info:
        CurveId(family, N, m)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "family, N, m, message",
    [
        (Family.ISTAR, True, None, "curve parameters must be integers, got True"),
        (Family.MI, 2, 2.5, "curve parameters must be integers, got 2.5"),
        (Family.I, 2.5, None, "curve parameters must be integers, got 2.5"),
    ],
    ids=["bool-N", "float-m", "float-N"],
)
def test_non_integer_parameters_rejected(family, N, m, message):
    """Booleans count as not integers, and a float is not compared with N's least value."""
    with pytest.raises(InvalidParams) as info:
        CurveId(family, N, m)
    assert str(info.value) == message


def test_parse_labels():
    assert parse_curve_id("I_2") == CurveId(Family.I, 2)
    assert parse_curve_id("I:2") == CurveId(Family.I, 2)
    assert parse_curve_id("mI:2:3") == CurveId(Family.MI, 2, 3)
    assert parse_curve_id("mI_2_3") == CurveId(Family.MI, 2, 3)
    assert parse_curve_id("IStar_0") == CurveId(Family.ISTAR, 0)
    assert parse_curve_id("IV") == CurveId(Family.IV)


@pytest.mark.parametrize(
    "bad", ["I_1", "I_0", "I", "II", "mI_2", "mI_2_1", "IStar", "IV_3", "X_2", "I_2_2"]
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(InvalidParams):
        curve_from_label(bad)


def test_pinned_small_matrices():
    i2 = curve_from_label("I_2")
    assert i2.gram == ((-2, 2), (2, -2))
    assert i2.affine_node == 1

    iii = curve_from_label("III")
    assert iii.gram == i2.gram
    assert iii.adjacency[0][1] == 2
    assert iii.id != i2.id  # same matrix, different family metadata

    iv = curve_from_label("IV")
    assert iv.gram == ((-2, 1, 1), (1, -2, 1), (1, 1, -2))

    istar0 = curve_from_label("IStar_0")
    assert istar0.n == 5
    assert istar0.marks == (1, 1, 1, 1, 2)
    assert istar0.gram[4] == (1, 1, 1, 1, -2)


@pytest.mark.parametrize("label, cycle", [("III", "I_2"), ("IV", "I_3")])
def test_iii_and_iv_share_the_cycle_data(label, cycle):
    curve, same = curve_from_label(label), curve_from_label(cycle)
    assert curve.gram == same.gram
    assert curve.marks == same.marks
    assert curve.affine_node == same.affine_node
    assert curve.adjacency == same.adjacency
    assert curve != same


def test_component_counts():
    assert curve_from_label("I_5").n == 5
    assert curve_from_label("mI_2_3").n == 2
    assert curve_from_label("IStar_3").n == 8
    assert curve_from_label("IIStar").n == 9
    assert curve_from_label("IIIStar").n == 8
    assert curve_from_label("IVStar").n == 7


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_facts(label):
    """Symmetry, -2 diagonal, kernel spanned by the marks, affine balance."""
    curve = curve_from_label(label)
    g = curve.gram
    n = curve.n
    assert len(g) == n and all(len(row) == n for row in g)
    for i in range(n):
        assert g[i][i] == -2
        for j in range(n):
            assert g[i][j] == g[j][i]
            if i != j:
                assert g[i][j] == curve.adjacency[i][j] >= 0
    for i in range(n):
        assert sum(g[i][j] * curve.marks[j] for j in range(n)) == 0
        assert (
            sum(curve.adjacency[i][j] * curve.marks[j] for j in range(n))
            == 2 * curve.marks[i]
        )
    assert curve.marks[curve.affine_node] == 1


@pytest.mark.parametrize("label", ALL_LABELS)
def test_negative_semidefinite_rank(label):
    """-gram is PSD with exactly one zero pivot (kernel of rank one)."""
    curve = curve_from_label(label)
    pivots = psd_pivots([[Fraction(-x) for x in row] for row in curve.gram])
    assert all(p >= 0 for p in pivots)
    assert sum(1 for p in pivots if p == 0) == 1


def test_serialization_round_trip():
    curve = curve_from_label("mI_2_3")
    data = curve.to_dict()
    assert data["family"] == "mI" and data["N"] == 2 and data["m"] == 3
    rebuilt = build_curve(CurveId(Family(data["family"]), data.get("N"), data.get("m")))
    assert rebuilt == curve
    assert "m" not in curve_from_label("I_2").to_dict()


@pytest.mark.parametrize("label", ["I_2", "mI_2_3", "III", "IStar_1", "IVStar"])
def test_equality_and_hash_by_id(label):
    curve = curve_from_label(label)
    bare = KodairaCurve(curve.id, 0, (), (), 0)
    assert bare == curve and hash(bare) == hash(curve)


def test_build_is_cached():
    assert build_curve(CurveId(Family.IV)) is build_curve(CurveId(Family.IV))
