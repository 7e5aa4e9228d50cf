"""Byte-identity pins: one SHA-256 per library function over a seeded corpus.

Each digest covers the canonical JSON of every output in the corpus, and of
every error as its code and message (with the partial trace, for a capped
walk).  A change that alters any witness, word, charge or message changes a
digest; such a change must say which output moved and why, and re-pin.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

from kodlat import (
    QC,
    CentralCharge,
    KodlatError,
    TwistGenerator,
    TwistWord,
    apply_word,
    curve_from_label,
    dual_reflect_charge,
    membership,
    min_root_modulus_witness,
    radical_basis,
    reduce_to_fundamental,
    support_form,
)
from oracles import (
    random_charge,
    random_class,
    random_normalized_plus_charge,
    random_qc,
    vanishing_charge,
)

CURVES = ("I_2", "I_3", "I_5", "mI_2_3", "III", "IV", "IStar_0", "IStar_2", "IVStar")

PINNED = {
    "membership": "aacd07bce8f24baf199730db4193e2e35ebc000c6e160bad937c292ced971e7a",
    "min_root_modulus_witness": "93120b830527f2ff1b7f89bd9e23682ddd9f544c76773603db129a5cac557d5a",
    "apply_word_class": "754cfaa362224f57ce748b3f5f86bcf37b462beb7ea6c3423ddd3810e663fc46",
    "apply_word_charge": "a20fa96a480f03815878772908def4549cc665684c2029104fbbd6471bf47588",
    "dual_reflect_charge": "174aad6875022bca6873eabba7329d2b796e8814d740f99eeb57d5bdeebd1ab3",
    "reduce_to_fundamental": "2c606967731599667224152fec35367657eac081eb37b3153b2ea22fa707643c",
    "reduce_to_fundamental_max_steps_1": "be2c480bafea2aecde962edef6fbd35bf7e337f8741188300399bdf2cb7609f1",
    "support_form": "971619d5af834004f5a488d9e5f217e9c65d86251fec16583c81cfc6f4da4032",
}


# the large curves, on the functions whose work grows with the root system
LARGE_CURVES = ("IStar_8", "IIStar", "I_20")

PINNED_LARGE = {
    "membership": "78b03d98baa868c0fba93034a75db0265c08189cba872774f1e299ea8ec49d5d",
    "min_root_modulus_witness": "cbbdfaba502d855fdac3dc474d4d35839ecd2a45b8c6f1c48ebce82d8bc61daf",
    "support_form": "398d4ba425a85b8c1c16a06a372498bc36871d3e3b54ffbc8a5f98639466078c",
}


def _degenerate_charge(curve, rng) -> CentralCharge:
    """A charge whose cycle value is a real multiple of z0."""
    zc = random_charge(curve, rng)
    cycle = radical_basis(curve).cycle.ranks
    j = max(t for t, c in enumerate(cycle) if c)
    target = zc.z0.scale(rng.randint(-3, 3))
    for t, c in enumerate(cycle):
        if t != j and c:
            target = target - zc.z[t].scale(c)
    z = list(zc.z)
    z[j] = target / cycle[j]
    return CentralCharge(zc.z0, tuple(z))


def _charges(curve, rng, random_, plus, vanishing, degenerate) -> list[CentralCharge]:
    """Random charges, rotated and scaled plus-component charges, vanishing
    charges and charges with a degenerate radical, in that order."""
    charges = [random_charge(curve, rng) for _ in range(random_)]
    for _ in range(plus):
        zc = random_normalized_plus_charge(curve, rng, num=4, den=12)
        w = random_qc(rng, 5, 5) or QC(1)
        charges.append(CentralCharge(zc.z0 * w, tuple(v * w for v in zc.z)))
    charges += [vanishing_charge(curve, rng)[0] for _ in range(vanishing)]
    charges += [_degenerate_charge(curve, rng) for _ in range(degenerate)]
    return charges


def _corpus():
    """(curve, charge, class, word, generator) for 34 charges per curve:
    16 random, 12 rotated and scaled plus-component charges, 4 vanishing
    and 2 with a degenerate radical."""
    rng = random.Random(20231)
    items = []
    for label in CURVES:
        curve = curve_from_label(label)
        for zc in _charges(curve, rng, 16, 12, 4, 2):
            word = TwistWord(tuple(
                TwistGenerator(rng.randint(1, curve.n), rng.randint(-4, 4))
                for _ in range(rng.randint(0, 5))
            ))
            gen = TwistGenerator(rng.randint(1, curve.n), rng.randint(-4, 4))
            items.append((curve, zc, random_class(curve, rng), word, gen))
    return items


def _outcome(thunk):
    try:
        return thunk()
    except KodlatError as exc:
        out = {"code": exc.code, "message": str(exc)}
        if getattr(exc, "trace", None) is not None:
            out["trace"] = exc.trace.to_dict()
        return out


def _witness(curve, zc):
    msq, witness = min_root_modulus_witness(curve, zc)
    return [str(msq), witness.to_dict()]


def _support(curve, zc):
    form = support_form(curve, zc)
    return [form.to_dict(), [str(p) for p in form.kernel_pivots]]


FUNCTIONS = {
    "membership": lambda c, zc, v, w, g: membership(c, zc).to_dict(),
    "min_root_modulus_witness": lambda c, zc, v, w, g: _witness(c, zc),
    "apply_word_class": lambda c, zc, v, w, g: apply_word(c, w, v).to_dict(),
    "apply_word_charge": lambda c, zc, v, w, g: apply_word(c, w, zc).to_dict(),
    "dual_reflect_charge": lambda c, zc, v, w, g: dual_reflect_charge(c, g.i, g.k, zc).to_dict(),
    "reduce_to_fundamental": lambda c, zc, v, w, g: reduce_to_fundamental(c, zc).to_dict(),
    "reduce_to_fundamental_max_steps_1": (
        lambda c, zc, v, w, g: reduce_to_fundamental(c, zc, max_steps=1).to_dict()
    ),
    "support_form": lambda c, zc, v, w, g: _support(c, zc),
}


@functools.cache
def _large_corpus():
    """(curve, charge, None, None, None) for 25 charges per curve on the
    large curves: 12 random, 8 rotated and scaled plus-component charges, 3
    vanishing and 2 with a degenerate radical."""
    rng = random.Random(20232)
    return [
        (curve, zc, None, None, None)
        for curve in map(curve_from_label, LARGE_CURVES)
        for zc in _charges(curve, rng, 12, 8, 3, 2)
    ]


def _digests(items, names) -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in names}
    for item in items:
        for name in names:
            out = _outcome(lambda: FUNCTIONS[name](*item))
            hashes[name].update(json.dumps(out, sort_keys=True).encode() + b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


@functools.cache
def digests() -> dict[str, str]:
    return _digests(_corpus(), FUNCTIONS)


@functools.cache
def large_digests() -> dict[str, str]:
    return _digests(_large_corpus(), PINNED_LARGE)


def test_corpus_size():
    items = _corpus()
    assert len(items) >= 300 and len({c.id.label for c, *_ in items}) >= 8


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_digest_pinned(name):
    assert digests()[name] == PINNED[name]


def test_large_corpus_size():
    items = _large_corpus()
    assert len(items) == 75 and {c.id.label for c, *_ in items} == set(LARGE_CURVES)


@pytest.mark.parametrize("name", sorted(PINNED_LARGE))
def test_large_digest_pinned(name):
    assert large_digests()[name] == PINNED_LARGE[name]
