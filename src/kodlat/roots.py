"""Root classes of the curve lattice.

The roots are the classes of self-pairing -2.  Every root splits uniquely as

    delta = c * skyscraper + w0 + m * cycle

with w0 a fundamental root: a chi = 0 root whose coordinate at the curve's
affine node vanishes.  The fundamental roots form the finite root system of
the Dynkin diagram obtained by deleting the affine node, and are generated
here by height from the unit classes of the non-affine nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import KodairaCurve
from .errors import NotARoot
from .kgroup import KClass, check_dimension, pair, radical_basis


@dataclass(frozen=True)
class RootDecomposition:
    """delta = point_coeff * skyscraper + fundamental + cycle_coeff * cycle."""

    point_coeff: int
    fundamental: KClass
    cycle_coeff: int


@lru_cache(maxsize=None)
def positive_roots(curve: KodairaCurve) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The positive fundamental roots in increasing lexicographic order, each
    as (ranks, p, j) with ranks = entry p + e_j, and p = -1 for the simple
    root e_j.  A parent is below its child in every rank, so it comes first.

    Every finite diagram in the catalog is simply laced (the double edges
    of I_2, mI_2_m and III touch the affine node), so a + e_j is a root
    exactly when <a, e_j> = 1, and every positive root that is not simple
    is such an a + e_j.  Each root carries its pairings with the unit
    classes, and the list is read while it grows, height by height, then
    sorted once.
    """
    n = curve.n
    simple = [j for j in range(n) if j != curve.affine_node]
    out = [(tuple(int(t == j) for t in range(n)), None, j) for j in simple]
    pairings = [curve.add_gram_row([0] * n, j) for j in simple]  # <entry p, e_t> for every node t
    seen = {ranks for ranks, _, _ in out}
    for p, (a, _, _) in enumerate(out):
        pa = pairings[p]
        for j in simple:
            if pa[j] == 1:
                b = a[:j] + (a[j] + 1,) + a[j + 1 :]
                if b not in seen:
                    seen.add(b)
                    out.append((b, a, j))
                    pairings.append(curve.add_gram_row(pa.copy(), j))
    out.sort()  # the rank vectors are distinct, so no parent is compared
    where = {ranks: k for k, (ranks, _, _) in enumerate(out)}
    return tuple((ranks, where.get(parent, -1), j) for ranks, parent, j in out)


@lru_cache(maxsize=None)
def fundamental_roots(curve: KodairaCurve) -> tuple[KClass, ...]:
    """All fundamental roots in lexicographic order: the negated
    ``positive_roots`` in reverse order, which all sort first, then those."""
    pos = [KClass(0, ranks) for ranks, _, _ in positive_roots(curve)]
    return tuple([-w for w in reversed(pos)] + pos)


def decompose_root(curve: KodairaCurve, delta: KClass) -> RootDecomposition:
    """Split a root along the radical; raises NotARoot when <delta,delta> != -2."""
    check_dimension(curve, delta.ranks)
    if pair(curve, delta, delta) != -2:
        raise NotARoot(f"<v,v> = {pair(curve, delta, delta)}, expected -2")
    m = delta.ranks[curve.affine_node]  # cycle has mark 1 at the affine node
    w0 = KClass(0, tuple(r - m * c for r, c in zip(delta.ranks, curve.marks)))
    return RootDecomposition(point_coeff=delta.chi, fundamental=w0, cycle_coeff=m)


def compose_root(curve: KodairaCurve, dec: RootDecomposition) -> KClass:
    rad = radical_basis(curve)
    return (
        rad.skyscraper.scale(dec.point_coeff)
        + dec.fundamental
        + rad.cycle.scale(dec.cycle_coeff)
    )


def enumerate_roots_in_box(curve: KodairaCurve, bound: int) -> tuple[KClass, ...]:
    """All chi = 0 roots with every |rank| <= bound, lexicographically sorted.

    A chi = 0 root is w0 + m * cycle with w0 fundamental, and its coordinate
    at the affine node is m, so the box holds exactly the translates with
    |m| <= bound that pass the rank filter.
    """
    out = []
    for w0 in fundamental_roots(curve):
        for m in range(-bound, bound + 1):
            ranks = tuple(r + m * c for r, c in zip(w0.ranks, curve.marks))
            if all(abs(r) <= bound for r in ranks):
                out.append(ranks)
    return tuple(KClass(0, v) for v in sorted(out))
