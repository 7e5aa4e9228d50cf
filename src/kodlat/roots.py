"""Root classes of the curve lattice.

The roots are the classes of self-pairing -2.  Every root splits uniquely as

    delta = c * skyscraper + w0 + m * cycle

with w0 a fundamental root: a chi = 0 root whose coordinate at the curve's
affine node vanishes.  The fundamental roots form the finite root system of
the Dynkin diagram obtained by deleting the affine node, and are computed
here by reflection closure from the unit classes of the non-affine nodes.
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
def fundamental_roots(curve: KodairaCurve) -> tuple[KClass, ...]:
    """All fundamental roots, lexicographically sorted by rank vector.

    Closure of the simple roots (unit classes away from the affine node)
    under the simple reflections v -> v + <v, e_j> e_j.  Reflections in
    non-affine nodes never touch the affine coordinate, so the closure stays
    inside the affine-coordinate-zero slice.
    """
    n = curve.n
    affine = curve.affine_node
    simple = [j for j in range(n) if j != affine]
    seen: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []
    for j in simple:
        for sign in (1, -1):
            v = tuple(sign if t == j else 0 for t in range(n))
            seen.add(v)
            frontier.append(v)
    while frontier:
        v = frontier.pop()
        for j in simple:
            coeff = sum(curve.gram[j][t] * v[t] for t in range(n))
            if coeff == 0:
                continue
            w = list(v)
            w[j] += coeff
            wt = tuple(w)
            if wt not in seen:
                seen.add(wt)
                frontier.append(wt)
    return tuple(KClass(0, v) for v in sorted(seen))


def decompose_root(curve: KodairaCurve, delta: KClass) -> RootDecomposition:
    """Split a root along the radical; raises NotARoot when <delta,delta> != -2."""
    check_dimension(curve, delta.ranks)
    if pair(curve, delta, delta) != -2:
        raise NotARoot(f"<v,v> = {pair(curve, delta, delta)}, expected -2")
    rad = radical_basis(curve)
    m = delta.ranks[curve.affine_node]  # cycle has mark 1 at the affine node
    w0 = KClass(0, tuple(r - m * c for r, c in zip(delta.ranks, rad.cycle.ranks)))
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
    cycle = radical_basis(curve).cycle.ranks
    out = []
    for w0 in fundamental_roots(curve):
        for m in range(-bound, bound + 1):
            ranks = tuple(r + m * c for r, c in zip(w0.ranks, cycle))
            if all(abs(r) <= bound for r in ranks):
                out.append(ranks)
    return tuple(KClass(0, v) for v in sorted(out))
