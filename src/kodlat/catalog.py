"""Catalog of reducible Kodaira curve types.

Eight families of reducible degenerate fibers, each a configuration of
projective lines whose dual graph is an affine Dynkin diagram:

    I_N   (N >= 2)  cycle of N lines                      A~_{N-1}
    mI_N  (m,N >= 2) multiple fiber, reduced curve I_N    A~_{N-1}
    III              two lines tangent at one point       A~_1 (double edge)
    IV               three concurrent lines               A~_2
    IStar_N (N >= 0) chain with forks at both ends        D~_{N+4}
    IIStar           nine lines                           E~_8
    IIIStar          eight lines                          E~_7
    IVStar           seven lines                          E~_6

Irreducible fibers (I_0, I_1, II and their multiple versions) are out of
scope.  Each family is described once, as marks, an edge list and an
affine node, and a built curve stores the neighbour lists filled from the
edges; the dense Gram matrix is a view built on first use.  III and IV are
the graphs of I_2 and I_3 and share their lattice data.  Node orderings
are fixed once and for all below; every neighbour list, adjacency, mark
vector and Gram matrix in the library refers to them.  ``marks`` are the
multiplicities of the components in the (reduced) fiber cycle, i.e. the
unique primitive vector spanning the kernel of the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Optional

from .errors import InvalidParams


class Family(str, Enum):
    I = "I"
    III = "III"
    IV = "IV"
    ISTAR = "IStar"
    IISTAR = "IIStar"
    IIISTAR = "IIIStar"
    IVSTAR = "IVStar"
    MI = "mI"


# Each family's parameters with their least values, in catalog order: the
# one source of both CurveId validation and the catalog listing.
_PARAMETERS = {
    Family.I: (("N", 2),),
    Family.MI: (("N", 2), ("m", 2)),
    Family.III: (),
    Family.IV: (),
    Family.ISTAR: (("N", 0),),
    Family.IISTAR: (),
    Family.IIISTAR: (),
    Family.IVSTAR: (),
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class CurveId:
    """A curve family together with its parameters.

    N is the cycle length (I_N, mI_N) or the chain surplus (IStar_N); m is
    the fiber multiplicity and is present exactly for mI_N.
    """

    family: Family
    N: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        for value in (self.N, self.m):
            if value is not None and not _is_int(value):
                raise InvalidParams(f"curve parameters must be integers, got {value!r}")
        fam, least = self.family.value, dict(_PARAMETERS[self.family])
        if "N" not in least and self.N is not None:
            raise InvalidParams(f"{fam} takes no N parameter")
        if "N" in least and (self.N is None or self.N < least["N"]):
            raise InvalidParams(f"{fam} requires N >= {least['N']}, got N={self.N}")
        if "m" not in least and self.m is not None:
            raise InvalidParams(f"{fam} takes no multiplicity parameter")
        if "m" in least and (self.m is None or self.m < least["m"]):
            raise InvalidParams(f"{fam} requires multiplicity m >= {least['m']}, got m={self.m}")

    @property
    def label(self) -> str:
        if self.family is Family.MI:
            return f"mI_{self.N}_{self.m}"
        if self.N is not None:
            return f"{self.family.value}_{self.N}"
        return self.family.value


def parse_curve_id(text: str) -> CurveId:
    """Parse labels like "I_2", "I:2", "IV", "IStar_0", "mI:2:3", "mI_2_3"."""
    raw = text.strip()
    parts = raw.split(":") if ":" in raw else raw.split("_")
    name = parts[0]
    try:
        fam = Family(name)
    except ValueError:
        raise InvalidParams(f"unknown curve family: {name!r}") from None
    params = []
    for p in parts[1:]:
        try:
            params.append(int(p))
        except ValueError:
            raise InvalidParams(f"bad curve parameter {p!r} in {text!r}") from None
    n_param = params[0] if params else None
    m_param = params[1] if len(params) > 1 else None
    if len(params) > 2 or (m_param is not None and fam is not Family.MI):
        raise InvalidParams(f"too many parameters in {text!r}")
    return CurveId(fam, n_param, m_param)


@dataclass(frozen=True)
class KodairaCurve:
    """A built curve type: component count, dual graph and pairing data.

    Built from the family's marks, edges and affine node, it stores the
    dual graph: ``neighbours[i]`` lists the components meeting component i,
    once per intersection point (twice for the double edge of I_2, mI_2_m
    and III).  The pairing is the negated affine Cartan matrix: -2 at a
    node, plus one per listed neighbour.  ``gram`` is that matrix as a view
    built on first use and kept, for the outputs that print it;
    ``adjacency`` is derived from it, with 0 on the diagonal.
    ``affine_node`` is the 0-based index of the distinguished mark-1 node
    whose deletion leaves the finite Dynkin diagram; it is the last node
    for the cycle families and is fixed per star family below.  A built
    curve is a pure function of its id, so curves compare and hash by
    ``id`` alone.
    """

    id: CurveId
    n: int = field(compare=False)
    marks: tuple[int, ...] = field(compare=False)
    neighbours: tuple[tuple[int, ...], ...] = field(compare=False)
    affine_node: int = field(compare=False)

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """``gram[i][j]`` counts the intersection points of components i and j
        off the diagonal and is -2 on it, filled row by row from the lists."""
        return tuple(tuple(self.add_gram_row([0] * self.n, i)) for i in range(self.n))

    def add_gram_row(self, vec: list[int], i: int) -> list[int]:
        """Add Gram row i to ``vec`` in place, and return it: -2 at i, 1 per neighbour."""
        vec[i] -= 2
        for j in self.neighbours[i]:
            vec[j] += 1
        return vec

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``gram`` with its -2 diagonal replaced by 0."""
        return tuple(row[:i] + (0,) + row[i + 1:] for i, row in enumerate(self.gram))

    def to_dict(self) -> dict:
        out: dict = {"family": self.id.family.value}
        if self.id.N is not None:
            out["N"] = self.id.N
        if self.id.m is not None:
            out["m"] = self.id.m
        out["n"] = self.n
        out["marks"] = list(self.marks)
        out["adjacency"] = [list(row) for row in self.adjacency]
        out["gram"] = [list(row) for row in self.gram]
        return out


def _dstar_data(big_n: int) -> tuple[list[int], list[tuple[int, int]], int]:
    # D~_{big_n+4}: four mark-1 leaves, a mark-2 chain of big_n+1 nodes.
    #
    #   0           2
    #    \         /
    #     4 - ... - (n-1)
    #    /         \
    #   1           3
    #
    # Nodes 0,1 attach to chain head 4; nodes 2,3 to the chain tail n-1.
    # For big_n = 0 the chain is the single node 4.  Affine node: 0.
    tail = big_n + 4
    edges = [(0, 4), (1, 4), (2, tail), (3, tail)] + [(c, c + 1) for c in range(4, tail)]
    return [1, 1, 1, 1] + [2] * (big_n + 1), edges, 0


# The three E~ types as (marks, edges, affine node).
_ESTAR_DATA = {
    # E~_8: chain 0..7 with a branch node 8 on node 5.
    #
    #                       8 (3)
    #                       |
    #   0 - 1 - 2 - 3 - 4 - 5 - 6 - 7
    #  (1) (2) (3) (4) (5) (6) (4) (2)
    #
    # Affine node: 0.
    Family.IISTAR: ([1, 2, 3, 4, 5, 6, 4, 2, 3], [(i, i + 1) for i in range(7)] + [(5, 8)], 0),
    # E~_7: chain 0..6 with a branch node 7 on the middle node 3.
    #
    #               7 (2)
    #               |
    #   0 - 1 - 2 - 3 - 4 - 5 - 6
    #  (1) (2) (3) (4) (3) (2) (1)
    #
    # Affine node: 0.
    Family.IIISTAR: ([1, 2, 3, 4, 3, 2, 1, 2], [(i, i + 1) for i in range(6)] + [(3, 7)], 0),
    # E~_6: chain 0..4, branch node 5 on the middle node 2, tip 6 on 5.
    #
    #   0 - 1 - 2 - 3 - 4
    #  (1) (2) (3) (2) (1)
    #           |
    #           5 (2)
    #           |
    #           6 (1)
    #
    # Affine node: 6 (the tip of the short central arm).
    Family.IVSTAR: ([1, 2, 3, 2, 1, 2, 1], [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)], 6),
}


@lru_cache(maxsize=None)
def build_curve(curve_id: CurveId) -> KodairaCurve:
    """Construct the curve data for a validated CurveId."""
    fam = curve_id.family
    if fam in _ESTAR_DATA:
        marks, edges, affine = _ESTAR_DATA[fam]
    elif fam is Family.ISTAR:
        marks, edges, affine = _dstar_data(curve_id.N)
    else:
        # a cycle of n lines, the last one affine; for n = 2 the edges
        # (0, 1) and (1, 0) make the double edge of I_2 and III
        n = {Family.III: 2, Family.IV: 3}.get(fam, curve_id.N)
        marks, edges, affine = [1] * n, [(i, (i + 1) % n) for i in range(n)], n - 1
    nbrs: list[list[int]] = [[] for _ in marks]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    # the marks must span the kernel: gram . marks = 0, affine mark = 1
    assert all(sum(marks[j] for j in nb) == 2 * a for nb, a in zip(nbrs, marks))
    assert marks[affine] == 1
    return KodairaCurve(curve_id, len(marks), tuple(marks), tuple(map(tuple, nbrs)), affine)


def curve_from_label(text: str) -> KodairaCurve:
    return build_curve(parse_curve_id(text))


@dataclass(frozen=True)
class FamilyInfo:
    """Parameter arity of one family, for the catalog listing."""

    family: Family
    parameters: tuple[str, ...]
    constraints: str

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "parameters": list(self.parameters),
            "constraints": self.constraints,
        }


def list_types() -> tuple[FamilyInfo, ...]:
    """The eight reducible families with their parameter arity."""
    return tuple(
        FamilyInfo(
            fam,
            tuple(name for name, _ in params),
            ", ".join(f"{name} >= {least}" for name, least in params),
        )
        for fam, params in _PARAMETERS.items()
    )
