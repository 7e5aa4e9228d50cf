"""Independent brute-force oracles and seeded generators for the tests.

Everything here recomputes library quantities by a different route: naive
product scans of rank boxes, integer grid scans over root translates, and
plain quadratic minimization.  All exact; numpy is used only on int64 grids
whose magnitudes are checked against overflow first.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from kodlat import (
    CentralCharge,
    KClass,
    KodairaCurve,
    QC,
    evaluate,
    fundamental_roots,
    pair,
    radical_basis,
)

GRID_GUARD = 3_000_000_000  # squares stay < 2^63 with two-term sums


def naive_box_roots(curve: KodairaCurve, bound: int) -> set[tuple[int, ...]]:
    """Full product scan over the rank box; only viable for small curves."""
    out = set()
    for ranks in itertools.product(range(-bound, bound + 1), repeat=curve.n):
        v = KClass(0, ranks)
        if any(ranks) and pair(curve, v, v) == -2:
            out.add(ranks)
    return out


def coset_box_roots(curve: KodairaCurve, bound: int) -> set[tuple[int, ...]]:
    """All fundamental-root translates w0 + m * cycle inside the box."""
    cycle = radical_basis(curve).cycle.ranks
    out = set()
    for w0 in fundamental_roots(curve):
        spread = max(abs(r) for r in w0.ranks)
        limit = bound + spread  # |w0_j + m c_j| <= bound needs |m| <= bound + spread
        for m in range(-limit, limit + 1):
            ranks = tuple(r + m * c for r, c in zip(w0.ranks, cycle))
            if max(abs(r) for r in ranks) <= bound:
                out.add(ranks)
    return out


def _common_denominator(fracs) -> int:
    d = 1
    for f in fracs:
        d = d * f.denominator // math.gcd(d, f.denominator)
    return d


def charge_grid_scan(
    curve: KodairaCurve, zc: CentralCharge, c_bound: int, m_bound: int
):
    """Exhaustive scan of |Z(delta)|^2 over delta = c ox + w0 + m cycle with
    |c| <= c_bound, |m| <= m_bound.

    Returns (min squared modulus as a Fraction, set of zero locations
    (c, m, w0.ranks)).  Uses an integer grid: all charge values are scaled by
    a common denominator so the scan is exact.
    """
    roots = fundamental_roots(curve)
    values = [evaluate(curve, zc, w0) for w0 in roots]
    zrho = evaluate(curve, zc, radical_basis(curve).cycle)
    fracs = [zc.z0.re, zc.z0.im, zrho.re, zrho.im]
    for v in values:
        fracs += [v.re, v.im]
    den = _common_denominator(fracs)

    def scaled(x: Fraction) -> int:
        return int(x * den)

    a, b = scaled(zc.z0.re), scaled(zc.z0.im)
    p, q = scaled(zrho.re), scaled(zrho.im)
    cs = np.arange(-c_bound, c_bound + 1, dtype=np.int64)[:, None]
    ms = np.arange(-m_bound, m_bound + 1, dtype=np.int64)[None, :]
    guard = (
        (abs(a) + abs(b) + abs(p) + abs(q)) * max(c_bound, m_bound)
        + max(abs(scaled(v.re)) + abs(scaled(v.im)) for v in values)
    )
    assert guard < GRID_GUARD, "grid values too large for int64"
    best = None
    zeros = set()
    for w0, val in zip(roots, values):
        re = cs * a + ms * p + scaled(val.re)
        im = cs * b + ms * q + scaled(val.im)
        sq = re * re + im * im
        local = int(sq.min())
        if best is None or local < best:
            best = local
        if local == 0:
            for ci, mi in zip(*np.nonzero(sq == 0)):
                zeros.add((int(cs[ci, 0]), int(ms[0, mi]), w0.ranks))
    return Fraction(best, den * den), zeros


def brute_closest(b1, b2, target) -> Fraction:
    """Closest-lattice-point distance by an exhaustive coefficient scan.

    The origin is a lattice point, so the minimizer p satisfies |p| <= 2|t|;
    Cramer bounds its coefficients by |p| |b_other| / |det|, which gives a
    finite box that provably contains the minimizer.  Denominators are
    cleared so the scan runs on plain integers.
    """
    den = _common_denominator([Fraction(x) for x in (*b1, *b2, *target)])
    a, b = int(b1[0] * den), int(b1[1] * den)
    c, d = int(b2[0] * den), int(b2[1] * den)
    tx, ty = int(target[0] * den), int(target[1] * den)
    det = a * d - b * c
    assert det != 0
    p_sq = 4 * (tx * tx + ty * ty)
    xmax = math.isqrt(p_sq * (c * c + d * d) // (det * det)) + 2
    ymax = math.isqrt(p_sq * (a * a + b * b) // (det * det)) + 2
    best = None
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            dx = x * a + y * c - tx
            dy = x * b + y * d - ty
            dist = dx * dx + dy * dy
            if best is None or dist < best:
                best = dist
    return Fraction(best, den * den)


def random_fraction(rng: random.Random, num: int = 12, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_qc(rng: random.Random, num: int = 12, den: int = 12) -> QC:
    return QC(random_fraction(rng, num, den), random_fraction(rng, num, den))


def random_charge(
    curve: KodairaCurve, rng: random.Random, num: int = 12, den: int = 12
) -> CentralCharge:
    return CentralCharge(
        random_qc(rng, num, den), tuple(random_qc(rng, num, den) for _ in range(curve.n))
    )


def random_class(curve: KodairaCurve, rng: random.Random, size: int = 9) -> KClass:
    return KClass(
        rng.randint(-size, size),
        tuple(rng.randint(-size, size) for _ in range(curve.n)),
    )


def random_normalized_plus_charge(
    curve: KodairaCurve, rng: random.Random, num: int = 6, den: int = 100
) -> CentralCharge:
    """Rejection-sample a normalized charge on the plus component.

    Denominators stay <= den.  Plus needs Im Z(cycle) > 0 after z0 = -1 and
    no vanishing root; nonzero imaginary parts make vanishing rare, so the
    loop exits quickly.
    """
    from kodlat import Component, membership

    while True:
        z = []
        for _ in range(curve.n):
            re = Fraction(rng.randint(-num * den, num * den), den)
            im = Fraction(rng.randint(-num * den, num * den), den)
            z.append(QC(re, im))
        zc = CentralCharge(QC(-1), tuple(z))
        if membership(curve, zc).component is Component.PLUS:
            return zc


def vanishing_charge(
    curve: KodairaCurve, rng: random.Random
) -> tuple[CentralCharge, KClass]:
    """A radical-independent charge that kills a random small root, plus
    that root."""
    from kodlat import radical_independence

    roots = fundamental_roots(curve)
    rad = radical_basis(curve)
    while True:
        w0 = roots[rng.randrange(len(roots))]
        c = rng.randint(-5, 5)
        m = rng.randint(-5, 5)
        delta = rad.skyscraper.scale(c) + w0 + rad.cycle.scale(m)
        j = next(t for t, r in enumerate(delta.ranks) if r)
        z0 = random_qc(rng)
        z = [random_qc(rng) for _ in range(curve.n)]
        partial = z0.scale(delta.chi)
        for t, r in enumerate(delta.ranks):
            if t != j and r:
                partial = partial + z[t].scale(r)
        z[j] = partial.scale(-1) / Fraction(delta.ranks[j])
        zc = CentralCharge(z0, tuple(z))
        if radical_independence(curve, zc):
            return zc, delta


def precompose_word(curve: KodairaCurve, zc: CentralCharge, generators) -> CentralCharge:
    """The charge Z o s_1 o ... o s_m, evaluated on the lattice basis.

    Each basis class is pushed through the generators (i, k), the last one
    first, by s(v) = v + <v, d> d with d = (k + 1, e_i) and <v, d> read off
    the Gram matrix; Z is then evaluated on the image.
    """
    values = []
    for b in range(curve.n + 1):
        chi, ranks = int(b == 0), [int(b == j + 1) for j in range(curve.n)]
        for i, k in reversed(generators):
            c = sum(r * row[i - 1] for r, row in zip(ranks, curve.gram))
            chi += c * (k + 1)
            ranks[i - 1] += c
        re = chi * zc.z0.re + sum(r * z.re for r, z in zip(ranks, zc.z))
        im = chi * zc.z0.im + sum(r * z.im for r, z in zip(ranks, zc.z))
        values.append(QC(re, im))
    return CentralCharge(values[0], tuple(values[1:]))


def gram_column_combination(curve: KodairaCurve, target) -> list[Fraction] | None:
    """Coefficients a with gram . a = target and a_j0 = 0, or None.

    j0 is a node of mark 1, so gram . a' = target has an integral solution
    a' exactly when this one is integral (a' - a is a multiple of the
    cycle).  Plain Gauss-Jordan elimination over Fraction on the other
    columns, which are independent, augmented by target.
    """
    n = curve.n
    j0 = list(curve.marks).index(1)
    cols = [j for j in range(n) if j != j0]
    rows = [[Fraction(row[j]) for j in cols] + [Fraction(t)] for row, t in zip(curve.gram, target)]
    for r in range(n - 1):
        p = next(q for q in range(r, n) if rows[q][r] != 0)
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][r] for x in rows[r]]
        for q in range(n):
            if q != r and rows[q][r] != 0:
                rows[q] = [x - rows[q][r] * y for x, y in zip(rows[q], rows[r])]
    if rows[n - 1][n - 1] != 0:
        return None
    coeffs = [Fraction(0)] * n
    for r, j in enumerate(cols):
        coeffs[j] = rows[r][n - 1]
    return coeffs


def count_negative_positive_roots(curve: KodairaCurve, y) -> int | None:
    """Number of positive real affine roots beta + m cycle with sum of
    beta_j y_j + m level < 0, where level = sum cycle_j y_j > 0.

    The finite roots beta are those of the diagram with one mark-1 node
    deleted, found by closing its simple roots under simple reflections; a
    positive affine root has m >= 1, or m = 0 and beta positive.  Returns
    None when some root takes the value 0 on y.
    """
    g = math.gcd(*curve.marks)
    cycle = [a // g for a in curve.marks]
    j0 = cycle.index(1)
    level = sum(c * x for c, x in zip(cycle, y))
    assert level > 0
    nodes = [j for j in range(curve.n) if j != j0]
    simple = [tuple(int(j == t) for t in range(curve.n)) for j in nodes]
    finite, frontier = set(simple), list(simple)
    while frontier:
        root = frontier.pop()
        for i in nodes:
            c = sum(r * row[i] for r, row in zip(root, curve.gram))
            image = tuple(r + c * (t == i) for t, r in enumerate(root))
            if c and image not in finite:
                finite.add(image)
                frontier.append(image)
    total = 0
    for beta in finite:
        m_min = 0 if min(beta) >= 0 else 1
        bound = Fraction(-sum(b * x for b, x in zip(beta, y))) / level  # m < bound
        if bound.denominator == 1 and bound >= m_min:
            return None
        total += max(0, math.ceil(bound) - m_min)
    return total
