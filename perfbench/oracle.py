"""Independent exact arithmetic for checking kodlat outputs.

Nothing here calls the library's geometry.  Roots come from a reflection
closure over the curve's Gram matrix, the least root modulus is a
closest-vector search on charges scaled to integers, and walks are replayed
with the reflection formula on integers.  A charge is a pair
``(z0, z)`` of ``(re, im)`` Fraction pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction


def finite_roots(gram, affine: int) -> list[tuple[int, ...]]:
    """All roots with affine coordinate 0, sorted lexicographically.

    Closure of the unit vectors away from the affine node under the simple
    reflections v -> v + <v, e_j> e_j.
    """
    n = len(gram)
    simple = [j for j in range(n) if j != affine]
    seen = set()
    frontier = []
    for j in simple:
        for sign in (1, -1):
            v = tuple(sign if t == j else 0 for t in range(n))
            seen.add(v)
            frontier.append(v)
    while frontier:
        v = frontier.pop()
        for j in simple:
            coeff = sum(gram[j][t] * v[t] for t in range(n))
            if coeff:
                w = list(v)
                w[j] += coeff
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return sorted(seen)


def pairing(gram, u, v) -> int:
    return sum(u[i] * sum(g * x for g, x in zip(gram[i], v)) for i in range(len(u)) if u[i])


def is_positive(v) -> bool:
    return all(x >= 0 for x in v)


def common_denominator(values) -> int:
    d = 1
    for x in values:
        d = d * x.denominator // math.gcd(d, x.denominator)
    return d


def value(z0, z, chi, ranks):
    """Z(chi, ranks) = chi z0 + sum_j ranks_j z_j as an (re, im) pair."""
    re = chi * z0[0] + sum(r * zj[0] for r, zj in zip(ranks, z) if r)
    im = chi * z0[1] + sum(r * zj[1] for r, zj in zip(ranks, z) if r)
    return re, im


def orientation_det(z0, z, marks) -> Fraction:
    """det [[Re z0, Re Z(cycle)], [Im z0, Im Z(cycle)]]; negative on plus."""
    cre, cim = value(z0, z, 0, marks)
    return z0[0] * cim - cre * z0[1]


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _lagrange(u, v):
    """Gauss-Lagrange reduction of an integer basis of a rank-2 lattice."""
    while True:
        if _dot(u, u) > _dot(v, v):
            u, v = v, u
        nu = _dot(u, u)
        mu = (2 * _dot(u, v) + nu) // (2 * nu)
        if mu == 0:
            return u, v
        v = (v[0] - mu * u[0], v[1] - mu * u[1])


def min_root_modulus_sq(z0, z, marks, roots) -> Fraction:
    """min |Z(delta)|^2 over all roots delta = c pt + w0 + m cycle.

    The charge must be radical independent.  Values are scaled to integers
    by a common denominator D.  With a reduced basis (u, v) of the lattice
    spanned by z0 and Z(cycle), the minimizer's v-coordinate lies within 2
    of the rounded real coordinate (the basis angle is at least 60 degrees),
    and for each such coordinate the best u-coordinate is one of the two
    integers around the exact one-dimensional minimizer.  Only one root of
    each +-pair is scanned, since the lattice is symmetric.
    """
    d = common_denominator([z0[0], z0[1]] + [x for zj in z for x in zj])
    zs = [(int(zj[0] * d), int(zj[1] * d)) for zj in z]
    a = (int(z0[0] * d), int(z0[1] * d))
    cyc = (sum(m * x for m, (x, _) in zip(marks, zs)), sum(m * y for m, (_, y) in zip(marks, zs)))
    u, v = _lagrange(a, cyc)
    det = u[0] * v[1] - u[1] * v[0]
    nu = _dot(u, u)
    best = None
    for w in roots:
        if not is_positive(w):
            continue
        t = (sum(r * x for r, (x, _) in zip(w, zs) if r), sum(r * y for r, (_, y) in zip(w, zs) if r))
        # real v-coordinate of -t in the basis (u, v), rounded
        y_num = -(u[0] * t[1] - u[1] * t[0])
        y0 = (2 * y_num + det) // (2 * det) if det > 0 else (2 * -y_num - det) // (-2 * det)
        for y in range(y0 - 2, y0 + 3):
            s = (t[0] + y * v[0], t[1] + y * v[1])
            x_lo = (-_dot(s, u)) // nu
            for x in (x_lo, x_lo + 1):
                p0 = s[0] + x * u[0]
                p1 = s[1] + x * u[1]
                dist = p0 * p0 + p1 * p1
                if best is None or dist < best:
                    best = dist
    return Fraction(best, d * d)


def walk_length(y, marks, roots):
    """Number of reflections the chamber walk of a normalized charge takes.

    ``y`` holds the imaginary parts of the component values.  The walk
    length equals the number of positive real affine roots w0 + m cycle that
    take a negative value on y (each reflection at a negative simple root
    removes exactly one).  Returns None when some root takes the value 0:
    the charge then has a root with zero imaginary part, which is a
    vanishing root when its real part is integral too, and a wall otherwise.
    Runs on integers scaled by the common denominator of ``y``.
    """
    d = common_denominator(y)
    ys = [int(x * d) for x in y]
    level = sum(m * x for m, x in zip(marks, ys))
    total = 0
    for w in roots:
        # Im Z(w0 + m cycle) < 0 exactly for m < t = num / level
        floor_t, rem = divmod(-sum(r * x for r, x in zip(w, ys) if r), level)
        if rem == 0:
            return None
        m_min = 0 if is_positive(w) else 1
        total += max(0, floor_t + 1 - m_min)
    return total


def replay_walk(gram, z, word):
    """Apply the reflections (i, k) of ``word`` to the normalized values z.

    Returns (final values, index of the first step that breaks the greedy
    rule or None).  The greedy rule reflects the component with the most
    negative imaginary part (ties to the smallest index) with k + 1 the
    nearest integer to its real part (ties rounded down).  A normalized
    charge has z0 = -1, so the generator (i, k) moves component j by
    gram[j][i-1] (z_i - (k + 1)).  Runs on integers scaled by the common
    denominator d, which every step preserves.
    """
    d = common_denominator([x for zj in z for x in zj])
    re = [int(zj[0] * d) for zj in z]
    im = [int(zj[1] * d) for zj in z]
    bad_step = None
    for step, (i, k) in enumerate(word):
        col = i - 1
        worst = min(range(len(im)), key=lambda j: (im[j], j))
        # ceil(re/d - 1/2) = nearest integer, ties down
        nearest = -((d - 2 * re[col]) // (2 * d))
        if bad_step is None and (col != worst or im[col] >= 0 or k + 1 != nearest):
            bad_step = step
        dre = re[col] - (k + 1) * d
        dim = im[col]
        for j, row in enumerate(gram):
            g = row[col]
            if g:
                re[j] += g * dre
                im[j] += g * dim
    return [(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im)], bad_step
