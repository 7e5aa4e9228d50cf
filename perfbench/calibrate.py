"""Cross-check the benchmark's inputs against the re-anchor figures in ROADMAP.md.

    python3 perfbench/calibrate.py [--seed 1] [--charges 5]

Times ``membership`` per call on the ROADMAP's curves, with two kinds of
charge: the general charges of ``certify_large`` (z0 free, numerators and
denominators up to 12) and normalized ones like the tests' rejection sampler
(z0 = -1, parts in [-6, 6] with denominator 100, no rejection).  Also times
one reduction step on IV with the walks of ``reduce_walk``.  Prints one JSON
object with the medians next to the ROADMAP figures.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from fractions import Fraction

from run import load_library

REANCHOR_MEMBERSHIP_MS = {"I_2": 2.7, "IV": 4.9, "IStar_0": 24, "IVStar": 94,
                          "IIIStar": 124, "IIStar": 303, "I_20": 399}
REANCHOR_US_PER_STEP_IV = 131


def normalized_charge(rng, curve):
    z = [(Fraction(rng.randint(-600, 600), 100), Fraction(rng.randint(-600, 600), 100))
         for _ in range(curve.obj.n)]
    return (Fraction(-1), Fraction(0)), z


def _ms(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--charges", type=int, default=5)
    args = parser.parse_args()
    workloads = load_library().workloads
    from kodlat import chamber, charge

    rng = random.Random(f"calibrate:{args.seed}")
    out = {"membership_ms": {}}
    for label, reference in REANCHOR_MEMBERSHIP_MS.items():
        curve = workloads.Curve.build(label)
        row = {"roadmap": reference}
        for kind, make in (("general", workloads.valid_charge), ("normalized", normalized_charge)):
            times = []
            for _ in range(args.charges):
                zc = workloads._to_charge(*make(rng, curve))
                times.append(_ms(charge.membership, curve.obj, zc))
            row[kind] = statistics.median(times)
        out["membership_ms"][label] = row

    curve = workloads.Curve.build("IV")
    per_step = []
    for _ in range(args.charges):
        z0, z, length = workloads.walk_charge(rng, curve, 480)
        zc = workloads._to_charge(z0, z)
        walk = _ms(chamber.reduce_to_fundamental, curve.obj, zc)
        prefix = _ms(charge.membership, curve.obj, zc)
        per_step.append((walk - prefix) * 1e3 / length)
    out["us_per_step_IV"] = {"roadmap": REANCHOR_US_PER_STEP_IV, "measured": statistics.median(per_step)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
