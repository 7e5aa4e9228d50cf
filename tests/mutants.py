"""Committed mutants of the library, each with the tests that must kill it.

Run from the repository root:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 3      # the mutants at these positions

Each entry names a file under ``src``, a piece of its source text, the
replacement and the test ids that must fail once the replacement is in
place.  For each entry the script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, makes that one edit there,
runs the named tests with pytest, and counts the mutant as killed only when
every named test fails.  It prints one line per mutant with its time, and
exits with status 1 when a mutant survives.  ``test_mutants.py`` checks in
the suite that each source text occurs exactly once under ``src``, so a
change that moves such code updates its entry too.  To choose the ids of a
new entry, ``failing_tests(mutant, ["tests"])`` lists every test it fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    source: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids


MUTANTS = (
    Mutant(
        "a root on the real axis counted as negative",
        "src/kodlat/chamber.py",
        "-(s // level) if s <= 0 else (s - 1) // level",
        "-(s // level) if s <= 0 else s // level",
        (
            "tests/test_acceptance.py::test_chamber_reduction",
            "tests/test_chamber.py::TestReduce::test_random_walks",
            "tests/test_chamber.py::TestWalkLength::test_cap_at_the_count[IStar_0]",
            "tests/test_identity.py::test_digest_pinned[reduce_to_fundamental]",
        ),
    ),
    Mutant(
        "the two halves of the walk count swapped",
        "src/kodlat/chamber.py",
        "-(s // level) if s <= 0 else (s - 1) // level",
        "(s - 1) // level if s <= 0 else -(s // level)",
        (
            "tests/test_chamber.py::TestReduce::test_multi_step_pinned",
            "tests/test_chamber.py::TestWalkLength::test_count_matches_the_oracle[I_2]",
            "tests/test_invariants.py::test_walk_length_counts_negative_positive_roots[IV]",
        ),
    ),
    Mutant(
        "degree ties rounded up",
        "src/kodlat/chamber.py",
        "k = -((den - 2 * zs[worst][0]) // (2 * den)) - 1",
        "k = (2 * zs[worst][0] + den) // (2 * den) - 1",
        (
            "tests/test_chamber.py::TestReduce::test_greedy_degree_ties_round_down[1/2-T(1,-1)]",
            "tests/test_chamber.py::TestReduce::test_greedy_degree_ties_round_down[-3/2-T(1,-3)]",
            "tests/test_identity.py::test_digest_pinned[reduce_to_fundamental]",
        ),
    ),
    Mutant(
        "worst ties going to the largest index",
        "src/kodlat/chamber.py",
        "key=lambda idx: (zs[idx][1], idx)",
        "key=lambda idx: (zs[idx][1], -idx)",
        (
            "tests/test_chamber.py::TestReduce::test_multi_step_pinned",
            "tests/test_chamber.py::TestReduce::test_step_cap_carries_partial_trace",
            "tests/test_cli_identity.py::test_cli_digest_pinned[reduce]",
        ),
    ),
    Mutant(
        "normalized pairs not divided by their gcd",
        "src/kodlat/chamber.py",
        "g = math.gcd(a * a + b * b, *(v for pair in nums for v in pair))",
        "g = 1",
        (
            "tests/test_chamber.py::TestNormalize"
            "::test_integer_pairs_are_those_of_the_normalized_values",
        ),
    ),
    Mutant(
        "the dimension check dropped",
        "src/kodlat/kgroup.py",
        "if len(entries) != curve.n:",
        "if False:",
        (
            "tests/test_chamber.py::TestChamberVerdict::test_dimension_checked",
            "tests/test_kgroup.py::TestPairing::test_dimension_mismatch",
            "tests/test_twist.py::TestApplyWord::test_dimension_checked_before_any_generator",
        ),
    ),
    Mutant(
        "a reflection that drops z0's imaginary part",
        "src/kodlat/twist.py",
        "dy = (k + 1) * z0[1] + zs[i - 1][1]",
        "dy = zs[i - 1][1]",
        (
            "tests/test_twist.py::TestDualReflectCharge::test_duality_with_class_action",
            "tests/test_invariants.py::test_twists_preserve_validity_data[IV]",
            "tests/test_identity.py::test_digest_pinned[apply_word_charge]",
        ),
    ),
    Mutant(
        "det instead of det^2 under the kernel pivots",
        "src/kodlat/charge.py",
        "kernel_pivots=tuple(Fraction(d, det * det) for d in pivots)",
        "kernel_pivots=tuple(Fraction(d, det) for d in pivots)",
        (
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_pinned",
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_match_term_by_term_oracle",
            "tests/test_identity.py::test_digest_pinned[support_form]",
        ),
    ),
    Mutant(
        "a later root with an equal distance replaces the best in the scan",
        "src/kodlat/charge.py",
        "if best is None or dist < best:",
        "if best is None or dist <= best:",
        (
            "tests/test_charge.py::TestRootScan::test_matches_full_scan[IStar_0]",
            "tests/test_identity.py::test_digest_pinned[min_root_modulus_witness]",
        ),
    ),
    Mutant(
        "q = 1 in the Cramer kernel",
        "src/kodlat/charge.py",
        "q = next(j for j in range(1, len(zs)) if cross(0, j))",
        "q = 1",
        (
            "tests/test_charge.py::TestSupportForm"
            "::test_kernel_pivots_when_first_columns_are_parallel",
            "tests/test_acceptance.py::test_support_form",
        ),
    ),
    Mutant(
        "mu = floor(<u,v>/|u|^2) in lagrange_reduce",
        "src/kodlat/ratlinalg.py",
        "mu = (2 * (ux * vx + uy * vy) + nu) // (2 * nu)",
        "mu = (ux * vx + uy * vy) // nu",
        (
            "tests/test_exact.py::TestLinalg::test_lagrange_reduction_invariants",
            "tests/test_identity.py::test_digest_pinned[min_root_modulus_witness]",
        ),
    ),
    Mutant(
        "the output's sort_keys dropped",
        "src/kodlat/cli.py",
        "text = json.dumps(payload, sort_keys=True, ensure_ascii=True)",
        "text = json.dumps(payload, ensure_ascii=True)",
        (
            "tests/test_cli_identity.py::test_cli_digest_pinned[check]",
            "tests/test_cli_identity.py::test_cli_digest_pinned[roots]",
        ),
    ),
    Mutant(
        "component index 0 accepted",
        "src/kodlat/kgroup.py",
        "if not 1 <= i <= curve.n:",
        "if not 0 <= i <= curve.n:",
        (
            "tests/test_chamber.py::TestTorsionPair::test_index_checked",
            "tests/test_kgroup.py::TestLineBundles::test_index_out_of_range",
            "tests/test_twist.py::TestReflectClass::test_index_checked",
        ),
    ),
)


def failing_tests(mutant: Mutant, tests=None) -> set[str]:
    """The node ids among ``tests`` (by default the mutant's own) that fail
    or error on a copy of the tree with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="kodlat-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)  # read by the entry-point tests
        target = Path(tmp) / mutant.file
        text = target.read_text()
        assert text.count(mutant.source) == 1, f"{mutant.name}: source not found once"
        target.write_text(text.replace(mutant.source, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *(tests or mutant.tests)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    return {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(a)] for a in argv] if argv else list(MUTANTS)
    survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        missed = set(mutant.tests) - failing_tests(mutant)
        survived += bool(missed)
        status = "SURVIVED" if missed else "killed"
        print(f"{status:8} {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
        for test in sorted(missed):
            print(f"         still passes: {test}")
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
