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
exits with status 1 when a mutant survives.  Each pytest run has a time
limit (``TIMEOUT`` seconds): a run that reaches it is stopped, with every
process it started, and the mutant counts as ``killed (timeout)``, since a
hang is a detected change.  ``test_mutants.py`` checks in
the suite that each source text occurs exactly once under ``src``, so a
change that moves such code updates its entry too.  To choose the ids of a
new entry, ``failing_tests(mutant, ["tests"])`` lists every test it fails.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds per pytest run; an entry's own tests take a few seconds


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
        "a reflection that moves z_i by +2d instead of -2d",
        "src/kodlat/twist.py",
        "zs[i - 1] = (zs[i - 1][0] - 2 * dx, zs[i - 1][1] - 2 * dy)",
        "zs[i - 1] = (zs[i - 1][0] + 2 * dx, zs[i - 1][1] + 2 * dy)",
        (
            "tests/test_twist.py::TestDualReflectCharge::test_duality_with_class_action",
            "tests/test_identity.py::test_digest_pinned[apply_word_charge]",
            "tests/test_identity.py::test_digest_pinned[reduce_to_fundamental]",
        ),
    ),
    Mutant(
        "the pairing's diagonal read as -1",
        "src/kodlat/kgroup.py",
        "- 2 * wr[i])",
        "- wr[i])",
        (
            "tests/test_kgroup.py::TestPairing::test_pinned_values",
            "tests/test_neighbours.py::test_pair_and_reflection_match_the_dense_matrix",
            "tests/test_neighbours.py::test_a_large_cycle_pairs_without_the_matrix",
        ),
    ),
    Mutant(
        "the class reflection's diagonal read as -1",
        "src/kodlat/twist.py",
        "- 2 * v.ranks[i - 1]",
        "- v.ranks[i - 1]",
        (
            "tests/test_twist.py::TestDualReflectCharge::test_duality_with_class_action",
            "tests/test_neighbours.py::test_pair_and_reflection_match_the_dense_matrix",
            "tests/test_identity.py::test_digest_pinned[apply_word_class]",
        ),
    ),
    Mutant(
        "the kernel factor's diagonal 1 instead of 2",
        "src/kodlat/charge.py",
        "diag = [Fraction(2)] * len(free)",
        "diag = [Fraction(1)] * len(free)",
        (
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_pinned",
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_match_term_by_term_oracle",
            "tests/test_identity.py::test_digest_pinned[support_form]",
        ),
    ),
    Mutant(
        "S_aa(k) divided by Delta_k instead of Delta_{k-1}",
        "src/kodlat/charge.py",
        "saa = (d1 * saa + alpha * alpha) // d0",
        "saa = (d1 * saa + alpha * alpha) // d1",
        (
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_pinned",
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_match_term_by_term_oracle",
            "tests/test_identity.py::test_digest_pinned[support_form]",
        ),
    ),
    Mutant(
        "J_0 = -det instead of -det^2",
        "src/kodlat/charge.py",
        "d0, j0 = 1, -det * det",
        "d0, j0 = 1, -det",
        (
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_pinned",
            "tests/test_charge.py::TestSupportForm::test_kernel_pivots_match_term_by_term_oracle",
            "tests/test_identity.py::test_digest_pinned[support_form]",
        ),
    ),
    Mutant(
        "the kernel factor looked up with q = 1",
        "src/kodlat/charge.py",
        "_kernel_factor(curve, q)",
        "_kernel_factor(curve, 1)",
        (  # on I_2, III, I_3 and IV every node's cut gives the same factor
            "tests/test_charge.py::TestSupportForm"
            "::test_kernel_pivots_for_every_second_pivot_column[I_8]",
            "tests/test_charge.py::TestSupportForm"
            "::test_kernel_pivots_for_every_second_pivot_column[IVStar]",
            "tests/test_identity.py::test_digest_pinned[support_form]",
        ),
    ),
    Mutant(
        "the kernel factor's fill dropped",
        "src/kodlat/charge.py",
        "upper[k][l] = upper[k].get(l, 0) - lk * y",
        "if l in upper[k]: upper[k][l] -= lk * y",
        (
            "tests/test_charge.py::TestSupportForm"
            "::test_kernel_pivots_for_every_second_pivot_column[I_8]",
            "tests/test_charge.py::TestSupportForm"
            "::test_kernel_pivots_for_every_second_pivot_column[IIIStar]",
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
        "the scan's targets left in increasing order",
        "src/kodlat/charge.py",
        "fill.reverse()",
        "pass",
        (
            "tests/test_acceptance.py::test_p0_decision_vs_oracle",
            "tests/test_charge.py::TestRootScan::test_matches_full_scan[IV]",
            "tests/test_identity.py::test_digest_pinned[membership]",
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
        "the root table sorted in decreasing order",
        "src/kodlat/roots.py",
        "out.sort()",
        "out.sort(reverse=True)",
        (
            "tests/test_roots.py::TestGenerationByHeight::test_entries_are_parent_plus_e_j[IV]",
            "tests/test_chamber.py::TestWalkLength::test_count_matches_the_oracle[IV]",
            "tests/test_identity.py::test_digest_pinned[membership]",
        ),
    ),
    Mutant(
        "a root's pairings updated with -<e_j, e_t>",
        "src/kodlat/roots.py",
        "pairings.append(curve.add_gram_row(pa.copy(), j))",
        "pairings.append([2 * x - y for x, y in zip(pa, curve.add_gram_row(pa.copy(), j))])",
        (
            "tests/test_acceptance.py::test_root_counts",
            "tests/test_roots.py::test_fundamental_root_counts[IStar_0-24]",
            "tests/test_chamber.py::TestWalkLength::test_count_matches_the_oracle[IStar_0]",
        ),
    ),
    # the next two generate without end on large curves, so only small ones are named
    Mutant(
        "a Gram row added with +2 at its own node",
        "src/kodlat/catalog.py",
        "vec[i] -= 2",
        "vec[i] += 2",
        (
            "tests/test_acceptance.py::test_root_counts",
            "tests/test_roots.py::test_fundamental_root_counts[IStar_0-24]",
        ),
    ),
    Mutant(
        "a + e_j taken whenever <a, e_j> >= 0",
        "src/kodlat/roots.py",
        "if pa[j] == 1:",
        "if pa[j] >= 0:",
        (
            "tests/test_roots.py::test_fundamental_root_counts[I_5-20]",
            "tests/test_roots.py::TestGenerationByHeight"
            "::test_entries_are_parent_plus_e_j[IStar_0]",
            "tests/test_charge.py::TestRootScan::test_matches_full_scan[IStar_0]",
        ),
    ),
    Mutant(
        "a root reached twice kept twice",
        "src/kodlat/roots.py",
        "if b not in seen:",
        "if True:",
        (
            "tests/test_roots.py::test_fundamental_root_counts[I_5-20]",
            "tests/test_roots.py::TestGenerationByHeight::test_entries_are_parent_plus_e_j[IV]",
            "tests/test_chamber.py::TestWalkLength::test_count_matches_the_oracle[IV]",
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
    Mutant(
        "the first node of a cycle made affine",
        "src/kodlat/catalog.py",
        "[(i, (i + 1) % n) for i in range(n)], n - 1",
        "[(i, (i + 1) % n) for i in range(n)], 0",
        (
            "tests/test_catalog.py::test_pinned_small_matrices",
            "tests/test_roots.py::test_pinned_i2_fundamental_roots",
            "tests/test_identity.py::test_digest_pinned[membership]",
            "tests/test_cli_identity.py::test_cli_digest_pinned[roots]",
        ),
    ),
    Mutant(
        "the least N refused",
        "src/kodlat/catalog.py",
        'self.N < least["N"]',
        'self.N <= least["N"]',
        (
            "tests/test_catalog.py::test_least_parameters_accepted[I-2-None]",
            "tests/test_catalog.py::test_least_parameters_accepted[mI-2-2]",
            "tests/test_catalog.py::test_least_parameters_accepted[IStar-0-None]",
            "tests/test_catalog.py::test_pinned_small_matrices",
        ),
    ),
    Mutant(
        "each edge listed at its first node only",
        "src/kodlat/catalog.py",
        "nbrs[j].append(i)",
        "pass",
        (
            "tests/test_catalog.py::test_cartan_facts[I_2]",
            "tests/test_neighbours.py::test_pinned_neighbour_lists",
            "tests/test_cli_identity.py::test_cli_digest_pinned[catalog]",
        ),
    ),
    Mutant(
        "a non-integer curve parameter accepted",
        "src/kodlat/catalog.py",
        "if value is not None and not _is_int(value):",
        "if False:",
        (
            "tests/test_catalog.py::test_non_integer_parameters_rejected[bool-N]",
            "tests/test_catalog.py::test_non_integer_parameters_rejected[float-m]",
        ),
    ),
    Mutant(
        "error codes not set from the class names",
        "src/kodlat/errors.py",
        "cls.code = cls.__name__",
        "pass",
        (
            "tests/test_cli.py::test_error_codes_pinned",
            "tests/test_cli_identity.py::test_cli_digest_pinned[catalog]",
        ),
    ),
    Mutant(
        "the derived adjacency keeps the -2 diagonal",
        "src/kodlat/catalog.py",
        "row[:i] + (0,) + row[i + 1:]",
        "row[:i] + (-2,) + row[i + 1:]",
        (
            "tests/test_catalog.py::test_cartan_facts[I_2]",
            "tests/test_catalog.py::test_cartan_facts[IIStar]",
            "tests/test_cli_identity.py::test_cli_digest_pinned[catalog]",
        ),
    ),
)


def failing_tests(mutant: Mutant, tests=None, timeout: float = TIMEOUT) -> Optional[set[str]]:
    """The node ids among ``tests`` (by default the mutant's own) that fail
    or error on a copy of the tree with the mutant applied, or None when
    the run reaches ``timeout`` seconds and is stopped."""
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
        # a session of its own, so a timeout stops the CLI processes the tests start too
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *(tests or mutant.tests)],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return {
        line.split()[1]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(a)] for a in argv] if argv else list(MUTANTS)
    survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        failed = failing_tests(mutant)
        missed = set() if failed is None else set(mutant.tests) - failed
        survived += bool(missed)
        status = "SURVIVED" if missed else "killed (timeout)" if failed is None else "killed"
        print(f"{status:8} {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
        for test in sorted(missed):
            print(f"         still passes: {test}")
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
