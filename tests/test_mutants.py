"""The committed mutants of ``mutants.py`` still apply to the source."""

import time

from mutants import MUTANTS, ROOT, Mutant, failing_tests


def test_each_mutant_source_occurs_once_under_src():
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for mutant in MUTANTS:
        assert sources[ROOT / mutant.file].count(mutant.source) == 1, mutant.name
        assert sum(text.count(mutant.source) for text in sources.values()) == 1, mutant.name


def test_a_run_past_the_time_limit_is_stopped():
    # a hang is a detected change: the run is stopped and reports None
    hang = Mutant(
        "a dimension check that sleeps",
        "src/kodlat/kgroup.py",
        "if len(entries) != curve.n:",
        "if __import__('time').sleep(600) or len(entries) != curve.n:",
        ("tests/test_kgroup.py::TestPairing::test_dimension_mismatch",),
    )
    start = time.perf_counter()
    assert failing_tests(hang, timeout=3) is None
    assert time.perf_counter() - start < 60
