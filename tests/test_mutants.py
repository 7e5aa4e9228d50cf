"""The committed mutants of ``mutants.py`` still apply to the source."""

from mutants import MUTANTS, ROOT


def test_each_mutant_source_occurs_once_under_src():
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for mutant in MUTANTS:
        assert sources[ROOT / mutant.file].count(mutant.source) == 1, mutant.name
        assert sum(text.count(mutant.source) for text in sources.values()) == 1, mutant.name
