"""The mutant catalogue stays applicable: each entry's old text occurs once, and its mutant compiles.

A refactor that removes or rewrites mutated code must restate the entry in
``tests/mutants.py`` in the same change.  ``python tests/mutants.py`` runs the
catalogue against the whole suite.
"""

from mutants import MUTANTS, ROOT, stale


def test_every_catalogued_mutant_applies_once_and_compiles():
    assert len(set(MUTANTS)) == len(MUTANTS) >= 25
    for mutant in MUTANTS:
        assert stale(mutant) is None, mutant
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        compile(text.replace(mutant.old, mutant.new), mutant.path, "exec")
