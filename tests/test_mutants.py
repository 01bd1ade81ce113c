"""The mutation check's list stays in step with the source and the tests.

Running the mutants takes two to three minutes (``python tests/mutants.py``);
this only checks that each one still applies and names tests that exist."""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_once_and_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.path.startswith("src/") and mutant.old != mutant.new
        assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
