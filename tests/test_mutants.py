"""The mutation check's list stays in step with the source and the tests.

Running the mutants takes two to three minutes (``python tests/mutants.py``);
this checks that each one still applies and names tests that exist, and
that the runner counts a mutant that breaks the import as killed."""

from mutants import MUTANTS, ROOT, Mutant, run_tests


def test_every_mutant_applies_once_and_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.path.startswith("src/") and mutant.old != mutant.new
        assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node


def test_a_mutant_that_breaks_the_import_is_killed():
    # the selection passes on the unmutated copy and fails, exit 1, when
    # the package cannot be imported, instead of aborting the check
    broken = Mutant("import-broken", "src/desopacity/weak.py", "import math\n", "import math_nonexistent\n", ())
    fast = ("tests/test_mutants.py::test_every_mutant_applies_once_and_names_existing_tests",)
    assert run_tests(None, fast) == 0
    assert run_tests(broken, fast) == 1
