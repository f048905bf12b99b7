"""Every mutant of ``tests/mutants.py`` still edits one place of the
package and names the one test that kills it, which exists; the mutation run itself is
``python tests/mutants.py``, outside the test suite."""

from mutants import MUTANTS, PACKAGE, ROOT


def test_every_mutant_edits_exactly_one_place():
    for path, old, new, tests in MUTANTS:
        assert old != new and len(tests) == 1, (path, old)
        assert (PACKAGE / path).read_text().count(old) == 1, (path, old)
        for test in tests:
            module, name = test.split("::")
            assert "def %s(" % name in (ROOT / module).read_text(), test
