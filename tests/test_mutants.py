"""The rows of tests/mutants.py still name text of the program.

mutants.py asserts the same before it runs; this test fails in tier-1 as
soon as a change orphans a row, so the row is ported with the change.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("file,old,reason", [(f, o, r) for f, o, _, r in MUTANTS],
                         ids=[r for *_, r in MUTANTS])
def test_old_text_occurs_once(file, old, reason):
    assert (ROOT / file).read_text().count(old) == 1
