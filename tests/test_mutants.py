"""The mutation table of ``tests/mutants.py`` stays true to the code: each
snippet occurs exactly once in its file, and each named test exists."""

import re

import mutants


def test_each_mutant_snippet_occurs_exactly_once():
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        assert m.replacement != m.snippet, m.name
        for node in m.tests:
            path, name = node.split("::")
            text = (mutants.ROOT / path).read_text()
            assert re.search(rf"^def {re.escape(name)}\(", text, re.M), node
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
