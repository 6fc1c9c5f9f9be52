"""Every definition in ``src`` is used by the program itself: each
top-level function, class and constant, and each method, is referenced in
``src`` somewhere outside its own definition. Code that only the tests
need lives with the tests (``oracles``, ``p32_tables``): the reference
minimum colouring of a ``Graph``, for one. The names in ``KEPT`` are used
only from outside ``src``, each for its reason; the other functions the
benchmark's tracer wraps by name are called in ``src`` as well. A public
constructor stays referenced by its use in ``src`` (``petersen`` builds
its graph with ``Graph.from_edges``). Every module-level import is read by
its module, in ``src`` and in the tests alike. The test helpers
(``oracles``, ``p32_tables``) are held to the same rule among the tests:
each of their definitions is read by some test module, so code moved out
of ``src`` cannot rot there unread."""

import ast
from pathlib import Path

import signedpetersen

SRC = Path(signedpetersen.__file__).parent
TESTS = Path(__file__).parent
HELPERS = ("oracles.py", "p32_tables.py")

KEPT = {
    "is_balanced": "the benchmark's tracer wraps it by name "
                   "(signed.is_balanced); public API: balance as a yes or no",
    "is_clusterable": "the benchmark's tracer wraps it by name "
                      "(clustering.is_clusterable); public API: "
                      "clusterability as a yes or no",
    "EXPECTED_ROWS": "the benchmark checks each table's output against it",
    "switch": "public API: switching a vertex set, the paper's basic "
              "operation",
    "parse_signed_graph": "public API: the edge-list format from text, as "
                          "load_signed_graph reads it from a file",
}


def definitions(tree):
    """(name, node, is_method) for each top-level function, class and
    constant, and each method of a top-level class but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("__"):
                    yield item.name, item, True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "__all__":
                    yield t.id, node, False


def references(tree):
    """(name, node, is_plain_name) for each node of tree that may refer to
    a definition: an attribute read, a string (as in ``__all__``), or a
    plain name read, which cannot refer to a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node, False
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node, True


def unreferenced(src=SRC, defining=None, hooks=()):
    """Each definition in src (only in the files named in defining, when
    given) that is referenced nowhere in src outside its own definition,
    as "file: name". A method also counts as referenced when one of the
    files in hooks reads its name as an attribute: it overrides a hook that
    those files call."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    refs = {}
    for tree in trees.values():
        for name, node, plain in references(tree):
            refs.setdefault(name, []).append((id(node), plain))
    hooked = {name for p in hooks
              for name, _, plain in references(ast.parse(p.read_text()))
              if not plain}
    for path, tree in trees.items():
        if defining is not None and path.name not in defining:
            continue
        for name, node, is_method in definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not (is_method and name in hooked) and not any(
                    ref not in own and not (is_method and plain)
                    for ref, plain in refs.get(name, ())):
                yield f"{path.name}: {name}"


def unused_imports(src=SRC):
    """Each name that a module-level import in the modules of the directory
    src binds (``__future__`` aside) and its module never reads, as "file:
    name". A plain name read
    counts, and so does a string equal to the name, as in ``__all__``."""
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        yield f"{path.name}: {name}"


def test_every_src_definition_is_referenced_in_src():
    found = set(unreferenced())
    kept = {f for f in found if f.split(": ")[1] in KEPT}
    assert found - kept == set()
    # every kept name is still defined and still otherwise unused
    assert {k.split(": ")[1] for k in kept} == set(KEPT)


def test_the_guard_sees_a_helper_that_only_tests_call(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "graphs.py", "a") as fh:
        fh.write("\n\ndef _helper(g):\n    return _helper\n\n"
                 "class _Box:\n    def unused(self):\n        pass\n")
    assert set(unreferenced(tmp_path)) >= {
        "graphs.py: _helper", "graphs.py: _Box", "graphs.py: unused"}


def test_every_test_helper_is_read_by_the_tests():
    # a method that overrides a hook the program calls, such as
    # CayleyGroup._check, counts as read
    assert list(unreferenced(TESTS, HELPERS, SRC.glob("*.py"))) == []


def test_the_guard_sees_a_test_helper_that_no_test_reads(tmp_path):
    for path in TESTS.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "oracles.py", "a") as fh:
        fh.write("\n\ndef _orphan(g):\n    return _orphan\n\n"
                 "class _Box:\n    def _check(self):\n        pass\n\n"
                 "    def unused(self):\n        pass\n")
    assert set(unreferenced(tmp_path, HELPERS, SRC.glob("*.py"))) == {
        "oracles.py: _orphan", "oracles.py: _Box", "oracles.py: unused"}


def test_every_src_import_is_read():
    assert list(unused_imports()) == []


def test_every_test_import_is_read():
    assert list(unused_imports(TESTS)) == []


def test_the_guard_sees_an_import_left_behind(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "signed.py", "a") as fh:
        fh.write("\nimport os.path\nfrom .graphs import cut_space as cs\n")
    assert set(unused_imports(tmp_path)) == {"signed.py: os",
                                             "signed.py: cs"}


def test_the_guard_sees_an_import_left_behind_in_the_tests(tmp_path):
    for path in TESTS.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "conftest.py", "a") as fh:
        fh.write("\nimport itertools\nfrom oracles import pullback as pb\n")
    assert set(unused_imports(tmp_path)) == {"conftest.py: itertools",
                                             "conftest.py: pb"}
