"""The record classes: equality, hash and repr by field values, fields that
cannot be assigned or deleted, the validation of graphs and signed graphs,
and a package import that leaves ``dataclasses`` and ``inspect`` unloaded.
A switching permutation is not a record but the (switch_mask, perm) tuple
with its fields named: it shares the records' equality, hash, repr and
immutability by fields, is unequal to every record, and equals its plain
pair. The circle and the balance witness of the oracles are records of the
same kind."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedpetersen
from signedpetersen.census import TableArtifact
from signedpetersen.graphs import (Graph, PetersenLabeling, _Record,
                                   automorphism_images, petersen)
from signedpetersen.groups import SwitchingPermutation
from signedpetersen.signed import SignedGraph

from oracles import BalanceResult, Cycle

PATH3 = ((0, 1), (1, 2))


@pytest.fixture(scope="module")
def cases():
    """Per record class: a record, a second one built from equal fields,
    and one that differs from the first in one field."""
    g = Graph(3, PATH3)
    return {
        Graph: (g, Graph(3, PATH3), Graph(4, PATH3)),
        PetersenLabeling: (PetersenLabeling(), PetersenLabeling(),
                           PetersenLabeling(tuple(reversed(petersen()[1].pair_of)))),
        Cycle: (Cycle((0, 1, 2), 7), Cycle((0, 1, 2), 7), Cycle((0, 2, 1), 7)),
        SignedGraph: (SignedGraph(g, 1), SignedGraph(Graph(3, PATH3), 1),
                      SignedGraph(g, 2)),
        BalanceResult: (BalanceResult(False, None, Cycle((0, 1, 2), 7)),
                        BalanceResult(False, None, Cycle((0, 1, 2), 7)),
                        BalanceResult(False, None, Cycle((0, 1, 3), 7))),
        SwitchingPermutation: (SwitchingPermutation(5, (1, 0, 2)),
                               SwitchingPermutation(5, (1, 0, 2)),
                               SwitchingPermutation(4, (1, 0, 2))),
        TableArtifact: (TableArtifact("T", ("a",), (("r", (1,)),)),
                        TableArtifact("T", ("a",), (("r", (1,)),)),
                        TableArtifact("T", ("a",), (("r", (2,)),))),
    }


RECORD_CLASSES = (Graph, PetersenLabeling, Cycle, SignedGraph, BalanceResult,
                  TableArtifact)
FIELD_CLASSES = RECORD_CLASSES[:5] + (SwitchingPermutation,) + \
    RECORD_CLASSES[5:]
field_ids = pytest.mark.parametrize("cls", FIELD_CLASSES,
                                    ids=[c.__name__ for c in FIELD_CLASSES])


def fields(record):
    return tuple(getattr(record, f) for f in record._fields)


@field_ids
def test_equal_fields_give_equal_records_and_hashes(cases, cls):
    a, twin, other = cases[cls]
    assert a is not twin and a == twin and not a != twin
    assert hash(a) == hash(twin)
    assert a != other and not a == other
    assert len({a, twin, other}) == 2


@field_ids
def test_a_record_never_equals_its_fields_or_another_class(cases, cls):
    a = cases[cls][0]
    if issubclass(cls, tuple):
        # a switching permutation is its plain (switch_mask, perm) pair
        assert a == fields(a) and fields(a) == a
    else:
        assert a != fields(a) and fields(a) != a

    class Other(_Record):
        _fields = cls._fields

    look_alike = Other.__new__(Other)
    look_alike.__dict__.update(zip(cls._fields, fields(a)))
    assert a != look_alike and look_alike != a
    for other_cls in FIELD_CLASSES:
        if other_cls is not cls:
            assert a != cases[other_cls][0] and cases[other_cls][0] != a


@field_ids
def test_fields_cannot_be_assigned_or_deleted(cases, cls):
    a, twin, _ = cases[cls]
    for f in cls._fields:
        # a record's message names the field; a namedtuple field's is Python's
        match = None if issubclass(cls, tuple) else f
        with pytest.raises(AttributeError, match=match):
            setattr(a, f, None)
        with pytest.raises(AttributeError, match=match):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == twin and "extra" not in getattr(a, "__dict__", {})


@field_ids
def test_repr_shows_the_fields(cases, cls):
    a = cases[cls][0]
    assert repr(a) == "{}({})".format(cls.__name__, ", ".join(
        f"{f}={getattr(a, f)!r}" for f in cls._fields))


def test_a_switching_permutation_is_its_pair(cases):
    # the one form of a switching automorphism: a tuple that equals, hashes
    # and sorts as its plain pair, with no room for other fields
    a, twin, other = cases[SwitchingPermutation]
    assert a == (5, (1, 0, 2)) and (5, (1, 0, 2)) == a
    assert hash(a) == hash((5, (1, 0, 2))) and (a.switch_mask, a.perm) == a
    assert sorted([a, (4, (2, 1, 0)), other]) == [(4, (1, 0, 2)),
                                                 (4, (2, 1, 0)), a]
    assert a == twin and not hasattr(a, "__dict__")


def test_repr_reads_like_the_constructor_call():
    assert repr(Cycle((0, 1, 2), 7)) == "Cycle(vertices=(0, 1, 2), edge_mask=7)"
    assert repr(SwitchingPermutation(5, (1, 0))) == \
        "SwitchingPermutation(switch_mask=5, perm=(1, 0))"
    assert repr(SignedGraph(Graph(2, ((0, 1),)), 1)) == \
        "SignedGraph(graph=Graph(vertex_count=2, edges=((0, 1),)), mask=1)"


@pytest.mark.parametrize("n, edges, message", [
    (3, ((1, 1),), "loop edge 1-1"),
    (3, ((0, 3),), "edge 0-3 out of range"),
    (3, ((-1, 2),), "edge -1-2 out of range"),
    (3, ((2, 0),), "edge 2-0 not normalized"),
    (3, ((0, 1), (0, 1)), "repeated edge 0-1"),
    (3, ((1, 2), (0, 1)), "edge list not in canonical order"),
    (4, ((0, 1), (1, 2), (0, 1)), "repeated edge 0-1"),
    (4, ((0, 1), (2, 3), (1, 2), (1, 1)), "loop edge 1-1"),
    (4, ((0, 1), (2, 3), (3, 2)), "edge 3-2 not normalized"),
    (4, ((0, 2), (0, 1), (1, 4)), "edge 1-4 out of range"),
])
def test_graph_validation_messages(n, edges, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize("mask, message", [
    (4, "mask 0x4 out of range for 2 edges"),
    (-1, "mask -0x1 out of range for 2 edges"),
])
def test_signed_graph_validation_messages(mask, message):
    with pytest.raises(ValueError) as exc:
        SignedGraph(Graph(3, PATH3), mask)
    assert str(exc.value) == message


def test_cached_properties_are_kept_out_of_equality():
    g = Graph(3, PATH3)
    assert g.neighbours == (((1, 0),), ((0, 0), (2, 1)), ((1, 1),))
    assert g.incidence == (1, 3, 2)
    assert g.spanning_forest == ((0, -1, -1), (1, 0, 0), (2, 1, 1))
    assert automorphism_images(g) == ((0, 1, 2), (2, 1, 0))
    assert g.neighbours is g.neighbours
    assert {"neighbours", "incidence"} <= g.__dict__.keys()
    fresh = Graph(3, PATH3)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    lab = PetersenLabeling()
    assert lab.vertex(4, 5) == 9 and lab.vertex_of is lab.vertex_of


def tracer_modules() -> set[str]:
    """The modules named in the benchmark tracer's TARGETS, read from its
    source without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py")
                     .read_text())
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    return {target.elts[0].value for target in targets.elts}


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    src = str(Path(signedpetersen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # -S: no site hooks, so only the package and what it imports load
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, signedpetersen.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=30, check=True)
    loaded = set(done.stdout.split())
    assert not {"dataclasses", "inspect", "csv"} & loaded
    # the tracer looks up each module it wraps in sys.modules
    targets = {f"signedpetersen.{m}" for m in tracer_modules()}
    assert "signedpetersen.groups" in targets and targets <= loaded
