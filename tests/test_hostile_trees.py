"""Hostile tree documents: the reader refuses each with TreeSchemaError or reads
a tree that writes and reads back to the same bytes, and the CLI ends every
such document with a documented exit code, never a traceback. The scan that
reads documents in the writer's grammar reads what the per-node reader reads,
and refuses nothing itself."""
import contextlib
import dataclasses
import functools
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celltree import (
    Dataset,
    Internal,
    Leaf,
    LookaheadConfig,
    PartitionTree,
    RandomizedConfig,
    TreeSchemaError,
    build_lookahead,
    build_randomized,
    deserialize_tree,
    predict_batch,
    serialize_tree,
    tree_stats,
    validate_tree,
)
from celltree import core
from celltree.cli import main
from celltree.core import MAX_TREE_DEPTH


def _cli(*argv) -> tuple[int, str]:
    """main's exit code and its stderr; an exception escaping main fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _split_doc(eaten: str) -> str:
    return ('{"config":{},"d":1,"mode":"binary","root":{"children":[{"count0":1,"count1":0},'
            '{"count0":0,"count1":1}],"eaten":' + eaten + ',"splits":[[1,0.5]]}}')


@pytest.mark.parametrize("eaten", [-1, -(2**63), -(2**63) - 1, -(10**30)])
def test_a_negative_eaten_count_is_a_schema_error(eaten, tmp_path):
    with pytest.raises(TreeSchemaError, match="eaten pivot count must equal cut count"):
        deserialize_tree(_split_doc(str(eaten)))
    path = tmp_path / "bad.json"
    path.write_text(_split_doc(str(eaten)), encoding="utf-8")
    code, stderr = _cli("inspect", "--tree", path)
    assert code == 4
    assert stderr.splitlines() == ["error: eaten pivot count must equal cut count"]


@functools.lru_cache(maxsize=None)
def _documents() -> tuple[tuple[int, str], ...]:
    """(d, document) from both builders at d = 1..3: binary from the randomized
    builder, full mode from lookahead, each with splits below the root."""
    docs = []
    for d, n, squares in ((1, 1000, 4), (2, 1000, 4), (3, 3000, 2)):
        xs = np.random.default_rng(d).random((n, d))
        data = Dataset(xs, (np.floor(xs * squares).sum(axis=1) % 2).astype(np.int8))
        alpha, beta = (0.25, 0.2) if d < 3 else (0.2, 0.1)
        for tree in (build_randomized(data, RandomizedConfig(beta=0.5, seed=1)),
                     build_lookahead(data, LookaheadConfig(alpha=alpha, beta=beta, d=d, seed=d))):
            docs.append((d, serialize_tree(tree)))
    return tuple(docs)


_BIG = "1" + "0" * 400
# JSON literals put in place of a value: bools, null, integers just inside and
# just outside int64, ±10^400 as integers and as floats, tiny, huge and signed
# zero floats, strings (the two mode names among them), and empty containers
_HOSTILE = (
    ["true", "false", "null"]
    + [str(v) for v in (2**63 - 1, 2**63, 2**63 + 1, -(2**63) + 1, -(2**63), -(2**63) - 1)]
    + [_BIG, "-" + _BIG, "1e400", "-1e400", "-0.0", "5e-324", "1e308"]
    + ['"x"', '""', '"binary"', '"full"', "[]", "{}"]
)
_MARK = "@@hostile@@"


def _paths(value, path=()):
    """The path of every value inside a parsed document, the document itself excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield path + (key,)
        yield from _paths(inner, path + (key,))


@st.composite
def _mutated(draw) -> tuple[int, str]:
    """A valid document with one to two values replaced by a hostile literal,
    a key or list entry deleted, or an entry duplicated (a dict gains a key)."""
    d, text = draw(st.sampled_from(_documents()))
    doc = json.loads(text)
    literals = []
    for _ in range(draw(st.integers(1, 2))):
        *head, key = draw(st.sampled_from(list(_paths(doc))))
        parent = functools.reduce(lambda v, k: v[k], head, doc)
        kind = draw(st.sampled_from(["set", "delete", "duplicate"]))
        if kind == "set":
            literals.append(draw(st.sampled_from(_HOSTILE)))
            parent[key] = _MARK
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[key + "_"] = json.loads(json.dumps(parent[key]))
    text = json.dumps(doc)
    for literal in literals:
        text = text.replace(json.dumps(_MARK), literal, 1)
    return d, text


def _read_or_refuse(text: str):
    """The tree the reader makes of ``text``, or None when it refuses the text."""
    try:
        tree = deserialize_tree(text)
    except TreeSchemaError:
        return None
    out = serialize_tree(tree)
    assert serialize_tree(deserialize_tree(out)) == out
    return tree


@settings(max_examples=500, deadline=None)
@given(case=_mutated())
def test_the_reader_refuses_or_roundtrips_a_mutated_document(case):
    _read_or_refuse(case[1])


def _chain(d: int, mode: str, depth: int) -> str:
    """A canonical document whose splits each hold the next in their first
    child slot, down to a leaf at ``depth``."""
    arity = 2 if mode == "binary" else 1 << d
    leaf = '{"count0":0,"count1":1}'
    close = '],"eaten":%d,"splits":[%s]}' % (arity - 1, ",".join(["[1,0.5]"] * (arity - 1)))
    head = '{"config":{},"d":%d,"mode":"%s","root":' % (d, mode)
    return head + '{"children":[' * depth + leaf + (("," + leaf) * (arity - 1) + close) * depth + "}\n"


def _parts(doc: dict) -> tuple[list, list, list]:
    """A parsed document's split nodes, leaf nodes and cut lists."""
    splits, leaves, cuts = [], [], []
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        if "children" in node:
            splits.append(node)
            cuts += node["splits"]
            stack += node["children"]
        else:
            leaves.append(node)
    return splits, leaves, cuts


# a leaf, a cut, a key, a number, a comma or a bracket of a canonical document
_TOKEN = re.compile(r'\{"count0":\d+,"count1":\d+\}|\[\d+,[-+.\deE]+\]|"\w+":|-?\d[-+.\deE]*|[,\[\]{}]')
_COUNTS = [2**63 - 1, 2**63, 2**64 + 1, 10**30]
# each JSON spelling json.loads reads as a float, as the scan does, and the
# integers, which it reads as ints: -0 among them, whose float is 0.0
_THRESHOLDS = ["-0.0", "5e-324", "1e400", "-1e400", "1.50", "1E-5", "2.5e+2", "1", "-0", "0"]


@st.composite
def _canonical_mutant(draw) -> str | bytes:
    """A canonical document of either builder at d = 1..3 with one edit: a
    digit changed, a token deleted or doubled, two siblings swapped, a count,
    a dimension or a threshold replaced, all written canonically; or a chain
    around ``MAX_TREE_DEPTH`` deep, or the document's bytes."""
    d, text = draw(st.sampled_from(_documents()))
    kind = draw(st.sampled_from(["digit", "delete", "double", "swap", "count", "dim", "threshold",
                                 "chain", "bytes"]))
    if kind == "digit":
        at = draw(st.sampled_from([m.start() for m in re.finditer(r"\d", text)]))
        return text[:at] + draw(st.sampled_from("0123456789".replace(text[at], ""))) + text[at + 1:]
    if kind in ("delete", "double"):
        start, end = draw(st.sampled_from([m.span() for m in _TOKEN.finditer(text)]))
        return text[:start] + text[start:end] * (2 if kind == "double" else 0) + text[end:]
    if kind == "chain":
        return _chain(d, json.loads(text)["mode"], MAX_TREE_DEPTH + draw(st.integers(-1, 1)))
    if kind == "bytes":
        return text.encode("utf-8")
    doc = json.loads(text)
    splits, leaves, cuts = _parts(doc)
    if kind == "swap":
        children = draw(st.sampled_from(splits))["children"]
        i, j = draw(st.lists(st.integers(0, len(children) - 1), min_size=2, max_size=2, unique=True))
        children[i], children[j] = children[j], children[i]
    elif kind == "count":
        draw(st.sampled_from(leaves))[draw(st.sampled_from(["count0", "count1"]))] = draw(st.sampled_from(_COUNTS))
    elif kind == "dim":
        draw(st.sampled_from(cuts))[0] = draw(st.sampled_from([0, d + 1]))
    else:
        draw(st.sampled_from(cuts))[1] = _MARK
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return text.replace(json.dumps(_MARK), draw(st.sampled_from(_THRESHOLDS)))


def _reading(read, text):
    """What ``read`` makes of ``text``: its refusal's message, or its tree's
    cut table, header and written bytes."""
    try:
        tree = read(text)
    except TreeSchemaError as exc:
        return str(exc)
    return tree._cuts, (tree.d, tree.mode, tree.config, serialize_tree(tree))


def _assert_same_reading(text):
    scanned, read = _reading(deserialize_tree, text), _reading(core._read_nodes, text)
    assert type(scanned) is type(read)
    if isinstance(read, str):
        assert scanned == read
        return
    (table, head), (expected, expected_head) = scanned, read
    assert head == expected_head
    for column in ("count0", "count1", "labels", "depths", "dim_of", "thr_of", "eaten", "child"):
        ours, theirs = getattr(table, column), getattr(expected, column)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), column
    assert (table.d, table.arity, table.root) == (expected.d, expected.arity, expected.root)


@settings(max_examples=500, deadline=None)
@given(text=_canonical_mutant())
def test_the_scan_and_the_per_node_reader_read_a_canonical_mutant_alike(text):
    _assert_same_reading(text)


@pytest.mark.parametrize("d, text", _documents())
def test_a_canonical_document_is_read_by_the_scan(monkeypatch, d, text):
    def refuse(*args):
        raise AssertionError("the per-node rule ran")
    monkeypatch.setattr(core, "_check_node", refuse)
    assert core._read_canonical(text) is not None
    assert serialize_tree(deserialize_tree(text)) == text


def _edit(pattern: str, replacement: str):
    return lambda text: re.sub(pattern, replacement, text, count=1)


@pytest.mark.parametrize("edit, scanned", [
    (_edit(r'"count0":\d+', '"count0":%d' % (2**63 - 1)), True),
    (_edit(r'"count0":\d+', '"count0":%d' % 2**63), False),  # beyond int64
    (_edit(r'"count0":\d+', '"count0":-1'), False),
    (_edit(r'\[\[\d+,', "[[0,"), False),  # dimensions are 1-based
    (_edit(r'\[\[\d+,', "[[3,"), False),  # beyond d = 2
    (_edit(r'(\[\[\d+,)[^\]]+', r"\g<1>1.50"), True),
    (_edit(r'(\[\[\d+,)[^\]]+', r"\g<1>-0.0"), True),
    (_edit(r'(\[\[\d+,)[^\]]+', r"\g<1>5e-324"), True),
    (_edit(r'(\[\[\d+,)[^\]]+', r"\g<1>1e400"), False),  # not finite
    (_edit(r'(\[\[\d+,)[^\]]+', r"\g<1>1"), False),  # an integer
    (_edit(r'(\[\[\d+,)[^\]]+', r"\g<1>-0"), False),
    (_edit(r',\{"count0":\d+,"count1":\d+\}', ""), False),  # a child too few
    (_edit(r'\{"count0":\d+,"count1":\d+\}', r"\g<0>,\g<0>"), False),  # a child too many
    (_edit(r'\{"count0"', '{ "count0"'), False),  # a byte outside the grammar
    (_edit(r'\},\{', "},,{"), False),  # a comma where a node must follow
    (_edit(r'"eaten":1', '"eaten":0'), False),
    (_edit(r'"d":2', '"d": 2'), False),  # a header not in its own canonical form
    (lambda text: text.rstrip("\n"), True),
    (lambda text: _chain(2, "binary", MAX_TREE_DEPTH), True),
    (lambda text: _chain(2, "binary", MAX_TREE_DEPTH + 1), False),
    (lambda text: text.encode("utf-8"), False),
])
def test_the_scan_hands_back_what_it_cannot_read(edit, scanned):
    text = edit(next(text for d, text in _documents() if d == 2 and '"binary"' in text))
    assert (core._read_canonical(text) is not None) == scanned
    _assert_same_reading(text)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "tree.json"


@settings(max_examples=150, deadline=None)
@given(case=_mutated())
def test_the_cli_ends_a_mutated_document_with_a_documented_exit_code(case, doc_path):
    d, text = case
    doc_path.write_text(text, encoding="utf-8")
    tree = _read_or_refuse(text)
    code, _ = _cli("inspect", "--tree", doc_path)
    assert code == 4 if tree is None else code in (0, 4)
    code, _ = _cli("eval", "--tree", doc_path, "--dist", "d-lin", "--dim", d, "--m", 64)
    assert code == (4 if tree is None else 0 if tree.d == d else 2)


def _binary_tree() -> PartitionTree:
    inner = Internal(((1, 0.25),), (-1,), (Leaf(1, 0), Leaf(0, 2)))
    return PartitionTree(Internal(((0, 0.5),), (-1,), (inner, Leaf(3, 1))), d=2, mode="binary",
                         config={"n": 9})


def _full_tree() -> PartitionTree:
    inner = Internal(((0, 0.3), (1, 0.1), (1, 0.9)), (-1,) * 3, (Leaf(0, 1),) * 4)
    root = Internal(((0, 0.5), (1, 0.25), (1, 0.75)), (-1,) * 3,
                    (Leaf(1, 0), inner, Leaf(2, 2), Leaf(0, 0)))
    return PartitionTree(root, d=2, mode="full", config={"n": 14})


# values that are not nodes: the reader's (splits, eaten, arity) record among them
_NOT_NODES = [7, None, "leaf", np.int64(3), np.float64(0.5), (((0, 0.5),), (-1,), 2),
              [Leaf(1, 0), Leaf(0, 1)]]
_NOT_CUTS = [(0.5,), (0, 0.5, 1), 0.5]
# makers of an Internal's splits, eaten or children that is no tuple or list,
# from the field's own value
_NOT_FIELDS = [lambda value: None, lambda value: 3, lambda value: 5, iter]


def _slots(node, path=()):
    """The child-index path of every node slot under ``node``, the root's () first."""
    yield path
    if isinstance(node, Internal):
        for j, child in enumerate(node.children):
            yield from _slots(child, path + (j,))


def _replaced(node, path, change):
    """``node`` with the node at ``path`` replaced by ``change(that node)``."""
    if not path:
        return change(node)
    children = list(node.children)
    children[path[0]] = _replaced(children[path[0]], path[1:], change)
    return dataclasses.replace(node, children=tuple(children))


@st.composite
def _hand_built(draw) -> tuple[PartitionTree, bool]:
    """A hand-built tree with one slot, one cut or one Internal field
    replaced, and whether the result breaks the node rule: a cut written as a
    list pair is still valid."""
    tree = draw(st.sampled_from([_binary_tree(), _full_tree()]))
    path = draw(st.sampled_from(list(_slots(tree.root))))
    target = functools.reduce(lambda node, j: node.children[j], path, tree.root)
    kind = draw(st.sampled_from(["cut", "field", "node"])) if isinstance(target, Internal) else "node"
    if kind == "field":
        name = draw(st.sampled_from(["splits", "eaten", "children"]))
        make = draw(st.sampled_from(_NOT_FIELDS))

        def change(node):
            return dataclasses.replace(node, **{name: make(getattr(node, name))})
        hostile = True
    elif kind == "cut":
        at = draw(st.integers(0, len(target.splits) - 1))
        cut = draw(st.sampled_from(_NOT_CUTS + [list(target.splits[at])]))

        def change(node):
            return dataclasses.replace(node, splits=node.splits[:at] + (cut,) + node.splits[at + 1:])
        hostile = not isinstance(cut, list)
    else:
        value = draw(st.sampled_from(_NOT_NODES))

        def change(node):
            return value
        hostile = True
    return dataclasses.replace(tree, root=_replaced(tree.root, path, change)), hostile


@settings(max_examples=150, deadline=None)
@given(case=_hand_built())
@example(case=(PartitionTree(Internal(((0, 0.5),), (-1,), None), 1, "binary", {}), True))
@example(case=(PartitionTree(Internal(None, (-1,), (Leaf(1, 0), Leaf(0, 1))), 1, "binary", {}), True))
def test_every_reader_of_a_hand_built_tree_refuses_a_broken_node(case):
    tree, hostile = case
    if not hostile:
        out = serialize_tree(tree)
        assert deserialize_tree(out) is not None and serialize_tree(deserialize_tree(out)) == out
        return
    for consumer in (serialize_tree, validate_tree, tree_stats,
                     lambda t: predict_batch(t, np.full((3, t.d), 0.4))):
        with pytest.raises(TreeSchemaError):
            consumer(tree)


def test_a_cut_dimension_beyond_int64_reads_and_writes_back(tmp_path):
    dim = 2**64 + 1  # 1-based, in a tree of d = 2^64 + 1: no query can be routed
    doc = ('{"config":{},"d":%d,"mode":"binary","root":{"children":[{"count0":1,"count1":0},'
           '{"count0":0,"count1":1}],"eaten":1,"splits":[[%d,0.5]]}}\n' % (dim, dim))
    tree = deserialize_tree(doc)
    assert serialize_tree(tree) == doc and tree_stats(tree).eaten == 1
    path = tmp_path / "wide.json"
    path.write_text(doc, encoding="utf-8")
    assert _cli("inspect", "--tree", path) == (0, "")
