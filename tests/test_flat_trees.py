"""A tree kept as its cut table, without node objects.

The builders hand their generation records, and the reader its checked
generations, straight to ``core._cut_table``. ``Leaf`` and ``Internal``
nodes are built only when ``tree.root`` is read, and a read tree's nodes are
checked once.
"""
import dataclasses
import gc

import numpy as np
import pytest

from celltree import (
    CellTask,
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
    randomized_decision,
    route,
    run_cells,
    serialize_tree,
    tree_stats,
)
from celltree import core
from celltree.lookahead import lookahead_decision


def _data(n: int, d: int = 2, seed: int = 3) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    return Dataset(xs, (xs.sum(axis=1) > d / 2).astype(np.int8))


def _tracked_objects_held_by(make):
    """What ``make()`` returns, and how many more objects the cyclic
    collector tracks while it is held."""
    gc.collect()
    before = len(gc.get_objects())
    made = make()
    gc.collect()
    return made, len(gc.get_objects()) - before


def test_a_built_and_a_read_tree_hold_no_nodes_until_root_is_read():
    data, config = _data(20_000), RandomizedConfig(beta=0.9, seed=5)
    build_randomized(_data(3_000), config)  # first-call caches are not the tree's
    tree, held = _tracked_objects_held_by(lambda: build_randomized(data, config))
    assert tree_stats(tree).nodes > 500 and held < 20
    doc = serialize_tree(tree)
    read, held = _tracked_objects_held_by(lambda: deserialize_tree(doc))
    assert held < 20
    # the nodes, built on first access, are those of the per-cell build
    node = run_cells(CellTask(data.full_view(), config.seed), randomized_decision(config.beta))
    assert tree.root == node and tree.root is tree.root
    assert serialize_tree(dataclasses.replace(read, root=read.root)) == doc


def test_a_read_tree_is_checked_once(monkeypatch):
    data = _data(5_000)
    doc = serialize_tree(build_randomized(data, RandomizedConfig(beta=0.9, seed=1)))
    check, calls = core._check_node, []
    monkeypatch.setattr(core, "_check_node", lambda *args: calls.append(args) or check(*args))
    tree = deserialize_tree(doc)
    predict_batch(tree, data.xs)
    stats = tree_stats(tree)
    assert serialize_tree(tree) == doc
    assert len(calls) == stats.nodes


@pytest.mark.parametrize("build", ["randomized", "lookahead", "read"])
def test_a_tree_without_its_root_compares_replaces_and_prints_as_one_with_it(build):
    data = _data(3_000)
    if build == "lookahead":
        config = LookaheadConfig(alpha=0.25, beta=0.2, d=2)
        tree, decide = build_lookahead(data, config), lookahead_decision(config)
    else:
        config = RandomizedConfig(beta=0.9, seed=2)
        tree, decide = build_randomized(data, config), randomized_decision(config.beta)
        if build == "read":
            tree = deserialize_tree(serialize_tree(tree))
    assert "root" not in vars(tree)
    # the table is in generation order, and its nodes are those of the per-cell build
    assert (np.diff(tree._cuts.depths) >= 0).all()
    node = run_cells(CellTask(data.full_view(), config.seed), decide)
    if build == "read":  # the reader knows no pivots
        assert serialize_tree(dataclasses.replace(tree, root=node)) == serialize_tree(tree)
    else:
        assert tree.root == node
    twin = PartitionTree(root=tree.root, d=tree.d, mode=tree.mode, config=tree.config)
    assert tree == twin and repr(tree) == repr(twin)
    assert dataclasses.replace(tree, config={}).config == {}
    assert dataclasses.replace(tree, root=Leaf(1, 0)).root == Leaf(1, 0)
    table, walked = tree._cuts, twin._cuts
    for column in ("count0", "count1", "labels", "depths", "dim_of", "thr_of", "child"):
        assert np.array_equal(getattr(table, column), getattr(walked, column)), column
    assert table.root == walked.root and table.leaves == walked.leaves
    # the walk does not record pivots; the builders do, and the reader knows none
    assert (walked.eaten == -1).all() and ((table.eaten == -1).all() == (build == "read"))
    queries = np.random.default_rng(4).random((200, 2))
    assert [route(tree, x)[0].label for x in queries] == predict_batch(tree, queries).tolist()


def test_leaf_points_stay_exact_beyond_int64():
    big = 2**62
    tree = PartitionTree(Internal(((0, 0.5),), (-1,), (Leaf(big, 1), Leaf(big, big))), 1, "binary", {})
    assert tree_stats(tree).leaf_points == 3 * big + 1
    huge = PartitionTree(Leaf(2**70, 1), 1, "binary", {})
    assert tree_stats(huge).leaf_points == 2**70 + 1
    assert deserialize_tree(serialize_tree(huge)).root == Leaf(2**70, 1)


def _generation(**columns) -> "core._Generation":
    """One split root over two leaves, as columns, with ``columns`` replaced."""
    cells = dict(split=np.array([True]), count0=np.zeros(0, dtype=np.int64),
                 count1=np.zeros(0, dtype=np.int64), dims=np.array([0]), thrs=np.array([0.5]),
                 eaten=np.array([7]), arity=2)
    cells.update(columns)
    return core._Generation(**cells)


@pytest.mark.parametrize(
    "columns, message",
    [
        (dict(dims=np.array([2])), "cut dimension 2 out of range 0..1"),
        (dict(dims=np.array([-1])), "cut dimension -1 out of range 0..1"),
        (dict(thrs=np.array([np.nan])), "cut threshold must be finite"),
    ],
)
def test_the_table_refuses_columns_the_node_rule_refuses(columns, message):
    leaves = [Leaf(1, 0), Leaf(0, 1)]
    assert PartitionTree._of_generations([_generation(), leaves], 2, "binary", {}).root == Internal(
        ((0, 0.5),), (7,), tuple(leaves))
    with pytest.raises(TreeSchemaError, match=message):
        PartitionTree._of_generations([_generation(**columns), leaves], 2, "binary", {})
    with pytest.raises(TreeSchemaError, match="leaf counts must be nonnegative integers"):
        PartitionTree._of_generations([_generation(), [Leaf(1, 0), Leaf(-1, 1)]], 2, "binary", {})
