"""Batch routing against the scalar reference.

``predict_batch`` and ``route_depths`` must send every query row where
``route`` sends it: on trees from both builders, on hand-built trees of every
shape, and on queries that hit thresholds exactly or lie outside the unit
cube. ``locate_leaf`` must put every training point into the leaf cell whose
view holds it.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltree import (
    Dataset,
    Internal,
    Leaf,
    LookaheadConfig,
    PartitionTree,
    RandomizedConfig,
    build_full_tree,
    build_lookahead,
    build_randomized,
    deserialize_tree,
    locate_leaf,
    predict_batch,
    route,
    route_depths,
    serialize_tree,
    tree_stats,
    validate_tree,
)

# admissible with beta = 0.2 in each d
LOOKAHEAD_ALPHA = {1: 0.4, 2: 0.25, 3: 0.185}


def assert_batch_matches_route(tree: PartitionTree, X: np.ndarray) -> None:
    labels, depths = predict_batch(tree, X), route_depths(tree, X)
    assert labels.dtype == np.int8 and depths.dtype == np.int64
    assert labels.shape == depths.shape == (len(X),)
    for x, label, depth in zip(X, labels, depths):
        leaf, want = route(tree, x)
        assert (int(label), int(depth)) == (leaf.label, want)


def with_outside_points(xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The training points, so every threshold is hit exactly, plus points
    outside the unit cube."""
    return np.vstack([xs, rng.uniform(-2.0, 3.0, size=(40, xs.shape[1]))])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("randomized", "lookahead")),
    st.integers(1, 3),
    st.integers(1, 400),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_batch_routing_matches_route_on_built_trees(algo, d, n, stripes, seed):
    rng = np.random.default_rng(seed)
    xs = np.floor(rng.random((n, d)) * 4) / 4  # a coarse grid: ties everywhere
    # four stripes in x1 make the lookahead builder commit two levels for
    # d <= 2; two halves make it commit one for d = 3
    ys = (np.floor(xs[:, 0] * 4) % 2 if stripes else xs[:, 0] >= 0.5).astype(np.int8)
    data = Dataset(xs, ys)
    if algo == "randomized":
        tree = build_randomized(data, RandomizedConfig(beta=0.5, seed=seed))
    else:
        config = LookaheadConfig(alpha=LOOKAHEAD_ALPHA[d], beta=0.2, d=d, seed=seed)
        tree = build_lookahead(data, config)
    assert_batch_matches_route(tree, with_outside_points(xs, rng))
    assert_batch_matches_route(tree, np.empty((0, d)))


def _chain(depth: int) -> PartitionTree:
    """A binary d=1 tree whose low branch is ``depth`` splits deep, as
    ``run_cells`` can build it, made without recursion."""
    node = Leaf(1, 0)
    for _ in range(depth):
        node = Internal(((0, 0.5),), (-1,), (node, Leaf(0, 1)))
    return PartitionTree(root=node, d=1, mode="binary", config={})


def _full_mode_tree() -> PartitionTree:
    """d=2, full mode: a root level whose second child is itself split."""
    inner = Internal(
        ((0, 0.1), (1, 0.3), (1, 0.3)), (-1, -1, -1),
        (Leaf(0, 1), Leaf(2, 1), Leaf(1, 1), Leaf(0, 3)),
    )
    root = Internal(
        ((0, 0.5), (1, 0.25), (1, 0.75)), (-1, -1, -1),
        (Leaf(1, 0), inner, Leaf(0, 2), Leaf(4, 1)),
    )
    return PartitionTree(root=root, d=2, mode="full", config={})


@pytest.mark.parametrize(
    "tree",
    [
        PartitionTree(root=Leaf(2, 3), d=2, mode="binary", config={}),
        _full_mode_tree(),
        _chain(2999),
    ],
    ids=["leaf-root", "full-mode", "chain-2999"],
)
def test_batch_routing_matches_route_on_hand_built_trees(tree, rng):
    cuts = [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]
    on_cuts = np.array(cuts)[rng.integers(0, len(cuts), size=(60, tree.d))]
    assert_batch_matches_route(tree, with_outside_points(on_cuts, rng))
    assert_batch_matches_route(tree, np.empty((0, tree.d)))


def test_chain_depths_reach_the_bottom():
    tree = _chain(2999)
    X = np.array([[0.25], [0.5], [7.0], [-3.0]])
    assert route_depths(tree, X).tolist() == [2999, 1, 1, 2999]
    assert predict_batch(tree, X).tolist() == [0, 1, 1, 0]


def test_a_tree_builds_its_cut_table_once(monkeypatch, rng):
    from celltree import core

    tables = []
    build = core._cut_table
    monkeypatch.setattr(core, "_cut_table", lambda *args: tables.append(args) or build(*args))
    xs = rng.random((500, 2))
    tree = build_randomized(Dataset(xs, (xs[:, 0] < 0.5).astype(np.int8)), RandomizedConfig(0.9))
    labels = predict_batch(tree, xs)
    assert predict_batch(tree, xs).tolist() == labels.tolist()
    route_depths(tree, xs)
    assert tree_stats(tree) == validate_tree(tree)
    doc = serialize_tree(tree)
    assert len(tables) == 1
    # a replaced tree builds a table of its own; a read one writes its document back
    other = dataclasses.replace(tree, config={})
    assert predict_batch(other, xs).tolist() == labels.tolist() and len(tables) == 2
    assert serialize_tree(deserialize_tree(doc)) == doc and len(tables) == 3


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_locate_leaf_matches_view_membership_in_every_shape(d, k, rng):
    # distinct coordinates, so geometric routing and index splitting agree
    n = 4 * (1 << (d * k)) + 11
    xs = rng.random((n, d))
    tree = build_full_tree(Dataset(xs, np.zeros(n, dtype=np.int8)).full_view(), k)
    assert tree.complete
    for leaf_pos, view in enumerate(tree.leaves):
        for i in view.indices:
            assert locate_leaf(tree, xs[i]) == leaf_pos


def test_locate_leaf_converts_the_tree_once(monkeypatch, rng):
    from celltree import median

    conversions = []
    convert = median._partition_tree

    def counted(tree):
        conversions.append(tree)
        return convert(tree)

    monkeypatch.setattr(median, "_partition_tree", counted)
    xs = rng.random((300, 2))
    tree = build_full_tree(Dataset(xs, np.zeros(300, dtype=np.int8)).full_view(), 3)
    for leaf_pos, view in enumerate(tree.leaves):
        for i in view.indices:
            assert locate_leaf(tree, xs[i]) == leaf_pos
    assert len(conversions) == 1


def test_locate_leaf_rejects_bad_queries(rng):
    xs = rng.random((200, 2))
    tree = build_full_tree(Dataset(xs, np.zeros(200, dtype=np.int8)).full_view(), 2)
    assert tree.complete
    for bad in ([np.nan, np.nan], [0.5, np.inf], [0.1, 0.2, 0.3], [0.5], [[0.1, 0.2]]):
        with pytest.raises(ValueError):
            locate_leaf(tree, bad)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_full_tree_conversion_matches_the_recursive_one(d, k, rng):
    from celltree.median import _partition_tree

    n = 4 * (1 << (d * k)) + 11
    full = build_full_tree(Dataset(rng.random((n, d)), rng.integers(0, 2, n)).full_view(), k)
    assert full.complete

    def to_node(level_idx, pos):
        if level_idx == full.k:
            return Leaf(*full.leaf_counts[pos])
        level = full.levels[level_idx][pos]
        children = tuple(to_node(level_idx + 1, (pos << d) | j) for j in range(1 << d))
        return Internal(level.split_records(), level.eaten, children)

    want = PartitionTree(root=to_node(0, 0), d=d, mode="full", config={})
    assert _partition_tree(full) == want
