import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltree import (
    Dataset,
    DataView,
    build_full_tree,
    full_level_split,
    leaf_bounds,
    locate_leaf,
    median_split,
    strict_rank,
)
from conftest import make_dataset


def _dataset_1d(values, labels=None):
    values = list(values)
    ys = labels if labels is not None else [0] * len(values)
    return Dataset(np.array(values).reshape(-1, 1), np.array(ys, dtype=np.int8))


def test_median_split_example_n5():
    ds = _dataset_1d([0.1, 0.4, 0.2, 0.9, 0.5])
    cut = median_split(ds.full_view(), 0)
    assert cut.threshold == 0.4
    assert cut.pivot_index == 1
    assert sorted(ds.xs[cut.low.indices, 0]) == [0.1, 0.2]
    assert sorted(ds.xs[cut.high.indices, 0]) == [0.5, 0.9]


def test_median_split_even_n10(rng):
    ds = make_dataset(rng, 10, 1, dup_prob=0.0)
    cut = median_split(ds.full_view(), 0)
    # r = 5 for n = 10: 4 points low, 5 high
    assert (cut.low.n, cut.high.n) == (4, 5)


def test_median_split_singleton():
    ds = _dataset_1d([0.7])
    cut = median_split(ds.full_view(), 0)
    assert (cut.low.n, cut.high.n) == (0, 0)
    assert cut.pivot_index == 0


def test_median_split_empty_raises():
    ds = Dataset.empty(1)
    with pytest.raises(ValueError):
        median_split(ds.full_view(), 0)


@settings(max_examples=200)
@given(
    st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False).map(lambda v: round(v, 2)),
        min_size=1,
        max_size=60,
    )
)
def test_median_split_cardinalities(values):
    n = len(values)
    ds = _dataset_1d(values)
    cut = median_split(ds.full_view(), 0)
    assert cut.low.n + cut.high.n == n - 1  # pivot in neither child
    if n % 2 == 1:
        assert cut.low.n == cut.high.n == (n - 1) // 2
    else:
        assert (cut.low.n, cut.high.n) == ((n - 2) // 2, n // 2)
    # strict order: every low point precedes the pivot, every high point follows
    pkey = (values[cut.pivot_index], cut.pivot_index)
    assert all((values[i], i) < pkey for i in cut.low.indices)
    assert all((values[i], i) > pkey for i in cut.high.indices)
    members = set(cut.low.indices) | set(cut.high.indices) | {cut.pivot_index}
    assert members == set(range(n))


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_median_split_matches_strict_rank_on_subviews(seed):
    # the kernel selects on presorted dataset ranks; it must agree with
    # sorting the view itself, on a random subset with heavy ties
    rng = np.random.default_rng(seed)
    ds = Dataset(np.floor(rng.random((80, 2)) * 3), (rng.random(80) < 0.5).astype(np.int8))
    indices = np.flatnonzero(rng.random(80) < 0.6)
    if indices.size == 0:
        return
    view = DataView(ds, indices)
    for dim in range(2):
        ranked = strict_rank(view, dim)
        r = (view.n + 1) // 2
        cut = median_split(view, dim)
        assert cut.pivot_index == ranked[r - 1]
        assert cut.threshold == ds.xs[ranked[r - 1], dim]
        assert np.array_equal(cut.low.indices, np.sort(ranked[: r - 1]))
        assert np.array_equal(cut.high.indices, np.sort(ranked[r:]))
        assert not cut.low.indices.flags.writeable


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=3),
    st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=4, max_value=300)),
    st.sampled_from([0, 1, 2, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_median_split_children_match_the_mask_reference(d, n, grid, seed):
    # the children are exactly the boolean-mask selections of the view's
    # ascending indices, as fresh arrays DataView._trusted can own
    rng = np.random.default_rng(seed)
    xs = rng.random((n + 5, d))
    if grid:  # grid-tied coordinates: the (value, index) order breaks the ties
        xs = np.floor(xs * grid) / grid
    ds = Dataset(xs, (rng.random(n + 5) < 0.5).astype(np.int8))
    view = DataView(ds, np.sort(rng.choice(n + 5, size=n, replace=False)))
    indices = view.indices
    for dim in range(d):
        rk = ds.ranks[dim][indices]
        cut = median_split(view, dim)
        pivot_rank = ds.ranks[dim][cut.pivot_index]
        assert pivot_rank == np.sort(rk)[(n + 1) // 2 - 1]
        low, high = indices[rk < pivot_rank], indices[rk > pivot_rank]
        for child, reference in ((cut.low, low), (cut.high, high)):
            got = child.indices
            assert np.array_equal(got, reference)
            assert got.dtype == np.int64
            assert np.all(np.diff(got) > 0)
            assert not got.flags.writeable
            assert got.base is None and got.flags.owndata
            assert not np.shares_memory(got, indices)


@pytest.mark.parametrize(
    "dim, message",
    [
        (True, "dimension must be an integer, not a bool"),
        (np.True_, "dimension must be an integer"),
        (1.0, "dimension must be an integer, got 1.0"),
        ("0", "dimension must be an integer"),
        (2, "dimension 2 out of range for d=2"),
        (-1, "dimension -1 out of range for d=2"),
    ],
)
def test_a_dimension_that_is_no_dimension_is_refused(dim, message):
    view = Dataset(np.random.default_rng(0).random((9, 2)), np.zeros(9, dtype=np.int8)).full_view()
    for order in (strict_rank, median_split):
        with pytest.raises(ValueError, match=message):
            order(view, dim)
    cut = median_split(view, np.int64(1))
    assert type(cut.dim) is int and cut.pivot_index == median_split(view, 1).pivot_index


def test_median_split_all_identical_coordinates():
    ds = _dataset_1d([0.5] * 7)
    cut = median_split(ds.full_view(), 0)
    # ties break by index: pivot is the 4th point in index order
    assert cut.pivot_index == 3
    assert cut.low.indices.tolist() == [0, 1, 2]
    assert cut.high.indices.tolist() == [4, 5, 6]


def test_full_level_split_counts_d2(rng):
    ds = make_dataset(rng, 10, 2, dup_prob=0.0)
    level = full_level_split(ds.full_view())
    assert len(level.children) == 4
    assert len(level.cuts) == 3
    assert len(level.eaten) == 3  # one dim-1 cut plus two dim-2 cuts
    assert sum(c.n for c in level.children) == 10 - 3


def test_full_level_split_empty_view():
    ds = Dataset.empty(2)
    level = full_level_split(ds.full_view())
    assert len(level.children) == 4
    assert all(c.n == 0 for c in level.children)
    assert level.eaten == ()
    with pytest.raises(ValueError):
        level.split_records()  # structural cuts have no records


def test_full_tree_leaf_sizes_d1_k2():
    ds = _dataset_1d([i / 10 for i in range(10)])
    tree = build_full_tree(ds.full_view(), 2)
    leaves, eaten = tree.leaves, len(tree.eaten)
    assert [v.n for v in leaves] == [1, 2, 2, 2]
    assert eaten == 3


def test_build_full_tree_shape_is_always_complete_grid(rng):
    # even with far too few points the tree keeps 2^{dk} leaves
    ds = make_dataset(rng, 3, 2, dup_prob=0.0)
    tree = build_full_tree(ds.full_view(), 2)
    assert len(tree.leaves) == 16
    assert not tree.complete  # ran out of data, some cuts are structural
    assert sum(v.n for v in tree.leaves) + len(tree.eaten) == 3


def test_full_tree_conservation_and_counts(rng):
    for _ in range(20):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(0, 4))
        n = int(rng.integers(1, 300))
        ds = make_dataset(rng, n, d)
        tree = build_full_tree(ds.full_view(), k)
        assert len(tree.leaves) == 1 << (d * k)
        assert sum(v.n for v in tree.leaves) + len(tree.eaten) == n
        assert tree.leaf_counts == tuple(v.label_counts() for v in tree.leaves)


def test_leaf_bounds_examples():
    assert leaf_bounds(100, 2, 1) == (23, 25)
    assert leaf_bounds(10, 10, 2) == (0, 0)
    assert leaf_bounds(57, 0, 3) == (57, 57)  # no split, exact
    with pytest.raises(ValueError):
        leaf_bounds(-1, 1, 1)
    with pytest.raises(ValueError):
        leaf_bounds(10, 1, 0)
    for args, message in (((10, True, 1), "k must be an integer, not a bool"),
                          ((10.0, 1, 1), "n must be an integer, got 10.0"),
                          ((10, 1.5, 1), "k must be an integer, got 1.5")):
        with pytest.raises(ValueError, match=message):
            leaf_bounds(*args)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.data())
def test_leaf_sandwich_property(k, d, data):
    cells = 1 << (d * k)
    n = data.draw(st.integers(cells, 10 * cells))
    seed = data.draw(st.integers(0, 2**32 - 1))
    ds = make_dataset(np.random.default_rng(seed), n, d)
    leaves = build_full_tree(ds.full_view(), k).leaves
    lo, hi = leaf_bounds(n, k, d)
    sizes = [v.n for v in leaves]
    assert len(sizes) == cells
    assert min(sizes) >= lo
    assert max(sizes) <= hi


def test_locate_leaf_matches_view_membership(rng):
    # with distinct coordinates, geometric routing and index splitting agree
    n, d, k = 200, 2, 2
    xs = rng.random((n, d))
    ds = Dataset(xs, np.zeros(n, dtype=np.int8))
    tree = build_full_tree(ds.full_view(), k)
    assert tree.complete
    leaf_of_index = {}
    for leaf_pos, view in enumerate(tree.leaves):
        for i in view.indices:
            leaf_of_index[int(i)] = leaf_pos
    for i, pos in leaf_of_index.items():
        assert locate_leaf(tree, xs[i]) == pos


def test_locate_leaf_rejects_incomplete_tree(rng):
    ds = make_dataset(rng, 2, 2)
    tree = build_full_tree(ds.full_view(), 2)
    assert not tree.complete
    with pytest.raises(ValueError):
        locate_leaf(tree, np.array([0.5, 0.5]))


def test_full_level_split_keeps_cut_records(rng):
    # a level keeps (dim, threshold) records and eaten pivots, cut for cut the
    # same as running median_split down the cascade; None marks an empty view
    for n, d in ((57, 2), (200, 3), (3, 3), (0, 2)):
        ds = make_dataset(rng, n, d, dup_prob=0.5)
        frontier = [ds.full_view()]
        cuts, eaten = [], []
        for dim in range(d):
            nxt = []
            for v in frontier:
                if v.n == 0:
                    cuts.append(None)
                    nxt.extend((v, v))
                    continue
                cut = median_split(v, dim)
                cuts.append((cut.dim, cut.threshold))
                eaten.append(cut.pivot_index)
                nxt.extend((cut.low, cut.high))
            frontier = nxt
        level = full_level_split(ds.full_view())
        assert level.cuts == tuple(cuts)
        assert level.eaten == tuple(eaten)
        assert [c.indices.tolist() for c in level.children] == [
            v.indices.tolist() for v in frontier
        ]


def test_route_on_equivalent_partition_tree_reaches_located_leaf(rng):
    from celltree import Internal, Leaf, PartitionTree, route

    for d, k, n in ((2, 2, 300), (3, 1, 400), (3, 2, 2000)):
        ds = make_dataset(rng, n, d, dup_prob=0.0)
        full = build_full_tree(ds.full_view(), k)
        assert full.complete
        leaves = [Leaf(*counts) for counts in full.leaf_counts]

        def to_node(level_idx, pos):
            if level_idx == full.k:
                return leaves[pos]
            level = full.levels[level_idx][pos]
            children = tuple(
                to_node(level_idx + 1, (pos << d) | j) for j in range(1 << d)
            )
            return Internal(level.split_records(), level.eaten, children)

        tree = PartitionTree(root=to_node(0, 0), d=d, mode="full", config={})
        # training points include every pivot, so thresholds are hit exactly
        queries = np.vstack([ds.xs, rng.random((200, d))])
        for x in queries:
            leaf, depth = route(tree, x)
            assert depth == k
            assert leaf is leaves[locate_leaf(full, x)]


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=3),
    st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=4, max_value=300)),
    st.sampled_from([1, 2, 4, 16]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_median_split_matches_the_index_select_reference(d, n, grid, seed):
    # the value select on the narrow rank table picks the pivot, threshold
    # and children that an argpartition on the int64 ranks picks
    rng = np.random.default_rng(seed)
    xs = np.floor(rng.random((n + 5, d)) * grid) / grid  # grid-tied coordinates
    ds = Dataset(xs, (rng.random(n + 5) < 0.5).astype(np.int8))
    view = DataView(ds, np.sort(rng.choice(n + 5, size=n, replace=False)))
    indices = view.indices
    r = (n + 1) // 2
    for dim in range(d):
        rk = ds.ranks[dim][indices]
        at = np.argpartition(rk, r - 1)[r - 1]
        cut = median_split(view, dim)
        assert cut.pivot_index == indices[at]
        assert cut.threshold == ds.xs[indices[at], dim]
        assert np.array_equal(cut.low.indices, indices[rk < rk[at]])
        assert np.array_equal(cut.high.indices, indices[rk > rk[at]])


def test_cut_rows_cuts_uneven_rows_as_median_split():
    # rows of 0, 1, 2, 3 and 500 points padded to 500 columns, so most of
    # the matrix's slots are filler; each row must come out as median_split
    # cuts its own view, in either dimension
    from celltree.median import _cut_rows

    rng = np.random.default_rng(17)
    ds = Dataset(np.floor(rng.random((506, 2)) * 4) / 4, (rng.random(506) < 0.4).astype(np.int8))
    cells = [np.sort(c) for c in np.split(rng.permutation(506), [0, 1, 3, 6])]
    sizes = np.array([c.size for c in cells])
    assert sizes.tolist() == [0, 1, 2, 3, 500]
    matrix = np.zeros((5, 500), dtype=np.int32)  # filler id 0
    for row, c in zip(matrix, cells):
        row[:c.size] = c
    for cut in (0, 1):
        pivots, children = _cut_rows(matrix, sizes, cut, ds._rank_table)
        assert pivots[0] == -1
        for i, c in enumerate(cells[1:], start=1):
            split = median_split(DataView(ds, c), cut)
            assert pivots[i] == split.pivot_index
            assert np.array_equal(children[2 * i, :split.low.n], split.low.indices)
            assert np.array_equal(children[2 * i + 1, :split.high.n], split.high.indices)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0, 2]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_full_tree_levels_match_a_cascade_of_single_cuts(d, n, grid, seed, data):
    # each level cuts all its rows at once, empty rows among them; every
    # cell must come out as median_split cuts it on its own
    k = data.draw(st.integers(min_value=0, max_value=6 // d))
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    if grid:
        xs = np.floor(xs * grid) / grid
    ds = Dataset(xs, (rng.random(n) < 0.5).astype(np.int8))
    tree = build_full_tree(ds.full_view(), k)
    frontier = [ds.full_view()]
    for splits in tree.levels:
        assert len(splits) == len(frontier)
        grown = []
        for view, split in zip(frontier, splits):
            cells, cuts, eaten = [view], [], []
            for dim in range(d):
                halves = []
                for v in cells:
                    if v.n == 0:
                        cuts.append(None)
                        halves += [v, v]
                        continue
                    cut = median_split(v, dim)
                    cuts.append((dim, cut.threshold))
                    eaten.append(cut.pivot_index)
                    halves += [cut.low, cut.high]
                cells = halves
            assert split.cuts == tuple(cuts) and split.eaten == tuple(eaten)
            assert [c.indices.tolist() for c in split.children] == [c.indices.tolist() for c in cells]
            grown += cells
        frontier = grown
    assert [v.indices.tolist() for v in tree.leaves] == [v.indices.tolist() for v in frontier]
    assert tree.leaf_counts == tuple(v.label_counts() for v in frontier)
