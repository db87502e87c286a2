"""Untraced builds cut in storage order, the points sorted by their
dimension-0 rank; traced builds, the per-cell reference and ``Dataset.ranks``
keep dataset order. Nothing a build returns may show which order it cut in,
nor which of the two rank tables a dataset built first.
"""
import numpy as np
import pytest

from celltree import (
    BuildTrace,
    CellTask,
    Dataset,
    LookaheadConfig,
    PartitionTree,
    RandomizedConfig,
    build_lookahead,
    build_randomized,
    median_split,
    randomized_decision,
    run_cells,
    serialize_tree,
    strict_rank,
    tree_stats,
)
from celltree.lookahead import lookahead_decision


def _config(algo: str, d: int):
    if algo == "randomized":
        return RandomizedConfig(beta=0.99, seed=7)
    return LookaheadConfig(alpha=0.3 / d, beta=0.2, d=d, seed=7)


def _build(algo: str, data: Dataset, config, trace=None) -> str:
    build = build_randomized if algo == "randomized" else build_lookahead
    return serialize_tree(build(data, config, trace=trace))


def _reference(algo: str, data: Dataset, config) -> str:
    """The per-cell ``run_cells`` document, wrapped as the builders wrap
    their kernels' records."""
    if algo == "randomized":
        decide, mode, params = randomized_decision(config.beta), "binary", {"beta": config.beta}
    else:
        decide, mode, params = lookahead_decision(config), "full", {"alpha": config.alpha, "beta": config.beta}
    node = run_cells(CellTask(data.full_view(), config.seed), decide)
    return serialize_tree(PartitionTree(root=node, d=data.d, mode=mode, config={
        "algo": algo, **params, "seed": config.seed, "n": data.n}))


def _points(n: int, d: int, layout: str, grid: bool, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates whose rows run in descending dimension-0 order, or whose
    dimension 0 is constant (storage order is then dataset order), labeled
    by a 2^d checker, where a constant dimension 0's halves are the two
    halves of the rows."""
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    if grid:
        xs = np.floor(xs * 8) / 8
    if layout == "descending":
        xs = xs[np.argsort(-xs[:, 0], kind="stable")]
    halves = np.floor(2 * xs)
    if layout == "constant":
        xs[:, 0] = 0.5
        halves[:, 0] = np.arange(n) >= n // 2  # the two halves of the rows
    return xs, (halves.sum(axis=1) % 2).astype(np.int8)


@pytest.mark.parametrize("algo", ("randomized", "lookahead"))
@pytest.mark.parametrize("layout", ("descending", "constant"))
@pytest.mark.parametrize("grid", (False, True))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_build_far_from_dataset_order_gives_the_per_cell_document(algo, layout, grid, d):
    xs, ys = _points(3_000, d, layout, grid)
    config = _config(algo, d)
    built = Dataset(xs, ys)
    tree = (build_randomized if algo == "randomized" else build_lookahead)(built, config)
    assert built._indexed is None  # the untraced build read the storage table alone
    assert tree_stats(tree).internals  # the tree splits, so the order it cut in could show
    assert serialize_tree(tree) == _reference(algo, Dataset(xs, ys), config)


@pytest.mark.parametrize("algo", ("randomized", "lookahead"))
@pytest.mark.parametrize("layout", ("descending", "constant"))
@pytest.mark.parametrize("n", (0, 1, 2, 3))
@pytest.mark.parametrize("d", (1, 2))
def test_a_tiny_build_gives_the_per_cell_document(algo, layout, n, d):
    xs, ys = _points(n, d, layout, False)
    config = _config(algo, d)
    assert _build(algo, Dataset(xs, ys), config) == _reference(algo, Dataset(xs, ys), config)


def _splits(data: Dataset) -> list:
    """Every dimension's median split of the root, as plain values."""
    splits = [median_split(data.full_view(), dim) for dim in range(data.d)]
    return [(s.pivot_index, s.threshold, s.low.indices.tolist(), s.high.indices.tolist()) for s in splits]


@pytest.mark.parametrize("algo", ("randomized", "lookahead"))
@pytest.mark.parametrize("layout", ("descending", "constant"))
def test_the_first_table_built_changes_nothing(algo, layout):
    # one dataset runs the steps in the order untraced build, traced build,
    # median_split, ranks, so the storage table comes first; another in the
    # reverse order, so the dataset-order table does
    xs, ys = _points(2_000, 2, layout, True)
    config = _config(algo, 2)
    forward, backward = Dataset(xs, ys), Dataset(xs, ys)
    fresh = {  # each step on a fresh dataset of its own
        "untraced": _build(algo, Dataset(xs, ys), config),
        "ranks": Dataset(xs, ys).ranks.tolist(),
    }
    trace = BuildTrace()
    fresh["traced"], fresh["lines"] = _build(algo, Dataset(xs, ys), config, trace), trace.lines()
    fresh["splits"] = _splits(Dataset(xs, ys))

    doc = _build(algo, forward, config)
    assert forward._table is not None and forward._indexed is None
    trace = BuildTrace()
    got = {"untraced": doc, "traced": _build(algo, forward, config, trace), "lines": trace.lines()}
    got["splits"] = _splits(forward)
    got["ranks"] = forward.ranks.tolist()
    assert got == fresh

    ranks = backward.ranks.tolist()
    assert backward._indexed is not None and backward._table is None
    splits = _splits(backward)
    trace = BuildTrace()
    got = {"ranks": ranks, "splits": splits, "traced": _build(algo, backward, config, trace), "lines": trace.lines()}
    got["untraced"] = _build(algo, backward, config)
    assert got == fresh

    assert len(fresh["lines"]) > 1
    assert fresh["untraced"] == fresh["traced"] == _reference(algo, Dataset(xs, ys), config)
    for dim in range(2):  # the ranks encode the strict (value, index) order
        assert np.array_equal(np.argsort(fresh["ranks"][dim]), strict_rank(Dataset(xs, ys).full_view(), dim))
    # the two datasets hold the same tables, whichever was built first
    for name in ("_order", "_table", "_labels", "_indexed"):
        assert np.array_equal(getattr(forward, name), getattr(backward, name))


def test_the_storage_table_is_the_rank_table_in_dimension_0_order():
    xs, ys = _points(500, 3, "descending", True)
    data = Dataset(xs, ys)
    order, table, labels = data._storage
    rows = np.array(table[1:])
    assert order.dtype == rows.dtype == np.int32 and labels.dtype == np.int8
    assert not (order.flags.writeable or labels.flags.writeable or any(row.flags.writeable for row in table[1:]))
    assert np.array_equal(order, strict_rank(data.full_view(), 0))
    # storage ids are dimension 0's ranks, which the table keeps no row for
    assert table[0] is None and len(table) == 3
    assert np.array_equal(data._rank_table[0, order], np.arange(500))
    assert np.array_equal(rows, data._rank_table[1:, order])
    assert np.array_equal(labels, ys[order])


@pytest.mark.parametrize("algo", ("randomized", "lookahead"))
def test_an_untraced_only_dataset_holds_one_rank_table(algo):
    n, d = 100_000, 2
    rng = np.random.default_rng(5)
    xs = rng.random((n, d))
    data = Dataset(xs, ((xs[:, 0] < 0.5) ^ (xs[:, 1] < 0.5)).astype(np.int8))
    assert tree_stats(build_randomized(data, _config(algo, d)) if algo == "randomized"
                      else build_lookahead(data, _config(algo, d))).internals
    cached = [getattr(data, name) for name in Dataset.__slots__ if name not in ("xs", "ys")]
    held = sum(array.nbytes for array in cached if array is not None)
    assert held <= 4 * d * n + 5 * n


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("algo", ("randomized", "lookahead"))
def test_an_untraced_only_dataset_holds_no_row_for_dimension_0(algo, d):
    # int32 ranks for dimensions 1..d-1, the int32 order and the int8 labels
    n = 3_000
    xs, ys = _points(n, d, "descending", False)
    data = Dataset(xs, ys)
    _build(algo, data, _config(algo, d))
    cached = [getattr(data, name) for name in Dataset.__slots__ if name not in ("xs", "ys")]
    assert sum(array.nbytes for array in cached if array is not None) == 4 * (d - 1) * n + 5 * n


@pytest.mark.parametrize("sizes", ([0, 1, 2, 3, 500], [499, 500, 500], [500, 500]))
def test_a_cut_where_the_ids_are_the_ranks_selects_what_the_ranks_select(sizes):
    # storage ids are dimension 0's ranks, so a row's ascending ids are its
    # points in order, with or without rows shorter than the width
    from celltree.median import _cut_positions, _cut_rows

    table = np.arange(1_506, dtype=np.int32)[None]  # ids that are their own ranks
    cells = [np.sort(c) for c in np.split(np.random.default_rng(1).permutation(1_506), np.cumsum(sizes))]
    matrix = np.zeros((len(sizes), 500), dtype=np.int32)  # filler id 0
    for row, c in zip(matrix, cells):
        row[:c.size] = c
    kept = np.array(sizes)
    want_pivots, want = _cut_rows(matrix, kept, 0, table)
    pivots, got = _cut_positions(matrix, kept)
    assert np.array_equal(pivots, want_pivots)
    children = (np.maximum(kept[:, None] - (1, 0), 0) // 2).ravel()
    for m, row, wanted in zip(children.tolist(), got, want):
        assert np.array_equal(row[:m], wanted[:m])
    # a matrix of empty rows only has no column to cut
    empty, none = np.zeros((3, 0), dtype=np.int32), np.zeros(3, dtype=np.int64)
    for got, want in zip(_cut_positions(empty, none), _cut_rows(empty, none, 0, table)):
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
