import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltree import (
    Dataset,
    DatasetFormatError,
    DataView,
    Internal,
    LabeledPoint,
    Leaf,
    PartitionTree,
    TreeSchemaError,
    build_lookahead,
    build_randomized,
    classify,
    deserialize_tree,
    load_csv,
    LookaheadConfig,
    majority_label,
    predict_batch,
    RandomizedConfig,
    route,
    route_depths,
    save_csv,
    serialize_tree,
    strict_rank,
    tree_stats,
    validate_tree,
)
from celltree import core
from celltree.core import MAX_TREE_DEPTH, _index_dtype
from conftest import make_dataset


# ---------------------------------------------------------------------------
# data model


def test_labeled_point_validation():
    LabeledPoint((0.5, 1.0), 1)
    with pytest.raises(ValueError):
        LabeledPoint((float("nan"), 0.0), 0)
    with pytest.raises(ValueError):
        LabeledPoint((float("inf"),), 1)
    with pytest.raises(ValueError):
        LabeledPoint((0.0,), 2)
    with pytest.raises(ValueError):
        LabeledPoint((), 0)


def test_dataset_validation_and_immutability():
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    assert ds.n == 2 and ds.d == 1
    with pytest.raises(ValueError):
        ds.xs[0, 0] = 5.0
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0]]), np.array([3]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.0, 1.0]), np.array([0, 1]))  # not 2-D


def test_dataset_point_roundtrip():
    pts = [LabeledPoint((0.25, 0.75), 1), LabeledPoint((0.5, 0.5), 0)]
    ds = Dataset.from_points(pts)
    assert list(ds) == pts


_ONE_LEAF_D2 = PartitionTree(Leaf(1, 0), d=2, mode="binary", config={})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(np.zeros((3, 1)), np.zeros(2)), r"ys must have shape \(n,\)"),
        (lambda: Dataset(np.zeros((3, 1)), np.zeros((3, 1))), r"ys must have shape \(n,\)"),
        (lambda: Dataset.from_points([]), "explicit d for empty data"),
        (lambda: Dataset.from_points([LabeledPoint((0.1,), 0), LabeledPoint((0.1, 0.2), 1)]),
         "points must share one dimension"),
        (lambda: PartitionTree(Leaf(1, 0), d=1, mode="ternary", config={}), "unknown mode 'ternary'"),
        (lambda: PartitionTree(Leaf(1, 0), d=0, mode="binary", config={}), "d must be >= 1"),
        (lambda: route(_ONE_LEAF_D2, [0.5]), r"query must have shape \(2,\)"),
        (lambda: route(_ONE_LEAF_D2, [[0.5, 0.5]]), r"query must have shape \(2,\)"),
    ],
    ids=["short-ys", "column-ys", "no-points", "mixed-points", "unknown-mode", "d-0", "short-query",
         "row-query"],
)
def test_a_malformed_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_tree_without_its_root_has_no_other_unset_attribute(rng):
    tree = build_randomized(make_dataset(rng, 50, 1), RandomizedConfig(beta=0.5))
    assert "root" not in tree.__dict__
    with pytest.raises(AttributeError, match="object has no attribute 'leaves'"):
        tree.leaves
    assert getattr(tree, "leaves", None) is None
    assert tree.root is not None and "root" in tree.__dict__


def test_view_requires_ascending_indices():
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        DataView(ds, np.array([2, 0]))
    with pytest.raises(ValueError):
        DataView(ds, np.array([0, 0]))
    with pytest.raises(ValueError):
        DataView(ds, np.array([0, 7]))
    v = DataView(ds, np.array([0, 2]))
    assert v.label_counts() == (2, 0)


def test_a_view_refuses_indices_of_no_integer_dtype():
    # a boolean mask is no index list, and a float index is not truncated to one
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0]))
    for indices, dtype in ((np.array([False, True]), "bool"), (np.array([0.5, 1.7]), "float64")):
        with pytest.raises(ValueError, match=f"indices must be integers, got dtype {dtype}"):
            DataView(ds, indices)
    assert DataView(ds, []).n == 0
    assert DataView(ds, np.array([1, 2], dtype=np.uint8)).indices.tolist() == [1, 2]


def test_view_detach_preserves_content_order():
    ds = Dataset(np.array([[3.0], [1.0], [2.0], [0.5]]), np.array([1, 0, 1, 0]))
    v = DataView(ds, np.array([0, 2, 3]))
    det = v.detach()
    assert det.dataset.n == 3
    assert np.array_equal(det.xs, v.xs)
    assert np.array_equal(det.ys, v.ys)


def test_dataset_ranks_encode_the_strict_order(rng):
    ds = make_dataset(rng, 300, 3, dup_prob=1.0)
    ranks = ds.ranks
    assert ranks.shape == (3, 300) and ranks.dtype == np.int64
    assert not ranks.flags.writeable
    assert ds.ranks is ranks  # built once, then kept
    for dim in range(3):
        assert np.array_equal(np.argsort(ranks[dim]), strict_rank(ds.full_view(), dim))


def test_detached_view_ranks_its_own_points(rng):
    ds = make_dataset(rng, 200, 2, dup_prob=1.0)
    view = DataView(ds, np.flatnonzero(rng.random(200) < 0.4))
    det = view.detach()
    assert det.dataset.ranks.shape == (2, view.n)
    for dim in range(2):
        # the local ranks order the cell's points as the global ranks do
        assert np.array_equal(
            np.argsort(det.dataset.ranks[dim]), np.argsort(ds.ranks[dim][view.indices])
        )


def test_the_rank_table_is_narrow_and_equals_ranks(rng):
    ds = make_dataset(rng, 300, 3, dup_prob=1.0)
    table = ds._rank_table
    assert table.shape == (3, 300) and table.dtype == np.int32
    assert not table.flags.writeable
    assert ds._rank_table is table  # built once, then kept
    assert ds._ranks is None  # the int64 ranks wait for a caller
    assert np.array_equal(ds.ranks, table)
    assert ds.ranks.dtype == np.int64 and ds._rank_table is table


def test_the_index_dtype_widens_at_two_to_the_31():
    assert _index_dtype(0) is np.int32
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64


@pytest.mark.parametrize("algo", ["randomized", "lookahead"])
def test_builders_read_only_the_narrow_rank_table(algo, rng):
    xs = np.round(rng.random((3000, 2)) * 64) / 64
    ds = Dataset(xs, ((xs[:, 0] < 0.5) ^ (xs[:, 1] < 0.5)).astype(np.int8))  # a checkerboard
    if algo == "randomized":
        tree = build_randomized(ds, RandomizedConfig(beta=0.99, seed=11))
    else:
        tree = build_lookahead(ds, LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=11))
    assert tree_stats(tree).internals > 0
    assert ds._table is not None and ds._table.dtype == np.int32
    assert ds._ranks is None


# ---------------------------------------------------------------------------
# strict order and majority


def test_strict_rank_tie_example():
    ds = Dataset(np.array([[0.5], [0.1], [0.5]]), np.array([0, 0, 0]))
    assert strict_rank(ds.full_view(), 0).tolist() == [1, 0, 2]


@settings(max_examples=200)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False).map(
            lambda v: round(v, 1)  # force duplicates
        ),
        min_size=1,
        max_size=40,
    )
)
def test_strict_rank_is_strict_total_order(values):
    ds = Dataset(np.array(values).reshape(-1, 1), np.zeros(len(values), dtype=np.int8))
    ranked = strict_rank(ds.full_view(), 0)
    assert sorted(ranked.tolist()) == list(range(len(values)))
    keys = [(values[i], i) for i in ranked]
    assert keys == sorted(keys)
    # repeat invocation is identical
    assert ranked.tolist() == strict_rank(ds.full_view(), 0).tolist()


def test_strict_rank_dim_out_of_range():
    ds = Dataset(np.array([[0.0, 1.0]]), np.array([0]))
    with pytest.raises(ValueError):
        strict_rank(ds.full_view(), 2)


def test_majority_label():
    assert majority_label(3, 5) == 1
    assert majority_label(5, 3) == 0
    assert majority_label(4, 4) == 0  # tie to class 0
    assert majority_label(0, 0) == 0  # empty leaf predicts 0
    with pytest.raises(ValueError):
        majority_label(-1, 0)


# ---------------------------------------------------------------------------
# routing


def _two_leaf_tree(threshold=0.5):
    root = Internal(((0, threshold),), (0,), (Leaf(3, 1), Leaf(1, 3)))
    return PartitionTree(root=root, d=1, mode="binary", config={"algo": "randomized"})


def test_route_boundary_goes_high():
    tree = _two_leaf_tree()
    leaf, depth = route(tree, [0.49])
    assert (leaf.count0, leaf.count1, depth) == (3, 1, 1)
    leaf, _ = route(tree, [0.5])  # equality routes high
    assert (leaf.count0, leaf.count1) == (1, 3)


def test_route_depth_counts_levels():
    inner = Internal(((0, 0.25),), (1,), (Leaf(1, 0), Leaf(0, 1)))
    root = Internal(((0, 0.5),), (0,), (inner, Leaf(2, 2)))
    tree = PartitionTree(root=root, d=1, mode="binary", config={})
    assert route(tree, [0.1])[1] == 2
    assert route(tree, [0.9])[1] == 1
    assert classify(tree, [0.9]) == 0  # tie leaf


def test_full_mode_route_child_order(rng):
    # one full level on d=2: children ordered (low,low),(low,high),(high,low),(high,high)
    xs = rng.random((200, 2))
    ys = (xs[:, 0] > 0.5).astype(np.int8)  # separable, so the root commits a split
    tree = build_lookahead(Dataset(xs, ys), LookaheadConfig(alpha=0.2, beta=0.2, d=2, seed=1))
    assert isinstance(tree.root, Internal)
    node = tree.root
    d1, t1 = node.splits[0]
    probe = np.array([t1 - 1e-9 if d1 == 0 else 0.0, t1 - 1e-9 if d1 == 1 else 0.0])
    # probe below the first cut must land in the low half (children 0 or 1)
    prefix = 0
    for lvl in range(node.levels):
        dim, thr = node.splits[(1 << lvl) - 1 + prefix]
        prefix = (prefix << 1) | (0 if probe[dim] < thr else 1)
    assert prefix < 2


def test_predict_batch_matches_scalar_route(rng):
    data = make_dataset(rng, 600, 2)
    trees = [
        build_randomized(data, RandomizedConfig(beta=0.3, seed=5)),
        build_lookahead(data, LookaheadConfig(alpha=0.2, beta=0.1, d=2, seed=5)),
    ]
    X = rng.random((500, 2))
    for tree in trees:
        batch = predict_batch(tree, X)
        scalar = np.array([classify(tree, x) for x in X])
        assert np.array_equal(batch, scalar)


def test_classify_is_total_outside_unit_cube(rng):
    data = make_dataset(rng, 200, 2)
    tree = build_randomized(data, RandomizedConfig(beta=0.4, seed=2))
    for x in ([-10.0, 50.0], [0.0, 0.0], [1e12, -1e12]):
        assert classify(tree, x) in (0, 1)


def test_routing_rejects_non_finite_queries(rng):
    data = make_dataset(rng, 200, 2)
    tree = build_randomized(data, RandomizedConfig(beta=0.4, seed=2))
    for bad in ([np.nan, np.nan], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            route(tree, bad)
        with pytest.raises(ValueError, match="finite"):
            classify(tree, bad)
        batch = np.array([[0.5, 0.5], bad])
        with pytest.raises(ValueError, match="finite"):
            predict_batch(tree, batch)
        with pytest.raises(ValueError, match="finite"):
            route_depths(tree, batch)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_is_canonical_and_roundtrips(rng):
    data = make_dataset(rng, 400, 2)
    tree = build_lookahead(data, LookaheadConfig(alpha=0.2, beta=0.1, d=2, seed=9))
    doc = serialize_tree(tree)
    assert doc == serialize_tree(tree)  # repeatable bytes
    again = deserialize_tree(doc)
    assert serialize_tree(again) == doc  # serialize . deserialize . serialize fixed point
    X = rng.random((1000, 2))
    assert np.array_equal(predict_batch(tree, X), predict_batch(again, X))


def _canonical_json(doc: str) -> str:
    """The canonical bytes as the json module writes them from the parsed document."""
    return json.dumps(json.loads(doc), sort_keys=True, separators=(",", ":")) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    algo=st.sampled_from(["randomized", "lookahead"]),
    d=st.integers(1, 3),
    n=st.integers(1, 300),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_serialize_matches_the_json_module_and_roundtrips(algo, d, n, grid, seed):
    rng = np.random.default_rng(seed)
    xs = rng.random((n, d))
    if grid:  # duplicate coordinates: ties break by point index
        xs = np.floor(xs * 4) / 4
    data = Dataset(xs, (rng.random(n) < 0.5).astype(np.int8))
    if algo == "randomized":
        tree = build_randomized(data, RandomizedConfig(beta=0.9, seed=seed))
    else:
        tree = build_lookahead(data, LookaheadConfig(alpha=0.1, beta=0.1, d=d, seed=seed))
    doc = serialize_tree(tree)
    assert doc == _canonical_json(doc)
    assert serialize_tree(deserialize_tree(doc)) == doc


def test_serialize_rejects_non_scalar_config():
    tree = PartitionTree(root=Leaf(1, 0), d=1, mode="binary", config={"bad": [1, 2]})
    with pytest.raises(TreeSchemaError):
        serialize_tree(tree)


def _leaf_doc():
    return {
        "mode": "binary",
        "d": 1,
        "config": {},
        "root": {"count0": 1, "count1": 0},
    }


def _dump(doc):
    return json.dumps(doc)


def test_deserialize_rejects_corrupt_documents():
    with pytest.raises(TreeSchemaError):
        deserialize_tree("not json at all")
    doc = _leaf_doc()
    doc["mode"] = "ternary"
    with pytest.raises(TreeSchemaError):
        deserialize_tree(_dump(doc))
    doc = _leaf_doc()
    doc["root"] = {"count0": -1, "count1": 0}
    with pytest.raises(TreeSchemaError):
        deserialize_tree(_dump(doc))
    doc = _leaf_doc()
    doc["root"] = {"splits": [[1, 0.5]], "eaten": 2, "children": [
        {"count0": 0, "count1": 0}, {"count0": 0, "count1": 0}]}
    with pytest.raises(TreeSchemaError):  # eaten != cut count
        deserialize_tree(_dump(doc))
    doc = _leaf_doc()
    doc["root"] = {"splits": [[2, 0.5]], "eaten": 1, "children": [
        {"count0": 0, "count1": 0}, {"count0": 0, "count1": 0}]}
    with pytest.raises(TreeSchemaError):  # dim out of range for d=1
        deserialize_tree(_dump(doc))
    doc = _leaf_doc()
    doc["root"] = {"splits": [[1, 0.5]], "eaten": 1, "children": [{"count0": 0, "count1": 0}]}
    with pytest.raises(TreeSchemaError):  # wrong arity
        deserialize_tree(_dump(doc))
    doc = _leaf_doc()
    doc["extra"] = 1
    with pytest.raises(TreeSchemaError):
        deserialize_tree(_dump(doc))


@pytest.mark.parametrize(
    "path",
    [("d",), ("root", "splits", 0, 0), ("root", "eaten"), ("root", "children", 0, "count0")],
    ids=["d", "cut-dimension", "eaten", "leaf-count"],
)
def test_deserialize_rejects_json_booleans(path):
    doc = _leaf_doc()
    doc["root"] = {"splits": [[1, 0.5]], "eaten": 1, "children": [
        {"count0": 1, "count1": 0}, {"count0": 0, "count1": 1}]}
    deserialize_tree(_dump(doc))  # valid with the integer 1 in every field
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = True
    with pytest.raises(TreeSchemaError):
        deserialize_tree(_dump(doc))


def nested_document(depth: int) -> str:
    """A binary d=1 document whose low branch is ``depth`` splits deep."""
    leaf = '{"count0":0,"count1":0}'
    close = "," + leaf + '],"eaten":1,"splits":[[1,0.5]]}'
    return (
        '{"config":{},"d":1,"mode":"binary","root":'
        + '{"children":[' * depth + leaf + close * depth + "}"
    )


def test_deserialize_rejects_deep_nesting():
    assert deserialize_tree(nested_document(50)).root is not None
    with pytest.raises(TreeSchemaError, match="nested too deeply"):
        deserialize_tree(nested_document(900))


def _split_doc(threshold: str) -> str:
    return (
        '{"config":{},"d":1,"mode":"binary","root":{"children":[{"count0":0,"count1":0},'
        '{"count0":0,"count1":0}],"eaten":1,"splits":[[1,' + threshold + "]]}}"
    )


def test_deserialize_rejects_a_threshold_beyond_the_float_range():
    assert deserialize_tree(_split_doc("1" + "0" * 300)).root.splits[0][1] == 1e300
    with pytest.raises(TreeSchemaError, match="cut threshold must be finite"):
        deserialize_tree(_split_doc("1" + "0" * 400))
    with pytest.raises(TreeSchemaError):  # too many digits for int() at all
        deserialize_tree(_split_doc("1" * 5000))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_deserialize_rejects_non_finite_config_values(literal):
    with pytest.raises(TreeSchemaError, match="finite"):
        deserialize_tree('{"config":{"n":' + literal + '},"d":1,"mode":"binary",'
                         '"root":{"count0":1,"count1":0}}')


def test_serialize_rejects_non_finite_config_values():
    tree = PartitionTree(root=Leaf(1, 0), d=1, mode="binary", config={"alpha": math.nan})
    with pytest.raises(TreeSchemaError, match="finite"):
        serialize_tree(tree)


def test_validate_tree_treats_a_boolean_n_as_unknown():
    tree = PartitionTree(root=Leaf(2, 3), d=1, mode="binary", config={"n": True})
    assert validate_tree(tree).leaf_points == 5
    # an n passed in is read by the one integer rule
    with pytest.raises(ValueError, match="n must be an integer, not a bool"):
        validate_tree(tree, True)
    assert validate_tree(tree, np.int64(5)).leaf_points == 5
    with pytest.raises(TreeSchemaError, match="conservation"):
        validate_tree(PartitionTree(root=Leaf(2, 3), d=1, mode="binary", config={"n": 1}))


def _chain(depth: int) -> PartitionTree:
    """A binary d=1 tree whose low branch is ``depth`` splits deep, built without recursion."""
    node = Leaf(1, 0)
    for _ in range(depth):
        node = Internal(((0, 0.5),), (-1,), (node, Leaf(0, 1)))
    return PartitionTree(root=node, d=1, mode="binary", config={"n": 2 * depth + 1})


def test_serialize_rejects_a_tree_too_deep_to_write():
    with pytest.raises(TreeSchemaError, match="nested too deeply to serialize"):
        serialize_tree(_chain(2999))
    doc = serialize_tree(_chain(300))
    assert serialize_tree(deserialize_tree(doc)) == doc
    assert tree_stats(deserialize_tree(doc)).max_depth == 300


def test_serialize_rejects_a_cut_dimension_outside_the_tree():
    leaves = (Leaf(1, 0), Leaf(0, 1))
    tree = PartitionTree(Internal(((3, 0.5),), (-1,), leaves), d=1, mode="binary", config={})
    with pytest.raises(TreeSchemaError, match="cut dimension 3 out of range 0..0"):
        serialize_tree(tree)
    tree = PartitionTree(Internal(((-1, 0.5),), (-1,), leaves), d=2, mode="binary", config={})
    with pytest.raises(TreeSchemaError, match="cut dimension -1 out of range 0..1"):
        serialize_tree(tree)


@pytest.mark.parametrize("thr", [math.nan, math.inf, -math.inf])
def test_serialize_rejects_a_non_finite_threshold(thr):
    inner = Internal(((0, thr),), (-1,), (Leaf(1, 0), Leaf(0, 1)))
    tree = PartitionTree(Internal(((0, 0.5),), (-1,), (inner, Leaf(2, 0))), d=1,
                         mode="binary", config={})
    with pytest.raises(TreeSchemaError, match="cut threshold must be finite"):
        serialize_tree(tree)


_TWO_LEAVES = (Leaf(1, 0), Leaf(0, 1))


@pytest.mark.parametrize(
    "bad, message",
    [
        (Internal(((0, 0.5),), (-1,), (*_TWO_LEAVES, Leaf(1, 1))), "3 children, expected 2"),
        (Internal(((0, 0.5), (0, 0.7)), (-1, -1), _TWO_LEAVES), "2 cuts, expected 1"),
        (Internal(((0, 0.5),), (-1, -1), _TWO_LEAVES), "eaten pivot count must equal cut count"),
        (Leaf(-1, 0), "leaf counts must be nonnegative integers"),
        (Leaf(True, 0), "leaf counts must be nonnegative integers"),
        (Leaf(1.5, 0), "leaf counts must be nonnegative integers"),
        (Leaf(np.int64(3), 0), "leaf counts must be nonnegative integers"),
    ],
    ids=["three-children", "two-cuts", "two-eaten", "negative-count", "boolean-count",
         "float-count", "numpy-count"],
)
def test_serialize_refuses_a_node_the_reader_refuses(bad, message):
    tree = PartitionTree(Internal(((0, 0.25),), (-1,), (bad, Leaf(2, 0))), d=1,
                         mode="binary", config={})
    with pytest.raises(TreeSchemaError, match=message):
        validate_tree(tree)
    with pytest.raises(TreeSchemaError, match=message):
        serialize_tree(tree)


@pytest.mark.parametrize(
    "cut, message",
    [
        ((0.0, 0.5), "cut dimension 0.0 is not an integer"),
        ((True, 0.5), "cut dimension True is not an integer"),
        ((np.int64(0), 0.5), "cut dimension .*0.* is not an integer"),
        ((0, "0.5"), "cut threshold '0.5' is not a real number"),
    ],
    ids=["float-dimension", "boolean-dimension", "numpy-dimension", "string-threshold"],
)
def test_a_cut_must_be_an_integer_dimension_and_a_real_threshold(cut, message):
    tree = PartitionTree(Internal((cut,), (-1,), _TWO_LEAVES), d=2, mode="binary", config={})
    with pytest.raises(TreeSchemaError, match=message):
        validate_tree(tree)
    with pytest.raises(TreeSchemaError, match=message):
        serialize_tree(tree)


def test_the_depth_limit_holds_on_both_sides():
    doc = serialize_tree(_chain(MAX_TREE_DEPTH))
    assert tree_stats(deserialize_tree(doc)).max_depth == MAX_TREE_DEPTH
    assert serialize_tree(deserialize_tree(doc)) == doc
    with pytest.raises(TreeSchemaError, match="tree nested too deeply to serialize"):
        serialize_tree(_chain(MAX_TREE_DEPTH + 1))
    with pytest.raises(TreeSchemaError, match="document nested too deeply"):
        deserialize_tree(nested_document(MAX_TREE_DEPTH + 1))


def _called_deep(frames: int, fn, *args):
    """fn(*args), called ``frames`` Python frames below this one."""
    return fn(*args) if frames == 0 else _called_deep(frames - 1, fn, *args)


def test_serialize_does_not_depend_on_the_callers_stack():
    tree = _chain(60)
    assert _called_deep(900, serialize_tree, tree) == serialize_tree(tree)


@pytest.mark.parametrize("d", [np.int64(1), True, 1.0], ids=["numpy-d", "boolean-d", "float-d"])
def test_serialize_refuses_a_d_the_reader_refuses(d):
    tree = PartitionTree(Leaf(1, 0), d=d, mode="binary", config={})
    with pytest.raises(TreeSchemaError, match="d must be a positive integer"):
        serialize_tree(tree)


def test_a_threshold_beyond_the_float_range_is_not_finite():
    tree = PartitionTree(Internal(((0, 10**400),), (-1,), _TWO_LEAVES), d=1, mode="binary",
                         config={})
    with pytest.raises(TreeSchemaError, match="cut threshold must be finite"):
        validate_tree(tree)
    with pytest.raises(TreeSchemaError, match="cut threshold must be finite"):
        serialize_tree(tree)


def test_full_mode_arity_enforced_on_parse():
    doc = {
        "mode": "full",
        "d": 2,
        "config": {},
        "root": {
            "splits": [[1, 0.5]],
            "eaten": 1,
            "children": [{"count0": 0, "count1": 0}] * 2,
        },
    }
    with pytest.raises(TreeSchemaError):  # full mode d=2 needs 4 children, 3 cuts
        deserialize_tree(json.dumps(doc))


# ---------------------------------------------------------------------------
# CSV I/O


def test_load_csv_with_and_without_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x1,x2,y\n0.1,0.2,0\n0.3,0.4,1\n")
    ds = load_csv(p)
    assert (ds.n, ds.d) == (2, 2)
    assert ds.ys.tolist() == [0, 1]
    q = tmp_path / "b.csv"
    q.write_text("0.1,0.2,0\n0.3,0.4,1\n")
    ds2 = load_csv(q)
    assert np.array_equal(ds.xs, ds2.xs)


def test_load_csv_header_only_gives_empty_dataset(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("x1,x2,x3,y\n")
    ds = load_csv(p)
    assert (ds.n, ds.d) == (0, 3)


def test_load_csv_error_reports_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,y\n0.1,0\noops,1\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(p)
    p.write_text("x1,y\n0.1,0\n0.2,7\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(p)
    p.write_text("x1,y\n0.1,0\n0.2,0.3,1\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(p)
    p.write_text("")
    with pytest.raises(DatasetFormatError):
        load_csv(p)


def test_csv_roundtrip(tmp_path, rng):
    ds = make_dataset(rng, 50, 3)
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(ds.xs, back.xs)
    assert np.array_equal(ds.ys, back.ys)


@pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
def test_load_csv_names_the_line_of_a_non_finite_feature(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"x1,y\n0.1,0\n0.2,1\n{cell},0\n0.4,1\n")
    with pytest.raises(DatasetFormatError, match=f"line 4: feature '{cell}' is not finite"):
        load_csv(p)


def test_load_csv_rejects_undecodable_bytes(tmp_path):
    p = tmp_path / "utf16.csv"
    p.write_bytes(b"\xff\xfe" + "x1,y\n0.5,1\n".encode("utf-16-le"))
    with pytest.raises(DatasetFormatError, match="UTF-8"):
        load_csv(p)


@pytest.mark.parametrize(
    "ys",
    [[256, 1], [257.0, 0.0], [0.5, 1.0], [-255, 0], [math.nan, 1.0], ["0", "1"], [b"0", b"1"], [None, 0]],
    ids=["256", "257.0", "0.5", "-255", "nan", "str", "bytes", "none"],
)
def test_dataset_checks_labels_before_the_int8_cast(ys):
    for labels in (ys, np.array(ys)):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            Dataset(np.zeros((2, 1)), labels)
    for good in ([0, 1], [0.0, 1.0], [False, True], np.array([0, 1], dtype=np.uint8)):
        assert Dataset(np.zeros((2, 1)), good).ys.tolist() == [0, 1]


def _owned_copy_of(array, source):
    return (array.base is None and not array.flags.writeable and array.flags.c_contiguous
            and np.array_equal(array, source))


def test_dataset_and_view_hold_one_owned_read_only_copy():
    table = np.arange(12, dtype=np.float64).reshape(4, 3) % 2
    xs, ys = table[:, :-1], table[:, -1]  # the non-contiguous slices load_csv passes
    ds = Dataset(xs, ys)
    assert ds.ys.dtype == np.int8 and ds.xs.dtype == np.float64
    assert _owned_copy_of(ds.xs, xs) and _owned_copy_of(ds.ys, ys)
    view = DataView(ds, [0, 2, 3])
    assert view.indices.dtype == np.int64 and _owned_copy_of(view.indices, [0, 2, 3])
    one = Dataset(np.array([[0.5, 0.25]]), np.array(1))  # a 0-d label is one row's
    assert one.ys.tolist() == [1] and _owned_copy_of(one.ys, [1])
    assert DataView(ds, 2).indices.tolist() == [2] and _owned_copy_of(DataView(ds, 2).indices, [2])
    with pytest.raises(ValueError, match="xs must have shape"):
        Dataset(np.float64(0.5), np.array(1))


def test_a_bad_leaf_is_refused_before_the_tree_is_assembled(monkeypatch):
    def assemble(generations):
        raise AssertionError("_assemble ran on a document with a bad leaf")

    monkeypatch.setattr(core, "_assemble", assemble)
    doc = ('{"config":{},"d":1,"mode":"binary","root":{"children":[{"count0":-1,"count1":0},'
           '{"count0":0,"count1":1}],"eaten":1,"splits":[[1,0.5]]}}')
    with pytest.raises(TreeSchemaError, match="leaf counts must be nonnegative integers"):
        deserialize_tree(doc)


def _three_deep(bad: str) -> str:
    """A binary d = 2 document whose node three splits below the root is ``bad``."""
    leaf = '{"count0":1,"count1":0}'
    node = bad
    for dim in (2, 1, 2):
        node = '{"children":[' + leaf + "," + node + '],"eaten":1,"splits":[[' + str(dim) + ",0.5]]}"
    return '{"config":{},"d":2,"mode":"binary","root":' + node + "}"


_LEAF = '{"count0":0,"count1":1}'


@pytest.mark.parametrize(
    "bad, message",
    [
        ('{"count0":-1,"count1":0}', "leaf counts must be nonnegative integers"),
        ('{"children":[' + ",".join([_LEAF] * 3) + '],"eaten":1,"splits":[[1,0.5]]}',
         "internal node has 3 children, expected 2"),
        ('{"children":[' + _LEAF + "," + _LEAF + '],"eaten":2,"splits":[[1,0.5],[2,0.5]]}',
         "internal node has 2 cuts, expected 1"),
        ('{"children":[' + _LEAF + "," + _LEAF + '],"eaten":2,"splits":[[1,0.5]]}',
         "eaten pivot count must equal cut count"),
        ('{"children":[' + _LEAF + "," + _LEAF + '],"eaten":1,"splits":[[1,1' + "0" * 400 + "]]}",
         "cut threshold must be finite"),
        ('{"children":[' + _LEAF + "," + _LEAF + '],"eaten":1,"splits":[[3,0.5]]}',
         r"cut must be \[dim, threshold\] with dim in 1..2"),
        ('{"children":[' + _LEAF + "," + _LEAF + '],"eaten":1,"splits":[[true,0.5]]}',
         r"cut must be \[dim, threshold\] with dim in 1..2"),
    ],
    ids=["leaf-count", "arity", "cut-count", "eaten-count", "non-finite-threshold",
         "wire-dimension-out-of-range", "wire-dimension-true"],
)
def test_a_bad_node_three_levels_down_is_refused(bad, message):
    assert tree_stats(deserialize_tree(_three_deep(_LEAF))).max_depth == 3
    with pytest.raises(TreeSchemaError, match=message):
        deserialize_tree(_three_deep(bad))
