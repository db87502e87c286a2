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
