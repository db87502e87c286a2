"""Shared data model and tree representation.

A dataset is an ordered list of labeled points. Tree builders never move or
copy the points; they pass around views (index subsets) of one immutable
dataset. Trees are served as immutable nodes plus a canonical JSON document
so that identical trees serialize to identical bytes.

Conventions used throughout the package:

* labels are 0/1, majority ties go to class 0
* routing sends x low iff x[dim] < threshold, equality routes high
* sort order on a coordinate is strict: ties break by original point index
* dimensions are 0-based in memory and 1-based in the serialized document
"""
from __future__ import annotations

import csv
import json
import math
import os
import stat
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

import numpy as np


class DatasetFormatError(ValueError):
    """Malformed dataset file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TreeSchemaError(ValueError):
    """Tree document failed schema validation."""


@dataclass(frozen=True)
class LabeledPoint:
    """One observation: a coordinate vector and a binary label."""

    x: tuple[float, ...]
    y: int

    def __post_init__(self):
        if len(self.x) == 0:
            raise ValueError("point must have at least one coordinate")
        if not all(math.isfinite(v) for v in self.x):
            raise ValueError("coordinates must be finite")
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y!r}")


class Dataset:
    """Immutable array-backed collection of labeled points.

    ``xs`` has shape (n, d) float64 and ``ys`` shape (n,) int8. Arrays are
    copied on construction and marked read-only, so views handed to builders
    can never be mutated behind their back. ``ranks`` is the per-dimension
    presort, built on first use and kept for the dataset's lifetime.
    """

    __slots__ = ("xs", "ys", "_ranks")

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.int8)
        if xs.ndim != 2 or xs.shape[1] < 1:
            raise ValueError("xs must have shape (n, d) with d >= 1")
        if ys.shape != (xs.shape[0],):
            raise ValueError("ys must have shape (n,)")
        if xs.size and not np.isfinite(xs).all():
            raise ValueError("coordinates must be finite")
        if ys.size and not np.isin(ys, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        xs = xs.copy()
        ys = ys.copy()
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "_ranks", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Dataset is immutable")

    @property
    def ranks(self) -> np.ndarray:
        """Read-only (d, n) int64 presort: point i's position in the strict
        (value, index) order of each coordinate.

        A stable argsort of a column realizes that order, so ``ranks[dim]``
        is a permutation of 0..n-1 and comparing ranks compares points. All
        d rows are built on first use, at 8 * d * n bytes, and kept. Threads
        that race on the first use compute the same array; one copy is kept.
        """
        ranks = self._ranks
        if ranks is None:
            ranks = np.empty((self.d, self.n), dtype=np.int64)
            positions = np.arange(self.n, dtype=np.int64)
            for dim in range(self.d):
                column = np.ascontiguousarray(self.xs[:, dim])
                ranks[dim, np.argsort(column, kind="stable")] = positions
            ranks.flags.writeable = False
            object.__setattr__(self, "_ranks", ranks)
        return ranks

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def __len__(self) -> int:
        return self.n

    def point(self, i: int) -> LabeledPoint:
        return LabeledPoint(tuple(float(v) for v in self.xs[i]), int(self.ys[i]))

    def __iter__(self) -> Iterator[LabeledPoint]:
        return (self.point(i) for i in range(self.n))

    @classmethod
    def from_points(cls, points: Sequence[LabeledPoint]) -> "Dataset":
        if not points:
            raise ValueError("use Dataset(xs, ys) with an explicit d for empty data")
        d = len(points[0].x)
        if any(len(p.x) != d for p in points):
            raise ValueError("points must share one dimension")
        xs = np.array([p.x for p in points], dtype=np.float64)
        ys = np.array([p.y for p in points], dtype=np.int8)
        return cls(xs, ys)

    @classmethod
    def empty(cls, d: int) -> "Dataset":
        return cls(np.empty((0, d), dtype=np.float64), np.empty(0, dtype=np.int8))

    def full_view(self) -> "DataView":
        return DataView._trusted(self, np.arange(self.n, dtype=np.int64))


class DataView:
    """A subset of a dataset, stored as ascending point indices.

    Ascending index order is an invariant: it makes the strict (value, index)
    sort reproducible after a view is detached into a standalone dataset,
    even in the presence of duplicate coordinates.
    """

    __slots__ = ("dataset", "indices")

    def __init__(self, dataset: Dataset, indices: np.ndarray):
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if indices.size:
            if indices[0] < 0 or indices[-1] >= dataset.n:
                raise ValueError("index out of range")
            if not (np.diff(indices) > 0).all():
                raise ValueError("indices must be strictly ascending")
        indices = indices.copy()
        indices.flags.writeable = False
        object.__setattr__(self, "dataset", dataset)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def _trusted(cls, dataset: Dataset, indices: np.ndarray) -> "DataView":
        """View over a fresh int64 array already known to be strictly
        ascending and in range; skips the checks and the copy and takes
        ownership of ``indices``. For children built by the median kernel.
        """
        indices.flags.writeable = False
        view = object.__new__(cls)
        object.__setattr__(view, "dataset", dataset)
        object.__setattr__(view, "indices", indices)
        return view

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("DataView is immutable")

    @property
    def n(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return self.n

    @property
    def xs(self) -> np.ndarray:
        return self.dataset.xs[self.indices]

    @property
    def ys(self) -> np.ndarray:
        return self.dataset.ys[self.indices]

    def coords(self, dim: int) -> np.ndarray:
        return self.dataset.xs[self.indices, dim]

    def label_counts(self) -> tuple[int, int]:
        """(count of label 0, count of label 1) among the view's points."""
        c1 = int(self.dataset.ys[self.indices].sum()) if self.n else 0
        return self.n - c1, c1

    def subset(self, indices: np.ndarray) -> "DataView":
        return DataView(self.dataset, indices)

    def detach(self) -> "DataView":
        """Copy the view's points into a fresh standalone dataset.

        The copy forgets everything about the original dataset, in particular
        its total size. Decisions that depend only on the cell's own data give
        identical answers on the detached view.
        """
        mini = Dataset(self.dataset.xs[self.indices], self.dataset.ys[self.indices])
        return mini.full_view()


# ---------------------------------------------------------------------------
# order statistics and prediction


def strict_rank(view: DataView, dim: int) -> np.ndarray:
    """Point indices of the view sorted by (coordinate, original index).

    The secondary key makes the order a strict total order even with
    duplicate coordinates. Relies on the view's ascending-index invariant:
    a stable sort on the coordinate alone realizes the tie-break.
    """
    if not 0 <= dim < view.dataset.d:
        raise ValueError(f"dimension {dim} out of range for d={view.dataset.d}")
    order = np.argsort(view.coords(dim), kind="stable")
    return view.indices[order]


def majority_label(count0: int, count1: int) -> int:
    """Majority vote over leaf counts; ties and empty leaves give 0."""
    if count0 < 0 or count1 < 0:
        raise ValueError("counts must be nonnegative")
    return 1 if count1 > count0 else 0


@dataclass(frozen=True)
class Leaf:
    count0: int
    count1: int

    @property
    def label(self) -> int:
        return majority_label(self.count0, self.count1)


@dataclass(frozen=True)
class Internal:
    """One split event.

    ``splits`` holds the level's cuts in cascade order: cut 0 is the first
    dimension's median cut, cuts 1..2 refine its two halves in the next
    dimension, and so on (heap layout). Binary-mode nodes have a single cut.
    ``eaten`` lists dataset indices of the pivots consumed by the cuts, one
    per cut; deserialized trees only know the count and use -1 placeholders.
    """

    splits: tuple[tuple[int, float], ...]
    eaten: tuple[int, ...]
    children: tuple["Node", ...]

    @property
    def levels(self) -> int:
        return len(self.children).bit_length() - 1


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class PartitionTree:
    """A built classifier: root node, input dimension, arity mode, config echo.

    ``mode`` is "binary" (one cut per level) or "full" (2^d children per
    level). ``config`` echoes the build parameters and training size; it is
    carried verbatim into the serialized document.
    """

    root: Node
    d: int
    mode: str
    config: dict

    def __post_init__(self):
        if self.mode not in ("binary", "full"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")


def _node_arity(tree: PartitionTree) -> int:
    return 2 if tree.mode == "binary" else 1 << tree.d


def cascade_child(cuts: Sequence[tuple[int, float]], x: np.ndarray) -> int:
    """Child index of x under one node's 2^L - 1 heap-ordered (dim, threshold)
    cuts: one low (0) or high (1) bit per cascade level, first level first."""
    prefix = 0
    for lvl in range(len(cuts).bit_length()):
        dim, thr = cuts[(1 << lvl) - 1 + prefix]
        prefix = (prefix << 1) | (0 if x[dim] < thr else 1)
    return prefix


def route(tree: PartitionTree, x: Sequence[float]) -> tuple[Leaf, int]:
    """Route a query point to its leaf; returns (leaf, depth).

    Depth counts split events: one full level, binary or 2^d-ary, adds one.
    Non-finite coordinates raise ValueError: a NaN compares false against
    every cut and would otherwise be sent high all the way down.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.d,):
        raise ValueError(f"query must have shape ({tree.d},)")
    if not np.isfinite(x).all():
        raise ValueError("query coordinates must be finite")
    node = tree.root
    depth = 0
    while isinstance(node, Internal):
        node = node.children[cascade_child(node.splits, x)]
        depth += 1
    return node, depth


def classify(tree: PartitionTree, x: Sequence[float]) -> int:
    leaf, _ = route(tree, x)
    return leaf.label


def _apply_tree(tree: PartitionTree, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized routing. Returns (labels, depths) for all rows of X.

    Raises ValueError if any coordinate is non-finite, as ``route`` does.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.d:
        raise ValueError(f"queries must have shape (m, {tree.d})")
    if not np.isfinite(X).all():
        raise ValueError("query coordinates must be finite")
    m = X.shape[0]
    labels = np.zeros(m, dtype=np.int8)
    depths = np.zeros(m, dtype=np.int64)
    stack: list[tuple[Node, np.ndarray, int]] = [(tree.root, np.arange(m), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, Leaf):
            labels[idx] = node.label
            depths[idx] = depth
            continue
        # partition idx down the in-level cut cascade
        buckets = [(0, idx)]
        for lvl in range(node.levels):
            nxt = []
            for prefix, ids in buckets:
                dim, thr = node.splits[(1 << lvl) - 1 + prefix]
                mask = X[ids, dim] < thr
                nxt.append((prefix << 1, ids[mask]))
                nxt.append(((prefix << 1) | 1, ids[~mask]))
            buckets = nxt
        for prefix, ids in buckets:
            stack.append((node.children[prefix], ids, depth + 1))
    return labels, depths


def predict_batch(tree: PartitionTree, X: np.ndarray) -> np.ndarray:
    return _apply_tree(tree, X)[0]


def route_depths(tree: PartitionTree, X: np.ndarray) -> np.ndarray:
    return _apply_tree(tree, X)[1]


# ---------------------------------------------------------------------------
# structural accounting


@dataclass(frozen=True)
class TreeStats:
    nodes: int
    internals: int
    leaves: int
    max_depth: int
    leaf_points: int
    eaten: int
    depth_hist: dict[int, int]


def tree_stats(tree: PartitionTree) -> TreeStats:
    nodes = internals = leaves = leaf_points = eaten = 0
    max_depth = 0
    hist: dict[int, int] = {}
    stack: list[tuple[Node, int]] = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        if isinstance(node, Leaf):
            leaves += 1
            leaf_points += node.count0 + node.count1
            hist[depth] = hist.get(depth, 0) + 1
        else:
            internals += 1
            eaten += len(node.eaten)
            stack.extend((c, depth + 1) for c in node.children)
    return TreeStats(nodes, internals, leaves, max_depth, leaf_points, eaten, hist)


def validate_tree(tree: PartitionTree, n: int | None = None) -> TreeStats:
    """Check structural invariants; returns stats on success.

    Verifies per-node arity for the tree's mode, one eaten pivot per cut,
    nonnegative leaf counts, and, when the training size ``n`` is known
    (argument or ``config["n"]``), conservation: every training point is
    counted in exactly one leaf or eaten as a pivot.
    """
    arity = _node_arity(tree)
    stack: list[Node] = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if node.count0 < 0 or node.count1 < 0:
                raise TreeSchemaError("negative leaf count")
            continue
        if len(node.children) != arity:
            raise TreeSchemaError(
                f"internal node has {len(node.children)} children, expected {arity}"
            )
        if len(node.splits) != arity - 1:
            raise TreeSchemaError(
                f"internal node has {len(node.splits)} cuts, expected {arity - 1}"
            )
        if len(node.eaten) != len(node.splits):
            raise TreeSchemaError("eaten pivot count must equal cut count")
        for dim, thr in node.splits:
            if not 0 <= dim < tree.d:
                raise TreeSchemaError(f"cut dimension {dim} out of range")
            if not math.isfinite(thr):
                raise TreeSchemaError("cut threshold must be finite")
        stack.extend(node.children)
    stats = tree_stats(tree)
    if n is None and _is_int(tree.config.get("n")):
        n = tree.config["n"]
    if n is not None and stats.leaf_points + stats.eaten != n:
        raise TreeSchemaError(
            f"conservation violated: {stats.leaf_points} leaf points + "
            f"{stats.eaten} eaten != n={n}"
        )
    return stats


# ---------------------------------------------------------------------------
# canonical serialization

_CONFIG_SCALARS = (str, int, float, bool, type(None))


def _check_config(config) -> None:
    """The config rule, read and write alike: strings to JSON scalars, finite floats."""
    if not isinstance(config, dict) or not all(
        isinstance(k, str) and isinstance(v, _CONFIG_SCALARS) for k, v in config.items()
    ):
        raise TreeSchemaError("config must map strings to JSON scalars")
    if not all(math.isfinite(v) for v in config.values() if isinstance(v, float)):
        raise TreeSchemaError("config values must be finite")


def _node_doc(node: Node, d: int) -> dict:
    if isinstance(node, Leaf):
        return {"count0": node.count0, "count1": node.count1}
    for dim, _ in node.splits:
        if not 0 <= dim < d:
            raise TreeSchemaError(f"cut dimension {dim!r} out of range 0..{d - 1}")
    return {
        "splits": [[dim + 1, float(thr)] for dim, thr in node.splits],
        "eaten": len(node.eaten),
        "children": [_node_doc(c, d) for c in node.children],
    }


def serialize_tree(tree: PartitionTree) -> str:
    """Canonical one-line JSON document for a tree.

    Keys are sorted, separators fixed, floats written in shortest round-trip
    form, so equal trees produce byte-identical output. Dimensions are
    1-based on the wire. A tree that ``deserialize_tree`` would refuse (a
    cut dimension outside 0..d-1, a non-finite threshold, or nesting deeper
    than the writer's recursion allows) raises TreeSchemaError.
    """
    _check_config(tree.config)
    doc = {"mode": tree.mode, "d": tree.d, "config": dict(tree.config)}
    try:
        doc["root"] = _node_doc(tree.root, tree.d)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except RecursionError:
        raise TreeSchemaError("tree nested too deeply to serialize") from None
    except TreeSchemaError:
        raise
    except ValueError:  # the config is finite, so allow_nan=False met a threshold
        raise TreeSchemaError("cut threshold must be finite") from None


def _is_int(value) -> bool:
    """True for a JSON integer; JSON booleans parse to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_node(doc, d: int, arity: int) -> Node:
    if not isinstance(doc, dict):
        raise TreeSchemaError("node must be an object")
    keys = set(doc)
    if keys == {"count0", "count1"}:
        c0, c1 = doc["count0"], doc["count1"]
        if not (_is_int(c0) and _is_int(c1)) or c0 < 0 or c1 < 0:
            raise TreeSchemaError("leaf counts must be nonnegative integers")
        return Leaf(c0, c1)
    if keys != {"splits", "eaten", "children"}:
        raise TreeSchemaError(f"unexpected node keys {sorted(keys)}")
    splits_doc, eaten, children_doc = doc["splits"], doc["eaten"], doc["children"]
    if not isinstance(children_doc, list) or len(children_doc) != arity:
        raise TreeSchemaError(f"internal node must have {arity} children")
    if not isinstance(splits_doc, list) or len(splits_doc) != arity - 1:
        raise TreeSchemaError(f"internal node must have {arity - 1} cuts")
    if not _is_int(eaten) or eaten != len(splits_doc):
        raise TreeSchemaError("eaten pivot count must equal cut count")
    splits = []
    for entry in splits_doc:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not _is_int(entry[0])
            or isinstance(entry[1], bool)
            or not isinstance(entry[1], (int, float))
        ):
            raise TreeSchemaError("cut must be [dim, threshold]")
        dim = entry[0]
        try:
            thr = float(entry[1])
        except OverflowError:  # an integer literal beyond the float range
            thr = math.inf
        if not 1 <= dim <= d:
            raise TreeSchemaError(f"cut dimension {dim} out of range 1..{d}")
        if not math.isfinite(thr):
            raise TreeSchemaError("cut threshold must be finite")
        splits.append((dim - 1, thr))
    children = tuple(_parse_node(c, d, arity) for c in children_doc)
    # pivot identities are not on the wire; -1 marks an unknown index
    return Internal(tuple(splits), (-1,) * eaten, children)


def deserialize_tree(text: str) -> PartitionTree:
    """Parse and validate a tree document.

    Every malformed document raises TreeSchemaError, including one nested
    deeper than the parser's recursion allows; a tree built by median
    splits is at most about log2(n) levels deep, so no real document is.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise TreeSchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise TreeSchemaError("document nested too deeply") from None
    if not isinstance(doc, dict) or set(doc) != {"mode", "d", "config", "root"}:
        raise TreeSchemaError("document must have keys mode, d, config, root")
    mode, d, config = doc["mode"], doc["d"], doc["config"]
    if mode not in ("binary", "full"):
        raise TreeSchemaError(f"unknown mode {mode!r}")
    if not _is_int(d) or d < 1:
        raise TreeSchemaError("d must be a positive integer")
    _check_config(config)
    arity = 2 if mode == "binary" else 1 << d
    try:
        root = _parse_node(doc["root"], d, arity)
    except RecursionError:
        raise TreeSchemaError("document nested too deeply") from None
    return PartitionTree(root=root, d=d, mode=mode, config=config)


# ---------------------------------------------------------------------------
# CSV I/O

def _parse_label(cell: str, line: int) -> int:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetFormatError(f"label {cell!r} is not numeric", line) from None
    if value not in (0.0, 1.0):
        raise DatasetFormatError(f"label must be 0 or 1, got {cell!r}", line)
    return int(value)


def _numeric(cells: Sequence[str]) -> bool:
    try:
        [float(c) for c in cells]
        return True
    except ValueError:
        return False


def load_csv(path) -> Dataset:
    """Load a dataset from CSV: d feature columns then one 0/1 label column.

    A header row is detected by failing to parse as numbers. An empty body
    under a header yields an empty dataset whose d comes from the header.
    Plain numeric files are read by ``np.loadtxt``; every other file, and
    every file with an error, goes to the row parser, which gives the same
    result and reports the error with its line number.
    """
    data = _load_csv_fast(path)
    return data if data is not None else _load_csv_rows(path)


def _plain_bytes(fh) -> bool:
    """True unless the file holds bytes on which np.loadtxt and the row
    parser could disagree.

    Two kinds can. A byte 1c..1f: np.loadtxt strips U+001C..U+001F around a
    number as whitespace and float() does not, and in UTF-8 these bytes
    encode nothing else. And a field longer than csv.field_size_limit(),
    which csv.reader refuses. The fast path keeps no file with quotes, so a
    field ends at a comma or a line end. No field is over the limit when
    every aligned window of half the limit holds one of them, since a run
    of other bytes longer than the limit covers a whole window.
    """
    window = min(max(csv.field_size_limit() // 2, 1), 1 << 20)
    size = window * ((1 << 20) // window)  # blocks start on window bounds
    for block in iter(lambda: fh.read(size), b""):
        if any(sep in block for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
            return False
        for k in range(0, len(block) - window + 1, window):
            if not any(block.find(end, k, k + window) >= 0 for end in (b",", b"\n", b"\r")):
                return False
    return True


def _load_csv_fast(path) -> Dataset | None:
    """``np.loadtxt``'s reading of a CSV, or None when only the row parser
    can answer.

    The header and the column count come from the first line, as in the row
    parser. The result is kept only where it is the row parser's too: at
    least one row, ``ncols`` columns, 0/1 labels, finite features, and no
    byte that one parser reads and the other does not. Only a regular file
    is read here, through one open handle.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        return None  # an open descriptor, read once by the row parser
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a pipe or a device, read once by the row parser
        with open(path, "r", encoding="utf-8") as fh:
            if not _plain_bytes(fh.buffer):
                return None
            fh.seek(0)
            first = fh.readline().rstrip("\n")
            cells = first.split(",")
            # quotes and NUL are for csv.reader to read
            if len(cells) < 2 or '"' in first or "\x00" in first:
                return None
            header = not _numeric(cells)
            if header and not any(line.strip("\n") for line in fh):
                return None  # an empty body, which loadtxt would warn about
            fh.seek(0)
            table = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar=None, dtype=np.float64,
                ndmin=2, skiprows=1 if header else 0,
            )
    except (OSError, ValueError):  # the row parser reports it; includes UnicodeDecodeError
        return None
    if table.shape[0] == 0 or table.shape[1] != len(cells):
        return None
    xs, ys = table[:, :-1], table[:, -1]
    if not (((ys == 0.0) | (ys == 1.0)).all() and np.isfinite(xs).all()):
        return None
    return Dataset(xs, ys)


def _load_csv_rows(path) -> Dataset:
    """The row parser: defines the CSV format and reports every error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(i + 1, row) for i, row in enumerate(reader) if row]
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"file is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:  # a field over csv.field_size_limit(), or NUL before 3.11
            raise DatasetFormatError(str(exc), reader.line_num) from None
    if not rows:
        raise DatasetFormatError("empty file, cannot infer dimension")
    first_line, first = rows[0]
    ncols = len(first)
    if ncols < 2:
        raise DatasetFormatError("need at least one feature column and a label", first_line)

    body = rows[1:] if not _numeric(first) else rows
    d = ncols - 1
    if not body:
        return Dataset.empty(d)
    xs = np.empty((len(body), d), dtype=np.float64)
    ys = np.empty(len(body), dtype=np.int8)
    for out, (line, row) in enumerate(body):
        if len(row) != ncols:
            raise DatasetFormatError(
                f"expected {ncols} columns, got {len(row)}", line
            )
        for j, cell in enumerate(row[:-1]):
            try:
                xs[out, j] = float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"feature {cell!r} is not numeric", line
                ) from None
        ys[out] = _parse_label(row[-1], line)
    if not np.isfinite(xs).all():
        out, j = np.argwhere(~np.isfinite(xs))[0]
        line, row = body[out]
        raise DatasetFormatError(f"feature {row[j]!r} is not finite", line)
    return Dataset(xs, ys)


# rows per block written by save_csv, which holds one block's text at a time
_CSV_BLOCK_ROWS = 1 << 14


def save_csv(dataset: Dataset, path, header: bool = True) -> None:
    """Write a dataset as CSV: ``repr`` of each feature, then the 0/1 label.

    The bytes are those of ``csv.writer`` (comma-separated, CRLF line ends,
    no quoting needed), written a block of rows at a time.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(",".join([f"x{j + 1}" for j in range(dataset.d)] + ["y"]) + "\r\n")
        for start in range(0, dataset.n, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = zip(dataset.xs[block].tolist(), dataset.ys[block].tolist())
            fh.write("".join(f"{','.join(map(repr, x))},{y}\r\n" for x, y in rows))
