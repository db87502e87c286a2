"""Shared data model and tree representation.

A dataset is an ordered list of labeled points. Tree builders never move or
copy the points; they pass around views (index subsets) of one immutable
dataset. A tree is kept as one flat cut table, built from its generation
records, with immutable nodes built on request, plus a canonical JSON
document so that identical trees serialize to identical bytes.

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
import numbers
import operator
import os
import stat
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Sequence, Union

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


def _integer(value, name: str) -> int:
    """``value`` as the Python int that a seed, a count or a dimension must
    be: a numpy integer becomes one; a bool or a non-integer raises ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str) -> float:
    """``value`` as the Python float that a rate or an exponent must be: any
    real number within the float range becomes one; a bool, a value that is
    not a real number or one beyond the float range raises ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, not a bool")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a fraction too large for a float
        raise ValueError(f"{name} must be a real number within the float range") from None


def _index_dtype(n: int) -> type:
    """The integer dtype for point indices and ranks below ``n``: int32 below
    2^31, which holds them all, and int64 from there on."""
    return np.int32 if n < 2**31 else np.int64


class Dataset:
    """Immutable array-backed collection of labeled points.

    ``xs`` has shape (n, d) float64 and ``ys`` shape (n,) int8, each copied
    once into an owned read-only C-contiguous array, so views handed to
    builders can never be mutated behind their back. Labels must equal 0 or 1
    before the int8 cast: 256, 0.5 or NaN is refused, not wrapped.

    Untraced builds cut in storage order, the points sorted by (dimension-0
    value, index), and read ``_storage``: that order, the rank table in it
    with no row for dimension 0, whose ranks are the storage ids, and the
    labels in it, 4 * (d - 1) * n + 5 * n bytes below 2^31 points. Traced
    builds, whose records name dataset indices, and the per-cell reference
    read ``_rank_table``, all d rows in dataset order; the int64 ``ranks``
    widens it on request. Each is built on first use by its own argsorts and
    kept for the dataset's lifetime, so a dataset that only untraced builds
    read holds one rank table.
    """

    __slots__ = ("xs", "ys", "_order", "_table", "_labels", "_indexed", "_ranks")

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs = np.array(xs, dtype=np.float64, order="C")
        labels = np.atleast_1d(ys)  # a 0-d label is one row's
        if xs.ndim != 2 or xs.shape[1] < 1:
            raise ValueError("xs must have shape (n, d) with d >= 1")
        if labels.shape != (xs.shape[0],):
            raise ValueError("ys must have shape (n,)")
        if xs.size and not np.isfinite(xs).all():
            raise ValueError("coordinates must be finite")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        ys = np.array(labels, dtype=np.int8, order="C")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        for name in self.__slots__[2:]:
            object.__setattr__(self, name, None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Dataset is immutable")

    def _presort(self, dim: int) -> np.ndarray:
        """Dimension ``dim``'s strict (value, index) order: a stable argsort
        of the column."""
        return np.argsort(np.ascontiguousarray(self.xs[:, dim]), kind="stable")

    def _keep(self, **arrays) -> None:
        """Keep each array, read-only, in the slot named by its keyword."""
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def _rank_table(self) -> np.ndarray:
        """Read-only (d, n) presort in ``_index_dtype(n)``: point i's position
        in the strict (value, index) order of each coordinate.

        A stable argsort of a column realizes that order, so each row is a
        permutation of 0..n-1 and comparing ranks compares points. All d rows
        are built on first use and kept. If a caller's own threads race on
        the first use, each computes the same array; one copy is kept.
        """
        table = self._indexed
        if table is None:
            table = np.empty((self.d, self.n), dtype=_index_dtype(self.n))
            positions = np.arange(self.n, dtype=table.dtype)
            for dim in range(self.d):
                table[dim, self._presort(dim)] = positions
            self._keep(_indexed=table)
        return table

    @property
    def _storage(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """Read-only storage order, rank table and labels: storage id s is
        point ``order[s]``, the s-th in dimension 0's strict order, and its
        ranks and label are ``table[dim][s]`` and ``labels[s]``, but
        ``table[0]`` is None: storage ids are dimension 0's ranks. Built on
        first use and kept: dimension 0's argsort is the order, and each
        other row and the labels are gathered along it, each row from one
        argsort of its column. Threads racing on the first use compute equal
        arrays, as for ``_rank_table``."""
        if self._table is None:
            n, dtype = self.n, _index_dtype(self.n)
            # the kept arrays are allocated before the presort's temporaries:
            # allocated after them, they held the freed heap below them
            # resident, and perfbench's eval-csv peaked 11 MiB higher
            rows, order, labels = np.empty((self.d - 1, n), dtype), np.empty(n, dtype), np.empty(n, np.int8)
            order[:] = self._presort(0)
            self.ys.take(order, out=labels)
            positions, ranks = np.arange(n, dtype=dtype), np.empty(n, dtype)
            for dim, row in enumerate(rows, 1):
                ranks[self._presort(dim)] = positions
                ranks.take(order, out=row)
            # the rows last: they mark the other two as kept
            self._keep(_order=order, _labels=labels, _table=rows)
        return self._order, (None, *self._table), self._labels

    @property
    def ranks(self) -> np.ndarray:
        """Read-only (d, n) int64 presort: the rank table's values, widened.

        Built from the rank table on the first request, at 8 * d * n bytes,
        and kept. No builder reads it.
        """
        if self._ranks is None:
            self._keep(_ranks=self._rank_table.astype(np.int64))
        return self._ranks

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
        return cls([p.x for p in points], [p.y for p in points])

    @classmethod
    def empty(cls, d: int) -> "Dataset":
        return cls(np.empty((0, d), dtype=np.float64), np.empty(0, dtype=np.int8))

    def full_view(self) -> "DataView":
        return DataView._trusted(self, np.arange(self.n, dtype=np.int64))


class DataView:
    """A subset of a dataset, stored as ascending point indices.

    Ascending index order is an invariant: it makes the strict (value, index)
    sort reproducible after a view is detached into a standalone dataset,
    even with duplicate coordinates. ``indices`` is an owned read-only copy;
    a non-empty index array of no integer dtype, a boolean mask say, is refused.
    """

    __slots__ = ("dataset", "indices")

    def __init__(self, dataset: Dataset, indices: np.ndarray):
        indices = np.atleast_1d(indices)
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"indices must be integers, got dtype {indices.dtype}")
        indices = np.array(indices, dtype=np.int64, order="C")
        if indices.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if indices.size:
            if indices[0] < 0 or indices[-1] >= dataset.n:
                raise ValueError("index out of range")
            if not (np.diff(indices) > 0).all():
                raise ValueError("indices must be strictly ascending")
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
        # fancy indexing's rows; take is 3-6x faster at 8 to 300 rows (numpy 2.4)
        return self.dataset.xs.take(self.indices, axis=0)

    @property
    def ys(self) -> np.ndarray:
        return self.dataset.ys[self.indices]

    def coords(self, dim: int) -> np.ndarray:
        return self.dataset.xs[self.indices, dim]

    def label_counts(self) -> tuple[int, int]:
        """(count of label 0, count of label 1) among the view's points."""
        c1 = int(np.count_nonzero(self.dataset.ys[self.indices]))
        return self.n - c1, c1

    def subset(self, indices: np.ndarray) -> "DataView":
        return DataView(self.dataset, indices)

    def detach(self) -> "DataView":
        """Copy the view's points into a fresh standalone dataset.

        The copy forgets everything about the original dataset, in particular
        its total size. Decisions that depend only on the cell's own data give
        identical answers on the detached view.
        """
        return Dataset(self.xs, self.ys).full_view()


# ---------------------------------------------------------------------------
# order statistics and prediction


def strict_rank(view: DataView, dim: int) -> np.ndarray:
    """Point indices of the view sorted by (coordinate, original index).

    The secondary key makes the order a strict total order even with
    duplicate coordinates. Relies on the view's ascending-index invariant:
    a stable sort on the coordinate alone realizes the tie-break.
    """
    dim = _integer(dim, "dimension")
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


def _assemble(generations: list) -> list[Node]:
    """The first generation's nodes, built bottom-up without recursion from
    lists of cells, one per generation in frontier order: ``run_cells``'
    records, or a cut table's (``_CutTable.nodes``). A cell is a finished
    ``Leaf``, or a split's (splits, eaten, arity), whose children are the
    next ``arity`` nodes built for the generation below."""
    built: list[Node] = []
    for cells in reversed(generations):
        below = iter(built)
        built = [
            c if isinstance(c, Leaf) else Internal(c[0], c[1], tuple(islice(below, c[2])))
            for c in cells
        ]
    return built


def _ints(values: list) -> np.ndarray:
    """An int64 column of Python ints, or an object one where one is beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class _Generation:
    """One generation of a tree's cells, in frontier order, as columns.

    ``split`` marks the cells that split. ``count0`` and ``count1`` hold the
    label counts of the others, the leaves, in order. ``dims``, ``thrs`` and
    ``eaten`` hold each split's ``arity - 1`` cuts in cascade order and their
    pivots (-1 where unknown), the splits in order; the generation below
    holds each split's ``arity`` children in order.
    """

    __slots__ = ("split", "count0", "count1", "dims", "thrs", "eaten", "arity")

    def __init__(self, split, count0, count1, dims, thrs, eaten, arity):
        self.split, self.count0, self.count1 = split, count0, count1
        self.dims, self.thrs, self.eaten, self.arity = dims, thrs, eaten, arity

    @classmethod
    def of(cls, cells: list, arity: int | None) -> "_Generation":
        """The columns of one list of per-cell records."""
        leaves = [c for c in cells if isinstance(c, Leaf)]
        splits = [c for c in cells if not isinstance(c, Leaf)]
        cuts = [cut for c in splits for cut in c[0]]
        return cls(
            np.array([not isinstance(c, Leaf) for c in cells], dtype=bool),
            _ints([leaf.count0 for leaf in leaves]),
            _ints([leaf.count1 for leaf in leaves]),
            _ints([cut[0] for cut in cuts]),
            np.array([cut[1] for cut in cuts], dtype=np.float64),
            _ints([pivot for c in splits for pivot in c[1]]),
            arity,
        )


@dataclass(frozen=True)
class PartitionTree:
    """A built classifier: root node, input dimension, arity mode, config echo.

    ``mode`` is "binary" (one cut per level) or "full" (2^d children per
    level). ``config`` echoes the build parameters and training size; it is
    carried verbatim into the serialized document. ``_cuts``, the one checked
    cut table, is kept from its first use; every reader but ``route`` reads
    it. The builders and the reader make a tree with ``_of_generations``,
    which builds the table from their generation records and leaves ``root``
    unset: its ``Leaf`` and ``Internal`` nodes are built from the table on
    first access and kept.
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

    @classmethod
    def _of_generations(cls, generations: list, d: int, mode: str, config: dict) -> "PartitionTree":
        """The tree of ``run_cells``' generation records, root first, without nodes."""
        tree = object.__new__(cls)
        for name, value in (("d", d), ("mode", mode), ("config", config)):
            object.__setattr__(tree, name, value)
        tree.__post_init__()
        tree.__dict__["_cuts"] = _cut_table(generations, d, _node_arity(mode, d))
        return tree

    def __getattr__(self, name: str):
        # reached only for attributes not set; a tree without its root has its table
        if name != "root" or "_cuts" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        root = self._cuts.nodes()
        object.__setattr__(self, "root", root)
        return root

    @cached_property
    def _cuts(self) -> _CutTable:
        arity = _node_arity(self.mode, self.d)
        return _cut_table(_node_generations(self.root, self.d, arity), self.d, arity)


def _node_arity(mode: str, d: int) -> int | None:
    """Children per internal node: 2 in binary mode, 2^d in full mode. None
    from d = 64 on, where no node can hold 2^d children; 2^d is never built."""
    if mode == "binary":
        return 2
    return 1 << d if d < 64 else None


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
        # one low (0) or high (1) bit per cascade level, first level first
        prefix = 0
        for lvl in range(len(node.splits).bit_length()):
            dim, thr = node.splits[(1 << lvl) - 1 + prefix]
            prefix = (prefix << 1) | (0 if x[dim] < thr else 1)
        node = node.children[prefix]
        depth += 1
    return node, depth


def classify(tree: PartitionTree, x: Sequence[float]) -> int:
    return route(tree, x)[0].label


@dataclass(frozen=True)
class _CutTable:
    """A tree's flat binary cut table in generation order: each generation's
    nodes, left to right, take the next rows, 2^L - 1 heap-ordered cuts each,
    and its leaves the next leaf numbers. Row r's low and high targets are
    ``child[2r]`` and ``child[2r + 1]``; a target t < 0 is leaf ~t, any other
    a node's first row b, whose ``arity`` children are the targets
    ``child[2b + w - 1 : 2(b + w)]``, w = arity - 1. ``eaten`` holds each
    row's pivot, -1 where unknown: in a read tree, and in a tree made with
    ``root=``, which keeps its own nodes. ``root`` is the root's target;
    ``count0`` and ``count1`` (int64, or object where a count is beyond
    int64), their int8 ``labels`` (ties to 0) and ``depths`` describe the
    leaves in that order, so depths never fall and a complete full tree's,
    all in its last generation, are left to right; ``leaves`` lists them as
    ``Leaf`` objects, built on first use."""

    d: int
    arity: int | None
    count0: np.ndarray
    count1: np.ndarray
    labels: np.ndarray
    depths: np.ndarray
    dim_of: np.ndarray
    thr_of: np.ndarray
    eaten: np.ndarray
    child: np.ndarray
    root: int

    @cached_property
    def leaves(self) -> list[Leaf]:
        return [Leaf(c0, c1) for c0, c1 in zip(self.count0.tolist(), self.count1.tolist())]

    def nodes(self) -> Node:
        """The root's node tree: each generation's cells, read by following
        the child targets of the generation above's nodes, handed to
        ``_assemble``, the node builder ``run_cells`` uses too."""
        leaves = self.leaves
        if self.root < 0:
            return leaves[~self.root]
        arity, w = self.arity, self.arity - 1
        cuts = list(zip(self.dim_of.tolist(), self.thr_of.tolist()))
        eaten = self.eaten.tolist()
        slots = self.child.reshape(-1, 2 * w)[:, w - 1:]  # each node's children, one row per node
        generations, targets = [], np.array([self.root])
        while targets.size:
            generations.append([leaves[~t] if t < 0 else (tuple(cuts[t:t + w]), tuple(eaten[t:t + w]), arity)
                                for t in targets.tolist()])
            targets = slots[targets[targets >= 0] // w].ravel()
        return _assemble(generations)[0]

    def leaf_of(self, X: np.ndarray) -> np.ndarray:
        """Each query row's leaf index (int64). All rows descend the table
        together, one gather per step. Raises ValueError where ``route`` does."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"queries must have shape (m, {self.d})")
        if not np.isfinite(X).all():
            raise ValueError("query coordinates must be finite")
        flat = X.ravel()
        at = np.full(len(X), self.root, dtype=np.int64)
        live = np.flatnonzero(at >= 0)
        while live.size:
            row = at[live]
            high = ~(flat[live * self.d + self.dim_of[row]] < self.thr_of[row])  # equality routes high
            at[live] = nxt = self.child[2 * row + high]
            # boolean indexing, not compress: this mask is mostly true, and
            # compress measured no faster on predict_batch
            live = live[nxt >= 0]
        return ~at


def _node_generations(root: Node, d: int, arity: int | None) -> list[list]:
    """The per-cell records of the tree under ``root``, one list per depth,
    in one pass without recursion, left first: the one walk of built nodes
    but ``route``'s. Pre-order keeps each depth's nodes in left-to-right
    order. Each node is checked by ``_check_node`` when reached, and a value
    that is no node, or an ``Internal`` field that is no tuple or list, is
    refused. Pivots are recorded as unknown (-1)."""
    generations: list[list] = []
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth == len(generations):
            generations.append([])
        if isinstance(node, Leaf):
            _check_node(node, d, arity)
            generations[depth].append(node)
            continue
        if not isinstance(node, Internal):
            raise TreeSchemaError(f"node must be a Leaf or an Internal, not {type(node).__name__}")
        for name, value in (("splits", node.splits), ("eaten", node.eaten), ("children", node.children)):
            if not isinstance(value, (tuple, list)):
                raise TreeSchemaError(f"internal node's {name} must be a tuple or a list, not {type(value).__name__}")
        _check_node((node.splits, node.eaten, len(node.children)), d, arity)
        generations[depth].append((node.splits, (-1,) * len(node.eaten), arity))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return generations


def _check_columns(gen: _Generation, d: int) -> None:
    """``_check_node``'s numeric rules over one generation's columns."""
    if (gen.count0 < 0).any() or (gen.count1 < 0).any():
        raise TreeSchemaError("leaf counts must be nonnegative integers")
    wrong = (gen.dims < 0) | (gen.dims >= d)
    if wrong.any():
        raise TreeSchemaError(f"cut dimension {int(gen.dims[wrong.argmax()])!r} out of range 0..{d - 1}")
    if not np.isfinite(gen.thrs).all():
        raise TreeSchemaError("cut threshold must be finite")


def _cut_table(generations: list, d: int, arity: int | None) -> _CutTable:
    """The cut table of the tree whose generation records, root first, are
    ``generations``: each a ``_Generation``, or a list of per-cell records,
    turned into one here. The one table builder, vectorized one generation
    at a time: a generation's nodes and leaves take the next rows and leaf
    numbers, at running offsets, and its cells' targets fill the last-level
    child slots of the generation above's nodes, in order. ``_check_node``'s
    numeric rules are checked on the columns."""
    gens = [g if isinstance(g, _Generation) else _Generation.of(g, arity) for g in generations]
    for gen in gens:
        _check_columns(gen, d)
    w = arity - 1 if arity else 0  # arity is None only in a tree with no split
    rows = sum(gen.thrs.size for gen in gens)
    counts = object if any(object in (g.count0.dtype, g.count1.dtype) for g in gens) else np.int64
    count0, count1 = (np.concatenate([getattr(g, c) for g in gens]).astype(counts, copy=False)
                      for c in ("count0", "count1"))
    depths = np.repeat(np.arange(len(gens), dtype=np.int64), [g.count0.size for g in gens])
    dim_of = np.empty(rows, dtype=np.int64 if d < 2**63 else object)  # a wider d meets no query
    thr_of, eaten = np.empty(rows, dtype=np.float64), np.empty(rows, dtype=np.int64)
    child = np.empty(2 * rows, dtype=np.int64)
    row = leaf = 0  # the generation's first row and first leaf number
    slots = None  # the generation above's last-level child slots, one row per node
    for gen in gens:
        nodes = np.count_nonzero(gen.split)
        end, stop = row + w * nodes, leaf + gen.split.size - nodes
        targets = np.empty(gen.split.size, dtype=np.int64)
        targets[gen.split], targets[~gen.split] = row + w * np.arange(nodes), ~np.arange(leaf, stop)
        if slots is None:
            root = int(targets[0])
        else:
            slots[:] = targets.reshape(slots.shape)
        dim_of[row:end], thr_of[row:end], eaten[row:end] = gen.dims, gen.thrs, gen.eaten
        # row h of a node leads to rows 2h + 1 and 2h + 2, its last level to the children
        block = child[2 * row:2 * end].reshape(nodes, 2 * w)
        block[:, :w - 1] = np.arange(row, end).reshape(nodes, w)[:, 1:]
        slots = block[:, w - 1:]
        row, leaf = end, stop
    return _CutTable(
        d=d,
        arity=arity,
        count0=count0,
        count1=count1,
        labels=(count1 > count0).astype(np.int8),
        depths=depths,
        dim_of=dim_of,
        thr_of=thr_of,
        eaten=eaten,
        child=child,
        root=root,
    )


def predict_batch(tree: PartitionTree, X: np.ndarray) -> np.ndarray:
    return tree._cuts.labels[tree._cuts.leaf_of(X)]


def route_depths(tree: PartitionTree, X: np.ndarray) -> np.ndarray:
    return tree._cuts.depths[tree._cuts.leaf_of(X)]


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
    """Counts read from the tree's cut table, which has checked every node:
    one eaten pivot per cut row, leaf points summed in Python ints, depths
    those of the leaves."""
    table = tree._cuts
    rows, leaves = len(table.thr_of), len(table.depths)
    internals = rows // (table.arity - 1) if rows else 0
    depths, counts = np.unique(table.depths, return_counts=True)
    return TreeStats(internals + leaves, internals, leaves, int(depths[-1]),
                     sum(table.count0.tolist()) + sum(table.count1.tolist()), rows,
                     dict(zip(depths.tolist(), counts.tolist())))


# the threshold types _check_node takes as real numbers; a bool is refused apart
_REAL_TYPES = (int, float, np.integer, np.floating)


def _check_node(node, d: int, arity: int | None) -> None:
    """The one per-node rule, of the reader and the node walk: nonnegative
    integer leaf counts; ``arity`` children (``_node_arity``), one cut fewer
    and one eaten pivot per cut; each cut a (dimension, threshold) pair, an
    integer dimension in 0..d-1 (not a bool) and a finite real threshold (not
    a bool). A node is a ``Leaf`` or a split's (splits, eaten, arity) record."""
    if isinstance(node, Leaf):
        c0, c1 = node.count0, node.count1  # _is_int spelt out: most nodes are leaves
        if not (isinstance(c0, int) and isinstance(c1, int)) or isinstance(c0, bool) \
                or isinstance(c1, bool) or c0 < 0 or c1 < 0:
            raise TreeSchemaError("leaf counts must be nonnegative integers")
        return
    splits, eaten, count = node
    if count != arity:
        expected = f"2^{d}" if arity is None else arity
        raise TreeSchemaError(f"internal node has {count} children, expected {expected}")
    if len(splits) != arity - 1:
        raise TreeSchemaError(f"internal node has {len(splits)} cuts, expected {arity - 1}")
    if len(eaten) != len(splits):
        raise TreeSchemaError("eaten pivot count must equal cut count")
    for cut in splits:
        if not (isinstance(cut, (tuple, list)) and len(cut) == 2):
            raise TreeSchemaError(f"cut {cut!r} is not a (dimension, threshold) pair")
        dim, thr = cut
        if not _is_int(dim):
            raise TreeSchemaError(f"cut dimension {dim!r} is not an integer")
        if not 0 <= dim < d:
            raise TreeSchemaError(f"cut dimension {dim!r} out of range 0..{d - 1}")
        if isinstance(thr, bool) or not isinstance(thr, _REAL_TYPES):
            raise TreeSchemaError(f"cut threshold {thr!r} is not a real number")
        try:
            finite = math.isfinite(thr)
        except OverflowError:  # an int beyond the float range: the reader's inf
            finite = False
        if not finite:
            raise TreeSchemaError("cut threshold must be finite")


def validate_tree(tree: PartitionTree, n: int | None = None) -> TreeStats:
    """``tree_stats``, whose cut table is checked as it is built (a node tree
    left first by ``_check_node``, generation records by its numeric rules),
    and conservation when the training size ``n`` is known
    (argument or ``config["n"]``): every training point is counted in exactly
    one leaf or eaten as a pivot.
    """
    stats = tree_stats(tree)
    if n is None and _is_int(tree.config.get("n")):
        n = tree.config["n"]
    if n is not None and stats.leaf_points + stats.eaten != _integer(n, "n"):
        raise TreeSchemaError(
            f"conservation violated: {stats.leaf_points} leaf points + "
            f"{stats.eaten} eaten != n={n}"
        )
    return stats


# ---------------------------------------------------------------------------
# canonical serialization

_CONFIG_SCALARS = (str, int, float, bool, type(None))

# The deepest tree, in split events from the root, that either side of the codec
# takes. json.loads reads about 495 levels of the document at Python's default
# recursion limit; a median-split tree of n points is under log2(n) + 1 deep.
MAX_TREE_DEPTH = 400


def _check_head(d, config) -> None:
    """The header rule, read and write alike: ``d`` a positive integer (not a
    bool or a numpy integer), ``config`` strings to JSON scalars, finite floats."""
    if not _is_int(d) or d < 1:
        raise TreeSchemaError("d must be a positive integer")
    if not isinstance(config, dict) or not all(
        isinstance(k, str) and isinstance(v, _CONFIG_SCALARS) for k, v in config.items()
    ):
        raise TreeSchemaError("config must map strings to JSON scalars")
    if not all(math.isfinite(v) for v in config.values() if isinstance(v, float)):
        raise TreeSchemaError("config values must be finite")


def serialize_tree(tree: PartitionTree) -> str:
    """Canonical one-line JSON document for a tree.

    Keys are sorted, separators fixed, floats written in shortest round-trip
    form, so equal trees produce byte-identical output. Dimensions are
    1-based on the wire. The header is checked by ``_check_head``, then the
    nodes are written from the tree's cut table, checked as it was built,
    in one pass without recursion. A tree that
    ``deserialize_tree`` would refuse, one deeper than ``MAX_TREE_DEPTH``
    among them, raises TreeSchemaError.
    """
    _check_head(tree.d, tree.config)
    table = tree._cuts
    if table.depths.max() > MAX_TREE_DEPTH:
        raise TreeSchemaError("tree nested too deeply to serialize")
    head = json.dumps({"config": tree.config, "d": tree.d, "mode": tree.mode},
                      sort_keys=True, separators=(",", ":"))
    cuts = ["[%d,%r]" % cut for cut in zip((table.dim_of + 1).tolist(), table.thr_of.tolist())]
    child, count0, count1 = table.child.tolist(), table.count0.tolist(), table.count1.tolist()
    parts = [head[:-1], ',"root":']
    stack: list = [table.root]  # targets to write, or text: a comma or a split's tail
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item < 0:
            parts.append('{"count0":%d,"count1":%d}' % (count0[~item], count1[~item]))
        else:
            w = table.arity - 1
            parts.append('{"children":[')
            stack.append('],"eaten":%d,"splits":[%s]}' % (w, ",".join(cuts[item:item + w])))
            for target in reversed(child[2 * item + w - 1:2 * (item + w)]):
                stack += target, ","
            stack.pop()  # no comma before the first child
    parts.append("}\n")
    return "".join(parts)


def _is_int(value) -> bool:
    """True for a JSON integer; JSON booleans parse to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def deserialize_tree(text: str) -> PartitionTree:
    """Parse and validate a tree document.

    Every malformed document raises TreeSchemaError, for its first fault in
    reading order: the parsed nodes are read one generation at a time, each
    checked as read for its wire format and by ``_check_node``, and only then
    handed to the cut table as the tree's generation records; no node object
    is built until ``root`` is read. A tree deeper than ``MAX_TREE_DEPTH``,
    or nested deeper than ``json.loads`` parses, is refused.
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
    _check_head(d, config)
    arity = _node_arity(mode, d)
    generations: list[list] = []
    level = [doc.pop("root")]
    while level:
        if len(generations) > MAX_TREE_DEPTH:
            raise TreeSchemaError("document nested too deeply")
        cells: list = []
        below: list = []
        level.reverse()  # popped in order, each parsed node is freed once read
        while level:
            node = level.pop()
            keys = node.keys() if isinstance(node, dict) else None
            if keys == {"count0", "count1"}:
                cell = Leaf(node["count0"], node["count1"])
            elif keys == {"splits", "eaten", "children"}:
                splits, eaten, children = node["splits"], node["eaten"], node["children"]
                if not (isinstance(splits, list) and isinstance(children, list) and _is_int(eaten)):
                    raise TreeSchemaError("splits and children must be lists, eaten an integer")
                cuts = []
                for cut in splits:  # a 1-based dimension and a number
                    if not (isinstance(cut, list) and len(cut) == 2 and _is_int(cut[0])
                            and 1 <= cut[0] <= d and type(cut[1]) in (int, float)):
                        raise TreeSchemaError(f"cut must be [dim, threshold] with dim in 1..{d}")
                    try:
                        cuts.append((cut[0] - 1, float(cut[1])))
                    except OverflowError:  # an integer literal beyond the float range
                        cuts.append((cut[0] - 1, math.inf))
                # pivot identities are not on the wire; -1 marks an unknown index. A count
                # beyond the cuts stays one too many, a negative one none: _check_node refuses both.
                cell = (tuple(cuts), (-1,) * min(max(eaten, 0), len(cuts) + 1), len(children))
                below += children
            else:
                raise TreeSchemaError("node must be a leaf or split object")
            _check_node(cell, d, arity)
            cells.append(cell)
        generations.append(cells)
        level = below
    return PartitionTree._of_generations(generations, d, mode, config)


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
    least one row, ``ncols`` columns, a table ``Dataset`` takes (0/1 labels,
    finite features), and no byte that one parser reads and the other does
    not. Only a regular file is read here, through one open handle.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        return None  # an open descriptor, read once by the row parser
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a pipe or a device, read once by the row parser
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    try:
        return Dataset(table[:, :-1], table[:, -1])
    except ValueError:  # a non-finite feature or a label other than 0/1
        return None


def _load_csv_rows(path) -> Dataset:
    """The row parser: defines the CSV format and reports every error."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
