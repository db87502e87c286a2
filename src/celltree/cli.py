"""Command line interface.

Subcommands: train, eval, bench, inspect. Exit codes: 0 success, 2 usage
error, 3 inadmissible parameters, 4 I/O or format error. Every artifact
written by a command gets a sibling run manifest at <artifact>.manifest.json
recording the command, flags, seeds, and content hashes of inputs and
outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (
    DatasetFormatError,
    TreeSchemaError,
    _is_int,
    deserialize_tree,
    load_csv,
    predict_batch,
    serialize_tree,
    tree_stats,
)
from .lookahead import AdmissibilityError
from .randomized import RandomizedConfig
from .risklab import (
    ALGORITHMS,
    bayes_predictor,
    build_tree,
    builtin_distributions,
    empirical_risk,
    get_distribution,
    risk_curve,
    tree_predictor,
    write_risk_csv,
)

DEFAULT_ALPHA = 0.1
DEFAULT_BETA = 0.2
DEFAULT_RANDOMIZED_BETA = 0.5


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, command: str, args: argparse.Namespace, inputs, outputs):
    manifest = {
        "tool": "celltree",
        "version": __version__,
        "command": command,
        "flags": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {str(p): _sha256_file(p) for p in outputs},
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def _workers(args) -> int:
    if args.workers is not None:
        value = args.workers
    else:
        raw = os.environ.get("CELLTREE_WORKERS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"CELLTREE_WORKERS must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError("workers must be >= 1")
    return value


def _resolve_distribution(args):
    try:
        return get_distribution(args.dist, d=args.dim, p=getattr(args, "p", 0.5))
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _params(args) -> tuple[float | None, float]:
    """(alpha, beta) with the documented defaults; randomized has no alpha."""
    lookahead = args.algo == "lookahead"
    alpha = (DEFAULT_ALPHA if args.alpha is None else args.alpha) if lookahead else None
    beta = args.beta
    if beta is None:
        beta = DEFAULT_BETA if lookahead else DEFAULT_RANDOMIZED_BETA
    if not lookahead:
        try:
            RandomizedConfig(beta=beta)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return alpha, beta


def cmd_train(args) -> int:
    # flags are checked before the file is parsed, except lookahead
    # admissibility, which depends on the file's d
    workers = _workers(args)
    alpha, beta = _params(args)
    data = load_csv(args.data)
    tree = build_tree(args.algo, data, alpha, beta, args.seed, workers)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_tree(tree))
    manifest = _write_manifest(args.out, "train", args, [args.data], [args.out])
    stats = tree_stats(tree)
    print(
        f"trained algo={args.algo} n={data.n} d={data.d} nodes={stats.nodes} "
        f"leaves={stats.leaves} max_depth={stats.max_depth} out={args.out} "
        f"manifest={manifest}"
    )
    return 0


def _load_tree(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TreeSchemaError(f"tree document is not UTF-8 text: {exc.reason}") from None
    return deserialize_tree(text)


def cmd_eval(args) -> int:
    if (args.data is None) == (args.dist is None):
        raise UsageError("eval needs exactly one of --data or --dist")
    if args.oracle and args.dist is None:
        raise UsageError("--oracle needs --dist")
    if not args.oracle and args.tree is None:
        raise UsageError("eval needs --tree unless --oracle is given")
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    if args.dist is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0 for the test draws, got {args.seed}")

    tree = None if args.oracle else _load_tree(args.tree)

    if args.data is not None:
        data = load_csv(args.data)
        if data.n == 0:
            raise UsageError("evaluation dataset is empty")
        if tree is not None and data.d != tree.d:
            raise UsageError(f"tree has d={tree.d}, data has d={data.d}")
        predictions = predict_batch(tree, data.xs)
        err = float((predictions != data.ys).mean())
        se = float(np.sqrt(err * (1.0 - err) / data.n))
        print(f"error_rate={err:.6f} std_error={se:.6f} n_test={data.n}")
        return 0

    dist = _resolve_distribution(args)
    if tree is not None and tree.d != dist.d:
        raise UsageError(f"tree has d={tree.d}, distribution has d={dist.d}")
    predict = bayes_predictor(dist) if args.oracle else tree_predictor(tree)
    est = empirical_risk(predict, dist, args.m, args.seed)
    excess = est.mean - dist.bayes_risk
    print(
        f"error_rate={est.mean:.6f} std_error={est.std_error:.6f} n_test={est.m} "
        f"bayes_risk={dist.bayes_risk:.6f} excess={excess:.6f}"
    )
    return 0


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--n-grid must be comma-separated integers, got {args.n_grid!r}") from None
    if not n_grid or any(n < 0 for n in n_grid):
        raise UsageError("--n-grid needs nonnegative integers")
    dist = _resolve_distribution(args)
    workers = _workers(args)
    alpha, beta = _params(args)
    curve = risk_curve(args.algo, dist, n_grid, args.reps, args.m, args.seed, alpha, beta, workers)
    write_risk_csv(curve, args.out)
    manifest = _write_manifest(args.out, "bench", args, [], [args.out])
    for agg in curve.aggregates:
        print(
            f"n={agg.n} mean_risk={agg.mean_risk:.6f} std_error={agg.std_error:.6f} "
            f"bayes_risk={agg.bayes_risk:.6f}"
        )
    print(f"wrote {args.out} manifest={manifest}")
    return 0


def cmd_inspect(args) -> int:
    tree = _load_tree(args.tree)  # the reader has checked every node
    stats = tree_stats(tree)
    conservation = "unknown"
    n = tree.config.get("n")
    if _is_int(n):
        conservation = "pass" if stats.leaf_points + stats.eaten == n else "fail"
    hist = ",".join(f"{d}:{c}" for d, c in sorted(stats.depth_hist.items()))
    print(f"mode={tree.mode} d={tree.d} config={json.dumps(tree.config, sort_keys=True)}")
    print(
        f"nodes={stats.nodes} internals={stats.internals} leaves={stats.leaves} "
        f"max_depth={stats.max_depth}"
    )
    print(f"leaf_points={stats.leaf_points} eaten={stats.eaten} depth_hist={hist}")
    print(f"conservation={conservation}")
    return 0 if conservation != "fail" else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltree",
        description="Median-split tree classifiers built from autonomous cells.",
        epilog=(
            "Exit codes: 0 ok, 2 usage, 3 inadmissible parameters, 4 I/O. "
            "Builds run in one thread; --workers and CELLTREE_WORKERS are "
            "accepted, checked to be >= 1, and change nothing."
        ),
    )
    parser.add_argument("--version", action="version", version=f"celltree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="accepted for compatibility, must be >= 1, changes nothing; "
            "default CELLTREE_WORKERS or 1",
        )

    p_train = sub.add_parser("train", help="fit a tree on a CSV dataset")
    p_train.add_argument("--algo", choices=ALGORITHMS, required=True)
    p_train.add_argument("--data", required=True, help="CSV with d features then a 0/1 label")
    p_train.add_argument("--out", required=True, help="output tree document path")
    p_train.add_argument("--alpha", type=float, default=None, help="lookahead horizon rate (default 0.1)")
    p_train.add_argument(
        "--beta",
        type=float,
        default=None,
        help="stop exponent (default 0.2 lookahead, 0.5 randomized)",
    )
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="measure error on a CSV or a synthetic distribution")
    p_eval.add_argument("--tree", default=None, help="tree document to evaluate")
    p_eval.add_argument("--data", default=None, help="CSV test set")
    p_eval.add_argument("--dist", default=None, help=f"one of {builtin_distributions()}")
    p_eval.add_argument("--dim", type=int, default=2, help="distribution dimension (default 2)")
    p_eval.add_argument("--p", type=float, default=0.5, help="d-const noise level (default 0.5)")
    p_eval.add_argument("--m", type=int, default=10000, help="test draws (default 10000)")
    p_eval.add_argument(
        "--oracle", action="store_true", help="evaluate the Bayes rule of --dist instead of a tree"
    )
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser(
        "bench",
        help="risk curve over a grid of training sizes",
        epilog=(
            "The CSV has one row per (n, rep) with reps=1 and the rep's own "
            "evaluation standard error, plus one aggregate row per n with "
            "reps=R, the mean risk over reps, and the standard error of that "
            "mean across reps."
        ),
    )
    p_bench.add_argument("--algo", choices=ALGORITHMS, required=True)
    p_bench.add_argument("--dist", required=True, help=f"one of {builtin_distributions()}")
    p_bench.add_argument("--dim", type=int, default=2)
    p_bench.add_argument("--p", type=float, default=0.5)
    p_bench.add_argument("--n-grid", required=True, help="comma-separated training sizes")
    p_bench.add_argument("--reps", type=int, default=5, help="trees per grid point (default 5)")
    p_bench.add_argument("--m", type=int, default=10000, help="test draws per tree")
    p_bench.add_argument("--alpha", type=float, default=None)
    p_bench.add_argument("--beta", type=float, default=None)
    p_bench.add_argument("--out", required=True, help="output CSV path")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_inspect = sub.add_parser("inspect", help="structural summary of a tree document")
    p_inspect.add_argument("--tree", required=True)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"error: inadmissible parameters: {exc}", file=sys.stderr)
        return 3
    except (DatasetFormatError, TreeSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:  # console script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
