"""Golden SHA-256 hashes of serialized tree documents.

This is the byte-identity gate for kernel and runtime changes: the canonical
document of a given (data, config, seed) is fixed, so any change to the median
kernel, the child views or the frontier runtime must leave every hash below
untouched. The matrix covers both builders, d = 1, 2, 3, two tree seeds, and
two kinds of data at n = 2,000: continuous coordinates, and coordinates
floored to a grid of 8 values per axis, where ties in the (value, index)
order are the common case.

To regenerate after an intended, documented format change, run this file as
a script from the repository root with ``PYTHONPATH=src`` and paste the
printed table.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from celltree import (
    Dataset,
    LookaheadConfig,
    RandomizedConfig,
    build_lookahead,
    build_randomized,
    serialize_tree,
)

N = 2_000
GRID = 8
# lookahead alpha per d: admissible with beta = 0.2, k+ = 4, 2, 2 at the root
ALPHA = {1: 0.4, 2: 0.25, 3: 0.185}
LOOKAHEAD_BETA = 0.2
RANDOMIZED_BETA = 0.9


def golden_data(d: int, kind: str) -> Dataset:
    rng = np.random.default_rng(7_000 + d)
    xs = rng.random((N, d))
    if kind == "grid":
        xs = np.floor(xs * GRID) / GRID
    # a checkerboard label with 10% flips, so trees have structure to find
    ys = (np.floor(xs * 4).sum(axis=1) % 2).astype(np.int8)
    flip = rng.random(N) < 0.1
    return Dataset(xs, np.where(flip, 1 - ys, ys))


def document(algo: str, d: int, kind: str, seed: int) -> str:
    data = golden_data(d, kind)
    if algo == "randomized":
        tree = build_randomized(data, RandomizedConfig(beta=RANDOMIZED_BETA, seed=seed))
    else:
        config = LookaheadConfig(alpha=ALPHA[d], beta=LOOKAHEAD_BETA, d=d, seed=seed)
        tree = build_lookahead(data, config)
    return serialize_tree(tree)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = [
    (algo, d, kind, seed)
    for algo in ("randomized", "lookahead")
    for d in (1, 2, 3)
    for kind in ("continuous", "grid")
    for seed in (0, 5)
]
GOLDEN = {
    ('randomized', 1, 'continuous', 0): '282cf8218b48e691567709e9aee0a375799001f2bdcff397a5040d8ddf90f31a',
    ('randomized', 1, 'continuous', 5): 'ac8b5ac74eb8b9c639e606d3678909306b6d4b79fb8e3ab417890d515879fc68',
    ('randomized', 1, 'grid', 0): 'ce888e4df45ef712f3507de474fab9744f1f2e11681b16cc3382597b20ae4971',
    ('randomized', 1, 'grid', 5): 'af32fa8d6968c6a88daf1126c7b009ecaacf90dcd3aa426cd35a485e6b5ac2ec',
    ('randomized', 2, 'continuous', 0): '0169fc4272f715d56fca5b622d52cea7c5b74c4691ad66924437f94b1d0d29ec',
    ('randomized', 2, 'continuous', 5): 'ebe5c94378858d3215a715db9a36599995becf2d5426a1d5f3e5d874988e85dd',
    ('randomized', 2, 'grid', 0): 'a667c39ad0ef13b3b8314c4d04ab0da6bd282e756a8a2cb92cf0552108907cd2',
    ('randomized', 2, 'grid', 5): 'f28e698cd1a5ddf298f02117cdc09fd68ec1c9cc26ed64b034d3a768b3da93ea',
    ('randomized', 3, 'continuous', 0): '10b4ae0aa270ea4a40061320a3709aa9f3d7b4935cb8e60f1372def8bcf07846',
    ('randomized', 3, 'continuous', 5): '9d62ccc1801bd1f85f0a9367773cbac61cbc9e9f259172c97c1043d3ece9a4fa',
    ('randomized', 3, 'grid', 0): '3f81bed8d269a610ae538cf8976f58dbda89ffe17a4c6d4a302eb2078a77ac94',
    ('randomized', 3, 'grid', 5): '70d9ed7ebef189068f60b9134df2a26aae3d2836b8675b20a943c2034eb8f5d1',
    ('lookahead', 1, 'continuous', 0): '4cb1839e1945a29cd152222950374d7df973bc7521360b960b207168da66becc',
    ('lookahead', 1, 'continuous', 5): 'd51c90bf5e184193bf344a540e1b3e281ed43e35f1eae852a5f4eb17e84c621a',
    ('lookahead', 1, 'grid', 0): '42e87c00b62d8b987c988d810ebb3228ff12dc516554fcb9d6485551eb010f7e',
    ('lookahead', 1, 'grid', 5): '0b02bc76092f8144ce408723f14d53a04beb2e67612713ec78a0e50d9a2dd81f',
    ('lookahead', 2, 'continuous', 0): '3d64b1ff844436b6907fb1ba1bd587ac45494a68b4c8adc52ac2923be5ed6a73',
    ('lookahead', 2, 'continuous', 5): '6528ecafe1440aea6f7a41b917498a98e69baddec740a5053ac12e090ab9beda',
    ('lookahead', 2, 'grid', 0): '2acafcb77f0a6e982c2c6d45f7bd40ee4c3466c02d6fd0f77c9bcd956c34cb42',
    ('lookahead', 2, 'grid', 5): 'ebbc64cc41e18086dd18208ff65a4a893d5bd5f0d663fea5eff3889017180cd4',
    ('lookahead', 3, 'continuous', 0): '895ebdbf28d29aff8c78e478b2b33390abea6d2214b45590c3c391934b2a82d4',
    ('lookahead', 3, 'continuous', 5): '2b035f92ed0611f928aee9470574d53048fb9a0eeecf5f6d45e68376b20f9f38',
    ('lookahead', 3, 'grid', 0): '791c10c7f57bdd36709d86f7229ad1ec0efbe0a417d5a233b7475e8eef0ed019',
    ('lookahead', 3, 'grid', 5): '4063c70b799141ddbbf727e7b10db342cb181dd0ad758a989c25af7c1d5141b1',
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_document_hash_is_pinned(case):
    assert sha256(document(*case)) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {sha256(document(*case))!r},")
