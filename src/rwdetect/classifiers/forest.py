"""Random forest over the gain-ratio trees.

Per-tree randomness comes from independent generators spawned off the
forest seed, consumed in tree order: first the bootstrap draw (when
enabled), then the per-node feature subsets.  The ensemble score is the
unweighted mean of the tree leaf scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import N_FEATURES
from . import tree

ALIAS = "forest"
SCALED = False


@dataclass(frozen=True)
class ForestParams:
    trees: int = 100
    bootstrap: bool = True
    features_per_split: int = 4   # ceil(sqrt(13))
    min_leaf: int = 2
    seed: int = 42


Params = ForestParams
CHECKS = (
    (lambda hp: hp.trees >= 1, "trees must be at least 1"),
    (lambda hp: 1 <= hp.features_per_split <= N_FEATURES,
     "features_per_split must be in [1, 13]"),
    (lambda hp: hp.min_leaf >= 1, "min_leaf must be at least 1"),
)


@dataclass
class ForestState:
    trees: list[list[tree.TreeNode]]
    features_used: list[tuple[int, ...]]  # per tree, ascending


def fit(x: np.ndarray, y: np.ndarray, hp: ForestParams) -> ForestState:
    n = len(y)
    subset = hp.features_per_split
    if subset >= x.shape[1]:
        subset = None  # full feature set: identical to a plain tree build
    children = np.random.SeedSequence(hp.seed).spawn(hp.trees)
    trees = []
    used = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        if hp.bootstrap:
            picks = rng.integers(0, n, size=n)
            xb, yb = x[picks], y[picks]
        else:
            xb, yb = x, y
        nodes = tree.build(xb, yb, min_leaf=hp.min_leaf,
                           rng=rng, features_per_split=subset)
        trees.append(nodes)
        used.append(tree.features_used(nodes))
    return ForestState(trees, used)


def scores(state: ForestState, queries: np.ndarray) -> np.ndarray:
    total = np.zeros(len(queries))
    for nodes in state.trees:
        total += tree.scores(nodes, queries)
    return total / len(state.trees)


def params_out(state: ForestState) -> dict:
    return {"trees": [tree.nodes_out(t) for t in state.trees],
            "features_used": [list(u) for u in state.features_used]}


def params_in(obj: dict, hp: ForestParams) -> ForestState:
    trees = [tree.nodes_in(t) for t in obj["trees"]]
    if not trees:
        raise ValueError("a forest needs at least one tree")
    used = [tuple(int(f) for f in u) for u in obj["features_used"]]
    if len(used) != len(trees):
        raise ValueError("features_used and trees disagree")
    return ForestState(trees=trees, features_used=used)
