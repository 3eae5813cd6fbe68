"""Random forest over the gain-ratio trees.

Per-tree randomness comes from independent generators spawned off the
forest seed, one per tree in tree order.  Each draws first its tree's
bootstrap sample (when enabled), then its nodes' feature subsets.  A
bootstrap sample is an array of row indices into the training matrix,
not a copy of its rows; ``tree.grow`` grows all the trees together.
The ensemble score is the unweighted mean of the tree leaf scores.

A forest is one ``tree.Nodes`` over all its trees, scored by
``tree.scores``; the model file keeps one list of node rows per tree,
``hp.trees`` of them, and each tree's split features (``features_used``),
derived from the rows when written and matched against them when read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import N_FEATURES
from . import tree
from ._arrays import integer

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


def fit(x: np.ndarray, y: np.ndarray, hp: ForestParams) -> dict:
    n = len(y)
    rngs = [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(hp.seed).spawn(hp.trees)]
    # A generator, so that each bootstrap sample is freed once its root splits.
    samples = (rng.integers(0, n, size=n) if hp.bootstrap else np.arange(n)
               for rng in rngs)
    trees = tree.grow(x, y, samples, hp.min_leaf, hp.features_per_split, rngs)
    return {"trees": trees, "features_used": _features_used(trees)}


scores = tree.scores


def _features_used(trees: list) -> list[list[int]]:
    """Each tree's split features, sorted, from its model-file rows."""
    return [sorted({row[0] for row in rows} - {-1}) for rows in trees]


def params_out(nodes: tree.Nodes) -> dict:
    trees = tree.rows(nodes)
    return {"trees": trees, "features_used": _features_used(trees)}


KEYS = ("features_used", "trees")


def params_in(obj: dict, hp: ForestParams) -> tree.Nodes:
    if len(obj["trees"]) != hp.trees:
        raise ValueError(f"{len(obj['trees'])} trees, hyperparameters say {hp.trees}")
    nodes = tree.nodes_in(obj["trees"])
    used = [[integer(f) for f in features] for features in obj["features_used"]]
    if used != _features_used(obj["trees"]):
        raise ValueError("features_used disagrees with the trees")
    return nodes
