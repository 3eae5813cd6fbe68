"""C4.5-style decision tree: gain-ratio splits on numeric features.

Split candidates are the midpoints between sorted distinct values of a
feature.  A node scores every candidate of every feature it considers in
one gain-ratio table and takes the first maximum: ties go to the lowest
feature index, then to the smallest threshold.  A node stops when it is
pure, holds fewer than ``min_leaf`` samples, or no candidate split has
strictly positive information gain.  No pruning.  When an RNG and a
subset size are supplied (random forest mode) each node considers only a
random feature subset.

A tree is its preorder list of ``TreeNode`` tuples.  A node is the
``[feature, threshold, left, right, pos, total]`` row of the model file,
so the list is written as it is and read back through ``nodes_in``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..features import N_FEATURES
from ._arrays import integer, number

ALIAS = "j48"
SCALED = False


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 2
    seed: int = 42


Params = TreeParams
CHECKS = ((lambda hp: hp.min_leaf >= 1, "min_leaf must be at least 1"),)


class TreeNode(NamedTuple):
    feature: int        # -1 marks a leaf
    threshold: float
    left: int           # child index into the node list, -1 for leaves
    right: int
    pos: int            # positive training samples that reached the node
    total: int


def _binary_entropy(pos, total):
    p = pos / total
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
              + np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0))
    return h


def _split_table(cols: np.ndarray, labels: np.ndarray):
    """Gain-ratio table of every cut of every column of ``cols`` (n, m).

    Row ``i`` is the cut between the ``i``-th and ``i+1``-th smallest
    values of each column.  Returns the sorted columns and the (n-1, m)
    gain and ratio tables; a ratio cell is ``-inf`` where the cut falls
    between equal values or its gain is not strictly positive.
    """
    order = np.argsort(cols, axis=0, kind="stable")
    v = cols[order, np.arange(cols.shape[1])]
    cum_pos = np.cumsum(labels[order], axis=0, dtype=np.float64)
    n = len(v)
    total_pos = cum_pos[-1]

    n_left = np.arange(1.0, n)[:, None]
    pos_left = cum_pos[:-1]
    n_right = n - n_left
    pos_right = total_pos - pos_left

    parent = _binary_entropy(total_pos[0], float(n))
    frac_left = n_left / n
    frac_right = n_right / n
    gain = parent - frac_left * _binary_entropy(pos_left, n_left) \
        - frac_right * _binary_entropy(pos_right, n_right)
    split_info = -(frac_left * np.log2(frac_left) + frac_right * np.log2(frac_right))
    usable = (v[1:] != v[:-1]) & (gain > 0.0)
    return v, gain, np.where(usable, gain / split_info, -np.inf)


def _choose_split(x: np.ndarray, y: np.ndarray, idx: np.ndarray,
                  rng, features_per_split):
    n_features = x.shape[1]
    if rng is not None and features_per_split is not None \
            and features_per_split < n_features:
        candidates = np.sort(rng.choice(n_features, size=features_per_split,
                                        replace=False))
    else:
        candidates = np.arange(n_features)

    v, _gain, ratio = _split_table(x[idx[:, None], candidates], y[idx])
    # First maximum over (candidate, cut): the tie rule of the module docstring.
    col, cut = divmod(int(np.argmax(ratio.T)), len(ratio))
    if ratio[cut, col] == -np.inf:
        return None
    return int(candidates[col]), float((v[cut, col] + v[cut + 1, col]) / 2.0)


def build(x: np.ndarray, y: np.ndarray, min_leaf: int = 2,
          rng=None, features_per_split: int | None = None) -> list[TreeNode]:
    """Grow a tree over samples (x, y in {0,1}); nodes listed in preorder."""
    # Explicit stack: unpruned chains can outgrow the recursion limit.
    raw: list[list] = []  # [feature, threshold, left, right, pos, total]
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(len(y)), -1, 0)]
    while stack:
        idx, parent, side = stack.pop()
        node_id = len(raw)
        if parent >= 0:
            raw[parent][2 + side] = node_id
        pos = int(y[idx].sum())
        total = int(idx.size)
        split = None
        if total >= min_leaf and 0 < pos < total:
            split = _choose_split(x, y, idx, rng, features_per_split)
        if split is None:
            raw.append([-1, 0.0, -1, -1, pos, total])
            continue
        feature, threshold = split
        raw.append([feature, threshold, -1, -1, pos, total])
        mask = x[idx, feature] <= threshold
        # Right pushed first so the left subtree is numbered first.
        stack.append((idx[~mask], node_id, 1))
        stack.append((idx[mask], node_id, 0))
    return [TreeNode(*row) for row in raw]


def fit(x: np.ndarray, y: np.ndarray, hp: TreeParams) -> list[TreeNode]:
    return build(x, y, min_leaf=hp.min_leaf)


def scores(nodes: list[TreeNode], queries: np.ndarray) -> np.ndarray:
    """Positive-class fraction of the leaf each query routes to."""
    return leaf_scores(nodes, queries.tolist())


def leaf_scores(nodes: list[TreeNode], rows: list[list[float]]) -> np.ndarray:
    """``scores`` over ``queries.tolist()``: Python floats, no numpy scalar
    per step.  A forest converts its queries once for all its trees."""
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        node = nodes[0]
        while node.feature >= 0:
            child = node.left if row[node.feature] <= node.threshold else node.right
            node = nodes[child]
        out[i] = node.pos / node.total
    return out


def features_used(nodes: list[TreeNode]) -> list[int]:
    return sorted({n.feature for n in nodes if n.feature >= 0})


def nodes_in(obj) -> list[TreeNode]:
    """Preorder nodes from a model file; children follow their parent."""
    count = len(obj)
    nodes = []
    for i, row in enumerate(obj):
        feature, threshold, left, right, pos, total = row
        feature, left, right, pos, total = (
            integer(v) for v in (feature, left, right, pos, total))
        if feature == -1:
            if left != -1 or right != -1:
                raise ValueError(f"leaf {i} has children")
        elif not (0 <= feature < N_FEATURES and i < left < count and i < right < count):
            raise ValueError(f"node {i} has a bad feature or child index")
        if not 0 <= pos <= total or total < 1:
            raise ValueError(f"node {i} has bad sample counts")
        nodes.append(TreeNode(feature, number(threshold), left, right, pos, total))
    if not nodes:
        raise ValueError("empty tree")
    return nodes


def params_out(nodes: list[TreeNode]) -> dict:
    return {"nodes": nodes}


def params_in(obj: dict, hp: TreeParams) -> list[TreeNode]:
    return nodes_in(obj["nodes"])
