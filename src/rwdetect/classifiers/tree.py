"""C4.5-style decision tree: gain-ratio splits on numeric features.

Split candidates are the midpoints between sorted distinct values of a
feature.  A node scores every candidate of every feature it considers in
one gain-ratio table and takes the first maximum: ties go to the lowest
feature index, then to the smallest threshold.  A node stops when it is
pure, holds fewer than ``min_leaf`` samples, or no candidate split has
strictly positive information gain.  No pruning.  When an RNG and a
subset size are supplied (random forest mode) each node considers only a
random feature subset.

In memory a tree, or every tree of a forest, is one ``Nodes``: flat
columns over all the nodes, child indexes absolute.  A leaf's children
are the leaf itself, which is how ``scores`` tells a leaf, and why a
(query, tree) pair at a leaf can step in place: its feature (0) and
threshold (as read) choose between two equal children.  A child comes
after its parent in its tree (``nodes_in`` checks it), so every walk
ends at a leaf.  The model file keeps one list of ``[feature, threshold,
left, right, pos, total]`` rows per tree, in preorder, with child
indexes counted from the tree's first row and a leaf written as
``feature = -1`` with ``-1`` children; ``nodes_in`` reads such lists
into columns and ``rows`` writes them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..features import N_FEATURES
from ._arrays import array, integers

ALIAS = "j48"
SCALED = False


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 2
    seed: int = 42


Params = TreeParams
CHECKS = ((lambda hp: hp.min_leaf >= 1, "min_leaf must be at least 1"),)


@dataclass(frozen=True, eq=False)
class Nodes:
    """The nodes of one or more trees as columns; ``len()`` is the node count."""
    feature: np.ndarray     # split feature, 0 at a leaf
    threshold: np.ndarray
    children: np.ndarray    # (nodes, 2): left and right; a leaf's are itself
    pos: np.ndarray         # positive training samples that reached the node
    total: np.ndarray
    roots: np.ndarray       # each tree's root, its first node, in tree order

    def __len__(self) -> int:
        return len(self.feature)


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
          rng=None, features_per_split: int | None = None) -> list[list]:
    """Grow a tree over samples (x, y in {0,1}); its model-file rows in preorder."""
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
    return raw


def fit(x: np.ndarray, y: np.ndarray, hp: TreeParams) -> Nodes:
    return nodes_in([build(x, y, min_leaf=hp.min_leaf)])


#: (query, tree) pairs ``scores`` routes at once; bounds its index arrays.
CHUNK_PAIRS = 1 << 14


def scores(nodes: Nodes, queries: np.ndarray) -> np.ndarray:
    """Mean over the trees of the positive fraction of each query's leaf.

    Up to ``CHUNK_PAIRS`` (query, tree) pairs start at their roots
    together.  Each step moves every pair it holds to a child, a pair at
    a leaf to that leaf.  Once fewer than three in four of them are at a
    split, the pairs at a leaf are written out and dropped; the walk
    stops when none is left.  A query goes left when its value is ``<=``
    the node's threshold, so right when it is ``>``: queries and
    thresholds are finite.  The leaf fractions
    ``pos / total`` are added tree by tree, in tree order, then divided
    by the tree count.
    """
    feature, threshold, children = nodes.feature, nodes.threshold, nodes.children
    n_trees = len(nodes.roots)
    chunk_rows = max(1, CHUNK_PAIRS // n_trees)
    total = np.zeros(len(queries))
    for lo in range(0, len(queries), chunk_rows):
        chunk = queries[lo:lo + chunk_rows]
        flat = chunk.ravel()
        # Pair t * len(chunk) + r is tree t and row r; ``node`` is where
        # each pair is, and (pair, at, row_start) where the walking ones are.
        node = np.repeat(nodes.roots, len(chunk))
        pair, at = np.arange(node.size), node
        row_start = np.tile(np.arange(0, flat.size, chunk.shape[1]), n_trees)
        while True:
            walking = children.take(2 * at) != at   # a leaf is its own child
            n_walking = np.count_nonzero(walking)
            if 4 * n_walking < 3 * walking.size:
                node[pair] = at
                if not n_walking:
                    break
                keep = np.flatnonzero(walking)
                pair, at, row_start = (a.take(keep) for a in (pair, at, row_start))
            goes_right = flat.take(row_start + feature.take(at)) > threshold.take(at)
            at = children.take(2 * at + goes_right)    # children[at, goes_right]
        fractions = nodes.pos.take(node) / nodes.total.take(node)
        part = total[lo:lo + chunk_rows]
        for fraction in fractions.reshape(n_trees, len(chunk)):
            part += fraction
    return total / n_trees


def nodes_in(trees) -> Nodes:
    """Columns of trees given as lists of model-file rows.

    Raises ValueError on rows that fail the checks of
    docs/model_format.md, which make every query's walk end at a leaf.
    """
    sizes = list(map(len, trees))
    if not all(sizes):
        raise ValueError("empty tree")
    flat = list(chain.from_iterable(trees))
    if set(map(len, flat)) != {6}:
        raise ValueError("a node row does not have six fields")
    feature, threshold, left, right, pos, total = (
        array(column, (None,)) if k == 1 else integers(column)
        for k, column in enumerate(map(list, zip(*flat))))

    n = len(flat)
    start = np.cumsum(sizes) - sizes
    offset = np.repeat(start, sizes)
    count = np.repeat(sizes, sizes)
    local = np.arange(n) - offset
    leaf = feature == -1
    faults = (
        (leaf & ((left != -1) | (right != -1)), "leaf {} has children"),
        (~leaf & ~((0 <= feature) & (feature < N_FEATURES)
                   & (local < left) & (left < count)
                   & (local < right) & (right < count)),
         "node {} has a bad feature or child index"),
        ((pos < 0) | (pos > total) | (total < 1), "node {} has bad sample counts"),
    )
    for bad, message in faults:
        if bad.any():
            raise ValueError(message.format(local[bad.argmax()]))

    children = np.stack([left, right], axis=1)
    children += offset[:, None]
    children[leaf] = np.flatnonzero(leaf)[:, None]
    feature[leaf] = 0
    return Nodes(feature=feature, threshold=threshold, children=children,
                 pos=pos, total=total, roots=start)


def rows(nodes: Nodes) -> list[list[tuple]]:
    """Each tree's model-file rows."""
    n = len(nodes)
    leaf = nodes.children[:, 0] == np.arange(n)
    offset = np.repeat(nodes.roots, np.diff(nodes.roots, append=n))
    feature = np.where(leaf, -1, nodes.feature)
    left, right = np.where(leaf[:, None], -1, nodes.children - offset[:, None]).T
    bounds = [*nodes.roots.tolist(), n]
    return [list(zip(*(column[lo:hi].tolist() for column in (
                feature, nodes.threshold, left, right, nodes.pos, nodes.total))))
            for lo, hi in zip(bounds, bounds[1:])]


def params_out(nodes: Nodes) -> dict:
    return {"nodes": rows(nodes)[0]}


KEYS = ("nodes",)


def params_in(obj: dict, hp: TreeParams) -> Nodes:
    return nodes_in([obj["nodes"]])
