"""C4.5-style decision tree: gain-ratio splits on numeric features.

A split cuts a feature between two adjacent distinct values ``a < b`` of
the node's samples.  Its threshold is the midpoint ``(a + b) / 2`` when
that lies in ``[a, b)``, else ``a``: the midpoint of adjacent doubles can
round to ``b``, and a sum past the largest double overflows.  A node
scores every cut of every feature it considers and takes the first
maximum of the gain ratio: ties go to the lowest feature index, then to
the smallest threshold.  A node stops when it is pure, holds fewer than
``min_leaf`` samples, or no cut has strictly positive information gain.
No pruning.  In random forest mode each node searched considers a
feature subset drawn from its tree's generator.

``grow`` grows every tree of a forest, or J48's one, in lockstep.  Each
tree pops nodes off its own stack in preorder, so its generator draws
subsets in the order of a tree grown alone.  On each step every live
tree pops leaves up to its next node to search, and one search scores
all those nodes in batches of at most ``CHUNK_CELLS`` cells.

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
    return -(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
             + np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0))


def _gain_ratio(n, n_left, parent, left, right):
    """Gain and gain ratio (``-inf`` unless the gain is positive) of cuts
    sending ``n_left`` of ``n`` samples left, from the entropies of the
    samples (``parent``) and of each side."""
    n_right = n - n_left
    frac_left, frac_right = n_left / n, n_right / n
    gain = parent - frac_left * left - frac_right * right
    split_info = -(frac_left * np.log2(frac_left) + frac_right * np.log2(frac_right))
    return gain, np.where(gain > 0.0, gain / split_info, -np.inf)


#: Cells (a node's sample under one candidate feature) per search batch,
#: unless one node needs more.
CHUNK_CELLS = 1 << 15


def _order_codes(x: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column, in the
    smallest unsigned type that holds it; equal values share a code."""
    return np.stack([np.unique(column, return_inverse=True)[1] for column in x.T],
                    axis=1).astype(np.min_scalar_type(len(x)))


def _search(x, codes, y, rows, candidates, pos):
    """Each node's best split, None or ``(feature, threshold, left rows,
    right rows, left positives)``, from its rows, candidates and positives.

    A node's rows under one candidate are a block of cells, sorted within
    the block by ``codes``; only cuts between distinct values are scored.
    """
    size = np.array([len(r) for r in rows])
    width = np.array([len(c) for c in candidates])
    block_size = np.repeat(size, width)
    end = np.cumsum(block_size)
    start = end - block_size
    # Small unsigned keys, so that the stable sorts below are radix sorts.
    block = np.repeat(np.arange(len(block_size), dtype=np.min_scalar_type(len(block_size))),
                      block_size)
    row = np.concatenate([r for r, c in zip(rows, candidates) for _ in c])
    feature = np.concatenate(candidates)
    code = codes[row, feature[block]]
    order = np.argsort(code, kind="stable")
    order = order[np.argsort(block[order], kind="stable")]
    row, code = row[order], code[order]
    cum = np.concatenate(([0], np.cumsum(y[row], dtype=np.int64)))
    cut = np.flatnonzero((code[1:] != code[:-1]) & (block[1:] == block[:-1]))
    cut_block = block[cut]
    node = np.repeat(np.arange(len(rows)), width)[cut_block]
    n, pos = size.astype(np.float64), np.array(pos, dtype=np.float64)
    n_left = (cut + 1 - start[cut_block]).astype(np.float64)
    pos_left = (cum[cut + 1] - cum[start[cut_block]]).astype(np.float64)
    # Every entropy in one call: the nodes', then each side's of each cut.
    parent, left, right = np.split(
        _binary_entropy(np.concatenate([pos, pos_left, pos[node] - pos_left]),
                        np.concatenate([n, n_left, n[node] - n_left])),
        [len(rows), len(rows) + len(cut)])
    ratio = _gain_ratio(n[node], n_left, parent[node], left, right)[1]
    # First maximum per node, candidate-major then by cut: the tie rule.
    best = np.full(len(rows), -np.inf)
    np.maximum.at(best, node, ratio)
    hit = np.flatnonzero(ratio == best[node])
    top = np.full(len(rows), len(cut))
    np.minimum.at(top, node[hit], hit)
    top = top[best > -np.inf]
    at, chosen = cut[top], cut_block[top]
    f = feature[chosen]
    out = [None] * len(rows)
    for k, feat, i, lo, hi, a, b, left_pos in zip(*(v.tolist() for v in (
            node[top], f, at, start[chosen], end[chosen],
            x[row[at], f], x[row[at + 1], f], pos_left[top]))):
        mid = (a + b) / 2.0
        out[k] = (feat, mid if a <= mid < b else a, row[lo:i + 1].copy(),
                  row[i + 1:hi].copy(), int(left_pos))
    return out


def grow(x: np.ndarray, y: np.ndarray, samples, min_leaf: int,
         features_per_split: int = N_FEATURES, rngs=None) -> Nodes:
    """Grow one tree per sample in lockstep: one ``Nodes``, in sample order.

    A sample holds row indices into ``x`` (repeats allowed); ``y`` is 0 or
    1.  A node keeps its own rows, so a sample the caller does not hold is
    freed once its root splits.  With ``features_per_split`` below the
    feature count, each search draws a subset from its tree's ``rngs``.
    """
    n_features = x.shape[1]
    codes = _order_codes(x)
    # Explicit stacks: unpruned chains can outgrow the recursion limit.
    stacks = [[(rows.astype(codes.dtype), -1, 0, int(y[rows].sum()))] for rows in samples]
    trees = [[] for _ in stacks]    # model-file rows
    live = range(len(stacks))
    while live:
        pending = []    # each live tree's next node to search, its last row
        for t in live:
            raw, stack = trees[t], stacks[t]
            while stack:
                rows, parent, side, pos = stack.pop()
                if parent >= 0:
                    raw[parent][2 + side] = len(raw)
                raw.append([-1, 0.0, -1, -1, pos, len(rows)])
                if len(rows) >= min_leaf and 0 < pos < len(rows):
                    candidates = np.arange(n_features)
                    if features_per_split < n_features:
                        candidates = np.sort(rngs[t].choice(
                            n_features, features_per_split, replace=False))
                    pending.append((rows, candidates, pos, t))
                    break
        while pending:
            cells = np.cumsum([len(p[0]) * len(p[1]) for p in pending])
            take = max(1, int(np.searchsorted(cells, CHUNK_CELLS, side="right")))
            rows, candidates, pos, tree_of = zip(*pending[:take])
            del pending[:take]
            for t, split in zip(tree_of, _search(x, codes, y, rows, candidates, pos)):
                if split is not None:
                    feature, threshold, left, right, left_pos = split
                    raw, node = trees[t], len(trees[t]) - 1
                    raw[node][:2] = feature, threshold
                    # Right pushed first so the left subtree is numbered first.
                    stacks[t] += [(right, node, 1, raw[node][4] - left_pos),
                                  (left, node, 0, left_pos)]
        live = [t for t in live if stacks[t]]
    return nodes_in(trees)


def fit(x: np.ndarray, y: np.ndarray, hp: TreeParams) -> Nodes:
    return grow(x, y, [np.arange(len(y))], hp.min_leaf)


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
