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

The model file keeps one list of ``[feature, threshold, left, right,
pos, total]`` rows per tree, in canonical preorder: a split's left child
is the next row and its right child the row after the left subtree.
Child indexes count from the tree's first row, and a leaf is written as
``feature = -1`` with ``-1`` children.  ``grow`` returns such lists.
``nodes_in``, the one builder of a ``Nodes``, checks them and reads them
into one ``Nodes`` for a tree, or for every tree of a forest: each
node's leaf score ``pos / total``, and exit tables.  Nothing turns a
``Nodes`` back into rows: a model keeps the file it was read from.

``scores`` finds each (query, tree) pair's exit leaf from the tables
(QuickScorer: Lucchese et al., SIGIR 2015).  A query goes right at a
split exactly when its value is above the threshold, and then no leaf of
the split's left subtree is its exit; the exit is the leftmost leaf that
no such split rules out.  With the leaves numbered left to right, which
in canonical preorder is row order, the leaves a split leaves in play
are a bit mask.  On one feature, a query goes right at the splits whose
thresholds are below its value, a prefix of the tree's splits on that
feature sorted by threshold; so one running AND of their masks per
prefix, picked by the query's rank among the thresholds, serves all
queries, and the lowest bit set in the AND of the 13 features' picks is
the exit.

A mask is one 64-bit word, so trees of more leaves are cut into
fragments of at most ``FRAGMENT_SLOTS`` slots, a slot being a leaf or the
root of a further fragment; a pair whose exit slot roots a fragment hops
to its exit there.  Each fragment's running ANDs are stored once; the
count tables of up to ``BLOCK_FRAGMENTS`` fragments make a block, which
ranks queries among its own thresholds only, so the tables grow with the
node count rather than with thresholds times fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise

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
class Block:
    """The count table of up to ``BLOCK_FRAGMENTS`` consecutive fragments.

    A feature's cuts are the distinct thresholds of the block's splits
    on it.  A query value above ``r`` of them goes right at every such
    split whose threshold is one of those ``r``.
    """
    cuts: np.ndarray        # feature by feature, ascending
    cut_start: np.ndarray   # feature f's cuts are cuts[cut_start[f]:cut_start[f + 1]]
    counts: np.ndarray      # uint8, (len(cuts) + 13, fragments): row cut_start[f] + f + r
                            # counts each fragment's splits on f at f's first r cuts


@dataclass(frozen=True, eq=False)
class Nodes:
    """The nodes of one or more trees: their exit tables and scores;
    ``len()`` is the node count."""
    n_trees: int            # fragment t, for t below it, is tree t's root
    masks: np.ndarray       # uint64: masks[base + count] keeps the slots that the
                            # first ``count`` splits on f, by threshold, leave reachable
    base: np.ndarray        # (13, fragments), the smallest type indexing masks: where
                            # masks holds the fragment's running ANDs over its splits on f
    first_slot: np.ndarray  # each fragment's first slot
    blocks: tuple           # fragment f's count table is in block f // BLOCK_FRAGMENTS
    exit: np.ndarray        # each slot's leaf, or -1 - the fragment it roots
    score: np.ndarray       # pos / total: the positive share of the training
                            # samples that reached the node

    def __len__(self) -> int:
        return len(self.score)


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
         features_per_split: int = N_FEATURES, rngs=None) -> list[list[list]]:
    """Grow one tree per sample in lockstep: each tree's model-file rows, in order.

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
    return trees


def fit(x: np.ndarray, y: np.ndarray, hp: TreeParams) -> dict:
    return {"nodes": grow(x, y, [np.arange(len(y))], hp.min_leaf)[0]}


#: Slots of a fragment: the bits of one mask word.
FRAGMENT_SLOTS = 64

#: Fragments per table block.  A block's count table has a row per
#: distinct threshold of the block's own splits and a column per fragment,
#: so blocks keep the tables linear in the node count.
BLOCK_FRAGMENTS = 128

#: (query, fragment) exit slots ``scores`` finds at once; bounds its
#: temporaries.
CHUNK_EXITS = 1 << 14

_ALL = np.uint64(2**64 - 1)
_ONE = np.uint64(1)


def scores(nodes: Nodes, queries: np.ndarray) -> np.ndarray:
    """Mean over the trees of the positive fraction of each query's leaf.

    Queries are taken in chunks of up to ``CHUNK_EXITS`` (query,
    fragment) pairs.  Each block gives every query of a chunk its exit
    slot in every fragment of the block: per feature, the query's rank
    among the block's cuts picks each fragment's count of splits below
    the value, and the count picks the running AND of those splits'
    masks; the lowest bit set in the AND of the 13 picks is the exit.  A
    (query, tree) pair takes its tree's root fragment's exit, then, while
    that slot roots a fragment, the exit there.  The leaf scores are
    added tree by tree, in tree order, then divided by the tree count.
    """
    n_fragments = len(nodes.first_slot)
    chunk_rows = max(1, CHUNK_EXITS // n_fragments)
    total = np.zeros(len(queries))
    for lo in range(0, len(queries), chunk_rows):
        chunk = queries[lo:lo + chunk_rows]
        slot = np.empty((len(chunk), n_fragments), dtype=np.int64)
        end = 0
        for block in nodes.blocks:
            start, end = end, end + block.counts.shape[1]
            base = nodes.base[:, start:end]
            reach = np.full((len(chunk), end - start), _ALL)
            for f, (a, b) in enumerate(pairwise(block.cut_start.tolist())):
                if a < b:
                    row = np.searchsorted(block.cuts[a:b], chunk[:, f]) + (a + f)
                    reach &= nodes.masks.take(base[f] + block.counts.take(row, axis=0))
            # The exit is the lowest set bit; the bits up to it count its index + 1.
            np.add(nodes.first_slot[start:end] - 1, np.bitwise_count(reach ^ (reach - _ONE)),
                   out=slot[:, start:end])
        leaf = nodes.exit.take(slot[:, :nodes.n_trees].T)
        tree, row = np.nonzero(leaf < 0)
        while len(row):
            leaf[tree, row] = nodes.exit.take(slot[row, -1 - leaf[tree, row]])
            hopping = leaf[tree, row] < 0
            tree, row = tree[hopping], row[hopping]
        part = total[lo:lo + chunk_rows]
        for score in nodes.score.take(leaf):
            part += score
    return total / nodes.n_trees


def nodes_in(trees) -> Nodes:
    """Leaf scores and exit tables of trees given as lists of model-file rows.

    Raises ValueError on rows that fail the checks of
    docs/model_format.md, which make each tree one canonical preorder.
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
    start = np.cumsum(sizes) - sizes
    last = _check(feature, left, right, pos, total, start, sizes)
    split = np.flatnonzero(feature != -1)
    frag, keep, first_slot, exits = _slots(split, right, start, sizes, last)
    masks, base, blocks = _tables(frag, feature[split], threshold[split], keep,
                                  len(first_slot))
    return Nodes(n_trees=len(sizes), masks=masks, base=base, first_slot=first_slot,
                 blocks=blocks, exit=exits, score=pos / total)


def _compact(column: np.ndarray) -> np.ndarray:
    """An integer column in the smallest type that holds its values."""
    return column.astype(np.promote_types(np.min_scalar_type(column.min(initial=0)),
                                          np.min_scalar_type(column.max(initial=0))))


def _check(feature, left, right, pos, total, start, sizes) -> np.ndarray:
    """Each node's last descendant, once the rows pass the checks of
    docs/model_format.md; else ValueError naming the first bad row."""
    n = len(feature)
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

    split = np.flatnonzero(~leaf)
    # A split's last descendant is its right child's; a leaf is its own.
    last = np.arange(n)
    last[split] = right[split] + offset[split]
    while not np.array_equal(further := last.take(last), last):
        last = further
    # Canonical preorder: a split's left child is the next row, its right
    # child the row after the left subtree, and the root's subtree ends at
    # the tree's last row.  Then the root reaches each row exactly once.
    bad = np.zeros(n, dtype=bool)
    bad[split] = ((left[split] != local[split] + 1)
                  | (right[split] + offset[split] != last.take(split + 1) + 1))
    reach = last.take(start)
    bad[reach[reach < start + sizes - 1] + 1] = True
    if bad.any():
        raise ValueError(f"node {local[bad.argmax()]} is not in canonical preorder")
    return last


def _cut_nodes(leaf, right, start, sizes) -> np.ndarray:
    """Split nodes, ascending, that root fragments of their own, so that
    no fragment holds more than ``FRAGMENT_SLOTS`` slots.

    Bottom up: a split whose children hold more slots than that between
    them cuts off its larger child, which then holds one slot, then its
    other child too if still over.
    """
    cut = []
    n_leaves = np.add.reduceat(leaf, start)
    for t in np.flatnonzero(n_leaves > FRAGMENT_SLOTS).tolist():
        lo, hi = int(start[t]), int(start[t]) + sizes[t]
        is_leaf, right_of = leaf[lo:hi].tolist(), right[lo:hi].tolist()   # in the tree
        slots = [1] * sizes[t]
        for i in reversed(range(sizes[t])):
            if not is_leaf[i]:
                a, b = i + 1, right_of[i]
                if slots[a] < slots[b]:
                    a, b = b, a
                held = slots[a] + slots[b]
                if held > FRAGMENT_SLOTS:
                    cut.append(lo + a)
                    held = 1 + slots[b]
                    if held > FRAGMENT_SLOTS:
                        cut.append(lo + b)
                        held = 2
                slots[i] = held
    return np.sort(np.array(cut, dtype=np.int64))


def _slots(split, right, start, sizes, last):
    """Each split's fragment and the slots it leaves when a query goes
    right at it; each fragment's first slot; each slot's leaf, or -1 -
    the fragment it roots.

    A fragment is a tree's root, or a cut node, and the nodes below it
    down to its slots: the leaves and cut nodes under it that no other
    cut node is above.  Its slots are numbered left to right, which in
    canonical preorder is their row order.
    """
    n, n_trees = len(last), len(start)
    leaf = np.ones(n, dtype=bool)
    leaf[split] = False
    right_at = right[split] + np.repeat(start, sizes)[split]
    cut = _cut_nodes(leaf, right, start, sizes)
    n_fragments = n_trees + len(cut)
    rooted = np.full(n, -1)
    rooted[cut] = np.arange(n_trees, n_fragments)
    # Each node's fragment as a split or slot: a cut node is a slot of the
    # fragment above it and the root split of its own.
    inner = np.repeat(np.arange(n_trees), sizes)
    for fragment, node in enumerate(cut.tolist(), n_trees):   # outer cuts first
        inner[node + 1:last[node] + 1] = fragment
    is_slot = leaf.copy()
    is_slot[cut] = True
    slot_node = np.flatnonzero(is_slot)
    owner = inner.take(slot_node)
    order = np.argsort(owner, kind="stable")    # slot ids: by fragment, then row
    first_slot = np.searchsorted(owner[order], np.arange(n_fragments))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - first_slot[owner[order]]
    # The slots of a split's left subtree in its fragment: from the first
    # slot at or after its left child to the first at or after its right.
    slots_before = np.cumsum(is_slot) - is_slot
    lo = rank.take(slots_before.take(split + 1)).astype(np.uint64)
    hi = rank.take(slots_before.take(right_at)).astype(np.uint64)
    keep = ~((_ALL >> (np.uint64(64) - hi)) ^ ((_ONE << lo) - _ONE))
    frag = np.where(rooted[split] >= 0, rooted[split], inner[split])
    slot_node = slot_node[order]
    exits = np.where(leaf[slot_node], slot_node, -1 - rooted[slot_node])
    return frag, keep, first_slot, _compact(exits)


def _tables(frag, feat, value, keep, n_fragments) -> tuple:
    """The masks, their bases and each block's count table, from the splits'
    fragments, features, thresholds and slots left when a query goes right."""
    n_blocks = -(-n_fragments // BLOCK_FRAGMENTS)
    block = frag // BLOCK_FRAGMENTS
    # Stable sorts of small keys after one of the thresholds: splits by
    # (block, feature, threshold) for the cuts, by (fragment, feature,
    # threshold) for the tables.  Keys of up to 16 bits sort by radix.
    by_value = np.argsort(value)
    by_cut = by_value[np.argsort(_compact(block * N_FEATURES + feat)[by_value], kind="stable")]
    by_frag = by_value[np.argsort(_compact(frag * N_FEATURES + feat)[by_value], kind="stable")]
    cut_key = (block * N_FEATURES + feat)[by_cut]
    new = np.ones(len(frag), dtype=bool)
    new[1:] = (np.diff(cut_key) != 0) | (np.diff(value[by_cut]) != 0)
    cuts = value[by_cut][new]
    cut_bounds = np.searchsorted(cut_key[new], np.arange(n_blocks * N_FEATURES + 1))
    # Each split's row in its block's count table: its cut's, after its
    # feature's zero row.
    row = np.empty(len(frag), dtype=np.int64)
    row[by_cut] = np.cumsum(new) + feat[by_cut] - cut_bounds[N_FEATURES * block[by_cut]]
    frag, feat, row = frag[by_frag], feat[by_frag], row[by_frag]
    # Masks: an all-ones word for groups without splits, then each
    # (fragment, feature) group's running AND by threshold, after an
    # all-ones head of its own.
    head = np.ones(len(frag), dtype=bool)
    head[1:] = (np.diff(feat) != 0) | (np.diff(frag) != 0)
    at = np.arange(len(frag)) + np.cumsum(head) + 1
    masks = np.full(len(frag) + head.sum() + 1, _ALL)
    masks[at] = keep[by_frag]
    segment = np.zeros(len(masks), dtype=np.int64)
    segment[at[head] - 1] = 1
    segment = np.cumsum(segment)
    step = 1
    while step < FRAGMENT_SLOTS:    # a running AND within each group, by doubling
        masks[step:] &= np.where(segment[step:] == segment[:-step], masks[:-step], _ALL)
        step *= 2
    base = np.zeros((N_FEATURES, n_fragments), dtype=np.min_scalar_type(len(masks) - 1))
    base[feat[head], frag[head]] = at[head] - 1
    # Count tables: each fragment's splits at each row of its block's,
    # then running sums down each feature's rows.
    first = np.ones(len(frag), dtype=bool)
    first[1:] = (np.diff(row) != 0) | (np.diff(frag) != 0)
    run = np.flatnonzero(first)
    run_length = np.diff(run, append=len(first))
    run_bounds = np.searchsorted(frag[run], np.arange(n_blocks + 1) * BLOCK_FRAGMENTS)
    blocks = []
    for b, fa in enumerate(range(0, n_fragments, BLOCK_FRAGMENTS)):
        bounds = cut_bounds[b * N_FEATURES:(b + 1) * N_FEATURES + 1]
        cut_start = bounds - bounds[0]
        counts = np.zeros((cut_start[-1] + N_FEATURES, min(BLOCK_FRAGMENTS, n_fragments - fa)),
                          dtype=np.uint8)
        mine = run[run_bounds[b]:run_bounds[b + 1]]
        counts[row[mine], frag[mine] - fa] = run_length[run_bounds[b]:run_bounds[b + 1]]
        for lo, hi in pairwise((cut_start + np.arange(N_FEATURES + 1)).tolist()):
            if hi - lo > 1:
                np.cumsum(counts[lo:hi], axis=0, out=counts[lo:hi])
        blocks.append(Block(cuts[bounds[0]:bounds[-1]], cut_start, counts))
    return masks, base, tuple(blocks)


KEYS = ("nodes",)


def params_in(obj: dict, hp: TreeParams) -> Nodes:
    return nodes_in([obj["nodes"]])
