"""Gradient-boosted decision trees on logistic loss, from scratch.

Newton boosting: per round, fit one regression tree to the gradient and
hessian statistics of the logistic loss and add it with learning-rate
shrinkage.  Trees grow leaf-wise (best global gain first) with exact
split search over sorted feature columns; no histogram binning.

The presort, the split scan and the partition of a node's sorted rows
go over equal-width blocks of columns of at most ``_BLOCK_ELEMS``
(row, column) elements, so a train's scratch memory does not grow with
the feature count and two trains run in less memory than one whole-node
search took.  A column's float32 prefix sums do not depend on its block,
and the blocks' best splits combine as ``np.argmax`` over the whole gain
matrix would, so the trees are those of a search over the whole node.

Each row's g and h travel as one complex64, so one ``take`` and one
``cumsum`` give both prefix sums, each part added in float32 in the
order two float32 sums would use.  A boundary between equal values is
no split, but only columns with equal neighbours in the presort (found
once per train) can have one, so only those columns gather their values.
The partition splits each block's order with 1-D ``compress``.

Prediction packs every tree into one set of node arrays (``_Pack``, in
the spirit of QuickScorer, Lucchese et al. 2015) and walks all
(row, tree) pairs together, one depth level per numpy step; a leaf
points to itself, so a pair that has finished stays put.  Leaf values
are summed in the order of a per-tree loop, ``base`` and then
``+= learning_rate * value`` tree by tree, through ``np.add.accumulate``
along the tree axis, so the sum is bit-identical to that loop.
Training updates its raw scores through the same walk on each new tree.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
from dataclasses import dataclass, fields

import numpy as np

from .records import Record

_BASE_SCORE_CLAMP = 10.0
# (row, tree) pairs walked at once; bounds prediction's scratch memory
_BLOCK_PAIRS = 1 << 16
# (row, column) elements per block of the split search: 128 KiB of
# float32 or int32, the default glibc mmap threshold; a larger freed
# array raises that threshold, and the heap then keeps more of each
# train's scratch.  A block's complex64 prefix sums of g and h take
# 256 KiB, as its two float32 ones did
_BLOCK_ELEMS = 1 << 15


class GbdtError(Exception):
    pass


class DegenerateData(GbdtError):
    pass


class DimensionMismatch(GbdtError):
    pass


@dataclass(frozen=True)
class Hyperparams(Record):
    learning_rate: float = 0.05
    num_leaves: int = 31
    max_depth: int = -1
    min_data_in_leaf: int = 50
    feature_fraction: float = 1.0
    bagging_fraction: float = 1.0
    bagging_freq: int = 5
    l2_lambda: float = 0.0
    max_rounds: int = 400
    early_stop_rounds: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        if not 0.0 < self.bagging_fraction <= 1.0:
            raise ValueError("bagging_fraction must be in (0, 1]")
        if self.num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.min_data_in_leaf < 1:
            raise ValueError("min_data_in_leaf must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.bagging_freq < 1:
            raise ValueError("bagging_freq must be >= 1")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be non-negative")


@dataclass(frozen=True)
class Tree:
    """One tree's flat node arrays, as stored; feature == -1 marks a leaf.

    Leaf values are stored unshrunk; the learning rate is applied at
    prediction time.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def to_lists(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_lists(cls, data: dict) -> "Tree":
        return cls(
            feature=np.asarray(data["feature"], dtype=np.int32),
            threshold=np.asarray(data["threshold"], dtype=np.float64),
            left=np.asarray(data["left"], dtype=np.int32),
            right=np.asarray(data["right"], dtype=np.int32),
            value=np.asarray(data["value"], dtype=np.float64),
        )

    @property
    def num_leaves(self) -> int:
        return int((self.feature < 0).sum())


def _joined(trees: tuple[Tree, ...], name: str) -> np.ndarray:
    """One node array of every tree, tree after tree."""
    return np.concatenate([getattr(t, name) for t in trees] or [[]])


def _check_trees(trees: tuple[Tree, ...], feature_dim: int) -> None:
    """Raise GbdtError unless each tree's node arrays have one length and
    each internal node tests a feature in ``[0, feature_dim)`` and has both
    children inside its own tree.  Packed, a bad index would walk into
    another tree's nodes, and an extra value would shift later trees'
    values onto the wrong leaves.  The trainer's trees need no check."""
    names = [f.name for f in fields(Tree)]
    lengths = np.array([[getattr(t, name).size for name in names]
                        for t in trees], dtype=np.intp).reshape(-1, len(names))
    sizes = lengths[:, 0]
    uneven = np.flatnonzero((lengths != sizes[:, None]).any(axis=1))
    if uneven.size:
        raise GbdtError(f"tree {uneven[0]}: node arrays differ in length")
    feature, left, right = (_joined(trees, name)
                            for name in ("feature", "left", "right"))
    tree_size = np.repeat(sizes, sizes)
    bad = (feature >= 0) & ((feature >= feature_dim)
                            | (np.minimum(left, right) < 0)
                            | (np.maximum(left, right) >= tree_size))
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        roots = np.cumsum(sizes) - sizes
        tree = int(np.searchsorted(roots, node, side="right")) - 1
        raise GbdtError(f"tree {tree} node {node - roots[tree]}: "
                        "feature or child out of range")


class _Pack:
    """Every node of an ensemble in one set of arrays, tree after tree.

    ``roots`` holds each tree's first node.  A leaf points to itself on
    both sides and tests feature 0, so a pair that has reached its leaf
    stays there while the walk goes on for the others.
    """

    def __init__(self, trees: tuple[Tree, ...]) -> None:
        sizes = np.array([t.feature.size for t in trees], dtype=np.intp)
        self.roots = np.cumsum(sizes) - sizes
        offsets = np.repeat(self.roots, sizes)
        feature = _joined(trees, "feature")
        self.leaf = feature < 0
        self.feature = np.maximum(feature, 0)
        self.threshold = _joined(trees, "threshold")
        self.value = _joined(trees, "value")
        self.left = _joined(trees, "left") + offsets
        self.right = _joined(trees, "right") + offsets
        own = np.flatnonzero(self.leaf)
        self.left[own] = own
        self.right[own] = own

    def leaves(self, x: np.ndarray) -> np.ndarray:
        """(rows, trees) index of the leaf each row reaches in each tree.

        One depth level per step, over every pair, until no pair sits at
        an internal node.  No path in a tree is longer than its node
        count, so a walk that outlasts it has met a cycle.
        """
        nodes = np.tile(self.roots, (x.shape[0], 1))
        rows = np.arange(x.shape[0])[:, None]
        for _ in range(self.leaf.size + 1):
            if self.leaf[nodes].all():
                return nodes
            goes_left = x[rows, self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(goes_left, self.left[nodes], self.right[nodes])
        raise GbdtError("tree nodes form a cycle")


@dataclass(frozen=True)
class TrainedModel:
    trees: tuple[Tree, ...]
    base_score: float
    learning_rate: float
    feature_dim: int
    decision_threshold: float = 0.5
    degenerate: bool = False
    train_loss_trace: tuple[float, ...] = ()

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.feature_dim:
            raise DimensionMismatch(
                f"expected {self.feature_dim} features, got {x.shape[1]}"
            )
        return x

    @functools.cached_property
    def _pack(self) -> _Pack:
        _check_trees(self.trees, self.feature_dim)
        return _Pack(self.trees)

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        x = self._check_dim(x)
        pack = self._pack
        raw = np.empty(x.shape[0])
        block = max(1, _BLOCK_PAIRS // max(1, len(self.trees)))
        for start in range(0, x.shape[0], block):
            rows = x[start : start + block]
            # column 0 is the base score, column t the shrunk value of tree t
            terms = np.empty((rows.shape[0], len(self.trees) + 1))
            terms[:, 0] = self.base_score
            np.multiply(
                self.learning_rate, pack.value[pack.leaves(rows)],
                out=terms[:, 1:],
            )
            raw[start : start + block] = np.add.accumulate(terms, axis=1)[:, -1]
        return raw

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.predict_raw(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x) >= self.decision_threshold).astype(
            np.int64
        )

    @property
    def total_leaves(self) -> int:
        return sum(t.num_leaves for t in self.trees)

    def save(self, path) -> None:
        blob = {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "feature_dim": self.feature_dim,
            "decision_threshold": self.decision_threshold,
            "degenerate": self.degenerate,
            "train_loss_trace": list(self.train_loss_trace),
            "trees": [t.to_lists() for t in self.trees],
        }
        pathlib.Path(path).write_text(json.dumps(blob))

    @classmethod
    def load(cls, path) -> "TrainedModel":
        """Read a saved model; a file that is not one, or whose trees do
        not fit together (see ``_check_trees``), raises GbdtError naming
        it."""
        try:
            blob = json.loads(pathlib.Path(path).read_text())
            model = cls(
                trees=tuple(Tree.from_lists(t) for t in blob["trees"]),
                base_score=blob["base_score"],
                learning_rate=blob["learning_rate"],
                feature_dim=blob["feature_dim"],
                decision_threshold=blob["decision_threshold"],
                degenerate=blob["degenerate"],
                train_loss_trace=tuple(blob["train_loss_trace"]),
            )
            model._pack  # built here, so that its checks name the file
        except (KeyError, TypeError, ValueError, GbdtError) as exc:
            raise GbdtError(f"bad model file {path}: {exc}") from exc
        return model


def _sigmoid(raw: np.ndarray) -> np.ndarray:
    out = np.empty_like(raw, dtype=np.float64)
    pos = raw >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-raw[pos]))
    ez = np.exp(raw[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(raw: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss, computed in a softplus form that never overflows."""
    raw = np.asarray(raw, dtype=np.float64)
    softplus = np.where(raw > 0, raw + np.log1p(np.exp(-raw)), np.log1p(np.exp(raw)))
    return float(np.mean(softplus - y * raw))


class _NodeSplit:
    __slots__ = ("gain", "col", "pos", "threshold", "node_id", "order", "depth")

    def __init__(self, gain, col, pos, threshold, node_id, order, depth):
        self.gain = gain
        self.col = col  # index into the tree's sampled feature list
        self.pos = pos  # split after this many sorted rows
        self.threshold = threshold
        self.node_id = node_id
        self.order = order  # (k, f) row ids, sorted per sampled feature
        self.depth = depth


def _column_blocks(k: int, f: int) -> list[slice]:
    """Column slices of a (k, f) node, as few as hold at most
    ``_BLOCK_ELEMS`` elements each (or one column, if a column is larger),
    with widths that differ by at most one; a node at or under the budget
    takes one block."""
    count = -(-f // max(1, _BLOCK_ELEMS // k))
    edges = [f * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _scan_block(
    x: np.ndarray,
    order: np.ndarray,
    feats: np.ndarray,
    tied: np.ndarray,
    gh: np.ndarray,
    lo: int,
    hi: int,
    lam32: np.float32,
) -> tuple[float, int, int] | None:
    """(gain, position, column) of ``np.argmax`` over one block's gain
    matrix, positions lo-1 .. hi-2; None when no boundary in the block is
    valid.  The real and imaginary parts of one complex64 ``cumsum`` are
    the float32 prefix sums of g and h; only ``tied`` columns can hold
    equal neighbours, so only they gather values."""
    ties = np.flatnonzero(tied)
    if ties.size:
        sv = x[order[:, ties], feats[ties]]
        # invalid boundaries: equal neighbours; lo and hi keep min_data
        same = sv[lo - 1 : hi - 1] == sv[lo:hi]
        del sv
        if ties.size == tied.size and same.all():
            return None
    ghl = gh.take(order)
    np.cumsum(ghl, axis=0, out=ghl)
    g_tot = ghl.real[-1].copy()
    h_tot = ghl.imag[-1].copy()
    gl = ghl.real[lo - 1 : hi - 1]
    hl = ghl.imag[lo - 1 : hi - 1]

    gain = g_tot - gl
    np.multiply(gain, gain, out=gain)
    den = (h_tot + lam32) - hl
    gain /= den
    np.subtract(h_tot + lam32, den, out=den)  # den = hl
    den += lam32
    num = gl * gl
    num /= den
    gain += num
    gain -= g_tot * g_tot / (h_tot + lam32)
    if ties.size:
        gain[:, ties] = np.where(same, -np.inf, gain[:, ties])

    pos, col = divmod(int(np.argmax(gain)), gain.shape[1])
    return float(gain[pos, col]), pos, col


def _scan_best(
    x: np.ndarray,
    order: np.ndarray,
    feats: np.ndarray,
    tied: np.ndarray,
    gh: np.ndarray,
    min_data: int,
    lam: float,
) -> tuple[float, int, int, float]:
    """Best (gain, column, position, threshold) over presorted columns.

    ``gh`` holds each row's g and h as one complex64; ``tied`` flags the
    columns of ``feats`` that hold equal values (``_tied_columns``).
    The scan runs in float32 for throughput; leaf values are later
    recomputed in float64, so only split placement sees the lower
    precision.  Column blocks pick the split that ``np.argmax`` picks over
    the whole row-major (position, column) gain matrix: the larger gain,
    then the smaller position, then the earlier block.  Returns gain -inf
    when no valid split exists, or when a gain is NaN.
    """
    k = order.shape[0]
    if k < 2 * min_data or k < 2:
        return -math.inf, -1, -1, 0.0
    lo = max(min_data, 1)
    hi = k - lo + 1  # exclusive bound on left count
    lam32 = np.float32(lam)
    best_gain, best_pos, best_col = -math.inf, -1, -1
    for cols in _column_blocks(k, feats.size):
        found = _scan_block(x, order[:, cols], feats[cols], tied[cols], gh,
                            lo, hi, lam32)
        if found is None:
            continue
        gain, pos, col = found
        if math.isnan(gain):
            return -math.inf, -1, -1, 0.0
        if gain > best_gain or (gain == best_gain and pos < best_pos):
            best_gain, best_pos, best_col = gain, pos, cols.start + col
    if not math.isfinite(best_gain) or best_gain <= 0.0:
        return -math.inf, -1, -1, 0.0
    pos = best_pos + lo - 1
    rows = order[pos : pos + 2, best_col]
    lower, upper = x[rows, feats[best_col]].tolist()
    return best_gain, best_col, pos, (lower + upper) / 2.0


def _partition_order(
    order: np.ndarray, member: np.ndarray, left_size: int,
    with_right: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Split presorted columns by a row-membership mask, keeping order.

    Fills the two halves one column block at a time: the block's order,
    transposed and ravelled so that each column's rows run together, is
    split by one 1-D ``compress`` per half.  Without ``with_right`` only
    the member rows are kept, and the right is None."""
    k, f = order.shape
    left = np.empty((left_size, f), dtype=order.dtype)
    right = (np.empty((k - left_size, f), dtype=order.dtype)
             if with_right else None)
    for cols in _column_blocks(k, f):
        block = order[:, cols].T.ravel()
        flags = member.take(block)
        width = cols.stop - cols.start
        left[:, cols] = block.compress(flags).reshape(width, left_size).T
        if right is not None:
            np.logical_not(flags, out=flags)
            right[:, cols] = (block.compress(flags)
                              .reshape(width, k - left_size).T)
    return left, right


def _presort(x: np.ndarray) -> np.ndarray:
    """Row ids sorting each column of ``x``, sorted one column block at a
    time."""
    out = np.empty(x.shape, dtype=np.int32)
    for cols in _column_blocks(*x.shape):
        out[:, cols] = np.argsort(x[:, cols], axis=0)
    return out


def _tied_columns(x: np.ndarray, presort: np.ndarray) -> np.ndarray:
    """Per column, whether two neighbours in its presorted order compare
    equal, one column block at a time.  A node's sorted rows are a
    subsequence of the presort, so a column without such a pair has
    none in any node."""
    tied = np.empty(x.shape[1], dtype=bool)
    for cols in _column_blocks(*x.shape):
        sv = np.take_along_axis(x[:, cols], presort[:, cols], axis=0)
        tied[cols] = (sv[:-1] == sv[1:]).any(axis=0)
    return tied


def _grow_tree(
    x: np.ndarray,
    g64: np.ndarray,
    h64: np.ndarray,
    order0: np.ndarray,
    feats: np.ndarray,
    tied: np.ndarray,
    hp: Hyperparams,
    member_scratch: np.ndarray,
) -> Tree:
    lam = hp.l2_lambda
    gh = np.empty(g64.size, dtype=np.complex64)
    gh.real = g64
    gh.imag = h64
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [0.0]

    def leaf_value(rows: np.ndarray) -> float:
        return float(-g64[rows].sum() / (h64[rows].sum() + lam))

    value[0] = leaf_value(order0[:, 0])
    candidates: list[_NodeSplit] = []

    def consider(node_id: int, order: np.ndarray, depth: int) -> None:
        if hp.max_depth >= 0 and depth >= hp.max_depth:
            return
        gain, col, pos, thr = _scan_best(
            x, order, feats, tied, gh, hp.min_data_in_leaf, lam
        )
        if col >= 0:
            candidates.append(
                _NodeSplit(gain, col, pos, thr, node_id, order, depth)
            )

    consider(0, order0, 0)
    leaves = 1
    while leaves < hp.num_leaves and candidates:
        best = max(candidates, key=lambda c: c.gain)
        candidates.remove(best)
        member_scratch[best.order[:, 0]] = False
        member_scratch[best.order[: best.pos + 1, best.col]] = True
        left_order, right_order = _partition_order(
            best.order, member_scratch, best.pos + 1
        )
        best.order = None  # the children's scans run without it

        left_id = len(feature)
        feature.extend((-1, -1))
        threshold.extend((0.0, 0.0))
        left.extend((-1, -1))
        right.extend((-1, -1))
        value.append(leaf_value(left_order[:, 0]))
        value.append(leaf_value(right_order[:, 0]))
        right_id = left_id + 1

        feature[best.node_id] = int(feats[best.col])
        threshold[best.node_id] = best.threshold
        left[best.node_id] = left_id
        right[best.node_id] = right_id
        value[best.node_id] = 0.0
        leaves += 1

        consider(left_id, left_order, best.depth + 1)
        consider(right_id, right_order, best.depth + 1)

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def train(
    features: np.ndarray,
    labels: np.ndarray,
    hp: Hyperparams,
    rng_seed: int = 0,
) -> TrainedModel:
    """Fit a boosted ensemble; deterministic given (data, hp, rng_seed).

    Single-class labels yield a flagged base-score-only model rather than
    an error.  With early_stop_rounds > 0, 10% of rows are held out and
    boosting stops once that slice's loss fails to improve for that many
    consecutive rounds (the ensemble is truncated to the best round).
    """
    x = np.ascontiguousarray(features, dtype=np.float32)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DimensionMismatch("features rows and labels length differ")
    uniq = np.unique(y)
    if not np.isin(uniq, (0.0, 1.0)).all():
        raise ValueError("labels must be binary 0/1")

    n, dim = x.shape
    pos_rate = float(y.mean())
    if pos_rate in (0.0, 1.0):
        base = _BASE_SCORE_CLAMP if pos_rate == 1.0 else -_BASE_SCORE_CLAMP
        return TrainedModel(
            trees=(),
            base_score=base,
            learning_rate=hp.learning_rate,
            feature_dim=dim,
            degenerate=True,
        )
    if n < 2 * hp.min_data_in_leaf:
        raise DegenerateData(
            f"{n} rows cannot satisfy min_data_in_leaf={hp.min_data_in_leaf}"
        )

    base = math.log(pos_rate / (1.0 - pos_rate))
    base = min(max(base, -_BASE_SCORE_CLAMP), _BASE_SCORE_CLAMP)
    rng = np.random.default_rng(rng_seed)

    holdout = np.zeros(n, dtype=bool)
    if hp.early_stop_rounds > 0 and n >= 10:
        held = rng.choice(n, size=n // 10, replace=False)
        holdout[held] = True
    fit_rows = np.flatnonzero(~holdout)
    val_rows = np.flatnonzero(holdout)

    raw = np.full(n, base)
    trees: list[Tree] = []
    losses: list[float] = []
    best_val = math.inf
    best_round = 0
    stall = 0

    # one global presort reused by every tree; per-node orders are derived
    # by partitioning, never by re-sorting
    presort = _presort(x)
    tied = _tied_columns(x, presort)
    member_scratch = np.zeros(n, dtype=bool)
    bag_mask = np.zeros(n, dtype=bool)
    bag_mask[fit_rows] = True
    bag_size = fit_rows.size
    feats = np.arange(dim)
    # the root's order changes only with the bag or the sampled features
    order0 = None

    for round_idx in range(hp.max_rounds):
        if hp.bagging_fraction < 1.0 and round_idx % hp.bagging_freq == 0:
            size = max(1, int(round(hp.bagging_fraction * fit_rows.size)))
            bag = np.sort(rng.choice(fit_rows, size=size, replace=False))
            bag_mask[:] = False
            bag_mask[bag] = True
            bag_size = size
            order0 = None
        if hp.feature_fraction < 1.0:
            fcount = max(1, int(round(hp.feature_fraction * dim)))
            feats = np.sort(rng.choice(dim, size=fcount, replace=False))
            order0 = None

        if order0 is None:
            cols = presort[:, feats] if feats.size != dim else presort
            if bag_size == n:
                order0 = cols
            else:
                order0, _ = _partition_order(cols, bag_mask, bag_size,
                                             with_right=False)

        p = _sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_tree(x, g, h, order0, feats, tied[feats], hp,
                          member_scratch)
        trees.append(tree)
        pack = _Pack((tree,))
        raw += hp.learning_rate * pack.value[pack.leaves(x)[:, 0]]
        losses.append(logistic_loss(raw[fit_rows], y[fit_rows]))

        if val_rows.size:
            val_loss = logistic_loss(raw[val_rows], y[val_rows])
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_round = round_idx + 1
                stall = 0
            else:
                stall += 1
                if stall >= hp.early_stop_rounds:
                    trees = trees[:best_round]
                    losses = losses[:best_round]
                    break

    return TrainedModel(
        trees=tuple(trees),
        base_score=base,
        learning_rate=hp.learning_rate,
        feature_dim=dim,
        train_loss_trace=tuple(losses),
    )


def binary_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """precision/recall/f1/accuracy with 0-denominator conventions of 0."""
    y_true = np.asarray(y_true).astype(np.int64).ravel()
    y_pred = np.asarray(y_pred).astype(np.int64).ravel()
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = f1_score(precision, recall)
    accuracy = float((y_true == y_pred).mean()) if y_true.size else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy,
    }


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
