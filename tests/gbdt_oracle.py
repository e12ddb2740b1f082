"""Frozen copy of the exact split search as it stood before it was split
into column blocks: the presort, ``_scan_best`` and ``_partition_order``.

The tests swap these three into ``gbdt`` and compare the trees that
``train`` grows with and without them, node array by node array: a tree
compares with ``<=``, so a last-ulp change in one gain can move a split.
Keep this file as it is.
"""

from __future__ import annotations

import math

import numpy as np


def presort(x: np.ndarray) -> np.ndarray:
    return np.argsort(x, axis=0).astype(np.int32)


def _scan_best(
    x: np.ndarray,
    order: np.ndarray,
    feats: np.ndarray,
    g32: np.ndarray,
    h32: np.ndarray,
    min_data: int,
    lam: float,
) -> tuple[float, int, int, float]:
    """Best (gain, column, position, threshold) over presorted columns.

    The scan runs in float32 for throughput; leaf values are later
    recomputed in float64, so only split placement sees the lower
    precision.  Returns gain -inf when no valid split exists.
    """
    k = order.shape[0]
    if k < 2 * min_data or k < 2:
        return -math.inf, -1, -1, 0.0
    sv = x[order, feats[None, :]]
    gl = g32[order]
    np.cumsum(gl, axis=0, out=gl)
    hl = h32[order]
    np.cumsum(hl, axis=0, out=hl)
    g_tot = gl[-1].copy()
    h_tot = hl[-1].copy()
    gl = gl[:-1]
    hl = hl[:-1]
    lam32 = np.float32(lam)

    # valid boundaries: distinct adjacent values, min_data on both sides
    lo = max(min_data, 1)
    hi = k - max(min_data, 1) + 1  # exclusive bound on left count
    valid = sv[lo - 1 : hi - 1] != sv[lo:hi]
    if not valid.any():
        return -math.inf, -1, -1, 0.0
    gl = gl[lo - 1 : hi - 1]
    hl = hl[lo - 1 : hi - 1]

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
    gain[~valid] = -np.inf

    flat = int(np.argmax(gain))
    pos, col = divmod(flat, gain.shape[1])
    best_gain = float(gain[pos, col])
    if not math.isfinite(best_gain) or best_gain <= 0.0:
        return -math.inf, -1, -1, 0.0
    pos += lo - 1
    threshold = (float(sv[pos, col]) + float(sv[pos + 1, col])) / 2.0
    return best_gain, int(col), int(pos), threshold


def _partition_order(
    order: np.ndarray, member: np.ndarray, left_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split presorted columns by a row-membership mask, keeping order."""
    k, f = order.shape
    flags = member[order]
    cols = order.T
    left = cols[flags.T].reshape(f, left_size).T
    right = cols[~flags.T].reshape(f, k - left_size).T
    return np.ascontiguousarray(left), np.ascontiguousarray(right)
