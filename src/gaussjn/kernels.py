"""Low-level numerical kernels: error integrals, deterministic reductions,
point-in-cube membership counting, box neighbour lists and tail sums over
shared node sets.

The error integral E(t) = (2/sqrt(pi)) * Int_0^t exp(-s^2) ds and its
complement are :func:`math.erf`/:func:`math.erfc`.  ``erfc`` keeps full
relative accuracy deep in the right tail, which ``gauss1d`` relies on.

Every reduction uses one fixed pairwise tree, so sums are deterministic
run-to-run; ``pairwise_sum_rows`` runs the same tree on every row of a
matrix at once.  Each level of the tree adds entries 2i and 2i+1 and carries
an odd last entry, so after k levels entry j holds exactly the sum of the
aligned run [j 2^k, (j+1) 2^k).  Long arrays are therefore reduced in
cache-sized blocks: every aligned block of ``_BLOCK`` (a power of two)
entries is a whole subtree, summed while it is in cache, and the same tree
then runs over the block heads.  The additions and their order are those
of the level-by-level passes, so every sum is bit for bit the same; only
the memory traffic changes.  ``tail_sums`` masks one block for every sigma
at once.  The buffers of a whole block are kept between calls, because the
quadrature driver streams large rules through the kernels one block per
call.  ``BACKEND`` names the implementation in reports.

Box geometry goes through one uniform-grid bucket index (``_BoxGrid``):
each nonempty box is filed under every cell it meets, with the cell step
taken from the boxes' median side and at most a constant number of
(box, cell) entries per box.  ``count_membership`` tests each point only
against the boxes of its own cell, and ``earlier_neighbours`` lists the
boxes that share a cell, which is all an exact first-fit disjointness scan
needs to look at.  Both return exactly what the all-pairs comparisons
would, at O((n + m) log m) cost for coverings instead of O(n m) and O(m^2).
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

BACKEND = "numpy"

erf = math.erf
erfc = math.erfc


# ---------------------------------------------------------------------------
# deterministic pairwise reductions
# ---------------------------------------------------------------------------


#: Entries per aligned block of the blocked pairwise tree.  A power of two,
#: so that every block is one subtree of the tree.  One row of a block and
#: its pass buffers take 1 MiB, within a core's L2; smaller blocks cost more
#: numpy calls per entry, and tail sums over 10-25 sigma rows ran as fast at
#: 2^14 to 2^16 entries but slower at 2^17.
_BLOCK = 1 << 16


#: Sums of at least this many entries (and under a block) use the kept
#: buffers of a whole block, so a streamed level's short last block, or a
#: level under one block, takes no fresh buffers of its size either.
_KEEP_FROM = _BLOCK // 4


def _tree_passes(a: np.ndarray, bufs: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Sums along the last axis with the fixed pairwise tree, one pass per level.

    Each pass pairs entries (0,1),(2,3),... and carries an odd last entry
    to the end; an empty axis sums to 0.0.  Pass k writes into ``bufs[k]``
    when given (the result is then a view of the last one).
    """
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1])
    for k in itertools.count():
        if n == 1:
            return a[..., 0]
        half, odd = divmod(n, 2)
        out = bufs[k][..., : half + odd] if k < len(bufs) else np.empty(a.shape[:-1] + (half + odd,))
        np.add(a[..., 0 : 2 * half : 2], a[..., 1 : 2 * half : 2], out=out[..., :half])
        if odd:
            out[..., half] = a[..., n - 1]
        a, n = out, half + odd


class _Kept(threading.local):
    """Buffers of one whole block, kept between kernel calls, per thread.

    A streamed quadrature rule reduces one block per kernel call, and fresh
    buffers of a block's size come from the operating system page by page
    on every call.  ``passes(rows)`` holds the pass buffers of a rows +
    (``_BLOCK``,) block, ``masks(rows)`` the mask and masked weights of
    ``tail_sums``; the buffers of at most 8 row shapes each are kept.  Only
    arrays of ``_KEEP_FROM`` entries or more use them, so small sums keep nothing.
    """

    def __init__(self) -> None:
        self.passes = lru_cache(maxsize=8)(
            lambda rows: [np.empty(rows + (_BLOCK >> k,)) for k in range(1, _BLOCK.bit_length())]
        )
        self.masks = lru_cache(maxsize=8)(
            lambda rows: (np.empty((rows, _BLOCK), dtype=bool), np.empty((rows, _BLOCK)))
        )


_kept = _Kept()


def _blocked(rows: tuple[int, ...], n: int, block: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Sums along the last axis of a rows + (n,) array that ``block`` hands out.

    ``block(span)`` returns the entries ``span`` of the last axis.  The tree
    pairs entry 2i with 2i+1 on every level, so after k passes entry j holds
    the sum of the aligned entries [j 2^k, (j+1) 2^k): every aligned block
    of ``_BLOCK`` entries is a whole subtree, reduced here while it is in
    cache, and a short last block is reduced as the tree reduces it on its
    own.  The tree over the block heads then finishes the sum, so every sum
    is bit for bit that of the unblocked passes, and no result is a view of
    a kept buffer.
    """
    full, rest = divmod(n, _BLOCK)
    heads = np.empty(rows + (full + (rest > 0),))
    bufs = _kept.passes(rows) if full or rest >= _KEEP_FROM else []
    for j in range(full):
        x = block(slice(j * _BLOCK, (j + 1) * _BLOCK))
        for buf in bufs:
            np.add(x[..., 0::2], x[..., 1::2], buf)
            x = buf
        heads[..., j] = x[..., 0]
    if rest:
        heads[..., full] = _tree_passes(block(slice(full * _BLOCK, n)), bufs)
    return _sum_last(heads)


def _sum_last(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis with the fixed pairwise tree.

    From one whole block on, the passes run in the kept buffers of ``_blocked``.
    """
    if a.shape[-1] < _BLOCK:
        return _tree_passes(a)
    return _blocked(a.shape[:-1], a.shape[-1], lambda span: a[..., span])


def _tree_sum(a: np.ndarray) -> float:
    """Sum of a flat float64 array with the fixed pairwise tree."""
    return float(_sum_last(a))


def pairwise_sum(values: np.ndarray) -> float:
    """Sum with a fixed pairwise tree over the values in C order."""
    return _tree_sum(np.asarray(values, dtype=np.float64).ravel())


def weighted_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Pairwise-tree sum of values*weights."""
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    return _tree_sum(v * w)


def pairwise_sum_rows(values: np.ndarray) -> np.ndarray:
    """Row sums of a (k, n) array, each with the tree of ``pairwise_sum``.

    Row i of the result equals ``pairwise_sum(values[i])`` bit for bit.
    """
    return _sum_last(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# uniform-grid bucket index over boxes
# ---------------------------------------------------------------------------

#: The index holds at most this many times 2^d (box, cell) entries per box.
#: A box no wider than the cell step meets up to 2^d cells, so the budget
#: keeps the median-side step for coverings and coarsens the grid only when
#: some boxes are far wider than the rest.
_ENTRIES_PER_BOX = 8
#: Cell keys are row-major int64 offsets, so the grid may not hold more cells.
_MAX_CELLS = 2**62


def _as_bounds(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape or lo.ndim != 2:
        raise ValueError(f"lo and hi must both have shape (m, d), got {lo.shape} and {hi.shape}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box bounds must be finite")
    return lo, hi


class _BoxGrid:
    """Uniform grid of cubic cells, each listing the boxes that meet it.

    The cell of a coordinate is floor((x - origin) / step) on each axis.
    That map is monotone in floating point, so lo < x < hi implies
    cell(lo) <= cell(x) <= cell(hi): a point strictly inside a box lies in
    one of the cells the box is filed under, and two boxes whose closures
    meet share a cell.  Only nonempty boxes (hi > lo on every axis) are
    filed; an empty open box contains no point.

    The step starts at the median of the boxes' widest sides and doubles
    until the (box, cell) entries fit the budget of ``_ENTRIES_PER_BOX *
    2^d`` per box and the cell keys fit int64, so the index holds O(m)
    entries whatever the box sizes.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        d = lo.shape[1]
        live = np.flatnonzero(np.all(hi > lo, axis=1))
        self.origin = np.zeros(d)
        self.step = 1.0
        self.shape = np.zeros(d)
        self.strides = np.zeros(d, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)
        self.boxes = np.empty(0, dtype=np.int64)
        if live.size == 0:
            self._index_cells()
            return
        lo, hi = lo[live], hi[live]
        self.origin = lo.min(axis=0)
        self.step = float(np.median((hi - lo).max(axis=1)))
        budget = _ENTRIES_PER_BOX * 2**d * live.size
        while True:
            first, last = self._cells(lo), self._cells(hi)
            self.shape = last.max(axis=0) + 1.0
            entries = float(np.prod(last - first + 1.0, axis=1).sum())
            if entries <= budget and math.prod(int(s) for s in self.shape) <= _MAX_CELLS:
                break
            self.step *= 2.0
        self.strides = np.array(
            [math.prod(int(s) for s in self.shape[ax + 1 :]) for ax in range(d)], dtype=np.int64
        )
        first = first.astype(np.int64)
        # a box's keys are its first cell's key plus the offsets of its
        # span's cells (axis 0 fastest), and boxes of one span share one run
        # of a table of offsets.  span - 1 is a cell of the grid, so its key
        # names the span.
        span = (last - first + 1.0).astype(np.int64)
        _, one, kind = np.unique((span - 1) @ self.strides, return_index=True, return_inverse=True)
        size = np.prod(span[one], axis=1)
        owner, rank = _ragged(np.zeros(one.size, dtype=np.int64), size)
        table = np.zeros(owner.size, dtype=np.int64)
        for ax, n in enumerate(span[one][owner].T):
            table += rank % n * self.strides[ax]
            rank //= n
        stop = np.cumsum(size)
        box, at = _ragged((stop - size)[kind], stop[kind])
        key = (first @ self.strides)[box] + table[at]
        # entries were generated box by box, so the stable sort keeps each
        # cell's boxes in ascending order
        order = np.argsort(key, kind="stable")
        self.keys = key[order]
        self.boxes = live[box[order]]
        self._index_cells()

    def _index_cells(self) -> None:
        """The distinct cell keys and the first entry of each.

        ``cells`` ends with a key no cell has and ``first`` with two copies
        of the entry count, so a cell's entries are [first[i], first[i+1])
        and a search past the last cell still indexes both arrays.
        """
        head = np.flatnonzero(np.diff(self.keys, prepend=-1))
        self.cells = np.append(self.keys[head], np.iinfo(np.int64).max)
        self.first = np.append(head, [self.keys.size, self.keys.size])

    def _cells(self, x: np.ndarray) -> np.ndarray:
        return np.floor((x - self.origin) / self.step)

    def slots(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[start, stop) into ``boxes`` for the cell of each point; empty off the grid."""
        c = self._cells(points)
        inside = np.all((c >= 0.0) & (c < self.shape), axis=1)
        key = np.where(inside[:, None], c, 0.0).astype(np.int64) @ self.strides
        cell = np.searchsorted(self.cells, key)
        start = self.first[cell]
        stop = np.where(inside & (self.cells[cell] == key), self.first[cell + 1], start)
        return start, stop


def _ragged(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, position) of every index in the ranges [start_i, stop_i)."""
    size = stop - start
    owner = np.repeat(np.arange(size.size), size)
    position = np.arange(owner.size) + np.repeat(start - (np.cumsum(size) - size), size)
    return owner, position


# ---------------------------------------------------------------------------
# point-in-cube membership counting
# ---------------------------------------------------------------------------


def count_membership(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Number of open boxes (lo_j, hi_j) strictly containing each point.

    points: (n, d); lo, hi: (m, d) with finite entries.  Returns int64
    counts of shape (n,).  The boxes are filed in a uniform-grid bucket
    index (``_BoxGrid``) and each point is tested, with the strict
    comparisons lo < x < hi, only against the boxes filed under its own
    cell, so the counts are exact.  For a covering, where a point meets a
    bounded number of cubes, the cost is O(m log m + n log m) rather than
    O(n m).  Points go through in chunks to bound the memory of the
    (point, box) pairs tested at once.
    """
    points = np.asarray(points, dtype=np.float64)
    lo, hi = _as_bounds(lo, hi)
    n = points.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    grid = _BoxGrid(lo, hi)
    lo_rows, hi_rows = lo.T.copy(), hi.T.copy()
    chunk = 4096
    for begin in range(0, n, chunk):
        block = points[begin : begin + chunk]
        point, entry = _ragged(*grid.slots(block))
        box = grid.boxes[entry]
        inside = np.ones(point.size, dtype=bool)
        for x, lo_ax, hi_ax in zip(block.T, lo_rows, hi_rows):
            x = x[point]
            inside &= x > lo_ax[box]
            inside &= x < hi_ax[box]
        counts[begin : begin + chunk] = np.bincount(point[inside], minlength=block.shape[0])
    return counts


def earlier_neighbours(lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    """For each box i, the ascending indices j < i of boxes filed in a cell with it.

    lo, hi: (m, d) with finite entries.  Uses the same grid index as
    ``count_membership``: every earlier nonempty box whose closure meets the
    closure of box i is in the list, together with a few that only come
    near it, so an exact pairwise test run on the list alone decides every
    overlap.
    """
    lo, hi = _as_bounds(lo, hi)
    m = lo.shape[0]
    if m == 0:
        return []
    grid = _BoxGrid(lo, hi)
    # every entry pairs with the entries filed before it in its own cell
    cell_start = np.searchsorted(grid.keys, grid.keys, side="left")
    later, earlier = _ragged(cell_start, np.arange(grid.keys.size))
    pairs = np.unique(grid.boxes[later] * m + grid.boxes[earlier])
    per_box = np.bincount(pairs // m, minlength=m)
    return np.split(pairs % m, np.cumsum(per_box)[:-1])


# ---------------------------------------------------------------------------
# tail sums over a shared node set
# ---------------------------------------------------------------------------


def tail_sums(abs_values: np.ndarray, weights: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """gamma-mass of {|value| > sigma} for each sigma, shared node set.

    abs_values, weights: (n,); sigmas: (s,).  Each sigma sums the weights
    masked to {abs_value > sigma} (zero elsewhere) with the pairwise tree,
    so the result is monotone nonincreasing in sigma by construction.  The
    weights are masses, finite and nonnegative, so multiplying them by the
    mask gives exactly those masked weights; one block masks every sigma at
    once and is reduced while it is in cache.
    """
    av = np.asarray(abs_values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    sig = np.asarray(sigmas, dtype=np.float64).ravel()[:, None]
    n = av.size
    if n < _KEEP_FROM:
        mask, vals = np.empty((sig.size, n), dtype=bool), np.empty((sig.size, n))
    else:
        mask, vals = _kept.masks(sig.size)

    def masked(span: slice) -> np.ndarray:
        cols = span.stop - span.start
        np.greater(av[span], sig, out=mask[:, :cols])
        return np.multiply(w[span], mask[:, :cols], out=vals[:, :cols])

    return _blocked((sig.size,), n, masked)


def gauss1d(alpha: float, beta: float) -> float:
    """One-dimensional Gauss measure of the interval (alpha, beta).

    Uses complementary error integrals on the side away from the origin so
    that far-out intervals keep full relative accuracy.
    """
    if beta <= alpha:
        return 0.0
    if alpha >= 0.0:
        return 0.5 * (erfc(alpha) - erfc(beta))
    if beta <= 0.0:
        return 0.5 * (erfc(-beta) - erfc(-alpha))
    return 0.5 * (erf(beta) - erf(alpha))


def warmup() -> None:
    """Call every kernel once on tiny inputs, so first-call costs fall outside timed work."""
    pts = np.zeros((2, 2))
    lo = np.full((1, 2), -1.0)
    hi = np.full((1, 2), 1.0)
    erf(0.5)
    erfc(2.5)
    pairwise_sum(np.array([1.0, 2.0, 3.0]))
    pairwise_sum_rows(np.ones((2, 3)))
    weighted_sum(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    count_membership(pts, lo, hi)
    tail_sums(np.array([0.5, 1.5]), np.array([1.0, 1.0]), np.array([1.0]))
