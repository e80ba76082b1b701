"""Low-level numerical kernels: error integrals, deterministic reductions,
point-in-cube membership counting and tail sums over shared node sets.

The error integral E(t) = (2/sqrt(pi)) * Int_0^t exp(-s^2) ds and its
complement come from the libraries: the scalar ``erf``/``erfc`` are
:func:`math.erf`/:func:`math.erfc`, and ``erf_array``/``erfc_array`` wrap
:func:`scipy.special.erf`/:func:`scipy.special.erfc`.  ``erfc`` keeps full
relative accuracy deep in the right tail, which ``gauss1d`` relies on.

Every reduction uses one fixed pairwise tree, so sums are deterministic
run-to-run.  ``BACKEND`` names the implementation in reports.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

BACKEND = "numpy"

erf = math.erf
erfc = math.erfc


def erf_array(xs: np.ndarray) -> np.ndarray:
    """Elementwise erf; the result has the input's shape."""
    return special.erf(np.asarray(xs, dtype=np.float64))


def erfc_array(xs: np.ndarray) -> np.ndarray:
    """Elementwise erfc; the result has the input's shape."""
    return special.erfc(np.asarray(xs, dtype=np.float64))


# ---------------------------------------------------------------------------
# deterministic pairwise reductions
# ---------------------------------------------------------------------------


def _tree_sum(a: np.ndarray) -> float:
    """Sum of a flat float64 array with a fixed pairwise tree: (0,1),(2,3),... per pass."""
    n = a.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        merged = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if n % 2 == 1:
            merged = np.append(merged, a[n - 1])
        a = merged
        n = a.size
    return float(a[0])


def pairwise_sum(values: np.ndarray) -> float:
    """Sum with a fixed pairwise tree over the values in C order."""
    return _tree_sum(np.asarray(values, dtype=np.float64).ravel())


def weighted_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Pairwise-tree sum of values*weights."""
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    return _tree_sum(v * w)


# ---------------------------------------------------------------------------
# point-in-cube membership counting
# ---------------------------------------------------------------------------


def count_membership(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Number of open boxes (lo_j, hi_j) strictly containing each point.

    points: (n, d); lo, hi: (m, d).  Returns int64 counts of shape (n,).
    Processes points in chunks to bound the broadcast footprint.
    """
    points = np.asarray(points, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = points.shape[0]
    counts = np.empty(n, dtype=np.int64)
    chunk = 4096
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        inside = (block[:, None, :] > lo[None, :, :]) & (block[:, None, :] < hi[None, :, :])
        counts[start : start + chunk] = inside.all(axis=2).sum(axis=1)
    return counts


# ---------------------------------------------------------------------------
# tail sums over a shared node set
# ---------------------------------------------------------------------------


def tail_sums(abs_values: np.ndarray, weights: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """gamma-mass of {|value| > sigma} for each sigma, shared node set.

    abs_values, weights: (n,); sigmas: (s,).  Each sigma uses the same
    pairwise tree over masked weights, so the result is monotone
    nonincreasing in sigma by construction.
    """
    av = np.asarray(abs_values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    sig = np.asarray(sigmas, dtype=np.float64).ravel()
    out = np.empty(sig.size, dtype=np.float64)
    for s in range(sig.size):
        out[s] = _tree_sum(np.where(av > sig[s], w, 0.0))
    return out


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
    erf_array(np.array([0.1, 2.5]))
    erfc_array(np.array([0.1, 2.5]))
    pairwise_sum(np.array([1.0, 2.0, 3.0]))
    weighted_sum(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    count_membership(pts, lo, hi)
    tail_sums(np.array([0.5, 1.5]), np.array([1.0, 1.0]), np.array([1.0]))
