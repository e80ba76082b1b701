"""Cubes, balls, and the admissibility geometry of the Gauss measure.

The ambient space is R^d equipped with the Gaussian probability measure

    dgamma(x) = pi^(-d/2) * exp(-|x|^2) dx.

Cubes are open and axis-aligned.  A cube Q with center c_Q and side l_Q is
*admissible* for a parameter a > 0 when

    l_Q <= a * m(c_Q),      m(x) = min(1, 1/|x|)  (m(0) = 1),

i.e. cubes must shrink like 1/|center| far from the origin.  The comparison
is exact -- no epsilon slack -- so membership in the family Q_a is a crisp
predicate.

Measures of boxes factor across axes; the one-dimensional factors are
evaluated with the error integrals of :mod:`gaussjn.kernels`,
giving absolute accuracy near machine precision (well inside the 1e-12
contract used by callers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import kernels


#: Relative slack for boundary comparisons between cubes.  Cube boundaries
#: are rendered as center +- side/2 in floating point, which wobbles exact
#: abutments by a few ulps (~1e-16 relative); structural overlaps are never
#: smaller than a fixed fraction of a side.  1e-12 separates the two regimes
#: by several orders of magnitude on each side.
BOUNDARY_REL_TOL = 1e-12


def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    out = tuple(map(float, values))
    if not out:
        raise ValueError("dimension must be >= 1")
    if not all(map(math.isfinite, out)):
        raise ValueError("coordinates must be finite")
    return out


def center_norms(centers: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``centers`` (n, d), or of one point (d,).

    Each row's norm is the square root of its dot product with itself, the
    reduction ``np.linalg.norm`` applies to a single vector; the batched
    matmul hands every row to that same dot product, so a norm taken over
    many rows equals the norm of each row alone, bit for bit.
    (``np.linalg.norm(axis=-1)`` and ``einsum`` sum in another order.)
    """
    c = np.asarray(centers, dtype=np.float64, order="C")
    c = c.reshape(-1, 1, c.shape[-1])
    return np.sqrt(np.matmul(c, c.transpose(0, 2, 1)).reshape(-1))


@lru_cache(maxsize=None)
def _child_signs(d: int) -> np.ndarray:
    signs = np.array(list(np.ndindex(*(2,) * d)), dtype=np.float64) * 2.0 - 1.0
    signs.flags.writeable = False
    return signs


def child_offsets(d: int, side: float | np.ndarray) -> np.ndarray:
    """Center offsets (+-side/4 per axis) of the 2^d dyadic children.

    ``side`` is one side or an array of them; the result has shape
    ``side.shape + (2^d, d)``.  Children come in ``np.ndindex`` order of
    their (low, high) half along each axis, the order of
    :meth:`Cube.dyadic_children`.
    """
    h = 0.25 * np.asarray(side, dtype=np.float64)
    return _child_signs(d) * h[..., None, None]


@dataclass(frozen=True)
class Cube:
    """Open axis-aligned cube given by its center and common side length."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        side = float(self.side)
        object.__setattr__(self, "center", _as_float_tuple(self.center))
        object.__setattr__(self, "side", side)
        if not (math.isfinite(side) and side > 0.0):
            raise ValueError(f"cube side must be positive and finite, got {side}")

    @property
    def dim(self) -> int:
        return len(self.center)

    # corners are kept after first use; not fields, so not in equality or hashing
    @cached_property
    def lo(self) -> tuple[float, ...]:
        h = 0.5 * self.side
        return tuple(c - h for c in self.center)

    @cached_property
    def hi(self) -> tuple[float, ...]:
        h = 0.5 * self.side
        return tuple(c + h for c in self.center)

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=np.float64)

    def lo_array(self) -> np.ndarray:
        return self.center_array() - 0.5 * self.side

    def hi_array(self) -> np.ndarray:
        return self.center_array() + 0.5 * self.side

    def center_norm(self) -> float:
        return float(center_norms(self.center)[0])

    def contains_point(self, x: Sequence[float]) -> bool:
        xs = np.asarray(x, dtype=np.float64)
        return bool(np.all(xs > self.lo_array()) and np.all(xs < self.hi_array()))

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return np.all((pts > self.lo_array()) & (pts < self.hi_array()), axis=-1)

    def contains_cube(self, other: "Cube") -> bool:
        """Containment up to boundary-rounding slack (see BOUNDARY_REL_TOL)."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        tol = BOUNDARY_REL_TOL * min(self.side, other.side)
        return all(
            ol >= sl - tol and oh <= sh + tol
            for ol, sl, oh, sh in zip(other.lo, self.lo, other.hi, self.hi)
        )

    def to_obj(self) -> dict:
        return {"center": list(self.center), "side": self.side}

    def dyadic_children(self) -> tuple["Cube", ...]:
        """The 2^d half-side cubes tiling this cube (up to a null set)."""
        centers = self.center_array() + child_offsets(self.dim, self.side)
        half = 0.5 * self.side
        return tuple(Cube(c, half) for c in centers.tolist())


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_float_tuple(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=np.float64)

    def center_norm(self) -> float:
        return float(center_norms(self.center)[0])


def cube_arrays(cubes: Sequence[Cube]) -> tuple[np.ndarray, np.ndarray]:
    """Centers (n, d) and sides (n,) of the cubes, the format of every cube collection."""
    centers = np.array([q.center for q in cubes], dtype=np.float64)
    return centers, np.array([q.side for q in cubes], dtype=np.float64)


def cube_corners(centers: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corners lo and hi (n, d) of the cubes, rows bit for bit ``Cube.lo`` and ``Cube.hi``."""
    half = (0.5 * sides)[:, None]
    return centers - half, centers + half


def m_weight(x: Sequence[float]) -> float:
    """Admissibility weight m(x) = min(1, 1/|x|), with m(0) = 1."""
    r = float(center_norms(x)[0])
    return 1.0 if r <= 1.0 else 1.0 / r


def m_weight_points(pts: np.ndarray) -> np.ndarray:
    """Vectorized m over rows of pts (n, d); each entry equals ``m_weight`` of its row."""
    r = center_norms(pts)
    return np.where(r <= 1.0, 1.0, 1.0 / np.maximum(r, 1.0))


def _check_scale(a: float) -> None:
    if not (a > 0.0):
        raise ValueError(f"admissibility parameter must be positive, got {a}")


def is_admissible(cube: Cube, a: float) -> bool:
    """Exact membership test for the family Q_a: l_Q <= a * m(c_Q)."""
    _check_scale(a)
    return cube.side <= a * m_weight(cube.center)


def admissible_mask(centers: np.ndarray, sides: float | np.ndarray, a: float) -> np.ndarray:
    """``is_admissible`` of many cubes at once: rows of centers (n, d), sides (n,) or one side."""
    _check_scale(a)
    return np.asarray(sides, dtype=np.float64) <= a * m_weight_points(centers)


def lebesgue_measure(cube: Cube) -> float:
    return cube.side**cube.dim


def gaussian_measure(cube: Cube) -> float:
    """gamma(Q) as the product of exact per-axis error-integral factors."""
    out = 1.0
    for alpha, beta in zip(cube.lo, cube.hi):
        out *= kernels.gauss1d(alpha, beta)
    return out


def gaussian_measures(centers: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis factors (n, d) and gamma (n,) of the cubes, each gamma bit for bit
    ``gaussian_measure`` of its row: the factors are multiplied from axis 0 on."""
    factors = [
        [kernels.gauss1d(c - 0.5 * s, c + 0.5 * s) for c in row]
        for row, s in zip(centers.tolist(), sides.tolist())
    ]
    gamma = np.array([math.prod(row) for row in factors])
    return np.array(factors).reshape(centers.shape), gamma


def cubes_disjoint(q1: Cube, q2: Cube) -> bool:
    """Whether two open cubes are disjoint (shared faces count as disjoint).

    Boundaries are derived from (center, side) in floating point, so cubes
    that abut exactly in the mathematical model can render with an
    overlap of a few ulps (e.g. dyadic halves of a cube whose side is not
    a binary fraction).  Overlap up to BOUNDARY_REL_TOL times the smaller
    side therefore still counts as disjoint; genuine overlaps in this
    code base are larger by many orders of magnitude.
    """
    if q1.dim != q2.dim:
        raise ValueError("dimension mismatch")
    tol = BOUNDARY_REL_TOL * min(q1.side, q2.side)
    for l1, h1, l2, h2 in zip(q1.lo, q1.hi, q2.lo, q2.hi):
        if h1 <= l2 + tol or h2 <= l1 + tol:
            return True
    return False


def overlapping_pairs(centers: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, j), j < i, of the cubes that ``cubes_disjoint`` finds overlapping.

    Returns the two index arrays, sorted by i and then by j, so the first
    pair is the first overlap a loop over i and then j < i meets.  Only the
    pairs ``kernels.earlier_neighbours`` files together are tested, at once.
    """
    lo, hi = cube_corners(centers, sides)
    neighbours = kernels.earlier_neighbours(lo, hi)
    later = np.repeat(np.arange(len(sides)), [j.size for j in neighbours])
    earlier = np.concatenate([later[:0], *neighbours])
    tol = (BOUNDARY_REL_TOL * np.minimum(sides[later], sides[earlier]))[:, None]
    apart = (hi[later] <= lo[earlier] + tol) | (hi[earlier] <= lo[later] + tol)
    overlap = ~apart.any(axis=1)
    return later[overlap], earlier[overlap]


def comparability_ratio(inner: Cube, outer: Cube, b: float) -> float:
    """exp(-|c_D|^2) * lambda(H) / gamma(H) for H = inner inside D = outer.

    On admissible cubes the Gauss measure behaves like the Lebesgue measure
    damped by the density at the cube center; this ratio quantifies that
    equivalence.  Requires H to be contained in D and D in Q_b.
    """
    if not outer.contains_cube(inner):
        raise ValueError("inner cube must be contained in the outer cube")
    if not is_admissible(outer, b):
        raise ValueError(f"outer cube is not admissible for b={b}")
    g = gaussian_measure(inner)
    if g <= 0.0:
        raise ValueError("inner cube has vanishing Gauss measure (underflow)")
    c2 = outer.center_norm() ** 2
    return math.exp(-c2) * lebesgue_measure(inner) / g
