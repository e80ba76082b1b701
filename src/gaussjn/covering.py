"""Structured coverings of R^d by admissible cubes, and contraction chains.

The plane is exhausted by nested cubes P_k = (-a_k, a_k)^d where the radii
follow the recurrence

    a_1 = 1,   a_{k+1} = a_k + 1/a_k,

so a_k ~ sqrt(k).  Each shell P_{k+1} \\ P_k splits into 2d slabs (one per
signed axis), and each slab is tiled by cubes of side exactly 1/a_k:
the product of the radial interval (a_k, a_{k+1}) with a division of the
transverse range (-a_{k+1}, a_{k+1}) into pieces of length 1/a_k, the last
piece re-anchored to finish exactly at a_{k+1}.  Together with the central
cube P_1 (stored as layer 0) the layers 1..K cover P_{K+1} up to a Lebesgue
null set, every cube being admissible for A_d = 2*sqrt(d).

The second half of the module implements the contraction step M(.) that
moves an admissible cube toward the origin along its center ray, the lens
cube Q' used to compare gamma(M(Q)) with gamma(Q), and the finite chain
Q -> M(Q) -> M(M(Q)) -> ... that reaches the ball |c| <= 1/2 in a number of
steps controlled by 4|c_Q|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .geometry import (
    Ball,
    Cube,
    admissible_mask,
    center_norms,
    cube_corners,
    m_weight,
    m_weight_points,
)

#: Admissibility parameter guaranteed for every covering cube in dimension d.
def covering_admissibility(d: int) -> float:
    return 2.0 * math.sqrt(d)


_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class RadiusSequence:
    """Radii a_1..a_K of the nested cubes P_k, with growth-bound checks.

    The two-sided bound sqrt(2k) <= a_{k+1} <= sqrt(3k) is enforced at
    construction wherever it is arithmetically valid: the lower bound for
    every k >= 1, the upper bound for k >= 3.  (The first two steps
    genuinely violate the upper bound: a_2 = 2 > sqrt(3) and
    a_3 = 2.5 > sqrt(6); from k = 3 on it holds with room to spare.)
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("radius sequence needs at least one entry")
        if vals[0] != 1.0:
            raise ValueError("radius sequence must start at a_1 = 1")
        for k in range(1, len(vals)):
            expected = vals[k - 1] + 1.0 / vals[k - 1]
            if vals[k] != expected:
                raise ValueError(f"recurrence violated at index {k}")
            if vals[k] < math.sqrt(2.0 * k) - _BOUND_TOL:
                raise ValueError(f"lower growth bound violated at k={k}")
            if k >= 3 and vals[k] > math.sqrt(3.0 * k) + _BOUND_TOL:
                raise ValueError(f"upper growth bound violated at k={k}")

    def __len__(self) -> int:
        return len(self.values)

    def a(self, k: int) -> float:
        """a_k with the 1-based indexing of the construction."""
        if not 1 <= k <= len(self.values):
            raise IndexError(f"a_{k} not computed (have 1..{len(self.values)})")
        return self.values[k - 1]


def radius_sequence(count: int) -> RadiusSequence:
    """First `count` radii a_1..a_count of the recurrence a_{k+1} = a_k + 1/a_k."""
    if count < 1:
        raise ValueError("count must be >= 1")
    vals = [1.0]
    for _ in range(count - 1):
        vals.append(vals[-1] + 1.0 / vals[-1])
    return RadiusSequence(tuple(vals))


def divide_interval(alpha: float, beta: float, delta: float) -> list[tuple[float, float]]:
    """Divide (alpha, beta) into open pieces of length delta, finishing at beta.

    Produces ceil((beta-alpha)/delta) intervals.  All but the last start at
    alpha + i*delta; the last is re-anchored as (beta - delta, beta) so that
    every piece has length exactly delta (when the quotient is an integer the
    two prescriptions coincide).
    """
    alpha = float(alpha)
    beta = float(beta)
    delta = float(delta)
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    span = beta - alpha
    if delta >= span:
        raise ValueError(f"delta={delta} must be smaller than the interval length {span}")
    quotient = span / delta
    nearest = round(quotient)
    if nearest >= 1 and abs(quotient - nearest) <= 1e-12 * max(1.0, abs(quotient)):
        count = int(nearest)
    else:
        count = int(math.ceil(quotient))
    pieces = [(alpha + i * delta, alpha + (i + 1) * delta) for i in range(count - 1)]
    pieces.append((beta - delta, beta))
    return pieces


@dataclass(frozen=True, eq=False)
class Layer:
    """All covering cubes of one shell (or the central cube for index 0):
    centers (n, d) and sides (n,)."""

    index: int
    centers: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.sides)


def build_layer(k: int, d: int, seq: RadiusSequence) -> Layer:
    """Cubes of side 1/a_k tiling the shell P_{k+1} \\ P_k, slab by slab.

    Order is deterministic: axis 0..d-1, positive sign before negative,
    transverse pieces in lexicographic multi-index order.  Each slab is one
    block of rows: its radial midpoint on the slab's axis, and the grid of
    transverse piece midpoints, in C order, on the other axes.
    """
    if k < 1:
        raise ValueError("shell layers start at k = 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    a_k = seq.a(k)
    a_next = seq.a(k + 1)
    delta = 1.0 / a_k
    radial = {
        +1: (a_k, a_next),
        -1: (-a_next, -a_k),
    }
    transverse = divide_interval(-a_next, a_next, delta) if d > 1 else []
    mids = [0.5 * (lo + hi) for lo, hi in transverse]
    grid = np.array(list(itertools.product(mids, repeat=d - 1)), dtype=np.float64)
    blocks = []
    for axis in range(d):
        for sign in (+1, -1):
            r_lo, r_hi = radial[sign]
            block = np.empty((len(grid), d))
            block[:, axis] = 0.5 * (r_lo + r_hi)
            block[:, [ax for ax in range(d) if ax != axis]] = grid
            blocks.append(block)
    centers = np.concatenate(blocks)
    return Layer(k, centers, np.full(len(centers), delta))


@dataclass(frozen=True)
class Covering:
    """Central cube plus shell layers 1..K; covers P_{K+1} up to a null set."""

    d: int
    depth: int
    seq: RadiusSequence
    layers: tuple[Layer, ...]

    @property
    def admissibility(self) -> float:
        return covering_admissibility(self.d)

    def outer_cube(self) -> Cube:
        """P_{K+1}, the region the covering is guaranteed to exhaust."""
        a = self.seq.a(self.depth + 1)
        return Cube((0.0,) * self.d, 2.0 * a)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer index (n,), centers (n, d) and sides (n,) of every cube, layer by layer."""
        index = np.repeat([layer.index for layer in self.layers], list(map(len, self.layers)))
        centers = np.concatenate([layer.centers for layer in self.layers])
        return index, centers, np.concatenate([layer.sides for layer in self.layers])

    def cube_count(self) -> int:
        return sum(len(layer) for layer in self.layers)


def build_covering(depth: int, d: int) -> Covering:
    """Layers 1..depth plus the central cube P_1 = (-1,1)^d stored as layer 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    seq = radius_sequence(depth + 1)
    central = Layer(0, np.zeros((1, d)), np.array([2.0]))
    layers = [central]
    for k in range(1, depth + 1):
        layers.append(build_layer(k, d, seq))
    return Covering(d=d, depth=depth, seq=seq, layers=tuple(layers))


# ---------------------------------------------------------------------------
# contraction step M(.), lens cubes, chains
# ---------------------------------------------------------------------------


def m_ball(ball: Ball) -> Ball:
    """The contracted ball M(B): moved toward the origin along the center ray.

    For s = |c_B| >= 3/2 the new center norm is u = (s + sqrt(s^2 - 2))/2 and
    the radius is 1/(2u); for 1/2 < s < 3/2 it is u = s - 1/2 with radius 1/2.
    In both regimes r = m(c_M)/2 and |c_M| + r = |c_B| hold exactly.
    """
    s = ball.center_norm()
    if not s > 0.5:
        raise ValueError(f"ball center must satisfy |c_B| > 1/2, got {s}")
    if s >= 1.5:
        u = 0.5 * (s + math.sqrt(s * s - 2.0))
        r = 1.0 / (2.0 * u)
    else:
        u = s - 0.5
        r = 0.5
    center = tuple(ci * (u / s) for ci in ball.center)
    return Ball(center, r)


def inscribed_ball(cube: Cube) -> Ball:
    return Ball(cube.center, 0.5 * cube.side)


def circumscribed_cube(ball: Ball) -> Cube:
    return Cube(ball.center, 2.0 * ball.radius)


def _check_chain_cube(cube: Cube) -> float:
    # Iterated images have side equal to m(center) in exact arithmetic, so
    # the comparison must forgive last-digit rounding or the chain can choke
    # on its own output.
    s = cube.center_norm()
    if m_weight(cube.center) > cube.side * (1.0 + 1e-12):
        raise ValueError("chain cubes must satisfy m(c_Q) <= l_Q")
    return s


def m_cube(cube: Cube) -> Cube:
    """Cube circumscribed around M(inscribed ball); side = m(new center)."""
    s = _check_chain_cube(cube)
    if not s > 0.5:
        raise ValueError(f"cube center must satisfy |c_Q| > 1/2, got {s}")
    return circumscribed_cube(m_ball(inscribed_ball(cube)))


def lens_cube(cube: Cube) -> Cube:
    """Cube around the largest ball inside M(B) cap B (B inscribed in Q).

    When M(B) is already contained in B (i.e. 2 r_M <= r_B) the lens is M(B)
    itself and the result coincides with m_cube(Q).  Otherwise the largest
    inscribed ball B' has radius r_B/2 and sits at distance r_B/2 from c_B
    toward the origin, so the resulting cube has half the side of Q.
    """
    s = _check_chain_cube(cube)
    if not s > 0.5:
        raise ValueError(f"cube center must satisfy |c_Q| > 1/2, got {s}")
    b = inscribed_ball(cube)
    mb = m_ball(b)
    if 2.0 * mb.radius <= b.radius:
        return circumscribed_cube(mb)
    shift = 0.5 * b.radius / s
    center = tuple(ci * (1.0 - shift) for ci in b.center)
    return circumscribed_cube(Ball(center, 0.5 * b.radius))


_CHAIN_GUARD = 10**6


@dataclass(frozen=True)
class MChain:
    """Chain Q, M(Q), M^2(Q), ... ending at the first cube with |c| <= 1/2."""

    cubes: tuple[Cube, ...]

    @property
    def steps(self) -> int:
        return len(self.cubes) - 1


def k_chain(cube: Cube) -> MChain:
    """Iterate M(.) until the center reaches the ball |c| <= 1/2.

    A cube that already starts with |c_Q| <= 1/2 yields the trivial chain
    [Q] with zero steps.  The number of steps is bounded by 4|c_Q|^2; a hard
    guard of 10^6 iterations protects against runaway loops.
    """
    _check_chain_cube(cube)
    chain = [cube]
    while chain[-1].center_norm() > 0.5:
        if len(chain) > _CHAIN_GUARD:
            raise RuntimeError("contraction chain exceeded the iteration guard")
        chain.append(m_cube(chain[-1]))
    return MChain(tuple(chain))


# ---------------------------------------------------------------------------
# covering verification
# ---------------------------------------------------------------------------


def low_discrepancy_points(covering: Covering, count: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points filling P_{K+1} (deterministic per seed)."""
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=covering.d, scramble=True, seed=seed)
    u = sampler.random_base2(max(1, math.ceil(math.log2(count))))[:count]
    a = covering.seq.a(covering.depth + 1)
    return a * (2.0 * u - 1.0)


def coverage_report(covering: Covering, n_points: int = 100_000, seed: int = 0) -> dict:
    """Sample-based verification of the covering invariants.

    Checks: every sampled point of P_{K+1} lies in at least one cube; the
    overlap count never exceeds 3^d; every cube is admissible for 2*sqrt(d);
    shell cubes with k >= 2 satisfy m(c_Q) <= l_Q <= 2*sqrt(d)*m(c_Q); center
    norms obey sqrt(k)/M <= |c_Q| <= M*k^(d/2) with M = 4; and the running
    sup of #L_k / k^(d-1) has plateaued over the last three layers.
    """
    d = covering.d
    a_par = covering.admissibility
    layer_of, centers, sides = covering.arrays()

    pts = low_discrepancy_points(covering, n_points, seed)
    counts = kernels.count_membership(pts, *cube_corners(centers, sides))
    covered_fraction = float(np.mean(counts >= 1))
    max_overlap = int(counts.max())

    mw = m_weight_points(centers)
    admissible_all = bool(np.all(admissible_mask(centers, sides, a_par)))
    shell = layer_of >= 2
    iv_ok = bool(np.all((mw[shell] <= sides[shell]) & (sides[shell] <= a_par * mw[shell])))

    # per-layer constants with Python's sqrt and pow, repeated over each layer's cubes
    shells = [layer for layer in covering.layers if layer.index >= 1]
    sizes = [len(layer) for layer in shells]
    root_k = np.repeat([math.sqrt(layer.index) for layer in shells], sizes)
    pow_k = np.repeat([layer.index ** (d / 2.0) for layer in shells], sizes)
    norm = center_norms(centers[layer_of >= 1])
    ratio = np.maximum(root_k / norm, norm / pow_k)
    center_bound_m = float(np.max(ratio, initial=0.0))
    center_bound_ok = bool(np.all((root_k / 4.0 <= norm) & (norm <= 4.0 * pow_k)))

    card = {layer.index: len(layer) for layer in covering.layers if layer.index >= 1}
    ratios = {k: card[k] / k ** (d - 1) for k in sorted(card)}
    running_sup = []
    sup = 0.0
    for k in sorted(ratios):
        sup = max(sup, ratios[k])
        running_sup.append(sup)
    if len(running_sup) >= 4:
        plateau_ok = running_sup[-1] == running_sup[-3]
    else:
        plateau_ok = True

    ok = (
        covered_fraction == 1.0
        and max_overlap <= 3**d
        and admissible_all
        and iv_ok
        and center_bound_ok
        and plateau_ok
    )
    return {
        "d": d,
        "depth": covering.depth,
        "n_points": int(n_points),
        "seed": int(seed),
        "cube_count": covering.cube_count(),
        "covered_fraction": covered_fraction,
        "max_overlap": max_overlap,
        "overlap_limit": 3**d,
        "admissible_all": admissible_all,
        "shell_side_bounds_ok": iv_ok,
        "center_bound_ok": center_bound_ok,
        "center_bound_constant": center_bound_m,
        "layer_cardinalities": {str(k): card[k] for k in sorted(card)},
        "cardinality_ratios": {str(k): ratios[k] for k in sorted(ratios)},
        "cardinality_sup_plateau": plateau_ok,
        "ok": ok,
    }
