"""Oscillation-sum functionals over admissible cube families.

The central object is the K_p functional: the supremum, over countable
families of pairwise-disjoint admissible cubes, of

    ( sum_i gamma(Q_i) * osc_q(f, Q_i)^p )^(1/p)

with the q-oscillation osc_q(f, Q) = (mean_Q |f - f_Q|^q)^(1/q).  Every
computed sum is a certified lower bound for the supremum, and because each
family's total Gauss mass is at most 1 (a subprobability power mean), the
optimized value is nondecreasing in p and bounded by the single-cube
oscillation supremum, which the p-scan makes visible.

Candidate families come from dyadic forests grown under covering cubes;
the optimizer is an exact maximum-weight-antichain dynamic program on the
forest (a selected node excludes its descendants and ancestors), plus a
greedy-with-swaps heuristic for unstructured cube pools.  The BMO
comparison uses the same cube pool: the single-cube supremum dominates
every family sum, so the two estimates are directly comparable.

Forests and families are arrays (centers (m, d), sides (m,)); the only
``Cube`` objects built are those a report names (an estimate's family, the
BMO ``argmax_cube``, a tail fit's cube).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .covering import Covering
from .fields import (
    DistributionProfile,
    QuadratureSpec,
    ScalarField,
    l1_gamma_norm,
    oscillations,
    tail_profiles,
)
from .geometry import (
    Cube,
    admissible_mask,
    child_offsets,
    cube_arrays,
    gaussian_measures,
    overlapping_pairs,
)


# ---------------------------------------------------------------------------
# families and oscillation sums
# ---------------------------------------------------------------------------


def _cubes(centers: np.ndarray, sides: np.ndarray) -> tuple[Cube, ...]:
    return tuple(map(Cube, centers.tolist(), sides.tolist()))


def validate_family(centers: np.ndarray, sides: np.ndarray, a: float) -> None:
    """Raise unless the cubes (centers (n, d), sides (n,)) are pairwise disjoint and
    admissible at scale a, naming the first fault of a loop over cube i that
    checks its admissibility and then its overlaps with the cubes j < i."""
    if not len(sides):
        return
    bad = np.flatnonzero(~admissible_mask(centers, sides, a))
    later, earlier = overlapping_pairs(centers, sides)
    if bad.size and not (later.size and later[0] < bad[0]):
        i = int(bad[0])
        where = f"center {tuple(centers[i].tolist())}, side {float(sides[i])}"
        raise ValueError(f"cube {i} ({where}) is not admissible")
    if later.size:
        raise ValueError(f"cubes {earlier[0]} and {later[0]} overlap")


def _check_exponents(p: float, q: float) -> None:
    if not p > 1.0:
        raise ValueError("exponent p must exceed 1")
    if not 1.0 <= q < p:
        raise ValueError("oscillation exponent q must satisfy 1 <= q < p")


def jnp_sum(
    f: ScalarField,
    cubes: Sequence[Cube],
    p: float,
    q: float,
    spec: QuadratureSpec,
    *,
    a: float | None = None,
) -> float:
    """Oscillation sum (sum gamma(Q) osc_q(f,Q)^p)^(1/p) for one family.

    When ``a`` is given the family is validated (pairwise disjoint,
    admissible); the returned value is then a certified lower bound for the
    K_p functional of f.
    """
    _check_exponents(p, q)
    centers, sides = cube_arrays(cubes)
    if a is not None:
        validate_family(centers, sides, a)
    return math.fsum(_weights(*node_stats(f, centers, sides, q, spec), p)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# dyadic forests of candidate cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Forest of admissible cubes closed under the antichain DP.

    Node i is the cube with center ``centers[i]`` and side ``sides[i]``;
    ``parent[i]`` is the index of its parent, -1 for a root.  Nodes are in
    preorder: each node precedes its subtree, and children follow in
    ``Cube.dyadic_children`` order.  Every node is admissible at scale ``a``
    and children are the dyadic halves of their parent, so any antichain of
    the forest is a valid disjoint family.
    """

    centers: np.ndarray
    sides: np.ndarray
    parent: np.ndarray
    a: float

    @property
    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def node_count(self) -> int:
        return len(self.sides)


def grow_forest(centers: np.ndarray, sides: np.ndarray, depth: int, a: float) -> CandidateSet:
    """Dyadic trees ``depth`` levels deep under the root cubes (centers (m, d), sides (m,)),
    admissible at scale ``a``.

    A cube that is not admissible is dropped together with its subtree.  The
    forest grows one level at a time on arrays: the 2^d children of every
    kept cube of a level are one (m * 2^d, d) center array, and one mask
    keeps the admissible ones.  The levels are then laid out in preorder,
    so the result is that of growing each root depth-first.
    """
    if not len(sides):
        return CandidateSet(np.empty((0, 0)), np.empty(0), np.empty(0, dtype=np.intp), a)
    d = centers.shape[1]
    keep = admissible_mask(centers, sides, a)
    # the kept cubes of each level, and for levels >= 1 the index of each one's parent
    levels = [(centers[keep], sides[keep])]
    parents = []
    for _ in range(depth):
        centers, sides = levels[-1]
        kids = (centers[:, None, :] + child_offsets(d, sides)).reshape(-1, d)
        kid_sides = np.repeat(0.5 * sides, 2**d)
        keep = admissible_mask(kids, kid_sides, a)
        levels.append((kids[keep], kid_sides[keep]))
        parents.append(np.flatnonzero(keep) >> d)
    # a subtree is one run of the preorder: its root, then its children's
    # runs in order, so each node sits one past its parent plus the sizes
    # of its earlier siblings' subtrees
    sizes = [np.ones(len(s), dtype=np.intp) for _, s in levels]
    for level in range(depth, 0, -1):
        np.add.at(sizes[level - 1], parents[level - 1], sizes[level])
    at = [np.cumsum(sizes[0]) - sizes[0]]
    for level in range(1, depth + 1):
        up = parents[level - 1]
        run = np.cumsum(sizes[level]) - sizes[level]
        at.append(at[-1][up] + 1 + run - run[np.searchsorted(up, up)])
    n = int(sizes[0].sum())
    centers, sides, parent = np.empty((n, d)), np.empty(n), np.full(n, -1, dtype=np.intp)
    for level, ((c, s), here) in enumerate(zip(levels, at)):
        centers[here], sides[here] = c, s
        if level:
            parent[here] = at[level - 1][parents[level - 1]]
    return CandidateSet(centers, sides, parent, a)


def make_candidates(covering: Covering, depth: int) -> CandidateSet:
    """Dyadic forest rooted at a disjoint subfamily of the covering's cubes.

    Shell cubes from slabs of different axes cross each other in dimension
    two and higher, so the covering is first thinned (deterministic
    first-fit in covering order) to a pairwise-disjoint root set; every
    antichain of the resulting forest is then a valid family.  Roots are
    admissible at the covering scale 2 sqrt(d) by construction; inadmissible
    descendants (there are none in practice, but the contract is enforced,
    not assumed) are dropped together with their subtrees.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _layer, centers, sides = covering.arrays()
    # pairs come sorted by i, so is_kept[j] is final when pair (i, j) is read
    is_kept = [True] * len(sides)
    for i, j in zip(*(ix.tolist() for ix in overlapping_pairs(centers, sides))):
        is_kept[i] = is_kept[i] and not is_kept[j]
    return grow_forest(centers[is_kept], sides[is_kept], depth, covering.admissibility)


# ---------------------------------------------------------------------------
# maximum-weight antichain
# ---------------------------------------------------------------------------


#: Relative margin by which a node's children must beat it to replace it,
#: and by which the largest oscillation must beat a cube to pass it over as
#: the BMO ``argmax_cube``.  Weights are oscillation powers, certified only
#: to the quadrature tolerance, and some decisions are exact ties: for
#: radius_sq the central cube (-1, 1) and its two halves weigh the same by
#: symmetry, and mirror cubes oscillate the same.  The winner of a closer
#: decision would depend on the last bits of the quadrature, so it counts
#: as a tie.
TIE_MARGIN = 1e-6


def max_weight_antichain(
    parent: Sequence[int], weights: Sequence[float]
) -> tuple[float, tuple[int, ...]]:
    """Maximum-weight antichain of a preorder forest (weights must be >= 0).

    ``parent[i]`` is the parent of node i (-1 for a root) and precedes it.
    best(node) = max(weight(node), sum of best over children), where the
    children win only when their sum exceeds weight(node) * (1 +
    ``TIE_MARGIN``): near-ties prefer the node itself, which keeps
    selections shallow and deterministic.  The total is therefore exact up
    to a factor (1 + ``TIE_MARGIN``) per forest level, and the family, the
    indices of its nodes in preorder, is an antichain either way.
    """
    w = [float(x) for x in weights]
    if any(x < 0.0 for x in w):
        raise ValueError("antichain weights must be nonnegative")
    parent = np.asarray(parent, dtype=np.intp).tolist()
    # a reverse pass settles each node after its subtree: below[i] collects the
    # best values of i's children (below[-1] the roots'), in any order for fsum
    below: list[list[float]] = [[] for _ in range(len(w) + 1)]
    best, keeps = w[:], [True] * len(w)
    for i in range(len(w) - 1, -1, -1):
        if below[i]:
            child_total = math.fsum(below[i])
            if child_total > w[i] * (1.0 + TIE_MARGIN):
                best[i], keeps[i] = child_total, False
        below[parent[i]].append(best[i])
    # a node is picked when it keeps itself and no ancestor kept itself
    blocked = [False] * len(w)
    for i, up in enumerate(parent):
        blocked[i] = up >= 0 and (blocked[up] or keeps[up])
    family = tuple(i for i, k in enumerate(keeps) if k and not blocked[i])
    return math.fsum(below[-1]), family


@dataclass(frozen=True)
class JnpEstimate:
    """A certified lower bound for a JN-type oscillation functional."""

    value: float
    p: float
    q: float
    family: tuple[Cube, ...]
    contributions: tuple[float, ...]
    method: str
    candidates: int

    def to_obj(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "q": self.q,
            "method": self.method,
            "candidates": self.candidates,
            "family": [
                dict(c.to_obj(), weight=w) for c, w in zip(self.family, self.contributions)
            ],
        }


def node_stats(
    f: ScalarField, centers: np.ndarray, sides: np.ndarray, q: float, spec: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """gamma(Q) and osc_q(f, Q) of every cube (a forest's nodes), from one ``oscillations`` call.

    ``maximize_jnp``, ``bmo_norm_estimate`` and ``p_limit_scan`` take a
    forest's as ``stats``, so passes over it with one (f, q, spec) share them.
    """
    gamma, osc = oscillations(f, centers, sides, q, spec, measures=True)
    return gamma, np.array(osc)


def _weights(gamma: np.ndarray, osc: np.ndarray, p: float) -> list[float]:
    return [g * o**p for g, o in zip(gamma.tolist(), osc.tolist())]


def maximize_jnp(
    f: ScalarField,
    candidates: CandidateSet,
    p: float,
    q: float,
    spec: QuadratureSpec,
    *,
    stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> JnpEstimate:
    """Best oscillation sum over all antichains of the candidate forest.

    ``stats`` are the forest's ``node_stats`` for (f, q, spec), computed here when not given.
    """
    _check_exponents(p, q)
    stats = stats or node_stats(f, candidates.centers, candidates.sides, q, spec)
    weights = _weights(*stats, p)
    total, picks = max_weight_antichain(candidates.parent, weights)
    centers, sides = candidates.centers[list(picks)], candidates.sides[list(picks)]
    validate_family(centers, sides, candidates.a)
    return JnpEstimate(
        value=total ** (1.0 / p),
        p=p,
        q=q,
        family=_cubes(centers, sides),
        contributions=tuple(weights[i] for i in picks),
        method="antichain-dp",
        candidates=candidates.node_count(),
    )


#: Most improvement passes of the greedy swap heuristic.
MAX_SWAP_PASSES = 50


def maximize_jnp_pool(
    f: ScalarField,
    centers: np.ndarray,
    sides: np.ndarray,
    p: float,
    q: float,
    spec: QuadratureSpec,
    a: float,
) -> JnpEstimate:
    """Greedy-plus-swaps heuristic for an unstructured (overlapping) pool of cubes
    (centers (n, d), sides (n,)).

    Greedily admits cubes by decreasing weight, then repeatedly swaps in any
    cube whose weight exceeds the total weight of the chosen cubes it
    conflicts with.  A cube's conflicts are the cubes it overlaps, from one
    ``overlapping_pairs`` call.  The result is a valid family, hence still a
    certified lower bound, without any optimality claim.
    """
    _check_exponents(p, q)
    bad = np.flatnonzero(~admissible_mask(centers, sides, a))
    if bad.size:
        raise ValueError(f"pool cube (center {tuple(centers[bad[0]].tolist())}) is not admissible")
    weight = _weights(*node_stats(f, centers, sides, q, spec), p)
    later, earlier = overlapping_pairs(centers, sides)
    conflicts: list[list[int]] = [[] for _ in weight]
    for i, j in zip(later.tolist(), earlier.tolist()):
        conflicts[i].append(j)
        conflicts[j].append(i)
    order = sorted(range(len(weight)), key=lambda i: -weight[i])
    chosen = [False] * len(weight)
    for i in order:
        chosen[i] = not any(chosen[j] for j in conflicts[i])
    for _ in range(MAX_SWAP_PASSES):
        improved = False
        for i in order:
            if chosen[i]:
                continue
            out = [j for j in conflicts[i] if chosen[j]]
            if weight[i] - math.fsum(weight[j] for j in out) > 0.0:
                for j in out:
                    chosen[j] = False
                chosen[i] = improved = True
        if not improved:
            break
    picks = [i for i, c in enumerate(chosen) if c]
    validate_family(centers[picks], sides[picks], a)
    weights = tuple(weight[i] for i in picks)
    return JnpEstimate(
        value=math.fsum(weights) ** (1.0 / p),
        p=p,
        q=q,
        family=_cubes(centers[picks], sides[picks]),
        contributions=weights,
        method="greedy-swap",
        candidates=len(weight),
    )


# ---------------------------------------------------------------------------
# BMO comparison and the p -> infinity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BmoEstimate:
    """L^1 norm plus single-cube oscillation supremum over a cube pool."""

    value: float
    l1_term: float
    l1_tail_slack: float
    sup_term: float
    argmax_cube: Cube
    pool_size: int

    def to_obj(self) -> dict:
        return {
            "value": self.value,
            "l1_term": self.l1_term,
            "l1_tail_slack": self.l1_tail_slack,
            "sup_term": self.sup_term,
            "argmax_cube": self.argmax_cube.to_obj(),
            "pool_size": self.pool_size,
        }


def bmo_norm_estimate(
    f: ScalarField,
    candidates: CandidateSet,
    d: int,
    radius: float,
    spec: QuadratureSpec,
    *,
    q: float = 1.0,
    stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> BmoEstimate:
    """Lower estimate of the BMO-type norm ||f||_L1 + sup_Q osc_q(f, Q).

    The supremum runs over the candidate pool (a lower bound for the true
    supremum over all admissible cubes); the L^1 term integrates over the
    box (-R, R)^d and logs the analytic tail bound as slack.  ``stats``, the
    forest's ``node_stats`` for (f, q, spec), can be shared with ``maximize_jnp``.
    """
    l1_est, slack = l1_gamma_norm(f, d, radius, spec)
    stats = stats or node_stats(f, candidates.centers, candidates.sides, q, spec)
    oscs = stats[1].tolist()
    if not oscs:
        raise ValueError("candidate set is empty")
    best = max(oscs)
    # mirror cubes tie up to the last bits of the quadrature: the pick is the
    # first cube in pool order that no cube beats by more than TIE_MARGIN
    k = next(i for i, osc in enumerate(oscs) if osc * (1.0 + TIE_MARGIN) >= best)
    return BmoEstimate(
        value=l1_est + best,
        l1_term=l1_est,
        l1_tail_slack=slack,
        sup_term=best,
        argmax_cube=Cube(tuple(candidates.centers[k].tolist()), float(candidates.sides[k])),
        pool_size=candidates.node_count(),
    )


def p_limit_scan(
    f: ScalarField,
    candidates: CandidateSet,
    ps: Sequence[float],
    q: float,
    spec: QuadratureSpec,
) -> list[tuple[float, JnpEstimate]]:
    """Optimized oscillation sums along an increasing grid of exponents p.

    The forest's ``node_stats`` are computed once (they depend on q only), so
    the scan costs one quadrature pass plus a cheap DP per exponent.  Because every family
    has total Gauss mass at most 1, the optimal value is nondecreasing in p
    and approaches the single-cube supremum as p grows.
    """
    ps_sorted = sorted(float(p) for p in ps)
    if ps_sorted != [float(p) for p in ps]:
        raise ValueError("exponent grid must be sorted increasing")
    if not ps_sorted:
        return []
    # the smallest p, checked before any quadrature as its maximize_jnp would
    _check_exponents(ps_sorted[0], q)
    stats = node_stats(f, candidates.centers, candidates.sides, q, spec)
    return [(p, maximize_jnp(f, candidates, p, q, spec, stats=stats)) for p in ps_sorted]


# ---------------------------------------------------------------------------
# distribution tail exponent fit
# ---------------------------------------------------------------------------


#: Tails at or below this mass are left out of the fit window as noise.
TAIL_FLOOR = 1e-6


@dataclass(frozen=True)
class TailFitReport:
    """Log-log fit of a centered distribution tail on one cube.

    ``c_estimate`` is the smallest constant C for which the sampled tails
    satisfy gamma({|f - f_Q| > s}) <= C (khat / s)^p across the fit window.
    Degenerate profiles (no tail mass inside the window) are reported, not
    raised.  ``tails`` and ``window`` index the caller's sigma grid; the
    grid, p, khat and the field are the caller's and are not kept here.
    """

    cube: Cube
    tails: tuple[float, ...]
    window: tuple[int, int]
    slope: float | None
    c_estimate: float | None
    degenerate: bool

    def to_obj(self) -> dict:
        return {
            "cube": self.cube.to_obj(),
            "tails": list(self.tails),
            "window": list(self.window),
            "slope": self.slope,
            "c_estimate": self.c_estimate,
            "degenerate": self.degenerate,
        }


def jn_tail_fit(
    f: ScalarField,
    cube: Cube,
    p: float,
    spec: QuadratureSpec,
    sigmas: Sequence[float],
    khat: float,
) -> TailFitReport:
    """Fit the decay exponent of gamma({|f - f_Q| > sigma}) on one cube.

    The fit window keeps grid points whose tails lie strictly between
    ``TAIL_FLOOR`` and gamma(Q)/2, discarding the saturated head and the
    noise-dominated extreme tail.  ``khat`` is a caller-supplied oscillation
    functional estimate used only to normalize c_estimate.
    """
    return tail_fit_sweep(f, *cube_arrays([cube]), p, spec, sigmas, khat)[0]


def _tail_fit(
    profile: DistributionProfile, cube: Cube, gq: float, p: float, khat: float
) -> TailFitReport:
    sig = np.asarray(profile.sigmas)
    tails = np.asarray(profile.tails)
    idx = np.flatnonzero((tails > TAIL_FLOOR) & (tails < 0.5 * gq))
    report = partial(TailFitReport, cube, profile.tails)
    if idx.size < 2:
        return report(window=(0, 0), slope=None, c_estimate=None, degenerate=True)
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    xs = np.log(sig[lo:hi])
    ys = np.log(tails[lo:hi])
    slope = float(np.polyfit(xs, ys, 1)[0])
    c_est = float(np.max(sig[lo:hi] ** p * tails[lo:hi]) / khat**p)
    return report(window=(lo, hi), slope=slope, c_estimate=c_est, degenerate=False)


def tail_fit_sweep(
    f: ScalarField,
    centers: np.ndarray,
    sides: np.ndarray,
    p: float,
    spec: QuadratureSpec,
    sigmas: Sequence[float],
    khat: float,
) -> list[TailFitReport]:
    """Tail fits across the cubes (centers (m, d), sides (m,)), their profiles
    refined together; degenerate cubes are kept in the report (flagged) so
    sweeps never hide them."""
    if not khat > 0.0:
        raise ValueError("khat must be positive")
    profiles = tail_profiles(f, centers, sides, sigmas, spec)
    gamma = gaussian_measures(centers, sides)[1].tolist()
    cubes = _cubes(centers, sides)
    return [_tail_fit(*args, p, khat) for args in zip(profiles, cubes, gamma)]
