"""Scalar fields, tensor-product Gauss quadrature, and distribution profiles.

Fields are vectorized callables on point arrays of shape (n, d) together
with metadata the quadrature engine exploits:

* ``breaks`` -- per-axis hyperplane positions where the field is not smooth
  (jumps, kinks, singular points).  Integration panels are split at these
  positions first, so piecewise-smooth integrands converge at full Gauss
  order and step-field integrals are exact at the coarsest level.
* ``singular_set`` -- human-readable description recorded in manifests.
* ``growth`` -- optional (A, B) with |f(x)| <= A + B|x|^2 for |x| >= 1, used
  for analytic integral tail bounds outside a sampling box.
* ``tail_bound`` -- optional exact override for that tail bound.

Integration is tensor-product Gauss-Legendre on dyadically refined panels
against the *normalized* Gauss measure of the cube: per-axis node weights
are divided by the exact one-dimensional Gauss measure of the axis
interval, so every reported quantity is an average and tolerances are
meaningful uniformly in the cube's location.  A level-L estimate is
accepted when it agrees with level L-1 within ``abs_tol`` (Richardson-style
acceptance); running out of levels raises :class:`QuadratureError`.
Indicator integrands (distribution tails) use the same hierarchy with twice
the refinement budget and share one node set across the whole sigma grid,
which makes tail profiles monotone in sigma by construction.  All
reductions go through the deterministic pairwise kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .geometry import Cube, gaussian_measure

_SQRT_PI = math.sqrt(math.pi)

#: Hard cap on tensor nodes per refinement level.
MAX_TENSOR_NODES = 20_000_000


class QuadratureError(RuntimeError):
    """Raised when the refinement hierarchy cannot certify the tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel order, dyadic refinement budget, and acceptance tolerance.

    ``abs_tol`` applies to gamma-normalized averages (and to tail masses in
    units of gamma), independent of where the cube sits.
    """

    nodes_per_axis: int = 8
    refinement_levels: int = 10
    abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 2:
            raise ValueError("nodes_per_axis must be >= 2")
        if self.refinement_levels < 1:
            raise ValueError("refinement_levels must be >= 1")
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class ScalarField:
    """A measurable function on R^d with quadrature metadata.

    Parameters
    ----------
    id:
        Stable identifier used in manifests and serialized reports.
    fn:
        Vectorized evaluator mapping an (n, d) array to an (n,) array.
    dim:
        Required dimension, or ``None`` when the formula works in any d.
    breaks:
        Mapping axis -> sorted positions of non-smoothness hyperplanes.
    growth:
        Optional (A, B) with |f(x)| <= A + B|x|^2 valid for |x| >= 1.
    tail_bound:
        Optional callable (R, d) -> exact upper bound for the integral of
        |f| against gamma outside the box (-R, R)^d.
    level_breaks:
        Optional callable mapping a level value c to extra axis breaks of
        the set {|f| = c}; used to keep truncated fields panel-aligned.
    """

    def __init__(
        self,
        id: str,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        dim: int | None = None,
        breaks: Mapping[int, Sequence[float]] | None = None,
        description: str = "",
        singular_set: str | None = None,
        growth: tuple[float, float] | None = None,
        tail_bound: Callable[[float, int], float] | None = None,
        level_breaks: Callable[[float], Mapping[int, Sequence[float]]] | None = None,
    ) -> None:
        self.id = str(id)
        self.fn = fn
        self.dim = dim
        self.breaks: dict[int, tuple[float, ...]] = {
            int(ax): tuple(sorted(float(b) for b in bs)) for ax, bs in (breaks or {}).items()
        }
        self.description = description
        self.singular_set = singular_set
        self.growth = growth
        self.tail_bound = tail_bound
        self.level_breaks = level_breaks

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.dim is not None and pts.shape[1] != self.dim:
            raise ValueError(f"field {self.id} expects dimension {self.dim}, got {pts.shape[1]}")
        return np.asarray(self.fn(pts), dtype=np.float64).reshape(pts.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScalarField({self.id!r})"


def merge_breaks(*mappings: Mapping[int, Sequence[float]]) -> dict[int, tuple[float, ...]]:
    """Union of per-axis break positions, deduplicated and sorted."""
    out: dict[int, set[float]] = {}
    for mp_ in mappings:
        for ax, bs in mp_.items():
            out.setdefault(int(ax), set()).update(float(b) for b in bs)
    return {ax: tuple(sorted(vals)) for ax, vals in out.items()}


def shift_field(f: ScalarField, c: float) -> ScalarField:
    """f - c (breaks unchanged)."""
    c = float(c)
    return ScalarField(
        f"{f.id}|minus:{c!r}",
        lambda pts: f(pts) - c,
        dim=f.dim,
        breaks=f.breaks,
        description=f"{f.id} shifted by {-c}",
        singular_set=f.singular_set,
    )


def abs_power_field(f: ScalarField, q: float) -> ScalarField:
    """|f|^q (breaks unchanged; the kink at f=0 is handled by refinement)."""
    q = float(q)
    return ScalarField(
        f"{f.id}|abspow:{q!r}",
        lambda pts: np.abs(f(pts)) ** q,
        dim=f.dim,
        breaks=f.breaks,
        description=f"|{f.id}|^{q}",
        singular_set=f.singular_set,
    )


def restrict_field(f: ScalarField, cube: Cube) -> ScalarField:
    """f * chi_Q: zero outside the open cube; cube faces become breaks."""
    face_breaks = {ax: (cube.lo[ax], cube.hi[ax]) for ax in range(cube.dim)}
    lo = cube.lo_array()
    hi = cube.hi_array()

    def fn(pts: np.ndarray) -> np.ndarray:
        inside = np.all((pts > lo) & (pts < hi), axis=-1)
        vals = np.zeros(pts.shape[0], dtype=np.float64)
        if np.any(inside):
            vals[inside] = f(pts[inside])
        return vals

    return ScalarField(
        f"{f.id}|chi:{cube.center!r}:{cube.side!r}",
        fn,
        dim=cube.dim,
        breaks=merge_breaks(f.breaks, face_breaks),
        description=f"{f.id} restricted to a cube",
        singular_set=f.singular_set,
    )


def product_field(f1: ScalarField, f2: ScalarField) -> ScalarField:
    """Pointwise product; breaks are merged so panels respect both factors."""
    if f1.dim is not None and f2.dim is not None and f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    return ScalarField(
        f"({f1.id})*({f2.id})",
        lambda pts: f1(pts) * f2(pts),
        dim=f1.dim if f1.dim is not None else f2.dim,
        breaks=merge_breaks(f1.breaks, f2.breaks),
        description=f"product of {f1.id} and {f2.id}",
        singular_set=f1.singular_set or f2.singular_set,
    )


def truncate(f: ScalarField, level: float) -> ScalarField:
    """Two-sided truncation f_N = max(-N, min(N, f)).

    When the field knows its level sets (``level_breaks``) the truncation
    hyperplanes are added to the break set so panels stay aligned.
    """
    n = float(level)
    if not n > 0.0:
        raise ValueError("truncation level must be positive")
    extra: Mapping[int, Sequence[float]] = {}
    if f.level_breaks is not None:
        extra = f.level_breaks(n)
    return ScalarField(
        f"{f.id}|trunc:{n!r}",
        lambda pts: np.clip(f(pts), -n, n),
        dim=f.dim,
        breaks=merge_breaks(f.breaks, extra),
        description=f"{f.id} truncated at {n}",
        singular_set=f.singular_set,
        growth=(n, 0.0),
    )


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_segments(lo: float, hi: float, cuts: Sequence[float]) -> list[tuple[float, float]]:
    interior = sorted(c for c in cuts if lo < c < hi)
    edges = [lo, *interior, hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _axis_rule(
    segments: Sequence[tuple[float, float]], level: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and *normalized* gamma weights for one axis at one level."""
    gx, gw = _leggauss(order)
    nodes = []
    weights = []
    for a, b in segments:
        panels = 1 << level
        width = (b - a) / panels
        half = 0.5 * width
        starts = a + width * np.arange(panels)
        mids = starts + half
        x = (mids[:, None] + half * gx[None, :]).ravel()
        w = (half * gw)[None, :] * np.exp(-x * x).reshape(panels, order)
        nodes.append(x)
        weights.append(w.ravel() / _SQRT_PI)
    x_all = np.concatenate(nodes)
    w_all = np.concatenate(weights)
    total = kernels.gauss1d(segments[0][0], segments[-1][1])
    if total <= 0.0:
        raise QuadratureError("axis interval has vanishing Gauss measure")
    return x_all, w_all / total


def tensor_rule(
    cube: Cube, breaks: Mapping[int, Sequence[float]], level: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """All tensor nodes (n, d) and normalized weights (n,) for the cube."""
    d = cube.dim
    axis_nodes = []
    axis_weights = []
    count = 1
    for ax in range(d):
        segs = _axis_segments(cube.lo[ax], cube.hi[ax], breaks.get(ax, ()))
        x, w = _axis_rule(segs, level, order)
        axis_nodes.append(x)
        axis_weights.append(w)
        count *= x.size
    if count > MAX_TENSOR_NODES:
        raise QuadratureError(
            f"refinement level {level} would need {count} tensor nodes (cap {MAX_TENSOR_NODES}) "
            f"on cube center {cube.center} side {cube.side}"
        )
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = axis_weights[0]
    for ax in range(1, d):
        w = (w[:, None] * axis_weights[ax][None, :]).ravel()
    return pts, w


def field_rule(
    what: str,
    f: ScalarField,
    cube: Cube,
    breaks: Mapping[int, Sequence[float]],
    level: int,
    order: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``tensor_rule`` for the quadrature ``what`` of field f.

    A node-cap :class:`QuadratureError` is re-raised with the quadrature and
    the field id in front of the cube, level and node count it names.
    """
    try:
        return tensor_rule(cube, breaks, level, order)
    except QuadratureError as exc:
        raise QuadratureError(f"{what} of field {f.id}: {exc}") from exc


def _not_converged(
    what: str, f: ScalarField, cube: Cube, level: int, nodes: int, detail: str
) -> QuadratureError:
    return QuadratureError(
        f"{what} of field {f.id} on cube center {cube.center} side {cube.side} "
        f"did not converge by refinement level {level} ({nodes} tensor nodes): {detail}"
    )


def average_gamma(
    f: ScalarField,
    cube: Cube,
    spec: QuadratureSpec,
    *,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    extra_breaks: Mapping[int, Sequence[float]] | None = None,
    abs_tol: float | None = None,
) -> float:
    """Gamma-normalized mean of transform(f) over the cube.

    Refines dyadically until two successive levels agree within the
    tolerance; raises :class:`QuadratureError` when the budget is exhausted.
    The mean is self-normalized by the rule's own weight sum (which equals
    one up to rounding), so a field that is identically 1 averages to
    exactly 1.0 and centered oscillations of constants vanish exactly.
    """
    breaks = merge_breaks(f.breaks, extra_breaks or {})
    tol = spec.abs_tol if abs_tol is None else abs_tol
    prev: float | None = None
    last_diff = math.inf
    for level in range(spec.refinement_levels + 1):
        pts, w = field_rule("average", f, cube, breaks, level, spec.nodes_per_axis)
        vals = f(pts)
        if transform is not None:
            vals = transform(vals)
        est = kernels.weighted_sum(vals, w) / kernels.pairwise_sum(w)
        if prev is not None:
            last_diff = abs(est - prev)
            if last_diff <= tol:
                return est
        prev = est
    raise _not_converged(
        "average", f, cube, level, w.size, f"last diff {last_diff:.3e} > {tol:.3e}"
    )


def gauss_average(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> float:
    """f_Q = gamma(Q)^(-1) Int_Q f dgamma."""
    if gaussian_measure(cube) <= 0.0:
        raise ValueError("cube has vanishing Gauss measure")
    return average_gamma(f, cube, spec)


def integral_gamma(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> float:
    """Int_Q f dgamma (unnormalized)."""
    return gauss_average(f, cube, spec) * gaussian_measure(cube)


def oscillation(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> float:
    """q-oscillation: (gamma(Q)^(-1) Int_Q |f - f_Q|^q dgamma)^(1/q).

    The integrand |f - f_Q|^q has a kink on the level set {f = f_Q}; when
    the field can solve its level sets those positions are added to the
    panel breaks so the kink never crosses a panel.
    """
    if not q >= 1.0:
        raise ValueError("oscillation exponent q must be >= 1")
    center = gauss_average(f, cube, spec)
    extra = level_set_breaks(f, center, np.zeros(1))
    mean_pow = average_gamma(
        f, cube, spec, transform=lambda v: np.abs(v - center) ** q, extra_breaks=extra
    )
    return mean_pow ** (1.0 / q)


def lq_norm(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> float:
    """(Int_Q |f|^q dgamma)^(1/q) (unnormalized; kink at {f = 0} aligned)."""
    if not q >= 1.0:
        raise ValueError("exponent q must be >= 1")
    extra = level_set_breaks(f, 0.0, np.zeros(1))
    mean_pow = average_gamma(
        f, cube, spec, transform=lambda v: np.abs(v) ** q, extra_breaks=extra
    )
    return (mean_pow * gaussian_measure(cube)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# distribution tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionProfile:
    """Tail masses gamma({|g| > sigma}) over a sigma grid (one node set)."""

    field_id: str
    cube: Cube
    sigmas: tuple[float, ...]
    tails: tuple[float, ...]

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.sigmas, self.tails))


def level_set_breaks(
    f: ScalarField, center: float, sigmas: np.ndarray
) -> dict[int, tuple[float, ...]]:
    """Axis positions of {|f - center| = sigma} when the field can solve them.

    ``level_breaks`` answers for {|f| = v}, a superset of {f = v}; extra cut
    positions only refine panels, never hurt.  Unsolvable levels are skipped.
    """
    if f.level_breaks is None:
        return {}
    pieces = []
    for s in sigmas:
        for v in (abs(center + s), abs(center - s)):
            try:
                mp_ = f.level_breaks(float(v))
            except (ValueError, OverflowError):
                continue
            pieces.append(
                {ax: tuple(b for b in bs if math.isfinite(b)) for ax, bs in mp_.items()}
            )
    return merge_breaks(*pieces) if pieces else {}


def _tail_converge(
    f: ScalarField,
    cube: Cube,
    sigmas: np.ndarray,
    spec: QuadratureSpec,
    center: float,
) -> np.ndarray:
    breaks = merge_breaks(f.breaks, level_set_breaks(f, center, sigmas))
    gq = gaussian_measure(cube)
    levels = 2 * spec.refinement_levels
    prev: np.ndarray | None = None
    last_diff = math.inf
    for level in range(levels + 1):
        pts, w = field_rule("tail profile", f, cube, breaks, level, spec.nodes_per_axis)
        av = np.abs(f(pts) - center)
        tails = kernels.tail_sums(av, w * gq, sigmas)
        if prev is not None:
            last_diff = float(np.max(np.abs(tails - prev)))
            if last_diff <= spec.abs_tol:
                return tails
        prev = tails
    raise _not_converged(
        "tail profile", f, cube, level, w.size, f"last diff {last_diff:.3e} > {spec.abs_tol:.3e}"
    )


def tail_profile(
    f: ScalarField,
    cube: Cube,
    sigmas: Sequence[float],
    spec: QuadratureSpec,
    *,
    center: float | None = None,
) -> DistributionProfile:
    """gamma({x in Q : |f - f_Q| > sigma}) for every sigma in the grid.

    All sigmas share one node hierarchy (with twice the refinement budget of
    smooth integrands), so the profile is monotone nonincreasing in sigma by
    construction.  When the field can solve its own level sets the jump
    positions of every indicator in the grid are added to the shared panel
    breaks, which makes one-dimensional profiles exact at the coarsest
    level.  Pass ``center=0.0`` for uncentered tails of |f|.
    """
    sig = np.asarray(sorted(float(s) for s in sigmas), dtype=np.float64)
    if sig.size == 0 or sig[0] < 0.0:
        raise ValueError("sigma grid must be nonempty and nonnegative")
    c = gauss_average(f, cube, spec) if center is None else float(center)
    tails = _tail_converge(f, cube, sig, spec, c)
    return DistributionProfile(
        field_id=f.id, cube=cube, sigmas=tuple(sig.tolist()), tails=tuple(tails.tolist())
    )


def tail_measure(
    f: ScalarField, cube: Cube, sigma: float, spec: QuadratureSpec, *, center: float | None = None
) -> float:
    """gamma({x in Q : |f - f_Q| > sigma}) for a single sigma."""
    if not sigma >= 0.0:
        raise ValueError("sigma must be nonnegative")
    return tail_profile(f, cube, [sigma], spec, center=center).tails[0]


def _node_measure_weak_sup(av: np.ndarray, wg: np.ndarray, p: float) -> float:
    """Exact sup_sigma sigma * tail(sigma)^(1/p) for a discrete node measure.

    The map is linear between distinct node values and jumps down as sigma
    crosses one, so its supremum is a left limit v * (weight{|f| >= v})^(1/p)
    at some node value v; suffix summation over the sorted values finds it.
    """
    if float(np.max(av)) <= 0.0:
        return 0.0
    order = np.argsort(av)
    sv = av[order]
    suffix = np.cumsum(wg[order][::-1])[::-1]
    levels_v, first = np.unique(sv, return_index=True)
    scores = levels_v * np.maximum(suffix[first], 0.0) ** (1.0 / p)
    return float(np.max(scores))


def weak_lp_norm(
    f: ScalarField,
    cube: Cube,
    p: float,
    spec: QuadratureSpec,
    *,
    rel_tol: float = 1e-3,
) -> float:
    """Weak norm sup_sigma sigma * gamma({|f| > sigma})^(1/p) on the cube.

    At each refinement level the supremum is computed exactly against the
    node measure (no sigma grid); the hierarchy deepens until two successive
    levels agree within max(spec.abs_tol, rel_tol * value).  Step-like
    fields are panel-aligned, so their node measure reproduces the true cell
    masses and the result matches the closed form to summation accuracy;
    for continuous fields the value is an estimate whose error tracks the
    panel resolution at the optimizing level.
    """
    if not p >= 1.0:
        raise ValueError("exponent p must be >= 1")
    gq = gaussian_measure(cube)
    breaks = merge_breaks(f.breaks)
    prev: float | None = None
    last_diff = math.inf
    for lv in range(2 * spec.refinement_levels + 1):
        pts, w = field_rule("weak norm", f, cube, breaks, lv, spec.nodes_per_axis)
        sup = _node_measure_weak_sup(np.abs(f(pts)), w * gq, p)
        if prev is not None:
            last_diff = abs(sup - prev)
            if last_diff <= max(spec.abs_tol, rel_tol * abs(sup)):
                return sup
        prev = sup
    raise _not_converged("weak norm", f, cube, lv, w.size, f"last diff {last_diff:.3e}")


def growth_tail_bound(a_coef: float, b_coef: float, radius: float, d: int) -> float:
    """Exact bound for Int_{outside (-R,R)^d} (A + B|x|^2) dgamma.

    Uses gamma(box) = erf(R)^d and the closed-form second moment
    Int_{-R}^{R} t^2 dgamma_1 = erf(R)/2 - R exp(-R^2)/sqrt(pi).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    erf_r = kernels.erf(radius)
    box_mass = erf_r**d
    outside = 1.0 - box_mass
    second_inside_axis = 0.5 * erf_r - radius * math.exp(-radius * radius) / _SQRT_PI
    second_outside = d * (0.5 - second_inside_axis * erf_r ** (d - 1))
    return a_coef * outside + b_coef * second_outside


def l1_tail_bound(f: ScalarField, radius: float, d: int) -> float:
    """Upper bound for Int_{outside (-R,R)^d} |f| dgamma.

    Prefers the field's exact ``tail_bound``; otherwise falls back to the
    (A, B) quadratic growth envelope.  Raises when neither is available.
    """
    if f.tail_bound is not None:
        return float(f.tail_bound(float(radius), int(d)))
    if f.growth is not None:
        a_coef, b_coef = f.growth
        return growth_tail_bound(a_coef, b_coef, radius, d)
    raise ValueError(f"field {f.id} declares no integral tail bound")


def l1_gamma_norm(
    f: ScalarField, d: int, radius: float, spec: QuadratureSpec
) -> tuple[float, float]:
    """(estimate, tail_slack) for the full-space norm Int |f| dgamma.

    The estimate integrates |f| over the box (-R, R)^d; the slack is the
    analytic bound on what the box misses, so the true norm lies in
    [estimate, estimate + tail_slack] up to quadrature tolerance.
    """
    box = Cube((0.0,) * d, 2.0 * float(radius))
    extra = level_set_breaks(f, 0.0, np.zeros(1))
    mean_abs = average_gamma(f, box, spec, transform=np.abs, extra_breaks=extra)
    estimate = mean_abs * gaussian_measure(box)
    return estimate, l1_tail_bound(f, radius, d)


# ---------------------------------------------------------------------------
# step fields with exact moments
# ---------------------------------------------------------------------------


class StepField(ScalarField):
    """Piecewise-constant field along one axis; moments are exact.

    values[j] applies on (edges[j-1], edges[j]) with edges extended by
    -inf/+inf; points exactly on an edge take the left cell's value (a
    gamma-null set, irrelevant for integrals).
    """

    def __init__(
        self,
        id: str,
        axis: int,
        edges: Sequence[float],
        values: Sequence[float],
        *,
        dim: int | None = None,
        description: str = "",
    ) -> None:
        edges_t = tuple(float(e) for e in edges)
        values_t = tuple(float(v) for v in values)
        if list(edges_t) != sorted(set(edges_t)):
            raise ValueError("edges must be strictly increasing")
        if len(values_t) != len(edges_t) + 1:
            raise ValueError("need one more value than edges")
        self.axis = int(axis)
        self.edges = edges_t
        self.values = values_t

        def fn(pts: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(np.asarray(edges_t), pts[:, axis], side="left")
            return np.asarray(values_t, dtype=np.float64)[idx]

        vmax = max(abs(v) for v in values_t)
        super().__init__(
            id,
            fn,
            dim=dim,
            breaks={axis: edges_t},
            description=description or f"step field along axis {axis}",
            singular_set=f"hyperplanes x_{axis} in {list(edges_t)}",
            growth=(vmax, 0.0),
        )


def step_distribution(f: StepField, cube: Cube) -> tuple[np.ndarray, np.ndarray]:
    """Exact (values, gamma-masses) of the step field's cells inside the cube."""
    if not isinstance(f, StepField):
        raise TypeError("step_distribution requires a StepField")
    ax = f.axis
    lo, hi = cube.lo[ax], cube.hi[ax]
    other = 1.0
    for a in range(cube.dim):
        if a != ax:
            other *= kernels.gauss1d(cube.lo[a], cube.hi[a])
    cell_edges = [lo, *[e for e in f.edges if lo < e < hi], hi]
    values = []
    masses = []
    inner = np.asarray(f.edges)
    for i in range(len(cell_edges) - 1):
        a, b = cell_edges[i], cell_edges[i + 1]
        mid = 0.5 * (a + b)
        idx = int(np.searchsorted(inner, mid, side="left"))
        values.append(f.values[idx])
        masses.append(kernels.gauss1d(a, b) * other)
    return np.asarray(values), np.asarray(masses)


def step_average(f: StepField, cube: Cube) -> float:
    v, m = step_distribution(f, cube)
    return float(np.sum(v * m) / np.sum(m))


def step_oscillation(f: StepField, cube: Cube, q: float) -> float:
    v, m = step_distribution(f, cube)
    avg = float(np.sum(v * m) / np.sum(m))
    return float((np.sum(np.abs(v - avg) ** q * m) / np.sum(m)) ** (1.0 / q))


def step_lq_norm(f: StepField, cube: Cube, q: float) -> float:
    v, m = step_distribution(f, cube)
    return float(np.sum(np.abs(v) ** q * m) ** (1.0 / q))


def step_weak_lp_norm(f: StepField, cube: Cube, p: float) -> float:
    """Exact sup_sigma sigma * gamma(|f| > sigma)^(1/p): attained at cell values."""
    v, m = step_distribution(f, cube)
    av = np.abs(v)
    best = 0.0
    for level in np.unique(av):
        if level <= 0.0:
            continue
        tail = float(np.sum(m[av >= level]))
        best = max(best, float(level) * tail ** (1.0 / p))
    return best


def step_tail(f: StepField, cube: Cube, sigma: float, *, center: float | None = None) -> float:
    """Exact gamma({|f - center| > sigma}); center defaults to the cube mean."""
    v, m = step_distribution(f, cube)
    c = float(np.sum(v * m) / np.sum(m)) if center is None else float(center)
    return float(np.sum(m[np.abs(v - c) > sigma]))


def make_random_step(
    rng: np.random.Generator,
    cube: Cube,
    *,
    axis: int = 0,
    cells: int = 4,
    scale: float = 1.0,
    tag: str = "",
) -> StepField:
    """Random step field whose edges fall strictly inside the cube."""
    if cells < 2:
        raise ValueError("need at least two cells")
    lo, hi = cube.lo[axis], cube.hi[axis]
    u = np.sort(rng.uniform(0.05, 0.95, size=cells - 1))
    edges = lo + (hi - lo) * u
    values = rng.normal(0.0, scale, size=cells)
    label = tag or f"rs{rng.integers(0, 1 << 30):08x}"
    return StepField(
        f"randstep-{label}",
        axis,
        edges,
        values,
        dim=cube.dim,
        description=f"random {cells}-cell step field",
    )


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _const_field(c: float) -> ScalarField:
    return ScalarField(
        "const_one" if c == 1.0 else f"const:{c!r}",
        lambda pts: np.full(pts.shape[0], float(c)),
        description=f"constant {c}",
        growth=(abs(float(c)), 0.0),
    )


def _coord_field(axis: int = 0) -> ScalarField:
    return ScalarField(
        f"coord{axis}",
        lambda pts: pts[:, axis].copy(),
        description=f"coordinate x_{axis + 1}",
        growth=(1.0, 1.0),
        level_breaks=lambda c: {axis: (-c, c)},
    )


def _radius_sq_field(d: int) -> ScalarField:
    return ScalarField(
        "radius_sq",
        lambda pts: np.sum(pts * pts, axis=-1),
        dim=d,
        description="squared Euclidean norm |x|^2",
        growth=(0.0, 1.0),
        level_breaks=(lambda c: {0: (-math.sqrt(c), math.sqrt(c))}) if d == 1 else None,
    )


def _sign_field(axis: int = 0) -> ScalarField:
    return ScalarField(
        f"sign{axis}",
        lambda pts: np.sign(pts[:, axis]),
        breaks={axis: (0.0,)},
        description=f"sign of x_{axis + 1}",
        singular_set=f"hyperplane x_{axis + 1} = 0",
        growth=(1.0, 0.0),
    )


def _step_demo_field(d: int) -> StepField:
    return StepField(
        "step0",
        0,
        (0.3,),
        (0.0, 1.0),
        dim=None,
        description="two-level step 1{x_1 > 0.3}",
    )


def _log_radial_field(d: int) -> ScalarField:
    def fn(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        return np.log(np.maximum(r, 1.0))

    return ScalarField(
        "log_radial",
        fn,
        dim=d,
        breaks={0: (-1.0, 1.0)} if d == 1 else {},
        description="log(1/m(x)) = log max(1, |x|)",
        singular_set="sphere |x| = 1 (gradient kink)",
        growth=(1.0, 1.0),
        level_breaks=(lambda c: {0: (-math.exp(c), math.exp(c))}) if d == 1 else None,
    )


def _exp_half_sq_field(d: int) -> ScalarField:
    def fn(pts: np.ndarray) -> np.ndarray:
        return np.exp(0.5 * np.sum(pts * pts, axis=-1))

    def tail(R: float, dd: int) -> float:
        # exact: Int exp(|x|^2/2) dgamma = 2^(d/2); inside (-R,R)^d the axis
        # factor is sqrt(2) * (1 - erfc(R/sqrt(2)))
        full = 2.0 ** (0.5 * dd)
        inside_axis = math.sqrt(2.0) * (1.0 - kernels.erfc(R / math.sqrt(2.0)))
        return full - inside_axis**dd

    return ScalarField(
        "exp_half_sq",
        fn,
        dim=d,
        description="heavy-tail field exp(|x|^2/2); in L^p(gamma) only for p < 2",
        growth=None,
        tail_bound=tail,
        level_breaks=(
            (lambda c: {0: (-math.sqrt(2.0 * math.log(c)), math.sqrt(2.0 * math.log(c)))})
            if d == 1
            else None
        ),
    )


def corpus(d: int) -> list[ScalarField]:
    """Reference fields used by experiments and acceptance suites."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return [
        _const_field(1.0),
        _coord_field(0),
        _radius_sq_field(d),
        _sign_field(0),
        _step_demo_field(d),
        _log_radial_field(d),
        _exp_half_sq_field(d),
    ]


def corpus_by_id(d: int) -> dict[str, ScalarField]:
    return {f.id: f for f in corpus(d)}


def corpus_manifest(d: int) -> list[dict]:
    """JSON-ready corpus description."""
    rows = []
    for f in corpus(d):
        rows.append(
            {
                "id": f.id,
                "description": f.description,
                "dimension": d,
                "singular_set": f.singular_set,
            }
        )
    return rows
