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
acceptance; the largest difference for tail profiles, and within
``rel_tol`` of the value for weak norms); running out of levels raises
:class:`QuadratureError`.  Indicator integrands (distribution tails) use
the same hierarchy with twice the refinement budget and share one node set
across the whole sigma grid, which makes tail profiles monotone in sigma by
construction.  Averages and tail masses are summed with the deterministic
pairwise kernels; weak norms take exact suffix sums over the sorted node
values.

Panels are graded toward known kinks.  For a fractional q, |f - f_Q|^q has
an endpoint singularity on the level set {f = f_Q}, which ``level_breaks``
puts on panel edges where the field can solve it, and uniform refinement
converges there only like 2^(-(q+1)L).  Oscillations therefore pass those
positions as ``kinks``: at level L >= 1 the end panel of a segment that
touches a kink is cut at 2^-j of its width from the kink, j = L..1, into
L + 1 panels that halve toward it (geometric grading, as in hp finite
elements), so the segment has order * (2^L + L) nodes per graded end.  All
other panels, and every rule without kinks, are the uniform ones bit for
bit.  Tails and weak norms are not graded: their breaks are jumps, with a
smooth integrand on each panel, and an integer q makes |f - f_Q|^q a
polynomial in f on either side of the level set.

One function, ``_drive``, runs every refinement.  Each cube's computation is
a small program -- for an oscillation, the centering average and then the
centered power average -- and ``_drive`` advances all pending cubes of a
call one level per round: their rules are built in one vectorized pass per
level, the field is evaluated once on the stacked nodes, and row-wise
pairwise trees reduce each cube in the order a one-cube loop would, so every
value is bit for bit that loop's.  The stacked nodes of a batch are the
transpose of one (d, n) buffer, filled coordinate by coordinate, so every
coordinate column is contiguous.  A single cube is a batch of one.  A batch
holds at most ``BATCH_NODES`` nodes.  Rules larger than ``SHARED_RULE_NODES``
are refined one cube at a time in input order, and such a solo level is
streamed: only its per-axis rules are built, and the tensor rule is produced,
evaluated and reduced one aligned block of ``kernels._BLOCK`` nodes at a
time, in buffers reused from block to block.  Aligned blocks are whole
subtrees of the pairwise tree, so the block sums, added with that tree, are
bit for bit the sums over the whole rule, while the memory of a solo level
is O(block) (plus its axis rules and, for weak norms, two values per node),
not O(rule).  A failing cube stops the cubes after it, and the first failure
in input order is raised, as a loop over the cubes would.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Generator, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import kernels
from .geometry import Cube, gaussian_measure

_SQRT_PI = math.sqrt(math.pi)

#: Hard cap on tensor nodes per refinement level.  Large levels are streamed
#: in blocks, so the cap bounds the time a level takes, not its memory.  It is
#: also what stops the d=2 ``jn-tail`` and ``duality`` runs, so raising it
#: would change their outcomes.
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
        Vectorized evaluator mapping an (n, d) float64 array to an (n,)
        array.  Quadrature nodes arrive column-major for d >= 2 (each
        coordinate ``pts[:, k]`` is contiguous, so reductions along
        ``axis=-1`` run over whole columns); other callers may pass
        row-major arrays.  Index by axis and never rely on memory order:
        the values must not depend on the layout.  (numpy sums eight or
        more entries along ``axis=-1`` in a layout-dependent order, so the
        corpus fields add their coordinates column by column instead.)
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

#: Most tensor nodes one batched field evaluation holds.
BATCH_NODES = 1 << 15
#: Largest rule a cube brings into a shared evaluation.  Its deeper levels
#: are refined one cube at a time, in input order: they hold most of the
#: cost, so a cube that fails there spares every cube after it that work,
#: as a one-cube loop would, and large integrals keep that loop's memory.
SHARED_RULE_NODES = 1 << 11


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_segments(lo: float, hi: float, cuts: Sequence[float]) -> list[tuple[float, float]]:
    interior = sorted(c for c in cuts if lo < c < hi)
    edges = [lo, *interior, hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _runs(keys: Sequence) -> Iterable[tuple[object, list[int]]]:
    """Maximal runs of neighbouring equal keys as (key, indices), None keys skipped."""
    for key, run in itertools.groupby(range(len(keys)), key=keys.__getitem__):
        if key is not None:
            yield key, list(run)


class _Panels:
    """A cube's axis intervals split at the breaks, as rows of segments.

    Rows run axis by axis (``counts`` segments per axis); ``total`` holds,
    on each row, the Gauss measure of the whole axis interval.  A segment
    end that lies on one of the ``kinks`` (which must also be breaks) is
    graded: ``pattern`` holds, on each row, left + 2 * right for the
    graded ends (left, right) of its segment, and ``graded`` counts them
    per axis.
    """

    def __init__(
        self,
        cube: Cube,
        breaks: Mapping[int, Sequence[float]],
        kinks: Mapping[int, Sequence[float]] | None = None,
    ) -> None:
        self.cube = cube
        self.counts: list[int] = []
        self.graded = [0] * cube.dim
        self.pattern: list[int] = []
        self.a: list[float] = []
        self.b: list[float] = []
        self.total: list[float] = []
        self.vanishing: int | None = None
        for ax in range(cube.dim):
            lo, hi = cube.lo[ax], cube.hi[ax]
            segments = _axis_segments(lo, hi, breaks.get(ax, ()))
            total = kernels.gauss1d(lo, hi)
            if total <= 0.0 and self.vanishing is None:
                self.vanishing = ax
            # segment edges are the break values themselves, so equality is exact
            if kinks and (on_kink := {k for k in kinks.get(ax, ()) if lo < k < hi}):
                for a, b in segments:
                    left, right = a in on_kink, b in on_kink
                    self.pattern.append(left + 2 * right)
                    self.graded[ax] += left + right
            else:
                self.pattern.extend([0] * len(segments))
            self.counts.append(len(segments))
            self.a.extend(a for a, _ in segments)
            self.b.extend(b for _, b in segments)
            self.total.extend([total] * len(segments))
        self.cells = math.prod(self.counts)

    def axis_nodes(self, level: int, order: int) -> list[int]:
        """Nodes of each axis rule at this level.

        That is order * 2^level per segment, plus order * level per graded end.
        """
        return [order * ((c << level) + level * g) for c, g in zip(self.counts, self.graded)]

    def nodes(self, level: int, order: int) -> int:
        """Tensor nodes of the cube's rule at this level."""
        if any(self.graded):
            return math.prod(self.axis_nodes(level, order))
        # a quarter of the cost of the product: _drive counts every
        # request of a batch once per round
        return self.cells * (order << level) ** len(self.counts)

    def check(self, level: int, order: int) -> int:
        """Tensor node count at this level; raises when the rule cannot be built."""
        cube = self.cube
        if self.vanishing is not None:
            ax = self.vanishing
            raise QuadratureError(
                f"refinement level {level} has axis {ax} interval ({cube.lo[ax]}, {cube.hi[ax]}) "
                f"of vanishing Gauss measure on cube center {cube.center} side {cube.side}"
            )
        count = self.nodes(level, order)
        if count > MAX_TENSOR_NODES:
            raise QuadratureError(
                f"refinement level {level} would need {count} tensor nodes "
                f"(cap {MAX_TENSOR_NODES}) on cube center {cube.center} side {cube.side}"
            )
        return count


@lru_cache(maxsize=64)
def _grading(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The panels of a segment at one level, for each pattern of graded ends.

    Pattern g = left + 2 * right says which ends lie on a kink.  Panel k of
    the 2^level uniform panels spans [a + k h, a + (k+1) h]; a graded end
    panel is cut at 2^-j of its width from the kink, j = level..1, into
    level + 1 panels that halve toward it.  Returns the panels of patterns
    0-3 end to end -- per panel, whether it is measured from b instead of
    a, the offset of its left edge and its width, in units of h -- and the
    index of each pattern's first panel, with the panel count last.
    At level 0 nothing is graded and only pattern 0, the one uniform
    panel, is used.
    """
    # 0, 2^-level, ..., 1/2, 1: the cuts of a left end panel
    cuts = np.concatenate(([0.0], 2.0 ** -np.arange(level, -1, -1)))
    parts = []
    for left, right in ((0, 0), (1, 0), (0, 1), (1, 1)):
        k = np.arange(left, (1 << level) - right, dtype=np.float64)
        parts.append((np.zeros(k.size, dtype=bool), k, np.ones(k.size)))
        if left:
            parts.insert(-1, (np.zeros(level + 1, dtype=bool), cuts[:-1], np.diff(cuts)))
        if right:
            parts.append((np.ones(level + 1, dtype=bool), -cuts[:0:-1], np.diff(cuts)[::-1]))
    from_b, off, size = (np.concatenate(col) for col in zip(*parts))
    panels = (1 << level) + level * np.array([0, 1, 1, 2])
    return from_b, off, size, np.concatenate(([0], np.cumsum(panels)))


def _axis_rows(
    run: Sequence[_Panels], level: int, order: int
) -> tuple[np.ndarray, np.ndarray, Sequence[int]]:
    """The axis rules of every row of the run's cubes at one level, end to end.

    Returns the nodes, the weights and the offset of each row's first node,
    with the node count last.  Every row's panels are gathered from the
    ``_grading`` templates and built in one vectorized pass.  The weights
    are the gamma weights of the panels' Gauss-Legendre nodes, divided by
    sqrt(pi) and by the row's axis ``total``.  A uniform panel k of width h
    has midpoint (a + k h) + h / 2, so the rows and panels that are not
    graded have the nodes and weights of uniform dyadic panels bit for bit.
    """
    a = np.array([v for p in run for v in p.a])
    b = np.array([v for p in run for v in p.b])
    total = np.array([v for p in run for v in p.total])
    if level:
        pattern = np.array([g for p in run for g in p.pattern])
    else:
        pattern = np.zeros(a.size, dtype=np.int64)
    from_b, off, size, start = _grading(level)
    first = start[pattern]
    panels = start[pattern + 1] - first
    row = np.repeat(np.arange(a.size), panels)
    ends = np.cumsum(panels)
    # panel j of a row is entry first + j of the templates
    tpl = np.arange(ends[-1]) - np.repeat(ends - panels - first, panels)
    gx, gw = _leggauss(order)
    width = ((b - a) / (1 << level))[row]
    lo = np.where(from_b[tpl], b[row], a[row]) + width * off[tpl]
    half = 0.5 * (width * size[tpl])
    mids = lo + half
    # mids + half gx and half gw exp(-x^2) / sqrt(pi) / total, in place:
    # large runs spend half their time allocating temporaries otherwise
    x = half[:, None] * gx
    x += mids[:, None]
    e = x * x
    np.negative(e, out=e)
    np.exp(e, out=e)
    w = half[:, None] * gw
    w *= e
    w /= _SQRT_PI
    w /= total[row][:, None]
    return x.ravel(), w.ravel(), [0, *(order * ends).tolist()]


def _tensor(
    axis_nodes: Sequence[np.ndarray],
    axis_weights: Sequence[np.ndarray],
    cols: np.ndarray,
    w_out: np.ndarray,
) -> None:
    """Write the tensor rule of the axis rules into its columns and weights.

    Node i of the rule is the i-th multi-index in C order, axis 0 slowest:
    ``cols`` (d, n) receives each coordinate as one contiguous row and
    ``w_out`` (n,) the products of the axis weights, in that order.
    """
    sizes = [x.size for x in axis_nodes]
    for ax, x in enumerate(axis_nodes):
        cols[ax].reshape(math.prod(sizes[:ax]), sizes[ax], -1)[...] = x[:, None]
    w = axis_weights[0]
    for aw in axis_weights[1:-1]:
        w = (w[:, None] * aw[None, :]).ravel()
    np.multiply(w[:, None], axis_weights[-1][None, :], out=w_out.reshape(w.size, -1))


def _rules(
    panels: Sequence[_Panels], levels: Sequence[int], sizes: Sequence[int], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked tensor rules of many cubes: (points, weights, nodes per cube).

    ``sizes`` holds each cube's ``_Panels.nodes`` at its level.  Each
    cube's nodes form one run, in the order given.  The axis rules of
    every run of equal levels are built in one vectorized pass.  For d >= 2
    the points are the transpose of one (d, n) buffer filled coordinate by
    coordinate, so each column of the (n, d) array is contiguous.
    """
    d = panels[0].cube.dim
    sizes = np.array(sizes, dtype=np.int64)
    total = int(sizes.sum())
    cols = np.empty((d, total))
    w_all = np.empty(total)
    off = 0
    for level, ks in _runs(levels):
        run = [panels[k] for k in ks]
        x, w, starts = _axis_rows(run, level, order)
        if d == 1:
            cols[0, off : off + x.size] = x
            w_all[off : off + w.size] = w
            off += x.size
            continue
        row = 0
        for k, p in zip(ks, run):
            axis_x, axis_w = [], []
            for c in p.counts:
                axis_x.append(x[starts[row] : starts[row + c]])
                axis_w.append(w[starts[row] : starts[row + c]])
                row += c
            end = off + int(sizes[k])
            _tensor(axis_x, axis_w, cols[:, off:end], w_all[off:end])
            off = end
    return cols.T, w_all, sizes


#: Node and weight buffers that the last finished streamed level left, per
#: thread.  Fresh buffers of a block's size come from the operating system
#: page by page, at every level; a level takes the spare when it fits and
#: gives its buffers back when it ends, so a quadrature started from inside
#: a field evaluation allocates its own.
_spare = threading.local()


def _blocks(panels: _Panels, level: int, order: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One cube's tensor rule at one level, as the (points, weights) of its blocks.

    Block j holds nodes [j B, (j+1) B) of the C-order rule, B =
    ``kernels._BLOCK``, bit for bit those of ``_rules``.  Only the axis
    rules are built whole: a block writes the axis-0 rows it touches into
    buffers reused from block to block (and, through ``_spare``, from level
    to level), so each block is valid only until the next one is produced.
    """
    x, w, starts = _axis_rows([panels], level, order)
    bounds = [starts[row] for row in np.cumsum([0, *panels.counts]).tolist()]
    axis_x = [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    axis_w = [w[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    n = math.prod(a.size for a in axis_x)
    step = kernels._BLOCK
    if len(axis_x) == 1:
        for s in range(0, n, step):
            yield axis_x[0][s : s + step, None], axis_w[0][s : s + step]
        return
    row = n // axis_x[0].size
    # a block of at most B nodes spans at most B // row + 2 rows
    cap = min(n, (step // row + 2) * row)
    cols, w_buf = getattr(_spare, "buffers", None) or (np.empty((0, 0)), np.empty(0))
    _spare.buffers = None
    if cols.shape[0] != len(axis_x) or w_buf.size < cap:
        cols, w_buf = np.empty((len(axis_x), cap)), np.empty(cap)
    try:
        for s in range(0, n, step):
            e = min(s + step, n)
            r0, r1 = s // row, -(-e // row)
            m = (r1 - r0) * row
            _tensor(
                [axis_x[0][r0:r1], *axis_x[1:]], [axis_w[0][r0:r1], *axis_w[1:]],
                cols[:, :m], w_buf[:m],
            )
            a = s - r0 * row
            yield cols[:, a : a + e - s].T, w_buf[a : a + e - s]
    finally:
        _spare.buffers = cols, w_buf


def tensor_rule(
    cube: Cube, breaks: Mapping[int, Sequence[float]], level: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """All tensor nodes (n, d) and normalized weights (n,) for the cube.

    The nodes run through the multi-indices in C order, axis 0 slowest; the
    array is column-major.
    """
    panels = _Panels(cube, breaks)
    pts, w, _ = _rules([panels], [level], [panels.check(level, order)], order)
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

    A :class:`QuadratureError` (node cap, vanishing measure) is re-raised
    with the quadrature and the field id in front of the cube and level it
    names.
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


class _Centered(NamedTuple):
    """The transform v -> |v - center|^q, applied to many cubes in one pass."""

    center: float
    q: float


class _Tails(NamedTuple):
    """Reduce to the masses gamma({v > sigma}) of the transformed values v, per sigma."""

    sigmas: np.ndarray
    gq: float


class _Weak(NamedTuple):
    """Reduce to sup_sigma sigma * gamma({v > sigma})^(1/p) against the node measure."""

    p: float
    gq: float


class _Quad:
    """One refinement ``_drive`` runs: the cube's rule, its reduction, its state.

    Each level reduces ``transform(f)`` on the cube's own nodes, as the
    ``reduction`` declares: the self-normalized gamma average (``None``),
    tail masses (:class:`_Tails`) or a weak norm (:class:`_Weak`), with the
    normalized weights scaled by gamma(Q) for the last two.  Levels
    0..``top`` are tried in turn, and a level is accepted when it differs
    from the previous one by at most max(``tol``, ``rel_tol`` * |estimate|),
    by the largest entry for arrays.  Panels are graded toward the
    ``kinks``, which must also be among the ``breaks``.
    """

    def __init__(
        self,
        what: str,
        cube: Cube,
        breaks: Mapping[int, Sequence[float]],
        top: int,
        tol: float,
        *,
        transform: Callable[[np.ndarray], np.ndarray] | _Centered | None = None,
        reduction: _Tails | _Weak | None = None,
        rel_tol: float = 0.0,
        kinks: Mapping[int, Sequence[float]] | None = None,
    ) -> None:
        self.what = what
        self.cube = cube
        self.panels = _Panels(cube, breaks, kinks)
        self.top = top
        self.tol = tol
        self.transform = transform
        self.reduction = reduction
        self.rel_tol = rel_tol
        self.level = 0
        self.prev: object = None
        self.diff = math.inf
        self.nodes = 0

    def estimate(self, blocks: Iterable[tuple[np.ndarray, np.ndarray]], n: int) -> object:
        """The level's estimate from the field values and weights of its n nodes.

        ``blocks`` hands them out in node order, in aligned pieces of
        ``kernels._BLOCK`` nodes (the last may be short).  Each piece is
        reduced with the public kernels and the block heads are added with
        the same pairwise tree; aligned blocks are subtrees of that tree, so
        the estimate is bit for bit that of reducing all n nodes at once.
        """
        t, r = self.transform, self.reduction
        heads: list = []
        if isinstance(r, _Weak):
            av, wg = np.empty(n), np.empty(n)
        start = 0
        for vals, w in blocks:
            if isinstance(t, _Centered):
                vals = np.abs(vals - t.center) ** t.q
            elif t is not None:
                vals = t(vals)
            if r is None:
                heads.append((kernels.weighted_sum(vals, w), kernels.pairwise_sum(w)))
            elif isinstance(r, _Tails):
                heads.append(kernels.tail_sums(vals, w * r.gq, r.sigmas))
            else:
                stop = start + w.size
                av[start:stop] = vals
                np.multiply(w, r.gq, out=wg[start:stop])
                start = stop
        if isinstance(r, _Weak):
            return _node_measure_weak_sup(av, wg, r.p)
        sums = kernels.pairwise_sum_rows(np.array(heads).T)
        return sums if isinstance(r, _Tails) else float(sums[0]) / float(sums[1])

    def accept(self, est: object, nodes: int) -> bool:
        """Record the estimate of the current level; True when it is accepted."""
        prev, self.prev = self.prev, est
        self.nodes = nodes
        self.level += 1
        if prev is None:
            return False
        if isinstance(est, np.ndarray):
            self.diff = float(np.max(np.abs(est - prev)))
            return self.diff <= self.tol
        self.diff = abs(est - prev)
        return self.diff <= max(self.tol, self.rel_tol * abs(est))

    def failure(self, f: ScalarField) -> QuadratureError:
        # weak norms accept relative to their value, so only the difference is named
        detail = f"last diff {self.diff:.3e}"
        if not self.rel_tol:
            detail += f" > {self.tol:.3e}"
        return _not_converged(self.what, f, self.cube, self.level - 1, self.nodes, detail)


def _exponent(quad: _Quad) -> float | None:
    return quad.transform.q if isinstance(quad.transform, _Centered) else None


def _batch_estimates(
    quads: Sequence[_Quad], vals: np.ndarray, w: np.ndarray, sizes: np.ndarray
) -> list:
    """``_Quad.estimate`` of every request of one stacked evaluation.

    Plain and centered means are reduced in passes over runs of neighbouring
    requests: the centered powers of a run with one exponent, then row-wise
    pairwise trees over a run of one node count, which add in the order of
    the one-cube sums.  Any other request is estimated on its own slice.
    """
    ends = np.cumsum(sizes).tolist()
    spans = [slice(end - n, end) for end, n in zip(ends, sizes.tolist())]
    pooled = [
        q.reduction is None and (q.transform is None or _exponent(q) is not None) for q in quads
    ]
    out: list = [None] * len(quads)
    for k, quad in enumerate(quads):
        if not pooled[k]:
            out[k] = quad.estimate([(vals[spans[k]], w[spans[k]])], int(sizes[k]))
    tv = vals
    for q, run in _runs([_exponent(quad) if ok else None for quad, ok in zip(quads, pooled)]):
        span = slice(spans[run[0]].start, spans[run[-1]].stop)
        center = np.repeat([quads[k].transform.center for k in run], sizes[run[0] : run[-1] + 1])
        tv = vals.copy() if tv is vals else tv
        tv[span] = np.abs(vals[span] - center) ** q
    prod = tv * w
    for n, run in _runs([int(n) if ok else None for n, ok in zip(sizes, pooled)]):
        span = slice(spans[run[0]].start, spans[run[-1]].stop)
        num = kernels.pairwise_sum_rows(prod[span].reshape(len(run), n)).tolist()
        den = kernels.pairwise_sum_rows(w[span].reshape(len(run), n)).tolist()
        for k, a, b in zip(run, num, den):
            out[k] = a / b
    return out


def _drive(f: ScalarField, programs: Sequence[Generator], order: int) -> list:
    """Run one-cube quadrature programs with shared, level-by-level refinement.

    Each program is a generator: the one-cube computation written straight
    through, which yields a ``_Quad`` whenever it needs a refined quantity,
    receives the accepted estimate and finally returns its cube's result.
    Every round advances each pending request by one level.  Requests whose
    next rule has at most ``SHARED_RULE_NODES`` nodes have their rules built
    together, one vectorized pass per level, and the field is evaluated once
    per batch of at most ``BATCH_NODES`` nodes.  A request whose next rule
    is larger is set aside; when no shared request is left, the set-aside
    cubes are refined alone, in input order, each with its program's
    remaining requests, and each of their levels is streamed block by
    block from ``_blocks`` into ``_Quad.estimate``.  Either way each cube's
    estimates, and so its result, are bit for bit those of refining it
    alone.

    A failure at cube i (its program raising, a rule that cannot be built,
    or no convergence by the last level) stops every cube after i; once the
    cubes before i are done, the first failure in input order is raised.
    """
    results: list = [None] * len(programs)
    pending: dict[int, _Quad] = {}
    # node count of each pending request's current level, set by size();
    # counted once per round, since the batch sort and _rules both need it
    sizes: dict[int, int] = {}
    solo: set[int] = set()
    # cubes from failed_at on are not refined further; error is their first failure
    failed_at, error = len(programs), None

    def fail(i: int, exc: Exception) -> None:
        nonlocal failed_at, error
        pending.pop(i, None)
        if i < failed_at:
            failed_at, error = i, exc

    def advance(i: int, value: object = None) -> None:
        try:
            pending[i] = programs[i].send(value)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value
        except Exception as exc:  # re-raised once the cubes before i are done
            fail(i, exc)

    def size(i: int) -> int | None:
        quad = pending[i]
        try:
            sizes[i] = quad.panels.check(quad.level, order)
            return sizes[i]
        except QuadratureError as exc:
            fail(i, QuadratureError(f"{quad.what} of field {f.id}: {exc}"))
            return None

    def settle(i: int, quad: _Quad, est: object, n: int) -> None:
        if quad.accept(est, n):
            advance(i, est)
        elif quad.level > quad.top:
            fail(i, quad.failure(f))

    def step(batch: list[int]) -> None:
        # neighbours share passes: the powers of one exponent, the axis rules
        # of one level, the sums of one node count
        batch.sort(key=lambda i: (_exponent(pending[i]) or 0.0, pending[i].level, sizes[i]))
        quads = [pending[i] for i in batch]
        pts, w, ns = _rules(
            [q.panels for q in quads], [q.level for q in quads], [sizes[i] for i in batch], order
        )
        if len(quads) == 1:
            ests = [quads[0].estimate([(f(pts), w)], w.size)]
        else:
            ests = _batch_estimates(quads, f(pts), w, ns)
        for i, quad, est, n in sorted(zip(batch, quads, ests, ns.tolist()), key=lambda r: r[0]):
            if i >= failed_at:
                break
            settle(i, quad, est, n)

    def stream(i: int, n: int) -> None:
        quad = pending[i]
        blocks = _blocks(quad.panels, quad.level, order)
        settle(i, quad, quad.estimate(((f(pts), w) for pts, w in blocks), n), n)

    for i in range(len(programs)):
        if i < failed_at:
            advance(i)
    while True:
        live = [i for i in sorted(pending) if i < failed_at]
        if not live:
            break
        shared = [i for i in live if i not in solo]
        if not shared:
            i = live[0]
            while i in pending and i < failed_at and (n := size(i)) is not None:
                stream(i, n)
            continue
        batches: list[list[int]] = [[]]
        total = 0
        for i in shared:
            n = size(i)
            if n is None:
                break
            if n > SHARED_RULE_NODES:
                solo.add(i)
                continue
            if total + n > BATCH_NODES:
                batches.append([])
                total = 0
            batches[-1].append(i)
            total += n
        for batch in batches:
            batch = [i for i in batch if i < failed_at]
            if batch:
                step(batch)
    if error is not None:
        raise error
    return results


def _single(quad: _Quad) -> Generator:
    return (yield quad)


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
    quad = _Quad("average", cube, breaks, spec.refinement_levels, tol, transform=transform)
    return _drive(f, [_single(quad)], spec.nodes_per_axis)[0]


def _mean_steps(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> Generator:
    if gaussian_measure(cube) <= 0.0:
        raise ValueError("cube has vanishing Gauss measure")
    breaks = merge_breaks(f.breaks)
    return (yield _Quad("average", cube, breaks, spec.refinement_levels, spec.abs_tol))


def gauss_average(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> float:
    """f_Q = gamma(Q)^(-1) Int_Q f dgamma."""
    return _drive(f, [_mean_steps(f, cube, spec)], spec.nodes_per_axis)[0]


def integral_gamma(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> float:
    """Int_Q f dgamma (unnormalized)."""
    return gauss_average(f, cube, spec) * gaussian_measure(cube)


def _oscillation_steps(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> Generator:
    center = yield from _mean_steps(f, cube, spec)
    extra = level_set_breaks(f, center, np.zeros(1))
    breaks = merge_breaks(f.breaks, extra)
    # |v|^q is a polynomial on either side of v = 0 for integer q; for any
    # other q the zero set is an endpoint singularity of each panel beside it
    kinks = {} if float(q).is_integer() else extra
    mean_pow = yield _Quad(
        "average", cube, breaks, spec.refinement_levels, spec.abs_tol,
        transform=_Centered(center, q), kinks=kinks,
    )
    return mean_pow ** (1.0 / q)


def oscillations(
    f: ScalarField, cubes: Sequence[Cube], q: float, spec: QuadratureSpec
) -> list[float]:
    """``oscillation`` of f on every cube, all cubes refined together.

    Each value is bit for bit the one-cube ``oscillation``; a failure is
    the one the cube-by-cube loop would raise first.
    """
    if not q >= 1.0:
        raise ValueError("oscillation exponent q must be >= 1")
    programs = [_oscillation_steps(f, cube, q, spec) for cube in cubes]
    return _drive(f, programs, spec.nodes_per_axis)


def oscillation(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> float:
    """q-oscillation: (gamma(Q)^(-1) Int_Q |f - f_Q|^q dgamma)^(1/q).

    The integrand |f - f_Q|^q has a kink on the level set {f = f_Q}; when
    the field can solve its level sets those positions are added to the
    panel breaks so the kink never crosses a panel, and for a fractional q
    the panels beside it are graded toward it.
    """
    return oscillations(f, [cube], q, spec)[0]


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


def _tail_steps(
    f: ScalarField, cube: Cube, sig: np.ndarray, spec: QuadratureSpec, center: float | None
) -> Generator:
    c = (yield from _mean_steps(f, cube, spec)) if center is None else float(center)
    breaks = merge_breaks(f.breaks, level_set_breaks(f, c, sig))
    tails = yield _Quad(
        "tail profile", cube, breaks, 2 * spec.refinement_levels, spec.abs_tol,
        transform=lambda v: np.abs(v - c),
        reduction=_Tails(sig, gaussian_measure(cube)),
    )
    return DistributionProfile(
        field_id=f.id, cube=cube, sigmas=tuple(sig.tolist()), tails=tuple(tails.tolist())
    )


def tail_profiles(
    f: ScalarField,
    cubes: Sequence[Cube],
    sigmas: Sequence[float],
    spec: QuadratureSpec,
    *,
    center: float | None = None,
) -> list[DistributionProfile]:
    """``tail_profile`` of f on every cube, all cubes refined together.

    Each profile is bit for bit the one-cube ``tail_profile``; a failure is
    the one the cube-by-cube loop would raise first.
    """
    sig = np.asarray(sorted(float(s) for s in sigmas), dtype=np.float64)
    if sig.size == 0 or sig[0] < 0.0:
        raise ValueError("sigma grid must be nonempty and nonnegative")
    programs = [_tail_steps(f, cube, sig, spec, center) for cube in cubes]
    return _drive(f, programs, spec.nodes_per_axis)


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
    return tail_profiles(f, [cube], sigmas, spec, center=center)[0]


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
    suffix = np.cumsum(wg[order][::-1])[::-1]
    sv = av[order]
    del order  # one n-sized array fewer alive while the runs are found
    # the first index of each run of equal sorted values
    first = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    scores = sv[first] * np.maximum(suffix[first], 0.0) ** (1.0 / p)
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
    quad = _Quad(
        "weak norm", cube, merge_breaks(f.breaks), 2 * spec.refinement_levels, spec.abs_tol,
        transform=np.abs,
        reduction=_Weak(p, gaussian_measure(cube)),
        rel_tol=rel_tol,
    )
    return _drive(f, [_single(quad)], spec.nodes_per_axis)[0]


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


def _sum_sq(pts: np.ndarray) -> np.ndarray:
    """|x|^2 of each point, its squares added column by column from the left.

    The order of the additions does not depend on the memory layout, which
    that of ``np.sum(..., axis=-1)`` does from eight columns on.
    """
    out = pts[:, 0] * pts[:, 0]
    for k in range(1, pts.shape[1]):
        out += pts[:, k] * pts[:, k]
    return out


def _radius_sq_field(d: int) -> ScalarField:
    return ScalarField(
        "radius_sq",
        _sum_sq,
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
        r = np.sqrt(_sum_sq(pts))
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
        return np.exp(0.5 * _sum_sq(pts))

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
