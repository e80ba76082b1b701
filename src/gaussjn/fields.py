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
* ``level_breaks`` / ``radial`` / ``kink_radii`` -- the field's level sets
  as axis positions, or as spheres {|x| = r}, and the spheres where it kinks.

Integration is tensor-product Gauss-Legendre on dyadically refined panels
against the *normalized* Gauss measure of the cube: per-axis node weights
are divided by the exact one-dimensional Gauss measure of the axis
interval, so every reported quantity is an average and tolerances are
meaningful uniformly in the cube's location.  A level-L estimate is
accepted when it agrees with level L-1 within ``abs_tol`` (Richardson-style
acceptance; the largest difference for tail profiles, and within
``WEAK_REL_TOL`` of the value for weak norms); running out of levels raises
:class:`QuadratureError`.  Indicator integrands (distribution tails) use
the same hierarchy with twice the refinement budget and share one node set
across the whole sigma grid, which makes tail profiles monotone in sigma by
construction.  Averages and tail masses are summed with the deterministic
pairwise kernels; weak norms take exact suffix sums over the sorted node
values.

Panels are graded toward known kinks.  For a fractional r, |f - c|^r has
an endpoint singularity on the level set {f = c}, which ``level_breaks``
puts on panel edges where the field can solve it, and uniform refinement
converges there only like 2^(-(r+1)L).  Every power average with a
fractional r (oscillations at c = f_Q, norms at c = 0) therefore passes
those positions as ``kinks``: at level L >= 1 the end panel of a segment
that touches a kink is cut at 2^-j of its width from the kink, j = L..1,
into L + 1 panels that halve toward it (geometric grading, as in hp finite
elements), so the segment has order * (2^L + L) nodes per graded end.  All
other panels, and every rule without kinks, are the uniform ones bit for
bit.  Tails and weak norms are not graded: their breaks are jumps, with a
smooth integrand on each panel, and an integer r makes |f - c|^r a
polynomial in f on either side of the level set.

In d = 2 a level set or kink that is a circle crosses panels of either
axis, so a cube that one crosses gets an iterated rule instead (Saye's
dimension reduction; see ``_Table``): axis 0 is cut where the circles meet
the cube's axis-1 edges and breaks and at their tangent points, and each
axis-0 node carries its own axis-1 rule, cut at the roots
+-sqrt(r^2 - x0^2) and graded toward those of kinks as above.  Rows next
to a tangent point run in theta with x0 = c + s sin(theta), which makes the
square-root singularity of the inner length smooth.  Its node count is
exact per level, so the node cap, the shared rounds and block streaming
treat both rule shapes alike; cubes that no circle crosses keep the tensor
rule bit for bit.

One function, ``_drive``, runs every refinement, in one shape: many cubes
(centers (m, d), sides (m,)), one field for all of them or one field per
cube, and a list of phases, on one table of arrays per call; a single cube
is a table of one.  The functions of many cubes (``average_gammas``,
``oscillations``, ``tail_profiles``) take those two arrays, the one-cube
functions a ``Cube``; ``average_gammas`` also takes a field per cube, so
that one call serves, say, every piece of an atom cascade.  Each cube's
panels are cut at its own field's breaks and circles, and each distinct
field is evaluated once per batch, on the nodes of its own cubes (grouped
so that they are neighbours).  It knows four quadratures:
the mean of f, the centered power average of |f - c|^r, the tail masses and
the weak norm.  Each cube runs phases (for an oscillation, the centering average,
then the centered power average at that center; for ``power_average``, the
power average at a given center) as a row of arrays.  Its panels are rows of
a ``_Table``, cut for all cubes that enter a phase in a round.  Entering a
phase is the one place where level sets become panel breaks: those of all
the entering cubes are solved in one call per field, and the node counts
of all the phase's levels are counted at once; a cube with an axis of
vanishing Gauss measure has no rule at any level and fails at level 0.  A
round advances every pending cube one level: acceptance is one vectorized
step, rules are built in one pass per level, each field is evaluated once
on the stacked nodes of its cubes (the transpose of one (d, n) buffer, so
each coordinate is contiguous), and row-wise pairwise trees reduce each
cube bit for bit as a one-cube loop would, in a batch of one cube too.  One
size rule decides how a level is refined: a rule of at most ``BATCH_NODES``
nodes joins a shared batch, and a batch holds at most ``BATCH_NODES`` nodes.
A cube whose rule grows past that is set aside and, after the shared
rounds, refined alone in input order, each level streamed one aligned
block of ``kernels._BLOCK`` nodes at a time (tensor rules in reused
buffers): aligned blocks are whole subtrees of the pairwise tree, so the
sums are bit for bit those over the whole rule, in O(block) memory (plus
the axis rules, or the outer rows, and, for weak norms, two values per
node).  A failing cube stops the cubes after it, and the first failure in
input order is raised, as a loop over the cubes would.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import kernels
from .geometry import Cube, cube_arrays, cube_corners, gaussian_measure, gaussian_measures

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
        Optional solver for the level sets {|f| = c}: it maps an array of n
        levels c to axis -> (n, k) arrays of break positions, NaN (or any
        non-finite value) where a level has no solution.  Used to keep
        truncated fields and the kinks of |f - c|^q panel-aligned.
    radial:
        Optional solver for radial level sets: it maps an array of n levels v
        to an (n, k) array of radii r such that {|f| = v} lies on the spheres
        {|x| = r}, NaN (or any non-finite value) where there is none.  In
        d = 2 the rows of a cube's rule are cut where those circles cross
        them (see ``_Table``).
    kink_radii:
        Radii of the spheres on which f itself is not smooth, cut in d = 2
        like the radial level sets.
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
        level_breaks: Callable[[np.ndarray], Mapping[int, np.ndarray]] | None = None,
        radial: Callable[[np.ndarray], np.ndarray] | None = None,
        kink_radii: Iterable[float] = (),
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
        self.radial = radial
        self.kink_radii = tuple(sorted(float(r) for r in kink_radii))

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
    """f - c (breaks unchanged).

    Its level sets come from f's: {|f - c| = v} lies in {|f| = |c + v|} and
    {|f| = |c - v|}, solved side by side in one row per level.
    """
    c = float(c)
    solve, radii = f.level_breaks, f.radial

    def both(v: np.ndarray) -> np.ndarray:
        return np.abs(np.stack((c + v, c - v), axis=1)).ravel()

    def level_breaks(v: np.ndarray) -> dict[int, np.ndarray]:
        return {ax: b.reshape(v.size, -1) for ax, b in solve(both(v)).items()}

    return ScalarField(
        f"{f.id}|minus:{c!r}",
        lambda pts: f(pts) - c,
        dim=f.dim,
        breaks=f.breaks,
        description=f"{f.id} shifted by {-c}",
        singular_set=f.singular_set,
        level_breaks=None if solve is None else level_breaks,
        radial=None if radii is None else (lambda v: radii(both(v)).reshape(v.size, -1)),
        kink_radii=f.kink_radii,
    )


def restrict_field(f: ScalarField, cube: Cube) -> ScalarField:
    """f * chi_Q: zero outside the open cube; cube faces become breaks, level sets are f's.

    Where every point is inside, f is evaluated on the points as they come
    (fields do not depend on the layout, so the values are the same).
    """
    face_breaks = {ax: (cube.lo[ax], cube.hi[ax]) for ax in range(cube.dim)}
    lo = cube.lo_array()
    hi = cube.hi_array()

    def fn(pts: np.ndarray) -> np.ndarray:
        inside = pts[:, 0] > lo[0]
        inside &= pts[:, 0] < hi[0]
        for ax in range(1, pts.shape[1]):
            inside &= pts[:, ax] > lo[ax]
            inside &= pts[:, ax] < hi[ax]
        if np.count_nonzero(inside) == inside.size:
            return f(pts)
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
        level_breaks=f.level_breaks,
        radial=f.radial,
        kink_radii=f.kink_radii,
    )


def product_field(f1: ScalarField, f2: ScalarField) -> ScalarField:
    """Pointwise product; breaks and kink radii are merged so panels respect both factors."""
    if f1.dim is not None and f2.dim is not None and f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    return ScalarField(
        f"({f1.id})*({f2.id})",
        lambda pts: f1(pts) * f2(pts),
        dim=f1.dim if f1.dim is not None else f2.dim,
        breaks=merge_breaks(f1.breaks, f2.breaks),
        description=f"product of {f1.id} and {f2.id}",
        singular_set=f1.singular_set or f2.singular_set,
        kink_radii=set(f1.kink_radii + f2.kink_radii),
    )


def truncate(f: ScalarField, level: float) -> ScalarField:
    """Two-sided truncation f_N = max(-N, min(N, f)).

    When the field knows its level sets (``level_breaks``) the truncation
    hyperplanes are added to the break set so panels stay aligned; when it
    knows them as spheres (``radial``) the truncation radius joins its kink
    radii.  The level sets of f_N below N are f's, so ``radial`` passes on.
    """
    n = float(level)
    if not n > 0.0:
        raise ValueError("truncation level must be positive")
    cut = () if f.radial is None else level_set_radii(f, n, np.zeros(1))[0].tolist()
    return ScalarField(
        f"{f.id}|trunc:{n!r}",
        lambda pts: np.clip(f(pts), -n, n),
        dim=f.dim,
        breaks=merge_breaks(f.breaks, level_set_breaks(f, n, np.zeros(1))),
        description=f"{f.id} truncated at {n}",
        singular_set=f.singular_set,
        growth=(n, 0.0),
        radial=f.radial,
        kink_radii={*f.kink_radii, *(r for r in cut if r == r)},
    )


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

#: Most tensor nodes one batched field evaluation holds, and so the largest
#: rule that joins one.  Larger levels are refined one cube at a time, in
#: input order: they hold most of the cost, so a cube that fails there
#: spares every cube after it that work, as a one-cube loop would, and large
#: integrals keep that loop's memory.
BATCH_NODES = 1 << 15


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


class _Table:
    """The panel rows of a call's cubes (centers (m, d), sides (m,)): each cube's axis
    intervals split at its breaks.

    ``totals`` (m, d) are the axis measures, ``gq`` their products and
    ``empty`` marks the cubes with an axis of measure 0 (None: no cube has one).
    ``cut`` appends rows, cube by cube and axis by axis, to ``data``: segment
    (a, b), axis total, pattern (left + 2 * right for the graded kink ends).
    ``first``/``rows`` locate its rows, ``counts``/``graded`` its segments and graded ends.

    A d = 2 cube that a circle {|x| = r} of the cut crosses gets an iterated
    rule instead of the tensor rule (``orows`` > 0): outer rows on axis 0,
    appended to ``outer``, and for each node x0 of a row the axis-1 segment
    cut at the row's ``edges``: fixed positions, or roots s sqrt(r^2 - x0^2).
    Axis 0 is cut where a circle meets the cube's axis-1 edges and breaks,
    so each row's edges keep their order, and at the tangent points +-r (see
    ``_tangent_maps``).  An outer row holds (a, b), axis-0 total, pattern,
    axis-1 interval (lo, hi) and total, its first edge, edge count, graded
    inner ends and (theta_a, theta_b, c, s) of its map; an edge holds
    (radius, value, kink), the radius NaN for a fixed position ``value`` and
    ``value`` the sign of a root.
    The nodes run through the outer nodes, each followed by its inner nodes,
    with weights w0 * w1: where no circle crosses, the tensor rule's order
    and products.
    """

    def __init__(self, centers: np.ndarray, sides: np.ndarray) -> None:
        self.centers, self.sides = centers, sides
        self.lo, self.hi = cube_corners(centers, sides)
        self.totals, self.gq = gaussian_measures(centers, sides)
        empty = self.totals <= 0.0
        self.empty = empty.any(axis=1) if np.count_nonzero(empty) else None
        self.data = np.empty((0, 4))
        self.first, self.rows = np.zeros((2, len(sides)), dtype=np.int64)
        self.segments = np.zeros((len(sides), 2, self.lo.shape[1]), dtype=np.int64)
        self.counts, self.graded = self.segments[:, 0], self.segments[:, 1]
        self.outer, self.edges = np.empty((0, 14)), np.empty((0, 3))
        self.ofirst, self.orows = np.zeros((2, len(sides)), dtype=np.int64)
        self.curved = False

    def cut(
        self, idx: np.ndarray | slice, breaks: Sequence[Mapping], kinks: Mapping | None = None,
        radii: Sequence = (), round_kinks: np.ndarray | None = None,
    ):
        """New rows for the cubes ``idx`` (an index array or slice), split at the ``breaks``.

        Each mapping, and ``kinks``, gives an axis positions shared by all
        cubes or a NaN-padded (len(idx), k) array of them.  Segment edges are
        the break values, so an end lies on a kink (also a break) by equality.
        In d = 2 the ``radii`` (each shared or per cube, as the positions) are
        circles; the inner panels beside those in ``round_kinks`` are graded.
        """
        lo, hi = self.lo[idx], self.hi[idx]
        k, d = lo.shape
        e = _lines(k, d, breaks, lo, hi)
        rows = np.empty((k * d, e.shape[1] - 1, 4))
        rows[:, :, 0], rows[:, :, 1], rows[:, :, 3] = e[:, :-1], e[:, 1:], 0.0
        rows[:, :, 2] = self.totals[idx].reshape(-1, 1)
        segments = np.zeros((k, 2, d), dtype=np.int64)
        valid = True if e.shape[1] == 2 else e[:, 1:] == e[:, 1:]
        segments[:, 0] = valid.sum(axis=1).reshape(k, d) if e.shape[1] > 2 else 1
        if kinks:
            a, b, kk = rows[:, :, 0], rows[:, :, 1], _lines(k, d, [kinks])[:, None, :]
            left = valid & (a > e[:, :1]) & (a[:, :, None] == kk).any(axis=2)
            right = valid & (b < hi.reshape(-1, 1)) & (b[:, :, None] == kk).any(axis=2)
            rows[:, :, 3] = left + 2 * right
            segments[:, 1] = (left.sum(axis=1) + right.sum(axis=1)).reshape(k, d)
        self.segments[idx] = segments
        self.rows[idx] = count = segments[:, 0].sum(axis=1)
        self.first[idx] = len(self.data) + count.cumsum() - count
        rows = rows.reshape(-1, 4) if e.shape[1] == 2 else rows[valid]
        self.data = np.concatenate((self.data, rows)) if len(self.data) else rows
        if self.curved:
            self.orows[idx] = 0
        if radii and d == 2:
            self._curve(np.arange(len(self.sides))[idx], e, radii, round_kinks, kinks)

    def _curve(self, ids: np.ndarray, e: np.ndarray, radii: Sequence, round_kinks, kinks) -> None:
        """Iterated rules for the cubes ``ids`` that a circle of ``radii`` crosses.

        ``e`` holds the cubes' tensor segment edges, two lines per cube.
        """
        k = ids.size
        lo, hi = self.lo[ids], self.hi[ids]
        r = _lines(k, 1, [{0: x} for x in radii])
        # a circle crosses the open cube when r lies strictly between the
        # distances of its nearest and farthest points from the origin
        near, far = np.clip(0.0, lo, hi), np.maximum(np.abs(lo), np.abs(hi))
        rr = r * r
        meets = (rr > _sum_sq(near)[:, None]) & (rr < _sum_sq(far)[:, None])
        sel = np.flatnonzero(meets.any(axis=1))
        if not sel.size:
            return
        self.curved = True
        r = _ascending(np.where(meets, r, np.nan)[sel])
        graded = np.zeros(r.shape, dtype=bool)
        if round_kinks is not None:
            graded = (r[:, :, None] == _lines(k, 1, [{0: round_kinks}])[sel, None, :]).any(axis=2)
        lo, hi, e0, e1 = lo[sel], hi[sel], e[2 * sel, 1:], e[2 * sel + 1]
        kk = _lines(k, 2, [kinks]) if kinks else np.full((2 * k, 0), np.nan)
        k0, k1 = kk[2 * sel], kk[2 * sel + 1]
        # axis 0: the cube's breaks, the circles' crossings of the axis-1
        # edges and breaks, the tangent points (graded for graded circles)
        with np.errstate(invalid="ignore"):
            x = np.sqrt((r * r)[:, :, None] - e1[:, None, :] ** 2).reshape(len(sel), -1)
        t = np.where(((lo[:, 1] < 0.0) & (hi[:, 1] > 0.0))[:, None], r, np.nan)
        pos = np.concatenate((e0, x, -x, t, -t), axis=1)
        crossing = np.zeros(x.shape, dtype=bool)
        flag = np.concatenate(
            ((e0[:, :, None] == k0[:, None, :]).any(axis=2), crossing, crossing, graded, graded),
            axis=1,
        )
        edges0, flags0, n0 = _edge_rows(pos, flag, lo[:, 0], hi[:, 0])
        segs = n0 + 1
        keep = np.arange(edges0.shape[1] - 1) < segs[:, None]
        owner = np.repeat(np.arange(len(sel)), segs)
        a, b = edges0[:, :-1][keep], edges0[:, 1:][keep]
        pattern = flags0[:, :-1][keep] + 2 * flags0[:, 1:][keep]
        theta = _tangent_maps(a, b, r[owner])
        # the inner edges of each row, in their order at its midpoint
        mid = 0.5 * (a + b)
        ilo, ihi = lo[owner, 1], hi[owner, 1]
        fixed = e1[owner, 1:]
        fixed = np.where((fixed > ilo[:, None]) & (fixed < ihi[:, None]), fixed, np.nan)
        fixed_kink = (fixed[:, :, None] == k1[owner, None, :]).any(axis=2)
        ro = r[owner]
        with np.errstate(invalid="ignore"):
            root = np.sqrt(ro * ro - (mid * mid)[:, None])
        at = np.concatenate((fixed, root, -root), axis=1)
        at[~((at > ilo[:, None]) & (at < ihi[:, None]))] = np.nan
        radius = np.concatenate((np.full(fixed.shape, np.nan), ro, ro), axis=1)
        value = np.concatenate((fixed, np.ones(ro.shape), -np.ones(ro.shape)), axis=1)
        kink = np.concatenate((fixed_kink, graded[owner], graded[owner]), axis=1)
        order = np.argsort(at, axis=1, kind="stable")
        count = np.count_nonzero(at == at, axis=1)
        inside = np.arange(at.shape[1]) < count[:, None]
        kink = np.take_along_axis(kink, order, axis=1) & inside
        cols = [np.take_along_axis(col, order, axis=1)[inside] for col in (radius, value)]
        edges = np.stack((*cols, kink[inside]), axis=1)
        totals = self.totals[ids[sel]][owner]
        first = len(self.edges) + count.cumsum() - count
        graded_ends = 2 * np.count_nonzero(kink, axis=1)
        rows = np.concatenate((np.stack(
            (a, b, totals[:, 0], pattern, ilo, ihi, totals[:, 1], first, count, graded_ends), axis=1
        ), theta), axis=1)
        self.outer = np.concatenate((self.outer, rows))
        self.edges = np.concatenate((self.edges, edges))
        self.orows[ids[sel]] = segs
        self.ofirst[ids[sel]] = len(self.outer) - len(rows) + segs.cumsum() - segs

    def outer_rows(self, ids: np.ndarray) -> np.ndarray:
        """The outer rows of the curved cubes ``ids``, in that order."""
        rows = self.orows[ids]
        ends = rows.cumsum()
        return self.outer[np.arange(ends[-1]) + (self.ofirst[ids] - ends + rows).repeat(rows)]

    def nodes(self, idx: np.ndarray | slice, top: int, order: int) -> np.ndarray:
        """Nodes (k, top + 1) of each cube's rule at levels 0..top, as floats exact to 2^53."""
        nodes = self.axis_nodes(idx, top, order).prod(axis=2)
        if self.curved:
            ids = np.arange(len(self.sides))[idx]
            curved = self.orows[ids] > 0
            if np.count_nonzero(curved):
                rows = self.outer_rows(ids[curved])
                lv = np.arange(top + 1.0)
                per = _inner_nodes(rows, lv, order) * order
                per *= np.exp2(lv) + lv * (rows[:, 3:4] % 2 + (rows[:, 3:4] > 1))
                starts = np.cumsum(self.orows[ids[curved]]) - self.orows[ids[curved]]
                nodes[curved] = np.add.reduceat(per, starts, axis=0)
        return nodes

    def axis_nodes(self, idx: np.ndarray | slice, top: int, order: int) -> np.ndarray:
        """Nodes (k, top + 1, d) per axis rule at levels 0..top, as floats exact to 2^53."""
        lv, segments = np.arange(top + 1.0)[:, None], self.segments[idx]
        nodes = segments[:, :1] * np.exp2(lv) + lv * segments[:, 1:]
        nodes *= order
        return nodes

    def sizes(self, idx: np.ndarray | slice, top: int, order: int) -> np.ndarray:
        """Tensor nodes (k, top + 1) at levels 0..top, -1 where ``why`` has the reason."""
        sizes = self.nodes(idx, top, order)
        bad = sizes > MAX_TENSOR_NODES
        if self.empty is not None:
            bad |= self.empty[idx][:, None]
        sizes[bad] = -1.0
        return sizes.astype(np.int64)

    def name(self, i: int) -> str:
        """Cube i as error messages name it, as ``Cube.center`` and ``Cube.side`` print."""
        return f"cube center {tuple(self.centers[i].tolist())} side {float(self.sides[i])}"

    def why(self, i: int, level: int, order: int) -> str:
        bad = self.totals[i] <= 0.0
        ax = int(bad.argmax()) if bad.any() else -1
        if self.orows[i]:
            n = int(self.nodes(np.array([i]), level, order)[0, level])
        else:
            n = math.prod(int(x) for x in self.axis_nodes(np.array([i]), level, order)[0, level])
        ends = f"({float(self.lo[i, ax])}, {float(self.hi[i, ax])})"
        why = f"has axis {ax} interval {ends} of vanishing Gauss measure"
        why = why if ax >= 0 else f"would need {n} tensor nodes (cap {MAX_TENSOR_NODES})"
        return f"refinement level {level} {why} on {self.name(i)}"

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """The current rows (r, 4) of the cubes ``idx``, in that order."""
        rows = self.rows[idx]
        if rows.size == 1:
            return self.data[self.first[idx[0]] :][: rows[0]]
        ends = rows.cumsum()
        return self.data[np.arange(ends[-1]) + (self.first[idx] - ends + rows).repeat(rows)]

    def rules(
        self, idx: np.ndarray, levels: np.ndarray, sizes: np.ndarray, order: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked tensor rules (points, weights) of the cubes ``idx`` with ``sizes`` nodes.

        Each cube's nodes form one run; the axis rules of each run of equal
        levels are built in one pass.  For d >= 2 the points are the
        transpose of one (d, n) buffer, so each coordinate is contiguous.
        """
        bounds = [0, *sizes.cumsum().tolist()]
        d = self.lo.shape[1]
        cols, w_all = np.empty((d, bounds[-1])), np.empty(bounds[-1])
        for s, e in _runs(levels):
            level, flat = int(levels[s]), np.arange(s, e)
            if self.curved and np.count_nonzero(curved := self.orows[idx[s:e]] > 0):
                # the iterated rules of the run's curved cubes, end to end
                at, flat = 0, flat[~curved]
                x0, x1, w = self._iterated(self.outer_rows(idx[s:e][curved]), level, order)
                for k in (np.flatnonzero(curved) + s).tolist():
                    span, n = slice(bounds[k], bounds[k + 1]), bounds[k + 1] - bounds[k]
                    cols[0, span], cols[1, span] = x0[at : at + n], x1[at : at + n]
                    w_all[span] = w[at : at + n]
                    at += n
                if not flat.size:
                    continue
            x, w, starts = _axis_rows(self.gather(idx[flat]), level, order)
            if d == 1:
                cols[0, bounds[s] : bounds[e]], w_all[bounds[s] : bounds[e]] = x, w
                continue
            row = 0
            for k, counts in zip(flat.tolist(), self.counts[idx[flat]].tolist()):
                axis_x, axis_w = [], []
                for c in counts:
                    axis_x.append(x[starts[row] : starts[row + c]])
                    axis_w.append(w[starts[row] : starts[row + c]])
                    row += c
                span = slice(bounds[k], bounds[k + 1])
                _tensor(axis_x, axis_w, cols[:, span], w_all[span])
        return cols.T, w_all

    def blocks(self, i: int, level: int, order: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Cube i's rule at one level, as the (points, weights) of its blocks.

        Block j holds nodes [j B, (j+1) B) of the C-order rule, B =
        ``kernels._BLOCK``, bit for bit those of ``rules``.  Only the axis
        rules are built whole: a block writes the axis-0 rows it touches into
        buffers reused from block to block (and, through ``_spare``, from
        level to level), valid until the next block.
        """
        if self.orows[i]:
            yield from self._iterated_blocks(i, level, order)
            return
        x, w, starts = _axis_rows(self.gather(np.array([i])), level, order)
        bounds = [starts[row] for row in np.cumsum([0, *self.counts[i].tolist()]).tolist()]
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

    def _iterated(
        self, rows: np.ndarray, level: int, order: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Axis-0 and axis-1 coordinates and weights of the iterated rules of the outer rows."""
        x0, w0, row = _outer_nodes(rows, level, order)
        x1, w1, count = self._inner(rows, row, x0, level, order)
        w1 *= np.repeat(w0, count)
        return np.repeat(x0, count), x1, w1

    def _iterated_blocks(
        self, i: int, level: int, order: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``blocks`` of a curved cube: each builds the inner rules of the outer nodes it meets."""
        rows = self.outer_rows(np.array([i]))
        x0, w0, row = _outer_nodes(rows, level, order)
        count = _inner_nodes(rows, np.array([float(level)]), order)[row, 0].astype(np.int64)
        ends = count.cumsum()
        n, step = int(ends[-1]), kernels._BLOCK
        for s in range(0, n, step):
            e = min(s + step, n)
            r0, r1 = int(ends.searchsorted(s, "right")), int(ends.searchsorted(e - 1, "right")) + 1
            x1, w1, c = self._inner(rows, row[r0:r1], x0[r0:r1], level, order)
            w1 *= np.repeat(w0[r0:r1], c)
            cols = np.empty((2, x1.size))
            cols[0], cols[1] = np.repeat(x0[r0:r1], c), x1
            a = s - int(ends[r0] - count[r0])
            yield cols[:, a : a + e - s].T, w1[a : a + e - s]

    def _inner(
        self, rows: np.ndarray, row: np.ndarray, x0: np.ndarray, level: int, order: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The axis-1 rules of outer nodes x0 (of the outer ``rows`` ``row``), end to end.

        Returns the nodes, the weights and the node count of each outer node.
        A root edge at x0 is clipped to the axis-1 interval.
        """
        r = rows[row]
        count = r[:, 8].astype(np.int64)
        # the edges of node j, lo, its row's edges at x0[j] and hi, start at start[j]
        width = count + 2
        start = width.cumsum() - width
        pos, kink = np.empty(int(width.sum())), np.zeros(int(width.sum()), dtype=np.int64)
        pos[start], pos[start + count + 1] = r[:, 4], r[:, 5]
        if (total := int(count.sum())):
            node = np.repeat(np.arange(len(row)), count)
            j = np.arange(total) - np.repeat(count.cumsum() - count, count)
            radius, value, graded = self.edges[r[node, 7].astype(np.int64) + j].T
            with np.errstate(invalid="ignore"):
                root = value * np.sqrt(np.maximum(radius * radius - x0[node] * x0[node], 0.0))
            at = start[node] + 1 + j
            pos[at] = np.clip(np.where(radius == radius, root, value), r[node, 4], r[node, 5])
            kink[at] = graded
        segs = count + 1
        a = np.arange(int(segs.sum())) + np.repeat(start - segs.cumsum() + segs, segs)
        inner = np.empty((a.size, 4))
        inner[:, 0], inner[:, 1], inner[:, 2] = pos[a], pos[a + 1], np.repeat(r[:, 6], segs)
        inner[:, 3] = kink[a] + 2 * kink[a + 1]
        x1, w1, starts = _axis_rows(inner, level, order)
        return x1, w1, np.diff(np.array(starts)[np.concatenate(([0], segs.cumsum()))])


def _outer_nodes(rows: np.ndarray, level: int, order: int) -> tuple[np.ndarray, ...]:
    """Axis-0 nodes and weights of outer rows, and the row of each node."""
    x0, w0, starts = _axis_rows(rows[:, [10, 11, 2, 3]], level, order, rows[:, 12:])
    return x0, w0, np.repeat(np.arange(len(rows)), np.diff(starts))


def _tangent_maps(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(theta_a, theta_b, c, s) of outer rows [a, b] with the radii r (rows, k) NaN-padded.

    Left of a tangent point +r (right of -r) the inner length sqrt(r^2 - x^2)
    has a square-root singularity, which x = c + s sin(theta) with the
    tangent point at theta = +-pi/2 makes smooth.  A row maps toward the
    nearest such point on or beyond each end, within its own width; s = 0
    leaves it as it is, theta the row itself.
    """
    a_, b_, span = a[:, None], b[:, None], (b - a)[:, None]
    right = np.fmin.reduce(np.where((r >= b_) & (r - b_ < span), r, np.nan), axis=1)
    left = np.fmax.reduce(np.where((-r <= a_) & (a_ + r < span), -r, np.nan), axis=1)
    on_r, on_l = right == right, left == left
    c = np.where(on_l & on_r, 0.5 * (left + right), np.where(on_r, a, np.where(on_l, b, 0.0)))
    scale = np.where(on_r, right, b) - np.where(on_l, left, a)
    scale = np.where(on_l & on_r, 0.5 * scale, np.where(on_l | on_r, scale, 0.0))
    out = np.stack((a, b, c, scale), axis=1)
    on = scale > 0.0
    out[on, 0] = np.arcsin(np.clip((a[on] - c[on]) / scale[on], -1.0, 1.0))
    out[on, 1] = np.arcsin(np.clip((b[on] - c[on]) / scale[on], -1.0, 1.0))
    return out


def _inner_nodes(rows: np.ndarray, lv: np.ndarray, order: int) -> np.ndarray:
    """Inner nodes (rows, levels) per outer node of the outer ``rows`` at the levels ``lv``."""
    return order * ((rows[:, 8:9] + 1.0) * np.exp2(lv) + lv * rows[:, 9:10])


def _edge_rows(
    pos: np.ndarray, flag: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment edges of rows with cut positions ``pos``: lo, the distinct positions strictly
    between lo and hi ascending, hi, NaN-padded; a cut is flagged when any of its copies is.

    Returns the edges, their flags (never at lo or hi) and the cut count of each row.
    """
    pos = np.where((pos > lo[:, None]) & (pos < hi[:, None]), pos, np.nan)
    # flagged copies first, so the first of equal positions carries the flag
    for key in (~flag, pos):
        order = np.argsort(key, axis=1, kind="stable")
        pos, flag = np.take_along_axis(pos, order, axis=1), np.take_along_axis(flag, order, axis=1)
    same = pos[:, 1:] == pos[:, :-1]
    pos[:, 1:][same], flag[:, 1:][same] = np.nan, False
    order = np.argsort(pos, axis=1, kind="stable")
    pos, flag = np.take_along_axis(pos, order, axis=1), np.take_along_axis(flag, order, axis=1)
    count = np.count_nonzero(pos == pos, axis=1)
    edges = np.full((len(pos), pos.shape[1] + 2), np.nan)
    edges[:, 1:-1], edges[:, 0] = pos, lo
    edges[np.arange(len(pos)), count + 1] = hi
    flags = np.zeros(edges.shape, dtype=bool)
    flags[:, 1:-1] = flag & (pos == pos)
    return edges, flags, count


def _lines(
    k: int, d: int, mappings: Sequence[Mapping], lo: np.ndarray | None = None,
    hi: np.ndarray | None = None,
) -> np.ndarray:
    """The positions the mappings give k cubes on d axes, one NaN-padded line per cube and axis.

    Given the corners lo and hi (k, d), a line holds segment edges: lo, the
    positions strictly between lo and hi, ascending and distinct, and hi.
    """
    # positions shared by all cubes are a sequence, per-cube ones a (k, j) array
    widths = [
        {ax: v.shape[-1] if isinstance(v, np.ndarray) else len(v) for ax, v in mp.items() if ax < d}
        for mp in mappings
    ]
    pad = int(lo is not None)
    out = np.full((k, d, sum(max(w.values(), default=0) for w in widths) + 2 * pad), np.nan)
    fill = [pad] * d
    for mp, w in zip(mappings, widths):
        for ax, j in w.items():
            out[:, ax, fill[ax] : fill[ax] + j] = mp[ax]
            fill[ax] += j
    if pad:
        out[:, :, 0], out[:, :, -1] = lo, hi
    out = out.reshape(k * d, -1)
    if not pad or out.shape[1] == 2:
        return out
    cuts = out[:, 1:-1]
    outside = ~((cuts > out[:, :1]) & (cuts < out[:, -1:]))
    if np.count_nonzero(outside) == outside.size:
        return out[:, :: out.shape[1] - 1]
    cuts[outside] = np.nan
    _ascending(out[:, 1:])
    return out


def _runs(*keys: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of neighbouring positions equal in every key."""
    if keys[0].size < 2:
        return [(0, keys[0].size)]
    change = keys[0][1:] != keys[0][:-1]
    for key in keys[1:]:
        change |= key[1:] != key[:-1]
    bounds = [0, *(change.nonzero()[0] + 1).tolist(), keys[0].size]
    return list(zip(bounds[:-1], bounds[1:]))


@lru_cache(maxsize=64)
def _grading(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The panels of a segment at one level, for each pattern of graded ends.

    Pattern g = left + 2 * right says which ends lie on a kink.  Panel k of
    the 2^level uniform panels spans [a + k h, a + (k+1) h]; a graded end
    panel is cut at 2^-j of its width from the kink, j = level..1, into
    level + 1 panels that halve toward it.  Returns the panels of patterns
    0-3 end to end -- per panel, whether it is measured from b instead of
    a (1) or not (0), the offset of its left edge and its width, in units of
    h -- and the index of each pattern's first panel, with the panel count last.
    At level 0 nothing is graded and only pattern 0, the one uniform
    panel, is used.
    """
    # 0, 2^-level, ..., 1/2, 1: the cuts of a left end panel
    cuts = np.concatenate(([0.0], 2.0 ** -np.arange(level, -1, -1)))
    parts = []
    for left, right in ((0, 0), (1, 0), (0, 1), (1, 1)):
        k = np.arange(left, (1 << level) - right, dtype=np.float64)
        parts.append((np.zeros(k.size, dtype=np.int64), k, np.ones(k.size)))
        if left:
            parts.insert(-1, (np.zeros(level + 1, dtype=np.int64), cuts[:-1], np.diff(cuts)))
        if right:
            parts.append((np.ones(level + 1, dtype=np.int64), -cuts[:0:-1], np.diff(cuts)[::-1]))
    from_b, off, size = (np.concatenate(col) for col in zip(*parts))
    panels = (1 << level) + level * np.array([0, 1, 1, 2])
    return from_b, off, size, np.concatenate(([0], np.cumsum(panels)))


def _axis_rows(
    rows: np.ndarray, level: int, order: int, maps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, Sequence[int]]:
    """The axis rules of the ``_Table`` rows (a, b, total, pattern) at one level, end to end.

    Returns the nodes, the weights and each row's first node, the count
    last.  All panels come in one pass from the ``_grading`` templates
    (pattern 0 at level 0); weights are gamma weights over sqrt(pi) and the
    row's ``total``.  A uniform panel k of width h has midpoint (a + k h) +
    h / 2, bit for bit that of uniform dyadic panels.  A row whose ``maps``
    entry (c, s) has s != 0 is a rule in theta on [a, b] for x = c + s sin(theta).
    """
    from_b, off, size, start = _grading(level)
    pattern = rows[:, 3].astype(np.int64) if level else np.zeros(len(rows), dtype=np.int64)
    first = start[pattern]
    panels = start[pattern + 1] - first
    row = np.repeat(np.arange(len(rows)), panels)
    ends = np.cumsum(panels)
    # panel j of a row is entry first + j of the templates
    tpl = np.arange(ends[-1]) - np.repeat(ends - panels - first, panels)
    gx, gw = _leggauss(order)
    width = ((rows[:, 1] - rows[:, 0]) / (1 << level))[row]
    lo = rows[row, from_b[tpl]] + width * off[tpl]
    half = 0.5 * (width * size[tpl])
    mids = lo + half
    # mids + half gx and half gw exp(-x^2) / sqrt(pi) / total, in place:
    # large runs spend half their time allocating temporaries otherwise
    x = half[:, None] * gx
    x += mids[:, None]
    w = half[:, None] * gw
    if maps is not None and np.count_nonzero(on := maps[row, 1] != 0.0):
        theta, (c, scale) = x[on], maps[row[on]].T[:, :, None]
        x[on] = c + scale * np.sin(theta)
        w[on] *= scale * np.cos(theta)
    e = x * x
    np.negative(e, out=e)
    np.exp(e, out=e)
    w *= e
    w /= _SQRT_PI
    w /= rows[row, 2][:, None]
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


#: Node and weight buffers that the last finished streamed level left, per
#: thread.  Fresh buffers of a block's size come from the operating system
#: page by page, at every level; a level takes the spare when it fits and
#: gives its buffers back when it ends, so a quadrature started from inside
#: a field evaluation allocates its own.
_spare = threading.local()


def tensor_rule(
    cube: Cube, breaks: Mapping[int, Sequence[float]], level: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """All tensor nodes (n, d) and normalized weights (n,) for the cube.

    The nodes run through the multi-indices in C order, axis 0 slowest; the
    array is column-major.
    """
    table, idx = _Table(*cube_arrays([cube])), np.zeros(1, dtype=np.int64)
    table.cut(idx, [breaks])
    sizes = table.sizes(idx, level, order)[:, level]
    if sizes[0] < 0:
        raise QuadratureError(table.why(0, level, order))
    return table.rules(idx, np.array([level]), sizes, order)


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


class _Phase(NamedTuple):
    """One quadrature of every cube of a call, refined by ``_drive`` through levels 0..``top``.

    A level is accepted within max(``tol``, ``rel_tol`` * |estimate|) of the
    one before (the largest entry for tails).  It reduces the field values v
    to the gamma average of v or |v - c|^``q``, the tails gamma({|v - c| >
    sigma}) of ``sigmas`` or the weak norm of |v| for ``p`` (c: the cube's
    center).  Panels are cut at the field's breaks and {|f - c| = sigma} for
    the ``level_sets``, graded toward the latter with ``kinks``.
    """

    what: str
    top: int
    tol: float
    q: float | None = None
    sigmas: np.ndarray | None = None
    p: float | None = None
    rel_tol: float = 0.0
    level_sets: np.ndarray | None = None
    kinks: bool = False


def _mean(spec: QuadratureSpec) -> _Phase:
    return _Phase("average", spec.refinement_levels, spec.abs_tol)


def _power(spec: QuadratureSpec, r: float) -> _Phase:
    """The average of |v - c|^r, cut at {f = c} and graded toward it for a fractional r."""
    # |v|^r is a polynomial on either side of v = 0 for integer r; for any
    # other r the zero set is an endpoint singularity of each panel beside it
    graded = not float(r).is_integer()
    return _Phase(
        "average", spec.refinement_levels, spec.abs_tol, q=r, level_sets=np.zeros(1), kinks=graded
    )


def _estimate(
    phase: _Phase, c: float, gq: float, blocks: Iterable[tuple[np.ndarray, np.ndarray]], n: int
) -> object:
    """One cube's estimate from the field values and weights of its n nodes.

    Used for streamed levels and for the tail and weak-norm requests of a
    shared evaluation (``_batch_estimates`` reduces the means).  ``blocks``
    hands the values out in node order, in aligned pieces of
    ``kernels._BLOCK`` nodes.  The pieces' sums are added with the same
    pairwise tree; aligned blocks are subtrees of that tree, so the
    estimate is bit for bit that of reducing all n nodes at once.
    """
    heads, start = [], 0
    if phase.p is not None:
        av, wg = np.empty(n), np.empty(n)
    for vals, w in blocks:
        if phase.sigmas is not None:
            heads.append(kernels.tail_sums(np.abs(vals - c), w * gq, phase.sigmas))
        elif phase.p is not None:
            stop = start + w.size
            np.abs(vals, out=av[start:stop])
            np.multiply(w, gq, out=wg[start:stop])
            start = stop
        else:
            if phase.q is not None:
                vals = np.abs(vals - c) ** phase.q
            heads.append(_mean_sums(vals, w, 1))
    if phase.p is not None:
        return _node_measure_weak_sup(av, wg, phase.p)
    sums = heads[0] if len(heads) == 1 else kernels.pairwise_sum_rows(np.array(heads).T)
    return sums if phase.sigmas is not None else float(sums[0]) / float(sums[1])


def _mean_sums(v: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """The sums of v w and then of w over each of k equal runs of the nodes, (2 k,).

    One pairwise tree reduces both sets of rows, each row bit for bit its
    one-run ``kernels.pairwise_sum``.
    """
    rows = np.empty((2 * k, w.size // k))
    np.multiply(v, w, out=rows[:k].reshape(-1))
    rows[k:] = w.reshape(k, -1)
    return kernels.pairwise_sum_rows(rows)


def _batch_estimates(
    phases: Sequence[_Phase], ph: np.ndarray, idx: np.ndarray, center: np.ndarray,
    gq: np.ndarray, vals: np.ndarray, w: np.ndarray, sizes: np.ndarray, width: int,
) -> np.ndarray:
    """Estimates (k, width) of k requests (phases ``ph``, cubes ``idx``) from one evaluation.

    Plain and centered means are reduced over runs of neighbouring requests
    of one exponent and one node count: the powers of the run, then row-wise
    pairwise trees, adding in the order of the one-cube sums; other requests
    alone.  Row k holds a tail profile, or one value in every entry.
    """
    bounds = [0, *sizes.cumsum().tolist()]
    kinds = [(p.sigmas is None and p.p is None, p.q or 0.0) for p in phases]
    pooled, q = (np.array(col)[ph] for col in zip(*kinds))
    out = np.empty((sizes.size, width))
    for s, e in _runs(q, sizes, pooled):
        span = slice(bounds[s], bounds[e])
        if not pooled[s]:
            for k in range(s, e):
                part, i = slice(bounds[k], bounds[k + 1]), idx[k]
                blocks = [(vals[part], w[part])]
                out[k] = _estimate(phases[ph[k]], center[i], gq[i], blocks, sizes[k])
            continue
        v = vals[span]
        if q[s]:
            v = np.abs(v - center[idx[s:e]].repeat(sizes[s:e])) ** phases[ph[s]].q
        sums = _mean_sums(v, w[span], e - s)
        out[s:e] = (sums[: e - s] / sums[e - s :])[:, None]
    return out


def _distinct(f: ScalarField | Sequence[ScalarField], m: int) -> tuple[list, np.ndarray]:
    """The distinct fields of a ``_drive`` call, in order of first use, and each cube's index
    among them: one field (any object but a list or tuple) serves every cube."""
    if not isinstance(f, (list, tuple)):
        return [f], np.zeros(m, dtype=np.int64)
    if len(f) != m:
        raise ValueError(f"{len(f)} fields for {m} cubes")
    index: dict[int, int] = {}
    fid = np.array([index.setdefault(id(g), len(index)) for g in f], dtype=np.int64)
    return list({id(g): g for g in f}.values()), fid


def _each_field(
    fns: Sequence[ScalarField], owner: np.ndarray, n: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """Values at stacked nodes (n[k] of cube k, whose field is ``fns[owner[k]]``), each
    field evaluated once, on the nodes of its own cubes (columns contiguous)."""
    order = np.argsort(owner, kind="stable")
    cuts = np.concatenate(([0], n[order].cumsum()))
    # the nodes grouped by field, cube by cube: gathered unless already so
    take = None
    if np.count_nonzero(order != np.arange(order.size)):
        first = np.concatenate(([0], n.cumsum()))[order]
        take = np.repeat(first - cuts[:-1], n[order]) + np.arange(cuts[-1])
        pts = pts.T[:, take].T
    vals = np.empty(len(pts))
    change = np.flatnonzero(np.diff(owner[order])) + 1
    for s, e in zip([0, *change.tolist()], [*change.tolist(), order.size]):
        span = slice(cuts[s], cuts[e])
        vals[span] = fns[owner[order[s]]](pts[span])
    if take is None:
        return vals
    out = np.empty(len(vals))
    out[take] = vals
    return out


def _padded(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """The rows as one array, NaN-padded on the right."""
    out = np.full((len(rows), max(map(len, rows), default=0)), np.nan)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _level_sets(
    fns: Sequence[ScalarField], owner: np.ndarray, center: np.ndarray, sigmas: np.ndarray,
    curved: bool,
) -> tuple[dict, np.ndarray | tuple]:
    """Positions and (``curved``) radii of {|f - center| = sigma} for cubes whose fields are
    ``fns[owner]``, solved per field: ``level_set_breaks`` and ``level_set_radii`` with a row
    per cube, NaN-padded; the radii () where no field is radial."""
    kinks: dict[int, list] = {}
    radii = []
    for j in np.unique(owner).tolist():
        g, mine = fns[j], owner == j
        for ax, b in level_set_breaks(g, center[mine], sigmas).items():
            kinks.setdefault(ax, []).append((mine, b))
        if curved and g.radial is not None:
            radii.append((mine, level_set_radii(g, center[mine], sigmas)))
    k = len(center)
    return {ax: _rows(k, parts) for ax, parts in kinks.items()}, _rows(k, radii) if radii else ()


def _rows(k: int, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """k NaN-padded rows, filled from (rows selected, their values) parts."""
    if len(parts) == 1 and np.count_nonzero(parts[0][0]) == k:
        return parts[0][1]
    out = np.full((k, max(b.shape[1] for _, b in parts)), np.nan)
    for mine, b in parts:
        out[mine, : b.shape[1]] = b
    return out


def _drive(
    f: ScalarField | Sequence[ScalarField],
    centers: np.ndarray,
    sides: np.ndarray,
    phases: Sequence[_Phase],
    order: int,
    center: float | None = None,
    gamma: np.ndarray | None = None,
) -> np.ndarray:
    """Refine the phases of field f on every cube (centers (m, d), sides (m,)); the last
    phase's estimates, a row per cube.  A ``gamma`` array receives the cubes' Gauss measures.

    ``f`` is one field for all cubes, or a list or tuple of m fields, one per
    cube: each cube's panels are cut at its own field's breaks and circles,
    its level sets solved by its own field, and each distinct field is
    evaluated once per batch, on the nodes of its own cubes.
    Each phase is centered at the estimate of the one before (or ``center``).
    A round advances each pending request one level; rules of at most
    ``BATCH_NODES`` nodes are built together and evaluated in batches of at
    most ``BATCH_NODES``.  Larger ones are set aside, then refined alone in
    input order through their remaining phases, each level streamed from
    ``_Table.blocks`` into ``_estimate``.  Either way each estimate is
    bit for bit that of refining the cube alone.  A failure at cube i stops
    the cubes after it; once those before it are done it is raised.
    """
    m = len(sides)
    width = max(1 if p.sigmas is None else p.sigmas.size for p in phases)
    fns, fid = _distinct(f, m)
    if not m:
        return np.zeros((0, width))
    table = _Table(centers, sides)
    if gamma is not None:
        gamma[:] = table.gq
    top, tol, rel, expo = np.array([(p.top, p.tol, p.rel_tol, p.q or 0.0) for p in phases]).T
    relative = any(p.rel_tol for p in phases)
    # per cube: its request's phase and level, the node counts of the phase's
    # levels (-1 where the rule cannot be built), its center, and the
    # request's last estimate (NaN before its first level)
    phase, level = np.zeros((2, m), dtype=np.int64)
    plan = np.full((m, max(p.top for p in phases) + 2), -1)
    center = np.full(m, np.nan if center is None else float(center))
    last = np.empty((m, width))
    # pending requests, and those still refined in shared rounds
    pending, shared = np.ones((2, m), dtype=bool)
    # cubes from failed_at on are not refined further; error is their first failure
    failed_at, error = m, None

    def fail(i: int, exc: Exception | None = None) -> None:
        nonlocal failed_at, error
        pending[i] = shared[i] = False
        # without exc, cube i's next rule cannot be built
        what = f"{phases[phase[i]].what} of field {fns[fid[i]].id}: "
        exc = exc or QuadratureError(what + table.why(i, int(level[i]), order))
        if i < failed_at:
            failed_at, error = i, exc

    # each field's breaks and kink radii, a NaN-padded row per field; in
    # d = 2 the circles of radial fields make iterated rules (``_Table``)
    d = centers.shape[1]
    breaks = {
        ax: _padded([g.breaks.get(ax, ()) for g in fns])
        for ax in sorted({ax for g in fns for ax in g.breaks if ax < d})
    }
    curved = d == 2 and any(g.radial is not None or bool(g.kink_radii) for g in fns)
    kink_radii = _padded([g.kink_radii for g in fns])

    def enter(idx: np.ndarray | slice, k: int) -> None:
        p, owner = phases[k], fid[idx]
        kinks, radii = {}, ()
        if p.level_sets is not None:
            kinks, radii = _level_sets(fns, owner, center[idx], p.level_sets, curved)
        table.cut(
            idx, [{ax: b[owner] for ax, b in breaks.items()}, kinks], kinks if p.kinks else None,
            [kink_radii[owner], radii] if curved else (), radii if p.kinks and len(radii) else None,
        )
        plan[idx, : p.top + 1] = table.sizes(idx, p.top, order)
        phase[idx], level[idx], last[idx] = k, 0, np.nan

    def settle(idx: np.ndarray, new: np.ndarray, n: np.ndarray) -> None:
        # idx ascending; the first failure stops the requests after it (never read again)
        ph, lv = phase[idx], level[idx] + 1
        d = np.abs(new - last[idx])
        d = d.max(axis=1) if width > 1 else d[:, 0]
        ok = d <= (np.fmax(tol[ph], rel[ph] * np.abs(new[:, 0])) if relative else tol[ph])
        level[idx], last[idx] = lv, new
        bad = lv > top[ph]
        if np.count_nonzero(bad) and np.count_nonzero(bad := bad & ~ok):
            j = int(bad.argmax())
            i, p = int(idx[j]), phases[ph[j]]
            # weak norms accept relative to their value, so only the difference is named
            fail(i, QuadratureError(
                f"{p.what} of field {fns[fid[i]].id} on {table.name(i)} "
                f"did not converge by refinement level {lv[j] - 1} ({n[j]} tensor nodes): "
                f"last diff {d[j]:.3e}" + ("" if p.rel_tol else f" > {p.tol:.3e}")
            ))
            idx, ok = idx[:j], ok[:j]
        if np.count_nonzero(ok):
            done = idx[ok]
            nxt = phase[done] + 1
            end = done[nxt == len(phases)]
            pending[end] = shared[end] = False
            for k in range(1, len(phases)):
                if (go := done[nxt == k]).size:
                    center[go] = last[go, 0]
                    enter(go, k)

    def step(batch: np.ndarray, n: np.ndarray) -> None:
        # neighbours share the passes of one exponent, one level, one node count;
        # the cubes of one field at one level are neighbours
        perm = np.lexsort((n, fid[batch], level[batch], expo[phase[batch]]))
        idx, ns = batch[perm], n[perm]
        pts, w = table.rules(idx, level[idx], ns, order)
        new = np.empty((batch.size, width))
        owner = fid[idx]
        if np.count_nonzero(owner != owner[0]):
            vals = _each_field(fns, owner, ns, pts)
        else:
            vals = fns[owner[0]](pts)
        new[perm] = _batch_estimates(phases, phase[idx], idx, center, table.gq, vals, w, ns, width)
        settle(batch, new, n)

    def stream(i: int, n: int) -> None:
        g = fns[fid[i]]
        blocks = ((g(pts), w) for pts, w in table.blocks(i, int(level[i]), order))
        est = _estimate(phases[phase[i]], center[i], table.gq[i], blocks, n)
        settle(np.array([i]), np.full((1, width), est), np.array([n]))

    enter(slice(0, m), 0)
    while True:
        idx = shared[:failed_at].nonzero()[0]
        if not idx.size:
            live = pending[:failed_at].nonzero()[0]
            if not live.size:
                break
            i = int(live[0])
            while pending[i] and i < failed_at:
                stream(i, n) if (n := int(plan[i, level[i]])) >= 0 else fail(i)
            continue
        n = plan[idx, level[idx]]
        if n.min() < 0:
            j = int((n < 0).argmax())
            fail(int(idx[j]))
            idx, n = idx[:j], n[:j]
        big = n > BATCH_NODES
        if np.count_nonzero(big):
            shared[idx[big]] = False
            idx, n = idx[~big], n[~big]
        # greedy batches of at most BATCH_NODES nodes, in input order
        cum, s = n.cumsum(), 0
        while s < idx.size:
            base, e = (cum[s - 1] if s else 0), idx.size
            if cum[-1] - base > BATCH_NODES:
                e = int(cum.searchsorted(base + BATCH_NODES, "right"))
            if idx[s] < failed_at:
                keep = idx[s:e] < failed_at
                step(idx[s:e][keep], n[s:e][keep])
            s = e
    if error is not None:
        raise error
    return last


def average_gammas(
    f: ScalarField | Sequence[ScalarField], centers: np.ndarray, sides: np.ndarray,
    spec: QuadratureSpec,
) -> list[float]:
    """``average_gamma`` of f on every cube (centers (m, d), sides (m,)), refined together.

    ``f`` is one field for all cubes, or a list or tuple of one field per
    cube.  Each value is bit for bit the one-cube ``average_gamma`` of its
    cube's field; a failure is the one the cube-by-cube loop would raise first.
    """
    return _drive(f, centers, sides, [_mean(spec)], spec.nodes_per_axis)[:, 0].tolist()


def average_gamma(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> float:
    """Gamma-normalized mean f_Q = gamma(Q)^(-1) Int_Q f dgamma.

    Refines dyadically until two successive levels agree within the
    tolerance; raises :class:`QuadratureError` when the budget is exhausted.
    The mean is self-normalized by the rule's own weight sum (which equals
    one up to rounding), so a field that is identically 1 averages to
    exactly 1.0 and centered oscillations of constants vanish exactly.
    """
    return average_gammas(f, *cube_arrays([cube]), spec)[0]


#: The same function under the name of the paper's f_Q.
gauss_average = average_gamma


def power_average(
    f: ScalarField, cube: Cube, r: float, spec: QuadratureSpec, *, center: float = 0.0
) -> float:
    """Gamma-normalized mean of |f - center|^r over the cube.

    The integrand kinks on the level set {f = center}; when the field can
    solve its level sets those positions are panel breaks, so the kink
    never crosses a panel, and for a fractional r the panels beside it are
    graded toward it.
    """
    power = [_power(spec, r)]
    return float(_drive(f, *cube_arrays([cube]), power, spec.nodes_per_axis, center)[0, 0])


def integral_gamma(f: ScalarField, cube: Cube, spec: QuadratureSpec) -> float:
    """Int_Q f dgamma (unnormalized)."""
    return gauss_average(f, cube, spec) * gaussian_measure(cube)


def oscillations(
    f: ScalarField, centers: np.ndarray, sides: np.ndarray, q: float, spec: QuadratureSpec,
    *, measures: bool = False,
) -> list[float] | tuple[np.ndarray, list[float]]:
    """``oscillation`` of f on every cube (centers (m, d), sides (m,)), refined together.

    Each value is bit for bit the one-cube ``oscillation``; a failure is
    the one the cube-by-cube loop would raise first.  With ``measures``
    the cubes' Gauss measures gamma(Q) come first, as the driver's table
    holds them (bit for bit ``geometry.gaussian_measures``).
    """
    if not q >= 1.0:
        raise ValueError("oscillation exponent q must be >= 1")
    power = _power(spec, q)
    gamma = np.empty(len(sides))
    means = _drive(f, centers, sides, [_mean(spec), power], spec.nodes_per_axis, gamma=gamma)
    values = [v ** (1.0 / q) for v in means[:, 0].tolist()]
    return (gamma, values) if measures else values


def oscillation(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> float:
    """q-oscillation: (gamma(Q)^(-1) Int_Q |f - f_Q|^q dgamma)^(1/q).

    The integrand |f - f_Q|^q has a kink on the level set {f = f_Q}; when
    the field can solve its level sets those positions are added to the
    panel breaks so the kink never crosses a panel, and for a fractional q
    the panels beside it are graded toward it.
    """
    return oscillations(f, *cube_arrays([cube]), q, spec)[0]


def lq_norm(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> float:
    """(Int_Q |f|^q dgamma)^(1/q) (unnormalized; kink at {f = 0} aligned)."""
    if not q >= 1.0:
        raise ValueError("exponent q must be >= 1")
    return (power_average(f, cube, q, spec) * gaussian_measure(cube)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# distribution tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionProfile:
    """Tail masses gamma({|g| > sigma}) over a sigma grid (one node set)."""

    field_id: str
    sigmas: tuple[float, ...]
    tails: tuple[float, ...]

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.sigmas, self.tails))


def _ascending(rows: np.ndarray) -> np.ndarray:
    """Sort each row in place, ascending and distinct (first of equals kept), NaN last."""
    rows.sort(axis=1, kind="stable")
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.nan
    rows.sort(axis=1, kind="stable")
    return rows


def level_set_breaks(f: ScalarField, center: float | np.ndarray, sigmas: np.ndarray) -> dict:
    """Axis positions of {|f - center| = sigma} when the field can solve them.

    ``level_breaks`` answers for {|f| = v}, a superset of {f = v}; extra cut
    positions only refine panels, never hurt.  Unsolvable levels are skipped.
    One center maps each axis to a tuple of positions, ascending and
    distinct; an array of m centers, solved in one call, to an (m, k) array
    holding them the same way per row, NaN-padded.
    """
    if f.level_breaks is None:
        return {}
    c = np.asarray(center, dtype=np.float64).reshape(-1, 1)
    # per center, |c + s| and |c - s| for each sigma in turn
    levels = np.abs(np.stack((c + sigmas, c - sigmas), axis=2)).reshape(c.size, -1)
    out = {}
    for ax, b in f.level_breaks(levels.ravel()).items():
        b = np.where(np.isfinite(b), b, np.nan).reshape(c.size, -1)
        out[ax] = _ascending(b)
    if np.ndim(center):
        return out
    return {ax: t for ax, b in out.items() if (t := tuple(b[0, b[0] == b[0]].tolist()))}


def level_set_radii(f: ScalarField, center: float | np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Radii of the spheres {|x| = r} that hold {|f - center| = sigma}, one row per center.

    ``radial`` answers for {|f| = v}, as ``level_breaks`` does, at the
    levels |center + sigma| and |center - sigma| of each sigma in turn.
    Returns an (m, k) array for m centers (one row for a single center),
    NaN where a level has no positive radius.
    """
    c = np.asarray(center, dtype=np.float64).reshape(-1, 1)
    levels = np.abs(np.stack((c + sigmas, c - sigmas), axis=2)).reshape(c.size, -1)
    r = f.radial(levels.ravel()).reshape(c.size, -1)
    return np.where(np.isfinite(r) & (r > 0.0), r, np.nan)


def tail_profiles(
    f: ScalarField,
    centers: np.ndarray,
    sides: np.ndarray,
    sigmas: Sequence[float],
    spec: QuadratureSpec,
    *,
    center: float | None = None,
) -> list[DistributionProfile]:
    """``tail_profile`` of f on every cube (centers (m, d), sides (m,)), refined together.

    Each profile is bit for bit the one-cube ``tail_profile``; a failure is
    the one the cube-by-cube loop would raise first.
    """
    sig = np.asarray(sorted(float(s) for s in sigmas), dtype=np.float64)
    if sig.size == 0 or sig[0] < 0.0:
        raise ValueError("sigma grid must be nonempty and nonnegative")
    tails = _Phase(
        "tail profile", 2 * spec.refinement_levels, spec.abs_tol, sigmas=sig, level_sets=sig
    )
    phases = [tails] if center is not None else [_mean(spec), tails]
    rows = _drive(f, centers, sides, phases, spec.nodes_per_axis, center)
    sig_t = tuple(sig.tolist())
    return [DistributionProfile(f.id, sig_t, tuple(row)) for row in rows.tolist()]


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
    return tail_profiles(f, *cube_arrays([cube]), sigmas, spec, center=center)[0]


#: Relative acceptance tolerance of weak norms: their supremum converges
#: only as fast as the panels resolve the optimizing level.
WEAK_REL_TOL = 1e-3


def _node_measure_weak_sup(av: np.ndarray, wg: np.ndarray, p: float) -> float | np.ndarray:
    """Exact sup_sigma sigma * weight{|f| > sigma}^(1/p) of discrete measures.

    ``av`` holds the values |f| and ``wg`` their nonnegative weights, one
    measure per row of a (..., n) array: quadrature nodes, or the cells of
    step distributions padded with zero-weight entries.  The map is linear
    between distinct values and jumps down as sigma crosses one, so its
    supremum is a left limit v * (weight{|f| >= v})^(1/p) at some value v;
    suffix sums over each row's sorted values find it, taken at the first
    index of each run of equal values.  A zero-weight entry never raises
    the supremum, and a row without a positive value gives 0.0.  A 1-D
    input gives a float, bit for bit its result as a row of a table.
    """
    order = np.argsort(av, axis=-1)
    suffix = np.cumsum(np.take_along_axis(wg, order, -1)[..., ::-1], axis=-1)[..., ::-1]
    sv = np.take_along_axis(av, order, -1)
    del order  # one n-sized array fewer alive while the runs are found
    first = np.empty(sv.shape, dtype=bool)
    first[..., :1] = True
    np.not_equal(sv[..., 1:], sv[..., :-1], out=first[..., 1:])
    scores = sv[first] * np.maximum(suffix[first], 0.0) ** (1.0 / p)
    suffix.fill(0.0)  # reused: the scores at run starts, 0.0 elsewhere
    suffix[first] = scores
    best = np.where(sv[..., -1] <= 0.0, 0.0, suffix.max(axis=-1))
    return float(best) if best.ndim == 0 else best


def weak_lp_norm(f: ScalarField, cube: Cube, p: float, spec: QuadratureSpec) -> float:
    """Weak norm sup_sigma sigma * gamma({|f| > sigma})^(1/p) on the cube.

    At each refinement level the supremum is computed exactly against the
    node measure (no sigma grid); the hierarchy deepens until two successive
    levels agree within max(spec.abs_tol, ``WEAK_REL_TOL`` * value).  Step-like
    fields are panel-aligned, so their node measure reproduces the true cell
    masses and the result matches the closed form to summation accuracy;
    for continuous fields the value is an estimate whose error tracks the
    panel resolution at the optimizing level.
    """
    if not p >= 1.0:
        raise ValueError("exponent p must be >= 1")
    weak = _Phase(
        "weak norm", 2 * spec.refinement_levels, spec.abs_tol, p=p, rel_tol=WEAK_REL_TOL
    )
    return float(_drive(f, *cube_arrays([cube]), [weak], spec.nodes_per_axis)[0, 0])


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
    box = np.zeros((1, d)), np.array([2.0 * float(radius)])
    mean = _drive(f, *box, [_power(spec, 1.0)], spec.nodes_per_axis, 0.0)[0, 0]
    return float(mean) * float(gaussian_measures(*box)[1][0]), l1_tail_bound(f, radius, d)


# ---------------------------------------------------------------------------
# step fields with exact moments
# ---------------------------------------------------------------------------


def _step_cells(edges: Sequence[float], values: Sequence[float]) -> tuple[tuple, tuple]:
    """The edges and values of a step as float tuples, checked as a step needs them."""
    edges_t = tuple(float(e) for e in edges)
    values_t = tuple(float(v) for v in values)
    if list(edges_t) != sorted(set(edges_t)):
        raise ValueError("edges must be strictly increasing")
    if len(values_t) != len(edges_t) + 1:
        raise ValueError("need one more value than edges")
    return edges_t, values_t


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
        edges_t, values_t = _step_cells(edges, values)
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


def step_masses(
    centers: np.ndarray, sides: np.ndarray, axes: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gamma-masses (n, k) of the k cells of n steps, each on its own
    cube, and the cubes' own masses (n,), as ``gaussian_measures`` gives them.

    Row i is a step along axis ``axes[i]`` with the increasing ``edges[i]``
    (k - 1 of them) on the cube (``centers[i]``, ``sides[i]``).  Its cells
    are cut at the edges clipped into the cube, so a cell outside the cube,
    or one behind a padding edge of +inf, has zero width and zero mass.  A
    cell's mass is ``kernels.gauss1d`` along the step axis times the cube's
    factors on the other axes, multiplied from axis 0 on.
    """
    factors, gammas = gaussian_measures(centers, sides)
    c = centers[np.arange(sides.size), axes]
    lo, hi = c - 0.5 * sides, c + 0.5 * sides
    cuts = np.column_stack([lo, np.clip(edges, lo[:, None], hi[:, None]), hi])
    g = kernels.gauss1d
    masses = []
    for row, ax, cut in zip(factors.tolist(), axes.tolist(), cuts.tolist()):
        other = math.prod(row[:ax] + row[ax + 1 :])
        masses.append([g(a, b) * other for a, b in zip(cut[:-1], cut[1:])])
    return np.array(masses).reshape(edges.shape[0], edges.shape[1] + 1), gammas


def step_distribution(f: StepField, cube: Cube) -> tuple[np.ndarray, np.ndarray]:
    """Exact (values, gamma-masses) of the step field's cells inside the cube."""
    if not isinstance(f, StepField):
        raise TypeError("step_distribution requires a StepField")
    edges = np.asarray(f.edges, dtype=np.float64)
    centers, sides = cube_arrays([cube])
    masses, _ = step_masses(centers, sides, np.array([f.axis]), edges[None])
    lo, hi = cube.lo[f.axis], cube.hi[f.axis]
    inside = np.r_[edges > lo, True] & np.r_[True, edges < hi]
    return np.asarray(f.values)[inside], masses[0, inside]


def step_average(f: StepField, cube: Cube) -> float:
    v, m = step_distribution(f, cube)
    return float(np.sum(v * m) / np.sum(m))


def step_oscillation(f: StepField, cube: Cube, q: float) -> float:
    v, m = step_distribution(f, cube)
    avg = float(np.sum(v * m) / np.sum(m))
    return float((np.sum(np.abs(v - avg) ** q * m) / np.sum(m)) ** (1.0 / q))


def distribution_lq_norm(values: np.ndarray, masses: np.ndarray, q: float) -> float | np.ndarray:
    """(sum |v|^q m)^(1/q) of finite distributions, one per row of (..., cells).

    Rows come from ``step_distribution`` or ``step_masses``; a 1-D input
    gives a float, bit for bit its result as a row of a table (the root is
    taken on an array even then: numpy's scalar power can differ from its
    array power in the last bit).
    """
    out = (np.sum(np.abs(values) ** q * masses, axis=-1, keepdims=True) ** (1.0 / q))[..., 0]
    return float(out) if out.ndim == 0 else out


def distribution_weak_lp_norm(
    values: np.ndarray, masses: np.ndarray, p: float
) -> float | np.ndarray:
    """Exact sup_sigma sigma * mass(|v| > sigma)^(1/p) of each row of (..., cells).

    The supremum is attained at the values (``_node_measure_weak_sup``).
    """
    return _node_measure_weak_sup(np.abs(values), masses, p)


def step_lq_norm(f: StepField, cube: Cube, q: float) -> float:
    return distribution_lq_norm(*step_distribution(f, cube), q)


def step_weak_lp_norm(f: StepField, cube: Cube, p: float) -> float:
    """Exact sup_sigma sigma * gamma(|f| > sigma)^(1/p): attained at cell values."""
    return distribution_weak_lp_norm(*step_distribution(f, cube), p)


def random_step_cells(
    rng: np.random.Generator, lo: float, hi: float, cells: int, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Edges strictly inside (lo, hi) and cell values of a random step.

    The edges are drawn uniformly from the middle 90% of the interval and
    the values from N(0, scale^2), checked as ``StepField`` checks them.
    """
    if cells < 2:
        raise ValueError("need at least two cells")
    u = np.sort(rng.uniform(0.05, 0.95, size=cells - 1))
    edges = lo + (hi - lo) * u
    values = rng.normal(0.0, scale, size=cells)
    _step_cells(edges, values)
    return edges, values


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
    edges, values = random_step_cells(rng, cube.lo[axis], cube.hi[axis], cells, scale)
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
        level_breaks=lambda c: {axis: np.stack((-c, c), axis=1)},
    )


def _spheres(d: int, solve: Callable[[np.ndarray], np.ndarray]) -> dict:
    """``radial`` of a field with {|f| = v} = {|x| = solve(v)}, and in d = 1 its breaks -r and r."""

    def radial(v: np.ndarray) -> np.ndarray:
        return solve(v)[:, None]

    def level_breaks(v: np.ndarray) -> dict[int, np.ndarray]:
        r = radial(v)
        return {0: np.concatenate((-r, r), axis=1)}

    return {"radial": radial, "level_breaks": level_breaks if d == 1 else None}


def _solve(fn: Callable[[float], float], levels: np.ndarray) -> np.ndarray:
    """fn of each level, NaN where it raises: one ``math`` call per value, since numpy's
    exp and log differ from ``math``'s in the last bit on some values."""
    out = []
    for v in levels.tolist():
        try:
            out.append(fn(v))
        except (ValueError, OverflowError):
            out.append(math.nan)
    return np.array(out)


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
        **_spheres(d, np.sqrt),
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
        kink_radii=(1.0,),
        **_spheres(d, lambda c: _solve(math.exp, c)),
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
        **_spheres(d, lambda c: _solve(lambda v: math.sqrt(2.0 * math.log(v)), c)),
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
