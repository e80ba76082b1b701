"""Independent oracles: high-precision integrals and brute-force enumerations.

Everything here is deliberately written against *different* machinery than
the package under test: mpmath arbitrary precision for special functions and
one-dimensional integrals, exact closed forms where they exist, and
vectorized subset enumeration for the antichain optimum.  Tests compare the
package's fast paths against these slow but trustworthy references.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from gaussjn.fields import step_distribution
from gaussjn.geometry import Cube, cubes_disjoint

mp.mp.dps = 40

SQRT_PI = float(mp.sqrt(mp.pi))


# ---------------------------------------------------------------------------
# Gaussian measure and one-dimensional moments (mpmath, 40 digits)
# ---------------------------------------------------------------------------


def erf_mp(x: float) -> float:
    return float(mp.erf(x))


def _gauss1d_mpf(a, b) -> "mp.mpf":
    """gamma_1((a, b)) without cancellation, even deep in either tail."""
    a, b = mp.mpf(a), mp.mpf(b)
    if a >= 0:  # right tail: difference of complementary functions
        return (mp.erfc(a) - mp.erfc(b)) / 2
    if b <= 0:  # left tail, by symmetry
        return (mp.erfc(-b) - mp.erfc(-a)) / 2
    return (mp.erf(b) - mp.erf(a)) / 2


def gauss1d_mp(a: float, b: float) -> float:
    """gamma_1((a, b)) at 40 digits."""
    return float(_gauss1d_mpf(a, b))


def gauss_box_mp(lo, hi) -> float:
    """Product-measure of an axis-aligned box."""
    out = mp.mpf(1)
    for a, b in zip(lo, hi):
        out *= _gauss1d_mpf(a, b)
    return float(out)


def t2_integral_mp(a: float, b: float) -> float:
    """Int_a^b t^2 dgamma_1, via the antiderivative erf(t)/4 - t e^{-t^2}/(2 sqrt(pi))."""

    def anti(t):
        t = mp.mpf(t)
        return mp.erf(t) / 4 - t * mp.e ** (-(t**2)) / (2 * mp.sqrt(mp.pi))

    return float(anti(b) - anti(a))


def t2_average_mp(a: float, b: float) -> float:
    return float(mp.mpf(t2_integral_mp(a, b)) / mp.mpf(gauss1d_mp(a, b)))


def gauss_quad_mp(fn, a: float, b: float) -> float:
    """Adaptive mpmath quadrature of fn against gamma_1 on (a, b)."""
    g = mp.quad(lambda t: fn(t) * mp.e ** (-(t**2)), [a, b]) / mp.sqrt(mp.pi)
    return float(g)


def oscillation_mp(fn, a: float, b: float, q: float, level_set) -> float:
    """osc_q(fn, (a, b)) against gamma_1, with the mean kept at 40 digits.

    ``level_set(c)`` lists the points where fn = c; |fn - c|^q is integrated
    piece by piece between those inside (a, b), so tanh-sinh quadrature meets
    its singularities only at piece ends.
    """
    a, b = mp.mpf(a), mp.mpf(b)

    def dens(t):
        return mp.e ** (-(t**2))

    mass = mp.quad(dens, [a, b])
    c = mp.quad(lambda t: fn(t) * dens(t), [a, b]) / mass
    cuts = sorted(t for t in level_set(c) if a < t < b)
    mean = mp.quad(lambda t: abs(fn(t) - c) ** q * dens(t), [a, *cuts, b]) / mass
    return float(mean ** (1 / mp.mpf(q)))


# ---------------------------------------------------------------------------
# radius recurrence at high precision
# ---------------------------------------------------------------------------


def radius_values_mp(count: int) -> list:
    vals = [mp.mpf(1)]
    for _ in range(count - 1):
        vals.append(vals[-1] + 1 / vals[-1])
    return vals


# ---------------------------------------------------------------------------
# step-function distribution facts, independently derived
# ---------------------------------------------------------------------------


def step_masses_mp(edges, values, lo, hi, axis: int):
    """(value, gamma-mass) pairs for a step function of one coordinate on a box.

    The mass of cell i is gamma_1(cell_i) times the product of the other
    axes' measures; cells are clipped to the box along the step axis.
    """
    other = mp.mpf(1)
    for ax, (a, b) in enumerate(zip(lo, hi)):
        if ax != axis:
            other *= (mp.erf(b) - mp.erf(a)) / 2
    cuts = [lo[axis], *edges, hi[axis]]
    out = []
    for i, v in enumerate(values):
        a = max(cuts[i], lo[axis])
        b = min(cuts[i + 1], hi[axis])
        if b <= a:
            continue
        out.append((float(v), float(other * (mp.erf(b) - mp.erf(a)) / 2)))
    return out


def step_tail(f, cube: Cube, sigma: float, *, center: float | None = None) -> float:
    """Exact gamma({|f - center| > sigma}) of a ``StepField``; center defaults to the cube mean."""
    v, m = step_distribution(f, cube)
    c = float(np.sum(v * m) / np.sum(m)) if center is None else float(center)
    return float(np.sum(m[np.abs(v - c) > sigma]))


def step_lq_mp(edges, values, lo, hi, axis: int, q: float) -> float:
    pairs = step_masses_mp(edges, values, lo, hi, axis)
    total = mp.mpf(0)
    for v, m in pairs:
        total += mp.mpf(abs(v)) ** q * mp.mpf(m)
    return float(total ** (1 / mp.mpf(q)))


def step_weak_lp_mp(edges, values, lo, hi, axis: int, p: float) -> float:
    pairs = step_masses_mp(edges, values, lo, hi, axis)
    best = mp.mpf(0)
    for v, _ in pairs:
        level = abs(v)
        if level == 0:
            continue
        tail = mp.mpf(0)
        for w, m in pairs:
            if abs(w) >= level:
                tail += mp.mpf(m)
        best = max(best, mp.mpf(level) * tail ** (1 / mp.mpf(p)))
    return float(best)


# ---------------------------------------------------------------------------
# antichain optimum: exhaustive subset enumeration and the recursive DP
# ---------------------------------------------------------------------------


class ExhaustiveAntichains:
    """Every antichain of a small forest, enumerated once as a bit table.

    Builds the ancestor relation from the parent indices (-1 for a root),
    materializes every subset of the node set as a bit table and keeps the
    subsets that contain no ancestor-descendant pair.  ``best`` then
    maximizes a weight sum over the kept rows, so many weight draws on one
    forest shape share the exponential enumeration.  Only for small forests
    (<= ~16 nodes); completely independent of any dynamic program.
    """

    def __init__(self, parent) -> None:
        n = len(parent)
        if n > 20:
            raise ValueError("exhaustive oracle limited to 20 nodes")
        anc = np.zeros((n, n), dtype=np.int64)  # anc[i, j] = 1 if i is a proper ancestor of j
        for j in range(n):
            i = parent[j]
            while i >= 0:
                anc[i, j] = 1
                i = parent[i]
        bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        chosen_anc = bits @ anc
        valid = ~np.any((bits == 1) & (chosen_anc > 0), axis=1)
        self.antichains = bits[valid].astype(np.float64)

    def best(self, weights) -> float:
        """Maximum antichain weight sum, weights indexed by node (0.0 for an empty forest)."""
        return float(np.max(self.antichains @ np.asarray(weights, dtype=np.float64)))


def antichain_best_exhaustive(parent, weights) -> float:
    """Maximum antichain weight by explicit enumeration of all node subsets."""
    return ExhaustiveAntichains(parent).best(weights)


def antichain_dp_recursive(parent, weights, margin: float) -> tuple:
    """The antichain DP as a recursion over child lists: (total, family).

    best(node) = max(weight(node), sum of best over children), the children
    winning only when their ``math.fsum`` exceeds weight(node) * (1 +
    margin); the family lists the picked node indices in preorder.
    """
    children = [[] for _ in parent]
    roots = []
    for i, up in enumerate(parent):
        (children[up] if up >= 0 else roots).append(i)

    def best(i):
        w = float(weights[i])
        if w < 0.0:
            raise ValueError("antichain weights must be nonnegative")
        if not children[i]:
            return w, (i,)
        totals = [best(c) for c in children[i]]
        child_total = math.fsum(t for t, _ in totals)
        if child_total <= w * (1.0 + margin):
            return w, (i,)
        return child_total, tuple(j for _, picks in totals for j in picks)

    results = [best(r) for r in roots]
    return math.fsum(t for t, _ in results), tuple(j for _, picks in results for j in picks)


def forest_parent(shapes) -> list:
    """Preorder parent indices (-1 for a root) of a forest of nested-tuple shapes."""
    parent = []

    def visit(shape, up):
        here = len(parent)
        parent.append(up)
        for child in shape:
            visit(child, here)

    for shape in shapes:
        visit(shape, -1)
    return parent


def node_depths(parent) -> list:
    """Depth of every node of a preorder parent array."""
    depth = []
    for up in parent:
        depth.append(0 if up < 0 else depth[up] + 1)
    return depth


# ---------------------------------------------------------------------------
# enumeration of all full-binary forest shapes up to a node budget
# ---------------------------------------------------------------------------


def _binary_trees(n: int, _memo={}):
    """All full binary tree shapes with exactly n nodes (n odd), as nested tuples.

    A shape is () for a leaf or (left, right) for an internal node.
    """
    if n in _memo:
        return _memo[n]
    if n == 1:
        out = [()]
    elif n % 2 == 0:
        out = []
    else:
        out = []
        for nl in range(1, n - 1, 2):
            for left in _binary_trees(nl):
                for right in _binary_trees(n - 1 - nl):
                    out.append((left, right))
    _memo[n] = out
    return out


def all_binary_forests(max_nodes: int):
    """Every ordered forest of full binary trees with <= max_nodes total nodes.

    Tree sequences are nondecreasing in node count to avoid double-counting
    unordered forests; shapes within a size are ordered by enumeration index.
    """
    sizes = [n for n in range(1, max_nodes + 1, 2)]
    forests = []

    def extend(prefix, remaining, min_size, min_index):
        if prefix:
            forests.append(tuple(prefix))
        for size in sizes:
            if size < min_size or size > remaining:
                continue
            shapes = _binary_trees(size)
            start = min_index if size == min_size else 0
            for idx in range(start, len(shapes)):
                prefix.append((size, idx, shapes[idx]))
                extend(prefix, remaining - size, size, idx)
                prefix.pop()

    extend([], max_nodes, 1, 0)
    return forests


def shape_node_count(shape) -> int:
    if shape == ():
        return 1
    return 1 + sum(shape_node_count(c) for c in shape)


# ---------------------------------------------------------------------------
# membership and first-fit brute force
# ---------------------------------------------------------------------------


def points_in_cube_brute(pts: np.ndarray, lo, hi) -> np.ndarray:
    """Per-point count of open boxes containing it, with plain Python loops."""
    pts2 = np.atleast_2d(np.asarray(pts, dtype=float))
    lo2 = np.atleast_2d(np.asarray(lo, dtype=float))
    hi2 = np.atleast_2d(np.asarray(hi, dtype=float))
    out = []
    for row in pts2:
        hits = 0
        for a, b in zip(lo2, hi2):
            if all(aj < xj < bj for xj, aj, bj in zip(row, a, b)):
                hits += 1
        out.append(hits)
    return np.array(out, dtype=np.int64)


def box_grid_entries(grid, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, boxes) of a ``kernels._BoxGrid``'s entries, on the grid's own step.

    The per-axis loop the index used before boxes shared offset tables:
    every (box, rank) entry finds its cell axis by axis from its rank
    within the box (axis 0 fastest), and a stable sort by key follows.
    """
    live = np.flatnonzero(np.all(hi > lo, axis=1))
    first = np.floor((lo[live] - grid.origin) / grid.step).astype(np.int64)
    span = np.floor((hi[live] - grid.origin) / grid.step).astype(np.int64) - first + 1
    box = np.repeat(np.arange(live.size), np.prod(span, axis=1))
    rank = np.concatenate([np.arange(n) for n in np.prod(span, axis=1)] or [np.empty(0, int)])
    key = np.zeros(box.size, dtype=np.int64)
    for ax in range(lo.shape[1]):
        key += (first[box, ax] + rank % span[box, ax]) * grid.strides[ax]
        rank //= span[box, ax]
    order = np.argsort(key, kind="stable")
    return key[order], live[box[order]]


def first_fit_disjoint_brute(cubes) -> list:
    """First-fit disjoint subfamily in the given order: each cube is tested
    against every cube kept before it, O(m^2) pairwise tests.

    The pairwise test is the package's own ``cubes_disjoint`` (its
    boundary tolerance is what is being reproduced); the oracle checks which
    pairs a faster first-fit may skip, not the predicate itself.
    """
    kept = []
    for cube in cubes:
        if all(cubes_disjoint(cube, other) for other in kept):
            kept.append(cube)
    return kept


def greedy_swap_loop(cubes, weight, passes: int) -> list:
    """Indices, ascending, of the greedy-plus-swaps family of ``jnp.maximize_jnp_pool``.

    The loop over cubes it replaced: admit cubes by decreasing weight when
    ``cubes_disjoint`` finds them apart from every chosen one, then, for at
    most ``passes`` passes, swap in each cube whose weight beats the summed
    weight of the chosen cubes it overlaps.
    """
    order = sorted(range(len(cubes)), key=lambda i: -weight[i])
    chosen = []
    for i in order:
        if all(cubes_disjoint(cubes[i], cubes[j]) for j in chosen):
            chosen.append(i)
    for _ in range(passes):
        improved = False
        for i in order:
            if i in chosen:
                continue
            conflicts = [j for j in chosen if not cubes_disjoint(cubes[i], cubes[j])]
            gain = weight[i] - math.fsum(weight[j] for j in conflicts)
            if gain > 0.0:
                chosen = [j for j in chosen if j not in conflicts]
                chosen.append(i)
                improved = True
        if not improved:
            break
    return sorted(chosen)


# ---------------------------------------------------------------------------
# per-cube geometry (the loops before forests and covering checks ran on arrays)
# ---------------------------------------------------------------------------


def m_weight_rowwise(x) -> float:
    """m(x) = min(1, 1/|x|) from ``np.linalg.norm`` of the one vector x."""
    r = float(np.linalg.norm(np.asarray(x, dtype=np.float64)))
    return 1.0 if r <= 1.0 else 1.0 / r


def is_admissible_rowwise(cube, a: float) -> bool:
    return cube.side <= a * m_weight_rowwise(cube.center)


def dyadic_children_loop(cube) -> tuple:
    """The 2^d half-side children, one offset vector per np.ndindex sign pattern."""
    h = 0.25 * cube.side
    kids = []
    for signs in np.ndindex(*(2,) * cube.dim):
        off = np.array([h if s else -h for s in signs])
        kids.append(Cube(tuple(cube.center_array() + off), 0.5 * cube.side))
    return tuple(kids)


def grow_recursive(cube, up: int, budget: int, a: float, out: list) -> None:
    """Depth-first dyadic tree under ``cube``, appended to ``out`` as
    (parent index, cube) pairs in preorder; an inadmissible cube drops its
    subtree."""
    if not is_admissible_rowwise(cube, a):
        return
    here = len(out)
    out.append((up, cube))
    if budget:
        for child in dyadic_children_loop(cube):
            grow_recursive(child, here, budget - 1, a, out)


def as_cubes(centers: np.ndarray, sides: np.ndarray) -> list:
    """The rows of a cube collection (centers (n, d), sides (n,)) as cubes."""
    return [Cube(tuple(c), s) for c, s in zip(centers.tolist(), sides.tolist())]


def covering_cubes(covering) -> list:
    """(layer index, cube) of every covering cube, layer by layer."""
    layer, centers, sides = covering.arrays()
    return list(zip(layer.tolist(), as_cubes(centers, sides)))


def build_layer_loop(k: int, d: int, seq) -> list:
    """The cubes of ``covering.build_layer`` built one at a time: slab axis
    0..d-1, the positive slab first, transverse midpoints in ``np.ndindex`` order."""
    from gaussjn.covering import divide_interval

    a_k, a_next = seq.a(k), seq.a(k + 1)
    delta = 1.0 / a_k
    transverse = divide_interval(-a_next, a_next, delta) if d > 1 else []
    cubes = []
    for axis in range(d):
        for r_lo, r_hi in ((a_k, a_next), (-a_next, -a_k)):
            for combo in np.ndindex(*(len(transverse),) * (d - 1)):
                center = [0.0] * d
                center[axis] = 0.5 * (r_lo + r_hi)
                others = [ax for ax in range(d) if ax != axis]
                for ax, idx in zip(others, combo):
                    center[ax] = 0.5 * (transverse[idx][0] + transverse[idx][1])
                cubes.append(Cube(tuple(center), delta))
    return cubes


def grow_forest_recursive(roots, depth: int, a: float) -> list:
    """(parent index, cube) of every node of the forest, in preorder (-1 for a root)."""
    out = []
    for cube in roots:
        grow_recursive(cube, -1, depth, a, out)
    return out


def make_candidates_recursive(covering, depth: int) -> list:
    """Roots of ``make_candidates`` by the O(m^2) first fit, each grown depth-first."""
    roots = first_fit_disjoint_brute([q for _, q in covering_cubes(covering)])
    return grow_forest_recursive(roots, depth, covering.admissibility)


def coverage_report_loop(covering, n_points: int, seed: int) -> dict:
    """``coverage_report`` with a point-by-box membership count and per-cube checks."""
    from gaussjn.covering import low_discrepancy_points

    d = covering.d
    a_par = covering.admissibility
    pairs = covering_cubes(covering)
    pts = low_discrepancy_points(covering, n_points, seed)
    counts = np.zeros(len(pts), dtype=np.int64)
    for _, q in pairs:
        counts += np.all((pts > np.array(q.lo)) & (pts < np.array(q.hi)), axis=1)
    covered_fraction = float(np.mean(counts >= 1))
    max_overlap = int(counts.max())

    admissible_all = all(is_admissible_rowwise(q, a_par) for _, q in pairs)
    iv_ok = True
    center_bound_m = 0.0
    center_bound_ok = True
    for idx, q in pairs:
        if idx >= 2:
            mw = m_weight_rowwise(q.center)
            if not (mw <= q.side <= a_par * mw):
                iv_ok = False
        if idx >= 1:
            norm = float(np.linalg.norm(np.asarray(q.center)))
            ratio = max(math.sqrt(idx) / norm, norm / idx ** (d / 2.0))
            center_bound_m = max(center_bound_m, ratio)
            if not (math.sqrt(idx) / 4.0 <= norm <= 4.0 * idx ** (d / 2.0)):
                center_bound_ok = False

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


# ---------------------------------------------------------------------------
# weak-type embedding constant
# ---------------------------------------------------------------------------


def embedding_factor(p: float, q: float, gamma_q: float) -> float:
    """(p/(p-q))^(1/q) * gamma(Q)^(1/q - 1/p), computed at high precision."""
    p_, q_, g = mp.mpf(p), mp.mpf(q), mp.mpf(gamma_q)
    return float((p_ / (p_ - q_)) ** (1 / q_) * g ** (1 / q_ - 1 / p_))


# ---------------------------------------------------------------------------
# unblocked pairwise reductions (the kernels before the tree was blocked)
# ---------------------------------------------------------------------------
#
# Verbatim copies of the level-by-level passes over the whole array.  The
# blocked kernels in ``gaussjn.kernels`` must reproduce them bit for bit.


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


def pairwise_sum_rows(values: np.ndarray) -> np.ndarray:
    """Row sums of a (k, n) array, each with the tree of ``pairwise_sum``.

    The passes pair the columns exactly as ``_tree_sum`` pairs the entries
    of one row, so row i of the result equals ``pairwise_sum(values[i])``
    bit for bit.
    """
    a = np.asarray(values, dtype=np.float64)
    n = a.shape[1]
    if n == 0:
        return np.zeros(a.shape[0])
    while n > 1:
        half = n // 2
        merged = a[:, 0 : 2 * half : 2] + a[:, 1 : 2 * half : 2]
        if n % 2 == 1:
            merged = np.concatenate([merged, a[:, n - 1 : n]], axis=1)
        a = merged
        n = a.shape[1]
    return a[:, 0]


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


# ---------------------------------------------------------------------------
# one-cube refinement loops (the quadrature before cubes were batched)
# ---------------------------------------------------------------------------
#
# Each loop builds its rule segment by segment, as C-ordered meshgrid nodes,
# and refines one cube level by level with the package's acceptance rules
# and the unblocked reductions above.  The batched refinement in
# ``gaussjn.fields`` must reproduce them bit for bit.


SQRT_PI_FLOAT = math.sqrt(math.pi)


def _panel_spans(a, b, level: int, left: bool, right: bool):
    """(start, width) of each panel of one segment, left to right.

    The 2^level uniform panels, except that at level >= 1 a panel with a
    flagged end on a kink is cut at 2^-j of its width from that end,
    j = level..1.
    """
    panels = 1 << level
    width = (b - a) / panels
    spans = []
    for k in range(panels):
        if level and k == 0 and left:
            spans.append((a, width * 2.0**-level))
            spans += [(a + width * 2.0**-j, width * 2.0**-j) for j in range(level, 0, -1)]
        elif level and k == panels - 1 and right:
            spans += [(b - width * 2.0 ** (1 - j), width * 2.0**-j) for j in range(1, level + 1)]
            spans.append((b - width * 2.0**-level, width * 2.0**-level))
        else:
            spans.append((a + width * k, width))
    return spans


def axis_rule_loop(segments, level: int, order: int, graded=None):
    """Nodes and normalized gamma weights for one axis, one segment at a time.

    ``graded`` holds, per segment, whether its (left, right) end is a kink.
    A segment without one is built with the uniform formula; a graded one
    panel by panel from ``_panel_spans``.
    """
    from gaussjn import kernels
    from gaussjn.fields import QuadratureError

    gx, gw = np.polynomial.legendre.leggauss(order)
    nodes = []
    weights = []
    for (a, b), (left, right) in zip(segments, graded or [(False, False)] * len(segments)):
        if level and (left or right):
            spans = _panel_spans(a, b, level, left, right)
            halves = np.array([0.5 * h for _, h in spans])
            mids = np.array([s + 0.5 * h for s, h in spans])
            x = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
            w = (halves[:, None] * gw[None, :]) * np.exp(-x * x).reshape(len(spans), order)
            nodes.append(x)
            weights.append(w.ravel() / SQRT_PI_FLOAT)
            continue
        panels = 1 << level
        width = (b - a) / panels
        half = 0.5 * width
        starts = a + width * np.arange(panels)
        mids = starts + half
        x = (mids[:, None] + half * gx[None, :]).ravel()
        w = (half * gw)[None, :] * np.exp(-x * x).reshape(panels, order)
        nodes.append(x)
        weights.append(w.ravel() / SQRT_PI_FLOAT)
    total = kernels.gauss1d(segments[0][0], segments[-1][1])
    if total <= 0.0:
        raise QuadratureError("axis interval has vanishing Gauss measure")
    return np.concatenate(nodes), np.concatenate(weights) / total


def tensor_rule_loop(cube, breaks, level: int, order: int, what: str, field_id: str, kinks=None):
    """Tensor nodes and weights of one cube, with the node cap of ``gaussjn.fields``.

    Segment ends on one of the ``kinks`` (which are also breaks) are graded.
    """
    from gaussjn import fields

    axis_nodes = []
    axis_weights = []
    count = 1
    for ax in range(cube.dim):
        lo, hi = cube.lo[ax], cube.hi[ax]
        cuts = sorted(c for c in breaks.get(ax, ()) if lo < c < hi)
        edges = [lo, *cuts, hi]
        segments = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
        on_kink = set((kinks or {}).get(ax, ())) & set(cuts)
        graded = [(a in on_kink, b in on_kink) for a, b in segments]
        x, w = axis_rule_loop(segments, level, order, graded)
        axis_nodes.append(x)
        axis_weights.append(w)
        count *= x.size
    if count > fields.MAX_TENSOR_NODES:
        raise fields.QuadratureError(
            f"{what} of field {field_id}: refinement level {level} would need {count} "
            f"tensor nodes (cap {fields.MAX_TENSOR_NODES}) on cube center {cube.center} "
            f"side {cube.side}"
        )
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = axis_weights[0]
    for ax in range(1, cube.dim):
        w = (w[:, None] * axis_weights[ax][None, :]).ravel()
    return pts, w


def _panels_loop(a, b, level: int, order: int, left: bool, right: bool):
    """Gauss nodes and half-width weights (no Gauss factor) of one segment's panels.

    Segment ends a and b are numbers, or arrays of them for one segment per
    entry; the result then has one row of nodes per entry.
    """
    gx, gw = np.polynomial.legendre.leggauss(order)
    spans = _panel_spans(a, b, level, left, right)
    halves = np.array([0.5 * h for _, h in spans]).T
    mids = np.array([s + 0.5 * h for s, h in spans]).T
    shape = halves.shape[:-1] + (-1,)
    return (mids[..., None] + halves[..., None] * gx).reshape(shape), (
        halves[..., None] * gw).reshape(shape)


def _gauss_weights(x, w, total):
    return w * np.exp(-x * x) / SQRT_PI_FLOAT / total


def iterated_rule_loop(cube, breaks, radii, graded, level: int, order: int, kinks=None):
    """The iterated rule of a d = 2 cube crossed by circles |x| = r, row by row.

    Returns its node count and layout for ``_iterated_nodes``, or None when
    no circle of ``radii`` crosses the open cube.  Axis 0 is cut
    at the breaks, where circles meet the axis-1 edges and breaks, and at
    the tangent points +-r when axis 1 straddles 0 (graded for the circles
    in ``graded``).  A row within its own width of a tangent point it lies
    left of +r (right of -r) is built in theta with x = c + s sin(theta).
    For each outer node, axis 1 is cut at the breaks and at the roots
    +-sqrt(r^2 - x0^2) that the row's midpoint has inside, graded toward
    roots of graded circles.
    """
    from gaussjn import kernels

    kinks = kinks or {}
    (lo0, lo1), (hi0, hi1) = cube.lo, cube.hi
    near = [min(max(0.0, lo), hi) for lo, hi in zip(cube.lo, cube.hi)]
    far = [max(abs(lo), abs(hi)) for lo, hi in zip(cube.lo, cube.hi)]
    rmin2, rmax2 = near[0] * near[0] + near[1] * near[1], far[0] * far[0] + far[1] * far[1]
    rs = sorted({r for r in radii if math.isfinite(r) and rmin2 < r * r < rmax2})
    if not rs:
        return None
    fixed1 = sorted({b for b in breaks.get(1, ()) if lo1 < b < hi1})
    flagged = {}
    for b in breaks.get(0, ()):
        flagged[b] = flagged.get(b, False) or b in kinks.get(0, ())
    for r in rs:
        for t in (lo1, *fixed1, hi1):
            if r * r - t * t >= 0.0:
                x = math.sqrt(r * r - t * t)
                flagged.setdefault(x, False)
                flagged.setdefault(-x, False)
        if lo1 < 0.0 < hi1:
            for t in (r, -r):
                flagged[t] = flagged.get(t, False) or r in graded
    cuts = sorted(b for b in flagged if lo0 < b < hi0)
    edges0 = [lo0, *cuts, hi0]
    total0, total1 = kernels.gauss1d(lo0, hi0), kernels.gauss1d(lo1, hi1)
    rows = []
    for a, b in zip(edges0, edges0[1:]):
        x0, w0 = _panels_loop(a, b, level, order, flagged.get(a, False), flagged.get(b, False))
        right = [r for r in rs if r >= b and r - b < b - a]
        left = [-r for r in rs if -r <= a and a + r < b - a]
        if left or right:
            if left and right:
                c, scale = 0.5 * (max(left) + min(right)), 0.5 * (min(right) - max(left))
            elif right:
                c, scale = a, min(right) - a
            else:
                c, scale = b, b - max(left)
            ta, tb = np.arcsin(np.clip(np.array([(a - c) / scale, (b - c) / scale]), -1.0, 1.0))
            ends = flagged.get(a, False), flagged.get(b, False)
            theta, w0 = _panels_loop(ta, tb, level, order, *ends)
            x0 = c + scale * np.sin(theta)
            w0 = w0 * (scale * np.cos(theta))
        w0 = _gauss_weights(x0, w0, total0)
        # the row's inner edges in their order at its midpoint: (value, radius or None, kink)
        mid = 0.5 * (a + b)
        template = [(v, None, v, v in kinks.get(1, ())) for v in fixed1]
        for sign in (1.0, -1.0):
            for r in rs:
                if r * r - mid * mid >= 0.0:
                    v = sign * math.sqrt(r * r - mid * mid)
                    if lo1 < v < hi1:
                        template.append((v, r, sign, r in graded))
        template.sort(key=lambda e: e[0])
        rows.append((x0, w0, template))
    # nodes per outer node: order * (2^level + level * graded ends) per inner segment
    ends = [sum(e[3] for e in template) * 2 for _, _, template in rows]
    count = sum(
        x0.size * order * ((len(template) + 1) * (1 << level) + level * g)
        for (x0, _, template), g in zip(rows, ends)
    )
    return count, rows, (lo1, hi1, total1)


def _iterated_nodes(rule, level: int, order: int):
    """Nodes and weights of an ``iterated_rule_loop`` layout, outer node by outer node.

    The outer nodes of one row share its edge template, so each inner
    segment is built for all of them at once, one column per node.
    """
    _, rows, (lo1, hi1, total1) = rule
    pts, weights = [], []
    for x0, w0, template in rows:
        edges = [(np.full(x0.size, lo1), False)]
        for _, r, value, kink in template:
            pos = np.full(x0.size, value) if r is None else value * np.sqrt(
                np.maximum(r * r - x0 * x0, 0.0))
            edges.append((np.minimum(np.maximum(pos, lo1), hi1), kink))
        edges.append((np.full(x0.size, hi1), False))
        x1, w1 = [], []
        for (ea, ka), (eb, kb) in zip(edges, edges[1:]):
            x, w = _panels_loop(ea, eb, level, order, ka, kb)
            x1.append(x)
            w1.append(_gauss_weights(x, w, total1) * w0[:, None])
        x1, w1 = np.concatenate(x1, axis=1), np.concatenate(w1, axis=1)
        pts.append(np.stack((np.repeat(x0, x1.shape[1]), x1.ravel()), axis=1))
        weights.append(w1.ravel())
    return np.concatenate(pts), np.concatenate(weights)


def _rule_loop(cube, breaks, level, order, what, field_id, kinks, radii, graded):
    """The iterated rule when a circle crosses the d = 2 cube, else the tensor rule."""
    from gaussjn import fields

    rule = iterated_rule_loop(cube, breaks, radii, graded, level, order, kinks) if (
        cube.dim == 2 and radii) else None
    if rule is None:
        return tensor_rule_loop(cube, breaks, level, order, what, field_id, kinks)
    if rule[0] > fields.MAX_TENSOR_NODES:
        raise fields.QuadratureError(
            f"{what} of field {field_id}: refinement level {level} would need {rule[0]} "
            f"tensor nodes (cap {fields.MAX_TENSOR_NODES}) on cube center {cube.center} "
            f"side {cube.side}"
        )
    return _iterated_nodes(rule, level, order)


def _refine_loop(
    what, f, cube, breaks, top, order, estimate, accept, tol_text="", kinks=None, radii=(),
    graded=(),
):
    from gaussjn.fields import QuadratureError

    prev = None
    last_diff = math.inf
    for level in range(top + 1):
        pts, w = _rule_loop(cube, breaks, level, order, what, f.id, kinks, radii, graded)
        est = estimate(f(pts), w)
        if prev is not None:
            ok, last_diff = accept(est, prev)
            if ok:
                return est
        prev = est
    raise QuadratureError(
        f"{what} of field {f.id} on cube center {cube.center} side {cube.side} "
        f"did not converge by refinement level {level} ({w.size} tensor nodes): "
        f"last diff {last_diff:.3e}{tol_text}"
    )


def _level_radii(f, center, sigmas) -> list:
    """The radii of f's level sets {|f - center| = sigma} in d = 2 (none without a solver)."""
    from gaussjn.fields import level_set_radii

    if f.radial is None:
        return []
    return [r for r in level_set_radii(f, center, np.asarray(sigmas)).ravel().tolist() if r == r]


def average_loop(f, cube, spec, *, transform=None, extra_breaks=None, kinks=None, radii=(),
                 graded=()):
    """Gamma-normalized mean of transform(f) on one cube, refined alone.

    ``kinks`` are breaks toward which the panels are graded.  In d = 2 the
    circles of f's kink radii and of ``radii`` cut the rows of the rule,
    graded toward those in ``graded``.
    """
    from gaussjn.fields import merge_breaks

    def estimate(vals, w):
        if transform is not None:
            vals = transform(vals)
        return _tree_sum(vals * w) / _tree_sum(w)

    def accept(est, prev):
        diff = abs(est - prev)
        return diff <= spec.abs_tol, diff

    breaks = merge_breaks(f.breaks, extra_breaks or {})
    return _refine_loop(
        "average", f, cube, breaks, spec.refinement_levels, spec.nodes_per_axis, estimate, accept,
        f" > {spec.abs_tol:.3e}", kinks, [*f.kink_radii, *radii], graded,
    )


def oscillation_loop(f, cube, q, spec):
    """osc_q(f, Q): the centering average, then the centered power average.

    For a fractional q the panels of the power average are graded toward
    the zero set of f - f_Q.
    """
    from gaussjn.fields import level_set_breaks

    center = average_loop(f, cube, spec)
    extra = level_set_breaks(f, center, np.zeros(1))
    radii = _level_radii(f, center, np.zeros(1))
    fractional = not float(q).is_integer()
    mean_pow = average_loop(
        f, cube, spec, transform=lambda v: np.abs(v - center) ** q, extra_breaks=extra,
        kinks=extra if fractional else None, radii=radii, graded=radii if fractional else (),
    )
    return mean_pow ** (1.0 / q)


def tail_profile_loop(f, cube, sigmas, spec, center=None):
    """Tail masses gamma({|f - c| > sigma}) on one shared node hierarchy."""
    from gaussjn.fields import level_set_breaks, merge_breaks
    from gaussjn.geometry import gaussian_measure

    sig = np.asarray(sorted(float(s) for s in sigmas), dtype=np.float64)
    c = average_loop(f, cube, spec) if center is None else float(center)
    gq = gaussian_measure(cube)

    def accept(est, prev):
        diff = float(np.max(np.abs(est - prev)))
        return diff <= spec.abs_tol, diff

    breaks = merge_breaks(f.breaks, level_set_breaks(f, c, sig))
    return _refine_loop(
        "tail profile", f, cube, breaks, 2 * spec.refinement_levels, spec.nodes_per_axis,
        lambda vals, w: tail_sums(np.abs(vals - c), w * gq, sig), accept,
        f" > {spec.abs_tol:.3e}", radii=[*f.kink_radii, *_level_radii(f, c, sig)],
    )


def weak_norm_loop(f, cube, p, spec, rel_tol=1e-3):
    """Exact weak sup against the node measure, refined until two levels agree."""
    from gaussjn.fields import _node_measure_weak_sup, merge_breaks
    from gaussjn.geometry import gaussian_measure

    gq = gaussian_measure(cube)

    def accept(est, prev):
        diff = abs(est - prev)
        return diff <= max(spec.abs_tol, rel_tol * abs(est)), diff

    return _refine_loop(
        "weak norm", f, cube, merge_breaks(f.breaks), 2 * spec.refinement_levels,
        spec.nodes_per_axis, lambda vals, w: _node_measure_weak_sup(np.abs(vals), w * gq, p),
        accept, radii=f.kink_radii,
    )


def node_measure_weak_sup_unique(av: np.ndarray, wg: np.ndarray, p: float) -> float:
    """The weak sup with ``np.unique`` picking the first index of each value."""
    if float(np.max(av)) <= 0.0:
        return 0.0
    order = np.argsort(av)
    sv = av[order]
    suffix = np.cumsum(wg[order][::-1])[::-1]
    levels_v, first = np.unique(sv, return_index=True)
    return float(np.max(levels_v * np.maximum(suffix[first], 0.0) ** (1.0 / p)))


# ---------------------------------------------------------------------------
# subdivision cascade: nested closures, depth first, and the whole-cube
# corner weights before the thirds cells
# ---------------------------------------------------------------------------


def partition_weight(cube, bits):
    """psi_i: indicator of the i-th corner cube divided by the covering count.

    Piecewise constant on the thirds grid; the divisor is 2^(number of
    middle thirds), a power of two, so sum_i psi_i == 1 exactly in floats.
    """
    lo = cube.lo_array()
    step = cube.side / 3.0
    t1, t2 = lo + step, lo + 2.0 * step

    def psi(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        inside = np.ones(pts.shape[0], dtype=bool)
        count = np.ones(pts.shape[0])
        for ax, b in enumerate(bits):
            x = pts[:, ax]
            low_third = x < t1[ax]
            high_third = x > t2[ax]
            middle = ~(low_third | high_third)
            if b == 0:
                inside &= low_third | middle
            else:
                inside &= high_third | middle
            count = np.where(middle, count * 2.0, count)
        return np.where(inside, 1.0 / count, 0.0)

    return psi


def subdivide_nested(atom, a_start: float, a_target: float, spec) -> list:
    """The subdivision cascade as a depth-first recursion over nested closures.

    Each piece is a closure that calls its parent's field, v psi_i -
    l_i chi_core, with its own ``average_gammas`` call over the thirds cells
    of its cube.  Returns the leaves in depth-first order as (cube, field,
    the l_i of the steps from the atom down).
    """
    from gaussjn.fields import ScalarField, average_gammas, merge_breaks
    from gaussjn.geometry import gaussian_measure, gaussian_measures, is_admissible
    from gaussjn.hardy import _corner_cube, subdivision_depth

    d = atom.cube.dim
    n_bound = subdivision_depth(a_start, a_target, d)
    out = []

    def recurse(v, cube, depth, path):
        if is_admissible(cube, a_target):
            out.append((cube, v, path))
            return
        if depth >= n_bound:
            raise RuntimeError(
                f"subdivision exceeded its depth bound {n_bound} on cube {cube.center}"
            )
        core = Cube(cube.center, cube.side / 3.0)
        gamma_core = gaussian_measure(core)
        lo, third = cube.lo_array(), cube.side / 3.0
        thirds = {ax: (float(lo[ax] + third), float(lo[ax] + 2.0 * third)) for ax in range(d)}
        breaks = merge_breaks(v.breaks, thirds)
        centers = cube.center_array() + third * (np.array(list(np.ndindex(*(3,) * d))) - 1.0)
        sides = np.full(len(centers), third)
        means = average_gammas(v, centers, sides, spec)
        integrals = [m * g for m, g in zip(means, gaussian_measures(centers, sides)[1].tolist())]
        corners = [tuple(int(b) for b in bits) for bits in np.ndindex(*(2,) * d)]
        psis = [partition_weight(cube, bits) for bits in corners]
        lambdas = [
            math.fsum(w * x for w, x in zip(psi(centers).tolist(), integrals)) / gamma_core
            for psi in psis
        ]
        s = math.fsum(lambdas)
        lambdas = [lam - s / (1 << d) for lam in lambdas]
        core_lo, core_hi = core.lo_array(), core.hi_array()
        for bits, psi, lam in zip(corners, psis, lambdas):

            def piece(pts, _psi=psi, _lam=lam):
                pts = np.atleast_2d(pts)
                in_core = np.all((pts > core_lo) & (pts < core_hi), axis=-1)
                return v(pts) * _psi(pts) - _lam * in_core.astype(np.float64)

            corner = _corner_cube(cube, bits)
            child = ScalarField(
                f"{v.id}|psi{bits}|centered", piece, dim=d, breaks=breaks,
                kink_radii=v.kink_radii,
            )
            recurse(child, corner, depth + 1, (*path, lam))

    recurse(atom.field, atom.cube, 0, ())
    return out


def corner_coefficients_whole_cube(v, cube, spec) -> np.ndarray:
    """The l_i of one cascade step on the cube, corner weight by corner weight.

    Each v psi_i is one field, averaged over the whole cube with the thirds
    hyperplanes as extra breaks; l_i is that average times gamma(Q) /
    gamma(core), and the l_i are then shifted by their mean, as the cascade
    does, in ``np.ndindex`` order of the corners.
    """
    from gaussjn.fields import ScalarField, average_gamma, merge_breaks
    from gaussjn.geometry import gaussian_measure

    d = cube.dim
    lo, third = cube.lo_array(), cube.side / 3.0
    thirds = {ax: (float(lo[ax] + third), float(lo[ax] + 2.0 * third)) for ax in range(d)}
    gamma_q, gamma_core = gaussian_measure(cube), gaussian_measure(Cube(cube.center, third))
    lambdas = []
    for bits in itertools.product((0, 1), repeat=d):
        psi = partition_weight(cube, bits)
        weighted = ScalarField(
            f"{v.id}|psi{bits}", lambda pts, psi=psi: v(pts) * psi(pts), dim=d,
            breaks=merge_breaks(v.breaks, thirds),
        )
        lambdas.append(average_gamma(weighted, cube, spec) * gamma_q / gamma_core)
    s = math.fsum(lambdas)
    return np.array([lam - s / (1 << d) for lam in lambdas])


# ---------------------------------------------------------------------------
# radial fields in d = 2: nested quad split at the exact circle crossings
# ---------------------------------------------------------------------------

#: f = phi(|x|^2) of the curved corpus fields in d = 2, with the radius of
#: {f = v} (None where there is none) and the radii where f itself kinks
RADIAL_FIELDS = {
    "radius_sq": (lambda s: s, lambda v: math.sqrt(v) if v > 0.0 else None, ()),
    "log_radial": (
        lambda s: math.log(max(1.0, math.sqrt(s))),
        lambda v: math.exp(v) if v > 0.0 else None,
        (1.0,),
    ),
    "exp_half_sq": (
        lambda s: math.exp(0.5 * s),
        lambda v: math.sqrt(2.0 * math.log(v)) if v > 1.0 else None,
        (),
    ),
    "radius_sq|trunc:1.0": (
        lambda s: min(s, 1.0),
        lambda v: math.sqrt(v) if 0.0 < v < 1.0 else None,
        (1.0,),
    ),
}


def _radial_quad(cube, inner, radii, constant=False):
    """Int_Q inner(x0, x1) dgamma by nested ``scipy.integrate.quad``.

    Both axes are split where the circles |x| = r of ``radii`` cross them:
    the inner axis at +-sqrt(r^2 - x0^2), the outer one at the tangent
    points +-r and where the circles meet the inner axis's ends.  When
    ``inner`` is ``constant`` between the inner cuts, each inner piece is
    its midpoint value times the piece's exact Gauss measure.
    """
    from scipy import integrate

    (lo0, lo1), (hi0, hi1) = cube.lo, cube.hi
    radii = [r for r in radii if r > 0.0]

    def cuts(vals, lo, hi):
        return sorted({v for v in vals if lo < v < hi})

    def row(x0):
        roots = [s * math.sqrt(r * r - x0 * x0) for r in radii if r > abs(x0) for s in (-1, 1)]
        edges = [lo1, *cuts(roots, lo1, hi1), hi1]
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            if constant:
                total += inner(x0, 0.5 * (a + b)) * 0.5 * math.sqrt(math.pi) * (
                    math.erf(b) - math.erf(a))
                continue
            val, _ = integrate.quad(
                lambda x1: inner(x0, x1) * math.exp(-x1 * x1), a, b, epsabs=1e-15, epsrel=1e-12,
                limit=200,
            )
            total += val
        return total * math.exp(-x0 * x0) / math.pi

    outer = [s * r for r in radii for s in (-1, 1)]
    outer += [s * math.sqrt(r * r - t * t) for r in radii for t in (lo1, hi1) if r > abs(t)
              for s in (-1, 1)]
    edges = [lo0, *cuts(outer, lo0, hi0), hi0]
    return math.fsum(
        integrate.quad(row, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


def radial_mean(fid, cube) -> float:
    """The gamma average of a ``RADIAL_FIELDS`` field on a d = 2 cube."""
    phi, _, kinks = RADIAL_FIELDS[fid]
    total = _radial_quad(cube, lambda x0, x1: phi(x0 * x0 + x1 * x1), kinks)
    return total / gauss_box_mp(cube.lo, cube.hi)


def radial_power(fid, cube, center: float, q: float) -> float:
    """The gamma average of |f - center|^q on a d = 2 cube."""
    phi, level, kinks = RADIAL_FIELDS[fid]
    r = level(center)
    total = _radial_quad(
        cube, lambda x0, x1: abs(phi(x0 * x0 + x1 * x1) - center) ** q,
        [*kinks, *([r] if r else [])],
    )
    return total / gauss_box_mp(cube.lo, cube.hi)


def radial_tail(fid, cube, center: float, sigma: float) -> float:
    """gamma({x in Q : |f - center| > sigma}) on a d = 2 cube."""
    phi, level, kinks = RADIAL_FIELDS[fid]
    radii = [r for v in (center - sigma, center + sigma) if (r := level(v))]
    return _radial_quad(
        cube, lambda x0, x1: float(abs(phi(x0 * x0 + x1 * x1) - center) > sigma),
        [*kinks, *radii], constant=True,
    )
