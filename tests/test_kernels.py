"""Low-level kernels against high-precision and brute-force oracles."""

import math

import numpy as np
import pytest

import oracles
from gaussjn import kernels
from gaussjn.covering import build_covering, low_discrepancy_points


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------


ERF_GRID = np.concatenate(
    [
        np.linspace(-6.0, 6.0, 241),
        np.geomspace(1e-12, 26.0, 80),
        -np.geomspace(1e-12, 26.0, 80),
        [0.0],
    ]
)


def test_erf_scalar_matches_mpmath():
    for x in ERF_GRID:
        ref = oracles.erf_mp(float(x))
        got = kernels.erf(float(x))
        assert got == pytest.approx(ref, rel=5e-15, abs=1e-300), f"erf({x})"


def test_erfc_scalar_matches_mpmath():
    # complementary branch is the hard one: relative accuracy must survive
    # 130 orders of magnitude of decay
    for x in ERF_GRID:
        ref = float(oracles.mp.erfc(oracles.mp.mpf(float(x))))
        got = kernels.erfc(float(x))
        assert got == pytest.approx(ref, rel=5e-13, abs=1e-300), f"erfc({x})"


def test_erf_identities():
    assert kernels.erf(0.0) == 0.0
    for x in [0.3, 1.7, 4.2]:
        assert kernels.erf(-x) == pytest.approx(-kernels.erf(x), rel=1e-15)
        assert kernels.erf(x) + kernels.erfc(x) == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# one-dimensional Gauss measure
# ---------------------------------------------------------------------------


GAUSS_INTERVALS = [
    (-1.0, 1.0),
    (0.0, 1.0),
    (-2.5, 0.5),
    (0.3, 0.31),
    (8.0, 9.0),
    (-9.0, -8.0),
    (26.0, 27.0),
    (-27.0, -26.0),
    (-30.0, 30.0),
]


def test_gauss1d_matches_mpmath():
    for a, b in GAUSS_INTERVALS:
        ref = oracles.gauss1d_mp(a, b)
        got = kernels.gauss1d(a, b)
        assert got == pytest.approx(ref, rel=5e-15, abs=1e-300), f"gamma(({a},{b}))"


def test_gauss1d_reference_value():
    # E(1) = erf(1): mass of the unit interval about the origin
    assert kernels.gauss1d(-1.0, 1.0) == pytest.approx(0.8427007929497149, abs=1e-15)


def test_gauss1d_is_subprobability():
    assert kernels.gauss1d(-40.0, 40.0) == pytest.approx(1.0, rel=1e-15)
    assert 0.0 < kernels.gauss1d(5.0, 5.1) < 1.0


# ---------------------------------------------------------------------------
# compensated summation
# ---------------------------------------------------------------------------


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 17, 1000, 100_001]:
        xs = rng.normal(scale=rng.uniform(1e-6, 1e6), size=n)
        ref = math.fsum(xs.tolist())
        got = kernels.pairwise_sum(xs)
        scale = math.fsum(np.abs(xs).tolist())
        assert abs(got - ref) <= 1e-13 * scale + 1e-300


def test_pairwise_sum_error_model():
    # pairwise growth is O(log n) in units of eps * sum|x|; check the model
    # holds with a modest constant on a cancellation-heavy input
    xs = np.array([1e16, 1.0, -1e16, 1.0] * 256)
    scale = math.fsum(np.abs(xs).tolist())
    budget = 8 * math.log2(xs.size) * np.finfo(np.float64).eps * scale
    assert abs(kernels.pairwise_sum(xs) - 512.0) <= budget


def test_pairwise_sum_empty_and_single():
    assert kernels.pairwise_sum(np.array([], dtype=np.float64)) == 0.0
    assert kernels.pairwise_sum(np.array([3.5])) == 3.5


def test_pairwise_sum_rows_matches_pairwise_sum_bitwise():
    # every row length up to 70 covers odd tails at several tree depths
    rng = np.random.default_rng(17)
    for n in range(71):
        rows = rng.normal(size=(5, n)) * 10.0 ** rng.integers(-8, 8, size=(5, n))
        got = kernels.pairwise_sum_rows(rows)
        assert got.shape == (5,)
        for row, value in zip(rows, got.tolist()):
            assert value.hex() == kernels.pairwise_sum(row).hex(), n


def test_weighted_sum_matches_product_pairwise():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=4097)
    wts = rng.uniform(0.0, 1.0, size=4097)
    got = kernels.weighted_sum(vals, wts)
    ref = math.fsum((vals * wts).tolist())
    scale = math.fsum(np.abs(vals * wts).tolist())
    assert abs(got - ref) <= 1e-13 * scale


def test_summation_backends_agree():
    """Strided, non-contiguous views sum bit for bit like their contiguous copies."""
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(9999, 3))
    ws = rng.uniform(size=(9999, 3))
    for view, wview in ((xs[::2, 1], ws[::2, 1]), (xs.T, ws.T), (xs[::-3], ws[::-3])):
        assert not view.flags.c_contiguous
        assert kernels.pairwise_sum(view) == kernels.pairwise_sum(np.ascontiguousarray(view))
        assert kernels.weighted_sum(view, wview) == kernels.weighted_sum(
            np.ascontiguousarray(view), np.ascontiguousarray(wview)
        )


# ---------------------------------------------------------------------------
# blocked reductions against the unblocked tree
# ---------------------------------------------------------------------------

BLOCK = kernels._BLOCK
# empty, tiny and odd sizes, one entry either side of a block, whole blocks
# and a short last one, and many blocks
BLOCK_SIZES = [0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 1_000_003]


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _spread(rng, shape):
    """Normal draws over 16 decades, so that any other order of additions shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_sums_match_unblocked_tree_bitwise(n):
    rng = np.random.default_rng(n)
    xs = _spread(rng, n)
    ws = rng.uniform(size=n)
    assert _hex(kernels.pairwise_sum(xs)) == _hex(oracles._tree_sum(xs))
    assert _hex(kernels.weighted_sum(xs, ws)) == _hex(oracles._tree_sum(xs * ws))
    rows = _spread(rng, (3, n))
    assert _hex(kernels.pairwise_sum_rows(rows)) == _hex(oracles.pairwise_sum_rows(rows))


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_tail_sums_match_unblocked_tree_bitwise(n):
    rng = np.random.default_rng(n + 1)
    av = np.abs(rng.normal(size=n))
    av[::7] = av[:1]
    w = rng.uniform(size=n) * 10.0 ** rng.integers(-8, 1, size=n)
    w[::13] = 0.0
    # unsorted and repeated sigmas, some equal to node values (the mask is
    # strict), zero, and one above every value
    sig = np.concatenate([[0.0, 2.5, 0.7, 0.7], av[:6], [np.inf]])
    assert _hex(kernels.tail_sums(av, w, sig)) == _hex(oracles.tail_sums(av, w, sig))


def test_blocked_reductions_on_views_match_unblocked_tree_bitwise():
    rng = np.random.default_rng(5)
    base = _spread(rng, (2 * BLOCK + 3, 3))
    for view in (base[:, 1], base[::-1, 2], base.T):
        assert not view.flags.c_contiguous
        flat = np.ascontiguousarray(view).ravel()
        assert _hex(kernels.pairwise_sum(view)) == _hex(oracles._tree_sum(flat))
        assert _hex(kernels.weighted_sum(view, view)) == _hex(oracles._tree_sum(flat * flat))
    # (k, n) matrices with rows longer and shorter than a block
    for rows in (base.T, base[::-1].T, _spread(rng, (BLOCK - 5, 4)).T, base[:40].T):
        assert _hex(kernels.pairwise_sum_rows(rows)) == _hex(oracles.pairwise_sum_rows(rows))
    av, w = np.abs(base[::-1, 0]), np.abs(base[:, 1])
    sig = np.array([0.0, 1e-3, float(av[5]), 1.0])
    assert _hex(kernels.tail_sums(av, w, sig)) == _hex(oracles.tail_sums(av, w, sig))


def test_kept_block_buffers_are_never_returned_nor_shared_between_threads():
    import sys
    import threading

    rng = np.random.default_rng(9)
    sig = np.array([0.0, 1e-3, 1.0])
    cases = [(np.abs(_spread(rng, n)), np.abs(_spread(rng, n))) for n in [BLOCK, BLOCK + 5] * 2]
    want = [
        (_hex(oracles.tail_sums(av, w, sig)), _hex(oracles._tree_sum(av * w))) for av, w in cases
    ]
    # a later call with the same shapes reuses the buffers, not the results
    first = kernels.tail_sums(*cases[0], sig), kernels.weighted_sum(*cases[0])
    kernels.tail_sums(*cases[2], sig), kernels.weighted_sum(*cases[2])
    assert (_hex(first[0]), _hex(first[1])) == want[0]
    got = [None] * len(cases)

    def work(k):
        for _ in range(5):
            got[k] = _hex(kernels.tail_sums(*cases[k], sig)), _hex(kernels.weighted_sum(*cases[k]))
            if got[k] != want[k]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


# ---------------------------------------------------------------------------
# membership counting and tail sums
# ---------------------------------------------------------------------------


def _membership_cases():
    """(name, points, lo, hi) inputs for the grid-indexed membership count."""
    rng = np.random.default_rng(23)
    for d in (1, 2, 3):
        pts = rng.uniform(-3.0, 3.0, size=(4000, d))
        lo = rng.uniform(-3.0, 0.0, size=(15, d))
        hi = lo + rng.uniform(0.1, 3.0, size=(15, d))
        yield f"random-d{d}", pts, lo, hi
    for d, depth in ((1, 8), (2, 4), (3, 1)):
        cov = build_covering(depth, d)
        cubes = [q for _, q in oracles.covering_cubes(cov)]
        lo = np.array([q.lo for q in cubes])
        hi = np.array([q.hi for q in cubes])
        sobol = low_discrepancy_points(cov, 2000, seed=d)
        yield f"covering-d{d}", sobol, lo, hi
        # every face value of every cube, on every axis, with the other
        # coordinates taken from a cube center: points exactly on faces
        faces = []
        for axis in range(d):
            for bound in (lo, hi):
                p = np.array([q.center for q in cubes])
                p[:, axis] = bound[:, axis]
                faces.append(p)
        yield f"covering-faces-d{d}", np.concatenate(faces), lo, hi
        # grid cell edges origin + k * step on every axis, and the face
        # values mixed across axes
        grid = kernels._BoxGrid(lo, hi)
        ks = np.arange(-2, int(grid.shape.max()) + 3)
        edges = grid.origin[None, :] + ks[:, None] * grid.step
        mixed = rng.choice(np.concatenate([lo.ravel(), hi.ravel(), edges.ravel()]), (2000, d))
        yield f"covering-cell-edges-d{d}", np.concatenate([edges, mixed]), lo, hi
    lo = np.array([[-1.0, -1.0]])
    hi = np.array([[1.0, 0.5]])
    yield "no-points", np.empty((0, 2)), lo, hi
    yield "no-boxes", rng.uniform(-1.0, 1.0, (50, 2)), np.empty((0, 2)), np.empty((0, 2))
    single = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 0.5], [0.99, 0.49], [1.0, 0.0]])
    yield "single-box", np.concatenate([single, rng.uniform(-2.0, 2.0, (500, 2))]), lo, hi
    lo = np.array([[0.0, 0.0], [0.5, 0.0], [0.2, 0.2]])
    hi = np.array([[1.0, 1.0], [0.5, 1.0], [0.1, 0.9]])  # two boxes with hi <= lo on axis 0
    yield "empty-boxes", rng.uniform(-0.5, 1.5, (500, 2)), lo, hi
    lo = rng.uniform(-1.0, 1.0, (40, 2))
    hi = lo + 0.2
    far = np.array([[50.0, 0.0], [-50.0, 0.0], [0.0, 1e300], [-1e300, -1e300], [0.5, -30.0]])
    yield "outside-bounding-box", far, lo, hi
    lo = rng.uniform(-1.0, 1.0, (60, 3))
    hi = lo + 0.1
    lo[17] = -10.0
    hi[17] = 10.0  # 100 times wider than the others, 200^3 cells at their step
    yield "one-wide-box", rng.uniform(-12.0, 12.0, (4000, 3)), lo, hi
    for d in (1, 2, 3):
        # small boxes far apart, so most grid cells hold no box; every third
        # box has zero width on axis 0; points on faces, centres and far off
        lo = rng.uniform(-20.0, 20.0, size=(30, d))
        hi = lo + rng.uniform(0.1, 0.5, size=(30, d))
        hi[::3, 0] = lo[::3, 0]
        faces = rng.choice(np.concatenate([lo.ravel(), hi.ravel()]), size=(3000, d))
        far = rng.uniform(-1e3, 1e3, size=(500, d))
        yield f"sparse-d{d}", np.concatenate([faces, (lo + hi) / 2, far]), lo, hi


def test_count_membership_matches_brute():
    for name, pts, lo, hi in _membership_cases():
        got = kernels.count_membership(pts, lo, hi)
        ref = oracles.points_in_cube_brute(pts, lo, hi)
        np.testing.assert_array_equal(got, ref, err_msg=name)
        # the index stays O(m) in size whatever the box widths
        entries = kernels._BoxGrid(lo, hi).keys.size
        assert entries <= kernels._ENTRIES_PER_BOX * 2 ** lo.shape[1] * len(lo), name


def test_box_grid_entries_match_the_per_axis_loop():
    # each box's base key plus its span's offsets gives the entries the
    # per-axis rank loop gave, in the same order, on the grid's own step
    cases = [(name, lo, hi) for name, _, lo, hi in _membership_cases()]
    for depth in (4, 6):
        _, centers, sides = build_covering(depth, 3).arrays()
        half = 0.5 * sides[:, None]
        cases.append((f"covering-d3-depth{depth}", centers - half, centers + half))
    for name, lo, hi in cases:
        grid = kernels._BoxGrid(lo, hi)
        keys, boxes = oracles.box_grid_entries(grid, lo, hi)
        np.testing.assert_array_equal(grid.keys, keys, err_msg=name)
        np.testing.assert_array_equal(grid.boxes, boxes, err_msg=name)


def test_earlier_neighbours_hold_every_meeting_box():
    rng = np.random.default_rng(37)
    lo = rng.uniform(-2.0, 2.0, (120, 2))
    hi = lo + rng.uniform(0.05, 0.4, (120, 2))
    lo[5], hi[5] = (-20.0, -20.0), (20.0, 20.0)  # 100 times the median side
    lo[40:50], hi[40:50] = hi[30:40], hi[30:40] + 0.1  # corners touch exactly
    neighbours = kernels.earlier_neighbours(lo, hi)
    assert len(neighbours) == 120
    for i in range(120):
        near = neighbours[i].tolist()
        assert near == sorted(set(near)) and all(j < i for j in near)
        for j in range(i):
            if np.all(lo[j] <= hi[i]) and np.all(lo[i] <= hi[j]):
                assert j in near, (i, j)
    assert kernels.earlier_neighbours(np.empty((0, 3)), np.empty((0, 3))) == []


def test_count_membership_boundary_is_exclusive():
    pts = np.array([[0.0], [0.5], [1.0]])
    lo = np.array([[0.0]])
    hi = np.array([[1.0]])
    np.testing.assert_array_equal(kernels.count_membership(pts, lo, hi), [0, 1, 0])


def test_tail_sums_matches_brute():
    rng = np.random.default_rng(29)
    av = np.abs(rng.normal(size=5000))
    w = rng.uniform(0.0, 1e-3, size=5000)
    sig = np.sort(rng.uniform(0.0, 3.0, size=17))
    got = kernels.tail_sums(av, w, sig)
    ref = np.array([math.fsum(w[av > s].tolist()) for s in sig])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)


def test_tail_sums_monotone_nonincreasing():
    rng = np.random.default_rng(31)
    av = np.abs(rng.normal(size=1000))
    w = rng.uniform(0.0, 1.0, size=1000)
    sig = np.linspace(0.0, 4.0, 33)
    tails = kernels.tail_sums(av, w, sig)
    assert np.all(np.diff(tails) <= 1e-12)


def test_warmup_idempotent():
    kernels.warmup()
    kernels.warmup()
    assert kernels.BACKEND == "numpy"
