"""Cubes, balls, admissibility, and exact Gauss measure of boxes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gaussjn.covering import build_covering
from gaussjn.geometry import (
    Ball,
    Cube,
    admissible_mask,
    center_norms,
    child_offsets,
    comparability_ratio,
    cube_arrays,
    cubes_disjoint,
    gaussian_measure,
    gaussian_measures,
    is_admissible,
    lebesgue_measure,
    m_weight,
    m_weight_points,
    overlapping_pairs,
)

coords = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
sides = st.floats(1e-3, 6.0, allow_nan=False, allow_infinity=False)
dims = st.integers(1, 3)


@st.composite
def cube_strategy(draw, d=None):
    dd = d if d is not None else draw(dims)
    center = tuple(draw(coords) for _ in range(dd))
    return Cube(center, draw(sides))


def _bits(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


# ---------------------------------------------------------------------------
# construction and containment
# ---------------------------------------------------------------------------


def test_cube_rejects_bad_side():
    with pytest.raises(ValueError):
        Cube((0.0,), 0.0)
    with pytest.raises(ValueError):
        Cube((0.0,), -1.0)
    with pytest.raises(ValueError):
        Cube((0.0,), math.inf)
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0)


def test_cube_rejects_bad_center():
    for center in [(), (math.nan,), (0.0, math.inf), (-math.inf, 1.0)]:
        with pytest.raises(ValueError):
            Cube(center, 1.0)
    with pytest.raises(ValueError):
        Cube((0.0,), math.nan)
    q = Cube(np.array([1, 2]), np.float32(0.5))
    assert q.center == (1.0, 2.0) and type(q.center[0]) is float and type(q.side) is float


def test_cube_corners():
    q = Cube((1.0, -2.0), 4.0)
    assert q.lo == (-1.0, -4.0)
    assert q.hi == (3.0, 0.0)
    assert q.dim == 2
    assert q.center_norm() == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_contains_point_is_open():
    q = Cube((0.0,), 2.0)
    assert q.contains_point((0.999,))
    assert not q.contains_point((1.0,))
    assert not q.contains_point((-1.0,))


@given(cube_strategy())
@settings(max_examples=100, deadline=None)
def test_cube_contains_itself_and_children(q):
    assert q.contains_cube(q)
    for kid in q.dyadic_children():
        assert q.contains_cube(kid)
        assert not kid.contains_cube(q)


@given(cube_strategy())
@settings(max_examples=100, deadline=None)
def test_dyadic_children_match_offset_loop(q):
    kids = q.dyadic_children()
    ref = oracles.dyadic_children_loop(q)
    assert [(_bits(k.center), k.side) for k in kids] == [(_bits(k.center), k.side) for k in ref]
    # the forest levels use the same offsets, broadcast over many sides
    many = child_offsets(q.dim, np.array([q.side, 2.0 * q.side]))
    assert many.shape == (2, 2**q.dim, q.dim)
    assert _bits(many[0]) == _bits(child_offsets(q.dim, q.side))


@given(cube_strategy())
@settings(max_examples=60, deadline=None)
def test_dyadic_children_tile(q):
    kids = q.dyadic_children()
    assert len(kids) == 2**q.dim
    for kid in kids:
        assert kid.side == pytest.approx(0.5 * q.side, rel=1e-15)
    for i, k1 in enumerate(kids):
        for k2 in kids[i + 1 :]:
            assert cubes_disjoint(k1, k2)
    # sampled interior points of the parent land in exactly one child
    rng = np.random.default_rng(5)
    pts = q.center_array() + (rng.uniform(-0.5, 0.5, size=(200, q.dim)) * q.side)
    counts = np.zeros(200, dtype=int)
    for kid in kids:
        counts += kid.contains_points(pts).astype(int)
    assert np.all(counts <= 1)
    assert counts.mean() > 0.95  # only points on the shared null faces miss


def test_cubes_disjoint_tolerates_shared_face():
    left = Cube((-0.5,), 1.0)
    right = Cube((0.5,), 1.0)
    assert cubes_disjoint(left, right)
    # an overlap a hair past boundary rounding is detected
    assert not cubes_disjoint(left, Cube((0.5 - 1e-9,), 1.0))
    # one within rounding slack of the face is still treated as disjoint
    assert cubes_disjoint(left, Cube((0.5 - 1e-14,), 1.0))


def _overlap_families():
    """Families of cubes that abut, overlap by a few ulps, or overlap for real."""
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        rest = (0.0,) * (d - 1)
        q = Cube((0.1,) + (0.7,) * (d - 1), 0.3)
        # abutting dyadic grandchildren: 0.3 is no binary fraction, so many
        # render with an overlap of a few ulps
        halves = [g for child in q.dyadic_children() for g in child.dyadic_children()]
        yield halves
        face = Cube((0.5,) + rest, 1.0)
        yield [
            Cube((-0.5,) + rest, 1.0),
            face,
            Cube((0.5 - 1e-14,) + rest, 1.0),  # within the slack: disjoint from the left cube
            Cube((0.5 - 1e-9,) + rest, 1.0),  # a hair past it: overlaps
            Cube((0.25,) + rest, 0.5),  # inside the face cube
            face,  # a duplicate
            Cube((-3.0,) + rest, 0.5),
        ]
        yield halves + [Cube((0.1 + 0.3 / 8.0,) + (0.7,) * (d - 1), 0.075), q]
        # cubes on a lattice of their own side, some moved by a fraction or by ulps
        centers = rng.integers(-3, 4, size=(40, d)) * 0.3
        moved = rng.random(40) < 0.3
        centers[moved] += rng.choice([0.1, 2e-16, -1e-15], size=(moved.sum(), 1))
        yield [Cube(tuple(c), 0.3) for c in centers.tolist()]


def test_overlapping_pairs_match_pairwise_cubes_disjoint():
    sizes = []
    for cubes in _overlap_families():
        want = [(i, j) for i in range(len(cubes)) for j in range(i)
                if not cubes_disjoint(cubes[i], cubes[j])]
        later, earlier = overlapping_pairs(*cube_arrays(cubes))
        assert list(zip(later.tolist(), earlier.tolist())) == want
        sizes.append(len(want))
    # the abutting families have no overlap, every other one has some
    assert sizes[::4] == [0, 0, 0] and min(sizes[1::4] + sizes[2::4] + sizes[3::4]) > 0
    assert [p.size for p in overlapping_pairs(np.empty((0, 2)), np.empty(0))] == [0, 0]


def test_gaussian_measures_match_gaussian_measure_bitwise():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        centers = rng.normal(size=(50, d)) * 3.0
        sides = rng.uniform(1e-3, 4.0, size=50)
        factors, gamma = gaussian_measures(centers, sides)
        cubes = [Cube(tuple(c), s) for c, s in zip(centers.tolist(), sides.tolist())]
        assert factors.shape == (50, d)
        assert _bits(gamma) == _bits([gaussian_measure(q) for q in cubes])
        assert _bits(factors.prod(axis=1)) == _bits(gamma)


def test_contains_cube_tolerates_boundary_rounding():
    outer = Cube((0.0,), 1.0)
    inner = Cube((0.25,), 0.5 + 1e-14)  # sticks out by rounding-level fuzz
    assert outer.contains_cube(inner)
    assert not outer.contains_cube(Cube((0.25,), 0.5 + 1e-9))


# ---------------------------------------------------------------------------
# admissibility weight
# ---------------------------------------------------------------------------


@given(st.lists(coords, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_m_weight_definition(x):
    r = math.sqrt(math.fsum(v * v for v in x))
    expect = 1.0 if r <= 1.0 else 1.0 / r
    assert m_weight(x) == pytest.approx(expect, rel=1e-15)
    assert 0.0 < m_weight(x) <= 1.0


def _weight_rows():
    rng = np.random.default_rng(11)
    for d in range(1, 5):
        yield build_covering(4 if d < 4 else 2, d).arrays()[1]
    for d in range(1, 6):
        scale = rng.choice([0.3, 3.0, 30.0], size=(10_000, 1))
        yield rng.normal(size=(10_000, d)) * scale


def test_m_weight_points_vectorized():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.5, 0.0]])
    np.testing.assert_allclose(m_weight_points(pts), [1.0, 0.2, 1.0], rtol=1e-15)
    # bit for bit the row-wise np.linalg.norm of the scalar m, on covering
    # centers (d = 1-4) and random points (d = 1-5)
    for rows in _weight_rows():
        norms = [np.linalg.norm(row) for row in rows]
        assert _bits(center_norms(rows)) == _bits(norms)
        assert _bits(m_weight_points(rows)) == _bits([oracles.m_weight_rowwise(r) for r in rows])
        for row in rows[:200]:
            assert m_weight(row) == oracles.m_weight_rowwise(row)
            assert Cube(tuple(row), 1.0).center_norm() == np.linalg.norm(row)


def test_admissible_mask_matches_is_admissible():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        centers = rng.normal(size=(2000, d)) * 4.0
        sides = rng.uniform(0.01, 3.0, size=2000)
        mask = admissible_mask(centers, sides, 2.0)
        assert 0 < mask.sum() < mask.size
        cubes = [Cube(tuple(c), s) for c, s in zip(centers, sides)]
        assert mask.tolist() == [is_admissible(q, 2.0) for q in cubes]
        assert mask.tolist() == [oracles.is_admissible_rowwise(q, 2.0) for q in cubes]
    with pytest.raises(ValueError):
        admissible_mask(centers, sides, 0.0)


def test_is_admissible_boundary_is_exact():
    a = 2.0
    c = (2.0,)  # m = 1/2, largest admissible side = 1.0 exactly
    assert is_admissible(Cube(c, 1.0), a)
    assert is_admissible(Cube(c, float(np.nextafter(1.0, 0.0))), a)
    assert not is_admissible(Cube(c, float(np.nextafter(1.0, 2.0))), a)


@given(cube_strategy(), st.floats(0.5, 4.0))
@settings(max_examples=200, deadline=None)
def test_is_admissible_matches_inequality(q, a):
    assert is_admissible(q, a) == (q.side <= a * m_weight(q.center))


# ---------------------------------------------------------------------------
# Gauss measure
# ---------------------------------------------------------------------------


def test_gaussian_measure_reference_interval():
    assert gaussian_measure(Cube((0.0,), 2.0)) == pytest.approx(
        0.8427007929497149, abs=1e-15
    )


@given(cube_strategy())
@settings(max_examples=150, deadline=None)
def test_gaussian_measure_matches_mpmath(q):
    # narrow intervals subtract nearly equal error-function values, which
    # amplifies their last-digit noise; 1e-10 relative still leaves an order
    # of magnitude of slack below the coarsest downstream tolerance
    ref = oracles.gauss_box_mp(q.lo, q.hi)
    assert gaussian_measure(q) == pytest.approx(ref, rel=1e-10, abs=1e-300)
    assert 0.0 < gaussian_measure(q) < 1.0


def test_gaussian_measure_tight_on_wide_boxes():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        center = tuple(rng.uniform(-6, 6, size=d).tolist())
        q = Cube(center, float(rng.uniform(0.5, 6.0)))
        ref = oracles.gauss_box_mp(q.lo, q.hi)
        assert gaussian_measure(q) == pytest.approx(ref, rel=5e-13, abs=1e-300)


@given(cube_strategy())
@settings(max_examples=80, deadline=None)
def test_gaussian_measure_dyadic_additivity(q):
    # The absolute floor is the double-precision limit of telescoped
    # complementary-error differences: each boundary evaluation carries
    # ~2.5e-16 absolute rounding that does not shrink with the cube, so a
    # tiny cube far from the origin (mass ~1e-8) cannot satisfy a purely
    # relative tolerance no matter how the error integral is computed.
    kids = q.dyadic_children()
    total = math.fsum(gaussian_measure(k) for k in kids)
    assert total == pytest.approx(gaussian_measure(q), rel=1e-11, abs=2e-15)


def test_lebesgue_measure():
    assert lebesgue_measure(Cube((5.0, -5.0, 0.0), 0.5)) == pytest.approx(0.125, rel=1e-15)


# ---------------------------------------------------------------------------
# doubling comparability on admissible cubes
# ---------------------------------------------------------------------------


def test_comparability_ratio_reference():
    inner = Cube((2.0,), 0.5)
    outer = Cube((2.0,), 1.0)
    r = comparability_ratio(inner, outer, 2.0)
    assert r >= 1.0
    # ratio of Lebesgue-normalized densities stays bounded on admissible cubes
    assert math.isfinite(r)


@given(st.floats(0.6, 6.0), st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_comparability_bounded_on_admissible_pairs(center, frac):
    a = 2.0
    side_out = a * m_weight((center,))
    outer = Cube((center,), side_out)
    inner = Cube((center,), frac * side_out)
    r = comparability_ratio(inner, outer, a)
    assert 1.0 <= r < math.exp(2.0 * a * (a + 1.0))
