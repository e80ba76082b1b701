"""Scalar fields, adaptive quadrature, oscillations, and distribution tails."""

import math
import re

import numpy as np
import pytest

import oracles
from gaussjn import fields, kernels
from gaussjn.covering import build_covering
from gaussjn.fields import (
    QuadratureError,
    QuadratureSpec,
    ScalarField,
    StepField,
    average_gamma,
    corpus,
    corpus_by_id,
    corpus_manifest,
    gauss_average,
    growth_tail_bound,
    integral_gamma,
    l1_gamma_norm,
    level_set_breaks,
    lq_norm,
    make_random_step,
    oscillation,
    oscillations,
    power_average,
    product_field,
    restrict_field,
    shift_field,
    step_average,
    step_lq_norm,
    step_oscillation,
    step_weak_lp_norm,
    tail_profile,
    tail_profiles,
    truncate,
    weak_lp_norm,
)
from gaussjn.geometry import Cube, cube_arrays, gaussian_measure
from gaussjn.jnp import make_candidates

P1 = Cube((0.0,), 2.0)
OFFSET = Cube((0.7,), 1.1)


def _rsq(d=1):
    return corpus_by_id(d)["radius_sq"]


def _sign(d=1):
    return corpus_by_id(d)["sign0"]


# ---------------------------------------------------------------------------
# spec and field plumbing
# ---------------------------------------------------------------------------


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_axis=1)
    with pytest.raises(ValueError):
        QuadratureSpec(refinement_levels=0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)


def test_scalar_field_dimension_guard():
    f = ScalarField("flat", lambda p: p[:, 0] * 0.0, dim=2)
    with pytest.raises(ValueError):
        f(np.zeros((3, 1)))
    assert f(np.zeros((3, 2))).shape == (3,)


def test_scalar_field_breaks_sorted():
    f = ScalarField("s", lambda p: p[:, 0], breaks={0: (0.5, -0.5, 0.0)})
    assert f.breaks[0] == (-0.5, 0.0, 0.5)


def test_combinators_pointwise():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(50, 1))
    f = _rsq()
    g = _sign()
    np.testing.assert_allclose(shift_field(f, 0.3)(pts), f(pts) - 0.3, rtol=1e-15)
    np.testing.assert_allclose(product_field(f, g)(pts), f(pts) * g(pts), rtol=1e-15)
    r = restrict_field(f, P1)
    inside = P1.contains_points(pts)
    np.testing.assert_allclose(r(pts)[inside], f(pts)[inside], rtol=1e-15)
    assert np.all(r(pts)[~inside] == 0.0)


def test_truncate_clips_and_records_growth():
    f = _rsq()
    t = truncate(f, 0.5)
    pts = np.linspace(-2, 2, 41).reshape(-1, 1)
    np.testing.assert_allclose(t(pts), np.clip(f(pts), -0.5, 0.5), rtol=1e-15)
    assert t.growth == (0.5, 0.0)
    # level-set solver feeds the truncation hyperplanes into the break set
    assert any(abs(b - math.sqrt(0.5)) < 1e-12 for b in t.breaks.get(0, ()))
    with pytest.raises(ValueError):
        truncate(f, 0.0)


# ---------------------------------------------------------------------------
# node layout
# ---------------------------------------------------------------------------


def _layout_fields(d):
    """Every corpus field, alone and under every combinator, in dimension d."""
    cube = Cube((0.2,) * d, 1.5)
    by_id = corpus_by_id(d)
    out = [product_field(by_id["radius_sq"], by_id["sign0"])]
    for f in corpus(d):
        out += [f, shift_field(f, 0.3), restrict_field(f, cube), truncate(f, 2.0)]
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_fields_agree_bitwise_on_column_and_row_major_nodes(d):
    rng = np.random.default_rng(d)
    pts = rng.normal(scale=1.5, size=(4099, d))
    # the origin, a point of the log_radial sphere, a corner of the cube
    pts[:3] = 0.0
    pts[1, 0] = 1.0
    pts[2] = -0.55
    rows, cols = np.ascontiguousarray(pts), np.asfortranarray(pts)
    for f in _layout_fields(d):
        assert f(rows).tobytes() == f(cols).tobytes(), f.id
    if d >= 8:
        # numpy sums eight or more entries of a contiguous row in another
        # order than a column-major array's, so a sum along axis=-1 moved
        # this oscillation (column-major nodes) off the row-major loop's
        f = corpus_by_id(d)["log_radial"]
        cube = Cube((0.96, 0.37, 0.3, 0.38, -0.22, -0.73, 0.44, 0.05, -0.5)[:d], 0.97)
        spec = QuadratureSpec(nodes_per_axis=2, refinement_levels=1, abs_tol=1.0)
        assert oscillation(f, cube, 1.5, spec).hex() == oracles.oscillation_loop(
            f, cube, 1.5, spec
        ).hex()


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_rule_is_the_meshgrid_rule_in_column_major_order(d):
    cube = Cube((0.3,) + (-0.4,) * (d - 1), 1.2)
    breaks = {0: (0.1, 0.5), d - 1: (-0.5,)}
    for level in (0, 2):
        pts, w = fields.tensor_rule(cube, breaks, level, 3)
        ref_pts, ref_w = oracles.tensor_rule_loop(cube, breaks, level, 3, "rule", "f")
        assert pts.flags.f_contiguous
        assert np.array_equal(pts, ref_pts)
        assert np.array_equal(w, ref_w)


def test_corpus_well_formed():
    for d in (1, 2):
        fields = corpus(d)
        ids = [f.id for f in fields]
        assert len(ids) == len(set(ids))
        assert {"const_one", "coord0", "radius_sq", "sign0", "step0"} <= set(ids)
        byid = corpus_by_id(d)
        assert set(byid) == set(ids)
        manifest = corpus_manifest(d)
        assert [row["id"] for row in manifest] == ids
        pts = np.zeros((2, d))
        for f in fields:
            out = f(pts)
            assert out.shape == (2,)
            assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# averages against high-precision oracles
# ---------------------------------------------------------------------------


def test_average_of_constant_is_exact(spec):
    one = corpus_by_id(1)["const_one"]
    assert gauss_average(one, P1, spec) == 1.0
    assert gauss_average(one, OFFSET, spec) == 1.0
    assert oscillation(one, P1, 2.0, spec) == 0.0


def test_average_radius_sq_matches_antiderivative(spec):
    for cube in (P1, OFFSET, Cube((-1.3,), 0.4)):
        ref = oracles.t2_average_mp(cube.lo[0], cube.hi[0])
        got = gauss_average(_rsq(), cube, spec)
        assert got == pytest.approx(ref, abs=2e-12), cube


def test_average_radius_sq_2d(spec):
    # additivity of coordinates: E(x^2 + y^2) = E(x^2) + E(y^2) per box axis
    cube = Cube((0.5, -0.25), 1.5)
    ref = oracles.t2_average_mp(-0.25, 1.25) + oracles.t2_average_mp(-1.0, 0.5)
    got = gauss_average(_rsq(2), cube, spec)
    assert got == pytest.approx(ref, abs=5e-12)


def test_integral_gamma_consistent(spec):
    f = _rsq()
    got = integral_gamma(f, OFFSET, spec)
    ref = oracles.t2_integral_mp(OFFSET.lo[0], OFFSET.hi[0])
    assert got == pytest.approx(ref, abs=2e-12)


def test_average_smooth_transcendental(spec):
    f = ScalarField("cosx", lambda p: np.cos(p[:, 0]))
    ref = oracles.gauss_quad_mp(lambda t: mp_cos(t), -1.0, 1.0) / oracles.gauss1d_mp(
        -1.0, 1.0
    )
    got = gauss_average(f, P1, spec)
    assert got == pytest.approx(ref, abs=1e-11)


def mp_cos(t):
    return oracles.mp.cos(t)


# ---------------------------------------------------------------------------
# oscillation and Lq norms
# ---------------------------------------------------------------------------


def test_oscillation_radius_sq_vs_mp(spec):
    f = _rsq()
    a, b = P1.lo[0], P1.hi[0]
    c = oracles.t2_average_mp(a, b)
    root = math.sqrt(c)
    mass = oracles.gauss1d_mp(a, b)
    # split the kink |t^2 - c| at +-sqrt(c) and integrate each smooth piece
    pieces = [(a, -root), (-root, root), (root, b)]
    total = 0.0
    for lo_, hi_ in pieces:
        total += oracles.gauss_quad_mp(lambda t: abs(t * t - c), lo_, hi_)
    ref = total / mass
    got = oscillation(f, P1, 1.0, spec)
    assert got == pytest.approx(ref, abs=5e-11)


def test_oscillation_q2_is_variance(spec):
    # q = 2 oscillation squared equals E(f^2) - (E f)^2 on the cube
    f = _rsq()
    for cube in (P1, OFFSET):
        a, b = cube.lo[0], cube.hi[0]
        m1 = oracles.t2_average_mp(a, b)
        m2 = oracles.gauss_quad_mp(lambda t: t**4, a, b) / oracles.gauss1d_mp(a, b)
        ref = math.sqrt(m2 - m1 * m1)
        got = oscillation(f, cube, 2.0, spec)
        assert got == pytest.approx(ref, abs=1e-10)


def test_oscillation_rejects_bad_exponent(spec):
    with pytest.raises(ValueError):
        oscillation(_rsq(), P1, 0.5, spec)


def test_lq_norm_coord_vs_mp(spec):
    f = corpus_by_id(1)["coord0"]
    ref = oracles.gauss_quad_mp(lambda t: abs(t) ** 3, -1.0, 1.0) ** (1.0 / 3.0)
    got = lq_norm(f, P1, 3.0, spec)
    assert got == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------------------
# step fields: quadrature vs closed forms
# ---------------------------------------------------------------------------


def test_step_field_validation():
    with pytest.raises(ValueError):
        StepField("bad", 0, (0.5, 0.5), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        StepField("bad", 0, (0.0,), (1.0,))


def test_step_closed_forms_match_mp_oracle():
    f = StepField("s3", 0, (-0.4, 0.3), (1.5, -0.5, 2.0), dim=1)
    cube = Cube((0.1,), 1.6)
    lo, hi = cube.lo, cube.hi
    ref_pairs = oracles.step_masses_mp(f.edges, f.values, lo, hi, 0)
    ref_mass = math.fsum(m for _, m in ref_pairs)
    ref_avg = math.fsum(v * m for v, m in ref_pairs) / ref_mass
    assert step_average(f, cube) == pytest.approx(ref_avg, rel=1e-13)
    assert step_lq_norm(f, cube, 2.5) == pytest.approx(
        oracles.step_lq_mp(f.edges, f.values, lo, hi, 0, 2.5), rel=1e-13
    )
    assert step_weak_lp_norm(f, cube, 3.0) == pytest.approx(
        oracles.step_weak_lp_mp(f.edges, f.values, lo, hi, 0, 3.0), rel=1e-13
    )


def test_step_quadrature_matches_closed_forms(spec):
    f = StepField("s4", 0, (-0.2, 0.1, 0.6), (0.5, -1.0, 2.0, 0.25), dim=1)
    cube = Cube((0.2,), 1.8)
    assert gauss_average(f, cube, spec) == pytest.approx(
        step_average(f, cube), abs=1e-12
    )
    for q in (1.0, 2.0, 3.0):
        assert oscillation(f, cube, q, spec) == pytest.approx(
            step_oscillation(f, cube, q), abs=1e-10
        )
        assert lq_norm(f, cube, q, spec) == pytest.approx(
            step_lq_norm(f, cube, q), abs=1e-10
        )


def test_step_quadrature_matches_closed_forms_2d(spec):
    f = StepField("s2d", 1, (0.0,), (-1.0, 1.0), dim=2)
    cube = Cube((0.3, -0.1), 1.2)
    assert gauss_average(f, cube, spec) == pytest.approx(
        step_average(f, cube), abs=1e-12
    )
    assert oscillation(f, cube, 2.0, spec) == pytest.approx(
        step_oscillation(f, cube, 2.0), abs=1e-10
    )


def test_make_random_step_reproducible():
    cube = Cube((0.0, 0.0), 2.0)
    f1 = make_random_step(np.random.default_rng(42), cube, cells=5, tag="x")
    f2 = make_random_step(np.random.default_rng(42), cube, cells=5, tag="x")
    assert f1.edges == f2.edges
    assert f1.values == f2.values
    assert all(cube.lo[0] < e < cube.hi[0] for e in f1.edges)
    with pytest.raises(ValueError):
        make_random_step(np.random.default_rng(0), cube, cells=1)


# ---------------------------------------------------------------------------
# distribution tails
# ---------------------------------------------------------------------------


def test_tail_profile_sign_field(spec):
    f = _sign()
    # on the symmetric cube the mean is 0 and |f| = 1 a.e.:
    # the tail is the whole mass below sigma = 1 and empty above
    prof = tail_profile(f, P1, [0.5, 1.5], spec)
    g = gaussian_measure(P1)
    assert prof.tails[0] == pytest.approx(g, abs=1e-12)
    assert prof.tails[1] == pytest.approx(0.0, abs=1e-12)


def test_tail_profile_radius_sq_analytic(spec):
    f = _rsq()
    c = gauss_average(f, P1, spec)
    sigmas = [0.05, 0.1, 0.2, 0.4]
    prof = tail_profile(f, P1, sigmas, spec)
    for s, t in zip(prof.sigmas, prof.tails):
        # {|t^2 - c| > s} inside (-1,1): inner component |t| < sqrt(c-s)
        # plus outer component |t| > sqrt(c+s)
        ref = 0.0
        if c - s > 0:
            r = math.sqrt(c - s)
            ref += kernels.gauss1d(-r, r)
        if c + s < 1.0:
            r = math.sqrt(c + s)
            ref += kernels.gauss1d(r, 1.0) + kernels.gauss1d(-1.0, -r)
        assert t == pytest.approx(ref, abs=1e-10), s


def test_tail_profile_monotone_and_validated(spec):
    f = _rsq()
    prof = tail_profile(f, P1, np.linspace(0.01, 1.0, 25), spec)
    assert all(b <= a + 1e-15 for a, b in zip(prof.tails, prof.tails[1:]))
    with pytest.raises(ValueError):
        tail_profile(f, P1, [], spec)
    with pytest.raises(ValueError):
        tail_profile(f, P1, [-0.1, 0.5], spec)


def test_tail_measure_step_exact(spec):
    f = StepField("s5", 0, (0.0,), (0.0, 1.0), dim=1)
    got = tail_profile(f, P1, [0.4], spec).tails[0]
    assert got == pytest.approx(oracles.step_tail(f, P1, 0.4), abs=1e-12)


def test_uncentered_tail(spec):
    f = _sign()
    got = tail_profile(f, P1, [0.5], spec, center=0.0).tails[0]
    assert got == pytest.approx(gaussian_measure(P1), abs=1e-12)


# ---------------------------------------------------------------------------
# weak Lp norms
# ---------------------------------------------------------------------------


def test_weak_lp_half_step_closed_form(spec):
    # f = 1 on (0,1), 0 elsewhere: ||f||_{p,weak} = gamma((0,1))^(1/p)
    f = StepField("half", 0, (0.0,), (0.0, 1.0), dim=1)
    exact = (0.5 * kernels.erf(1.0)) ** 0.5
    got = weak_lp_norm(f, P1, 2.0, spec)
    assert got == pytest.approx(step_weak_lp_norm(f, P1, 2.0), rel=1e-12)
    assert got == pytest.approx(exact, rel=1e-12)


def test_weak_lp_generic_vs_step_oracle(spec):
    # panels align with the step edges, so the node measure reproduces the
    # exact cell masses and the generic weak norm must hit the closed form
    rng = np.random.default_rng(99)
    cube = Cube((0.25,), 1.5)
    for _ in range(5):
        f = make_random_step(rng, cube, cells=4)
        for p in (2.0, 3.0):
            exact = step_weak_lp_norm(f, cube, p)
            got = weak_lp_norm(f, cube, p, spec)
            assert got == pytest.approx(exact, rel=1e-11)


def test_weak_lp_continuous_certified_lower_bound(spec, monkeypatch):
    # |x| on (-1,1): sup_s s * gamma(|x| > s)^(1/p) computed exactly with
    # the error function; the node-measure sup approaches it from below
    f = corpus_by_id(1)["coord0"]
    p = 2.0
    s_grid = np.linspace(1e-4, 1.0 - 1e-4, 20001)
    tails = np.array([kernels.gauss1d(s, 1.0) + kernels.gauss1d(-1.0, -s) for s in s_grid])
    exact = float(np.max(s_grid * tails ** (1.0 / p)))
    got = weak_lp_norm(f, P1, p, spec)
    # stabilized to WEAK_REL_TOL, so the estimate sits within a few parts in 1e3
    assert got == pytest.approx(exact, rel=5e-3)
    monkeypatch.setattr(fields, "WEAK_REL_TOL", 1e-5)
    tighter = weak_lp_norm(f, P1, p, spec)
    assert abs(tighter - exact) < abs(got - exact) + 1e-12


def test_node_measure_weak_sup_matches_unique_oracle():
    # rounded values give long runs of ties (and -0.0 next to 0.0); the
    # first index of each run must pick the same suffix sums as np.unique
    rng = np.random.default_rng(31)
    for trial in range(300):
        n = int(rng.integers(1, 2000))
        av = np.abs(np.round(rng.normal(size=n), int(rng.integers(0, 4))))
        if trial % 5 == 0:
            av[rng.integers(0, n, size=n // 3)] = -0.0
        wg = rng.random(n)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.7]))
        got = fields._node_measure_weak_sup(av, wg, p)
        assert got.hex() == oracles.node_measure_weak_sup_unique(av, wg, p).hex()
    assert fields._node_measure_weak_sup(np.zeros(4), np.ones(4), 2.0) == 0.0


def test_weak_sup_rows_match_unique_oracle_per_row():
    # the same rule on a table of rows, as the embed suite runs it: rows of
    # tied and zero values, padded with zero-weight entries, row by row
    # against the np.unique oracle; a row of zeros gives 0.0, and a 1-D
    # input is bit for bit its row.  Without the padding the value is the
    # same up to the order in which tied weights are summed.
    rng = np.random.default_rng(7)
    n, width = 40, 9
    for p in (1.0, 1.5, 2.0, 3.7):
        av = np.abs(np.round(rng.normal(size=(n, width)), int(rng.integers(0, 2))))
        av[::4, :3] = 0.0
        wg = rng.random((n, width))
        cells = rng.integers(1, width + 1, size=n)
        pad = np.arange(width) >= cells[:, None]
        wg[pad] = 0.0
        av[pad] = np.where(rng.random(pad.sum()) < 0.5, 0.0, 9.0)
        av[5], wg[5] = 0.0, 1.0
        got = fields._node_measure_weak_sup(av, wg, p)
        assert got.shape == (n,) and got[5] == 0.0
        for i in range(n):
            ref = oracles.node_measure_weak_sup_unique(av[i], wg[i], p)
            assert got[i].hex() == ref.hex(), (p, i)
            assert fields._node_measure_weak_sup(av[i], wg[i], p).hex() == got[i].hex()
            live = ~pad[i]
            unpadded = oracles.node_measure_weak_sup_unique(av[i, live], wg[i, live], p)
            assert got[i] == pytest.approx(unpadded, rel=1e-14, abs=0.0), (p, i)


def test_weak_lp_rejects_bad_exponent(spec):
    with pytest.raises(ValueError):
        weak_lp_norm(_rsq(), P1, 0.5, spec)


# ---------------------------------------------------------------------------
# global L1 norms and growth bounds
# ---------------------------------------------------------------------------


def test_l1_gamma_norm_brackets_exact_value(spec):
    # E exp(|x|^2/2) under gamma_1 is sqrt(2): the box integral plus its
    # logged tail allowance must bracket the true value
    f = corpus_by_id(1)["exp_half_sq"]
    est, slack = l1_gamma_norm(f, 1, 6.0, spec)
    exact = math.sqrt(2.0)
    assert est <= exact <= est + slack + 1e-12
    assert slack < 1e-6


def test_l1_gamma_norm_sign(spec):
    est, slack = l1_gamma_norm(_sign(), 1, 6.0, spec)
    assert est == pytest.approx(kernels.erf(6.0), abs=1e-9)
    assert slack <= 1.0 - kernels.erf(6.0) + 1e-15


def test_growth_tail_bound_dominates_exact_tail():
    # integrand A + B|x|^2 outside (-R, R), exact in one dimension
    a_coef, b_coef, radius = 0.7, 1.3, 2.5
    outside = 1.0 - kernels.erf(radius)
    second_moment_tail = 2.0 * (
        oracles.t2_integral_mp(radius, 40.0) + 0.0
    )
    exact = a_coef * outside + b_coef * second_moment_tail
    bound = growth_tail_bound(a_coef, b_coef, radius, 1)
    assert bound >= exact - 1e-15
    assert bound <= 50.0 * max(exact, 1e-300)  # not absurdly loose
    assert growth_tail_bound(a_coef, b_coef, 4.0, 1) < bound  # shrinks with R


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


def test_quadrature_error_on_undeclared_kink(monkeypatch):
    # a kink strictly inside panels, with no break metadata and no budget:
    # the refinement loop must refuse to certify rather than return junk
    f = ScalarField("hidden-kink", lambda p: np.abs(p[:, 0] - 0.377))
    tight = QuadratureSpec(nodes_per_axis=2, refinement_levels=1, abs_tol=1e-15)
    with pytest.raises(QuadratureError, match=r"field hidden-kink .* refinement level 1 \("):
        gauss_average(f, P1, tight)
    # tails and weak norms refine to twice the level budget
    with pytest.raises(QuadratureError, match=r"field hidden-kink .* refinement level 2 \("):
        tail_profile(f, P1, [0.1, 0.2], tight, center=0.0)
    monkeypatch.setattr(fields, "WEAK_REL_TOL", 1e-15)
    with pytest.raises(QuadratureError, match=r"field hidden-kink .* refinement level 2 \("):
        weak_lp_norm(f, P1, 2.0, tight)


def test_node_cap_error_names_field_and_cube(monkeypatch):
    # 4 nodes per axis in d=2: 16, 64, 256 tensor nodes at levels 0, 1, 2,
    # so a cap of 100 stops every refinement at level 2
    from gaussjn import fields
    from gaussjn.hardy import min_centered_oscillation

    monkeypatch.setattr(fields, "MAX_TENSOR_NODES", 100)
    monkeypatch.setattr(fields, "WEAK_REL_TOL", 1e-15)
    f = ScalarField("kink-2d", lambda p: np.abs(p[:, 0] + p[:, 1] - 0.377), dim=2)
    cube = Cube((0.5, -0.25), 0.5)
    tight = QuadratureSpec(nodes_per_axis=4, refinement_levels=4, abs_tol=1e-15)
    cap = re.escape(
        ": refinement level 2 would need 256 tensor nodes (cap 100) "
        "on cube center (0.5, -0.25) side 0.5"
    )
    with pytest.raises(QuadratureError, match="^average of field kink-2d" + cap):
        gauss_average(f, cube, tight)
    with pytest.raises(QuadratureError, match="^tail profile of field kink-2d" + cap):
        tail_profile(f, cube, [0.1, 0.2], tight, center=0.0)
    with pytest.raises(QuadratureError, match="^weak norm of field kink-2d" + cap):
        weak_lp_norm(f, cube, 2.0, tight)
    with pytest.raises(QuadratureError, match="^node grid of field kink-2d" + cap):
        min_centered_oscillation(f, cube, 2.0, tight)


def test_declared_kink_converges(spec):
    f = ScalarField(
        "kink", lambda p: np.abs(p[:, 0] - 0.377), breaks={0: (0.377,)}
    )
    ref = oracles.gauss_quad_mp(lambda t: abs(t - 0.377), -1.0, 0.377)
    ref += oracles.gauss_quad_mp(lambda t: abs(t - 0.377), 0.377, 1.0)
    ref /= oracles.gauss1d_mp(-1.0, 1.0)
    assert gauss_average(f, P1, spec) == pytest.approx(ref, abs=1e-11)


def test_vanishing_measure_error_names_cube_and_level(spec):
    # gamma((39.9, 40.1)) underflows to zero: no rule can be normalized, and
    # every quadrature that starts with the cube's mean says so the same way
    f, cube = corpus_by_id(1)["coord0"], Cube((40.0,), 0.2)
    for quadrature in (
        lambda: average_gamma(f, cube, spec),
        lambda: gauss_average(f, cube, spec),
        lambda: oscillation(f, cube, 1.5, spec),
        lambda: tail_profile(f, cube, [0.5, 1.0], spec),
    ):
        with pytest.raises(
            QuadratureError,
            match=r"^average of field coord0: refinement level 0 has axis 0 interval "
            r"\(39\.9\d*, 40\.1\d*\) of vanishing Gauss measure "
            + re.escape("on cube center (40.0,) side 0.2") + "$",
        ):
            quadrature()


def test_error_messages_are_the_same_on_streamed_levels(spec, monkeypatch):
    # every level refined alone, so streamed in blocks
    monkeypatch.setattr(fields, "BATCH_NODES", 0)
    test_node_cap_error_names_field_and_cube(monkeypatch)
    test_vanishing_measure_error_names_cube_and_level(spec)


# ---------------------------------------------------------------------------
# batched refinement against the one-cube loop
# ---------------------------------------------------------------------------

BATCH_SPECS = {
    1: QuadratureSpec(),
    # d=2 curved kinks refine slowly; a coarse schedule keeps the loop cheap,
    # and some quadratures then fail, so errors are compared too
    2: QuadratureSpec(nodes_per_axis=4, refinement_levels=4, abs_tol=1e-4),
    # d=3: sums over three coordinates, on a still coarser schedule
    3: QuadratureSpec(nodes_per_axis=3, refinement_levels=2, abs_tol=1e-3),
}


@pytest.fixture(scope="module")
def forest_cubes():
    """Every fourth cube of the benchmark's d=1 forest, a small d=2 forest, a few d=3 cubes."""
    return {
        1: _nodes(make_candidates(build_covering(8, 1), 3))[::4],
        2: _nodes(make_candidates(build_covering(1, 2), 1)),
        3: _nodes(make_candidates(build_covering(1, 3), 0))[::14],
    }


def _nodes(cands):
    return oracles.as_cubes(cands.centers, cands.sides)


def _bits(value):
    """A value with every float replaced by its exact hex form."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _outcome(fn):
    try:
        return ("value", _bits(fn()))
    except QuadratureError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("budget", ["default", "split"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_refinement_matches_one_cube_loop_bitwise(d, budget, forest_cubes, monkeypatch):
    if budget == "split":
        # batches of a few cubes, and rules past level 1-2 refined alone
        monkeypatch.setattr(fields, "BATCH_NODES", 200)
    spec = BATCH_SPECS[d]
    cubes = forest_cubes[d]
    sig = (0.1, 0.5, 1.0, 2.0)
    for f in corpus(d):
        for cube in cubes[:3]:
            zero_set = level_set_breaks(f, 0.0, np.zeros(1))
            radii = oracles._level_radii(f, 0.0, np.zeros(1))
            assert _outcome(lambda: power_average(f, cube, 1.0, spec)) == _outcome(
                lambda: oracles.average_loop(
                    f, cube, spec, transform=np.abs, extra_breaks=zero_set, radii=radii
                )
            ), f.id
        assert _outcome(lambda: oscillations(f, *cube_arrays(cubes), 1.25, spec)) == _outcome(
            lambda: [oracles.oscillation_loop(f, c, 1.25, spec) for c in cubes]
        ), f.id
        got = _outcome(
            lambda: [p.tails for p in tail_profiles(f, *cube_arrays(cubes[:8]), sig, spec)]
        )
        want = _outcome(
            lambda: [tuple(oracles.tail_profile_loop(f, c, sig, spec).tolist()) for c in cubes[:8]]
        )
        assert got == want, f.id
        for cube in cubes[:3]:
            assert _outcome(lambda: weak_lp_norm(f, cube, 2.0, spec)) == _outcome(
                lambda: oracles.weak_norm_loop(f, cube, 2.0, spec)
            ), f.id


@pytest.mark.parametrize(
    "batch_nodes, evaluated",
    [
        # all rules shared: the last cube stops at level 2, when the middle
        # cube fails to build its level-3 rule
        (None, [4 + 8 + 16 + 32, 8 + 16 + 32, 4 + 8 + 16]),
        # rules above 8 nodes refined alone, in input order: the first
        # cube's failure spares the others all their deeper levels
        (8, [4 + 8 + 16 + 32, 8, 4 + 8]),
    ],
    ids=["shared", "alone"],
)
def test_batched_refinement_raises_the_first_failure_in_input_order(
    batch_nodes, evaluated, monkeypatch
):
    # four nodes per panel: a one-segment cube needs 4, 8, 16, 32, 64 nodes
    # at levels 0-4, a cube split by the break at 1.5 twice that, so a cap of
    # 40 stops the middle cube at level 3 and the others at level 4.  A loop
    # over cubes raises the first cube's error; the batched refinement must
    # too, and must not refine the cubes after a failure past it.
    monkeypatch.setattr(fields, "MAX_TENSOR_NODES", 40)
    if batch_nodes is not None:
        monkeypatch.setattr(fields, "BATCH_NODES", batch_nodes)
    seen = []

    def fn(pts):
        seen.append(pts[:, 0].copy())
        return np.abs(np.sin(40.0 * pts[:, 0]))

    f = ScalarField("ridges", fn, breaks={0: (1.5,)})
    cubes = [Cube((0.3,), 0.5), Cube((1.5,), 0.5), Cube((-0.7,), 0.5)]
    spec = QuadratureSpec(nodes_per_axis=4, refinement_levels=6, abs_tol=1e-15)
    with pytest.raises(
        QuadratureError,
        match="^" + re.escape(
            "average of field ridges: refinement level 4 would need 64 tensor nodes (cap 40) "
            "on cube center (0.3,) side 0.5"
        ),
    ):
        oscillations(f, *cube_arrays(cubes), 1.5, spec)
    xs = np.concatenate(seen)
    inside = [int(np.sum((xs > c.lo[0]) & (xs < c.hi[0]))) for c in cubes]
    assert inside == evaluated


@pytest.mark.parametrize("batch_nodes", [None, 2048, 0])
def test_average_gammas_match_the_one_field_loop_bitwise(batch_nodes, monkeypatch):
    # one field over four cubes that accept at four different levels, refined
    # together in shared rounds (with BATCH_NODES = 2048 the first and last
    # cubes stream their levels of 6,144 nodes and more) or (BATCH_NODES =
    # 0) each streamed alone; every value is the one-cube average_gamma bit
    # for bit
    if batch_nodes is not None:
        monkeypatch.setattr(fields, "BATCH_NODES", batch_nodes)
    f = ScalarField(
        "wave", lambda pts: np.exp(pts[:, 0]) * np.cos(3.0 * pts[:, 1]),
        dim=2, breaks={0: (0.2, 0.5), 1: (-0.1,)},
    )
    cubes = [Cube((0.4, -0.3), 0.9), Cube((1.1, 0.6), 0.05), Cube((-0.6, 0.4), 0.4),
             Cube((0.35, -0.1), 2.5)]
    spec = QuadratureSpec(nodes_per_axis=4, abs_tol=1e-10)
    want = [average_gamma(f, cube, spec) for cube in cubes]
    assert _bits(want) == _bits([oracles.average_loop(f, cube, spec) for cube in cubes])
    assert _bits(fields.average_gammas(f, *cube_arrays(cubes), spec)) == _bits(want)
    # the level each cube accepts at: the fewest levels that let it converge
    levels = [
        next(top for top in range(1, 11) if _outcome(lambda: average_gamma(
            f, cube, QuadratureSpec(nodes_per_axis=4, refinement_levels=top, abs_tol=1e-10)
        ))[0] == "value")
        for cube in cubes
    ]
    assert levels == [3, 1, 2, 4]


@pytest.mark.parametrize("batch_nodes", [None, 0])
def test_average_gammas_raise_the_first_failure_in_input_order(batch_nodes, monkeypatch):
    # four nodes per panel and three levels: the small first cube converges,
    # the second runs out of levels at level 3, and the third, split by the
    # break at 1.5, cannot build its 64-node level-3 rule under a cap of 40.
    # In shared rounds the third fails first; the loop raises the second's
    # error, which names the second cube's field (one field for all cubes,
    # or one per cube)
    monkeypatch.setattr(fields, "MAX_TENSOR_NODES", 40)
    if batch_nodes is not None:
        monkeypatch.setattr(fields, "BATCH_NODES", batch_nodes)
    cubes = [Cube((0.3,), 1e-3), Cube((0.3,), 0.5), Cube((1.5,), 0.5)]
    spec = QuadratureSpec(nodes_per_axis=4, refinement_levels=3, abs_tol=1e-15)

    def ridges(pts):
        return np.abs(np.sin(40.0 * pts[:, 0]))

    one = ScalarField("ridges", ridges, breaks={0: (1.5,)})
    per_cube = [ScalarField(f"ridges{k}", ridges, breaks={0: (1.5,)}) for k in range(3)]
    for fs in ([one] * 3, per_cube):
        loop = _outcome(lambda: [average_gamma(f, cube, spec) for f, cube in zip(fs, cubes)])
        assert loop[0] == "error" and "did not converge" in loop[1]
        assert loop[1].startswith(f"average of field {fs[1].id} on cube center (0.3,) side 0.5")
        assert _outcome(lambda: average_gamma(fs[2], cubes[2], spec))[1].startswith(
            f"average of field {fs[2].id}: refinement level 3 would need 64 tensor nodes (cap 40)"
        )
        assert _outcome(lambda: fields.average_gammas(fs, *cube_arrays(cubes), spec)) == loop
        if fs[0] is one:
            assert _outcome(lambda: fields.average_gammas(one, *cube_arrays(cubes), spec)) == loop


def test_a_field_per_cube_gathers_a_field_split_across_phases(monkeypatch):
    # two fields over four cubes whose means accept at levels 3, 1, 2 and 4:
    # "wave"'s second cube enters the power phase while its first still
    # refines the mean, so a batch holds its cubes apart and gathers their
    # nodes.  Each batch's values are each cube's field on its own nodes,
    # and every oscillation is the one-cube loop's bit for bit
    wave = ScalarField(
        "wave", lambda pts: np.exp(pts[:, 0]) * np.cos(3.0 * pts[:, 1]),
        dim=2, breaks={0: (0.2, 0.5), 1: (-0.1,)},
    )
    tilt = ScalarField("tilt", lambda pts: pts[:, 0] * pts[:, 1] + 0.3 * pts[:, 1], dim=2)
    fs = [wave, tilt, wave, tilt]
    cubes = [Cube((0.4, -0.3), 0.9), Cube((1.1, 0.6), 0.05), Cube((-0.6, 0.4), 0.4),
             Cube((0.35, -0.1), 2.5)]
    spec = QuadratureSpec(nodes_per_axis=4, abs_tol=1e-10)
    gathered = []
    each_field = fields._each_field

    def spy(fns, owner, n, pts):
        gathered.append(bool(np.any(np.diff(owner) < 0)))
        vals = each_field(fns, owner, n, pts)
        bounds = np.concatenate(([0], n.cumsum()))
        for k, j in enumerate(owner.tolist()):
            span = slice(bounds[k], bounds[k + 1])
            assert vals[span].tobytes() == fns[j](pts[span]).tobytes()
        return vals

    monkeypatch.setattr(fields, "_each_field", spy)
    phases = [fields._mean(spec), fields._power(spec, 1.5)]
    got = fields._drive(fs, *cube_arrays(cubes), phases, spec.nodes_per_axis)[:, 0]
    want = [oracles.oscillation_loop(f, c, 1.5, spec) for f, c in zip(fs, cubes)]
    assert _bits([v ** (1.0 / 1.5) for v in got.tolist()]) == _bits(want)
    assert any(gathered)


@pytest.mark.parametrize("budget", ["default", "split"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_field_per_cube_matches_the_one_cube_loop_bitwise(d, budget, forest_cubes, monkeypatch):
    # cube k takes field k of a cycle through the corpus and restricted,
    # shifted copies (in d = 2 curved and flat fields share one call): every
    # mean, power average (graded, r = 1.25) and oscillation is the one-cube
    # loop's bit for bit, and a failure the first the loop raises
    if budget == "split":
        monkeypatch.setattr(fields, "BATCH_NODES", 200)
    spec = BATCH_SPECS[d]
    cubes = forest_cubes[d]
    cycle = corpus(d)
    cycle += [restrict_field(shift_field(f, 0.25), Cube((0.3,) * d, 2.5)) for f in cycle]
    fs = [cycle[k % len(cycle)] for k in range(len(cubes))]
    centers, sides = cube_arrays(cubes)
    phases = [fields._mean(spec), fields._power(spec, 1.25)]

    def oscillations_per_cube(fs, centers, sides):
        means = fields._drive(fs, centers, sides, phases, spec.nodes_per_axis)
        return [v ** (1.0 / 1.25) for v in means[:, 0].tolist()]

    for batched, one in (
        (lambda *a: fields.average_gammas(*a, spec), lambda f, c: oracles.average_loop(f, c, spec)),
        (
            lambda *a: fields.power_averages(*a, 1.25, spec),
            lambda f, c: oracles.power_average_loop(f, c, 1.25, spec),
        ),
        (oscillations_per_cube, lambda f, c: oracles.oscillation_loop(f, c, 1.25, spec)),
    ):
        loop = [_outcome(lambda: one(f, c)) for f, c in zip(fs, cubes)]
        first = next((out for out in loop if out[0] == "error"), None)
        want = first or ("value", [out[1] for out in loop])
        assert _outcome(lambda: batched(fs, centers, sides)) == want
        # the cubes that converge, together
        ok = [k for k, out in enumerate(loop) if out[0] == "value"]
        assert len(ok) > len(cubes) // 2
        got = batched([fs[k] for k in ok], centers[ok], sides[ok])
        assert _bits(got) == [loop[k][1] for k in ok]


# ---------------------------------------------------------------------------
# streamed levels against the materialized rule
# ---------------------------------------------------------------------------

# (d, nodes per axis, segments per axis), with the level-0 and level-1 rule
# sizes against one block of kernels._BLOCK = 65,536 nodes: below, at, and
# above it with a partial last block.  Rows of 2 and 3 segments are not
# powers of two, so blocks start and end inside tensor rows.
STREAMED = [
    (1, 32, (75,)),  # 2,400 and 4,800
    (1, 64, (512,)),  # 32,768 and 65,536
    (1, 64, (563,)),  # 36,032 and 72,064
    (2, 64, (1, 1)),  # 4,096 and 16,384
    (2, 128, (1, 1)),  # 16,384 and 65,536
    (2, 48, (3, 3)),  # 20,736 and 82,944
    (2, 60, (2, 3)),  # 21,600 and 86,400
    (3, 16, (2, 1, 1)),  # 8,192 and 65,536
    (3, 12, (3, 2, 1)),  # 10,368 and 82,944, rows of 1,152
    (3, 15, (3, 2, 2)),  # 40,500 and 324,000
]


def _split(f, cube, segments):
    """f with extra breaks cutting each axis of the cube into the given segments."""
    extra = {
        ax: tuple(cube.lo[ax] + cube.side * (k - 0.25) / s for k in range(1, s))
        for ax, s in enumerate(segments)
    }
    return ScalarField(
        f.id, f.fn, dim=f.dim, breaks=fields.merge_breaks(f.breaks, extra),
        level_breaks=f.level_breaks,
    )


@pytest.mark.parametrize("d, order, segments", STREAMED)
def test_streamed_levels_match_the_materialized_rule_bitwise(d, order, segments, monkeypatch):
    # a tolerance no difference exceeds accepts every quadrature at level 1,
    # after levels 0 and 1 have each been refined alone and streamed
    spec = QuadratureSpec(nodes_per_axis=order, refinement_levels=1, abs_tol=1e300)
    # below every level-0 rule here, so both levels stream
    monkeypatch.setattr(fields, "BATCH_NODES", 2048)
    assert math.prod(order * s for s in segments) > fields.BATCH_NODES
    cube = Cube((0.3, -0.2, 0.1)[:d], 2.4)
    for base in (_rsq(d), corpus_by_id(d)["log_radial"]):
        f = _split(base, cube, segments)
        assert _outcome(lambda: average_gamma(f, cube, spec)) == _outcome(
            lambda: oracles.average_loop(f, cube, spec)
        ), f.id
        assert _outcome(lambda: oscillation(f, cube, 1.25, spec)) == _outcome(
            lambda: oracles.oscillation_loop(f, cube, 1.25, spec)
        ), f.id
        # sigmas equal to node values of the level-1 rule test the strict >
        pts, _ = oracles.tensor_rule_loop(cube, f.breaks, 1, order, "rule", f.id)
        values = f(pts)
        rng = np.random.default_rng(d)
        for sig, center in (
            (rng.choice(values, 10), 0.0),
            (rng.choice(values, 25), 0.0),
            (np.linspace(0.0, 2.0, 10), None),
        ):
            got = _outcome(lambda: tail_profile(f, cube, sig, spec, center=center).tails)
            want = _outcome(
                lambda: tuple(oracles.tail_profile_loop(f, cube, sig, spec, center).tolist())
            )
            assert got == want, f.id
        assert _outcome(lambda: weak_lp_norm(f, cube, 2.0, spec)) == _outcome(
            lambda: oracles.weak_norm_loop(f, cube, 2.0, spec)
        ), f.id
    # the field sees every node of both levels, at most one block at a time
    f = _split(_rsq(d), cube, segments)
    sizes = []
    counted = ScalarField(f.id, lambda p: sizes.append(p.shape[0]) or f(p), breaks=f.breaks)
    average_gamma(counted, cube, spec)
    level_nodes = [math.prod((order << lv) * s for s in segments) for lv in (0, 1)]
    assert max(sizes) == min(level_nodes[1], kernels._BLOCK)
    assert sum(sizes) == sum(level_nodes)


@pytest.mark.parametrize(
    "order, segments, first, want",
    [
        # 48 nodes per panel: the small cubes' rules take 2,304 and 9,216
        # nodes, the big cube's, split 3 x 3, 20,736 and 82,944.  Its level 0
        # joins the small cubes' in one evaluation; its level 1, past
        # BATCH_NODES, is set aside and streamed after the shared rounds
        (48, (3, 3), 1, lambda small, big, block: [
            2 * small + big, 2 * small * 4, block, big * 4 - block,
        ]),
        # 64 nodes per panel, split 2 x 4: the big cube's level 0 has
        # exactly BATCH_NODES nodes and fills a shared batch of its own,
        # before the small cubes' level 1; its level 1 streams last
        (64, (2, 4), 0, lambda small, big, block: [
            big, 2 * small, 2 * small * 4, block, big * 4 - block,
        ]),
    ],
    ids=["neighbours", "at-the-cap"],
)
def test_levels_up_to_batch_nodes_share_and_larger_ones_stream(order, segments, first, want):
    spec = QuadratureSpec(nodes_per_axis=order, refinement_levels=1, abs_tol=1e300)
    big = Cube((0.3, -0.2), 2.4)
    cubes = [Cube((-2.5, 2.0), 0.5), Cube((2.5, 2.0), 0.5)]
    cubes.insert(first, big)
    f = _split(_rsq(2), big, segments)
    small, split = order * order, math.prod(order * s for s in segments)
    assert split <= fields.BATCH_NODES < split * 4
    sizes = []
    got = fields.average_gammas(_counted(f, sizes), *cube_arrays(cubes), spec)
    assert sizes == want(small, split, kernels._BLOCK)
    assert _bits(got) == _bits([oracles.average_loop(f, c, spec) for c in cubes])


def test_streamed_level_inside_a_field_evaluation_keeps_its_own_buffers():
    # each evaluation of the outer field first streams a quadrature of its
    # own, between two blocks of the outer level
    spec = QuadratureSpec(nodes_per_axis=128, refinement_levels=1, abs_tol=1e300)
    f = _rsq(2)

    def fn(pts):
        average_gamma(f, Cube((-0.4, 0.2), 1.0), spec)
        return f(pts)

    outer = ScalarField("nested", fn, dim=2)
    cube = Cube((0.3, -0.2), 2.4)
    want = oracles.average_loop(f, cube, spec).hex()
    # the first run leaves spare buffers that fit every level of the second
    assert average_gamma(outer, cube, spec).hex() == want
    assert average_gamma(outer, cube, spec).hex() == want


@pytest.mark.parametrize(
    "run",
    [
        # |f - f_Q|^1.5 kinks on a circle, so the power average refines to
        # its last level, 2048 x 2048 nodes
        lambda f, cube: oscillation(
            f, cube, 1.5, QuadratureSpec(refinement_levels=8, abs_tol=1e-300)
        ),
        # tails refine to twice the level budget
        lambda f, cube: tail_profile(
            f, cube, [0.1, 0.5, 1.0, 2.0], QuadratureSpec(refinement_levels=4, abs_tol=1e-300),
            center=0.0,
        ),
    ],
    ids=["oscillation", "tail profile"],
)
def test_streamed_levels_keep_block_memory(run):
    import tracemalloc

    # |x|^2 without its radial solver, so the rules are tensor rules
    f, cube = ScalarField("radius_sq", _rsq(2).fn, dim=2), Cube((0.3, 0.3), 2.0)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=r"level 8 \(4194304 tensor nodes\)"):
            run(f, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one rule of 4,194,304 nodes is 96 MiB of nodes and weights alone
    assert peak < 16 * 2**20


def test_streamed_iterated_levels_keep_block_memory():
    import tracemalloc

    # the circle {f = f_Q} crosses the cube, so each level is an iterated
    # rule, forced here to its last level
    f, cube = _rsq(2), Cube((0.3, 0.3), 2.0)
    spec = QuadratureSpec(refinement_levels=6, abs_tol=1e-300)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=r"level 6 \(2712576 tensor nodes\)"):
            oscillation(f, cube, 1.5, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rule itself is 62 MiB of nodes and weights
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# panels graded toward the kinks of |f - f_Q|^q
# ---------------------------------------------------------------------------

# the cube of the benchmark's d=1 forest where uniform panels ran out of
# levels for exp_half_sq at q = 1.25: 16,384 nodes at level 10, last diff
# 1.4e-9 > 1e-9
FAR_CUBE = Cube((3.398918978342922,), 0.30818278427205104)


def _counted(f, sizes):
    """f, recording the node count of every evaluation in ``sizes``."""
    return ScalarField(
        f.id, lambda p: sizes.append(p.shape[0]) or f(p), dim=f.dim, breaks=f.breaks,
        level_breaks=f.level_breaks,
    )


def _both_signs(r):
    return [-r, r]


# the d=1 corpus fields that solve their level sets: each one's function
# and the points where it equals c, in mpmath
_MP_FIELDS = {
    "coord0": (lambda t: t, lambda c: [c]),
    "radius_sq": (lambda t: t * t, lambda c: _both_signs(oracles.mp.sqrt(c)) if c > 0 else []),
    "log_radial": (
        lambda t: oracles.mp.log(max(abs(t), 1)),
        lambda c: _both_signs(oracles.mp.e**c) if c > 0 else [],
    ),
    "exp_half_sq": (
        lambda t: oracles.mp.e ** (t * t / 2),
        lambda c: _both_signs(oracles.mp.sqrt(2 * oracles.mp.log(c))) if c > 1 else [],
    ),
}


def _osc_mp(fid, cube, q):
    fn, level_set = _MP_FIELDS[fid]
    return oracles.oscillation_mp(fn, cube.lo[0], cube.hi[0], q, level_set)


@pytest.mark.parametrize("q", [1.25, 1.5])
def test_graded_oscillation_certifies_the_far_exp_half_sq_cube(q, spec):
    sizes = []
    got = oscillation(_counted(corpus_by_id(1)["exp_half_sq"], sizes), FAR_CUBE, q, spec)
    assert got == pytest.approx(_osc_mp("exp_half_sq", FAR_CUBE, q), rel=1e-12)
    # the kink splits the cube in two segments, each graded at one end: the
    # power average certifies at level 6 with 2 * 8 * (2^6 + 6) nodes
    assert max(sizes) == 1120


@pytest.mark.parametrize("fid", ["coord0", "radius_sq"])
@pytest.mark.parametrize("cube", [P1, OFFSET, Cube((-2.3,), 0.5)], ids=["P1", "OFFSET", "left"])
def test_fractional_oscillation_converges_within_a_node_budget(fid, cube, spec):
    # uniform panels needed levels 7-8 here (1,024-3,072 nodes), converging
    # only like 2^(-(q+1) L) at the kink; graded ones certify by level 4
    sizes = []
    got = oscillation(_counted(corpus_by_id(1)[fid], sizes), cube, 1.25, spec)
    assert max(sizes) <= 512
    assert got == pytest.approx(_osc_mp(fid, cube, 1.25), abs=1e-10)


POWER_CENSUS_CUBES = [P1, OFFSET, Cube((-2.3,), 0.5), Cube((1.5,), 1.0), FAR_CUBE]


@pytest.mark.parametrize("fid", sorted(_MP_FIELDS))
def test_power_average_census_d1_within_abs_tol(fid, spec):
    # |f - c|^r at c = 0 (the norms) and c = f_Q (the oscillations), against
    # mpmath split at the field's breaks and at {f = c}
    f = corpus_by_id(1)[fid]
    fn, level_set = _MP_FIELDS[fid]
    for cube in POWER_CENSUS_CUBES:
        a, b = cube.lo[0], cube.hi[0]
        mass = oracles.gauss1d_mp(a, b)
        for c in (0.0, average_gamma(f, cube, spec)):
            cuts = sorted({float(t) for t in [*f.breaks.get(0, ()), *level_set(c)] if a < t < b})
            ends = [a, *cuts, b]
            for r in (1.25, 1.5):
                want = sum(
                    oracles.gauss_quad_mp(lambda t: abs(fn(t) - c) ** r, lo, hi)
                    for lo, hi in zip(ends, ends[1:])
                ) / mass
                got = power_average(f, cube, r, spec, center=c)
                assert abs(got - want) <= spec.abs_tol, (cube, c, r)


ONE = np.zeros(1, dtype=np.int64)


def _table(cube, breaks, kinks=None):
    """The panel table of one cube, cut at the breaks and graded toward the kinks."""
    table = fields._Table(*cube_arrays([cube]))
    table.cut(ONE, [breaks], kinks)
    return table


def _graded_rule(cube, breaks, kinks, level, order):
    table = _table(cube, fields.merge_breaks(breaks, kinks), kinks)
    nodes = table.sizes(ONE, level, order)[:, level]
    pts, w = table.rules(ONE, np.array([level]), nodes, order)
    return table, pts, w


@pytest.mark.parametrize("level", [1, 2, 5])
def test_graded_rule_properties(level):
    cube = Cube((0.3,), 1.8)
    breaks, kinks = {0: (-0.35,)}, {0: (0.1, 0.512, 7.0)}  # 7.0 lies outside the cube
    order = 6
    table, pts, w = _graded_rule(cube, breaks, kinks, level, order)
    x = pts[:, 0]
    # segments (-0.6, -0.35), (-0.35, 0.1), (0.1, 0.512), (0.512, 1.2): four
    # ends lie on the two kinks inside the cube
    assert table.counts.tolist() == [[4]] and table.graded.tolist() == [[4]]
    assert x.size == order * (4 * 2**level + 4 * level)
    assert table.axis_nodes(ONE, level, order)[:, level].tolist() == [[x.size]]
    assert np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0)
    assert abs(kernels.pairwise_sum(w) - 1.0) <= 1e-14
    edges = [cube.lo[0], -0.35, 0.1, 0.512, cube.hi[0]]
    gmax = np.polynomial.legendre.leggauss(order)[0][-1]
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        left, right = k > 1, 0 < k < 3  # which ends lie on a kink
        seg = x[(x > a) & (x < b)]
        # every node lies strictly inside its segment, so the kinks are panel edges
        assert seg.size == order * (2**level + level * (left + right))
        # the panels, read off their outermost nodes, tile the segment; the
        # one at a kink is cut into panels that halve toward it
        pan = seg.reshape(-1, order)
        width = (pan[:, -1] - pan[:, 0]) / gmax
        lo = 0.5 * (pan[:, -1] + pan[:, 0]) - 0.5 * width
        assert np.allclose(np.r_[lo, lo[-1] + width[-1]], np.r_[lo, b], rtol=0, atol=1e-14)
        assert np.allclose(lo[1:], lo[:-1] + width[:-1], rtol=0, atol=1e-14)
        assert lo[0] == pytest.approx(a, abs=1e-14)
        h = (b - a) / 2**level
        halving = h * 2.0 ** -np.r_[level, np.arange(level, 0, -1)]
        want = np.r_[halving if left else [], [h] * (2**level - left - right),
                     halving[::-1] if right else []]
        assert np.allclose(width, want, rtol=1e-12, atol=0)


def test_graded_rule_keeps_the_uniform_rule_elsewhere():
    # rows without a kink are bit for bit the uniform rule, and so are the
    # uniform panels of a graded row
    cube, order = Cube((0.3, -0.4), 1.2), 3
    breaks = {0: (0.1, 0.5), 1: (-0.5,)}
    for level in (0, 1, 3):
        ref_pts, ref_w = oracles.tensor_rule_loop(cube, breaks, level, order, "rule", "f")
        for kinks in ({}, {0: (7.0,)}, {1: (0.5,)}):
            _, pts, w = _graded_rule(cube, breaks, kinks, level, order)
            assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)
        segments = [(cube.lo[0], 0.1), (0.1, 0.5), (0.5, cube.hi[0])]
        x, w = oracles.axis_rule_loop(segments, level, order)
        table = _table(cube, breaks, {0: (0.1,)})
        gx, gw, _ = fields._axis_rows(table.gather(ONE), level, order)
        # axis 0 of the graded cube: the first segment's panels away from the
        # kink at 0.1 and the whole third segment are unchanged
        n, m = int(table.axis_nodes(ONE, level, order)[0, level, 0]), order * 2**level
        assert n == order * (3 * 2**level + 2 * level)
        for got, want in ((gx, x), (gw, w)):
            assert np.array_equal(got[: m - order], want[: m - order])
            assert np.array_equal(got[n - m : n], want[-m:])


@pytest.mark.parametrize("budget", ["default", "split"])
def test_graded_coord0_in_d2_matches_one_cube_loop_bitwise(budget, monkeypatch):
    # the level set of coord0 is a line, so d=2 rows are graded on axis 0
    # only; with the split budget the deeper levels are streamed in blocks
    if budget == "split":
        monkeypatch.setattr(fields, "BATCH_NODES", 200)
    f = corpus_by_id(2)["coord0"]
    spec = QuadratureSpec(nodes_per_axis=4, refinement_levels=6, abs_tol=1e-8)
    cubes = _nodes(make_candidates(build_covering(1, 2), 1))[::3]
    for q in (1.25, 1.5):
        sizes = []
        got = _outcome(lambda: oscillations(_counted(f, sizes), *cube_arrays(cubes), q, spec))
        assert got == _outcome(lambda: [oracles.oscillation_loop(f, c, q, spec) for c in cubes])
        assert got[0] == "value"
    # at level 2, a kink inside the cube splits axis 0 into two segments
    # graded at one end each: 4 * (2 * 2^2 + 2 * 2) nodes, against 4 * 2^2
    # on axis 1
    table = _table(cubes[0], {0: (0.05,)}, {0: (0.05,)})
    assert table.axis_nodes(ONE, 2, 4)[:, 2].tolist() == [[48, 16]]


# field evaluations, and evaluator calls, of every oscillation on the 255
# cubes of the benchmark's d=1 forest (covering depth 8, candidate depth 3);
# with uniform panels radius_sq took 422,928 / 19 at q = 1.25 and
# exp_half_sq failed at level 10
FOREST_EVALS = {
    1.25: {
        "const_one": (12240, 4), "coord0": (92248, 8), "radius_sq": (132240, 10),
        "sign0": (12288, 4), "step0": (12432, 4), "log_radial": (60944, 7),
        "exp_half_sq": (477104, 21),
    },
    1.5: {
        "const_one": (12240, 4), "coord0": (59672, 7), "radius_sq": (97968, 9),
        "sign0": (12288, 4), "step0": (12432, 4), "log_radial": (42256, 6),
        "exp_half_sq": (391456, 19),
    },
}


@pytest.mark.parametrize("q", sorted(FOREST_EVALS))
def test_forest_oscillation_evaluation_counts(q, spec):
    cands = make_candidates(build_covering(8, 1), 3)
    assert cands.node_count() == 255
    for f in corpus(1):
        sizes = []
        oscillations(_counted(f, sizes), cands.centers, cands.sides, q, spec)
        assert (sum(sizes), len(sizes)) == FOREST_EVALS[q][f.id], f.id


def test_oscillations_measure_each_cube_axis_once(spec, monkeypatch):
    # the two phases of an oscillation, the centering average and the power
    # average, share one table of axis measures
    cands = make_candidates(build_covering(8, 1), 3)
    gauss1d, calls = kernels.gauss1d, []

    def counted(alpha, beta):
        calls.append((alpha, beta))
        return gauss1d(alpha, beta)

    monkeypatch.setattr(kernels, "gauss1d", counted)
    for f in corpus(1):
        calls.clear()
        oscillations(f, cands.centers, cands.sides, 1.25, spec)
        assert len(calls) <= cands.node_count(), f.id


# ---------------------------------------------------------------------------
# level-set breaks of many centers
# ---------------------------------------------------------------------------

# the level-set solvers of the d=1 corpus fields: {|f| = v} is {-r, r}
LEVEL_SOLVERS = {
    "coord0": lambda v: v,
    "radius_sq": math.sqrt,
    "log_radial": math.exp,
    "exp_half_sq": lambda v: math.sqrt(2.0 * math.log(v)),
}


def _level_set_reference(fid, center, sigmas):
    """The breaks of {|f - center| = sigma}, one math call per level.

    Unsolvable levels are skipped, and of equal positions the first one is
    kept, as a set keeps it.
    """
    seen = {}
    for s in sigmas.tolist():
        for v in (abs(center + s), abs(center - s)):
            try:
                r = LEVEL_SOLVERS[fid](v)
            except (ValueError, OverflowError):
                continue
            for b in (-r, r):
                if math.isfinite(b):
                    seen.setdefault(b, b)
    return sorted(seen)


@pytest.mark.parametrize("fid", sorted(LEVEL_SOLVERS))
def test_level_set_breaks_of_many_centers_equal_the_one_center_calls(fid):
    f = corpus_by_id(1)[fid]
    rng = np.random.default_rng(20261019)
    # 0, 1 and the centers in (0, 1] give exp_half_sq levels it cannot solve;
    # log_radial overflows far out
    centers = np.concatenate(
        ([0.0, 1.0, -1.0, 0.5, 800.0], rng.uniform(-4.0, 4.0, 40), rng.uniform(0.0, 1.0, 10))
    )
    for sigmas in (np.zeros(1), np.array([0.0, 0.25, 1.0, 2.5]), np.sort(rng.uniform(0, 3, 25))):
        rows = fields.level_set_breaks(f, centers, sigmas)
        assert list(rows) == [0] and rows[0].shape[0] == centers.size
        for c, row in zip(centers.tolist(), rows[0]):
            got = [b.hex() for b in row[np.isfinite(row)].tolist()]
            one = fields.level_set_breaks(f, c, sigmas).get(0, ())
            assert got == [b.hex() for b in one], (fid, c)
            assert got == [b.hex() for b in _level_set_reference(fid, c, sigmas)], (fid, c)
            # an atom's field, f - c restricted to a cube, solves them at center 0
            atom = restrict_field(shift_field(f, c), P1)
            shifted = fields.level_set_breaks(atom, 0.0, sigmas).get(0, ())
            assert [b.hex() for b in shifted] == got, (fid, c)
    # exp_half_sq >= 1 everywhere: no level below 1 has a solution
    if fid == "exp_half_sq":
        assert fields.level_set_breaks(f, 0.5, np.zeros(1)) == {}
        assert np.isnan(fields.level_set_breaks(f, np.array([0.0, 0.5]), np.zeros(1))[0]).all()


# ---------------------------------------------------------------------------
# radial level sets in d = 2: iterated rules against nested quad
# ---------------------------------------------------------------------------

# a cube where the tensor rule's acceptance let a 3.7e-9 error through, the
# central cube and the duality box, then a seeded sample
CENSUS_CUBES = [Cube((1.25, 2.25), 0.5), Cube((0.0, 0.0), 2.0), Cube((0.0, 0.0), 12.0)] + [
    Cube(tuple(c), float(s))
    for c, s in zip(
        np.random.default_rng(20261019).uniform(-2.5, 2.5, (3, 2)).round(3).tolist(),
        np.random.default_rng(20261020).choice([0.125, 0.25, 0.5, 1.0, 2.0], 3).tolist(),
    )
]
CENSUS_SIGMAS = (0.1, 0.5, 1.5)


def _census_field(fid):
    if fid == "radius_sq|trunc:1.0":
        return truncate(_rsq(2), 1.0)
    return corpus_by_id(2)[fid]


@pytest.mark.parametrize("fid", sorted(oracles.RADIAL_FIELDS))
def test_radial_census_within_abs_tol(fid, spec):
    f = _census_field(fid)
    assert f.id == fid
    for cube in CENSUS_CUBES:
        center = average_gamma(f, cube, spec)
        assert abs(center - oracles.radial_mean(fid, cube)) <= spec.abs_tol, cube
        for q in (1.25, 1.5):
            got = oscillation(f, cube, q, spec) ** q
            assert abs(got - oracles.radial_power(fid, cube, center, q)) <= spec.abs_tol, (cube, q)
        tails = tail_profile(f, cube, CENSUS_SIGMAS, spec).tails
        for sigma, got in zip(CENSUS_SIGMAS, tails):
            want = oracles.radial_tail(fid, cube, center, sigma)
            assert abs(got - want) <= spec.abs_tol, (cube, sigma)


def test_radial_level_sets_cut_rows_not_the_tensor_rule():
    # a circle inside the cube: the rule's mass of the disk is exact to
    # rounding from level 2 on, where the tensor rule's panels still cut it
    cube, r = Cube((0.0, 0.0), 2.0), 0.5
    disk = 1.0 - math.exp(-r * r)
    table = _table(cube, {})
    table.cut(ONE, [{}], None, [(r,)])
    for level in (2, 3):
        n = table.sizes(ONE, level, 8)[:, level]
        pts, w = table.rules(ONE, np.array([level]), n, 8)
        inside = fields._sum_sq(pts) < r * r
        assert abs(float(w[inside].sum()) * table.gq[0] - disk) < 1e-14
        assert np.array_equal(pts, np.concatenate([p for p, _ in table.blocks(0, level, 8)]))
    # a cube the circle does not cross keeps the tensor rule bit for bit
    far = Cube((2.0, 2.0), 0.5)
    flat, curved = _table(far, {}), _table(far, {})
    curved.cut(ONE, [{}], None, [(r,)])
    for level in (0, 2):
        n = flat.sizes(ONE, level, 8)[:, level]
        assert np.array_equal(curved.sizes(ONE, level, 8)[:, level], n)
        for a, b in zip(flat.rules(ONE, np.array([level]), n, 8),
                        curved.rules(ONE, np.array([level]), n, 8)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_radial_solver_gives_the_d1_level_breaks(d):
    for fid, solve in (("radius_sq", math.sqrt), ("log_radial", math.exp),
                       ("exp_half_sq", lambda v: math.sqrt(2.0 * math.log(v)))):
        f = corpus_by_id(d)[fid]
        levels = np.array([0.0, 0.3, 1.0, 2.5, 9.0])
        want = []
        for v in levels.tolist():
            try:
                want.append(solve(v))
            except ValueError:
                want.append(math.nan)
        got = f.radial(levels)
        assert got.shape == (5, 1)
        assert np.array_equal(got[:, 0], np.array(want), equal_nan=True), fid
        if d == 1:
            assert np.array_equal(f.level_breaks(levels)[0], np.concatenate((-got, got), axis=1),
                                  equal_nan=True)
        else:
            assert f.level_breaks is None
    # the truncation radius joins the kink radii, log_radial's own kink is r = 1
    assert truncate(corpus_by_id(2)["radius_sq"], 4.0).kink_radii == (2.0,)
    assert corpus_by_id(d)["log_radial"].kink_radii == (1.0,)
