"""Radius sequence, shell covering, and the contraction chain toward the origin."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gaussjn.covering import (
    Covering,
    Layer,
    build_covering,
    coverage_report,
    covering_admissibility,
    divide_interval,
    inscribed_ball,
    k_chain,
    lens_cube,
    low_discrepancy_points,
    m_ball,
    m_cube,
    radius_sequence,
)
from gaussjn.geometry import Ball, Cube, cubes_disjoint, is_admissible, m_weight


# ---------------------------------------------------------------------------
# radius sequence
# ---------------------------------------------------------------------------


def test_radius_sequence_start_and_recurrence():
    seq = radius_sequence(64)
    assert seq.a(1) == 1.0
    assert seq.a(2) == 2.0
    assert seq.a(3) == 2.5
    assert seq.a(4) == 2.9
    for k in range(1, 63):
        assert seq.a(k + 1) == seq.a(k) + 1.0 / seq.a(k)  # exact float identity


def test_radius_sequence_matches_mpmath():
    seq = radius_sequence(200)
    ref = oracles.radius_values_mp(200)
    for k in range(1, 201):
        assert seq.a(k) == pytest.approx(ref[k - 1], rel=1e-14)


def test_radius_sequence_strictly_increasing_unbounded():
    seq = radius_sequence(2000)
    vals = [seq.a(k) for k in range(1, 2001)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 60.0  # ~ sqrt(2k) growth


def test_radius_bounds_and_exceptional_set():
    """sqrt(2k) <= a_{k+1} always; sqrt(3k) caps it except exactly at k in {1, 2}.

    The first two terms genuinely overshoot the upper envelope (a_2 = 2 >
    sqrt(3), a_3 = 2.5 > sqrt(6)); from k = 3 on the bound holds with margin.
    """
    seq = radius_sequence(1001)
    violations = []
    for k in range(1, 1000):
        ak1 = seq.a(k + 1)
        assert ak1 >= math.sqrt(2.0 * k) - 1e-12
        if ak1 > math.sqrt(3.0 * k) + 1e-12:
            violations.append(k)
    assert violations == [1, 2]


def test_radius_sequence_length_guard():
    with pytest.raises(ValueError):
        radius_sequence(0)


# ---------------------------------------------------------------------------
# interval division
# ---------------------------------------------------------------------------


def test_divide_interval_covers_with_fixed_length():
    parts = divide_interval(1.0, 2.5, 0.4)
    assert parts[0][0] == 1.0
    assert parts[-1][1] == 2.5
    assert len(parts) == 4  # ceil(1.5 / 0.4)
    # every piece has the same length; the last is re-anchored at the right
    # endpoint, so consecutive pieces may overlap but can never leave a gap
    for a, b in parts:
        assert b - a == pytest.approx(0.4, rel=1e-12)
    for (_, b0), (a1, _) in zip(parts, parts[1:]):
        assert a1 <= b0 + 1e-12


def test_divide_interval_integer_quotient_abuts():
    parts = divide_interval(0.0, 2.0, 0.5)
    assert len(parts) == 4
    for (_, b0), (a1, _) in zip(parts, parts[1:]):
        assert a1 == pytest.approx(b0, abs=1e-12)


def test_divide_interval_rejects_oversized_delta():
    with pytest.raises(ValueError):
        divide_interval(0.0, 0.3, 0.5)
    with pytest.raises(ValueError):
        divide_interval(0.0, 1.0, -0.1)


@given(
    st.floats(-5.0, 5.0),
    st.floats(0.01, 4.0),
    st.floats(0.05, 0.95),
)
@settings(max_examples=150, deadline=None)
def test_divide_interval_properties(alpha, span, frac):
    beta = alpha + span
    delta = frac * span
    parts = divide_interval(alpha, beta, delta)
    assert parts[0][0] == alpha and parts[-1][1] == beta
    assert all(b > a for a, b in parts)
    assert all(b - a <= delta * (1.0 + 1e-9) for a, b in parts)
    # no gaps: each piece starts no later than where the previous one ends
    for (_, b0), (a1, _) in zip(parts, parts[1:]):
        assert a1 <= b0 + 1e-12 * max(1.0, abs(b0))


# ---------------------------------------------------------------------------
# covering construction
# ---------------------------------------------------------------------------


def test_covering_admissibility_constant():
    assert covering_admissibility(1) == pytest.approx(2.0, rel=1e-15)
    assert covering_admissibility(2) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_build_covering_structure(d):
    cov = build_covering(3, d)
    assert isinstance(cov, Covering)
    assert cov.d == d
    assert cov.depth == 3
    assert len(cov.layers) == 4  # central cube layer plus three shells
    a_out = cov.seq.a(4)
    assert cov.outer_cube().side == pytest.approx(2.0 * a_out, rel=1e-15)
    a_par = cov.admissibility
    for k, q in oracles.covering_cubes(cov):
        assert q.dim == d
        assert is_admissible(q, a_par), (k, q)
        if k >= 2:
            m = m_weight(q.center)
            assert m <= q.side <= a_par * m * (1.0 + 1e-12)


@pytest.mark.parametrize("d, depth", [(1, 8), (2, 12), (3, 4)])
def test_layers_match_the_per_cube_loop_bitwise(d, depth):
    # centers and sides bit for bit, the sign of zero included, in the loop's order
    cov = build_covering(depth, d)
    for layer in cov.layers[1:]:
        want = oracles.build_layer_loop(layer.index, d, cov.seq)
        got = np.concatenate([layer.centers, layer.sides[:, None]], axis=1)
        ref = np.array([(*q.center, q.side) for q in want])
        assert got.tobytes() == ref.tobytes(), layer.index
    central = cov.layers[0]
    assert central.centers.tobytes() == np.zeros((1, d)).tobytes()


def test_build_covering_d1_first_shell_count():
    # depth 1 in one dimension: the central cube plus one shell of two cubes
    cov = build_covering(1, 1)
    assert len(cov.layers[0]) == 1
    assert len(cov.layers[1]) == 2
    assert cov.cube_count() == 3


def test_covering_layer_one_is_central_cube():
    cov = build_covering(2, 2)
    central = cov.layers[0]
    assert central.centers.tolist() == [[0.0, 0.0]]
    assert central.sides.tolist() == [2.0]


def test_low_discrepancy_points_fill_outer_cube():
    cov = build_covering(2, 2)
    pts = low_discrepancy_points(cov, 4096, seed=1)
    assert pts.shape == (4096, 2)
    a = cov.seq.a(cov.depth + 1)
    assert np.all(np.abs(pts) <= a)
    # deterministic per seed
    again = low_discrepancy_points(cov, 4096, seed=1)
    np.testing.assert_array_equal(pts, again)
    other = low_discrepancy_points(cov, 4096, seed=2)
    assert not np.array_equal(pts, other)


@pytest.mark.parametrize("d", [1, 2])
def test_coverage_report_small(d):
    cov = build_covering(3, d)
    rep = coverage_report(cov, n_points=20_000, seed=0)
    assert rep["ok"], rep
    assert rep["covered_fraction"] == 1.0
    assert rep["max_overlap"] <= rep["overlap_limit"] == 3**d
    assert rep["admissible_all"]
    assert rep["shell_side_bounds_ok"]
    assert rep["center_bound_ok"]
    assert rep["cube_count"] == cov.cube_count()


@pytest.mark.parametrize("depth", range(1, 9))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_coverage_report_passes_every_depth(d, depth):
    rep = coverage_report(build_covering(depth, d), n_points=4000, seed=0)
    assert rep["cardinality_sup_plateau"], rep["cardinality_ratios"]
    assert rep["ok"], rep


def test_coverage_report_flags_a_padded_last_layer():
    cov = build_covering(6, 2)
    last = cov.layers[-1]
    padded = dataclasses.replace(
        cov,
        layers=cov.layers[:-1]
        + (Layer(last.index, np.tile(last.centers, (2, 1)), np.tile(last.sides, 2)),),
    )
    rep = coverage_report(padded, n_points=4000, seed=0)
    assert not rep["cardinality_sup_plateau"], rep["cardinality_ratios"]
    assert not rep["ok"]


@pytest.mark.parametrize("d, depths", [(1, (1, 3, 8)), (2, (1, 2, 5)), (3, (1, 2, 3))])
def test_coverage_report_matches_per_cube_oracle(d, depths):
    for depth in depths:
        cov = build_covering(depth, d)
        rep = coverage_report(cov, n_points=2000, seed=depth)
        ref = oracles.coverage_report_loop(cov, n_points=2000, seed=depth)
        assert rep == ref
        assert json.dumps(rep) == json.dumps(ref)


def _tamper(cov, layer, pos, cube):
    layers = list(cov.layers)
    centers, sides = layers[layer].centers.copy(), layers[layer].sides.copy()
    centers[pos], sides[pos] = cube.center, cube.side
    layers[layer] = Layer(layer, centers, sides)
    return dataclasses.replace(cov, layers=tuple(layers))


def test_coverage_report_flags_a_tampered_covering_like_oracle():
    cov = build_covering(4, 2)
    one, two, three = (oracles.as_cubes(layer.centers, layer.sides) for layer in cov.layers[1:4])
    # each tampering trips exactly one check: a layer-1 side above a * m(c)
    # (layer 1 is outside the shell-side check), a layer-2 side below m(c),
    # and a layer-3 center moved 10x out with its side rescaled into the
    # shell-side bounds
    grown = Cube(one[3].center, 2.0)
    shrunk = Cube(two[5].center, 0.25 * two[5].side)
    far = tuple(10.0 * c for c in three[0].center)
    moved = Cube(far, 1.5 * m_weight(far))
    cases = [
        (_tamper(cov, 1, 3, grown), ("admissible_all",)),
        (_tamper(cov, 2, 5, shrunk), ("shell_side_bounds_ok",)),
        (_tamper(cov, 3, 0, moved), ("center_bound_ok",)),
        (
            _tamper(_tamper(_tamper(cov, 1, 3, grown), 2, 5, shrunk), 3, 0, moved),
            ("admissible_all", "shell_side_bounds_ok", "center_bound_ok"),
        ),
    ]
    for tampered, tripped in cases:
        rep = coverage_report(tampered, n_points=4000, seed=0)
        for key in ("admissible_all", "shell_side_bounds_ok", "center_bound_ok"):
            assert rep[key] == (key not in tripped), (tripped, key)
        assert not rep["ok"]
        assert json.dumps(rep) == json.dumps(oracles.coverage_report_loop(tampered, 4000, 0))


def test_covering_command_fails_on_a_center_outside_its_bound(tmp_path, monkeypatch, capsys):
    # a layer-3 center moved 10x out, its side rescaled into the shell-side
    # bounds: the covering stays covering and admissible, and only the
    # centre-norm bound fails, which the command must report with exit 1
    from gaussjn import cli

    cov = build_covering(4, 2)
    far = tuple(10.0 * c for c in cov.layers[3].centers[0].tolist())
    tampered = _tamper(cov, 3, 0, Cube(far, 1.5 * m_weight(far)))
    monkeypatch.setattr(cli, "build_covering", lambda depth, d: tampered)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dimension": 2, "depth": 4, "coverage_points": 4000}))
    assert cli.main(["covering", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] covering-center-bound:")


# ---------------------------------------------------------------------------
# contraction map on balls and cubes
# ---------------------------------------------------------------------------


def _random_far_ball(rng, d):
    s = rng.uniform(0.51, 6.0)
    v = rng.normal(size=d)
    v *= s / np.linalg.norm(v)
    return Ball(tuple(v.tolist()), rng.uniform(0.05, 0.45))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_m_ball_identities(d):
    rng = np.random.default_rng(17)
    for _ in range(300):
        b = _random_far_ball(rng, d)
        mb = m_ball(b)
        # the image ball is tangent from inside: center norms plus radius align
        assert mb.center_norm() + mb.radius == pytest.approx(b.center_norm(), abs=1e-12)
        assert mb.radius == pytest.approx(0.5 * m_weight(mb.center), abs=1e-12)
        assert mb.center_norm() < b.center_norm()


def test_m_ball_near_regime_half_step():
    # centers with 1/2 < |c| < 3/2 step in by exactly 1/2
    b = Ball((1.2,), 0.3)
    mb = m_ball(b)
    assert mb.center_norm() == pytest.approx(0.7, abs=1e-15)
    assert mb.radius == pytest.approx(0.5, abs=1e-15)


def test_m_cube_requires_far_center():
    with pytest.raises(ValueError):
        m_cube(Cube((0.2,), 0.3))
    with pytest.raises(ValueError):
        lens_cube(Cube((0.0, 0.0), 0.5))


def test_m_cube_center_moves_inward():
    q = Cube((3.0,), 0.4)  # m(3) = 1/3 <= side, |c| > 1/2
    mq = m_cube(q)
    assert mq.center_norm() < q.center_norm()
    assert mq.side == pytest.approx(m_weight(mq.center), abs=1e-12)


def test_lens_cube_inside_original():
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        s = rng.uniform(0.6, 5.0)
        v = rng.normal(size=d)
        v *= s / np.linalg.norm(v)
        m = m_weight(tuple(v.tolist()))
        side = rng.uniform(m, min(2.0 * math.sqrt(d) * m, 2.0 * m))
        q = Cube(tuple(v.tolist()), side)
        lq = lens_cube(q)
        assert q.contains_cube(lq), (q, lq)


def test_inscribed_ball_round_trip():
    q = Cube((1.0, -2.0), 0.8)
    b = inscribed_ball(q)
    assert b.center == q.center
    assert b.radius == pytest.approx(0.4, rel=1e-15)


def test_k_chain_trivial_when_center_close():
    chain = k_chain(Cube((0.3,), 1.0))  # m = 1 <= side and |c| <= 1/2
    assert chain.steps == 0
    assert chain.cubes[0].center == (0.3,)


def test_k_chain_terminates_with_quadratic_bound():
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        s = rng.uniform(0.51, 4.0)
        v = rng.normal(size=d)
        v *= s / np.linalg.norm(v)
        m = m_weight(tuple(v.tolist()))
        side = rng.uniform(m, 2.0 * math.sqrt(d) * m)
        q = Cube(tuple(v.tolist()), side)
        chain = k_chain(q)
        assert chain.cubes[-1].center_norm() <= 0.5
        assert chain.steps <= 4.0 * s * s + 1e-9
        # every intermediate cube still has its side tied to its center
        for mid in chain.cubes[1:]:
            assert mid.side == pytest.approx(m_weight(mid.center), abs=1e-12)
