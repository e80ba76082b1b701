"""Acceptance suite: eleven end-to-end criteria, one test (and one verdict line) each.

Every test measures its own runtime against the stated budget; the session
fixture has already compiled the numerics backend, so the budgets cover the
mathematical work only.  Tolerances are asserted exactly as stated; where a
published bound is arithmetically false on finitely many small indices, the
test pins the exceptional set instead of loosening the inequality.
"""

import itertools
import math
import time

import numpy as np

import oracles
from gaussjn.covering import (
    build_covering,
    coverage_report,
    covering_admissibility,
    inscribed_ball,
    k_chain,
    m_ball,
    radius_sequence,
)
from gaussjn.fields import (
    QuadratureSpec,
    StepField,
    corpus_by_id,
    make_random_step,
    oscillation,
    step_lq_norm,
    step_weak_lp_norm,
    tail_profile,
)
from gaussjn.geometry import Cube, gaussian_measure, is_admissible, m_weight
from gaussjn.hardy import (
    HardyElement,
    duality_check,
    make_polymer,
    pairing,
    pairing_direct,
    polymer_lp_norm,
    polymer_norm,
    make_atom,
    subdivide_atom,
    subdivision_depth,
)
from gaussjn import jnp
from gaussjn.jnp import (
    CandidateSet,
    bmo_norm_estimate,
    make_candidates,
    max_weight_antichain,
    maximize_jnp,
    p_limit_scan,
)

SEED = 20240819


def _random_disjoint_cubes(rng, n, a=2.0):
    """n pairwise disjoint cubes in slots of (-3, 3), admissible at scale a."""
    cubes = []
    slots = np.linspace(-3.0, 3.0, n + 1)
    for i in range(n):
        lo, hi = slots[i], slots[i + 1]
        side = float(rng.uniform(0.25, 0.85)) * (hi - lo)
        center = float(rng.uniform(lo + side / 2.0, hi - side / 2.0))
        side = min(side, 0.95 * a * m_weight((center,)))
        cubes.append(Cube((center,), side))
    return cubes


def test_criterion_01_radius_sequence_bounds():
    """Two-sided growth envelope sqrt(2k) <= a_{k+1} <= sqrt(3k) for k <= 1e4.

    The upper half is false for the first two steps (a_2 = 2 > sqrt(3) and
    a_3 = 2.5 > sqrt(6) by direct arithmetic) and provable from k = 3 on, so
    the test demands the lower bound everywhere and pins the upper-bound
    violation set to exactly {1, 2}.
    """
    t0 = time.perf_counter()
    seq = radius_sequence(10_001)
    a = np.asarray(seq.values)
    k = np.arange(1, 10_001, dtype=float)
    ak1 = a[1:]
    assert bool(np.all(np.sqrt(2.0 * k) <= ak1 + 1e-12))
    upper_violations = k[ak1 > np.sqrt(3.0 * k) + 1e-12].astype(int).tolist()
    assert upper_violations == [1, 2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def test_criterion_02_covering_validity():
    """Global covering at depth 6 for d in {1, 2}: coverage, admissibility,
    shell side bounds, and plateaued normalized layer cardinalities."""
    t0 = time.perf_counter()
    for d in (1, 2):
        a = 2.0 * math.sqrt(d)
        cov = build_covering(6, d)
        assert cov.admissibility == a
        report = coverage_report(cov, n_points=100_000, seed=SEED)
        assert report["n_points"] == 100_000
        assert report["covered_fraction"] == 1.0
        for layer in cov.layers:
            for cube in oracles.as_cubes(layer.centers, layer.sides):
                assert is_admissible(cube, a)
                if layer.index >= 2:
                    m = m_weight(cube.center)
                    assert m <= cube.side <= a * m * (1.0 + 1e-12)
        # normalized cardinalities #L_k / k^(d-1): the running sup must not
        # increase over the last three layers (boundedness witnessed)
        ratios = [
            len(layer) / float(layer.index ** (d - 1))
            for layer in cov.layers
            if layer.index >= 1
        ]
        sups = list(itertools.accumulate(ratios, max))
        assert sups[-1] == sups[-3]
        assert report["cardinality_sup_plateau"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"


def test_criterion_03_contraction_chain_identities():
    """Per-step ball identities and the quadratic step-count bound on 1000
    random admissible cubes with m(c_Q) <= side."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        a = 2.0 * math.sqrt(d)
        direction = rng.standard_normal(d)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        s = float(rng.uniform(0.0, 4.0))
        center = tuple(float(v) for v in direction * s)
        m = m_weight(center)
        side = float(rng.uniform(1.0, a)) * m
        cube = Cube(center, side)
        chain = k_chain(cube)
        assert chain.cubes[-1].center_norm() <= 0.5
        # K_Q <= 4 D^2 d with D = |c_Q| / sqrt(d), i.e. 4 |c_Q|^2
        assert chain.steps <= 4.0 * s * s + 1e-9
        for step_cube in chain.cubes[:-1]:
            ball = inscribed_ball(step_cube)
            contracted = m_ball(ball)
            lhs = contracted.center_norm() + contracted.radius
            assert abs(lhs - ball.center_norm()) <= 1e-12
            assert abs(contracted.radius - 0.5 * m_weight(contracted.center)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"


def test_criterion_04_gaussian_measure_reference_and_additivity():
    """gamma((-1,1)) against the high-precision oracle, and exact additivity
    of the measure over recursive dyadic tilings."""
    t0 = time.perf_counter()
    val = gaussian_measure(Cube((0.0,), 2.0))
    assert abs(val - oracles.gauss1d_mp(-1.0, 1.0)) <= 1e-9
    assert abs(val - 0.8427007929) <= 1e-9

    def dyadic_leaves(cube, depth):
        if depth == 0:
            return [cube]
        return [
            leaf
            for child in cube.dyadic_children()
            for leaf in dyadic_leaves(child, depth - 1)
        ]

    cases = [
        (Cube((0.0,), 2.0), 3),
        (Cube((1.3,), 0.7), 3),
        (Cube((-2.0,), 1.1), 3),
        (Cube((0.0, 0.0), 2.0), 2),
        (Cube((0.9, -0.4), 1.2), 2),
    ]
    for cube, depth in cases:
        total = math.fsum(gaussian_measure(leaf) for leaf in dyadic_leaves(cube, depth))
        assert abs(total - gaussian_measure(cube)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def test_criterion_05_weak_type_embedding_on_steps():
    """||g||_q <= (p/(p-q))^{1/q} gamma(Q)^{1/q-1/p} ||g||_{p,weak} (1 + 0.02)
    for 200 random step fields and three exponent pairs, with the step norms
    cross-checked against the high-precision oracles along the way."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    pairs = ((3.0, 2.0), (4.0, 2.0), (2.0, 1.5))
    for trial in range(200):
        center = float(rng.uniform(-3.0, 3.0))
        m = m_weight((center,))
        side = float(rng.uniform(0.3, 1.0)) * 2.0 * m
        cube = Cube((center,), side)
        step = make_random_step(
            rng, cube, axis=0, cells=int(rng.integers(2, 7)), scale=1.5, tag=str(trial)
        )
        gq = gaussian_measure(cube)
        for p, q in pairs:
            lhs = step_lq_norm(step, cube, q)
            weak = step_weak_lp_norm(step, cube, p)
            factor = (p / (p - q)) ** (1.0 / q) * gq ** (1.0 / q - 1.0 / p)
            assert abs(factor - oracles.embedding_factor(p, q, gq)) <= 1e-12 * factor
            assert lhs <= factor * weak * (1.0 + 0.02)
        if trial % 25 == 0:
            lq_ref = oracles.step_lq_mp(step.edges, step.values, cube.lo, cube.hi, 0, 2.0)
            wk_ref = oracles.step_weak_lp_mp(
                step.edges, step.values, cube.lo, cube.hi, 0, 3.0
            )
            assert abs(step_lq_norm(step, cube, 2.0) - lq_ref) <= 1e-10 * max(1.0, lq_ref)
            assert abs(step_weak_lp_norm(step, cube, 3.0) - wk_ref) <= 1e-10 * max(
                1.0, wk_ref
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"


def test_criterion_06_antichain_dp_equals_exhaustive(monkeypatch):
    """The antichain DP matches exhaustive subset enumeration on all 282
    rooted binary forests with at most 12 nodes, 50 weight draws each.

    Weights are quantized to k / 2^20 so every partial sum of at most twelve
    of them is exactly representable.  Without the near-tie margin
    (``jnp.TIE_MARGIN`` = 0) the DP is exact, checked with ==; with it, the
    DP keeps a node whose children beat it by at most that relative margin,
    so its total lies within a factor (1 + ``TIE_MARGIN``) per forest level
    below the optimum.
    """
    t0 = time.perf_counter()
    forests = oracles.all_binary_forests(12)
    assert len(forests) == 282
    rng = np.random.default_rng(SEED)
    instances = 0
    for forest in forests:
        parent = oracles.forest_parent([shape for _, _, shape in forest])
        assert len(parent) <= 12
        # the subset table depends only on the shape: enumerate it once
        table = oracles.ExhaustiveAntichains(parent)
        slack = (1.0 + jnp.TIE_MARGIN) ** max(oracles.node_depths(parent))
        for _ in range(50):
            weights = [float(rng.integers(0, (1 << 20) + 1)) / float(1 << 20) for _ in parent]
            total, family = max_weight_antichain(parent, weights)
            exhaustive = table.best(weights)
            assert exhaustive / slack <= total <= exhaustive
            assert total == math.fsum(weights[i] for i in family)
            with monkeypatch.context() as m:
                m.setattr(jnp, "TIE_MARGIN", 0.0)
                exact, _ = max_weight_antichain(parent, weights)
            assert exact == exhaustive
            instances += 1
    assert instances == 282 * 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s budget"


def test_criterion_07_tail_constant_stability():
    """The empirical tail constant c = max sigma^p tail / khat^p over a
    covering's cubes is finite and moves by less than 10 percent when the
    quadrature schedule is deepened by one refinement level (acceptance
    threshold tightened by the corresponding factor of four)."""
    t0 = time.perf_counter()
    base = QuadratureSpec()
    fine = QuadratureSpec(nodes_per_axis=8, refinement_levels=12, abs_tol=2.5e-10)
    corpus = corpus_by_id(1)
    cov = build_covering(4, 1)
    cands = make_candidates(cov, 4)
    cubes = [q for _, q in oracles.covering_cubes(cov)]
    sigmas = tuple(float(v) for v in np.geomspace(0.05, 4.0, 25))
    sig_arr = np.asarray(sigmas)
    p, q = 2.0, 1.5
    for field_id in ("sign0", "radius_sq", "log_radial"):
        f = corpus[field_id]
        estimates = {}
        for tag, spec in (("base", base), ("fine", fine)):
            khat = maximize_jnp(f, cands, p, q, spec).value
            assert khat > 0.0
            best = 0.0
            for cube in cubes:
                profile = tail_profile(f, cube, sigmas, spec)
                tails = np.asarray(profile.tails)
                best = max(best, float(np.max(sig_arr**p * tails)))
            estimates[tag] = best / khat**p
        assert math.isfinite(estimates["base"]) and estimates["base"] > 0.0
        assert math.isfinite(estimates["fine"]) and estimates["fine"] > 0.0
        change = abs(estimates["fine"] - estimates["base"]) / estimates["base"]
        assert change < 0.10, f"{field_id}: c moved by {change:.2%}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2min budget"


def test_criterion_08_bmo_dominates_and_limit_behaviour():
    """Oscillation-functional ordering: the summed estimate never exceeds the
    uniform one on a shared pool; the p-scan is nondecreasing within 1e-6;
    and on a single cube the gap to the uniform estimate shrinks strictly,
    following the closed form gamma(Q)^{1/p} increasing to 1."""
    t0 = time.perf_counter()
    spec = QuadratureSpec()
    corpus = corpus_by_id(1)
    cov = build_covering(3, 1)
    cands = make_candidates(cov, 3)
    for field_id in ("sign0", "radius_sq"):
        f = corpus[field_id]
        bmo = bmo_norm_estimate(f, cands, 1, 6.0, spec, q=1.0)
        for p in (2.0, 4.0, 8.0):
            jn = maximize_jnp(f, cands, p, 1.0, spec)
            assert jn.value <= bmo.value + 1e-9
        scan = p_limit_scan(f, cands, (2.0, 3.0, 4.0, 8.0), 1.5, spec)
        values = [est.value for _, est in scan]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-6

    # single-cube suite: value = gamma(Q)^(1/p) * oscillation exactly
    cube = Cube((0.25,), 1.5)
    single = CandidateSet(np.array([cube.center]), np.array([cube.side]), np.array([-1]), 2.0)
    f = corpus["radius_sq"]
    osc = oscillation(f, cube, 1.0, spec)
    gq = gaussian_measure(cube)
    bmo_single = bmo_norm_estimate(f, single, 1, 6.0, spec, q=1.0)
    gaps = []
    for p in (2.0, 3.0, 4.0, 6.0, 8.0, 12.0):
        jn = maximize_jnp(f, single, p, 1.0, spec).value
        closed = gq ** (1.0 / p) * osc
        assert abs(jn - closed) <= 1e-12 * max(1.0, closed)
        gaps.append(bmo_single.value - jn)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 1min budget"


def test_criterion_09_atom_subdivision_cascade():
    """Subdivision from scale 2 sqrt(d) down to scale 1 in d in {1, 2}: the
    depth bound matches the geometric formula, reconstructions agree to 1e-9
    on 1000 points, every output cube is admissible at the target scale, and
    every piece has mean below 1e-10."""
    t0 = time.perf_counter()
    spec = QuadratureSpec()
    expected_depth = {1: 4, 2: 6}
    for d in (1, 2):
        a1 = 2.0 * math.sqrt(d)
        a2 = 1.0
        n = subdivision_depth(a1, a2, d)
        # independent evaluation of min{k : (2/3)^k a1 (1 + sqrt(d) a1 / 2) <= a2}
        drift_bound = a1 * (1.0 + math.sqrt(d) * a1 / 2.0)
        n_ref = max(0, math.ceil(math.log(drift_bound / a2) / math.log(1.5) - 1e-12))
        assert n == n_ref == expected_depth[d]
        assert covering_admissibility(d) == a1
        corpus = corpus_by_id(d)
        rng = np.random.default_rng(SEED + d)
        starts = [
            Cube((1.2,) + (0.0,) * (d - 1), 1.0),
            Cube((2.0,) + (0.0,) * (d - 1), 0.9),
        ]
        for cube in starts:
            assert is_admissible(cube, a1)
            for field_id in ("radius_sq", "coord0"):
                atom = make_atom(corpus[field_id], cube, 3.0, spec)
                result = subdivide_atom(atom, a1, a2, spec)
                assert result.depth_bound == n
                assert result.max_depth <= n
                pts = rng.uniform(
                    cube.lo_array() + 1e-9, cube.hi_array() - 1e-9, size=(1000, d)
                )
                reconstructed = np.zeros(1000)
                for piece in result.atoms:
                    assert is_admissible(piece.cube, a2)
                    assert abs(piece.mean(spec)) <= 1e-10
                    reconstructed += piece.field(pts)
                residual = float(np.max(np.abs(reconstructed - atom.field(pts))))
                assert residual <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"


def test_criterion_10_duality_chain_suite():
    """A 100-atom randomized suite (ten polymers of ten atoms): per-atom
    Hoelder at 1e-8, aggregated pairing bound, ||g||_p <= polymer norm for
    every polymer, and truncation-limit pairing equal to the direct integral
    within 1e-8 on globally bounded fields."""
    t0 = time.perf_counter()
    spec = QuadratureSpec()
    corpus = corpus_by_id(1)
    rng = np.random.default_rng(SEED)
    suite = [
        (corpus["sign0"], True),
        (corpus["radius_sq"], False),
        (corpus["coord0"], False),
        (corpus["step0"], True),
        (corpus["log_radial"], False),
    ]
    for i in range(5):
        edges = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(8, 15))))
        values = rng.uniform(-2.0, 2.0, size=len(edges) + 1)
        suite.append(
            (
                StepField(f"suite-step-{i}", 0, tuple(edges), tuple(values)),
                True,
            )
        )
    total_atoms = 0
    for f, bounded in suite:
        cubes = _random_disjoint_cubes(rng, 10)
        polymer = make_polymer(f, cubes, 1.5, 3.0, spec, a=2.0)
        total_atoms += len(polymer.atoms)
        element = HardyElement(c0=0.0, polymers=(polymer,))
        report = duality_check(f, element, spec)
        assert all(check.ok for check in report.atom_checks)
        assert report.ok
        assert polymer_lp_norm(polymer, spec) <= polymer_norm(polymer, spec) + 1e-12
        limit = pairing(f, element, 1, 6.0, spec, pairing_tol=1e-8)
        assert limit.converged
        assert abs(limit.value) <= report.headline_bound + 1e-8
        if bounded:
            direct = pairing_direct(f, element, 1, 6.0, spec)
            assert abs(limit.value - direct) <= 1e-8
    assert total_atoms == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2min budget"


def test_criterion_11_grid_indexed_geometry_d3():
    """The d=3 depth-6 covering (12373 cubes) is checked against 100k points
    in under 5 s, with full coverage and overlap at most 3^3, and thinned to
    its first-fit disjoint roots in under 10 s."""
    cov = build_covering(6, 3)
    t0 = time.perf_counter()
    report = coverage_report(cov, n_points=100_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    assert report["covered_fraction"] == 1.0
    assert report["max_overlap"] <= 27
    assert elapsed < 5.0, f"coverage_report runtime {elapsed:.2f}s exceeds 5s budget"
    t0 = time.perf_counter()
    cands = make_candidates(cov, 0)
    elapsed = time.perf_counter() - t0
    # the all-pairs first-fit scan keeps the same 10261 roots (in about 250 s)
    assert len(cands.roots) == 10261
    assert elapsed < 10.0, f"make_candidates runtime {elapsed:.2f}s exceeds 10s budget"
