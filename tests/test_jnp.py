"""Oscillation-sum functionals, the antichain optimizer, and tail-exponent fits."""

import itertools
import json
import math

import numpy as np
import pytest

import oracles
from gaussjn.covering import Covering, Layer, build_covering, radius_sequence
from gaussjn.fields import QuadratureSpec, corpus_by_id, oscillation, oscillations
from gaussjn.geometry import Cube, gaussian_measure
import gaussjn.jnp as jnp_module
from gaussjn.jnp import (
    CandidateSet,
    ForestNode,
    OscCache,
    bmo_norm_estimate,
    grow_forest,
    jn_tail_fit,
    jnp_sum,
    make_candidates,
    max_weight_antichain,
    maximize_jnp,
    maximize_jnp_pool,
    p_limit_scan,
    tail_fit_sweep,
    validate_family,
)


@pytest.fixture(scope="module")
def cov1():
    return build_covering(3, 1)


@pytest.fixture(scope="module")
def cands1(cov1):
    return make_candidates(cov1, 3)


def _sign():
    return corpus_by_id(1)["sign0"]


def _rsq():
    return corpus_by_id(1)["radius_sq"]


# ---------------------------------------------------------------------------
# family validation and the plain oscillation sum
# ---------------------------------------------------------------------------


def test_validate_family_catches_overlap():
    with pytest.raises(ValueError, match="overlap"):
        validate_family([Cube((0.0,), 1.0), Cube((0.4,), 1.0)], 2.0)


def test_validate_family_catches_inadmissible():
    with pytest.raises(ValueError, match="admissible"):
        validate_family([Cube((4.0,), 1.0)], 2.0)  # m = 1/4, max side 1/2


def test_validate_family_accepts_disjoint_admissible():
    validate_family([Cube((-0.5,), 0.5), Cube((0.5,), 0.5)], 2.0)


def test_jnp_sum_matches_manual(spec):
    f = _sign()
    cubes = [Cube((-0.5,), 0.5), Cube((0.75,), 0.5)]
    p, q = 2.0, 1.5
    manual = math.fsum(
        gaussian_measure(c) * oscillation(f, c, q, spec) ** p for c in cubes
    ) ** (1.0 / p)
    assert jnp_sum(f, cubes, p, q, spec, a=2.0) == pytest.approx(manual, rel=1e-14)


def test_jnp_sum_rejects_bad_exponents(spec):
    with pytest.raises(ValueError):
        jnp_sum(_sign(), [Cube((0.0,), 1.0)], 1.0, 1.0, spec)
    with pytest.raises(ValueError):
        jnp_sum(_sign(), [Cube((0.0,), 1.0)], 2.0, 2.5, spec)


# ---------------------------------------------------------------------------
# antichain dynamic program vs exhaustive enumeration
# ---------------------------------------------------------------------------


def build_forest(shapes):
    """Materialize abstract tree shapes as nodes with distinct dummy cubes."""
    counter = itertools.count()

    def build(shape, depth):
        cube = Cube((float(next(counter)),), 1.0)
        kids = tuple(build(s, depth + 1) for s in shape)
        return ForestNode(cube, depth, kids)

    return tuple(build(s, 0) for s in shapes)


def quantized_weights(rng, nodes):
    """Dyadic-rational weights: all subset sums are exact in double precision."""
    return {
        id(n): float(rng.integers(0, (1 << 20) + 1)) / float(1 << 20) for n in nodes
    }


def test_dp_equals_exhaustive_on_small_forests(monkeypatch):
    rng = np.random.default_rng(101)
    forests = oracles.all_binary_forests(8)
    assert len(forests) == 37  # 1+1+2+2+4+5+10+12 full-binary forests
    for forest in forests:
        roots = build_forest([shape for _, _, shape in forest])
        nodes = [n for r in roots for n in r.iter_nodes()]
        slack = (1.0 + jnp_module.TIE_MARGIN) ** max(n.depth for n in nodes)
        for _ in range(5):
            w = quantized_weights(rng, nodes)
            weight_of = lambda n: w[id(n)]
            total, family = max_weight_antichain(roots, weight_of)
            ref = oracles.antichain_best_exhaustive(roots, weight_of)
            # near-ties keep the node: at most a factor (1 + TIE_MARGIN) per level short
            assert ref / slack <= total <= ref
            # the reported family attains the reported total
            assert math.fsum(weight_of(n) for n in family) == total
            with monkeypatch.context() as m:
                m.setattr(jnp_module, "TIE_MARGIN", 0.0)
                exact, _ = max_weight_antichain(roots, weight_of)
            assert exact == ref  # exact: all sums are dyadic rationals


def test_dp_stays_within_the_margin_of_the_exhaustive_optimum(monkeypatch):
    # children ahead of a weight-1 node by one quantum 2^-20 < TIE_MARGIN:
    # the node is kept, one quantum below the exhaustive optimum
    (root,) = build_forest([((), ())])
    left, right = root.children
    w = {id(root): 1.0, id(left): 0.5, id(right): 0.5 + 2.0**-20}
    weight_of = lambda n: w[id(n)]
    ref = oracles.antichain_best_exhaustive([root], weight_of)
    assert ref == 1.0 + 2.0**-20
    total, family = max_weight_antichain([root], weight_of)
    assert family == (root,) and total == 1.0
    assert ref / (1.0 + jnp_module.TIE_MARGIN) <= total < ref
    monkeypatch.setattr(jnp_module, "TIE_MARGIN", 0.0)
    assert max_weight_antichain([root], weight_of) == (ref, root.children)


def test_dp_family_is_antichain():
    rng = np.random.default_rng(103)
    roots = build_forest([(((), ()), ((), ())), ((), ())])
    nodes = [n for r in roots for n in r.iter_nodes()]
    w = quantized_weights(rng, nodes)
    _, family = max_weight_antichain(roots, lambda n: w[id(n)])
    # no member may be an ancestor of another
    descendants = {id(n): {id(m) for m in n.iter_nodes()} - {id(n)} for n in nodes}
    for a in family:
        for b in family:
            assert id(b) not in descendants[id(a)]


def test_dp_tie_prefers_shallow_node():
    (root,) = build_forest([((), ())])
    w = {id(n): 0.5 if n.children == () else 1.0 for n in root.iter_nodes()}
    total, family = max_weight_antichain([root], lambda n: w[id(n)])
    assert total == 1.0
    assert family == (root,)


def test_dp_near_tie_keeps_the_node():
    # the central cube (-1, 1) and its halves tie exactly for radius_sq; the
    # quadrature decides such a tie only by its last bits
    (root,) = build_forest([((), ())])
    for eps in (1e-9, -1e-9, 0.0):
        w = {id(n): 0.5 * (1.0 + eps) if n.children == () else 1.0 for n in root.iter_nodes()}
        total, family = max_weight_antichain([root], lambda n: w[id(n)])
        assert family == (root,) and total == 1.0
    # a real win still replaces the node
    w = {id(n): 0.5 * (1.0 + 1e-3) if n.children == () else 1.0 for n in root.iter_nodes()}
    total, family = max_weight_antichain([root], lambda n: w[id(n)])
    assert family == root.children and total == 1.0 + 1e-3


def test_central_cube_keeps_its_tie_with_its_halves(spec):
    # osc on (-1, 1) equals osc on (0, 1) by symmetry, and gamma doubles
    roots = grow_forest([Cube((0.0,), 2.0)], 1, 2.0)
    for q in (1.25, 1.5):
        cache = OscCache(_rsq(), q, spec)
        weight = {id(n): cache.weight(n.cube, 2.0) for n in roots[0].iter_nodes()}
        halves = sum(weight[id(c)] for c in roots[0].children)
        assert halves == pytest.approx(weight[id(roots[0])], rel=1e-8)
        _, family = max_weight_antichain(roots, lambda n: weight[id(n)])
        assert family == roots


def test_dp_rejects_negative_weights():
    roots = build_forest([()])
    with pytest.raises(ValueError):
        max_weight_antichain(roots, lambda n: -0.5)


def test_exhaustive_oracle_rejects_oversized_forest():
    roots = build_forest([()] * 21)
    with pytest.raises(ValueError):
        oracles.antichain_best_exhaustive(roots, lambda _: 1.0)


# ---------------------------------------------------------------------------
# candidate forests from coverings
# ---------------------------------------------------------------------------


def test_make_candidates_structure(cov1, cands1):
    assert isinstance(cands1, CandidateSet)
    assert cands1.a == cov1.admissibility
    # roots pairwise disjoint, all nodes admissible, children live in parents
    from gaussjn.geometry import cubes_disjoint, is_admissible

    roots = [r.cube for r in cands1.roots]
    for i, qi in enumerate(roots):
        for qj in roots[:i]:
            assert cubes_disjoint(qi, qj)
    for node in cands1.iter_nodes():
        assert is_admissible(node.cube, cands1.a)
        for child in node.children:
            assert node.cube.contains_cube(child.cube)
            assert child.cube.side == pytest.approx(0.5 * node.cube.side, rel=1e-15)
    assert cands1.node_count() == len(cands1.cubes())


def test_make_candidates_depth_zero(cov1):
    flat = make_candidates(cov1, 0)
    assert all(not r.children for r in flat.roots)
    with pytest.raises(ValueError):
        make_candidates(cov1, -1)


def test_make_candidates_2d_roots_disjoint():
    from gaussjn.geometry import cubes_disjoint

    cov = build_covering(2, 2)
    cands = make_candidates(cov, 1)
    roots = [r.cube for r in cands.roots]
    for i, qi in enumerate(roots):
        for qj in roots[:i]:
            assert cubes_disjoint(qi, qj)
    assert len(roots) >= 5  # thinning keeps a nontrivial disjoint subfamily


def _preorder(roots):
    """Every node as (depth, center bits, side bits, child count), in preorder."""
    return [
        (n.depth, tuple(map(float.hex, n.cube.center)), n.cube.side.hex(), len(n.children))
        for r in roots
        for n in r.iter_nodes()
    ]


@pytest.mark.parametrize("cdepth", [0, 1, 2, 3])
@pytest.mark.parametrize("d, depth", [(1, 8), (2, 2), (3, 1)])
def test_make_candidates_matches_recursive_oracle(d, depth, cdepth):
    cov = build_covering(depth, d)
    cands = make_candidates(cov, cdepth)
    ref = oracles.make_candidates_recursive(cov, cdepth)
    assert _preorder(cands.roots) == _preorder(ref)
    assert cands.node_count() == sum(1 for r in ref for _ in r.iter_nodes())


@pytest.mark.parametrize("a", [4.0, 6.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grow_forest_drops_inadmissible_subtrees_like_oracle(d, a):
    # large cubes near the origin: at these scales some roots and some
    # children are not admissible, so whole subtrees are dropped
    rest = (0.0,) * (d - 1)
    roots = [
        Cube((0.0, *rest), 6.0),
        Cube((1.0, *rest), 4.0),
        Cube((-40.0,) * d, 0.5),
        Cube((1.5,) * d, 2.0),
    ]
    forest = grow_forest(roots, 3, a)
    assert _preorder(forest) == _preorder(oracles.grow_forest_recursive(roots, 3, a))
    full = len(roots) * sum(2 ** (d * k) for k in range(4))
    assert 0 < sum(1 for r in forest for _ in r.iter_nodes()) < full
    if a == 4.0 and d >= 2:  # the cube at (1, 0, ...) keeps only its inner children
        kept = {r.cube.center: r for r in forest}
        assert 0 < len(kept[(1.0, *rest)].children) < 2**d
    assert grow_forest([], 2, a) == ()
    with pytest.raises(ValueError):
        grow_forest(roots, 1, 0.0)


# ---------------------------------------------------------------------------
# the optimized functional
# ---------------------------------------------------------------------------


def _root_keys(cands):
    return [(r.cube.center, r.cube.side) for r in cands.roots]


def test_make_candidates_roots_match_first_fit_oracle():
    for d, depths in ((1, (1, 4, 8)), (2, (1, 3, 6)), (3, (1, 2))):
        for depth in depths:
            cov = build_covering(depth, d)
            ref = oracles.first_fit_disjoint_brute([q for _, q in cov.all_cubes()])
            assert _root_keys(make_candidates(cov, 0)) == [(q.center, q.side) for q in ref]


def test_make_candidates_first_fit_keeps_abutting_dyadic_halves():
    # the 16 grandchildren of a side-0.3 cube abut exactly in the model, but
    # 0.3 is no binary fraction and 8 of their pairs render with an overlap
    # of a few ulps: only the boundary tolerance keeps them all
    q = Cube((0.1, 0.7), 0.3)
    halves = [g for child in q.dyadic_children() for g in child.dyadic_children()]
    rendered_overlaps = sum(
        all(h1 > l2 and h2 > l1 for l1, h1, l2, h2 in zip(a.lo, a.hi, b.lo, b.hi))
        for a, b in itertools.combinations(halves, 2)
    )
    assert rendered_overlaps == 8
    shifted = Cube((0.1 + 0.3 / 8.0, 0.7), 0.075)  # overlaps two grandchildren by half
    order = [halves[5], q, *halves[:5], *halves[6:], shifted]
    cov = Covering(2, 1, radius_sequence(2), (Layer(0, tuple(order[:3])), Layer(1, tuple(order[3:]))))
    expected = [halves[5], *halves[:5], *halves[6:]]
    assert oracles.first_fit_disjoint_brute(order) == expected
    assert _root_keys(make_candidates(cov, 0)) == [(c.center, c.side) for c in expected]


def test_maximize_jnp_sign_reference(cands1, spec):
    est = maximize_jnp(_sign(), cands1, 2.0, 1.5, spec)
    # frozen reference for this covering/candidate configuration
    assert est.value == pytest.approx(0.9179873599073763, abs=1e-12)
    assert est.method == "antichain-dp"
    assert len(est.family) >= 2
    assert est.candidates == cands1.node_count()
    # the reported contributions rebuild the reported value
    assert math.fsum(est.contributions) ** 0.5 == pytest.approx(est.value, rel=1e-12)


def test_maximize_jnp_radius_sq_reference(cands1, spec):
    est = maximize_jnp(_rsq(), cands1, 2.0, 1.5, spec)
    assert est.value == pytest.approx(0.3210070959239856, abs=1e-12)
    # the same family at 40 digits: 0.32100709592707488
    mp = oracles.mp
    total = mp.mpf(0)
    for cube in est.family:
        a, b = cube.lo[0], cube.hi[0]
        osc = oracles.oscillation_mp(
            lambda t: t * t, a, b, 1.5, lambda c: [mp.sqrt(c), -mp.sqrt(c)]
        )
        total += mp.mpf(oracles.gauss1d_mp(a, b)) * mp.mpf(osc) ** 2
    assert est.value == pytest.approx(float(mp.sqrt(total)), abs=1e-11)


def test_maximize_jnp_to_obj_serializable(cands1, spec):
    est = maximize_jnp(_sign(), cands1, 2.0, 1.5, spec)
    blob = json.dumps(est.to_obj(), sort_keys=True)
    assert "antichain-dp" in blob


def test_pool_heuristic_never_beats_dp(cands1, spec):
    f = _sign()
    dp = maximize_jnp(f, cands1, 2.0, 1.5, spec)
    pool = maximize_jnp_pool(f, cands1.cubes(), 2.0, 1.5, spec, cands1.a)
    assert pool.value <= dp.value + 1e-12
    # the greedy family is itself valid
    validate_family(pool.family, cands1.a)


def test_p_limit_scan_nondecreasing(cands1, spec):
    scan = p_limit_scan(_sign(), cands1, [2.0, 3.0, 4.0, 8.0], 1.5, spec)
    values = [est.value for _, est in scan]
    assert values[0] == pytest.approx(0.9179873599073763, abs=1e-12)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9
    with pytest.raises(ValueError):
        p_limit_scan(_sign(), cands1, [3.0, 2.0], 1.5, spec)


def test_single_cube_value_closed_form(spec):
    # with one admissible cube the functional is gamma(Q)^(1/p) * osc_q
    cube = Cube((0.0,), 1.0)
    node = ForestNode(cube, 0, ())
    cands = CandidateSet((node,), a=2.0, depth=0)
    f = _rsq()
    for p in (2.0, 4.0, 8.0):
        est = maximize_jnp(f, cands, p, 1.5, spec)
        ref = gaussian_measure(cube) ** (1.0 / p) * oscillation(f, cube, 1.5, spec)
        assert est.value == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# BMO-type estimate dominates
# ---------------------------------------------------------------------------


def test_bmo_estimate_dominates_jnp(cands1, spec):
    for fid in ("sign0", "radius_sq"):
        f = corpus_by_id(1)[fid]
        bmo = bmo_norm_estimate(f, cands1, 1, 6.0, spec, q=1.0)
        assert bmo.value == bmo.l1_term + bmo.sup_term
        assert bmo.sup_term == pytest.approx(
            max(oscillation(f, n.cube, 1.0, spec) for n in cands1.iter_nodes()),
            rel=1e-12,
        )
        for p in (2.0, 4.0):
            est = maximize_jnp(f, cands1, p, 1.0, spec)
            assert est.value <= bmo.value + 1e-9, (fid, p)


def test_bmo_and_jnp_share_one_oscillation_per_cube(cands1, spec, monkeypatch):
    calls = []

    def counted(f, cubes, q, spec_):
        calls.extend((cube.center, cube.side) for cube in cubes)
        return oscillations(f, cubes, q, spec_)

    monkeypatch.setattr(jnp_module, "oscillations", counted)
    f = corpus_by_id(1)["radius_sq"]
    cache = OscCache(f, 1.5, spec)
    shared = bmo_norm_estimate(f, cands1, 1, 6.0, spec, q=1.5, cache=cache)
    est = maximize_jnp(f, cands1, 2.0, 1.5, spec, cache=cache)
    assert len(calls) == len(set(calls)) == cands1.node_count()
    assert shared == bmo_norm_estimate(f, cands1, 1, 6.0, spec, q=1.5)
    assert est == maximize_jnp(f, cands1, 2.0, 1.5, spec)


def test_maximize_jnp_evaluates_the_field_once_per_refinement_round(spec):
    # the 255-cube forest of the benchmark: each cube needs a centering
    # average and a centered power average, each up to refinement_levels + 1
    # levels; one field evaluation serves every cube pending in a round,
    # where a loop over cubes made about 2000 of them
    cands = make_candidates(build_covering(8, 1), 3)
    assert cands.node_count() == 255
    for fid in ("coord0", "radius_sq", "log_radial", "sign0"):
        f = corpus_by_id(1)[fid]
        calls = []
        evaluate = f.fn
        f.fn = lambda pts: calls.append(len(pts)) or evaluate(pts)
        maximize_jnp(f, cands, 2.0, 1.25, spec)
        assert 0 < len(calls) <= 2 * (spec.refinement_levels + 1) + 4, (fid, len(calls))


def test_bmo_estimate_serializable(cands1, spec):
    bmo = bmo_norm_estimate(_sign(), cands1, 1, 6.0, spec)
    obj = bmo.to_obj()
    json.dumps(obj)
    assert obj["pool_size"] == cands1.node_count()


# ---------------------------------------------------------------------------
# tail-exponent fitting
# ---------------------------------------------------------------------------


def test_tail_fit_degenerate_on_two_valued_field(spec):
    # |f - f_Q| is a.e. constant 1 on the symmetric cube: every tail is
    # either the full mass or zero, so no usable fit window exists
    rep = jn_tail_fit(_sign(), Cube((0.0,), 2.0), 2.0, spec, np.geomspace(0.05, 2.0, 12), khat=0.5)
    assert rep.degenerate
    assert rep.slope is None and rep.c_estimate is None


def test_tail_fit_radius_sq(spec):
    f = _rsq()
    cube = Cube((0.0,), 2.0)
    sig = np.geomspace(0.01, 1.2, 25)
    rep = jn_tail_fit(f, cube, 2.0, spec, sig, khat=0.3210070958281939)
    assert not rep.degenerate
    assert rep.slope is not None and rep.slope < 0.0
    assert rep.c_estimate is not None and 0.0 < rep.c_estimate < math.inf
    lo, hi = rep.window
    assert 0 <= lo < hi <= len(sig)
    gq = gaussian_measure(cube)
    for t in rep.tails[lo:hi]:
        assert 1e-6 < t < 0.5 * gq


def test_tail_fit_rejects_nonpositive_khat(spec):
    with pytest.raises(ValueError):
        jn_tail_fit(_rsq(), Cube((0.0,), 2.0), 2.0, spec, [0.1, 0.2], khat=0.0)


def test_tail_fit_sweep_keeps_degenerates(spec):
    f = _sign()
    # symmetric cube: |f - f_Q| is a.e. the constant 1 (no window); the
    # off-center cube straddles zero with unequal masses, so the distance
    # takes two distinct values and yields a usable intermediate tail
    cubes = [Cube((0.0,), 2.0), Cube((0.25,), 1.5)]
    # several points inside the off-center cube's middle plateau (0.76, 1.24)
    sig = np.array([0.05, 0.6, 0.8, 0.9, 1.0, 1.1, 1.5, 2.0])
    reports = tail_fit_sweep(f, cubes, 2.0, spec, sig, khat=0.5)
    assert len(reports) == 2
    assert reports[0].degenerate
    assert not reports[1].degenerate
    json.dumps([r.to_obj() for r in reports])
