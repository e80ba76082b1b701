"""Oscillation-sum functionals, the antichain optimizer, and tail-exponent fits."""

import itertools
import json
import math
import re

import numpy as np
import pytest

import oracles
from gaussjn.covering import Covering, Layer, build_covering, radius_sequence
from gaussjn.fields import QuadratureSpec, corpus_by_id, oscillation, oscillations
from gaussjn.geometry import (
    Cube, cube_arrays, cubes_disjoint, gaussian_measure, gaussian_measures, is_admissible,
)
import gaussjn.jnp as jnp_module
from gaussjn.jnp import (
    CandidateSet,
    bmo_norm_estimate,
    grow_forest,
    jn_tail_fit,
    jnp_sum,
    make_candidates,
    max_weight_antichain,
    maximize_jnp,
    maximize_jnp_pool,
    node_stats,
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


def _nodes(cands):
    """The forest's nodes as cubes, in preorder."""
    return oracles.as_cubes(cands.centers, cands.sides)


# ---------------------------------------------------------------------------
# family validation and the plain oscillation sum
# ---------------------------------------------------------------------------


def test_validate_family_catches_overlap():
    with pytest.raises(ValueError, match="overlap"):
        validate_family(*cube_arrays([Cube((0.0,), 1.0), Cube((0.4,), 1.0)]), 2.0)


def test_validate_family_catches_inadmissible():
    with pytest.raises(ValueError, match="admissible"):
        validate_family(*cube_arrays([Cube((4.0,), 1.0)]), 2.0)  # m = 1/4, max side 1/2


def test_validate_family_accepts_disjoint_admissible():
    validate_family(*cube_arrays([Cube((-0.5,), 0.5), Cube((0.5,), 0.5)]), 2.0)


def _first_fault_loop(cubes, a):
    """The error of validating cube by cube: cube i's admissibility, then its overlaps."""
    for i, q in enumerate(cubes):
        if not is_admissible(q, a):
            return f"cube {i} (center {q.center}, side {q.side}) is not admissible"
        for j in range(i):
            if not cubes_disjoint(q, cubes[j]):
                return f"cubes {j} and {i} overlap"
    return None


@pytest.mark.parametrize("d", [1, 2])
def test_validate_family_raises_the_first_fault_of_the_loop(d):
    # an abutting pair, two cubes overlapping it, an inadmissible cube apart
    # and one overlapping them all: every ordered choice of them must fail on
    # the loop's first fault, or pass
    rest = (0.0,) * (d - 1)
    pool = [Cube((-0.5, *rest), 0.5), Cube((0.0, *rest), 0.5), Cube((4.0, *rest), 1.0),
            Cube((0.1, *rest), 0.5), Cube((0.25, *rest), 0.5), Cube((0.0, *rest), 2.5)]
    outcomes = set()
    for k in range(1, len(pool) + 1):
        for family in itertools.permutations(pool, k):
            try:
                validate_family(*cube_arrays(family), 2.0)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == _first_fault_loop(family, 2.0), family
            outcomes.add(got if got is None else got.split()[-1])
    assert outcomes == {None, "overlap", "admissible"}


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


def quantized_weights(rng, n):
    """Dyadic-rational weights: all subset sums are exact in double precision."""
    return [float(rng.integers(0, (1 << 20) + 1)) / float(1 << 20) for _ in range(n)]


def test_dp_equals_exhaustive_on_small_forests(monkeypatch):
    rng = np.random.default_rng(101)
    forests = oracles.all_binary_forests(8)
    assert len(forests) == 37  # 1+1+2+2+4+5+10+12 full-binary forests
    for forest in forests:
        parent = oracles.forest_parent([shape for _, _, shape in forest])
        slack = (1.0 + jnp_module.TIE_MARGIN) ** max(oracles.node_depths(parent))
        for _ in range(5):
            w = quantized_weights(rng, len(parent))
            total, family = max_weight_antichain(parent, w)
            ref = oracles.antichain_best_exhaustive(parent, w)
            # near-ties keep the node: at most a factor (1 + TIE_MARGIN) per level short
            assert ref / slack <= total <= ref
            # the reported family attains the reported total
            assert math.fsum(w[i] for i in family) == total
            with monkeypatch.context() as m:
                m.setattr(jnp_module, "TIE_MARGIN", 0.0)
                exact, _ = max_weight_antichain(parent, w)
            assert exact == ref  # exact: all sums are dyadic rationals


def test_dp_stays_within_the_margin_of_the_exhaustive_optimum(monkeypatch):
    # children ahead of a weight-1 node by one quantum 2^-20 < TIE_MARGIN:
    # the node is kept, one quantum below the exhaustive optimum
    parent = oracles.forest_parent([((), ())])
    w = [1.0, 0.5, 0.5 + 2.0**-20]
    ref = oracles.antichain_best_exhaustive(parent, w)
    assert ref == 1.0 + 2.0**-20
    total, family = max_weight_antichain(parent, w)
    assert family == (0,) and total == 1.0
    assert ref / (1.0 + jnp_module.TIE_MARGIN) <= total < ref
    monkeypatch.setattr(jnp_module, "TIE_MARGIN", 0.0)
    assert max_weight_antichain(parent, w) == (ref, (1, 2))


def test_dp_family_is_antichain():
    rng = np.random.default_rng(103)
    parent = oracles.forest_parent([(((), ()), ((), ())), ((), ())])
    w = quantized_weights(rng, len(parent))
    _, family = max_weight_antichain(parent, w)
    # no member may be an ancestor of another
    for b in family:
        a = parent[b]
        while a >= 0:
            assert a not in family
            a = parent[a]


def test_dp_tie_prefers_shallow_node():
    parent = oracles.forest_parent([((), ())])
    total, family = max_weight_antichain(parent, [1.0, 0.5, 0.5])
    assert total == 1.0
    assert family == (0,)


def test_dp_near_tie_keeps_the_node():
    # the central cube (-1, 1) and its halves tie exactly for radius_sq; the
    # quadrature decides such a tie only by its last bits
    parent = oracles.forest_parent([((), ())])
    for eps in (1e-9, -1e-9, 0.0):
        total, family = max_weight_antichain(parent, [1.0] + [0.5 * (1.0 + eps)] * 2)
        assert family == (0,) and total == 1.0
    # a real win still replaces the node
    total, family = max_weight_antichain(parent, [1.0] + [0.5 * (1.0 + 1e-3)] * 2)
    assert family == (1, 2) and total == 1.0 + 1e-3


def test_central_cube_keeps_its_tie_with_its_halves(spec):
    # osc on (-1, 1) equals osc on (0, 1) by symmetry, and gamma doubles
    forest = grow_forest(np.array([[0.0]]), np.array([2.0]), 1, 2.0)
    assert forest.parent.tolist() == [-1, 0, 0]
    for q in (1.25, 1.5):
        gamma, osc = node_stats(_rsq(), forest.centers, forest.sides, q, spec)
        weight = (gamma * osc**2).tolist()
        assert weight[1] + weight[2] == pytest.approx(weight[0], rel=1e-8)
        _, family = max_weight_antichain(forest.parent, weight)
        assert family == (0,)


def test_dp_rejects_negative_weights():
    with pytest.raises(ValueError):
        max_weight_antichain([-1], [-0.5])


def test_exhaustive_oracle_rejects_oversized_forest():
    with pytest.raises(ValueError):
        oracles.antichain_best_exhaustive([-1] * 21, [1.0] * 21)


def _random_forest(rng, d, n_roots, depth):
    """Preorder parent indices of random trees with 0 to 2^d children per node."""
    parent = []

    def grow(up, budget):
        here = len(parent)
        parent.append(up)
        if budget:
            for _ in range(int(rng.integers(0, 2**d + 1))):
                grow(here, budget - 1)

    for _ in range(n_roots):
        grow(-1, depth)
    return parent


@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_dp_matches_recursive_oracle_bit_for_bit(d, monkeypatch):
    # planted near-ties: an internal node weighs its children's sum, or that
    # sum divided by (1 + TIE_MARGIN), up to a few ulps or a small relative
    # change, so both sides of the margin rule are exercised
    rng = np.random.default_rng(20 + d)
    margin = jnp_module.TIE_MARGIN
    factors = [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-3]
    planted = moved = 0
    for trial in range(100):
        parent = _random_forest(rng, d, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        children = [[] for _ in parent]
        for i, up in enumerate(parent):
            if up >= 0:
                children[up].append(i)
        w = rng.uniform(0.0, 1.0, len(parent)) ** 3
        for i in range(len(parent) - 1, -1, -1):
            if children[i] and rng.random() < 0.6:
                below = math.fsum(w[c] for c in children[i])
                w[i] = below * factors[int(rng.integers(len(factors)))]
                if rng.random() < 0.5:
                    w[i] /= 1.0 + margin
                planted += 1
        families = []
        for m in (margin, 0.0):
            monkeypatch.setattr(jnp_module, "TIE_MARGIN", m)
            total, family = max_weight_antichain(np.array(parent), w)
            ref_total, ref_family = oracles.antichain_dp_recursive(parent, w, m)
            assert total.hex() == ref_total.hex() and family == ref_family, (d, trial, m)
            families.append(family)
        moved += families[0] != families[1]
    # the planted ties decide families: the margin changes some of them
    assert planted > 100 and moved > 10


# ---------------------------------------------------------------------------
# candidate forests from coverings
# ---------------------------------------------------------------------------


def test_make_candidates_structure(cov1, cands1):
    assert isinstance(cands1, CandidateSet)
    assert cands1.a == cov1.admissibility
    # roots pairwise disjoint, all nodes admissible, children live in parents
    from gaussjn.geometry import cubes_disjoint, is_admissible

    cubes = _nodes(cands1)
    roots = [cubes[i] for i in cands1.roots]
    for i, qi in enumerate(roots):
        for qj in roots[:i]:
            assert cubes_disjoint(qi, qj)
    for i, cube in enumerate(cubes):
        assert is_admissible(cube, cands1.a)
        up = cands1.parent[i]
        assert up < i
        if up >= 0:
            assert cubes[up].contains_cube(cube)
            assert cube.side == pytest.approx(0.5 * cubes[up].side, rel=1e-15)
    assert cands1.node_count() == len(cubes) == len(cands1.centers) == len(cands1.parent)


def test_make_candidates_depth_zero(cov1):
    flat = make_candidates(cov1, 0)
    assert np.all(flat.parent == -1)
    with pytest.raises(ValueError):
        make_candidates(cov1, -1)


def test_make_candidates_2d_roots_disjoint():
    from gaussjn.geometry import cubes_disjoint

    cov = build_covering(2, 2)
    cands = make_candidates(cov, 1)
    nodes = _nodes(cands)
    roots = [nodes[i] for i in cands.roots]
    for i, qi in enumerate(roots):
        for qj in roots[:i]:
            assert cubes_disjoint(qi, qj)
    assert len(roots) >= 5  # thinning keeps a nontrivial disjoint subfamily


def test_make_candidates_builds_no_cube_per_node(monkeypatch, spec):
    # coverings and forests stay arrays; the functionals build only the cubes
    # their reports name: each family's, and one argmax_cube
    built = []
    validate = Cube.__post_init__
    monkeypatch.setattr(Cube, "__post_init__", lambda self: built.append(1) or validate(self))
    assert build_covering(4, 3).cube_count() == 4213
    cands = make_candidates(build_covering(2, 3), 2)
    assert cands.node_count() == 39785 and len(cands.roots) == 545
    forest = make_candidates(build_covering(8, 1), 3)
    assert forest.node_count() == 255
    assert len(built) == 0
    f = corpus_by_id(1)["const_one"]
    est = maximize_jnp(f, forest, 2.0, 1.5, spec)
    assert len(built) == len(est.family) > 0
    built.clear()
    bmo_norm_estimate(f, forest, 1, 6.0, spec)
    assert len(built) == 1
    built.clear()
    scan = p_limit_scan(f, forest, [2.0, 4.0], 1.5, spec)
    assert len(built) == sum(len(est.family) for _, est in scan)


def _preorder(pairs):
    """Every node as (parent index, center bits, side bits), in preorder."""
    return [(up, tuple(map(float.hex, q.center)), q.side.hex()) for up, q in pairs]


def _forest_pairs(cands):
    return zip(cands.parent.tolist(), _nodes(cands))


@pytest.mark.parametrize("cdepth", [0, 1, 2, 3])
@pytest.mark.parametrize("d, depth", [(1, 8), (2, 2), (3, 1)])
def test_make_candidates_matches_recursive_oracle(d, depth, cdepth):
    cov = build_covering(depth, d)
    cands = make_candidates(cov, cdepth)
    ref = oracles.make_candidates_recursive(cov, cdepth)
    assert _preorder(_forest_pairs(cands)) == _preorder(ref)
    assert cands.node_count() == len(ref)
    assert len(cands.roots) == sum(up < 0 for up, _ in ref)
    # depths and child counts follow from the parents
    assert max(oracles.node_depths(cands.parent.tolist())) == cdepth


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
    forest = grow_forest(*cube_arrays(roots), 3, a)
    ref = oracles.grow_forest_recursive(roots, 3, a)
    assert _preorder(_forest_pairs(forest)) == _preorder(ref)
    full = len(roots) * sum(2 ** (d * k) for k in range(4))
    assert 0 < forest.node_count() < full
    if a == 4.0 and d >= 2:  # the cube at (1, 0, ...) keeps only its inner children
        nodes = _nodes(forest)
        (at,) = [i for i in forest.roots if nodes[i].center == (1.0, *rest)]
        assert 0 < np.count_nonzero(forest.parent == at) < 2**d
    empty = grow_forest(*cube_arrays([]), 2, a)
    assert empty.node_count() == 0 and len(empty.roots) == 0 and _nodes(empty) == []
    with pytest.raises(ValueError):
        grow_forest(*cube_arrays(roots), 1, 0.0)


# ---------------------------------------------------------------------------
# the optimized functional
# ---------------------------------------------------------------------------


def _root_keys(cands):
    nodes = _nodes(cands)
    return [(nodes[i].center, nodes[i].side) for i in cands.roots]


def test_make_candidates_roots_match_first_fit_oracle():
    for d, depths in ((1, (1, 4, 8)), (2, (1, 3, 6)), (3, (1, 2))):
        for depth in depths:
            cov = build_covering(depth, d)
            ref = oracles.first_fit_disjoint_brute([q for _, q in oracles.covering_cubes(cov)])
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
    layers = (Layer(0, *cube_arrays(order[:3])), Layer(1, *cube_arrays(order[3:])))
    cov = Covering(2, 1, radius_sequence(2), layers)
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
    pool = maximize_jnp_pool(f, cands1.centers, cands1.sides, 2.0, 1.5, spec, cands1.a)
    assert pool.value <= dp.value + 1e-12
    # the greedy family is itself valid
    validate_family(*cube_arrays(pool.family), cands1.a)


def test_pool_heuristic_matches_the_pairwise_loop(cands1, spec):
    # the forest's nodes overlap their ancestors; with their translates by
    # half a side either way (the admissible ones) the pool overlaps across
    # roots too.  Family, weights and value are the loop's over cubes_disjoint
    nodes = _nodes(cands1)
    shifted = [Cube((c.center[0] + s * c.side,), c.side) for c in nodes for s in (-0.5, 0.5)]
    translates = nodes + [c for c in shifted if is_admissible(c, cands1.a)]
    assert len(translates) > 2 * len(nodes)
    for cubes in (nodes, translates):
        centers, sides = cube_arrays(cubes)
        for f in (_sign(), _rsq(), corpus_by_id(1)["coord0"]):
            est = maximize_jnp_pool(f, centers, sides, 2.0, 1.5, spec, cands1.a)
            weight = [g * o**2.0 for g, o in zip(*node_stats(f, centers, sides, 1.5, spec))]
            picks = oracles.greedy_swap_loop(cubes, weight, jnp_module.MAX_SWAP_PASSES)
            assert est.family == tuple(cubes[i] for i in picks), f.id
            assert est.contributions == tuple(weight[i] for i in picks)
            assert est.value == math.fsum(est.contributions) ** 0.5
            assert est.candidates == len(cubes)
    far = Cube((3.0,), 1.0)
    with pytest.raises(ValueError, match=re.escape(f"pool cube (center {far.center}) is not")):
        maximize_jnp_pool(_sign(), *cube_arrays(nodes + [far]), 2.0, 1.5, spec, cands1.a)


def test_p_limit_scan_nondecreasing(cands1, spec):
    scan = p_limit_scan(_sign(), cands1, [2.0, 3.0, 4.0, 8.0], 1.5, spec)
    values = [est.value for _, est in scan]
    assert values[0] == pytest.approx(0.9179873599073763, abs=1e-12)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9
    with pytest.raises(ValueError):
        p_limit_scan(_sign(), cands1, [3.0, 2.0], 1.5, spec)


def test_p_limit_scan_computes_the_oscillations_once(cands1, spec, monkeypatch):
    calls = []
    monkeypatch.setattr(
        jnp_module, "oscillations",
        lambda *args, **kw: calls.append(1) or oscillations(*args, **kw),
    )
    assert len(p_limit_scan(_sign(), cands1, [2.0, 3.0, 4.0], 1.5, spec)) == 3
    assert len(calls) == 1
    # an empty grid, and a grid whose smallest p is below q, need no quadrature
    assert p_limit_scan(_sign(), cands1, [], 1.5, spec) == []
    with pytest.raises(ValueError):
        p_limit_scan(_sign(), cands1, [1.2, 3.0], 1.5, spec)
    assert len(calls) == 1


def test_node_stats_take_the_measures_from_the_driver(cands1, spec, monkeypatch):
    # gamma(Q) comes from the oscillations' own table, bit for bit
    # gaussian_measures, which node_stats no longer calls
    want = gaussian_measures(cands1.centers, cands1.sides)[1]
    monkeypatch.setattr(jnp_module, "gaussian_measures", None)
    gamma, osc = node_stats(_sign(), cands1.centers, cands1.sides, 1.5, spec)
    assert gamma.tobytes() == want.tobytes()
    assert osc.tolist() == oscillations(_sign(), cands1.centers, cands1.sides, 1.5, spec)


def test_single_cube_value_closed_form(spec):
    # with one admissible cube the functional is gamma(Q)^(1/p) * osc_q
    cube = Cube((0.0,), 1.0)
    cands = CandidateSet(np.array([cube.center]), np.array([cube.side]), np.array([-1]), a=2.0)
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
            max(oscillation(f, c, 1.0, spec) for c in _nodes(cands1)),
            rel=1e-12,
        )
        for p in (2.0, 4.0):
            est = maximize_jnp(f, cands1, p, 1.0, spec)
            assert est.value <= bmo.value + 1e-9, (fid, p)


def test_bmo_argmax_keeps_the_first_of_a_near_tie(spec):
    # mirror cubes oscillate the same up to the last bits of the quadrature:
    # the first in pool order stays the pick unless beaten by more than
    # TIE_MARGIN, while sup_term is always the exact maximum
    cubes = [Cube((1.5,), 0.5), Cube((-1.5,), 0.5)]
    centers = np.array([c.center for c in cubes])
    pool = CandidateSet(centers, np.array([0.5, 0.5]), np.array([-1, -1]), 2.0)
    f = _sign()
    for later, pick in ((1.0 + 1e-9, 0), (1.0, 0), (1.0 - 1e-9, 0), (1.0 + 1e-3, 1)):
        oscs = np.array([0.7, 0.7 * later])
        stats = np.array([gaussian_measure(c) for c in cubes]), oscs
        bmo = bmo_norm_estimate(f, pool, 1, 6.0, spec, stats=stats)
        assert bmo.argmax_cube == cubes[pick]
        assert bmo.sup_term == oscs.max()
        assert bmo.value == bmo.l1_term + oscs.max()


def test_bmo_and_jnp_share_one_oscillation_per_cube(cands1, spec, monkeypatch):
    calls = []

    def counted(f, centers, sides, q, spec_, **kw):
        calls.extend(zip(map(tuple, centers.tolist()), sides.tolist()))
        return oscillations(f, centers, sides, q, spec_, **kw)

    monkeypatch.setattr(jnp_module, "oscillations", counted)
    f = corpus_by_id(1)["radius_sq"]
    stats = node_stats(f, cands1.centers, cands1.sides, 1.5, spec)
    shared = bmo_norm_estimate(f, cands1, 1, 6.0, spec, q=1.5, stats=stats)
    est = maximize_jnp(f, cands1, 2.0, 1.5, spec, stats=stats)
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
    reports = tail_fit_sweep(f, *cube_arrays(cubes), 2.0, spec, sig, khat=0.5)
    assert len(reports) == 2
    assert reports[0].degenerate
    assert not reports[1].degenerate
    json.dumps([r.to_obj() for r in reports])
