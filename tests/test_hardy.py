"""Tests for atomic decompositions, dual atoms, and the pairing machinery."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gaussjn import fields, hardy, kernels
from gaussjn.fields import (
    QuadratureError,
    QuadratureSpec,
    ScalarField,
    StepField,
    average_gamma,
    average_gammas,
    corpus_by_id,
    gauss_average,
    oscillation,
    product_field,
)
from gaussjn.geometry import Cube, cube_arrays, cubes_disjoint, gaussian_measure, is_admissible
from gaussjn.hardy import (
    Atom,
    HardyElement,
    Polymer,
    conjugate_exponent,
    dual_atom,
    duality_check,
    hardy_norm_upper,
    holder_check,
    make_atom,
    make_polymer,
    min_centered_oscillation,
    pairing,
    pairing_direct,
    polymer_lp_norm,
    polymer_norm,
    subdivide_atom,
    subdivision_depth,
    truncation_oscillation_check,
)

import oracles

P1 = Cube((0.0,), 2.0)
REF_CUBES = (Cube((-0.5,), 0.5), Cube((0.25,), 0.5), Cube((0.85,), 0.5))


@pytest.fixture(scope="module")
def mspec():
    return QuadratureSpec()


@pytest.fixture(scope="module")
def corpus():
    return corpus_by_id(1)


@pytest.fixture(scope="module")
def ref_polymer(corpus, mspec):
    return make_polymer(corpus["radius_sq"], list(REF_CUBES), 1.5, 3.0, mspec)


@pytest.fixture(scope="module")
def ref_element(ref_polymer):
    return HardyElement(c0=0.3, polymers=(ref_polymer,))


@pytest.fixture(scope="module")
def dual_q2(corpus, mspec):
    return dual_atom(corpus["radius_sq"], P1, 2.0, mspec)


@pytest.fixture(scope="module")
def dual_q4(corpus, mspec):
    return dual_atom(corpus["radius_sq"], P1, 4.0, mspec)


@pytest.fixture(scope="module")
def dual_sign(corpus, mspec):
    return dual_atom(corpus["sign0"], Cube((0.5,), 2.0), 2.0, mspec)


# ---------------------------------------------------------------------------
# exponents and atom construction
# ---------------------------------------------------------------------------


def test_conjugate_exponent_values_and_involution():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == 1.5
    assert conjugate_exponent(1.5) == 3.0
    assert abs(conjugate_exponent(4.0) - 4.0 / 3.0) < 1e-15
    for r in (1.1, 1.7, 2.0, 5.0, 40.0):
        assert abs(conjugate_exponent(conjugate_exponent(r)) - r) < 1e-12
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


def test_make_atom_zero_mean_and_norm(corpus, mspec):
    atom = make_atom(corpus["radius_sq"], Cube((0.25,), 0.5), 3.0, mspec)
    assert abs(atom.mean(mspec)) < 1e-10
    assert abs(atom.normalized_norm(mspec) - 0.08175520603578805) < 1e-12
    # default exponent of normalized_norm is the atom's own q
    assert atom.normalized_norm(mspec) == atom.normalized_norm(mspec, atom.q)


def test_make_atom_rejects_small_exponent(corpus, mspec):
    with pytest.raises(ValueError):
        make_atom(corpus["radius_sq"], P1, 0.5, mspec)


def test_atom_evaluates_to_recentered_restriction(corpus, mspec):
    cube = Cube((0.25,), 0.5)
    atom = make_atom(corpus["radius_sq"], cube, 3.0, mspec)
    rng = np.random.default_rng(7)
    inside = rng.uniform(cube.lo[0] + 1e-9, cube.hi[0] - 1e-9, size=(64, 1))
    expected = corpus["radius_sq"](inside) - atom.shift
    assert np.max(np.abs(atom.field(inside) - expected)) < 1e-14
    outside = np.array([[cube.hi[0] + 0.1], [cube.lo[0] - 0.1]])
    assert np.all(atom.field(outside) == 0.0)


# ---------------------------------------------------------------------------
# polymers
# ---------------------------------------------------------------------------


def test_polymer_norm_dominates_lp_norm(ref_polymer, mspec):
    pn = polymer_norm(ref_polymer, mspec)
    plp = polymer_lp_norm(ref_polymer, mspec)
    assert abs(pn - 0.11340370148059342) < 1e-12
    assert abs(plp - 0.09481497151974755) < 1e-12
    # mpmath, each atom's |x^2 - shift|^1.5 split at its roots +-sqrt(shift)
    assert abs(plp - 0.09481497152982817) <= mspec.abs_tol
    assert plp <= pn + 1e-12


def test_polymer_rejects_overlapping_cubes(corpus, mspec):
    a1 = make_atom(corpus["radius_sq"], Cube((0.0,), 1.0), 3.0, mspec)
    a2 = make_atom(corpus["radius_sq"], Cube((0.4,), 1.0), 3.0, mspec)
    with pytest.raises(ValueError, match="overlap"):
        Polymer(atoms=(a1, a2), p=1.5, q=3.0)


def test_polymer_rejects_bad_exponent_order(corpus, mspec):
    a1 = make_atom(corpus["radius_sq"], Cube((0.0,), 1.0), 3.0, mspec)
    with pytest.raises(ValueError, match="exponents"):
        Polymer(atoms=(a1,), p=3.0, q=3.0)
    with pytest.raises(ValueError, match="exponent"):
        Polymer(atoms=(a1,), p=1.5, q=2.0)  # atom q mismatch


def test_polymer_raises_the_first_fault_of_the_loop():
    # the loop over atom i checks its exponent, then its overlaps with j < i
    zero = ScalarField("zero", lambda pts: np.zeros(len(pts)))
    cubes = [Cube((-0.5,), 0.5), Cube((0.0,), 0.5), Cube((0.1,), 0.5), Cube((1.0,), 0.5)]
    seen = set()
    for order in itertools.permutations(cubes):
        for qs in itertools.product((3.0, 4.0), repeat=len(order)):
            want = None
            for i, (cube, q) in enumerate(zip(order, qs)):
                overlaps = [j for j in range(i) if not cubes_disjoint(cube, order[j])]
                if q != 3.0:
                    want = "atom exponent differs from polymer exponent"
                elif overlaps:
                    want = f"atom cubes {overlaps[0]} and {i} overlap"
                if want:
                    break
            atoms = tuple(Atom(zero, cube, q) for cube, q in zip(order, qs))
            with pytest.raises(ValueError) as exc:
                Polymer(atoms=atoms, p=1.5, q=3.0)
            assert str(exc.value) == want
            seen.add(want.split()[-1])
    assert seen == {"exponent", "overlap"}


def test_make_polymer_enforces_admissibility_when_asked(corpus, mspec):
    # side 2 at center 2 violates side <= 2 * m(2) = 1
    bad = [Cube((2.0,), 2.0)]
    with pytest.raises(ValueError, match="admissible"):
        make_polymer(corpus["radius_sq"], bad, 1.5, 3.0, mspec, a=2.0)
    ok = make_polymer(corpus["radius_sq"], [Cube((2.0,), 0.9)], 1.5, 3.0, mspec, a=2.0)
    assert len(ok.atoms) == 1


def test_hardy_element_evaluate_and_norm_upper(ref_element, ref_polymer, mspec):
    assert ref_element.atom_count() == 3
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.2, 1.2, size=(128, 1))
    direct = 0.3 + ref_polymer.evaluate(pts)
    assert np.max(np.abs(ref_element.evaluate(pts) - direct)) < 1e-15
    upper = hardy_norm_upper(ref_element, mspec)
    assert abs(upper - (0.3 + polymer_norm(ref_polymer, mspec))) < 1e-15


# ---------------------------------------------------------------------------
# minimal centered oscillation and dual atoms
# ---------------------------------------------------------------------------


def test_min_centered_oscillation_beats_mean_centering(corpus, mspec):
    f = corpus["radius_sq"]
    cube = Cube((0.6,), 1.3)
    val, c_star = min_centered_oscillation(f, cube, 1.5, mspec)
    at_mean = oscillation(f, cube, 1.5, mspec)
    assert 0.0 < val <= at_mean + 1e-12
    lo, hi = cube.lo[0], cube.hi[0]
    assert lo**2 - 1e-9 <= c_star  # optimal center sits in the field's range
    assert c_star <= hi**2 + 1e-9


def test_min_centered_oscillation_constant_field(mspec):
    from gaussjn.fields import ScalarField

    const = ScalarField("const35", lambda p: np.full(np.atleast_2d(p).shape[0], 3.5))
    val, c_star = min_centered_oscillation(const, P1, 2.0, mspec)
    assert val == 0.0
    assert abs(c_star - 3.5) < 1e-12


def test_dual_atom_q2_attains_target(dual_q2, mspec):
    atom, rep = dual_q2
    # self-dual case: the constructed atom attains the dual norm exactly
    assert rep.achieved >= rep.target * (1.0 - 1e-9)
    assert abs(rep.achieved - 0.264375648) < 1e-8
    assert abs(atom.normalized_norm(mspec) - 1.0) < 1e-9
    assert abs(atom.mean(mspec)) < 1e-9
    # independent high-precision value: the centered L^2 oscillation
    mass = oracles.gauss_quad_mp(lambda t: 1, -1, 1)
    m2 = oracles.gauss_quad_mp(lambda t: t**2, -1, 1) / mass
    m4 = oracles.gauss_quad_mp(lambda t: t**4, -1, 1) / mass
    assert abs(rep.target - math.sqrt(m4 - m2 * m2)) < 1e-9


def test_dual_atom_q4_fractional_construction(corpus, dual_q4, mspec):
    atom, rep = dual_q4
    assert atom.q == 4.0
    assert abs(rep.target - 0.228084332) < 1e-7
    assert abs(rep.achieved - 0.228084354) < 1e-7
    assert rep.achieved >= 0.999 * rep.target
    # the reported value is the honest quadrature of the returned atom's
    # pairing, at the tolerance dual_atom uses for it
    tol = max(mspec.abs_tol, 1e-7) * max(1.0, rep.target)
    pair = average_gamma(
        product_field(corpus["radius_sq"], atom.field), P1, replace(mspec, abs_tol=tol)
    )
    assert rep.achieved == rep.construction_value == pair


def test_dual_atom_on_step_field(dual_sign):
    atom, rep = dual_sign
    # closed form: osc_2 of a +-1 step is sqrt(1 - mean^2)
    e_lo = kernels.erf(0.5)
    e_hi = kernels.erf(1.5)
    mean = (e_hi - e_lo) / (e_hi + e_lo)
    assert abs(rep.target - math.sqrt(1.0 - mean * mean)) < 1e-10
    assert abs(rep.achieved - 0.954018756) < 1e-8


def test_dual_atom_report_serializes(dual_q2):
    _, rep = dual_q2
    obj = rep.to_obj()
    json.dumps(obj)
    assert set(obj) == {"target", "construction_value", "achieved", "center", "q_atom", "q_osc"}
    assert obj["achieved"] == obj["construction_value"] == rep.achieved


# ---------------------------------------------------------------------------
# Hoelder checks at the dual atoms
# ---------------------------------------------------------------------------


def test_holder_equality_at_self_dual_atom(corpus, dual_q2, mspec):
    atom, _ = dual_q2
    hc = holder_check(corpus["radius_sq"], atom, mspec)
    assert hc.ok
    # optimal center for q'=2 is the mean, so the bound is saturated
    assert abs(hc.lhs - hc.rhs) < 1e-7
    assert abs(hc.lhs - 0.222789568) < 1e-8


def test_holder_fractional_atom_needs_deeper_panels(corpus, dual_q4, spec_deep):
    atom, _ = dual_q4
    hc = holder_check(corpus["radius_sq"], atom, spec_deep)
    assert hc.ok
    assert abs(hc.lhs - 0.19220689) < 1e-6
    assert abs(hc.rhs - 0.196602129) < 1e-6
    assert hc.lhs <= hc.rhs


def test_holder_on_step_dual_atom(corpus, dual_sign, mspec):
    atom, _ = dual_sign
    hc = holder_check(corpus["sign0"], atom, mspec)
    assert hc.ok
    assert abs(hc.lhs - 0.709124538) < 1e-8
    assert abs(hc.lhs - hc.rhs) < 1e-7


# ---------------------------------------------------------------------------
# subdivision cascade
# ---------------------------------------------------------------------------


def test_subdivision_depth_formula():
    assert subdivision_depth(2.0, 1.0, 1) == 4
    assert subdivision_depth(2.0 * math.sqrt(2.0), 1.0, 2) == 6
    assert subdivision_depth(2.0, 2.0 * (1.0 + 0.5 * 2.0), 1) == 0
    # shrinking the target never lowers the depth
    depths = [subdivision_depth(2.0, t, 1) for t in (2.0, 1.0, 0.5, 0.25)]
    assert depths == sorted(depths)
    with pytest.raises(ValueError):
        subdivision_depth(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        subdivision_depth(2.0, -1.0, 1)


def test_subdivide_atom_reconstructs_and_respects_bounds(corpus, mspec):
    start = Cube((1.2,), 1.0)
    assert is_admissible(start, 2.0)
    atom0 = make_atom(corpus["radius_sq"], start, 3.0, mspec)
    res = subdivide_atom(atom0, 2.0, 1.0, mspec)
    assert res.max_depth <= res.depth_bound
    assert 0 < len(res.atoms) <= res.atom_count_bound
    worst_mean = 0.0
    for at in res.atoms:
        assert is_admissible(at.cube, 1.0)
        worst_mean = max(worst_mean, abs(at.mean(mspec)))
    assert worst_mean < 1e-9
    rng = np.random.default_rng(42)
    pts = rng.uniform(start.lo[0] + 1e-9, start.hi[0] - 1e-9, size=(1000, 1))
    rec = np.zeros(1000)
    for at in res.atoms:
        rec += at.field(pts)
    orig = atom0.field(pts)
    resid = np.max(np.abs(rec - orig)) / max(1.0, np.max(np.abs(orig)))
    assert resid < 1e-12


def test_subdivide_atom_deep_cascade(corpus, mspec):
    far = Cube((2.0,), 0.9)
    assert is_admissible(far, 2.0)
    atom0 = make_atom(corpus["coord0"], far, 3.0, mspec)
    res = subdivide_atom(atom0, 2.0, 0.5, mspec)
    # deterministic cascade on this input: fixed shape regression
    assert len(res.atoms) == 14
    assert res.max_depth == 4
    rng = np.random.default_rng(43)
    pts = rng.uniform(far.lo[0] + 1e-9, far.hi[0] - 1e-9, size=(1000, 1))
    rec = np.zeros(1000)
    worst_mean = 0.0
    for at in res.atoms:
        assert is_admissible(at.cube, 0.5)
        rec += at.field(pts)
        worst_mean = max(worst_mean, abs(at.mean(mspec)))
    orig = atom0.field(pts)
    resid = np.max(np.abs(rec - orig)) / max(1.0, np.max(np.abs(orig)))
    assert resid < 1e-12
    assert worst_mean < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_cascade_closures_agree_bitwise_on_column_and_row_major_nodes(d):
    # quadrature hands the closures column-major nodes in d >= 2; they must
    # give what they give on row-major ones
    spec = QuadratureSpec(nodes_per_axis=4, refinement_levels=6, abs_tol=1e-7)
    start = Cube((0.9,) + (0.0,) * (d - 1), 1.0)
    atom0 = make_atom(corpus_by_id(d)["radius_sq"], start, 3.0, spec)
    res = subdivide_atom(atom0, 2.0, 0.7, spec)
    assert res.max_depth == 2
    rng = np.random.default_rng(d)
    pts = start.lo_array() + start.side * rng.uniform(size=(3001, d))
    pts[0] = start.center
    rows, cols = np.ascontiguousarray(pts), np.asfortranarray(pts)
    corner_weights = [oracles.partition_weight(start, bits) for bits in np.ndindex(*(2,) * d)]
    for fn in [atom0.field, *corner_weights, *(a.field for a in res.atoms)]:
        assert fn(rows).tobytes() == fn(cols).tobytes()


@pytest.mark.parametrize(
    "fid, d",
    [("coord0", 1), ("coord0", 2), ("coord0", 3), ("sign0", 1), ("sign0", 2), ("sign0", 3),
     ("radius_sq", 1)],
)
def test_cascade_coefficients_match_the_whole_cube_oracle(fid, d, mspec):
    # one cascade step (a_target 0.75 admits the corner cubes of side 2/3, not
    # the start cube): its pieces are v psi_i - l_i chi_core, and psi_i = 2^-d
    # at the core center x, so l_i = 2^-d v(x) - piece_i(x).  The thirds-cell
    # coefficients and the whole-cube oracle each carry an error of at most
    # abs_tol gamma(Q) / gamma(core) where acceptance is sound (lines and
    # steps, and radius_sq in d = 1; not across curved kinks)
    start = Cube((0.2, 0.1, -0.15)[:d], 1.0)
    atom0 = make_atom(corpus_by_id(d)[fid], start, 3.0, mspec)
    res = subdivide_atom(atom0, 1.0, 0.75, mspec)
    assert res.max_depth == 1 and len(res.atoms) == 2**d
    x = np.array([start.center])
    got = np.array([2.0**-d * atom0.field(x)[0] - piece.field(x)[0] for piece in res.atoms])
    want = oracles.corner_coefficients_whole_cube(atom0.field, start, mspec)
    core = Cube(start.center, start.side / 3.0)
    tol = 2.0 * mspec.abs_tol * gaussian_measure(start) / gaussian_measure(core)
    assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(want)) > 100.0 * tol
    rng = np.random.default_rng(d)
    pts = start.lo_array() + start.side * rng.uniform(1e-9, 1.0 - 1e-9, size=(1000, d))
    rec = sum(piece.field(pts) for piece in res.atoms)
    orig = atom0.field(pts)
    assert np.max(np.abs(rec - orig)) / max(1.0, np.max(np.abs(orig))) < 1e-12
    assert max(abs(piece.mean(mspec)) for piece in res.atoms) < 1e-9


# (d, field, a_start, a_target, spec): the subdivide configs of the benchmark's
# d=2 workload (centre (1.2, 0), side 1, a_target 0.5, abs_tol 1e-7), and the
# d=1 and d=3 starts of the CLI defaults
NESTED_CASES = [
    (2, fid, 2.0 * math.sqrt(2.0), 0.5, QuadratureSpec(abs_tol=1e-7))
    for fid in ("coord0", "radius_sq", "sign0", "log_radial", "exp_half_sq")
] + [
    (1, "radius_sq", 2.0, 0.5, QuadratureSpec()),
    (3, "coord0", 2.0 * math.sqrt(3.0), 1.0, QuadratureSpec(nodes_per_axis=4, abs_tol=1e-6)),
]


def _spy(v, k, seen):
    """v with the same breaks and circles, recording the points it is evaluated at."""

    def fn(pts):
        seen.append((k, pts.copy()))
        return v(pts)

    return ScalarField(v.id, fn, dim=v.dim, breaks=v.breaks, kink_radii=v.kink_radii)


def _sliver_nodes(atoms, seen) -> int:
    """Nodes of panels at most 4 ulp wide between a piece's break and its cube's face
    (their Gauss nodes round onto the panel's ends)."""
    count = 0
    for k, nodes in seen:
        cube, breaks = atoms[k].cube, atoms[k].field.breaks
        for ax, bs in breaks.items():
            lo, hi = cube.lo[ax], cube.hi[ax]
            for b in (b for b in bs if lo < b < hi):
                for a, c in ((lo, b), (b, hi)):
                    if c - a <= 4.0 * np.spacing(abs(b)):
                        count += int(np.count_nonzero((nodes[:, ax] >= a) & (nodes[:, ax] <= c)))
    return count


@pytest.mark.parametrize(
    "d, fid, a_start, a_target, spec", NESTED_CASES, ids=[f"d{c[0]}-{c[1]}" for c in NESTED_CASES]
)
def test_cascade_pieces_match_the_nested_closures_bitwise(d, fid, a_start, a_target, spec):
    # the flat pieces of the breadth-first cascade against the depth-first
    # recursion over nested closures: the same leaves in the same order, the
    # same lambdas, and the same values at random points and at every node
    # of each leaf's mean, sliver panels included
    start = Cube((1.2,) + (0.0,) * (d - 1), 1.0)
    atom0 = make_atom(corpus_by_id(d)[fid], start, 3.0, spec)
    res = subdivide_atom(atom0, a_start, a_target, spec)
    want = oracles.subdivide_nested(atom0, a_start, a_target, spec)
    assert [a.cube for a in res.atoms] == [cube for cube, _, _ in want]
    assert [a.field.id for a in res.atoms] == [v.id for _, v, _ in want]
    got_lambdas = [[step[-1] for step in a.field.steps] for a in res.atoms]
    assert [[x.hex() for x in lams] for lams in got_lambdas] == [
        [x.hex() for x in lams] for _, _, lams in want
    ]
    seen = []
    spies = [_spy(a.field, k, seen) for k, a in enumerate(res.atoms)]
    means = average_gammas(spies, *cube_arrays([a.cube for a in res.atoms]), spec)
    assert [m.hex() for m in means] == [average_gamma(v, c, spec).hex() for c, v, _ in want]
    assert {k for k, _ in seen} == set(range(len(res.atoms)))
    for k, nodes in seen:
        assert res.atoms[k].field(nodes).tobytes() == want[k][1](nodes).tobytes()
    if d == 2:
        assert _sliver_nodes(res.atoms, seen) > 0
    rng = np.random.default_rng(d)
    pts = start.lo_array() + start.side * rng.uniform(1e-9, 1.0 - 1e-9, size=(1000, d))
    for a, (_, v, _) in zip(res.atoms, want):
        assert a.field(pts).tobytes() == v(pts).tobytes()


@pytest.mark.parametrize("deeper", ["quadrature", "depth bound"])
def test_cascade_raises_the_first_failure_of_the_depth_first_recursion(deeper, monkeypatch):
    # d = 1, [0.7, 1.7]: the thirds cells of the second depth-1 piece fail,
    # and so does, below the first piece, a depth-2 cell (or the depth bound,
    # lowered to 2, at its first child).  Breadth first, depth 1 fails
    # first; the depth-first recursion meets the failure below the first
    # piece before the second piece, and that is the one raised
    real = fields.average_gammas

    def flaky(f, centers, sides, spec):
        third, center = float(sides[0]), centers[:, 0]
        if math.isclose(third, 2.0 / 9.0):
            bad = center > 1.3
        else:
            bad = (center < 0.8) & math.isclose(third, 4.0 / 27.0) & (deeper == "quadrature")
        if np.count_nonzero(bad):
            raise QuadratureError(f"cell {float(center[bad.argmax()])!r} side {third!r}")
        return real(f, centers, sides, spec)

    monkeypatch.setattr(fields, "average_gammas", flaky)
    monkeypatch.setattr(hardy, "average_gammas", flaky)
    if deeper == "depth bound":
        monkeypatch.setattr(hardy, "subdivision_depth", lambda a_start, a_target, d: 2)
    spec = QuadratureSpec()
    atom0 = make_atom(corpus_by_id(1)["radius_sq"], Cube((1.2,), 1.0), 3.0, spec)
    outcome = []
    for runner in (subdivide_atom, oracles.subdivide_nested):
        with pytest.raises((QuadratureError, RuntimeError)) as info:
            runner(atom0, 2.0, 0.3, spec)
        outcome.append((info.type, str(info.value)))
    assert outcome[0] == outcome[1]
    if deeper == "quadrature":
        assert outcome[0][1].startswith("cell 0.77") and "side 0.148" in outcome[0][1]
    else:
        assert outcome[0][1].startswith("subdivision exceeded its depth bound 2 on cube (0.92")


def test_subdivide_atom_rejects_inadmissible_start(corpus, mspec):
    bad = Cube((2.0,), 2.0)
    atom0 = Atom(field=lambda p: np.zeros(np.atleast_2d(p).shape[0]), cube=bad, q=3.0)
    with pytest.raises(ValueError, match="admissible"):
        subdivide_atom(atom0, 2.0, 1.0, mspec)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_matches_direct_on_bounded_field(corpus, ref_element, mspec):
    rep = pairing(corpus["sign0"], ref_element, 1, 6.0, mspec, pairing_tol=1e-8)
    direct = pairing_direct(corpus["sign0"], ref_element, 1, 6.0, mspec)
    assert rep.converged
    assert abs(rep.value - direct) < 1e-7


def test_pairing_matches_direct_on_growing_field(corpus, ref_element, mspec):
    rep = pairing(corpus["radius_sq"], ref_element, 1, 6.0, mspec, pairing_tol=1e-8)
    direct = pairing_direct(corpus["radius_sq"], ref_element, 1, 6.0, mspec)
    assert rep.converged
    assert abs(rep.value - 0.163388377838) < 1e-9
    assert abs(rep.value - direct) < 1e-7


def test_pairing_reports_exhausted_schedule_honestly(corpus, ref_element, mspec):
    f = corpus["exp_half_sq"]
    short = pairing(f, ref_element, 1, 6.0, mspec, pairing_tol=1e-8, max_exponent=20)
    assert not short.converged
    assert short.value is None
    assert short.last_delta > 1e-8
    full = pairing(f, ref_element, 1, 6.0, mspec, pairing_tol=1e-8, max_exponent=30)
    assert full.converged
    assert abs(full.value - 0.433091123783) < 1e-8
    assert full.levels[-1] >= 2.0**20
    json.dumps(full.to_obj())


def test_pairing_truncation_levels_double(corpus, ref_element, mspec):
    rep = pairing(corpus["sign0"], ref_element, 1, 6.0, mspec)
    assert rep.levels[0] == 1.0
    for prev, cur in zip(rep.levels, rep.levels[1:]):
        assert cur == 2.0 * prev


# ---------------------------------------------------------------------------
# duality and truncation reports
# ---------------------------------------------------------------------------


def test_duality_check_aggregates_per_atom_bounds(corpus, ref_element, mspec):
    rep = duality_check(corpus["radius_sq"], ref_element, mspec)
    assert rep.ok
    assert len(rep.atom_checks) == 3
    assert all(c.ok for c in rep.atom_checks)
    assert abs(rep.aggregated_lhs - 0.0133883778) < 1e-8
    assert abs(rep.aggregated_rhs - 0.0143906336) < 1e-8
    assert rep.aggregated_lhs <= rep.aggregated_rhs + 1e-8
    assert abs(rep.khat_family - 0.126897389) < 1e-8
    assert abs(rep.norm_upper - 0.413403701) < 1e-8
    assert rep.headline_constant == 1.0
    assert abs(rep.headline_bound - 2.0 * rep.khat_family * rep.norm_upper) < 1e-12
    json.dumps(rep.to_obj())


def test_truncation_oscillation_at_most_doubles(corpus, mspec):
    osc_trunc, osc_full, ratio = truncation_oscillation_check(
        corpus["radius_sq"], P1, 1.0, 1.0, mspec
    )
    assert 0.0 < osc_trunc <= 2.0 * osc_full + 1e-12
    assert abs(ratio - 0.999934) < 1e-4


def test_truncation_oscillation_under_hard_clamps(corpus, spec_deep):
    # the recentering kink of the clamped field is not a declared break, so
    # hard clamps need the deeper panel schedule to settle
    ratios = []
    for level in (0.5, 0.25):
        _, _, ratio = truncation_oscillation_check(
            corpus["radius_sq"], P1, 1.0, level, spec_deep
        )
        ratios.append(ratio)
    assert abs(ratios[0] - 0.774502111) < 1e-6
    assert abs(ratios[1] - 0.435382446) < 1e-6
    assert all(r <= 2.0 + 1e-12 for r in ratios)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_element_to_obj_is_json_ready(ref_element, mspec):
    obj = ref_element.to_obj(mspec)
    json.dumps(obj)
    kinds = {a["kind"] for p in obj["polymers"] for a in p["atoms"]}
    assert kinds == {"sampled"}
    assert obj["c0"] == 0.3


def test_step_atom_serializes_with_exact_pieces(mspec):
    step = StepField("two-level", 0, (0.2,), (-1.0, 2.0))
    cube = Cube((0.1,), 1.0)
    atom = make_atom(step, cube, 2.0, mspec)
    obj = atom.to_obj(mspec)
    assert obj["kind"] == "step"
    assert obj["edges"] == [0.2]
    assert len(obj["values"]) == 2
    # serialized pieces are the original values minus the recentering shift
    assert abs((obj["values"][1] - obj["values"][0]) - 3.0) < 1e-12
    assert obj["values"] == [-1.0 - atom.shift, 2.0 - atom.shift]
