"""Atomic decompositions dual to the oscillation functionals.

An *atom* is a function b supported on an admissible cube Q with zero
Gauss mean and finite normalized L^q size ((1/gamma(Q)) Int |b|^q)^(1/q).
A *polymer* collects atoms on pairwise disjoint cubes and is measured by

    ||g||_{p,q} = ( sum_j gamma(Q_j) * N_j^p )^(1/p),
    N_j = ((1/gamma(Q_j)) Int |b_j|^q dgamma)^(1/q),         1 < p < q,

and a *Hardy element* is a constant plus finitely many polymers.  The
exponents here are conjugate to the oscillation side: pairing an atom in
L^q against a field with finite q'-oscillation is a Hoelder inequality on
the normalized measure, and summing over a polymer with the exponent pair
(p, p') turns the oscillation sum of the supporting family into an upper
bound for the whole pairing.  Everything in this module keeps both sides
of those inequalities explicitly computable:

* per-atom and aggregated Hoelder checks with honest quadrature on both
  sides;
* a dual-atom constructor that *attains* (up to tolerance) the minimal
  centered oscillation inf_c ||f - c||_{q'} it is paired against;
* a subdivision cascade that rewrites an atom on a cube of one
  admissibility scale as finitely many atoms on cubes of a smaller scale,
  with float-exact coefficient bookkeeping;
* a truncation pairing Lambda_f(g) = lim_N Int f_N g dgamma evaluated on a
  doubling truncation schedule with a Cauchy stopping rule that reports
  non-convergence instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import kernels
from .fields import (
    QuadratureError,
    QuadratureSpec,
    ScalarField,
    StepField,
    average_gamma,
    average_gammas,
    field_rule,
    gauss_average,
    l1_tail_bound,
    level_set_breaks,
    merge_breaks,
    oscillation,
    power_average,
    product_field,
    restrict_field,
    shift_field,
    step_distribution,
    truncate,
)
from .geometry import (
    Cube,
    cube_arrays,
    gaussian_measure,
    gaussian_measures,
    is_admissible,
    overlapping_pairs,
)
from .jnp import jnp_sum


#: Largest residual mean of an atom, relative to max(1, its L^1 size).
ATOM_MEAN_TOL = 1e-10
#: Samples per axis of a serialized non-step atom in d = 1, 2 and >= 3.
ATOM_SAMPLES_PER_AXIS = (33, 17, 9)
#: Share of the target oscillation a dual atom's pairing must reach.
DUAL_MIN_RATIO = 0.95
#: Additive slack of the Hoelder checks, per atom.
HOLDER_ABS_TOL = 1e-8
#: C1 of the headline bound (1 + C1) * khat * norm_upper.
HEADLINE_CONSTANT = 1.0


def conjugate_exponent(r: float) -> float:
    """r' with 1/r + 1/r' = 1 (r > 1)."""
    if not r > 1.0:
        raise ValueError("exponent must exceed 1")
    return r / (r - 1.0)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """Mean-zero function supported on one cube, measured in normalized L^q.

    ``field`` evaluates the atom everywhere (zero outside the cube);
    ``base`` optionally records the unrestricted field the atom came from,
    which serialization uses to emit exact step tables.
    """

    field: ScalarField
    cube: Cube
    q: float
    base: ScalarField | None = None
    shift: float = 0.0

    def normalized_norm(self, spec: QuadratureSpec, r: float | None = None) -> float:
        """((1/gamma(Q)) Int_Q |b|^r dgamma)^(1/r); r defaults to the atom's q."""
        rr = self.q if r is None else float(r)
        if not rr >= 1.0:
            raise ValueError("norm exponent must be >= 1")
        return power_average(self.field, self.cube, rr, spec) ** (1.0 / rr)

    def mean(self, spec: QuadratureSpec) -> float:
        return average_gamma(self.field, self.cube, spec)

    def to_obj(self, spec: QuadratureSpec) -> dict:
        obj: dict = {"cube": self.cube.to_obj(), "q": self.q}
        if isinstance(self.base, StepField):
            lo, hi = self.cube.lo[self.base.axis], self.cube.hi[self.base.axis]
            values, _masses = step_distribution(self.base, self.cube)
            obj["kind"] = "step"
            obj["axis"] = self.base.axis
            obj["edges"] = [e for e in self.base.edges if lo < e < hi]
            obj["values"] = (values - self.shift).tolist()
        else:
            d = self.cube.dim
            per_axis = ATOM_SAMPLES_PER_AXIS[min(d, 3) - 1]
            axes = [
                np.linspace(self.cube.lo[ax], self.cube.hi[ax], per_axis)
                for ax in range(d)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            # nudge boundary samples inward so open-cube indicators see them
            for ax in range(d):
                span = self.cube.side * 1e-9
                pts[:, ax] = np.clip(pts[:, ax], self.cube.lo[ax] + span, self.cube.hi[ax] - span)
            obj["kind"] = "sampled"
            obj["grid_per_axis"] = per_axis
            obj["values"] = self.field(pts).tolist()
        return obj


def make_atom(f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec) -> Atom:
    """Atom b = (f - f_Q - delta) chi_Q, re-centered to kill the mean.

    The first centering uses the quadrature mean; the residual mean delta
    (quadrature-level) is subtracted again so the final relative mean is
    below ``ATOM_MEAN_TOL``.  Raises if the residual refuses to drop, which
    would indicate an integration failure rather than a modeling problem.
    """
    if not q >= 1.0:
        raise ValueError("atom exponent must be >= 1")
    c = gauss_average(f, cube, spec)
    drift = average_gamma(shift_field(f, c), cube, spec)
    shift = c + drift
    field = restrict_field(shift_field(f, shift), cube)
    atom = Atom(field=field, cube=cube, q=float(q), base=f, shift=shift)
    resid = abs(atom.mean(spec))
    # The tolerance scale only normalizes the residual, so a pilot-grid L^1
    # estimate suffices.  A certified |b| integral certifies in d = 2, where
    # circles get iterated rules, but in d = 3 a sphere crossing the cube
    # sends it to the node cap (134,217,728 nodes for a radius_sq atom), so
    # the pilot grid stays until the iterated rule reaches d = 3.
    pts, wts = _node_grid(field, cube, spec, level=2)
    scale = max(1.0, kernels.weighted_sum(np.abs(field(pts)), wts))
    if resid > ATOM_MEAN_TOL * scale:
        raise RuntimeError(
            f"atom mean {resid:.3e} exceeds tolerance {ATOM_MEAN_TOL:.1e} (relative to {scale:.3e})"
        )
    return atom


# ---------------------------------------------------------------------------
# polymers and Hardy elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polymer:
    """Atoms on pairwise disjoint cubes with norm exponents 1 < p < q."""

    atoms: tuple[Atom, ...]
    p: float
    q: float

    def __post_init__(self) -> None:
        if not 1.0 < self.p < self.q:
            raise ValueError("polymer exponents must satisfy 1 < p < q")
        # the first fault of a loop over atom i: its exponent, then overlaps with j < i
        later, earlier = overlapping_pairs(*cube_arrays([a.cube for a in self.atoms]))
        stop = int(later[0]) if later.size else len(self.atoms) - 1
        if any(a.q != self.q for a in self.atoms[: stop + 1]):
            raise ValueError("atom exponent differs from polymer exponent")
        if later.size:
            raise ValueError(f"atom cubes {earlier[0]} and {later[0]} overlap")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(np.atleast_2d(pts).shape[0])
        for a in self.atoms:
            out += a.field(pts)
        return out


def polymer_norm(poly: Polymer, spec: QuadratureSpec) -> float:
    """( sum_j gamma(Q_j) * normalized_q_norm_j^p )^(1/p)."""
    total = math.fsum(
        gaussian_measure(a.cube) * a.normalized_norm(spec) ** poly.p for a in poly.atoms
    )
    return total ** (1.0 / poly.p)


def polymer_lp_norm(poly: Polymer, spec: QuadratureSpec) -> float:
    """Global L^p(gamma) norm of g = sum_j b_j (disjoint supports).

    By Jensen on each atom (p < q) this never exceeds polymer_norm, and the
    pair of routines keeps both sides of that inequality computable.
    """
    total = math.fsum(
        gaussian_measure(a.cube) * power_average(a.field, a.cube, poly.p, spec)
        for a in poly.atoms
    )
    return total ** (1.0 / poly.p)


def make_polymer(
    f: ScalarField,
    cubes: Sequence[Cube],
    p: float,
    q: float,
    spec: QuadratureSpec,
    *,
    a: float | None = None,
) -> Polymer:
    """Polymer whose atoms are the centered restrictions of f to the cubes."""
    if a is not None:
        for c in cubes:
            if not is_admissible(c, a):
                raise ValueError(f"cube centered {c.center} is not admissible at scale {a}")
    atoms = tuple(make_atom(f, c, q, spec) for c in cubes)
    return Polymer(atoms=atoms, p=p, q=q)


@dataclass(frozen=True)
class HardyElement:
    """g = c0 + sum of polymers (one explicit atomic representation)."""

    c0: float
    polymers: tuple[Polymer, ...]

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        out = np.full(np.atleast_2d(pts).shape[0], self.c0)
        for poly in self.polymers:
            out += poly.evaluate(pts)
        return out

    def atom_count(self) -> int:
        return sum(len(p.atoms) for p in self.polymers)

    def to_obj(self, spec: QuadratureSpec) -> dict:
        return {
            "c0": self.c0,
            "polymers": [
                {
                    "p": poly.p,
                    "q": poly.q,
                    "atoms": [a.to_obj(spec) for a in poly.atoms],
                }
                for poly in self.polymers
            ],
        }


def hardy_norm_upper(element: HardyElement, spec: QuadratureSpec) -> float:
    """|c0| + sum of polymer norms: the given representation's cost.

    The intrinsic norm is an infimum over representations, so this value is
    a certified upper bound for it.
    """
    return abs(element.c0) + math.fsum(polymer_norm(p, spec) for p in element.polymers)


# ---------------------------------------------------------------------------
# dual atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualAtomReport:
    """The constructed atom's pairing against the minimal-oscillation target."""

    target: float
    construction_value: float
    achieved: float
    center: float
    q_atom: float
    q_osc: float

    def to_obj(self) -> dict:
        return {
            "target": self.target,
            "construction_value": self.construction_value,
            "achieved": self.achieved,
            "center": self.center,
            "q_atom": self.q_atom,
            "q_osc": self.q_osc,
        }


def min_centered_oscillation(
    f: ScalarField, cube: Cube, q: float, spec: QuadratureSpec
) -> tuple[float, float]:
    """(value, argmin) of c -> ((1/gamma) Int_Q |f - c|^q)^(1/q).

    The objective is convex in c; the bracket comes from the field's range
    on a pilot node grid.
    """
    # lazy: scipy.optimize is slow to import and no CLI subcommand needs it
    from scipy import optimize

    if not q >= 1.0:
        raise ValueError("exponent q must be >= 1")
    pilot = _node_grid(f, cube, spec, level=2)
    vals = f(pilot[0])
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi - lo <= 1e-15 * max(1.0, abs(hi)):
        return 0.0, lo

    def objective(c: float) -> float:
        return power_average(f, cube, q, spec, center=c) ** (1.0 / q)

    res = optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    return float(res.fun), float(res.x)


def _node_grid(
    f: ScalarField, cube: Cube, spec: QuadratureSpec, *, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """(points, normalized weights) of the field-aligned tensor rule."""
    return field_rule("node grid", f, cube, merge_breaks(f.breaks), level, spec.nodes_per_axis)


def dual_atom(
    f: ScalarField, cube: Cube, q_atom: float, spec: QuadratureSpec
) -> tuple[Atom, DualAtomReport]:
    """Atom of unit normalized L^{q_atom} size nearly attaining the dual norm.

    The normalized pairing (1/gamma) Int f b over unit-norm mean-zero atoms
    has supremum inf_c ||f - c||_{q'} (q' conjugate to q_atom).  The
    construction b0 = |f - c*|^{q'-1} sgn(f - c*) at the optimal center c*,
    centered and normalized, attains it exactly in exact arithmetic.  Its
    pairing is evaluated by honest quadrature and reported; it must reach
    ``DUAL_MIN_RATIO`` of the target or the routine raises.

    For q_atom > 2 the seed involves fractional powers |h|^(q'-1) whose
    panel-edge singularity limits quadrature to algebraic convergence, so
    the internal tolerance is floored at 1e-7 -- five orders of magnitude
    inside the 5 percent acceptance margin.
    """
    q_osc = conjugate_exponent(q_atom)
    loose = replace(spec, abs_tol=max(spec.abs_tol, 1e-7))
    target, c_star = min_centered_oscillation(f, cube, q_osc, loose)

    kink = level_set_breaks(f, c_star, np.zeros(1))

    def b0_eval(pts: np.ndarray) -> np.ndarray:
        h = f(pts) - c_star
        return np.sign(h) * np.abs(h) ** (q_osc - 1.0)

    b0 = ScalarField(
        f"dual0({f.id})",
        b0_eval,
        dim=f.dim,
        breaks=merge_breaks(f.breaks, kink),
        description=f"dual-atom seed for {f.id}",
    )
    if target <= 0.0:
        # constant field: any normalized mean-zero atom pairs to zero
        flat = StepField("dual-flat", 0, (float(cube.center[0]),), (1.0, -1.0), dim=cube.dim)
        atom = make_atom(flat, cube, q_atom, spec)
        nrm = atom.normalized_norm(spec)
        scaled = _scale_atom(atom, 1.0 / nrm, spec)
        report = DualAtomReport(0.0, 0.0, 0.0, c_star, q_atom, q_osc)
        return scaled, report

    mu = average_gamma(b0, cube, loose)
    centered = shift_field(b0, mu)
    nrm = power_average(centered, cube, q_atom, loose) ** (1.0 / q_atom)
    b_field = ScalarField(
        f"dual({f.id})",
        lambda pts: (b0(pts) - mu) / nrm,
        dim=b0.dim,
        breaks=centered.breaks,
        description=f"normalized dual atom for {f.id}",
    )
    atom = Atom(
        field=restrict_field(b_field, cube), cube=cube, q=float(q_atom), base=None, shift=0.0
    )
    construction_value = average_gamma(
        product_field(f, b_field), cube, replace(loose, abs_tol=loose.abs_tol * max(1.0, target))
    )

    if construction_value < DUAL_MIN_RATIO * target:
        raise RuntimeError(
            f"dual atom reached {construction_value:.6g},"
            f" below {DUAL_MIN_RATIO} * target {target:.6g}"
        )
    report = DualAtomReport(
        target=target,
        construction_value=construction_value,
        achieved=construction_value,
        center=c_star,
        q_atom=q_atom,
        q_osc=q_osc,
    )
    return atom, report


def _scale_atom(atom: Atom, factor: float, spec: QuadratureSpec) -> Atom:
    field = atom.field
    scaled = ScalarField(
        f"{field.id}|scale:{factor!r}",
        lambda pts: factor * field(pts),
        dim=field.dim,
        breaks=field.breaks,
        description=field.description,
    )
    return Atom(field=scaled, cube=atom.cube, q=atom.q, base=atom.base, shift=atom.shift)


# ---------------------------------------------------------------------------
# atom subdivision across admissibility scales
# ---------------------------------------------------------------------------


def subdivision_depth(a_start: float, a_target: float, d: int) -> int:
    """Smallest n with (2/3)^n * a_start * (1 + sqrt(d) * a_start / 2) <= a_target.

    Each cascade step shrinks sides by 2/3 while centers drift outward by
    at most sqrt(d)/6 of a side; the bracketed factor absorbs the total
    drift's effect on the admissibility weight m, so after n steps every
    produced cube is admissible at the target scale.
    """
    if not (a_target > 0.0 and a_start > 0.0):
        raise ValueError("scales must be positive")
    bound = a_start * (1.0 + math.sqrt(d) * a_start / 2.0)
    n = 0
    while bound > a_target and n < 10_000:
        bound *= 2.0 / 3.0
        n += 1
    return n


def _corner_cube(cube: Cube, bits: tuple[int, ...]) -> Cube:
    """Sub-cube of side 2/3 that shares the cube's corner selected by bits."""
    third = cube.side / 3.0
    center = [
        (c - cube.side / 2.0 + third) if b == 0 else (c + cube.side / 2.0 - third)
        for c, b in zip(cube.center, bits)
    ]
    return Cube(tuple(center), 2.0 * cube.side / 3.0)


def _corner_count(
    cols: Sequence[np.ndarray], t1: Sequence, t2: Sequence, bits: tuple[int, ...]
) -> np.ndarray:
    """2^d psi_i at the points with coordinates ``cols``, as unsigned integers.

    psi_i is the indicator of the corner cube ``bits`` of a cube with thirds
    lines t1 < t2 (per axis: a value, or one per point) divided by the
    covering count.  Per axis the count is 2 in the corner's own third, 1
    in the closed middle third and 0 in the far third, so psi_i is an exact
    power of two or 0, and sum_i psi_i == 1 exactly in floats.
    """
    count = None
    for x, b, a1, a2 in zip(cols, bits, t1, t2):
        if b == 0:
            s = (x <= a2).view(np.uint8) + (x < a1).view(np.uint8)
        else:
            s = (x >= a1).view(np.uint8) + (x > a2).view(np.uint8)
        if count is None:
            count = s.astype(np.min_scalar_type(1 << len(bits)), copy=False)
        else:
            count *= s
    return count


#: One step of a cascade piece: its parent's thirds lines t1 and t2 and core corners
#: lo and hi (each a tuple of d floats), the corner ``bits`` and the coefficient lambda.
Step = tuple[tuple, tuple, tuple, tuple, tuple[int, ...], float]


class CascadePiece(ScalarField):
    """A piece of the subdivision cascade, evaluated flat over the atom's field.

    ``base`` is the atom's field and ``steps`` the cascade steps from the
    atom down to this piece.  The value is v = base, then v = v psi_k -
    lambda_k chi_k for each step in order: psi_k the corner weight of its
    bits, chi_k the indicator of its open core.
    """

    def __init__(
        self, id: str, base: ScalarField, steps: tuple[Step, ...], *, dim: int,
        breaks: dict[int, tuple[float, ...]], description: str = "",
    ) -> None:
        self.base, self.steps = base, steps
        super().__init__(
            id, self._values, dim=dim, breaks=breaks, description=description,
            kink_radii=base.kink_radii,
        )

    def _values(self, pts: np.ndarray) -> np.ndarray:
        cols = [pts[:, ax] for ax in range(pts.shape[1])]
        val = self.base(pts)
        for k, (t1, t2, lo, hi, bits, lam) in enumerate(self.steps):
            in_core = None
            for x, low, high in zip(cols, lo, hi):
                inside = x > low
                inside &= x < high
                in_core = inside if in_core is None else np.logical_and(in_core, inside, out=in_core)
            # v psi_k as (v * 2^d psi_k) 2^-d, both products exact; the
            # first step leaves the base's array as it is
            val = np.multiply(val, _corner_count(cols, t1, t2, bits), out=val if k else None)
            val *= 0.5 ** len(cols)
            val -= lam * in_core
        return val


@dataclass(frozen=True)
class SubdivisionResult:
    """Atoms at the target scale plus the cascade's bookkeeping."""

    atoms: tuple[Atom, ...]
    a_start: float
    a_target: float
    depth_bound: int
    max_depth: int
    atom_count_bound: int

    def to_obj(self) -> dict:
        return {
            "a_start": self.a_start,
            "a_target": self.a_target,
            "depth_bound": self.depth_bound,
            "max_depth": self.max_depth,
            "atom_count": len(self.atoms),
            "atom_count_bound": self.atom_count_bound,
            "cubes": [a.cube.to_obj() for a in self.atoms],
        }


def subdivide_atom(
    atom: Atom,
    a_start: float,
    a_target: float,
    spec: QuadratureSpec,
) -> SubdivisionResult:
    """Rewrite an atom as a sum of atoms on cubes admissible at ``a_target``.

    One cascade step splits v on Q into 2^d pieces v_i = v psi_i - l_i
    chi_{core}, where the psi_i form the exact corner-cube partition of
    unity and l_i = (1/gamma(core)) Int v psi_i dgamma: psi_i is constant
    on each of the 3^d thirds cells, so l_i adds psi_i at the cell centers
    times the integrals of v over the cells.  Each v_i has zero mean and
    lives on the corner cube of side (2/3) l_Q; since v has zero mean the
    l_i sum to zero, which is enforced float-exactly by subtracting their
    mean, making sum_i v_i == v up to a few ulps.  Pieces whose cube is
    already admissible at the target scale stop; the rest recurse, at most
    ``subdivision_depth`` times.  Each piece is a ``CascadePiece``: the
    atom's field and the steps down to it.

    The tree's shape depends only on the cubes, so the cascade runs breadth
    first: one ``average_gammas`` per depth over the thirds cells of all the
    pieces that recurse there, each cell with its piece's field.  The atoms
    come in depth-first order, and a failure is the one the depth-first
    recursion would raise first.
    """
    if not is_admissible(atom.cube, a_start):
        raise ValueError("atom cube is not admissible at the starting scale")
    d = atom.cube.dim
    n_bound = subdivision_depth(a_start, a_target, d)
    k = 3**d
    offsets = np.array(list(np.ndindex(*(3,) * d))) - 1.0
    corners = [tuple(int(b) for b in bits) for bits in np.ndindex(*(2,) * d)]
    # the pieces of one depth in depth-first order, as (path of corner
    # indices, field, cube, steps from the atom)
    level: list = [((), atom.field, atom.cube, ())]
    leaves: list = []
    error: Exception | None = None
    depth = 0
    while True:
        parents = []
        for node in level:
            (leaves if is_admissible(node[2], a_target) else parents).append(node)
        if not parents:
            break
        if depth >= n_bound:
            error = RuntimeError(
                f"subdivision exceeded its depth bound {n_bound} on cube {parents[0][2].center}"
            )
            break
        center = np.array([node[2].center for node in parents])
        side = np.array([node[2].side for node in parents])
        third = side / 3.0
        cells = (center[:, None, :] + third[:, None, None] * offsets).reshape(-1, d)
        sides = np.repeat(third, k)
        fields = [node[1] for node in parents for _ in range(k)]
        try:
            means = average_gammas(fields, cells, sides, spec)
        except QuadratureError as exc:
            # the recursion meets this failure after the subtrees of the
            # pieces before the failing one, which may fail first
            error, means = exc, []
            for j in range(0, len(fields), k):
                span = slice(j, j + k)
                try:
                    means += average_gammas(fields[span], cells[span], sides[span], spec)
                except QuadratureError:
                    break
            parents = parents[: len(means) // k]
        p = len(parents)
        center, side, third = center[:p], side[:p], third[:p]
        cells, sides = cells[: p * k], sides[: p * k]
        integrals = np.array(means) * gaussian_measures(cells, sides)[1]
        gamma_core = gaussian_measures(center, third)[1].tolist()
        lo, half = center - 0.5 * side[:, None], 0.5 * third[:, None]
        t1, t2 = lo + third[:, None], lo + 2.0 * third[:, None]
        # psi_i at each cell center times the integral over the cell, per corner and piece
        at_cells = [cells[:, ax] for ax in range(d)], t1.repeat(k, axis=0).T, t2.repeat(k, axis=0).T
        psis = np.stack([_corner_count(*at_cells, bits) for bits in corners]) * 0.5**d
        terms = (psis * integrals).reshape(len(corners), p, k)
        # per piece: its thirds lines and core corners, d floats each
        lines = [[tuple(row) for row in a.tolist()] for a in (t1, t2, center - half, center + half)]
        level = []
        for j, (path, v, cube, steps) in enumerate(parents):
            a1, a2, c1, c2 = (col[j] for col in lines)
            lambdas = [math.fsum(row.tolist()) / gamma_core[j] for row in terms[:, j]]
            s = math.fsum(lambdas)
            breaks = merge_breaks(v.breaks, {ax: (a1[ax], a2[ax]) for ax in range(d)})
            for i, (bits, lam) in enumerate(zip(corners, lambdas)):
                down = (*steps, (a1, a2, c1, c2, bits, lam - s / (1 << d)))
                corner = _corner_cube(cube, bits)
                child = CascadePiece(
                    f"{v.id}|psi{bits}|centered", atom.field, down, dim=d, breaks=breaks,
                    description=f"mean-zero cascade piece on {corner.center}",
                )
                level.append(((*path, i), child, corner, down))
        depth += 1
    if error is not None:
        raise error
    leaves.sort(key=lambda node: node[0])
    return SubdivisionResult(
        atoms=tuple(Atom(field=v, cube=cube, q=atom.q) for _, v, cube, _ in leaves),
        a_start=a_start,
        a_target=a_target,
        depth_bound=n_bound,
        max_depth=depth,
        atom_count_bound=(1 + (1 << d)) ** n_bound,
    )


# ---------------------------------------------------------------------------
# pairing and duality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingReport:
    """Truncation-limit pairing Lambda_f(g) with a Cauchy stopping rule."""

    value: float | None
    converged: bool
    levels: tuple[float, ...]
    values: tuple[float, ...]
    last_delta: float
    tail_slack: float

    def to_obj(self) -> dict:
        return {
            "value": self.value,
            "converged": self.converged,
            "levels": list(self.levels),
            "values": list(self.values),
            "last_delta": self.last_delta,
            "tail_slack": self.tail_slack,
        }


def _pair_once(
    f_n: ScalarField,
    element: HardyElement,
    d: int,
    radius: float,
    spec: QuadratureSpec,
) -> float:
    """c0 Int_box f_n dgamma + sum of Int_Q f_n b dgamma over the atoms b, from one
    ``average_gammas`` call: the box with f_n first, then each atom's cube with f_n b."""
    box = Cube((0.0,) * d, 2.0 * radius)
    atoms = [a for poly in element.polymers for a in poly.atoms]
    const = int(element.c0 != 0.0)
    cubes = [box] * const + [a.cube for a in atoms]
    if not cubes:
        return 0.0
    fields = [f_n] * const + [product_field(f_n, a.field) for a in atoms]
    means = average_gammas(fields, *cube_arrays(cubes), spec)
    const_term = element.c0 * means[0] * gaussian_measure(box) if const else 0.0
    atom_terms = [mu * gaussian_measure(a.cube) for mu, a in zip(means[const:], atoms)]
    return const_term + math.fsum(atom_terms)


def pairing(
    f: ScalarField,
    element: HardyElement,
    d: int,
    radius: float,
    spec: QuadratureSpec,
    *,
    pairing_tol: float = 1e-8,
    max_exponent: int = 20,
) -> PairingReport:
    """Lambda_f(g) = lim_N Int f_N g dgamma over a doubling schedule N = 2^k.

    Stops as soon as two successive truncations agree within
    ``pairing_tol`` (Cauchy criterion); if the schedule is exhausted the
    report says so instead of raising -- an inconclusive limit is data.
    The constant term integrates over the box (-R, R)^d and logs the
    analytic bound for what the box misses as ``tail_slack``.
    """
    levels: list[float] = []
    values: list[float] = []
    delta = math.inf
    slack = 0.0
    for k in range(max_exponent + 1):
        n = float(1 << k)
        f_n = truncate(f, n)
        val = _pair_once(f_n, element, d, radius, spec)
        if element.c0 != 0.0:
            slack = abs(element.c0) * _const_tail_slack(f, n, radius, d)
        levels.append(n)
        values.append(val)
        if len(values) >= 2:
            delta = abs(values[-1] - values[-2])
            if delta <= pairing_tol:
                return PairingReport(
                    value=val,
                    converged=True,
                    levels=tuple(levels),
                    values=tuple(values),
                    last_delta=delta,
                    tail_slack=slack,
                )
    return PairingReport(
        value=None,
        converged=False,
        levels=tuple(levels),
        values=tuple(values),
        last_delta=delta,
        tail_slack=slack,
    )


def _const_tail_slack(f: ScalarField, n: float, radius: float, d: int) -> float:
    outside = 1.0 - _box_mass(radius, d)
    cap = n * outside
    try:
        return min(cap, l1_tail_bound(f, radius, d))
    except ValueError:
        return cap


def _box_mass(radius: float, d: int) -> float:
    return kernels.erf(radius) ** d


def pairing_direct(
    f: ScalarField, element: HardyElement, d: int, radius: float, spec: QuadratureSpec
) -> float:
    """Int f g dgamma without truncation (for fields integrable as given)."""
    return _pair_once(f, element, d, radius, spec)


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    cube: Cube
    ok: bool

    def to_obj(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "cube": self.cube.to_obj(),
            "ok": self.ok,
        }


def holder_check(f: ScalarField, atom: Atom, spec: QuadratureSpec) -> HolderCheck:
    """|Int_Q f b| <= gamma(Q) osc_{q'}(f, Q) ||b||_{q, normalized} + HOLDER_ABS_TOL.

    Because the atom has zero mean, f can be recentered at f_Q on the left,
    which is exactly what makes the oscillation appear on the right.
    """
    q_osc = conjugate_exponent(atom.q)
    gamma_q = gaussian_measure(atom.cube)
    lhs = abs(average_gamma(product_field(f, atom.field), atom.cube, spec) * gamma_q)
    rhs = gamma_q * oscillation(f, atom.cube, q_osc, spec) * atom.normalized_norm(spec)
    return HolderCheck(lhs=lhs, rhs=rhs, cube=atom.cube, ok=lhs <= rhs + HOLDER_ABS_TOL)


@dataclass(frozen=True)
class DualityReport:
    """All computable sides of the pairing bound for one (f, g) pair."""

    atom_checks: tuple[HolderCheck, ...]
    aggregated_lhs: float
    aggregated_rhs: float
    khat_family: float
    norm_upper: float
    headline_constant: float
    headline_bound: float
    ok: bool

    def to_obj(self) -> dict:
        return {
            "atom_checks": [c.to_obj() for c in self.atom_checks],
            "aggregated_lhs": self.aggregated_lhs,
            "aggregated_rhs": self.aggregated_rhs,
            "khat_family": self.khat_family,
            "norm_upper": self.norm_upper,
            "headline_constant": self.headline_constant,
            "headline_bound": self.headline_bound,
            "ok": self.ok,
        }


def duality_check(f: ScalarField, element: HardyElement, spec: QuadratureSpec) -> DualityReport:
    """Per-atom and aggregated Hoelder bounds for the pairing of f and g.

    Aggregated step: for each polymer, Hoelder with exponents (p', p) over
    its atoms turns the per-atom products into

        sum_j |Int f b_j| <= jnp_sum(f, cubes, p', q') * polymer_norm(g_i),

    and the family-level constant khat is the worst per-polymer oscillation
    sum, giving sum_ij |Int f b_ij| <= khat * sum_i ||g_i||.  The headline
    bound (1 + C1) * khat * norm_upper with the documented normalization
    C1 = ``HEADLINE_CONSTANT`` also covers the constant term pathway.
    """
    checks: list[HolderCheck] = []
    khat = 0.0
    lhs_total = 0.0
    rhs_total = 0.0
    for poly in element.polymers:
        p_osc = conjugate_exponent(poly.p)
        q_osc = conjugate_exponent(poly.q)
        cubes = [a.cube for a in poly.atoms]
        js = jnp_sum(f, cubes, p_osc, q_osc, spec)
        khat = max(khat, js)
        pn = polymer_norm(poly, spec)
        poly_lhs = 0.0
        for a in poly.atoms:
            chk = holder_check(f, a, spec)
            checks.append(chk)
            poly_lhs += chk.lhs
        lhs_total += poly_lhs
        rhs_total += js * pn
    norm_upper = hardy_norm_upper(element, spec)
    headline = (1.0 + HEADLINE_CONSTANT) * khat * norm_upper
    ok = all(c.ok for c in checks) and lhs_total <= rhs_total + HOLDER_ABS_TOL * max(
        1, element.atom_count()
    )
    return DualityReport(
        atom_checks=tuple(checks),
        aggregated_lhs=lhs_total,
        aggregated_rhs=rhs_total,
        khat_family=khat,
        norm_upper=norm_upper,
        headline_constant=HEADLINE_CONSTANT,
        headline_bound=headline,
        ok=ok,
    )


def truncation_oscillation_check(
    f: ScalarField, cube: Cube, q: float, level: float, spec: QuadratureSpec
) -> tuple[float, float, float]:
    """(osc of f_N, osc of f, ratio): clamping at N at most doubles the
    q-oscillation, since both f_N and the recentering constant move by at
    most the clamp distance (a 1-Lipschitz map argument)."""
    osc_trunc = oscillation(truncate(f, level), cube, q, spec)
    osc_full = oscillation(f, cube, q, spec)
    ratio = math.inf if osc_full == 0.0 else osc_trunc / osc_full
    return osc_trunc, osc_full, ratio
