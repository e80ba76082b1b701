"""Batch driver for covering builds, oscillation estimates, and inequality suites.

Every run is steered by a JSON config (all keys optional, validated hard)
plus four flags: --config, --out, --seed, --verbosity.  Reports land in the
output directory as one JSON document (stable key order) and, for
``covering``, ``embed`` and ``subdivide``, one RFC-4180 CSV of the per-row
table their JSON does not hold.  The exit status is the verdict: 0 when every
asserted inequality held, 1 when at least one failed, 2 when the config did
not validate.  All randomness flows from the single config seed, so a rerun
with the same config and seed reproduces the output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import Cube, cube_arrays, gaussian_measure, is_admissible, m_weight
from .covering import build_covering, covering_admissibility, coverage_report
from .fields import (
    QuadratureSpec,
    ScalarField,
    average_gammas,
    corpus_by_id,
    distribution_lq_norm,
    distribution_weak_lp_norm,
    l1_gamma_norm,
    random_step_cells,
    step_masses,
)
from .jnp import (
    bmo_norm_estimate,
    make_candidates,
    maximize_jnp,
    node_stats,
    p_limit_scan,
    tail_fit_sweep,
    validate_family,
)
from .hardy import (
    MAX_EXPONENT,
    PAIRING_TOL,
    HardyElement,
    duality_check,
    make_atom,
    make_polymer,
    pairing,
    pairing_direct,
    polymer_lp_norm,
    subdivide_atom,
    subdivision_depth,
)
from . import kernels

logger = logging.getLogger("gaussjn.cli")


class ConfigError(ValueError):
    """Raised when the experiment config fails validation (exit status 2)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _section(cls, obj, name: str, convert: Mapping[str, Callable]):
    """``cls(**kwargs)`` from the JSON object ``obj``, one converter per key.

    Keys absent from ``obj`` keep the defaults of ``cls``.  Unknown keys, and
    any value a converter or ``cls`` itself rejects, raise ``ConfigError``.
    """
    _require(isinstance(obj, dict), f"{name} must be a JSON object")
    unknown = set(obj) - set(convert)
    _require(not unknown, f"unknown {name} keys {sorted(unknown)}")
    kwargs: dict = {}
    try:
        for key, value in obj.items():
            kwargs[key] = convert[key](value)
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError, LookupError) as exc:
        where = name if len(kwargs) == len(obj) else f"{name}.{key}"
        raise ConfigError(f"{where}: {exc}") from exc


def _of_type(kind: type, what: str) -> Callable:
    # bool is an int in Python, but true/false is never a JSON number
    def convert(value):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(f"must be {what}")
        return value

    return convert


_INTEGER = _of_type(int, "an integer")
_BOOL = _of_type(bool, "true or false")


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _floats(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError("must be a list of numbers")
    out = tuple(float(v) for v in value)
    if not all(math.isfinite(v) for v in out):
        raise ValueError("entries must be finite")
    return out


def _field_ids(value) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise TypeError("must be a list of corpus field ids")
    return tuple(value)


def _grid(
    start: float = 0.05, stop: float = 4.0, num: int = 25, log: bool = True
) -> tuple[float, ...]:
    _require(0.0 < start < stop, "sigmas: need 0 < start < stop")
    _require(num >= 2, "sigmas: need at least two grid points")
    grid = np.geomspace(start, stop, num) if log else np.linspace(start, stop, num)
    return tuple(float(v) for v in grid)


def _sigma_grid(obj) -> tuple[float, ...]:
    """Either an explicit increasing list or {start, stop, num, log}."""
    if isinstance(obj, dict):
        return _section(
            _grid, obj, "sigmas", {"start": float, "stop": float, "num": _INTEGER, "log": _BOOL}
        )
    grid = _floats(obj)
    _require(len(grid) >= 2, "sigmas: need at least two grid points")
    _require(all(v > 0.0 for v in grid), "sigmas: entries must be positive")
    _require(
        all(a < b for a, b in zip(grid, grid[1:])),
        "sigmas: entries must be strictly increasing",
    )
    return grid


def _cubes(value) -> tuple[Cube, ...]:
    _require(isinstance(value, list), "duality.cubes must be a list")
    return tuple(
        _section(Cube, c, f"duality.cubes[{i}]", {"center": _floats, "side": float})
        for i, c in enumerate(value)
    )


#: Each embed trial's step has 2 to this many cells.
_EMBED_CELLS = 6


@dataclass(frozen=True)
class EmbedSection:
    """Randomized weak-type embedding suite parameters."""

    pairs: tuple[tuple[float, float], ...] = ((3.0, 2.0), (4.0, 2.0), (2.0, 1.5))
    trials: int = 50
    margin: float = 0.02

    def validate(self) -> None:
        _require(self.trials >= 1, "embed.trials must be >= 1")
        _require(self.margin >= 0.0, "embed.margin must be >= 0")
        _require(len(self.pairs) >= 1, "embed.pairs must hold at least one [p, q] pair")
        for p, q in self.pairs:
            _require(1.0 <= q < p, f"embed pair ({p}, {q}) must satisfy 1 <= q < p")


def _pairs(value) -> tuple[tuple[float, float], ...]:
    if value is None:
        return EmbedSection.pairs
    if not isinstance(value, list):
        raise TypeError("must be a list of [p, q] pairs")
    pairs = tuple(_floats(pair) for pair in value)
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("each pair must be [p, q]")
    return pairs


@dataclass(frozen=True)
class SubdivideSection:
    """Atom subdivision demo parameters; center None picks a default."""

    a_start: float | None = None  # None -> 2 sqrt(d)
    a_target: float = 1.0
    center: tuple[float, ...] | None = None
    side: float = 1.0
    atom_q: float = 3.0

    def validate(self) -> None:
        _require(self.a_target > 0.0, "subdivide.a_target must be positive")
        if self.a_start is not None:
            _require(
                self.a_start >= self.a_target,
                "subdivide.a_start must be >= a_target",
            )
        _require(self.side > 0.0, "subdivide.side must be positive")
        _require(self.atom_q >= 1.0, "subdivide.atom_q must be >= 1")

    def resolve(self, d: int) -> tuple[float, Cube]:
        a_start = self.a_start if self.a_start is not None else covering_admissibility(d)
        center = self.center if self.center is not None else (1.2,) + (0.0,) * (d - 1)
        _require(len(center) == d, "subdivide.center length must match dimension")
        cube = Cube(tuple(center), self.side)
        _require(
            is_admissible(cube, a_start),
            f"subdivide start cube {cube.center}/{cube.side} is not admissible at {a_start}",
        )
        return a_start, cube


@dataclass(frozen=True)
class DualitySection:
    """Pairing/duality suite parameters: the polymer exponents 1 < p < q.

    The oscillation side takes their conjugates, which the suite works out
    itself.
    """

    p: float = 1.5
    q: float = 3.0
    c0: float = 0.3
    cubes: tuple[Cube, ...] | None = None  # None -> three default disjoint cubes
    pairing_tol: float = PAIRING_TOL
    max_exponent: int = MAX_EXPONENT

    def resolve_cubes(self, d: int) -> tuple[Cube, ...]:
        if self.cubes is not None:
            return self.cubes
        pad = (0.0,) * (d - 1)
        return (
            Cube((-0.5,) + pad, 0.5),
            Cube((0.25,) + pad, 0.5),
            Cube((0.85,) + pad, 0.5),
        )

    def validate(self, d: int, a: float) -> None:
        _require(1.0 < self.p < self.q, "duality exponents must satisfy 1 < p < q")
        _require(math.isfinite(self.c0), "duality.c0 must be finite")
        _require(self.pairing_tol > 0.0, "duality.pairing_tol must be positive")
        _require(1 <= self.max_exponent <= 60, "duality.max_exponent must be in [1, 60]")
        cubes = self.resolve_cubes(d)
        _require(len(cubes) >= 1, "duality.cubes must hold at least one cube")
        for c in cubes:
            _require(c.dim == d, "duality cube dimension must match config dimension")
        try:
            validate_family(*cube_arrays(cubes), a)
        except ValueError as exc:
            raise ConfigError(f"duality cubes: {exc}") from exc


# one converter per config key; every default lives in the dataclasses
_CONFIG_KEYS: dict[str, Callable] = {
    "dimension": _INTEGER,
    "p": float,
    "q": float,
    "a": _optional(float),
    "depth": _INTEGER,
    "candidate_depth": _INTEGER,
    "quadrature": lambda obj: _section(
        QuadratureSpec,
        obj,
        "quadrature",
        {"nodes_per_axis": _INTEGER, "refinement_levels": _INTEGER, "abs_tol": float},
    ),
    "fields": _field_ids,
    "sigmas": _sigma_grid,
    "p_grid": _floats,
    "radius": float,
    "coverage_points": _INTEGER,
    "out_dir": _of_type(str, "a string"),
    "seed": _INTEGER,
    "embed": lambda obj: _section(
        EmbedSection, obj, "embed", {"pairs": _pairs, "trials": _INTEGER, "margin": float}
    ),
    "subdivide": lambda obj: _section(
        SubdivideSection,
        obj,
        "subdivide",
        {
            "a_start": _optional(float),
            "a_target": float,
            "center": _optional(_floats),
            "side": float,
            "atom_q": float,
        },
    ),
    "duality": lambda obj: _section(
        DualitySection,
        obj,
        "duality",
        {
            "p": float,
            "q": float,
            "c0": float,
            "cubes": _optional(_cubes),
            "pairing_tol": float,
            "max_exponent": _INTEGER,
        },
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: geometry scales, exponents, quadrature, field ids, seed."""

    dimension: int = 1
    p: float = 2.0
    q: float = 1.5
    a: float | None = None  # None -> 2 sqrt(d), the covering scale
    depth: int = 4
    candidate_depth: int = 4
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    fields: tuple[str, ...] = ("sign0", "radius_sq")
    sigmas: tuple[float, ...] = _grid()
    p_grid: tuple[float, ...] = (2.0, 2.5, 3.0, 4.0, 6.0)
    radius: float = 6.0
    coverage_points: int = 100_000
    out_dir: str = "reports"
    seed: int = 0
    embed: EmbedSection = field(default_factory=EmbedSection)
    subdivide: SubdivideSection = field(default_factory=SubdivideSection)
    duality: DualitySection = field(default_factory=DualitySection)

    @property
    def a_value(self) -> float:
        return self.a if self.a is not None else covering_admissibility(self.dimension)

    def validate(self) -> None:
        _require(self.dimension in (1, 2, 3), "dimension must be one of 1, 2, 3")
        if self.a is not None:
            _require(self.a > 0.0, "a must be positive")
        _require(
            isinstance(self.depth, int) and self.depth >= 1,
            "depth must be an integer >= 1",
        )
        _require(
            isinstance(self.candidate_depth, int) and 0 <= self.candidate_depth <= 12,
            "candidate_depth must be an integer in [0, 12]",
        )
        _require(self.radius > 0.0, "radius must be positive")
        _require(
            isinstance(self.coverage_points, int) and self.coverage_points >= 1,
            "coverage_points must be a positive integer",
        )
        _require(
            isinstance(self.seed, int) and 0 <= self.seed < 2**64,
            "seed must be an unsigned 64-bit integer",
        )
        _require(len(self.fields) >= 1, "fields must name at least one corpus field")
        known = set(corpus_by_id(self.dimension))
        unknown = [f for f in self.fields if f not in known]
        _require(not unknown, f"unknown corpus fields {unknown}; known: {sorted(known)}")

    def validate_for(self, subcommand: str) -> None:
        """Subcommand-scoped invariants on top of the common ones."""
        if subcommand in ("jnp", "bmo", "jn-tail", "p-scan"):
            _require(1.0 < self.q < self.p, "exponents must satisfy 1 < q < p")
        if subcommand == "p-scan":
            _require(len(self.p_grid) >= 1, "p_grid must be nonempty")
            _require(
                all(x < y for x, y in zip(self.p_grid, self.p_grid[1:])),
                "p_grid must be strictly increasing",
            )
            _require(
                all(v > self.q for v in self.p_grid), "p_grid entries must exceed q"
            )
        if subcommand == "embed":
            self.embed.validate()
        if subcommand == "subdivide":
            self.subdivide.validate()
            self.subdivide.resolve(self.dimension)
        if subcommand == "duality":
            self.duality.validate(self.dimension, self.a_value)

    @classmethod
    def from_obj(cls, obj: dict) -> "ExperimentConfig":
        cfg = _section(cls, obj, "config", _CONFIG_KEYS)
        cfg.validate()
        return cfg

    def to_obj(self) -> dict:
        return dict(asdict(self), a_value=self.a_value, backend=kernels.BACKEND)


# ---------------------------------------------------------------------------
# check bookkeeping and report writing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One asserted inequality: name, verdict, and a human-readable detail."""

    name: str
    ok: bool
    detail: str

    def to_obj(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class RunResult:
    payload: dict
    checks: tuple[CheckResult, ...]
    csv_header: tuple[str, ...] | None = None
    csv_rows: tuple[tuple, ...] = ()


class _FloatTexts(dict):
    """CSV text of floats by value, each finite nonzero value formatted once.

    A report repeats few distinct floats many times (the 16,852 floats of
    the d=3 depth-4 covering take 52 values), and ``float.__repr__`` costs
    about 1 µs.  ±0.0, NaN and ±inf come back as the floats themselves and
    are never stored: ±0.0 are equal as keys and a stored entry would lose
    the sign.  ``csv.writer`` writes every float as its ``repr``, so a
    stored text is what it would have written.
    """

    def __missing__(self, value: float) -> str | float:
        if not (value and math.isfinite(value)):
            return value
        text = self[value] = float.__repr__(value)
        return text


def _write_reports(result: RunResult, out_dir: Path, name: str) -> list[Path]:
    """Write ``<name>.json`` and, when the result has a CSV header, ``<name>.csv``.

    The JSON is ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
    newline.  The CSV is ``csv.writer`` output, byte for byte: a column of
    exact floats is handed to the writer as ``_FloatTexts``, so
    ``csv.writer`` still does all of the quoting.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    payload = dict(result.payload)
    payload["checks"] = [c.to_obj() for c in result.checks]
    payload["ok"] = all(c.ok for c in result.checks)
    json_path = out_dir / f"{name}.json"
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(json_path)
    if result.csv_header is not None:
        floats = _FloatTexts()
        columns = [
            list(map(floats.__getitem__, column)) if set(map(type, column)) == {float} else column
            for column in zip(*result.csv_rows, strict=True)
        ]
        csv_path = out_dir / f"{name}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(result.csv_header)
            writer.writerows(zip(*columns))
        written.append(csv_path)
    return written


def _corpus_fields(cfg: ExperimentConfig) -> list[ScalarField]:
    by_id = corpus_by_id(cfg.dimension)
    return [by_id[fid] for fid in cfg.fields]


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_covering(cfg: ExperimentConfig) -> RunResult:
    cov = build_covering(cfg.depth, cfg.dimension)
    report = coverage_report(cov, n_points=cfg.coverage_points, seed=cfg.seed)
    layer, centers, sides = cov.arrays()
    header = ("layer", "side") + tuple(f"c{i + 1}" for i in range(cfg.dimension))
    rows = tuple(zip(layer.tolist(), sides.tolist(), *centers.T.tolist()))
    checks = (
        CheckResult(
            "covering-coverage",
            report["covered_fraction"] == 1.0,
            f"covered fraction {report['covered_fraction']} over "
            f"{report['n_points']} low-discrepancy points",
        ),
        CheckResult(
            "covering-admissible",
            report["admissible_all"],
            f"all {report['cube_count']} cubes admissible at a = {cov.admissibility}",
        ),
        CheckResult(
            "covering-shell-sides",
            report["shell_side_bounds_ok"],
            "layer k >= 2 cubes satisfy m(c) <= side <= a m(c)",
        ),
        CheckResult(
            "covering-center-bound",
            report["center_bound_ok"],
            "layer k >= 1 centers satisfy sqrt(k)/4 <= |c| <= 4 k^(d/2) "
            f"(largest ratio {report['center_bound_constant']:.6g})",
        ),
        CheckResult(
            "covering-overlap",
            report["max_overlap"] <= report["overlap_limit"],
            f"max overlap {report['max_overlap']} <= {report['overlap_limit']}",
        ),
        CheckResult(
            "covering-cardinality",
            report["cardinality_sup_plateau"],
            "running sup of #L_k / k^(d-1) has plateaued",
        ),
    )
    payload = {"config": cfg.to_obj(), "report": report}
    return RunResult(payload, checks, header, rows)


def _run_jnp(cfg: ExperimentConfig) -> RunResult:
    cov = build_covering(cfg.depth, cfg.dimension)
    cands = make_candidates(cov, cfg.candidate_depth)
    results = []
    checks: list[CheckResult] = []
    for f in _corpus_fields(cfg):
        est = maximize_jnp(f, cands, cfg.p, cfg.q, cfg.quadrature)
        results.append(dict(est.to_obj(), field=f.id))
        checks.append(
            CheckResult(
                f"jnp-nonnegative[{f.id}]",
                est.value >= 0.0,
                f"value {est.value:.12g} with family of {len(est.family)}",
            )
        )
        # sum over a disjoint subprobability family cannot beat the sup term
        if est.family:
            sup_w = max(
                w / gaussian_measure(c) for c, w in zip(est.family, est.contributions)
            )
            bound = sup_w ** (1.0 / cfg.p)
            checks.append(
                CheckResult(
                    f"jnp-sup-bound[{f.id}]",
                    est.value <= bound * 1.0 + 1e-12,
                    f"value {est.value:.12g} <= sup-oscillation bound {bound:.12g}",
                )
            )
    payload = {"config": cfg.to_obj(), "estimates": results}
    return RunResult(payload, tuple(checks))


def _run_bmo(cfg: ExperimentConfig) -> RunResult:
    cov = build_covering(cfg.depth, cfg.dimension)
    cands = make_candidates(cov, cfg.candidate_depth)
    results = []
    checks: list[CheckResult] = []
    for f in _corpus_fields(cfg):
        try:
            stats = node_stats(f, cands.centers, cands.sides, cfg.q, cfg.quadrature)
        except Exception:
            # bmo_norm_estimate integrates the L^1 term first, so its failure comes first
            l1_gamma_norm(f, cfg.dimension, cfg.radius, cfg.quadrature)
            raise
        est = bmo_norm_estimate(
            f, cands, cfg.dimension, cfg.radius, cfg.quadrature, q=cfg.q, stats=stats
        )
        jn = maximize_jnp(f, cands, cfg.p, cfg.q, cfg.quadrature, stats=stats)
        results.append(dict(est.to_obj(), field=f.id, jnp=jn.to_obj()))
        checks.append(
            CheckResult(
                f"bmo-dominates-jnp[{f.id}]",
                jn.value <= est.value + 1e-9,
                f"jnp {jn.value:.12g} <= bmo {est.value:.12g} (shared cube pool)",
            )
        )
    payload = {"config": cfg.to_obj(), "estimates": results}
    return RunResult(payload, tuple(checks))


def _run_jn_tail(cfg: ExperimentConfig) -> RunResult:
    cov = build_covering(cfg.depth, cfg.dimension)
    cands = make_candidates(cov, cfg.candidate_depth)
    _layer, centers, sides = cov.arrays()
    results = []
    checks: list[CheckResult] = []
    for f in _corpus_fields(cfg):
        jn = maximize_jnp(f, cands, cfg.p, cfg.q, cfg.quadrature)
        khat = jn.value
        if khat <= 1e-12:
            checks.append(
                CheckResult(
                    f"jn-tail-constant[{f.id}]",
                    False,
                    f"khat {khat:.3g} is numerically zero; the tail law is vacuous "
                    "for this field -- drop it from the config",
                )
            )
            continue
        reports = tail_fit_sweep(f, centers, sides, cfg.p, cfg.quadrature, cfg.sigmas, khat)
        c_values = [r.c_estimate for r in reports if not r.degenerate]
        results.append(
            {
                "field": f.id,
                "khat": khat,
                "c_estimate": max(c_values) if c_values else None,
                "fits": [r.to_obj() for r in reports],
            }
        )
        ok = bool(c_values) and all(math.isfinite(c) and c > 0.0 for c in c_values)
        detail = (
            f"c = {max(c_values):.12g} over {len(c_values)} non-degenerate cubes"
            if c_values
            else "every cube produced a degenerate tail window"
        )
        checks.append(CheckResult(f"jn-tail-finite[{f.id}]", ok, detail))
    payload = {"config": cfg.to_obj(), "sweeps": results}
    return RunResult(payload, tuple(checks))


def _run_p_scan(cfg: ExperimentConfig) -> RunResult:
    cov = build_covering(cfg.depth, cfg.dimension)
    cands = make_candidates(cov, cfg.candidate_depth)
    results = []
    checks: list[CheckResult] = []
    for f in _corpus_fields(cfg):
        scan = p_limit_scan(f, cands, cfg.p_grid, cfg.q, cfg.quadrature)
        values = [est.value for _, est in scan]
        results.append({"field": f.id, "p_grid": list(cfg.p_grid), "values": values})
        drops = [
            (p0, v0, p1, v1)
            for (p0, v0), (p1, v1) in zip(
                zip(cfg.p_grid, values), zip(cfg.p_grid[1:], values[1:])
            )
            if v1 < v0 - 1e-6
        ]
        checks.append(
            CheckResult(
                f"p-scan-monotone[{f.id}]",
                not drops,
                "values nondecreasing in p within 1e-6"
                if not drops
                else f"decrease at p = {drops[0][2]}: {drops[0][1]:.9g} -> {drops[0][3]:.9g}",
            )
        )
    payload = {"config": cfg.to_obj(), "scans": results}
    return RunResult(payload, tuple(checks))


def _random_admissible_cube(rng: np.random.Generator, d: int, a: float) -> Cube:
    direction = rng.standard_normal(d)
    direction /= max(np.linalg.norm(direction), 1e-12)
    center = tuple(float(v) for v in direction * rng.uniform(0.0, 3.0))
    side = float(rng.uniform(0.1, 1.0) * a * m_weight(center))
    return Cube(center, side)


def _run_embed(cfg: ExperimentConfig) -> RunResult:
    # draws per trial, in the order they always came; then one table of
    # cells for all trials (padding edges +inf, so padded cells weigh 0)
    # and one row-wise norm call per (p, q) pair
    rng = np.random.default_rng(cfg.seed)
    d, n = cfg.dimension, cfg.embed.trials
    centers, sides = np.empty((n, d)), np.empty(n)
    axes, cells = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    edges, values = np.full((n, _EMBED_CELLS - 1), np.inf), np.zeros((n, _EMBED_CELLS))
    for trial in range(n):
        cube = _random_admissible_cube(rng, d, cfg.a_value)
        axis, k = int(rng.integers(0, d)), int(rng.integers(2, _EMBED_CELLS + 1))
        edges[trial, : k - 1], values[trial, :k] = random_step_cells(
            rng, cube.lo[axis], cube.hi[axis], k, 1.0
        )
        centers[trial], sides[trial], axes[trial], cells[trial] = cube.center, cube.side, axis, k
    masses, gammas = step_masses(centers, sides, axes, edges)
    columns = []
    for p, q in cfg.embed.pairs:
        lhs = distribution_lq_norm(values, masses, q).tolist()
        weak = distribution_weak_lp_norm(values, masses, p).tolist()
        factor = (p / (p - q)) ** (1.0 / q)
        rhs = [factor * g ** (1.0 / q - 1.0 / p) * w for g, w in zip(gammas.tolist(), weak)]
        columns.append((p, q, lhs, rhs))
    header = ("trial", "p", "q", "lhs", "rhs", "cells", "side", "ok")
    rows = []
    failures = 0
    worst = 0.0
    for trial, (k, side) in enumerate(zip(cells.tolist(), sides.tolist())):
        for p, q, lhs, rhs in columns:
            ok = lhs[trial] <= rhs[trial] * (1.0 + cfg.embed.margin)
            failures += not ok
            if rhs[trial] > 0.0:
                worst = max(worst, lhs[trial] / rhs[trial])
            rows.append((trial, p, q, lhs[trial], rhs[trial], k, side, int(ok)))
    checks = (
        CheckResult(
            "embed-weak-type",
            failures == 0,
            f"{len(rows)} exact step comparisons, worst lhs/rhs ratio {worst:.6f}, "
            f"{failures} failures at margin {cfg.embed.margin}",
        ),
    )
    payload = {
        "config": cfg.to_obj(),
        "trials": cfg.embed.trials,
        "comparisons": len(rows),
        "worst_ratio": worst,
        "failures": failures,
    }
    return RunResult(payload, checks, header, tuple(rows))


def _run_subdivide(cfg: ExperimentConfig) -> RunResult:
    d = cfg.dimension
    a_start, start_cube = cfg.subdivide.resolve(d)
    a_target = cfg.subdivide.a_target
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(
        start_cube.lo_array() + 1e-9 * start_cube.side,
        start_cube.hi_array() - 1e-9 * start_cube.side,
        size=(1000, d),
    )
    header = ("field", "piece", "side", *(f"c{i + 1}" for i in range(d)), "mean")
    rows = []
    results = []
    checks: list[CheckResult] = []
    formula_n = subdivision_depth(a_start, a_target, d)
    for f in _corpus_fields(cfg):
        atom = make_atom(f, start_cube, cfg.subdivide.atom_q, cfg.quadrature)
        res = subdivide_atom(atom, a_start, a_target, cfg.quadrature)
        rec = np.zeros(len(pts))
        means = []
        admissible = True
        leaves = [piece.field for piece in res.atoms]
        leaf_means = average_gammas(
            leaves, *cube_arrays([piece.cube for piece in res.atoms]), cfg.quadrature
        )
        for i, (piece, mu) in enumerate(zip(res.atoms, leaf_means)):
            rec += piece.field(pts)
            means.append(abs(mu))
            admissible &= is_admissible(piece.cube, a_target)
            rows.append((f.id, i, piece.cube.side, *piece.cube.center, mu))
        orig = atom.field(pts)
        residual = float(
            np.max(np.abs(rec - orig)) / max(1.0, float(np.max(np.abs(orig))))
        )
        results.append(
            dict(
                res.to_obj(),
                field=f.id,
                reconstruction_residual=residual,
                worst_mean=max(means),
            )
        )
        checks.extend(
            [
                CheckResult(
                    f"subdivide-depth[{f.id}]",
                    res.max_depth <= formula_n and res.depth_bound == formula_n,
                    f"depth {res.max_depth} within bound {formula_n}",
                ),
                CheckResult(
                    f"subdivide-reconstruction[{f.id}]",
                    residual <= 1e-9,
                    f"max residual {residual:.3e} over {len(pts)} points",
                ),
                CheckResult(
                    f"subdivide-admissible[{f.id}]",
                    admissible,
                    f"all {len(res.atoms)} pieces admissible at {a_target}",
                ),
                CheckResult(
                    f"subdivide-means[{f.id}]",
                    max(means) <= 1e-10,
                    f"worst piece mean {max(means):.3e}",
                ),
            ]
        )
    payload = {
        "config": cfg.to_obj(),
        "a_start": a_start,
        "a_target": a_target,
        "start_cube": start_cube.to_obj(),
        "depth_formula": formula_n,
        "results": results,
    }
    return RunResult(payload, tuple(checks), header, tuple(rows))


def _run_duality(cfg: ExperimentConfig) -> RunResult:
    sec = cfg.duality
    d = cfg.dimension
    cubes = sec.resolve_cubes(d)
    results = []
    checks: list[CheckResult] = []
    for f in _corpus_fields(cfg):
        poly = make_polymer(f, cubes, sec.p, sec.q, cfg.quadrature, a=cfg.a_value)
        element = HardyElement(c0=sec.c0, polymers=(poly,))
        report = duality_check(f, element, cfg.quadrature)
        pn = report.polymer_norms[0]
        plp = polymer_lp_norm(poly, cfg.quadrature)
        checks.append(
            CheckResult(
                f"duality-atoms[{f.id}]",
                all(c.ok for c in report.atom_checks),
                f"{len(report.atom_checks)} per-atom comparisons",
            )
        )
        checks.append(
            CheckResult(
                f"duality-aggregate[{f.id}]",
                report.ok,
                f"lhs {report.aggregated_lhs:.9g} <= rhs {report.aggregated_rhs:.9g}",
            )
        )
        checks.append(
            CheckResult(
                f"duality-polymer-lp[{f.id}]",
                plp <= pn + 1e-12,
                f"||g||_p {plp:.9g} <= polymer norm {pn:.9g}",
            )
        )
        pairing_report = pairing(
            f,
            element,
            d,
            cfg.radius,
            cfg.quadrature,
            pairing_tol=sec.pairing_tol,
            max_exponent=sec.max_exponent,
        )
        entry = {
            "field": f.id,
            "duality": report.to_obj(),
            "polymer_norm": pn,
            "polymer_lp": plp,
            "pairing": {
                "value": pairing_report.value,
                "converged": pairing_report.converged,
                "levels": len(pairing_report.levels),
                "last_delta": pairing_report.last_delta,
                "tail_slack": pairing_report.tail_slack,
            },
        }
        checks.append(
            CheckResult(
                f"duality-pairing-converged[{f.id}]",
                pairing_report.converged,
                f"truncation Cauchy delta {pairing_report.last_delta:.3e} at tolerance "
                f"{sec.pairing_tol:.1e}",
            )
        )
        # truncation saturates inside the box for fields of quadratic growth,
        # so there the limit must agree with the direct integral
        if f.growth is not None:
            amp, quad = f.growth
            box_sup = amp + quad * d * cfg.radius**2
            if box_sup < 2.0**sec.max_exponent and pairing_report.value is not None:
                direct = pairing_direct(f, element, d, cfg.radius, cfg.quadrature)
                entry["pairing"]["direct"] = direct
                diff = abs(pairing_report.value - direct)
                checks.append(
                    CheckResult(
                        f"duality-pairing-direct[{f.id}]",
                        diff <= 1e-8,
                        f"|limit - direct| = {diff:.3e}",
                    )
                )
        results.append(entry)
    payload = {"config": cfg.to_obj(), "results": results}
    return RunResult(payload, tuple(checks))


SUBCOMMANDS: dict[str, Callable[[ExperimentConfig], RunResult]] = {
    "covering": _run_covering,
    "jnp": _run_jnp,
    "bmo": _run_bmo,
    "jn-tail": _run_jn_tail,
    "p-scan": _run_p_scan,
    "embed": _run_embed,
    "subdivide": _run_subdivide,
    "duality": _run_duality,
}

_DESCRIPTIONS = {
    "covering": "build the global admissible-cube covering and verify its invariants",
    "jnp": "maximize the JN-type functional over candidate antichains",
    "bmo": "estimate the BMO-type norm and compare against the JN estimate",
    "jn-tail": "fit polynomial tail laws on covering cubes and report constants",
    "p-scan": "scan the JN estimate across a grid of exponents p",
    "embed": "randomized exact-oracle weak-type embedding inequality suite",
    "subdivide": "cascade an atom down to a finer admissibility scale",
    "duality": "pairing and duality inequality suite for atoms and polymers",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussjn",
        description="Numerical experiments for Gaussian oscillation spaces.",
    )
    parser.add_argument(
        "subcommand",
        choices=SUBCOMMANDS,
        help="; ".join(f"{name}: {text}" for name, text in _DESCRIPTIONS.items()),
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument(
        "--out", type=str, default=None, help="output directory (default: config out_dir)"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--verbosity",
        type=int,
        default=1,
        choices=(0, 1, 2),
        help="0: failures only, 1: per-check lines, 2: debug logging",
    )
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    obj: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        _require(isinstance(obj, dict), "config must be a JSON object")
    if args.seed is not None:
        _require(0 <= args.seed < 2**64, "--seed must be an unsigned 64-bit integer")
        obj = dict(obj, seed=args.seed)
    if args.out is not None:
        obj = dict(obj, out_dir=args.out)
    return ExperimentConfig.from_obj(obj)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level={0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}[args.verbosity],
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _load_config(args)
        cfg.validate_for(args.subcommand)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    runner = SUBCOMMANDS[args.subcommand]
    try:
        result = runner(cfg)
    except Exception as exc:
        logger.debug("run failed", exc_info=True)
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    written = _write_reports(result, Path(cfg.out_dir), args.subcommand)
    for path in written:
        logger.info("wrote %s", path)
    failures = [c for c in result.checks if not c.ok]
    for check in result.checks:
        line = f"[{'PASS' if check.ok else 'FAIL'}] {check.name}: {check.detail}"
        if check.ok and args.verbosity >= 1:
            print(line)
        elif not check.ok:
            print(line)
    if failures:
        print(
            f"{len(failures)} of {len(result.checks)} checks failed", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
