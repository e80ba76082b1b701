"""Seeded op lists for the benchmark workloads.

An op is one certified result: either one ``gaussjn`` subcommand run on a
generated one-field config, or one public library call where no subcommand
isolates the work (``make_candidates``).  ``make_ops(workload, seed)`` is a
pure function: the same pair always gives the same list, and the program
only ever sees the configs written here.

Every parameter a seed can pick comes from a small finite grid, so the set
of all ops a workload can generate is finite (``pool``) and the reference
data in ``reference.json`` covers every one of them.  Each list holds the
same op kinds for every seed (same subcommands, fields, depths, q); the
seed picks p, point seeds, the order, and which member of a cost-alike
group runs.  That keeps a list's cost nearly independent of the seed, so
runs on different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("forest-d1", "integrals-d2", "geometry-d3")

FIELDS = ("const_one", "coord0", "radius_sq", "sign0", "step0", "log_radial", "exp_half_sq")
# fields whose |f - f_Q|^q kink is a curved level set in d >= 2
CURVED = ("radius_sq", "log_radial", "exp_half_sq")
FLAT = tuple(f for f in FIELDS if f not in CURVED)
JN_SUBS = ("jnp", "p-scan", "bmo", "jn-tail")

P_GRID = (2.0, 2.5, 3.0, 4.0)
POINT_SEEDS = tuple(range(8))

# forest-d1: depth-8 coverings (17 roots) and depth-3 forests (255 cubes)
# keep each op near 0.1-0.3 s, so a run makes about five passes and every
# op's median rests on as many samples spread over the run
FOREST_DEPTH = 8
FOREST_CANDIDATE_DEPTH = 3
# q sets how sharp the |f - f_Q|^q kink is and so how far each average
# refines; seeding it moved single ops by up to 1.5x and the tail by 9%
# between seeds, so q is fixed per subcommand (both values appear) and the
# seed picks p, which only weights the antichain DP
FOREST_Q = {"jnp": 1.25, "p-scan": 1.5, "bmo": 1.5, "jn-tail": 1.25}

# integrals-d2: shallow geometry, so a handful of integrals per op refine to
# 1e6-1e7 tensor nodes; abs_tol 1e-7 keeps the curved-field ops at seconds
D2_QUADRATURE = {"abs_tol": 1e-7}
# ten tail levels instead of 25: one tail_sums pass per level over ~1.7e7
# nodes (with six, step0 has no fit window left and fails)
D2_SIGMAS = {"num": 10}
D2_Q = {"jnp": 1.25, "p-scan": 1.5, "bmo": 1.5, "jn-tail": 1.5}
# ops on fields that are constant or flat on each side of one hyperplane
# finish in ~30 ms of mostly CLI overhead; with all of them in the list the
# median fell on the edge between those and the integral-heavy ops, so
# const_one is left out of jnp/p-scan/bmo here (forest-d1 has it) and
# duality runs on coord0 plus one curved field (radius_sq stops at the node
# cap; log_radial passes but takes 7 s)
D2_JN_FIELDS = tuple(f for f in FIELDS if f != "const_one")
D2_DUALITY_FIELDS = ("coord0", "radius_sq")
D2_C0 = (0.3, 0.5)
# one subdivision target for every field: its cascades (0.3 s each) then
# form one cost group that holds the tail rank, where mixed targets
# (0.01-1.8 s) made the tail jump between groups from run to run
D2_A_TARGET = 0.5

# geometry-d3
COVERING_D2_DEPTHS = (3, 4, 5, 6, 7, 8)
COVERING_D3_DEPTHS = (2, 3, 4)
COVERAGE_POINTS = 10_000
CANDIDATES_D3 = ((2, 0), (2, 1), (2, 2))
EMBED_DIMS = (1, 2, 3)
EMBED_TRIALS = 50


def op_key(op: dict) -> str:
    """Digest of what the program receives: the call and its config."""
    blob = json.dumps({"call": op["call"], "config": op["config"]}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _op(call: str, config: dict) -> dict:
    return {"call": call, "config": config}


def _jn_config(d: int, field: str, sub: str, p: float, q: float, extra: dict) -> dict:
    cfg = dict(extra, dimension=d, fields=[field], q=q)
    if sub != "p-scan":
        cfg["p"] = p
    return cfg


def _forest_d1(rng: random.Random) -> list[dict]:
    ops = []
    for sub in JN_SUBS:
        for field in FIELDS:
            extra = {"depth": FOREST_DEPTH, "candidate_depth": FOREST_CANDIDATE_DEPTH}
            cfg = _jn_config(1, field, sub, rng.choice(P_GRID), FOREST_Q[sub], extra)
            ops.append(_op(sub, cfg))
    return ops


def _integrals_d2(rng: random.Random) -> list[dict]:
    # as in forest-d1, q is fixed per subcommand: in d=2 it moves the
    # curved fields' refinement by up to 5x
    extra = {"depth": 1, "candidate_depth": 0, "quadrature": D2_QUADRATURE}
    ops = []
    for sub in ("jnp", "p-scan", "bmo"):
        for field in D2_JN_FIELDS:
            cfg = _jn_config(2, field, sub, rng.choice(P_GRID), D2_Q[sub], extra)
            ops.append(_op(sub, cfg))
    # every curved field stops at the node cap in jn-tail, at about the same
    # cost; one per list
    for field in FLAT + (rng.choice(CURVED),):
        cfg = _jn_config(2, field, "jn-tail", rng.choice(P_GRID), D2_Q["jn-tail"],
                         dict(extra, sigmas=D2_SIGMAS))
        ops.append(_op("jn-tail", cfg))
    for field in D2_DUALITY_FIELDS:
        cfg = {"dimension": 2, "fields": [field], "quadrature": D2_QUADRATURE,
               "duality": {"c0": rng.choice(D2_C0)}}
        ops.append(_op("duality", cfg))
    for field in FIELDS:
        cfg = {"dimension": 2, "fields": [field], "quadrature": D2_QUADRATURE,
               "subdivide": {"a_target": D2_A_TARGET}}
        ops.append(_op("subdivide", cfg))
    return ops


def _geometry_d3(rng: random.Random) -> list[dict]:
    ops = []
    # three d=2 coverings per depth (with their own point seeds): the tail
    # rank then falls inside a group of equal-cost ops, not on the edge
    # between two depths
    for d, depths in ((2, COVERING_D2_DEPTHS), (3, COVERING_D3_DEPTHS)):
        for depth in depths:
            for _ in range(3 if d == 2 else 1):
                cfg = {"dimension": d, "depth": depth, "coverage_points": COVERAGE_POINTS,
                       "seed": rng.choice(POINT_SEEDS)}
                ops.append(_op("covering", cfg))
    for depth, cdepth in CANDIDATES_D3:
        ops.append(_op("make_candidates", {"dimension": 3, "depth": depth, "candidate_depth": cdepth}))
    for d in EMBED_DIMS:
        for _ in range(3):
            cfg = {"dimension": d, "seed": rng.choice(POINT_SEEDS),
                   "embed": {"trials": EMBED_TRIALS}}
            ops.append(_op("embed", cfg))
    return ops


_GENERATORS = {"forest-d1": _forest_d1, "integrals-d2": _integrals_d2, "geometry-d3": _geometry_d3}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one workload for one seed, in execution order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    rng = random.Random(f"{workload}:{int(seed)}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["index"] = i
        op["key"] = op_key(op)
    return ops


def pool(workload: str) -> list[dict]:
    """Every distinct op the workload can generate, for the reference data."""
    seen: dict[str, dict] = {}
    if workload == "forest-d1":
        for sub, field, p in itertools.product(JN_SUBS, FIELDS, P_GRID):
            extra = {"depth": FOREST_DEPTH, "candidate_depth": FOREST_CANDIDATE_DEPTH}
            op = _op(sub, _jn_config(1, field, sub, p, FOREST_Q[sub], extra))
            seen.setdefault(op_key(op), op)
    elif workload == "integrals-d2":
        extra = {"depth": 1, "candidate_depth": 0, "quadrature": D2_QUADRATURE}
        for sub, field, p in itertools.product(JN_SUBS, FIELDS, P_GRID):
            if sub != "jn-tail" and field not in D2_JN_FIELDS:
                continue
            sub_extra = dict(extra, sigmas=D2_SIGMAS) if sub == "jn-tail" else extra
            op = _op(sub, _jn_config(2, field, sub, p, D2_Q[sub], sub_extra))
            seen.setdefault(op_key(op), op)
        for field, c0 in itertools.product(D2_DUALITY_FIELDS, D2_C0):
            op = _op("duality", {"dimension": 2, "fields": [field], "quadrature": D2_QUADRATURE,
                                 "duality": {"c0": c0}})
            seen.setdefault(op_key(op), op)
        for field in FIELDS:
            op = _op("subdivide", {"dimension": 2, "fields": [field], "quadrature": D2_QUADRATURE,
                                   "subdivide": {"a_target": D2_A_TARGET}})
            seen.setdefault(op_key(op), op)
    elif workload == "geometry-d3":
        for d, depths in ((2, COVERING_D2_DEPTHS), (3, COVERING_D3_DEPTHS)):
            for depth, s in itertools.product(depths, POINT_SEEDS):
                op = _op("covering", {"dimension": d, "depth": depth,
                                      "coverage_points": COVERAGE_POINTS, "seed": s})
                seen.setdefault(op_key(op), op)
        for depth, cdepth in CANDIDATES_D3:
            op = _op("make_candidates", {"dimension": 3, "depth": depth, "candidate_depth": cdepth})
            seen.setdefault(op_key(op), op)
        for d, s in itertools.product(EMBED_DIMS, POINT_SEEDS):
            op = _op("embed", {"dimension": d, "seed": s, "embed": {"trials": EMBED_TRIALS}})
            seen.setdefault(op_key(op), op)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return list(seen.values())
