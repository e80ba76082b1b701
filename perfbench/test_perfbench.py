"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# counts that depend only on the op list, never on the machine
DETERMINISTIC = (
    "fields.base_evals", "kernels.reduce.elems", "kernels.tail_sums.elems",
    "kernels.count_membership.pairs", "jnp.candidates", "covering.cubes", "hardy.atoms_out",
    "kernels.erf.calls", "fields.max_call_nodes", "jnp.osc_per_cube",
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_workload_and_seed(workload):
    assert workloads.make_ops(workload, 3) == workloads.make_ops(workload, 3)
    assert workloads.make_ops(workload, 3) != workloads.make_ops(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_op_has_reference_data(workload):
    pool = {workloads.op_key(op) for op in workloads.pool(workload)}
    for seed in range(200):
        for op in workloads.make_ops(workload, seed):
            assert op["key"] in pool
            assert REFERENCE[op["key"]]["workload"] == workload


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def test_every_layer_metric_names_its_end_to_end_metric_and_workload():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS)
    assert set(LAYERS["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    assert LAYERS["default_seed"] == run.DEFAULT_SEED != LAYERS["heldout_seed"]
    for name, entry in LAYERS["layers"].items():
        assert entry["moves"] and set(entry["moves"]) <= e2e, name
        assert entry["workloads"] and set(entry["workloads"]) <= names, name


def test_tail_ranks_failed_ops_above_every_latency():
    latencies = [float(i) for i in range(1, 31)]
    assert run.tail_latency(latencies, [False] * 30) == (20.0, pytest.approx(100 * 20 / 30))
    failed = [False] * 25 + [True] * 5
    assert run.tail_latency(latencies, failed)[0] == 20.0
    assert run.tail_latency(latencies, [True] * 30)[0] == 30.0


def test_step_closed_form_matches_a_hand_computed_cube():
    # one cube (-1, 1): sign0 splits it in half, so osc_q = 1 for every q
    family = [{"center": [0.0], "side": 2.0}]
    gamma = check._gauss1d(-1.0, 1.0)
    assert check.step_family_value("sign0", family, 2.0, 1.5) == pytest.approx(gamma**0.5)
    assert check.step_family_value("const_one", family, 2.0, 1.5) == 0.0


def test_judge_flags_a_value_past_tolerance(tmp_path):
    op = next(o for o in workloads.pool("forest-d1")
              if o["call"] == "jnp" and o["config"]["fields"] == ["coord0"])
    op = dict(op, key=workloads.op_key(op))
    ref = REFERENCE[op["key"]]["values"]
    (tmp_path / "report").mkdir()

    def judged(value: float) -> dict:
        est = {"value": value, "family": [{}] * int(ref["family"]), "candidates": ref["candidates"]}
        report = {"ok": True, "estimates": [est]}
        (tmp_path / "report" / "jnp.json").write_text(json.dumps(report))
        return check.judge(op, {"rc": 0}, tmp_path, REFERENCE)

    assert not judged(ref["value"])["wrong"]
    off = judged(ref["value"] * (1.0 + 1e-3))
    assert off["wrong"] and off["failed"] and off["deviation"] > check.tolerance(op)


def _tiny_ops() -> list[dict]:
    """Cheap pool ops that reach every layer: quadrature, tails, atoms, geometry."""
    picks = [
        ("forest-d1", "jnp", lambda c: c["fields"] == ["sign0"]),
        ("integrals-d2", "jn-tail", lambda c: c["fields"] == ["coord0"]),
        ("integrals-d2", "subdivide", lambda c: c["fields"] == ["const_one"]),
        ("integrals-d2", "duality", lambda c: c["fields"] == ["coord0"]),
        ("geometry-d3", "covering", lambda c: c["dimension"] == 2 and c["depth"] == 3),
        ("geometry-d3", "make_candidates", lambda c: c["candidate_depth"] == 0),
    ]
    ops = []
    for workload, call, want in picks:
        op = next(o for o in workloads.pool(workload) if o["call"] == call and want(o["config"]))
        ops.append(dict(op, index=len(ops), key=workloads.op_key(op)))
    return ops


def test_tiny_op_list_runs_end_to_end_and_counts_repeat(tmp_path):
    ops = _tiny_ops()
    first = run.run("tiny", 0, 1.0, True, ops=ops, out=tmp_path / "a")
    second = run.run("tiny", 0, 1.0, True, ops=ops, out=tmp_path / "b")
    assert not first["wrong_ops"] and first["failed"] == 0
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert layer_names <= set(first["metrics"])
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = first["metrics"]
    assert m["trace.self_sum_s"]["value"] == pytest.approx(m["trace.op_s"]["value"], rel=1e-3)
    assert (tmp_path / "a" / "spans.npz").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forest-d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
