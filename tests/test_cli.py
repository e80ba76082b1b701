"""End-to-end tests for the batch driver: configs, exit codes, reports."""

import csv
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from gaussjn import cli
from gaussjn.cli import ExperimentConfig, ConfigError, main as cli_main
from gaussjn.covering import build_covering
from gaussjn.fields import make_random_step, step_lq_norm, step_weak_lp_norm
from gaussjn.geometry import gaussian_measure
from gaussjn.hardy import make_atom, subdivide_atom


def run_cli(subcommand, cfg_obj, tmp_path, *extra):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_obj), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(
        [subcommand, "--config", str(cfg_path), "--out", str(out), *extra]
    )
    return code, out


def read_json(out_dir, subcommand):
    return json.loads((out_dir / f"{subcommand}.json").read_text(encoding="utf-8"))


def read_csv(out_dir, subcommand):
    with open(out_dir / f"{subcommand}.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# contract examples
# ---------------------------------------------------------------------------


def test_covering_depth_one_produces_three_cubes(tmp_path):
    code, out = run_cli(
        "covering", {"dimension": 1, "depth": 1, "coverage_points": 5000}, tmp_path
    )
    assert code == 0
    payload = read_json(out, "covering")
    assert payload["ok"] is True
    assert payload["report"]["cube_count"] == 3
    rows = read_csv(out, "covering")
    assert rows[0] == ["layer", "side", "c1"]
    assert len(rows) == 4  # header + one central + two first-shell cubes
    assert sorted(r[0] for r in rows[1:]) == ["0", "1", "1"]


def test_jnp_constant_field_scores_zero(tmp_path):
    cfg = {
        "dimension": 1,
        "depth": 2,
        "candidate_depth": 2,
        "p": 2.0,
        "q": 1.5,
        "fields": ["const_one"],
    }
    code, out = run_cli("jnp", cfg, tmp_path)
    assert code == 0
    payload = read_json(out, "jnp")
    assert payload["ok"] is True
    assert payload["estimates"][0]["value"] == 0.0


# the d=2 configs of the benchmark's integrals-d2 workload whose curved
# kinks once ran into the node cap: their level sets are circles, which the
# per-row breaks of the iterated rule cut exactly
D2_SMALL = {"dimension": 2, "quadrature": {"abs_tol": 1e-7}}


@pytest.mark.parametrize(
    "subcommand, cfg",
    [
        *(
            ("jn-tail", dict(D2_SMALL, depth=1, candidate_depth=0, sigmas={"num": 10}, p=2.0,
                             q=1.5, fields=[fid]))
            for fid in ("radius_sq", "log_radial", "exp_half_sq")
        ),
        ("duality", dict(D2_SMALL, fields=["radius_sq"], duality={"c0": 0.3})),
    ],
    ids=["jn-tail-radius_sq", "jn-tail-log_radial", "jn-tail-exp_half_sq", "duality-radius_sq"],
)
def test_curved_d2_configs_certify(subcommand, cfg, tmp_path):
    start = time.perf_counter()
    code, out = run_cli(subcommand, cfg, tmp_path)
    assert code == 0
    assert read_json(out, subcommand)["ok"] is True
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "subcommand, cfg, most",
    [
        # make_atom's three means, one call per cascade depth, one for the 52 leaf means
        ("subdivide", dict(D2_SMALL, fields=["const_one"], subdivide={"a_target": 0.5}), 7),
        # the pairing's terms of one truncation level come from one call
        ("duality", dict(D2_SMALL, fields=["radius_sq"], duality={"c0": 0.3}), 39),
    ],
    ids=["subdivide", "duality"],
)
def test_d2_hardy_ops_batch_their_driver_calls(subcommand, cfg, most, tmp_path, monkeypatch):
    from gaussjn import fields

    calls = []
    drive = fields._drive
    monkeypatch.setattr(fields, "_drive", lambda *a, **k: calls.append(1) or drive(*a, **k))
    code, out = run_cli(subcommand, cfg, tmp_path)
    assert code == 0
    assert read_json(out, subcommand)["ok"] is True
    assert len(calls) <= most


def test_duality_on_the_d3_flat_fields_certifies(tmp_path):
    # the polymer L^p norm of the coord0 atom on the cube at (-0.5, 0, 0):
    # ungraded toward {f = 0}, its power average needed 33,554,432 nodes at
    # level 5, over the node cap
    cfg = {"dimension": 3, "fields": ["coord0", "sign0", "step0"]}
    code, out = run_cli("duality", cfg, tmp_path)
    assert code == 0
    assert read_json(out, "duality")["ok"] is True


def test_duality_conjugate_mismatch_is_a_config_error(tmp_path, capsys):
    # the suite works out the conjugates of p and q itself, so a config
    # that names them is rejected like any other unknown key
    cfg = {"duality": {"p": 1.5, "p_prime": 3.0}}
    code, _ = run_cli("duality", cfg, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unknown duality keys ['p_prime']" in err


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    code, _ = run_cli("covering", {"zeta": 1}, tmp_path)
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_unknown_corpus_field_is_rejected(tmp_path, capsys):
    code, _ = run_cli("jnp", {"fields": ["nope"]}, tmp_path)
    assert code == 2
    assert "unknown corpus fields" in capsys.readouterr().err


def test_malformed_json_is_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{", encoding="utf-8")
    code = cli_main(["covering", "--config", str(cfg_path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [[], ["nope"], ["jnp", "--verbosity", "7"], ["jnp", "--seed", "x"], ["jnp", "--zeta"]]
)
def test_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_rejected(tmp_path, capsys):
    code = cli_main(["covering", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_exponent_order_is_enforced_per_subcommand(tmp_path, capsys):
    # p <= q only matters for the oscillation-functional subcommands
    code, _ = run_cli("jnp", {"p": 1.5, "q": 2.0}, tmp_path)
    assert code == 2
    assert "1 < q < p" in capsys.readouterr().err
    code, out = run_cli(
        "covering", {"p": 1.5, "q": 2.0, "depth": 1, "coverage_points": 2000}, tmp_path
    )
    assert code == 0


MALFORMED_CONFIGS = [
    {"p": "abc"},
    {"p": None},
    {"embed": {"trials": "x"}},
    {"embed": {"pairs": [[3]]}},
    {"subdivide": {"side": None}},
    {"sigmas": {"num": "a"}},
    {"duality": {"cubes": [{"center": [0.0], "side": "a"}]}},
    # a string where a list of floats belongs is not read character by character
    {"p_grid": "345"},
    {"sigmas": "345"},
    {"subdivide": {"center": "12"}},
    {"duality": {"cubes": [{"center": "0", "side": 0.5}]}},
    # true/false and non-integral numbers are not integers
    {"dimension": True},
    {"seed": False},
    {"quadrature": {"nodes_per_axis": 8.9}},
    {"quadrature": {"refinement_levels": True}},
    {"embed": {"trials": 8.9}},
    {"sigmas": {"num": 8.9}},
    {"duality": {"max_exponent": True}},
    # "false" is a string, not false
    {"sigmas": {"log": "false"}},
    # a pair has exactly two entries
    {"embed": {"pairs": [[3, 2, 99]]}},
]


@pytest.mark.parametrize("cfg", MALFORMED_CONFIGS, ids=json.dumps)
def test_malformed_config_value_is_a_config_error(cfg, tmp_path, capsys):
    code, _ = run_cli("covering", cfg, tmp_path)
    assert code == 2
    assert "config error" in capsys.readouterr().err


FULL_CONFIG = {
    "dimension": 2,
    "p": 3.0,
    "q": 2.0,
    "a": 3.5,
    "depth": 3,
    "candidate_depth": 2,
    "quadrature": {"nodes_per_axis": 6, "refinement_levels": 8, "abs_tol": 1e-7},
    "fields": ["coord0", "step0"],
    "sigmas": [0.1, 0.5, 2.0],
    "p_grid": [2.5, 5.0],
    "radius": 4.0,
    "coverage_points": 5000,
    "out_dir": "elsewhere",
    "seed": 11,
    "embed": {"pairs": [[5.0, 2.0]], "trials": 7, "margin": 0.1},
    "subdivide": {
        "a_start": 3.0,
        "a_target": 0.5,
        "center": [1.0, 0.5],
        "side": 0.5,
        "atom_q": 2.0,
    },
    "duality": {
        "p": 1.25,
        "q": 4.0,
        "c0": 0.5,
        "cubes": [{"center": [0.0, 0.0], "side": 0.4}],
        "pairing_tol": 1e-6,
        "max_exponent": 20,
    },
}


@pytest.mark.parametrize("obj", [{}, FULL_CONFIG], ids=["defaults", "every-section"])
def test_config_to_obj_parses_back_to_the_same_config(obj):
    cfg = ExperimentConfig.from_obj(obj)
    dumped = json.loads(json.dumps(cfg.to_obj()))
    del dumped["a_value"], dumped["backend"]
    assert ExperimentConfig.from_obj(dumped) == cfg


def test_config_object_round_trip():
    cfg = ExperimentConfig.from_obj({"dimension": 2, "p": 3.0, "q": 2.0, "seed": 9})
    obj = cfg.to_obj()
    assert obj["dimension"] == 2
    assert obj["seed"] == 9
    assert obj["a"] is None
    assert obj["a_value"] == pytest.approx(2.0 * 2.0**0.5)
    assert obj["backend"] == "numpy"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_obj({"dimension": 5})


# ---------------------------------------------------------------------------
# failure verdicts (exit status 1)
# ---------------------------------------------------------------------------


def test_jn_tail_on_constant_field_fails_with_advice(tmp_path, capsys):
    cfg = {
        "depth": 2,
        "candidate_depth": 2,
        "p": 2.0,
        "q": 1.5,
        "fields": ["const_one"],
    }
    code, out = run_cli("jn-tail", cfg, tmp_path)
    assert code == 1
    captured = capsys.readouterr()
    assert "drop it from the config" in captured.out
    assert "checks failed" in captured.err
    payload = read_json(out, "jn-tail")
    assert payload["ok"] is False


# ---------------------------------------------------------------------------
# determinism and overrides
# ---------------------------------------------------------------------------


def test_rerun_reproduces_reports_byte_for_byte(tmp_path):
    cfg = {"embed": {"trials": 8}, "seed": 123}
    code, out = run_cli("embed", cfg, tmp_path)
    assert code == 0
    first_json = (out / "embed.json").read_bytes()
    first_csv = (out / "embed.csv").read_bytes()
    code, out = run_cli("embed", cfg, tmp_path)
    assert code == 0
    assert (out / "embed.json").read_bytes() == first_json
    assert (out / "embed.csv").read_bytes() == first_csv


def test_seed_override_is_recorded_and_changes_draws(tmp_path):
    cfg = {"embed": {"trials": 8}, "seed": 123}
    code, out = run_cli("embed", cfg, tmp_path)
    assert code == 0
    base_rows = read_csv(out, "embed")
    code, out7 = run_cli("embed", cfg, tmp_path, "--seed", "7")
    assert code == 0
    payload = read_json(out7, "embed")
    assert payload["config"]["seed"] == 7
    assert read_csv(out7, "embed") != base_rows


def test_verbosity_zero_silences_passing_checks(tmp_path, capsys):
    code, _ = run_cli(
        "covering",
        {"depth": 1, "coverage_points": 2000},
        tmp_path,
        "--verbosity",
        "0",
    )
    assert code == 0
    assert "[PASS]" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


NAN, INF = math.nan, math.inf


def _plain_reports(result, out_dir):
    # the reports as json.dumps and csv.writer wrote them before
    payload = dict(result.payload)
    payload["checks"] = [c.to_obj() for c in result.checks]
    payload["ok"] = all(c.ok for c in result.checks)
    out_dir.mkdir()
    (out_dir / "r.json").write_text(_dumps(payload) + "\n", encoding="utf-8")
    with open(out_dir / "r.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows)


def _assert_same_reports(result, tmp_path):
    _plain_reports(result, tmp_path / "plain")
    cli._write_reports(result, tmp_path / "fast", "r")
    for name in ("r.json", "r.csv"):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    floats = [1.5, NAN, INF, -INF, -0.0, 0.0, 1e300, 5e-324, 0.1]
    rows = (
        ("plain", 1.5, 2, np.float64(1.5), 1.5, True),
        ("a,comma", NAN, 0, np.float64(-0.0), "", None),
        ('a "quote"', INF, -1, np.float64(NAN), 0.1, False),
        ("a\nnewline", -INF, 10**20, np.float64(INF), -0.0, 1),
        ("", -0.0, 3, np.float64(2.5), 1e300, 0.5),
        ("é", 0.0, 4, np.float64(0.1), 5e-324, "x,y"),
    )
    result = cli.RunResult(
        {"seen": floats, "column": [row[1] for row in rows]},
        (cli.CheckResult("c", True, "detail"),),
        ("name", "float", "int", "np.float64", "mixed", "other"),
        rows,
    )
    _assert_same_reports(result, tmp_path)


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(3),
        {"a": np.int64(1)},
        [{"a": np.int64(1)}, {"a": np.int64(2)}],
        [object()],
        {(1,): 2},
    ],
    ids=["int64", "int64-value", "int64-in-records", "object", "tuple-key"],
)
def test_json_writer_raises_json_type_error(obj, tmp_path):
    # a value JSON cannot hold stops the report with json's own error and
    # leaves no half-written file behind
    with pytest.raises(TypeError) as expected:
        _dumps({"value": obj})
    result = cli.RunResult({"value": obj}, (cli.CheckResult("c", True, "detail"),))
    with pytest.raises(TypeError) as got:
        cli._write_reports(result, tmp_path, "r")
    assert str(got.value) == str(expected.value)
    assert not (tmp_path / "r.json").exists()


def test_covering_reports_match_json_and_csv_writers(tmp_path):
    cfg = ExperimentConfig.from_obj({"dimension": 3, "depth": 4, "coverage_points": 1000})
    result = cli._run_covering(cfg)
    assert len(result.csv_rows) == 4213
    _assert_same_reports(result, tmp_path)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_covering_csv_gives_back_every_cube(d, tmp_path):
    # the CSV is the one place a covering report lists its cubes
    cfg = {"dimension": d, "depth": 3, "coverage_points": 1000}
    code, out = run_cli("covering", cfg, tmp_path)
    assert code == 0
    assert "cubes" not in read_json(out, "covering")
    header, *rows = read_csv(out, "covering")
    assert header == ["layer", "side", *(f"c{i + 1}" for i in range(d))]
    layer, centers, sides = build_covering(3, d).arrays()
    assert [int(r[0]) for r in rows] == layer.tolist()
    # bit for bit, so -0.0 and 0.0 differ
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    assert values.tobytes() == np.column_stack([sides, centers]).tobytes()


@pytest.mark.parametrize("seed", [5, 12], ids="seed{}".format)
@pytest.mark.parametrize("d", [1, 2, 3], ids="d{}".format)
def test_embed_rows_match_the_step_norms_per_pair(d, seed):
    # one row of the trial table per trial gives the bits of one step_lq_norm
    # and one step_weak_lp_norm call per (p, q) pair, off axis 0 and with
    # the other axes' gamma factors too; every third trial is also checked
    # against the mpmath step oracles
    cfg = ExperimentConfig.from_obj({"dimension": d, "seed": seed, "embed": {"trials": 6}})
    rows = cli._run_embed(cfg).csv_rows
    rng = np.random.default_rng(cfg.seed)
    expected = []
    for trial in range(cfg.embed.trials):
        cube = cli._random_admissible_cube(rng, cfg.dimension, cfg.a_value)
        axis, cells = int(rng.integers(0, cfg.dimension)), int(rng.integers(2, 7))
        step = make_random_step(rng, cube, axis=axis, cells=cells, scale=1.0, tag=str(trial))
        for p, q in cfg.embed.pairs:
            factor = (p / (p - q)) ** (1.0 / q) * gaussian_measure(cube) ** (1.0 / q - 1.0 / p)
            lhs = step_lq_norm(step, cube, q)
            expected.append((lhs, factor * step_weak_lp_norm(step, cube, p)))
            if trial % 3 == 0:
                args = (step.edges, step.values, cube.lo, cube.hi, axis)
                lq_ref = oracles.step_lq_mp(*args, q)
                wk_ref = factor * oracles.step_weak_lp_mp(*args, p)
                assert abs(lhs - lq_ref) <= 1e-10 * lq_ref
                assert abs(expected[-1][1] - wk_ref) <= 1e-10 * wk_ref
    assert [(row[3], row[4]) for row in rows] == expected


def test_empty_embed_pair_list_is_a_config_error(tmp_path, capsys):
    # no pair would mean no comparison, and a PASS that checked nothing
    code, out = run_cli("embed", {"embed": {"pairs": []}}, tmp_path)
    assert code == 2
    assert "embed.pairs must hold at least one [p, q] pair" in capsys.readouterr().err
    assert not (out / "embed.json").exists()


def test_empty_duality_cube_list_is_a_config_error(tmp_path, capsys):
    # no cube would mean no atom, and a PASS that checked nothing
    code, out = run_cli("duality", {"duality": {"cubes": []}}, tmp_path)
    assert code == 2
    assert "duality.cubes must hold at least one cube" in capsys.readouterr().err
    assert not (out / "duality.json").exists()


# ---------------------------------------------------------------------------
# every subcommand on a small d=1 configuration
# ---------------------------------------------------------------------------

SMALL_CONFIGS = {
    "covering": {"depth": 3, "coverage_points": 20000},
    "jnp": {
        "depth": 3,
        "candidate_depth": 3,
        "p": 2.0,
        "q": 1.5,
        "fields": ["sign0", "radius_sq"],
    },
    "bmo": {
        "depth": 3,
        "candidate_depth": 3,
        "p": 2.0,
        "q": 1.5,
        "fields": ["sign0", "radius_sq"],
    },
    "jn-tail": {
        "depth": 3,
        "candidate_depth": 3,
        "p": 2.0,
        "q": 1.5,
        "fields": ["radius_sq"],
    },
    "p-scan": {
        "depth": 3,
        "candidate_depth": 3,
        "q": 1.5,
        "fields": ["sign0"],
        "p_grid": [2.0, 3.0, 4.0],
    },
    "embed": {"embed": {"trials": 10}},
    "subdivide": {"fields": ["radius_sq"], "subdivide": {"a_target": 1.0}},
    "duality": {"fields": ["sign0", "radius_sq"]},
}


# the subcommands with a per-row table their JSON does not hold; the others
# write their JSON only
CSV_SUBCOMMANDS = {"covering", "embed", "subdivide"}


@pytest.mark.parametrize("subcommand", sorted(SMALL_CONFIGS))
def test_subcommand_runs_green_and_writes_both_reports(subcommand, tmp_path):
    code, out = run_cli(subcommand, SMALL_CONFIGS[subcommand], tmp_path)
    assert code == 0
    payload = read_json(out, subcommand)
    assert payload["ok"] is True
    assert payload["checks"]
    assert all(c["ok"] for c in payload["checks"])
    suffixes = ("json", "csv") if subcommand in CSV_SUBCOMMANDS else ("json",)
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{subcommand}.{s}" for s in suffixes)
    # every JSON report is json.dumps of its own parse
    text = (out / f"{subcommand}.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_csv_reports_are_rectangular(tmp_path):
    # the CSV is the one place a subdivide report lists its pieces' cubes
    cfg = dict(SMALL_CONFIGS["subdivide"], fields=["radius_sq", "coord0"])
    code, out = run_cli("subdivide", cfg, tmp_path)
    assert code == 0
    payload = read_json(out, "subdivide")
    assert all("cubes" not in r for r in payload["results"])
    header, *rows = read_csv(out, "subdivide")
    assert header == ["field", "piece", "side", "c1", "mean"]
    assert all(len(r) == len(header) for r in rows)
    config = ExperimentConfig.from_obj(cfg)
    sec, spec = config.subdivide, config.quadrature
    a_start, cube = sec.resolve(1)
    for f, r in zip(cli._corpus_fields(config), payload["results"]):
        res = subdivide_atom(make_atom(f, cube, sec.atom_q, spec), a_start, sec.a_target, spec)
        mine = [row for row in rows if row[0] == f.id]
        assert len(mine) == len(res.atoms) == r["atom_count"]
        assert [int(row[1]) for row in mine] == list(range(len(res.atoms)))
        # bit for bit, so -0.0 and 0.0 differ
        values = np.array([[float(v) for v in row[2:-1]] for row in mine])
        cubes = [(piece.cube.side, *piece.cube.center) for piece in res.atoms]
        assert values.tobytes() == np.array(cubes).tobytes()


def test_jn_tail_fits_leave_the_sweep_values_to_the_config(tmp_path):
    # the grid, p, khat and field id are written once: in the config and
    # the sweep entry, not again in each cube's fit
    code, out = run_cli("jn-tail", SMALL_CONFIGS["jn-tail"], tmp_path)
    assert code == 0
    payload = read_json(out, "jn-tail")
    assert {"sigmas", "p", "fields"} <= set(payload["config"])
    (sweep,) = payload["sweeps"]
    assert sweep["field"] == "radius_sq" and sweep["khat"] > 0.0
    assert sweep["fits"]
    for fit in sweep["fits"]:
        assert set(fit) == {"cube", "tails", "window", "slope", "c_estimate", "degenerate"}
        assert len(fit["tails"]) == len(payload["config"]["sigmas"])


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no scipy module at all: the Sobol sampler and the optimizer are
    # imported where they are used, by subcommands that need them
    code = (
        "import sys, gaussjn.cli; from gaussjn import kernels; kernels.warmup(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_embed_run_loads_no_scipy(tmp_path):
    # the import alone loads none (above); an embed run takes its masses
    # from kernels.gauss1d and its norms from numpy, so it loads none either
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dimension": 3, "embed": {"trials": 5}}), encoding="utf-8")
    argv = ["embed", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    code = (
        f"import sys, gaussjn.cli; code = gaussjn.cli.main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_console_script_entry_point(tmp_path):
    """The ``gaussjn`` script declared in pyproject.toml runs end to end.

    The declared target is run through the same wrapper that setuptools
    generates for a console script, so no install is needed; where an
    installed ``gaussjn`` is on PATH, it is run as well.
    """
    commands = {}
    exe = shutil.which("gaussjn")
    if exe is not None:
        commands["installed"] = [exe]
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = None
    if tomllib is not None:
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, attr = scripts["gaussjn"].split(":")
        commands["declared"] = [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
        ]
    if not commands:
        pytest.skip("no tomllib to read pyproject.toml and no gaussjn on PATH")

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"depth": 1, "coverage_points": 2000}), encoding="utf-8"
    )
    for name, command in commands.items():
        out = tmp_path / f"out-{name}"
        proc = subprocess.run(
            [*command, "covering", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        assert (out / "covering.json").is_file(), name
