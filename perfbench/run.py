"""The gaussjn benchmark: certified computations against the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload forest-d1 --seed 1 --seconds 40 --trace 0

One client (this process) and one worker process per run, both fresh
interpreters, no threads.  The load is a closed loop: the client sends the
next op only after the worker answered the previous one.  The op list comes
from ``workloads.make_ops(workload, seed)``; the client cycles through it
until ``--seconds`` have passed (every op runs at least once), checks every
output against ``reference.json`` and the closed forms in ``check.py``, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``); ``attempted`` and ``failed`` count the ops of the list,
not their repeated executions.  Everything else -- environment stamp, per-op results,
the failed-op log -- goes to ``.perfbench_out/<workload>-seed<n>-trace<t>/``.

Metrics, per run:

* ``setup_s``: median over three fresh interpreters of ``import gaussjn.cli``
  plus ``kernels.warmup()``.
* ``op_p50_s`` / ``op_tail_s``: each op's latency is the median of its
  repetitions in the run (an op under 0.05 s runs up to four times a
  pass); over the list, the (nearest-rank) median and the
  highest percentile with at least ten ops beyond it.  A failed op ranks
  above every latency.
* ``certified_per_min``: the list's passed ops per minute of op time, each
  op at its median latency (the closed loop's throughput, without the
  client's checking time).
* ``certified_share``: the share of the list's ops that passed every time
  they ran (1 - fail share).
* ``peak_rss_mb``: the worker's peak resident memory.

A traced run (``--trace 1``) makes one pass in which every op runs twice,
untraced and traced, and reports the layer metrics of the traced pass
together with the tracing overhead (traced minus untraced op time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 2
TAIL_BEYOND = 10
MIN_OP_S = 0.05  # an op shorter than this runs again in the same pass...
MAX_REPS = 4  # ...up to this many times
NODE_CAP_MESSAGE = re.compile(r"refinement level (\d+) would need (\d+) tensor nodes")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "GAUSSJN_NO_NUMBA")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, dead worker)."""


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _worker_cmd(*extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *extra]


def probe_setup() -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(_worker_cmd("--probe"), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class WorkerProcess:
    """One worker interpreter driven over line-delimited JSON."""

    def __init__(self, out: Path, trace: bool) -> None:
        self.log = open(out / "worker.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            _worker_cmd("--out", str(out), "--trace", str(int(trace))),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}; see worker.log")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def ranked_latency(latencies: list[float], failed: list[bool], rank: int) -> float:
    """The latency at 0-based ``rank`` when failed ops rank above every latency.

    If the rank falls on a failed op the value is unbounded; the largest
    measured latency is returned then, as a lower bound.
    """
    is_failed, value = sorted((f, t) for t, f in zip(latencies, failed))[rank]
    return max(latencies) if is_failed else value


def median_latency(latencies: list[float], failed: list[bool]) -> float:
    """Nearest-rank median, failed ops ranked last."""
    return ranked_latency(latencies, failed, math.ceil(len(latencies) / 2) - 1)


def tail_latency(latencies: list[float], failed: list[bool]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    rank = max(0, len(latencies) - TAIL_BEYOND - 1)
    return ranked_latency(latencies, failed, rank), 100.0 * (rank + 1) / len(latencies)


def environment() -> dict:
    commit = None
    if shutil.which("git"):
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaussjn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def execute(worker: WorkerProcess, op: dict, traced: bool, out: Path, reference: dict,
            log: list) -> dict:
    reply = worker.request({"op": op, "traced": traced})
    verdict = check.judge(op, reply, out / "ops" / str(op["index"]), reference)
    result = dict(reply, traced=traced, **verdict)
    log.append(result)
    return result


def failed_op_entry(workload: str, op: dict, result: dict) -> dict:
    entry = {
        "workload": workload,
        "index": op["index"],
        "subcommand": op["call"],
        "config_digest": op["key"],
        "exit_code": result["rc"],
        "error": result["error"] or result["detail"],
    }
    if result["error"].startswith("run failed:"):
        entry["exception"] = result["error"].split(":", 2)[1].strip()
    elif result["rc"] != 0:
        entry["exception"] = "CheckFailed"
    else:
        entry["exception"] = "ReferenceMismatch"
    cap = NODE_CAP_MESSAGE.search(result["error"])
    if cap:
        entry["level"], entry["nodes"] = int(cap.group(1)), int(cap.group(2))
    if "last_call_nodes" in result:
        entry["last_call_nodes"] = result["last_call_nodes"]
    return entry


def run(workload: str, seed: int, seconds: float, trace: bool, ops: list[dict] | None = None,
        out: Path | None = None) -> dict:
    """One benchmark run; ``ops`` and ``out`` replace the generated list and
    the default output directory (the tests run tiny lists this way)."""
    if not (SRC / "gaussjn" / "cli.py").is_file():
        raise BenchError(f"no gaussjn sources under {SRC}")
    if ops is None:
        ops = workloads.make_ops(workload, seed)
    reference = load_reference()
    out = out or OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup = [probe_setup() for _ in range(SETUP_PROBES)]
    worker = WorkerProcess(out, trace)
    log: list[dict] = []
    try:
        setup.append(worker.ready["setup_s"])
        t_start = time.perf_counter()
        deadline = t_start + seconds
        passes_done = 0
        if trace:
            # alternate which of the pair runs first, so first-run costs
            # (page faults, lazy imports) do not bias the overhead
            for op in ops:
                for traced in (False, True) if op["index"] % 2 else (True, False):
                    execute(worker, op, traced, out, reference, log)
            passes_done = 1
        else:
            last: dict[int, float] = {}
            while True:
                for op in ops:
                    if passes_done and time.perf_counter() + last[op["index"]] > deadline:
                        break
                    # repeat a short op so its median rests on several samples
                    spent, reps = 0.0, 0
                    while spent < MIN_OP_S and reps < MAX_REPS:
                        spent += execute(worker, op, False, out, reference, log)["latency_s"]
                        reps += 1
                    last[op["index"]] = spent
                else:
                    passes_done += 1
                    continue
                break
        wall_s = time.perf_counter() - t_start
        finish = worker.request({"finish": True})
    finally:
        worker.close()

    by_op: dict[int, list[dict]] = {}
    for r in log:
        if not r["traced"]:
            by_op.setdefault(r["index"], []).append(r)
    latency = [statistics.median(r["latency_s"] for r in by_op[op["index"]]) for op in ops]
    op_failed = [any(r["failed"] for r in by_op[op["index"]]) for op in ops]
    tail, tail_pct = tail_latency(latency, op_failed)
    # an op is one entry of the list: its repetitions are samples of one
    # certified result, so attempted and failed count ops, which makes them
    # depend on the seed alone and not on how many passes fit the run
    attempted = len(ops)
    failed = op_failed.count(True)
    finite = [r["deviation"] for r in log if math.isfinite(r["deviation"])]

    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (median_latency(latency, op_failed), "s"),
        "op_tail_s": (tail, "s"),
        "certified_per_min": (60.0 * op_failed.count(False) / sum(latency), "1/min"),
        "certified_share": (op_failed.count(False) / len(ops), "share"),
        "peak_rss_mb": (finish["peak_rss_mb"], "MB"),
    }
    layers: dict[str, tuple[float, str]] = {}
    if trace:
        traced = sum(r["latency_s"] for r in log if r["traced"])
        untraced = sum(r["latency_s"] for r in log if not r["traced"])
        for name, value in finish["layers"].items():
            layers[name] = (value, "s" if name.endswith("_s") else "count")
        layers["cli.report_bytes"] = (float(sum(r["report_bytes"] for r in log if r["traced"])), "bytes")
        layers["kernels.bytes_computed"] = (layers["kernels.bytes_computed"][0], "bytes")
        layers["jnp.osc_per_cube"] = (layers["jnp.osc_per_cube"][0], "ratio")
        layers["trace.op_s"] = (traced, "s")
        layers["trace.untraced_op_s"] = (untraced, "s")
        layers["trace.overhead_s"] = (traced - untraced, "s")

    failed_ops = [failed_op_entry(workload, ops[r["index"]], r) for r in log if r["failed"]]
    wrong = [dict(index=r["index"], detail=r["detail"]) for r in log if r["wrong"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": dict(environment(), **{k: worker.ready[k] for k in
                                              ("backend", "python", "numpy", "scipy")}),
        "ops": len(ops),
        "passes": passes_done,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "executions": len(log),
        "failed_executions": sum(r["failed"] for r in log),
        "tail_percentile": tail_pct,
        "max_deviation": max(finite, default=0.0),
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layers}.items()},
        "failed_ops": failed_ops,
        "wrong_ops": wrong,
        "results": log,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_benchmark_spec()
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = record["metrics"]
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops':34s} {record['ops']} x {record['passes']} passes, {record['attempted']} attempted, "
          f"{record['failed']} failed, {record['executions']} executions, "
          f"tail = p{record['tail_percentile']:.0f} of {record['ops']}")
    print(f"{'max_deviation':34s} {record['max_deviation']:.3g} (relative, vs reference)")
    for entry in {e["index"]: e for e in record["failed_ops"]}.values():
        print(f"failed op {entry['index']} {entry['subcommand']} [{entry['config_digest']}] "
              f"exit {entry['exit_code']}: {entry['error'][:160]}")
    for entry in record["wrong_ops"]:
        print(f"WRONG op {entry['index']}: {entry['detail'][:200]}")
    final = {
        "correct": not record["wrong_ops"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
