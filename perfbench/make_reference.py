"""Record the reference data: every op a workload can generate, run once.

    python3 perfbench/make_reference.py [workload ...]

For each op in ``workloads.pool(workload)`` this stores the exit code, the
first error line and the headline values (``check.headline``) in
``perfbench/reference.json``, keyed by ``workloads.op_key``.  Entries of
workloads not named on the command line are kept.  Run it only to record
the numbers of a commit whose outputs are trusted; the benchmark then
judges every later run against them.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import workloads


def record(workload: str) -> dict:
    out = run.OUT / f"reference-{workload}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    entries = {}
    worker = run.WorkerProcess(out, trace=False)
    try:
        for i, op in enumerate(workloads.pool(workload)):
            op = dict(op, index=i, key=workloads.op_key(op))
            reply = worker.request({"op": op, "traced": False})
            rep = check.load_report(op, out / "ops" / str(i)) if reply["rc"] == 0 else None
            values = check.headline(op, rep)
            entries[op["key"]] = {
                "workload": workload,
                "call": op["call"],
                "config": op["config"],
                "rc": reply["rc"],
                "error": reply["error"],
                "values": values or {},
            }
            print(f"{workload} {i} {op['call']} rc={reply['rc']} {reply['latency_s']:.2f}s "
                  f"{reply['error'][:100]}", flush=True)
    finally:
        worker.close()
    return entries


def main(names: list[str]) -> int:
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for workload in names or workloads.WORKLOADS:
        reference = {k: v for k, v in reference.items() if v["workload"] != workload}
        reference.update(record(workload))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)  # a run starting meanwhile reads the old or the new file, never half
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
