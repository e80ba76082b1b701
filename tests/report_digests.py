"""Print a digest of every report the benchmark pools and the default configs write.

Run from anywhere, with the tree to check as the script's own checkout::

    python3 tests/report_digests.py > digests.txt

It takes no options.  It runs every op of ``perfbench/workloads.pool(w)``
for each of the three workloads, then each of the eight subcommands at the
d=1 default config, ``subdivide`` and ``duality`` at the d=2 and d=3 default
configs (``{"dimension": d}``), ``duality`` on the d=3 flat fields and
``duality`` at d=1 on all seven corpus fields, all in-process through
``gaussjn.cli.main``.  A
``make_candidates`` op calls the library, as the benchmark does, and prints
its node and root counts and a sha256 of the forest's ``centers``,
``sides`` and ``parent`` bytes instead of report files.  Each op prints one line
with its exit code and first error line, then one line per report file with
the file's sha256.  Two trees therefore write byte-identical reports and
bit-identical forests, with the same exit codes and error lines, exactly
when ``diff`` of their outputs is empty.  A JSON report that is not
``json.dumps(json.loads(text), sort_keys=True, indent=2)`` plus a newline
gets one more line, which names it.

The script reads ``perfbench/`` and writes nothing there (no bytecode
either).  Reports go to a temporary directory that is removed at the end;
it runs there and names every output directory relative to it, because the
reports record the config, ``out_dir`` included.  pytest does not collect
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

from gaussjn import cli, covering, fields, jnp  # noqa: E402


# (subcommand, tag, config) beyond the pools and the d=1 defaults
EXTRA_OPS = [
    *((call, f"d{d}", {"dimension": d}) for call in ("subdivide", "duality") for d in (2, 3)),
    ("duality", "d3-flat", {"dimension": 3, "fields": ["coord0", "sign0", "step0"]}),
    ("duality", "d1-corpus", {"dimension": 1, "fields": [f.id for f in fields.corpus(1)]}),
]


def _first_error(text: str) -> str:
    """The line the benchmark records for a failed op."""
    for line in text.splitlines():
        if line.startswith("run failed:") or line.startswith("[FAIL]"):
            return line
    return text.strip().splitlines()[0] if text.strip() else ""


def _run_cli(argv: list[str]) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        rc = cli.main(argv)
    return rc, captured.getvalue()


def _digests(report_dir: Path) -> list[str]:
    if not report_dir.is_dir():
        return []
    lines = []
    for p in sorted(report_dir.iterdir()):
        data = p.read_bytes()
        lines.append(f"  {p.name} {hashlib.sha256(data).hexdigest()}")
        if p.suffix == ".json":
            text = data.decode("utf-8")
            if text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
                lines.append(f"  {p.name} is not json.dumps of its own parse")
    return lines


def _op_lines(op: dict, op_dir: Path) -> list[str]:
    cfg = op["config"]
    if op["call"] == "make_candidates":
        cov = covering.build_covering(cfg["depth"], cfg["dimension"])
        cands = jnp.make_candidates(cov, cfg["candidate_depth"])
        forest = hashlib.sha256()
        for a in (cands.centers, cands.sides, cands.parent.astype(np.int64)):
            forest.update(np.ascontiguousarray(a).tobytes())
        return [
            f"  candidates {cands.node_count()} roots {len(cands.roots)}",
            f"  forest {forest.hexdigest()}",
        ]
    report = op_dir / "report"
    cfg_path = op_dir / "config.json"
    cfg_path.write_text(json.dumps(dict(cfg, out_dir=str(report))))
    rc, text = _run_cli([op["call"], "--config", str(cfg_path), "--verbosity", "0"])
    error = "" if rc == 0 else _first_error(text)
    return [f"  rc {rc} error {error!r}", *_digests(report)]


def main() -> int:
    # cli.main configures logging on its first call; bind it to the real
    # stderr first, so it never writes into one op's captured output
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        os.chdir(tmp)
        try:
            for name in workloads.WORKLOADS:
                for k, op in enumerate(workloads.pool(name)):
                    op_dir = Path(name) / str(k)
                    op_dir.mkdir(parents=True)
                    print(f"{name} {workloads.op_key(op)} {op['call']}", flush=True)
                    print("\n".join(_op_lines(op, op_dir)), flush=True)
            for sub in cli.SUBCOMMANDS:
                report = Path("defaults") / sub
                rc, text = _run_cli([sub, "--out", str(report), "--verbosity", "0"])
                error = "" if rc == 0 else _first_error(text)
                print(f"defaults d=1 {sub}", flush=True)
                print("\n".join([f"  rc {rc} error {error!r}", *_digests(report)]), flush=True)
            for call, tag, cfg in EXTRA_OPS:
                op_dir = Path("defaults") / f"{call}-{tag}"
                op_dir.mkdir(parents=True)
                print(f"defaults {op_dir.name}", flush=True)
                print("\n".join(_op_lines({"call": call, "config": cfg}, op_dir)), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
