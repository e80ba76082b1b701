"""Benchmark worker: runs ops against the gaussjn public API, one at a time.

Started by ``run.py`` as a fresh interpreter, so each run pays the import
and lazy-cache cost a command-line user pays.  It reads one JSON request per
line on stdin and answers one JSON line on stdout:

* ``{"op": {...}, "traced": bool}`` runs one op and reports its exit code,
  latency, error line and report size;
* ``{"finish": true}`` reports peak memory and, in a traced run, the layer
  metrics, and writes the spans out.

With ``--probe`` it only measures set-up (import plus kernel warm-up) and
exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import resource
import shutil
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()


def _first_error(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("run failed:") or line.startswith("[FAIL]"):
            return line
    return text.strip().splitlines()[0] if text.strip() else ""


class Worker:
    def __init__(self, out: Path, tracer) -> None:
        import gaussjn.cli as cli
        from gaussjn import covering, jnp

        self.cli = cli
        self.covering = covering
        self.jnp = jnp
        self.out = out
        self.tracer = tracer
        self.candidates = None  # result of the last make_candidates op

    def _prepare(self, op: dict):
        """Write the op's inputs and return the call to time; it returns
        (exit code, captured output)."""
        op_dir = self.out / "ops" / str(op["index"])
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        cfg = op["config"]
        if op["call"] == "make_candidates":
            def call() -> tuple[int, str]:
                # the covering is part of the op: make_candidates thins it first-fit
                cov = self.covering.build_covering(cfg["depth"], cfg["dimension"])
                self.candidates = self.jnp.make_candidates(cov, cfg["candidate_depth"])
                return 0, ""

            return call
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(dict(cfg, out_dir=str(op_dir / "report"))))
        argv = [op["call"], "--config", str(cfg_path), "--verbosity", "0"]

        def call() -> tuple[int, str]:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = self.cli.main(argv)
            return rc, captured.getvalue()

        return call

    def run(self, op: dict, traced: bool) -> dict:
        call = self._prepare(op)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.op_id = op["index"]
            call = tracer.root(call)
            tracer.install()
        error = ""
        t0 = time.perf_counter()
        try:
            rc, text = call()
            error = "" if rc == 0 else _first_error(text)
        except Exception as exc:  # a library-call op that raises is a failed op
            rc = 1
            error = f"run failed: {type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if self.candidates is not None:
            values = {"candidates": self.candidates.node_count(), "roots": len(self.candidates.roots)}
            (self.out / "ops" / str(op["index"]) / "values.json").write_text(json.dumps(values))
            self.candidates = None
        report_dir = self.out / "ops" / str(op["index"]) / "report"
        report_bytes = sum(p.stat().st_size for p in report_dir.glob("*")) if report_dir.is_dir() else 0
        reply = {"index": op["index"], "rc": rc, "latency_s": latency, "error": error,
                 "report_bytes": report_bytes}
        if tracer is not None:
            reply["last_call_nodes"] = tracer.last_call_nodes
        return reply


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import gaussjn.cli  # noqa: F401  (set-up: the import a CLI user pays)
    from gaussjn import kernels

    kernels.warmup()
    setup_s = time.perf_counter() - _T0
    ready = {"setup_s": setup_s, "backend": kernels.BACKEND}
    if args.probe:
        print(json.dumps(ready), flush=True)
        return 0

    import numpy
    import scipy

    ready.update(numpy=numpy.__version__, scipy=scipy.__version__, python=sys.version.split()[0])
    # cli.main configures logging on its first call; bind it to the real
    # stderr now so it never captures one op's redirected stream
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.prepare()
    worker = Worker(Path(args.out), tracer)
    proto = sys.stdout
    print(json.dumps(ready), file=proto, flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("finish"):
            reply = {"peak_rss_mb": _peak_rss_mb()}
            if tracer is not None:
                reply["layers"] = tracer.layer_metrics()
                tracer.write(Path(args.out) / "spans.npz")
            print(json.dumps(reply), file=proto, flush=True)
            return 0
        print(json.dumps(worker.run(req["op"], req.get("traced", False))), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
