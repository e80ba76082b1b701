"""Span recorder wrapped around the public functions of every gaussjn module.

Tracing is done from outside the package: ``Tracer.install`` replaces each
target function in every ``gaussjn`` module namespace that binds it by
name, and ``Tracer.uninstall`` puts the originals back, so untraced ops run
the unmodified code.  Each call records a span (name, start, end, parent
span, op id) into compact in-memory arrays; the arrays are written out
once, when the run ends.  A span's self time is its duration minus the
durations of its direct children.

Counts are taken at the same boundaries from the arguments and results the
functions receive and return (array sizes, cube counts, field evaluation
points), so they depend only on the op list, never on the machine.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench.op"
FIELD_EVAL_SPAN = "fields.eval"

# (module, function, span group).  A group is "<layer>.<name>"; the layer
# is the gaussjn module the function belongs to.
TARGETS = (
    ("kernels", "erf", "kernels.erf"),
    ("kernels", "erfc", "kernels.erf"),
    ("kernels", "pairwise_sum", "kernels.reduce"),
    ("kernels", "weighted_sum", "kernels.reduce"),
    ("kernels", "tail_sums", "kernels.tail_sums"),
    ("kernels", "count_membership", "kernels.count_membership"),
    ("geometry", "gaussian_measure", "geometry.gaussian_measure"),
    ("geometry", "cubes_disjoint", "geometry.cubes_disjoint"),
    ("covering", "build_covering", "covering.build_covering"),
    ("covering", "coverage_report", "covering.coverage_report"),
    ("fields", "average_gamma", "fields.average_gamma"),
    ("fields", "oscillation", "fields.oscillation"),
    ("fields", "tail_profile", "fields.tail_profile"),
    ("fields", "corpus", "fields.other"),
    ("fields", "gauss_average", "fields.other"),
    ("fields", "l1_gamma_norm", "fields.other"),
    ("fields", "lq_norm", "fields.other"),
    ("fields", "weak_lp_norm", "fields.other"),
    ("fields", "make_random_step", "fields.other"),
    ("fields", "step_lq_norm", "fields.other"),
    ("fields", "step_weak_lp_norm", "fields.other"),
    ("jnp", "make_candidates", "jnp.make_candidates"),
    ("jnp", "max_weight_antichain", "jnp.antichain"),
    ("jnp", "maximize_jnp", "jnp.other"),
    ("jnp", "bmo_norm_estimate", "jnp.other"),
    ("jnp", "p_limit_scan", "jnp.other"),
    ("jnp", "tail_fit_sweep", "jnp.other"),
    ("jnp", "jn_tail_fit", "jnp.other"),
    ("jnp", "validate_family", "jnp.other"),
    ("jnp", "jnp_sum", "jnp.other"),
    ("hardy", "subdivide_atom", "hardy.subdivide_atom"),
    ("hardy", "duality_check", "hardy.duality_check"),
    ("hardy", "pairing", "hardy.pairing"),
    ("hardy", "make_atom", "hardy.other"),
    ("hardy", "make_polymer", "hardy.other"),
    ("hardy", "polymer_norm", "hardy.other"),
    ("hardy", "polymer_lp_norm", "hardy.other"),
    ("hardy", "pairing_direct", "hardy.other"),
    ("hardy", "holder_check", "hardy.other"),
    ("hardy", "hardy_norm_upper", "hardy.other"),
    ("hardy", "min_centered_oscillation", "hardy.other"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("kernels", "geometry", "covering", "fields", "jnp", "hardy", "cli", "bench")


def _nbytes(*arrays) -> int:
    return sum(int(np.asarray(a).nbytes) for a in arrays)


class Tracer:
    """In-memory span store plus the counters measured at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.max_call_nodes = 0
        self.last_call_nodes = 0
        self._osc_keys: set = set()
        self._errors: list = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, group: str, fn, count=None):
        """fn with a span around every call; ``count`` sees (args, kwargs, result)."""
        nid = self._name_id(group)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "QuadratureError" and not any(
                    exc is seen for seen in tracer._errors
                ):
                    tracer._errors.append(exc)
                    tracer.counts["fields.quadrature_errors"] += 1
                raise
            finally:
                tracer._stack.pop()
                tracer.end[idx] = clock()
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def _count_erf(self, args, kwargs, result) -> None:
        self.counts["kernels.erf.calls"] += 1
        self.counts["kernels.bytes_computed"] += 8

    def _count_reduce(self, args, kwargs, result) -> None:
        self.counts["kernels.reduce.elems"] += int(np.size(args[0]))
        self.counts["kernels.bytes_computed"] += _nbytes(*args)

    def _count_tail_sums(self, args, kwargs, result) -> None:
        abs_values, weights, sigmas = args[:3]
        self.counts["kernels.tail_sums.elems"] += int(np.size(abs_values)) * int(np.size(sigmas))
        self.counts["kernels.bytes_computed"] += _nbytes(abs_values, weights, sigmas)

    def _count_membership(self, args, kwargs, result) -> None:
        points, lo, hi = args[:3]
        self.counts["kernels.count_membership.pairs"] += len(points) * len(lo)
        self.counts["kernels.bytes_computed"] += _nbytes(points, lo, hi)

    def _count_calls(self, key: str):
        def count(args, kwargs, result) -> None:
            self.counts[key] += 1

        return count

    def _count_covering(self, args, kwargs, result) -> None:
        self.counts["covering.cubes"] += result.cube_count()

    def _count_coverage(self, args, kwargs, result) -> None:
        self.counts["covering.coverage_points"] += int(result["n_points"])

    def _count_candidates(self, args, kwargs, result) -> None:
        self.counts["jnp.candidates"] += result.node_count()

    def _count_oscillation(self, args, kwargs, result) -> None:
        f, cube, q = args[:3]
        self.counts["fields.oscillation.calls"] += 1
        self._osc_keys.add((self.op_id, f.id, float(q), cube.center, cube.side))

    def _count_atoms(self, args, kwargs, result) -> None:
        self.counts["hardy.atoms_out"] += len(result.atoms)

    def _count_pairing(self, args, kwargs, result) -> None:
        self.counts["hardy.pairing.levels"] += len(result.levels)

    def _wrap_corpus(self, args, kwargs, result) -> None:
        # corpus(d) builds fresh field objects on every call, so their
        # evaluators can be wrapped in place
        for f in result:
            f.fn = self._field_eval(f.fn)

    def _field_eval(self, fn):
        def count(args, kwargs, result) -> None:
            n = int(args[0].shape[0])
            self.counts["fields.base_evals"] += n
            self.last_call_nodes = n
            self.max_call_nodes = max(self.max_call_nodes, n)

        return self.wrap(FIELD_EVAL_SPAN, fn, count)

    def _counter_for(self, group: str, func: str):
        return {
            "kernels.erf": self._count_erf,
            "kernels.reduce": self._count_reduce,
            "kernels.tail_sums": self._count_tail_sums,
            "kernels.count_membership": self._count_membership,
            "geometry.gaussian_measure": self._count_calls("geometry.gaussian_measure.calls"),
            "geometry.cubes_disjoint": self._count_calls("geometry.cubes_disjoint.calls"),
            "covering.build_covering": self._count_covering,
            "covering.coverage_report": self._count_coverage,
            "fields.average_gamma": self._count_calls("fields.average_gamma.calls"),
            "fields.oscillation": self._count_oscillation,
            "fields.tail_profile": self._count_calls("fields.tail_profile.calls"),
            "jnp.make_candidates": self._count_candidates,
            "hardy.subdivide_atom": self._count_atoms,
            "hardy.pairing": self._count_pairing,
        }.get(group, self._wrap_corpus if func == "corpus" else None)

    # -- installation ------------------------------------------------------

    def prepare(self) -> None:
        """Wrap each target and find every gaussjn namespace binding its name.

        Call after gaussjn is imported.  Only bindings under the target's own
        name count, so internal aliases (``pairwise_sum_numpy`` behind
        ``pairwise_sum``) stay unwrapped and nothing is counted twice.
        """
        modules = [m for n, m in sys.modules.items() if n == "gaussjn" or n.startswith("gaussjn.")]
        for module, func, group in TARGETS:
            original = getattr(sys.modules[f"gaussjn.{module}"], func)
            wrapped = self.wrap(group, original, self._counter_for(group, func))
            for mod in modules:
                if vars(mod).get(func) is original:
                    self._bindings.append((mod, func, original, wrapped))

    def install(self) -> None:
        for mod, attr, _original, wrapped in self._bindings:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapped in self._bindings:
            setattr(mod, attr, original)

    def root(self, fn):
        """The op itself as the root span of everything it calls."""
        return self.wrap(ROOT_SPAN, fn)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span group."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, named as in BENCHMARK.json."""
        own = self.self_times()
        out: dict[str, float] = {}
        for group in (
            "kernels.erf", "kernels.reduce", "kernels.tail_sums", "kernels.count_membership",
            "geometry.gaussian_measure", "geometry.cubes_disjoint",
            "covering.build_covering", "covering.coverage_report",
            "fields.average_gamma", "fields.oscillation", "fields.tail_profile", FIELD_EVAL_SPAN,
            "jnp.make_candidates", "jnp.antichain",
            "hardy.subdivide_atom", "hardy.duality_check", "hardy.pairing",
        ):
            out[f"{group}.self_s"] = own.get(group, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for g, t in own.items() if g.split(".")[0] == layer)
        for key in (
            "kernels.erf.calls", "kernels.reduce.elems", "kernels.tail_sums.elems",
            "kernels.count_membership.pairs", "kernels.bytes_computed",
            "geometry.gaussian_measure.calls", "geometry.cubes_disjoint.calls",
            "covering.cubes", "covering.coverage_points",
            "fields.base_evals", "fields.quadrature_errors", "fields.average_gamma.calls",
            "fields.oscillation.calls", "fields.tail_profile.calls",
            "jnp.candidates", "hardy.atoms_out", "hardy.pairing.levels",
        ):
            out[key] = float(self.counts[key])
        out["fields.max_call_nodes"] = float(self.max_call_nodes)
        calls = self.counts["fields.oscillation.calls"]
        out["jnp.osc_per_cube"] = calls / len(self._osc_keys) if self._osc_keys else 0.0
        out["trace.self_sum_s"] = float(sum(own.values()))
        return out

    def write(self, path: Path) -> None:
        """All spans, as arrays, plus the name table."""
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )
