"""Correctness of op outputs: headline values, reference data, closed forms.

``headline(op, report)`` returns the numbers that summarise the report an
op wrote.  ``judge`` compares them with the values and verdict recorded for
the same op in ``reference.json`` and, for fields with exact moments, with a
closed form computed here from ``scipy.special`` (independent of the
package's own error-function code).

The tolerance is set from the op's quadrature ``abs_tol``: a certified
average is accepted when two refinement levels agree within ``abs_tol``,
and headline values combine a few hundred such averages through powers
and sums, so a deviation up to ``TOL_FACTOR * abs_tol`` (relative to
max(1, |reference|)) is numerical noise; beyond it the op failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL_FACTOR = 1000.0
DEFAULT_ABS_TOL = 1e-9  # QuadratureSpec default

# step fields with exact moments: (edge on axis 0, value left, value right)
STEP_FIELDS = {"sign0": (0.0, -1.0, 1.0), "step0": (0.3, 0.0, 1.0), "const_one": (0.0, 1.0, 1.0)}


def tolerance(op: dict) -> float:
    abs_tol = op["config"].get("quadrature", {}).get("abs_tol", DEFAULT_ABS_TOL)
    return TOL_FACTOR * abs_tol


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def load_report(op: dict, op_dir: Path) -> dict | None:
    """The JSON an op wrote: its subcommand report, or the library call's values."""
    if op["call"] == "make_candidates":
        return _load(op_dir / "values.json")
    return _load(op_dir / "report" / f"{op['call']}.json")


def headline(op: dict, rep: dict | None) -> dict[str, float] | None:
    """The summary numbers of one op's report, or None when it wrote none."""
    call = op["call"]
    if rep is None or call == "make_candidates":
        return None if rep is None else {k: float(v) for k, v in rep.items()}
    out: dict[str, float] = {"ok": float(bool(rep["ok"]))}
    if call == "jnp":
        est = rep["estimates"][0]
        out.update(value=est["value"], family=len(est["family"]), candidates=est["candidates"])
    elif call == "bmo":
        est = rep["estimates"][0]
        out.update(value=est["value"], l1_term=est["l1_term"], sup_term=est["sup_term"],
                   jnp=est["jnp"]["value"])
    elif call == "p-scan":
        for p, v in zip(rep["scans"][0]["p_grid"], rep["scans"][0]["values"]):
            out[f"value@{p}"] = v
    elif call == "jn-tail":
        if rep["sweeps"]:
            sweep = rep["sweeps"][0]
            out["khat"] = sweep["khat"]
            if sweep["c_estimate"] is not None:
                out["c_estimate"] = sweep["c_estimate"]
    elif call == "covering":
        r = rep["report"]
        out.update(cube_count=r["cube_count"], covered_fraction=r["covered_fraction"],
                   max_overlap=r["max_overlap"], plateau=float(r["cardinality_sup_plateau"]))
    elif call == "embed":
        out.update(worst_ratio=rep["worst_ratio"], failures=rep["failures"],
                   comparisons=rep["comparisons"])
    elif call == "subdivide":
        r = rep["results"][0]
        out.update(atom_count=r["atom_count"], max_depth=r["max_depth"],
                   residual=r["reconstruction_residual"], worst_mean=r["worst_mean"])
    elif call == "duality":
        r = rep["results"][0]
        out.update(lhs=r["duality"]["aggregated_lhs"], rhs=r["duality"]["aggregated_rhs"],
                   khat=r["duality"]["khat_family"], polymer_norm=r["polymer_norm"])
        if r["pairing"]["value"] is not None:
            out["pairing"] = r["pairing"]["value"]
    return {k: float(v) for k, v in out.items()}


def _gauss1d(a: float, b: float) -> float:
    from scipy.special import erf, erfc

    if a >= 0.0:
        return 0.5 * (erfc(a) - erfc(b))
    if b <= 0.0:
        return 0.5 * (erfc(-b) - erfc(-a))
    return 0.5 * (erf(b) - erf(a))


def step_family_value(field: str, family: list[dict], p: float, q: float) -> float:
    """(sum over the family of gamma(Q) osc_q(f, Q)^p)^(1/p) for a step field."""
    edge, left, right = STEP_FIELDS[field]
    total = 0.0
    for cube in family:
        h = 0.5 * cube["side"]
        lo = [c - h for c in cube["center"]]
        hi = [c + h for c in cube["center"]]
        gamma = math.prod(_gauss1d(a, b) for a, b in zip(lo, hi))
        m_left = _gauss1d(lo[0], min(hi[0], max(lo[0], edge)))
        share = 1.0 - m_left / _gauss1d(lo[0], hi[0])  # mass share right of the edge
        jump = abs(right - left)
        osc_q = (1.0 - share) * (share * jump) ** q + share * ((1.0 - share) * jump) ** q
        total += gamma * osc_q ** (p / q)
    return total ** (1.0 / p)


def closed_form(op: dict, rep: dict) -> dict[str, float]:
    """Values with an exact formula: JN sums of step fields over the reported family."""
    call = op["call"]
    field = op["config"].get("fields", [None])[0]
    if call not in ("jnp", "bmo") or field not in STEP_FIELDS:
        return {}
    est = rep["estimates"][0] if call == "jnp" else rep["estimates"][0]["jnp"]
    value = step_family_value(field, est["family"], est["p"], est["q"])
    return {"value" if call == "jnp" else "jnp": value}


def _deviation(got: float, want: float) -> float:
    if math.isnan(got) or math.isnan(want):
        return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
    return float(abs(got - want) / max(1.0, abs(want)))


def judge(op: dict, reply: dict, op_dir: Path, reference: dict) -> dict:
    """Verdict of one op execution against the reference and closed forms.

    Returns {"failed", "wrong", "deviation", "detail"}: ``failed`` when the
    op raised, exited nonzero or deviated past tolerance; ``wrong`` when its
    output disagrees with the reference (a deviation, a verdict that was
    passing and now fails, or an op the reference does not know).
    """
    ref = reference.get(op["key"])
    tol = tolerance(op)
    rep = load_report(op, op_dir) if reply["rc"] == 0 else None
    values = headline(op, rep)
    deviation = 0.0
    detail = []
    if reply["rc"] == 0 and values is None:
        detail.append("no report")
        deviation = math.inf
    if values is not None:
        exact = closed_form(op, rep)
        for name, want in exact.items():
            dev = _deviation(values[name], want)
            deviation = max(deviation, dev)
            if dev > tol:
                detail.append(f"{name} {values[name]!r} vs closed form {want!r}")
        if ref is not None and ref["rc"] == 0:
            for name, want in ref["values"].items():
                dev = _deviation(values.get(name, math.nan), want)
                deviation = max(deviation, dev)
                if dev > tol:
                    detail.append(f"{name} {values.get(name)!r} vs reference {want!r}")
    wrong = bool(detail) or ref is None or (ref["rc"] == 0 and reply["rc"] != 0)
    if ref is None:
        detail.append("op missing from reference data")
    elif ref["rc"] == 0 and reply["rc"] != 0:
        detail.append(f"passed in reference, now exit {reply['rc']}")
    return {
        "failed": bool(reply["rc"] != 0 or deviation > tol),
        "wrong": wrong,
        "deviation": deviation,
        "detail": "; ".join(detail),
    }
