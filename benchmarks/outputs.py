"""Output check: compare `wg` JSON payloads with the recorded reference payloads.

Only the scalars and the table are compared, never the config.  Integer
fields must match exactly, in value and type.  A float field must lie
within its tolerance: |got - ref| <= atol + rtol * |ref|.  Each tolerance
is no tighter than the error the code itself admits for that field, so an
exact change of algorithm passes and a wrong answer fails.
"""

import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

with open(REFERENCE) as _fh:
    _RECORDED = json.load(_fh)

# The largest error a main term of the recorded `approx` runs admits: its
# surface transform's quad_error + tail_estimate, times the factor
# N^(n-k) S psi / R that main_term applies (benchmarks/record.py).
_APPROX = (0.0, 2 * _RECORDED["approx_admitted_error"])

_FFT = (1e-6, 1e-9)  # whole-range FFT totals: roundoff grows with the transform length (2^22 here)

# "<command>.<scalar or column>": (rtol, atol).  A float field not listed must match exactly.
TOLERANCES = {
    # error_term = omega_hat - main_term, with omega_hat exact up to roundoff.
    # The reference and a correct change each admit at most _APPROX[1] / 2 per
    # main term, and these fields are maxima and medians of |error_term|.
    "approx.median_abs_err": _APPROX,
    "approx.max_abs_err": _APPROX,
    "approx.max_err_zero": _APPROX,
    "approx.max_err_at_zero": _APPROX,
    # R sums log weights over the solutions; the order of summation may change.
    "hua.R": (1e-10, 0.0),
    # The truncated singular series sums exact g-values; roundoff only.
    "hua.series_re": (1e-9, 0.0),
    # mu_inf is a surface transform at rel_tol=1e-6 whose quad_error + tail_estimate
    # is 2.4e-8 of its value at this commit; the ratios divide by it.
    "hua.mu_inf": (1e-5, 0.0),
    "hua.ratio": (1e-5, 0.0),
    "hua.median_ratio": (1e-5, 0.0),
    "hua.band_fraction": (1e-12, 0.0),
    "weyl.max_abs": _FFT,
    "weyl.final_max": _FFT,
    "delta-probe.norm": _FFT,
    "delta-probe.slope": (0.0, 1e-6),
    # The FFT and direct convolution paths agree to roundoff.
    "maximal.maximal_norm_p2": (1e-8, 1e-12),
    "maximal.maximal_norm_pinf": (1e-8, 1e-12),
    "maximal.norm_p2": (1e-8, 1e-12),
    "maximal.norm_pinf": (1e-8, 1e-12),
    # A maximum over sampled boxes of counts minus volumes; roundoff only.
    "equidist.discrepancy": (1e-9, 0.0),
}


# Integer flags that compare neighbouring rows of a float column.  A flag may
# differ from the reference only where two neighbours of the reference column
# lie within twice the column's tolerance, so that the order is not determined.
ORDER_FLAGS = {
    "approx.medians_non_increasing": "median_abs_err",
}


def reference_key(step: str, argv: list[str], program_seed: int) -> str:
    return f"{step}@{program_seed}" if "--seed" in argv else step


def load_reference() -> dict:
    return _RECORDED["payloads"]


def result_part(text: str) -> dict:
    """The checked part of a JSON payload: its scalars and its table."""
    doc = json.loads(text)
    return {"scalars": doc["scalars"], "table": doc["table"]}


def _compare_value(key: str, got, ref) -> str | None:
    if not isinstance(ref, float):
        if type(got) is not type(ref) or got != ref:
            return f"{key}: {got!r} != {ref!r}"
        return None
    if type(got) is not float:
        return f"{key}: {got!r} is not a float like {ref!r}"
    if math.isnan(ref) or math.isinf(ref) or math.isnan(got) or math.isinf(got):
        same = (math.isnan(got) and math.isnan(ref)) or got == ref
        return None if same else f"{key}: {got!r} != {ref!r}"
    rtol, atol = TOLERANCES.get(key, (0.0, 0.0))
    if abs(got - ref) > atol + rtol * abs(ref):
        return f"{key}: {got!r} differs from {ref!r} by more than rtol={rtol:g}, atol={atol:g}"
    return None


def _order_undetermined(command: str, column: str, table: dict) -> bool:
    if column not in table["columns"]:
        return False
    j = table["columns"].index(column)
    rtol, atol = TOLERANCES.get(f"{command}.{column}", (0.0, 0.0))
    col = [row[j] for row in table["rows"]]
    return any(abs(a - b) <= 2 * (atol + rtol * max(abs(a), abs(b))) for a, b in zip(col, col[1:]))


def compare(command: str, got: dict, ref: dict) -> list[str]:
    """Mismatches of `got` against `ref`, both as returned by result_part."""
    problems = []
    gs, rs = got["scalars"], ref["scalars"]
    if set(gs) != set(rs):
        problems.append(f"{command}: scalar names {sorted(gs)} != {sorted(rs)}")
    for name in sorted(set(gs) & set(rs)):
        key = f"{command}.{name}"
        if key in ORDER_FLAGS and _order_undetermined(command, ORDER_FLAGS[key], ref["table"]):
            continue
        problems.append(_compare_value(key, gs[name], rs[name]))
    gt, rt = got["table"], ref["table"]
    if gt["columns"] != rt["columns"]:
        problems.append(f"{command}: columns {gt['columns']} != {rt['columns']}")
    elif len(gt["rows"]) != len(rt["rows"]):
        problems.append(f"{command}: {len(gt['rows'])} rows != {len(rt['rows'])}")
    else:
        for i, (grow, rrow) in enumerate(zip(gt["rows"], rt["rows"])):
            if len(grow) != len(rrow):
                problems.append(f"{command}: row {i} has {len(grow)} cells != {len(rrow)}")
                continue
            for col, g, r in zip(rt["columns"], grow, rrow):
                msg = _compare_value(f"{command}.{col}", g, r)
                problems.append(f"{msg} (row {i})" if msg else None)
    return [p for p in problems if p]
