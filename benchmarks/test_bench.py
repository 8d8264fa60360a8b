"""Self-checks of the benchmark's own code.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import sys
import types

import pytest

import outputs
import run
import spans
from spans import Span


def test_self_time_on_nested_trace():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping (two threads),
    # grandchild c [2, 3] under a, and a recursive a2 [1.5, 2] under c.
    trace = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("a", 2.2, 2.6, 3, 0),
        Span("root", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 3.0, 0.6, 0.4, 1.0])
    totals = spans.layer_totals(trace)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(3.0)  # the nested a lies inside the outer a
    assert totals["a"]["self_s"] == pytest.approx(2.4)
    assert totals["root"]["first_s"] == pytest.approx(10.0)
    assert spans.layer_totals(trace, cmd=1) == {"root": pytest.approx({"calls": 1, "s": 1.0, "self_s": 1.0, "first_s": 1.0})}


def test_install_rebinds_imported_names_and_reports_absent(monkeypatch):
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    home.leaf = leaf
    user.leaf = leaf  # "from .home import leaf"
    exec("def outer(x):\n    return leaf(x) * 2\n", user.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    tracer = spans.Tracer()
    tracer.install("fakepkg", layers=("user.outer", "home.leaf", "home.gone"))
    assert user.outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("user.outer", -1), ("home.leaf", 0)]
    assert home.leaf is user.leaf is not leaf
    assert tracer.absent == ["home.gone"]


def _payload():
    return {
        "scalars": {"discrepancy": 0.180811971587684, "n_points": 12600},
        "table": {"columns": ["lambda", "norm_p2"], "rows": [[628, 18.9213755598707], [77, 1.5]]},
    }


def test_checker_accepts_reference_and_roundoff():
    got = _payload()
    got["table"]["rows"][0][1] *= 1 + 1e-12
    assert outputs.compare("maximal", got, _payload()) == []


def test_checker_rejects_perturbed_float():
    got = _payload()
    got["scalars"]["discrepancy"] += 1e-6
    assert len(outputs.compare("equidist", got, _payload())) == 1


def test_checker_rejects_changed_integer():
    got = _payload()
    got["scalars"]["n_points"] += 1
    assert len(outputs.compare("equidist", got, _payload())) == 1
    got = _payload()
    got["table"]["rows"][0][0] = 628.0  # right value, wrong type
    assert len(outputs.compare("maximal", got, _payload())) == 1


def test_checker_rejects_missing_row_and_scalar():
    got = _payload()
    del got["table"]["rows"][1]
    assert len(outputs.compare("maximal", got, _payload())) == 1
    got = _payload()
    del got["scalars"]["n_points"]
    assert len(outputs.compare("equidist", got, _payload())) == 1


def test_check_counts_each_failed_step_once():
    refs = {"hua-write": _payload(), "hua-read": _payload()}
    text = json.dumps({"config": {}, **_payload()})
    step = {"name": "hua-write", "argv": ["hua"], "rc": 0, "error": None, "payload": text}
    ok = {"steps": [step, dict(step, name="hua-read")]}
    assert run._check(ok, refs, 0) == []
    differs = {"steps": [step, dict(step, name="hua-read", payload=text.replace("12600", "12601"))]}
    assert len(run._check(differs, refs, 0)) == 1
    raised = {"steps": [dict(step, rc=None, error="ValueError: x"), dict(step, name="hua-read")]}
    assert len(run._check(raised, refs, 0)) == 1


def test_order_flag_may_flip_only_when_the_reference_order_is_undetermined():
    _, atol = outputs.TOLERANCES["approx.median_abs_err"]
    ref = {"scalars": {"medians_non_increasing": 1},
           "table": {"columns": ["median_abs_err"], "rows": [[0.1], [0.1 - 3 * atol]]}}
    got = {"scalars": {"medians_non_increasing": 0}, "table": ref["table"]}
    assert len(outputs.compare("approx", got, ref)) == 1
    ref["table"] = got["table"] = {"columns": ["median_abs_err"], "rows": [[0.1], [0.1 - atol]]}
    assert outputs.compare("approx", got, ref) == []

