"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(HERE), "..", "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from hfbgas import cli, diagnostics, hartree, hfb  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_validates(name):
    cfg = workloads.config(name, seed=7)
    assert cfg["seed"] == 7
    assert cli.validate_config(cfg) is cfg


def _bindings():
    return {(mod, key): value
            for mod in [m for n, m in sys.modules.items() if n.startswith("hfbgas")]
            for key, value in vars(mod).items() if callable(value)}


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _bindings()
    convolve = hartree.InteractionSpec.__dict__["convolve"]
    t = tracer.Tracer("test")
    t.install()
    try:
        # names re-bound in other modules get the same wrapper
        assert cli.hfb_energy is hfb.hfb_energy is not before[(hfb, "hfb_energy")]
        assert diagnostics.free_conjugate is hfb.free_conjugate
        assert hfb.free_conjugate is not before[(hfb, "free_conjugate")]
        assert hartree.InteractionSpec.__dict__["convolve"] is not convolve
    finally:
        t.uninstall()
    assert _bindings() == before
    assert hartree.InteractionSpec.__dict__["convolve"] is convolve


def test_self_time_of_synthetic_spans():
    # root [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3]
    spans = [["root", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
             ["c", 5.0, 6.0, 0], ["d", 2.0, 3.0, 1]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    calls, busy = tracer.layer_totals(spans + [["c", 7.0, 7.5, 0]])
    assert calls == {"root": 1, "b": 1, "c": 2, "d": 1}
    assert busy["root"] == 5.5 and busy["c"] == 1.5


def test_nested_calls_record_parents_and_self_time():
    pkg = types.ModuleType("fakepkg")

    def inner(x):
        return x + 1

    def outer(x):
        return pkg.inner(x) + pkg.inner(x)

    pkg.inner, pkg.outer = inner, outer
    sys.modules["fakepkg"] = pkg
    try:
        t = tracer.Tracer("nested", package="fakepkg",
                          observe={"fakepkg.outer": lambda r: r * 10})
        t.install([("fakepkg", "outer"), ("fakepkg", "inner")])
        assert pkg.outer(1) == 4
        t.uninstall()
    finally:
        del sys.modules["fakepkg"]
    assert pkg.outer is outer and pkg.inner is inner
    assert [(s[0], s[3]) for s in t.spans] == [
        ("fakepkg.outer", -1), ("fakepkg.inner", 0), ("fakepkg.inner", 0)]
    own = tracer.self_times(t.spans)
    root = t.spans[0][2] - t.spans[0][1]
    assert sum(own) == pytest.approx(root)
    assert all(x >= 0 for x in own)
    assert t.observed == {"fakepkg.outer": [40]}


def test_check_summary_catches_wrong_outputs():
    summary = {"number_initial": 100.0, "energy_initial": 85.0,
               "number_rel_drift": 1e-15, "energy_rel_drift": 1e-8}
    ref = workloads.reference_values(summary)
    assert workloads.check_summary(summary, ref) == []
    bad = dict(summary, energy_initial=85.0 * (1 + 1e-6), number_rel_drift=1e-9)
    assert len(workloads.check_summary(bad, ref)) == 2
    sweep = {"slope_flag": True,
             "rows": [{"N": 200.0, "ratio_gamma_max": 0.01}]}
    wrong = copy.deepcopy(sweep)
    wrong["rows"][0]["ratio_gamma_max"] = 0.011
    wrong["slope_flag"] = False
    assert workloads.check_summary(sweep, workloads.reference_values(sweep)) == []
    assert len(workloads.check_summary(wrong, workloads.reference_values(sweep))) == 2


def test_predictions_flag_a_missed_binding():
    busy = workloads.BUSY["modes_1d"]
    calls = {fn: 1 for fn in busy}
    assert workloads.check_predictions("modes_1d", calls, coverage=0.99) == []
    calls["hfb.step_modes"] = 0
    calls["hfb.step_dense"] = 3
    problems = workloads.check_predictions("modes_1d", calls, coverage=0.5)
    assert len(problems) == 3


def test_every_traced_function_is_predicted_busy_or_idle():
    spans = {tracer.span_name(m, a) for m, a in tracer.LAYERS} - {tracer.ROOT_SPAN}
    for name in workloads.WORKLOADS:
        busy, idle = set(workloads.BUSY[name]), set(workloads.idle(name))
        assert busy <= spans and not busy & idle and busy | idle == spans
