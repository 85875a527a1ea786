import sys

import numpy as np
import pytest

import harness
from tracer import HOOK_SPAN, ROOT_PARENT, Tracer, self_times


def _bindings():
    """Every name bound in a qcircle module, the suite registry and the
    LaurentPoly call slot, mapped to the identity of its value."""
    import qcircle.circle
    import qcircle.suites
    snap = {}
    for name, module in sys.modules.items():
        if name == "qcircle" or name.startswith("qcircle."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = id(value)
    for key, fn in qcircle.suites.SUITES.items():
        snap[("SUITES", key)] = id(fn)
    snap[("LaurentPoly", "__call__")] = id(
        vars(qcircle.circle.LaurentPoly)["__call__"])
    return snap


@pytest.fixture(scope="module")
def cli():
    return harness.load_cli()


def test_uninstall_restores_every_original_binding(cli):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    during = _bindings()
    tracer.uninstall()
    assert _bindings() == before
    changed = {key for key in before if during[key] != before[key]}
    # Imported copies are rebound too, not only the defining module.
    for key in [("qcircle.qcore", "qpochhammer_inf"),
                ("qcircle.szego", "qpochhammer_inf"),
                ("qcircle.biortho", "qpochhammer_inf"),
                ("qcircle", "qpochhammer_inf"),
                ("qcircle.szego", "tq_apply"), ("qcircle.qsl", "tq_apply"),
                ("SUITES", "szego"), ("LaurentPoly", "__call__")]:
        assert key in changed


def test_uninstall_after_error_inside_trace(cli):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_kernel_calls_nest_under_their_callers(cli):
    import qcircle.szego
    with Tracer() as tracer:
        qcircle.szego.szego_weight(np.exp(1j * np.arange(8)), 0.5)
    (weight,) = [s for s in tracer.spans if s[2] == "szego.weight"]
    kernels = [s for s in tracer.spans if s[2] == "qcore.qpochhammer_inf"]
    assert weight[1] == ROOT_PARENT
    assert len(kernels) == 2 and all(k[1] == weight[0] for k in kernels)
    assert tracer.counts["szego.weight.points"] == 8


def test_operator_closures_are_traced(cli):
    import qcircle.circle as circle
    f = circle.LaurentPoly(-1, [1.0, 2.0, 3.0])
    with Tracer() as tracer:
        assert circle.tq_iterate(f, 0.5, 0) is f
        circle.tq_iterate(f, 0.5, 2)(np.ones(4, dtype=complex))
    names = [s[2] for s in tracer.spans]
    assert names.count("circle.operator") == 1
    assert names.count("circle.laurent_eval") == 3


@pytest.mark.parametrize("argv", [
    ["gram", "szego", "--max-n", "4", "--grid", "64", "--format", "json",
     "--q", "0.5", "--seed", "3"],
    ["gram", "biortho", "--max-n", "3", "--grid", "64", "--format", "json",
     "--q", "0.6", "--params=0.3-0.1i,0.2,-0.4+0.2i,0.1"],
    ["verify", "all", "--max-n", "2", "--grid", "64", "--format", "json",
     "--q", "0.5", "--seed", "11"],
])
def test_traced_json_is_byte_identical(cli, argv):
    plain = harness.run_verdict(cli, argv)
    with Tracer() as tracer:
        traced = harness.run_verdict(cli, argv)
    assert plain.code in (0, 1) and plain.out
    assert traced.out == plain.out
    assert traced.code == plain.code
    assert any(s[2] == "cli.main" for s in tracer.spans)


def test_self_time_of_nested_spans():
    spans = [
        (3, 1, "grandchild", 20, 30),
        (1, 0, "child", 10, 40),
        (2, 0, "child", 50, 70),
        (0, ROOT_PARENT, "root", 0, 100),
    ]
    assert self_times(spans) == {"root": 50, "child": 40, "grandchild": 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, 0, "a", 10, 40),
        (2, 0, "b", 30, 60),
        (3, 0, "c", 90, 120),  # sticks out of its parent; clipped
        (0, ROOT_PARENT, "root", 0, 100),
    ]
    assert self_times(spans)["root"] == 100 - 50 - 10


def test_distinct_inputs_are_counted_per_verdict(cli):
    import qcircle.szego
    z = np.exp(1j * np.arange(4))
    with Tracer() as tracer:
        for _ in range(3):
            qcircle.szego.szego_weight(z, 0.5)
        tracer.end_verdict()
        qcircle.szego.szego_weight(z, 0.5)
        qcircle.szego.szego_weight(z, 0.25)
        tracer.end_verdict()
    assert tracer.counts["szego.weight.distinct"] == 3


def test_hooks_are_not_the_callers_self_time():
    tracer = Tracer()

    def hook(args, kwargs):
        tracer.count("hooked")

    inner = tracer.wrap("inner", lambda: None, on_call=hook)
    outer = tracer.wrap("outer", inner)
    outer()
    names = {s[0]: s[2] for s in tracer.spans}
    (hook_span,) = [s for s in tracer.spans if s[2] == HOOK_SPAN]
    assert names[hook_span[1]] == "outer"  # runs before inner's span opens
    totals = self_times(tracer.spans)
    (outer_span,) = [s for s in tracer.spans if s[2] == "outer"]
    children = sum(s[4] - s[3] for s in tracer.spans
                   if s[1] == outer_span[0])
    assert totals["outer"] == outer_span[4] - outer_span[3] - children
    assert tracer.counts["hooked"] == 1
