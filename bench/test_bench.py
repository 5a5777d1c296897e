"""Tests of the benchmark's own machinery: config generation, span
arithmetic and the wrappers installed for a traced run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_config(name):
    workload = WORKLOADS[name]
    assert workload.config(7) == workload.config(7)
    assert workload.config(7) != workload.config(8)


def test_self_times_of_nested_spans():
    spans = [
        Span("root", "cli", 0.0, 10.0, -1, 0),
        Span("a", "block", 1.0, 4.0, 0, 0),
        Span("a.1", "fock.apply", 2.0, 3.0, 1, 0),
        Span("b", "sampling", 5.0, 6.5, 0, 0),
        Span("root", "cli", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    per_run = tracing.layer_summaries(spans, {0: {"sampling.shots": 4, "sampling.discarded": 1}})
    assert per_run[0]["cli.self_s"] == pytest.approx(5.5)
    assert per_run[0]["block.calls"] == 1
    assert per_run[0]["fock.gates.calls"] == 0
    assert per_run[0]["sampling.discarded_frac"] == pytest.approx(0.25)
    assert per_run[1]["cli.self_s"] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    spans = [
        Span("root", "cli", 0.0, 4.0, -1, 0),
        Span("x", "block", 1.0, 3.0, 0, 0),
        Span("y", "block", 2.0, 5.0, 0, 0),  # overlaps x and outlives root
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def _bindings():
    return {(mod.__name__, attr): value
            for mod in tracing.cvswap_modules().values() for attr, value in vars(mod).items()}


def test_wrappers_restore_originals():
    from cvswap import cli, fock, protocols, sampling

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install(tracing.cvswap_modules())
    try:
        # the name bound by ``from .sampling import blocks_estimate`` is wrapped too
        assert protocols.blocks_estimate is not before[("cvswap.protocols", "blocks_estimate")]
        assert protocols.blocks_estimate is sampling.blocks_estimate
        state = fock.prepare("coherent", fock.CutoffSpec((4,)), alpha=0.3)
        fock.apply_gate(state, fock.Squeeze(0.1, 0))
        protocols.perm_test([state] * 3, 100, 5)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert cli.main is before[("cvswap.cli", "main")]
    layers = {s.layer for s in tracer.spans}
    assert {"fock.gates", "fock.apply", "block", "sampling", "cli"} <= layers
    assert all(s.end >= s.start for s in tracer.spans)


def test_step_floors_sum_per_step_minima():
    from floors import ENTER, EXIT, StepFloors

    labels = [("invocation", ENTER), ("f", ENTER), ("g", ENTER), ("g", EXIT),
              ("f", EXIT), ("f", ENTER), ("f", EXIT), ("invocation", EXIT)]
    floors = StepFloors()
    floors.add(labels, [0.0, 1.0, 3.0, 4.0, 6.0, 6.0, 8.0, 9.0])
    floors.add(labels, [0.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 9.5])
    # a rarer call sequence does not enter the reported floors
    floors.add(labels[:1] + labels[5:], [0.0, 0.1, 0.2, 0.3])
    # steps: [1,2,1,2,0,2,1] and [2,1,3,1,1,1,0.5]; minima [1,1,1,1,0,1,0.5]
    assert floors.seconds("invocation") == pytest.approx(5.5)
    assert floors.seconds("f") == pytest.approx(4.0)  # both outermost calls of f
    assert floors.seconds("g") == pytest.approx(1.0)
    assert floors.seconds("h") == 0.0
    assert floors.invocations == 2
    assert len(floors.by_sequence) == 2


def test_stopwatch_marks_calls_and_keeps_results():
    from cvswap import fock
    from floors import ENTER, EXIT, Stopwatch

    modules = tracing.cvswap_modules()
    original = fock.gate_matrix
    watch = Stopwatch()
    watch.install(modules, keep=("fock.gate_matrix",))
    try:
        mat = fock.gate_matrix(fock.Squeeze(0.1, 0), fock.CutoffSpec((4,)))
    finally:
        watch.uninstall()
    assert fock.gate_matrix is original
    assert watch.labels[0] == ("fock.gate_matrix", ENTER)
    assert watch.labels[-1] == ("fock.gate_matrix", EXIT)
    assert watch.times == sorted(watch.times)
    assert watch.results["fock.gate_matrix"] is mat
