"""The benchmark's tracer and stopwatch on a multi-run CLI command: every
run is one traced one-run draw, however the runs share their law."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import floors  # noqa: E402
import tracing  # noqa: E402

from cvswap import cli  # noqa: E402


def test_a_traced_overlap_of_four_runs_draws_once_per_run(tmp_path, capsys):
    config = {"state_a": {"kind": "squeezed", "z": [0.6, 0.0], "cutoff": 12},
              "state_b": {"kind": "squeezed", "z": [-0.6, 0.0], "cutoff": 12},
              "M": 3, "shots": 5000, "runs": 4, "seed": 708}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    modules = tracing.cvswap_modules()
    watch, tracer = floors.Stopwatch(), tracing.Tracer()
    # as the benchmark stacks them: the stopwatch stays, a traced run adds the tracer
    watch.install(modules)
    tracer.install(modules)
    try:
        code = cli.main(["overlap", "--config", str(path)])
    finally:
        tracer.uninstall()
        watch.uninstall()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["runs"]) == 4
    draws = [s for s in tracer.spans if s.name == "sampling.blocks_estimate"]
    assert len(draws) == 4 and all(s.layer == "sampling" for s in draws)
    assert tracer.counts[0]["sampling.shots"] == 4 * config["shots"]
    summary = tracing.layer_summaries(tracer.spans, tracer.counts)[0]
    assert summary["sampling.calls"] == 4
    assert watch.labels.count(("sampling.blocks_estimate", floors.ENTER)) == 4
