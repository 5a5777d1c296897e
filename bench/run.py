"""Benchmark runner: drives ``cvswap.cli.main`` in process on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The runner generates the
workload's config from the seed, measures set-up (importing cvswap from
``src/`` and building the config's states), then invokes the CLI
repeatedly for ``--seconds`` seconds, checking every document it gets
back.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the machine facts and sample counts.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced invocations and reports the per-layer metrics, writing the
spans to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, which is at most nproc on any machine.  On a two-core box
# a second thread contends with the interpreter and with neighbouring
# processes for the small contractions cvswap makes, and timings spread more.
# numpy reads the setting when it is first imported, so it is set before any
# import that loads numpy.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import floors  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TAIL_BEYOND = 10  # samples that must lie above the reported tail
MIN_SAMPLES = TAIL_BEYOND + 1


def machine_facts() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS}


def _loaded() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "cvswap" or n.startswith("cvswap.")}


def import_and_build(workload, config: dict):
    """Import cvswap afresh and build the config's states.  Returns the
    elapsed time, the fresh modules and the built inputs.  Modules loaded
    before the call are put back, so invocations keep using them."""
    previous = _loaded()
    for name in previous:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("cvswap.cli")
    inputs = workload.build(cli, config)
    elapsed = time.perf_counter() - start
    modules = tracing.cvswap_modules()
    if previous:
        for name in _loaded():
            del sys.modules[name]
        sys.modules.update(previous)
        gc.collect()  # drop the discarded modules before the next invocation
    return elapsed, modules, inputs


class Bench:
    """The modules under test, one workload's config and its oracle
    values; invokes the CLI and checks every document it returns."""

    def __init__(self, workload, config: dict, config_path: Path):
        self.workload, self.config = workload, config
        elapsed, self.modules, self.inputs = import_and_build(workload, config)
        self.setup_s = [elapsed]
        self.reference = workload.reference(self.modules, config, self.inputs)
        self.estimator_label = ".".join(workload.estimator)
        self.exact_label = ".".join(workload.exact)
        self.stopwatch = floors.Stopwatch()
        self.stopwatch.install(self.modules, keep=(self.exact_label,))
        self.floors = floors.StepFloors()
        self.traced_floors = floors.StepFloors()
        self.argv = [workload.command, "--config", str(config_path)]
        self.first_doc = None

    def time_setup(self) -> None:
        self.setup_s.append(import_and_build(self.workload, self.config)[0])

    def invoke(self, tracer=None, timed=False) -> tuple[float, str, list[str]]:
        """One CLI invocation, traced when a tracer is given: its wall time,
        its document and the problems found in it.  The steps of a timed
        invocation that passes its checks are folded into the floors, or
        into the traced floors if it was traced."""
        workload, watch = self.workload, self.stopwatch
        watch.reset()
        out = io.StringIO()
        if tracer is not None:
            tracer.install(self.modules)
        watch.mark("invocation", floors.ENTER)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.modules["cli"].main(self.argv)
        except Exception as exc:  # a crash fails this invocation, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            watch.mark("invocation", floors.EXIT)
            if tracer is not None:
                tracer.uninstall()
        text = out.getvalue()
        if code != 0:
            return elapsed, text, [f"exit status {code}"]
        if not workload.cli_calls_exact:
            module, name = workload.exact
            getattr(self.modules[module], name)(*workload.exact_args(self.config, self.inputs))
        try:
            problems = workload.check(text, self.config, watch.results.get(self.exact_label),
                                      self.reference)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed document: {exc!r}"]
        if (self.estimator_label, floors.ENTER) not in watch.labels:
            problems.append(f"no call to {self.estimator_label} observed")
        if self.first_doc is None:
            self.first_doc = text
        elif text != self.first_doc:
            problems.append("document differs from the first one with the same seed")
        if timed and not problems:
            (self.floors if tracer is None else self.traced_floors).add(watch.labels, watch.times)
        return elapsed, text, problems


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and
    the percentile level it sits at."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(bench: Bench, samples: dict, info: dict) -> dict:
    """The timings are step floors (see floors.py); the invocations' own
    median and tail go to ``info``, since on a shared host they mostly
    measure the other tenants."""
    run_tail, level = tail(samples["run_s"])
    info.update(samples=len(samples["run_s"]), floor_samples=bench.floors.invocations,
                call_sequences=len(bench.floors.by_sequence),
                run_s_median=statistics.median(samples["run_s"]), run_s_tail=run_tail,
                tail_percentile=level, setup_samples=len(bench.setup_s))
    estimator_s = bench.floors.seconds(bench.estimator_label)
    return {
        "setup_s": statistics.median(bench.setup_s),
        "run_s": bench.floors.seconds("invocation"),
        "shots_per_s": bench.workload.shots(bench.config) / estimator_s if estimator_s else 0.0,
        "exact_s": bench.floors.seconds(bench.exact_label),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Bench, tracer, samples: dict, info: dict) -> dict:
    """Medians over the traced invocations of each layer's figures; the
    tracing overhead is the difference of the traced and untraced step
    floors."""
    workload = bench.workload
    summaries = list(tracing.layer_summaries(tracer.spans, tracer.counts).values())
    for summary in summaries:
        total = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
        summary["target_share"] = summary[f"{workload.target}.self_s"] / total
    values = {name: statistics.median(s[name] for s in summaries)
              for name in summaries[0] if name.split(".")[0] != tracing.OVERHEAD_LAYER}
    values["trace_overhead_s"] = (bench.traced_floors.seconds("invocation")
                                  - bench.floors.seconds("invocation"))
    self_s = {layer: values[f"{layer}.self_s"] for layer in tracing.LAYERS}
    info.update(traced=len(summaries), untraced=len(samples["run_s"]), target=workload.target,
                largest=max(self_s, key=self_s.get), target_share=values["target_share"],
                trace_overhead_s=values["trace_overhead_s"])
    return values


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvswap" / "__init__.py").is_file():
        print(f"bench: no cvswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    specs = load_metric_specs()
    config = workload.config(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    config_path = OUT_DIR / f"{workload.name}-{args.seed}.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(workload, config, config_path)
    tracer = tracing.Tracer() if args.trace else None

    attempted = failed = 0
    failures: list[str] = []
    samples = {"run_s": [], "traced_run_s": []}
    origin = time.perf_counter()
    deadline = None
    while deadline is None or time.perf_counter() < deadline or (
            len(samples["run_s"]) + len(samples["traced_run_s"]) < MIN_SAMPLES):
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.run = attempted
        elapsed, text, problems = bench.invoke(tracer if traced else None,
                                               timed=deadline is not None)
        if problems:
            failed += 1
            failures += [f"invocation {attempted}: {p}" for p in problems]
        attempted += 1
        if deadline is None:  # the first invocation warms caches and is not timed
            deadline = time.perf_counter() + args.seconds
        elif traced:
            tracer.add({"cli.doc_bytes": len(text.encode("utf-8"))})
            samples["traced_run_s"].append(elapsed)
        else:
            samples["run_s"].append(elapsed)
            if tracer is None:
                # spread over the run, set-up samples see the same machine
                # conditions as the invocations
                bench.time_setup()

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "machine": machine_facts(), "invocations": attempted,
            "failed_frac": failed / attempted, "failures": failures[:5]}
    if tracer is None:
        values = end_to_end(bench, samples, info)
        units = specs["end_to_end"]
    else:
        values = per_layer(bench, tracer, samples, info)
        trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.jsonl"
        tracer.write_jsonl(trace_path, origin)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        units = specs["per_layer"]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    for line in failures[:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
