"""Spans around the public functions of each cvswap layer, recorded from
outside the program.

A function is wrapped under every name it is bound to in a loaded cvswap
module, because ``from .sampling import blocks_estimate`` binds a second
name that a patch of ``sampling.blocks_estimate`` alone would miss.  Spans
stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# layer name -> (ROADMAP stage label, (module, function) pairs wrapped)
LAYERS = {
    "fock.gates": ("L0", (("fock", "gate_matrix"),)),
    "fock.apply": ("L1", (("fock", "apply_gate"), ("fock", "apply_circuit"),
                          ("fock", "pad"), ("fock", "tensor"))),
    "block": ("L2", (
        ("estimators", "cv_swap_estimate"), ("estimators", "parity_overlap_estimate"),
        ("estimators", "parity_overlap_expectation"), ("estimators", "swap2m_expectation"),
        ("estimators", "swap2m_profile"), ("estimators", "run_parity_blocks"),
        ("protocols", "perm_test"), ("protocols", "perm_expectation"),
        ("protocols", "two_copy_test"), ("protocols", "two_copy_expectation"),
        ("protocols", "compile_cost"), ("protocols", "compile_cost_expectation"),
        ("protocols", "hybrid_swap_estimate"), ("protocols", "hybrid_swap_expectation"),
        ("dv", "dv_swap_estimate"), ("dv", "dv_swap_expectation"),
        ("dv", "sample_swap_outcomes"),
    )),
    "sampling": ("L3", (("sampling", "blocks_estimate"),)),
    "cli": ("L4", (("cli", "main"), ("sampling", "estimator_statistics"))),
}

# counting work done inside a traced call is itself traced, so that it is
# charged to this pseudo-layer rather than to the caller's self time
OVERHEAD_LAYER = "trace"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int


def cvswap_modules() -> dict:
    """The loaded cvswap modules by short name (``""`` for the package)."""
    return {name.partition(".")[2]: m for name, m in sys.modules.items()
            if m is not None and (name == "cvswap" or name.startswith("cvswap."))}


def patch_everywhere(modules: dict, module: str, name: str, make_wrapper) -> list[tuple]:
    """Replace ``modules[module].name`` by ``make_wrapper(original)`` under
    every binding of the same object in ``modules``; returns the
    (module, attribute, original) triples replaced."""
    original = getattr(modules[module], name)
    wrapper = make_wrapper(original)
    patched = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, original))
    return patched


def _gate_counts(args, kwargs, result) -> dict:
    return {"fock.gates.elements": result.size}


def _amplitude_counts(args, kwargs, result) -> dict:
    amps = result.amplitudes
    return {"fock.apply.amplitudes": amps.size, "fock.apply.nonzero": int(np.count_nonzero(amps))}


def _sampling_counts(args, kwargs, result) -> dict:
    blocks = args[0] if args else kwargs["blocks"]
    shots = int(args[1] if len(args) > 1 else kwargs["shots"])
    counts = {"sampling.shots": shots, "sampling.discarded": int(result[1]),
              "sampling.uniforms": 0, "block.components": 0, "block.dist_bytes": 0}
    if isinstance(blocks, (list, tuple)):
        for block in blocks:
            n_comp = len(block.distributions)
            counts["sampling.uniforms"] += shots * (2 if n_comp > 1 else 1)
            counts["block.components"] += n_comp
            counts["block.dist_bytes"] += sum(int(d.nbytes) for d in block.distributions)
    return counts


# every counter a run reports, zero when its layer is never called
COUNTS = ("fock.gates.elements", "fock.apply.amplitudes", "fock.apply.nonzero",
          "block.components", "block.dist_bytes", "sampling.shots", "sampling.uniforms",
          "sampling.discarded", "cli.doc_bytes")

# wrapped function -> counter callback (args, kwargs, result) -> {counter: value}
COUNTERS = {
    "fock.gate_matrix": _gate_counts,
    "fock.apply_gate": _amplitude_counts,
    "fock.pad": _amplitude_counts,
    "fock.tensor": _amplitude_counts,
    "sampling.blocks_estimate": _sampling_counts,
}


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, label: str, layer: str, fn):
        counter = COUNTERS.get(label)

        def traced(*args, **kwargs):
            with self.span(label, layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span("count " + label, OVERHEAD_LAYER):
                    self.add(counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span of the current run around the ``with`` body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, 0.0, 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, counts: dict) -> None:
        mine = self.counts.setdefault(self.run, {})
        for key, value in counts.items():
            mine[key] = mine.get(key, 0) + value

    def install(self, modules: dict) -> None:
        """Wrap every layer function that ``modules`` (as returned by
        ``cvswap_modules``) define."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, (_, targets) in LAYERS.items():
            for module, name in targets:
                if not hasattr(modules.get(module), name):
                    continue  # the layer no longer has this entry point
                label = f"{module}.{name}"
                self._patched += patch_everywhere(
                    modules, module, name, lambda fn, a=label, l=layer: self._wrap(a, l, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write_jsonl(self, path, origin: float) -> None:
        stage = {layer: label for layer, (label, _) in LAYERS.items()}
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s.name, "layer": s.layer,
                    "stage": stage.get(s.layer, s.layer),
                    "start": s.start - origin, "end": s.end - origin,
                    "parent": s.parent, "run": s.run,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for index, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_summaries(spans: list[Span], counts: dict[int, dict]) -> dict[int, dict[str, float]]:
    """Per-run, per-layer calls, self time and counters."""
    out: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.run not in out:
            out[s.run] = dict.fromkeys(COUNTS, 0)
            out[s.run].update({f"{layer}.{key}": 0 for layer in list(LAYERS) + [OVERHEAD_LAYER]
                               for key in ("calls", "self_s")})
        summary = out[s.run]
        summary[f"{s.layer}.calls"] += 1
        summary[f"{s.layer}.self_s"] += t
    for run, summary in out.items():
        mine = counts.get(run, {})
        summary.update(mine)
        amps = mine.get("fock.apply.amplitudes", 0)
        summary["fock.apply.fill"] = mine.get("fock.apply.nonzero", 0) / amps if amps else 0.0
        shots = mine.get("sampling.shots", 0)
        summary["sampling.discarded_frac"] = mine.get("sampling.discarded", 0) / shots if shots else 0.0
    return out
