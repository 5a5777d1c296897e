"""Step floors: an invocation's time with each of its steps at the fastest
it ran during the run.

On a shared host the other tenants slow the benchmark in bursts lasting
from milliseconds to minutes, and they only ever add time.  A whole
invocation (0.1-1.5 s) seldom runs free of such a burst, and for minutes at
a time none does, so even the fastest invocation of a run drifts with the
host.  Its short steps run undisturbed far more often.
The runner therefore timestamps every entry to and exit from the layer
functions (the tracer's boundaries, without spans or counters) and treats
the interval between consecutive timestamps as one step.  It keeps each
step's minimum over the run's invocations and reports sums of those minima.

Every invocation of a run uses the same config and seed, so it normally
repeats the same call sequence.  A program may still vary it, say through a
cache that fills over several invocations, so floors are kept per call
sequence and the sequence most invocations made is reported.
"""

from __future__ import annotations

import time

import numpy as np

import tracing

ENTER, EXIT = 1, -1


class Stopwatch:
    """Timestamps at the entry to and exit from each layer function."""

    def __init__(self):
        self.labels: list[tuple[str, int]] = []
        self.times: list[float] = []
        self.results: dict[str, object] = {}  # last result of each kept function
        self._patched: list[tuple] = []

    def mark(self, label: str, edge: int) -> None:
        self.labels.append((label, edge))
        self.times.append(time.perf_counter())

    def reset(self) -> None:
        self.labels.clear()
        self.times.clear()
        self.results.clear()

    def install(self, modules: dict, keep=()) -> None:
        """Wrap every layer function that ``modules`` define; the results of
        the functions labelled in ``keep`` are kept."""
        for _, targets in tracing.LAYERS.values():
            for module, name in targets:
                if hasattr(modules.get(module), name):
                    label = f"{module}.{name}"
                    self._patched += tracing.patch_everywhere(
                        modules, module, name,
                        lambda fn, label=label: self._wrap(label, fn, label in keep))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, label: str, fn, keep: bool):
        labels, times, clock = self.labels, self.times, time.perf_counter

        def timed(*args, **kwargs):
            labels.append((label, ENTER))
            times.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                labels.append((label, EXIT))
                times.append(clock())
            if keep:
                self.results[label] = result
            return result

        return timed


class StepFloors:
    """Each step's minimum over the invocations that made the same call
    sequence, for the sequence most invocations made."""

    def __init__(self):
        self.by_sequence: dict[tuple, list] = {}  # sequence -> [minima, invocations]

    def add(self, labels: list, times: list) -> None:
        steps = np.diff(np.asarray(times, dtype=float))
        entry = self.by_sequence.setdefault(tuple(labels), [steps, 0])
        np.minimum(entry[0], steps, out=entry[0])
        entry[1] += 1

    def _commonest(self):
        if not self.by_sequence:
            return (), None, 0
        labels = max(self.by_sequence, key=lambda seq: self.by_sequence[seq][1])
        return (labels, *self.by_sequence[labels])

    @property
    def invocations(self) -> int:
        """Invocations behind the reported floors."""
        return self._commonest()[2]

    def seconds(self, label: str) -> float:
        """Summed floors of the steps inside the outermost calls of
        ``label``; 0 when it was never called."""
        labels, minima, _ = self._commonest()
        total, depth, start = 0.0, 0, 0
        for index, (name, edge) in enumerate(labels):
            if name != label:
                continue
            if edge == ENTER:
                if depth == 0:
                    start = index
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    total += float(minima[start:index].sum())
        return total
