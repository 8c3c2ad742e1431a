"""In-memory span tracer that wraps the library's public functions.

A span is (name, start, end, parent, request): ``request`` numbers the
benchmark call (one CLI run or one solve) that caused the span, and is
shared by every span of that call. Start and end come from
``time.perf_counter``, a monotonic clock that is shared across processes
on Linux, so spans recorded in a child process line up with the parent's.

Spans are appended to flat in-memory arrays while the traced code runs.
A child process's spans are merged in when it exits, and the whole set
is written out once, at the end of the run.

Wrapping replaces a function under every module-level name that refers
to it inside the ``collective_recourse`` package, so calls made through
``from .model import fit`` style imports are seen as well as direct ones.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "collective_recourse"

# Span name -> (module, function names). A function listed here is traced
# under every name the package looks it up by.
LAYERS = {
    "dataset.load": ("dataset", ("load_csv", "load_embeddings")),
    "model.fit": ("model", ("fit",)),
    "model.refit": ("model", ("refit_with_perturbation",)),
    "model.nll_loss": ("model", ("nll_loss",)),
    "model.grad_input": ("model", ("grad_input",)),
    "model.grad_centroids": ("model", ("grad_centroids",)),
    "recourse.individual": ("recourse", ("individual_recourse",)),
    "recourse.collective": ("recourse", ("collective_recourse",)),
    "harness.sweep": ("harness", ("sweep_epsilon",)),
    "harness.write": ("harness", ("write_report_csv", "render_plot_svg")),
    "cli.main": ("cli", ("cli_main",)),
}


def _solver_counts(prefix):
    """Counters read from a solver's ``RecourseResult.loss_trace``.

    The trace holds the baseline, then one entry per extra candidate and
    per random init, then one entry per step. A step is improving when
    it sets a new best loss.
    """

    def count(args, kwargs, result):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        head = 1 + len(kwargs.get("extra_candidates", ()))
        if cfg is not None and cfg.init == "random":
            head += 1
        trace = np.asarray(result.loss_trace)
        steps = trace[head:]
        best = np.minimum.accumulate(trace)
        improving = int(np.count_nonzero(steps < best[head - 1 : -1]))
        return {f"{prefix}.steps": len(steps), f"{prefix}.improving_steps": improving}

    return count


def _load_counts(args, kwargs, result):
    return {"dataset.load.rows": result.num_rows, "dataset.load.bytes": os.path.getsize(args[0])}


def _refit_counts(args, kwargs, result):
    # Estimated from array sizes, not measured: a refit has to read the
    # batch features and the perturbation once each.
    batch, delta = args[0], args[1]
    return {"model.refit.bytes_computed": batch.features.nbytes + np.asarray(delta).nbytes}


def _write_counts(args, kwargs, result):
    return {"harness.bytes_written": os.path.getsize(args[1])}


COUNTERS = {
    "dataset.load": _load_counts,
    "model.refit": _refit_counts,
    "recourse.individual": _solver_counts("recourse.individual"),
    "recourse.collective": _solver_counts("recourse.collective"),
    "harness.write": _write_counts,
}


class Tracer:
    """Records spans and counters; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_of = array("i")
        self.request = 0
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.request_of.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the currently open one."""
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.request_of.append(self.request)
        self.start.append(start)
        self.end.append(end)

    def merge(self, spans: dict, under: int) -> None:
        """Append spans recorded elsewhere, hanging their roots under ``under``."""
        offset = len(self.start)
        remap = np.array([self._name_id(n) for n in spans["names"]], dtype=np.int32)
        parent = np.where(spans["parent"] >= 0, spans["parent"] + offset, under)
        self.name.frombytes(remap[spans["name"]].astype(np.int32).tobytes())
        self.parent.frombytes(parent.astype(np.int32).tobytes())
        self.request_of.frombytes(np.full(len(parent), self.request, dtype=np.int32).tobytes())
        self.start.frombytes(spans["start"].astype(np.float64).tobytes())
        self.end.frombytes(spans["end"].astype(np.float64).tobytes())
        self.count(spans["counters"])

    def count(self, values: dict) -> None:
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.count(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every layer function; returns a callable that restores them."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        saved = []
        for span, (module, functions) in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{module}"]
            for function in functions:
                original = getattr(home, function)
                traced = self.wrap(span, original, COUNTERS.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, traced)

        def restore():
            for mod, attr, original in saved:
                setattr(mod, attr, original)

        return restore

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays plus the name table and counters."""
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request_of, dtype=np.int32).copy(),
            "counters": dict(self.counters),
        }


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so children of a span never overlap and
    the covered time is the sum of their durations.
    """
    duration = spans["end"] - spans["start"]
    covered = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], duration[has_parent])
    return duration - covered


def summarize(spans: dict) -> dict:
    """Per span name: number of calls, total self time and total duration."""
    own = self_times(spans)
    duration = spans["end"] - spans["start"]
    out = {}
    for idx, name in enumerate(spans["names"]):
        pick = spans["name"] == idx
        out[name] = {
            "calls": int(np.count_nonzero(pick)),
            "self_s": float(own[pick].sum()),
            "total_s": float(duration[pick].sum()),
        }
    return out


def save_spans(path, spans: dict) -> None:
    np.savez(
        path,
        name=spans["name"],
        start=spans["start"],
        end=spans["end"],
        parent=spans["parent"],
        request=spans["request"],
        names=np.array(spans["names"], dtype=str),
        counters_keys=np.array(list(spans["counters"]), dtype=str),
        counters_values=np.array(list(spans["counters"].values()), dtype=float),
    )


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {
            "names": [str(n) for n in data["names"]],
            "name": data["name"],
            "start": data["start"],
            "end": data["end"],
            "parent": data["parent"],
            "request": data["request"],
            "counters": dict(zip(map(str, data["counters_keys"]), data["counters_values"].tolist())),
        }
