"""Span recording around qisim's public functions, from outside the package.

`Tracer.installed()` replaces each traced function at every module attribute
the program resolves at call time, and puts the originals back on exit.
Several functions are bound by name at import (`from .rng import substream`
in `analytics`, `imaging` and `cli`; `simulate_counts` and `estimate_g2` in
`cli`; `validate_config` in `analytics` and `imaging`), so each of those
bindings gets its own wrapper under the same span name.

A span is (name, start, end, parent span, op id). Spans live in flat arrays
in memory and are written out once, when the run ends. A span's self time is
its duration minus the durations of its child spans; the program is single
threaded in the traced ops, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

from qisim import analytics, channel, cli, correlator, imaging, model, rng

SETUP_OP = -1
COVERAGE_OP = -2


def _stream_tags(bound):
    return {"tags": len(bound.arguments["stream"])}


def _run_sweep_work(bound, table):
    dwell = bound.arguments["dwell_pulses"]
    toggle = bound.arguments["config"].toggle_period_pulses
    rows = len(table.rows)
    return {
        "rows": rows,
        "toggle_pairs": rows * (dwell // (2 * toggle)),
        "rows_undefined": sum(
            1 for r in table.rows if r.error is not None and r.counts_in is not None
        ),
    }


# (module, attribute, span name, work extractor or None). A work extractor
# gets the bound call arguments and the result and returns work units.
TARGETS = [
    (model, "load_config", "model.load_config", None),
    (model, "validate_config", "model.validate_config", None),
    (analytics, "validate_config", "model.validate_config", None),
    (imaging, "validate_config", "model.validate_config", None),
    (rng, "substream", "rng.substream", None),
    (analytics, "substream", "rng.substream", None),
    (imaging, "substream", "rng.substream", None),
    (cli, "substream", "rng.substream", None),
    (channel, "simulate_counts", "channel.simulate_counts", None),
    (cli, "simulate_counts", "channel.simulate_counts", None),
    (analytics, "click_pattern_probabilities", "analytics.click_pattern_probabilities", None),
    (
        channel,
        "simulate_tags",
        "channel.simulate_tags",
        lambda b, r: {"pulses": b.arguments["n_pulses"], "tags": len(r)},
    ),
    (channel, "write_qitt", "channel.write_qitt", lambda b, r: _stream_tags(b)),
    (channel, "write_tags_csv", "channel.write_tags_csv", lambda b, r: _stream_tags(b)),
    (channel, "read_qitt", "channel.read_qitt", lambda b, r: {"tags": len(r)}),
    (channel, "read_tags_csv", "channel.read_tags_csv", lambda b, r: {"tags": len(r)}),
    (correlator, "bin_and_count", "correlator.bin_and_count", lambda b, r: _stream_tags(b)),
    (
        correlator,
        "windowed_coincidences",
        "correlator.windowed_coincidences",
        lambda b, r: _stream_tags(b),
    ),
    (correlator, "estimate_g2", "correlator.estimate_g2", None),
    (analytics, "estimate_g2", "correlator.estimate_g2", None),
    (cli, "estimate_g2", "correlator.estimate_g2", None),
    (analytics, "snr_from_counts", "analytics.snr_from_counts", None),
    (analytics, "run_sweep", "analytics.run_sweep", _run_sweep_work),
    (analytics, "sweep_to_csv", "analytics.sweep_to_csv", None),
    (
        imaging,
        "raster_scan",
        "imaging.raster_scan",
        lambda b, r: {"pixels": int(b.arguments["scene"].grid.size)},
    ),
    (imaging, "write_pgm", "imaging.write_pgm", None),
    (imaging, "image_to_csv", "imaging.image_to_csv", None),
    (imaging, "interpolate4", "imaging.interpolate4", None),
    (imaging, "scene_from_pgm", "imaging.scene_from_pgm", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, dict] = {}
        self.errors: dict[int, str] = {}
        self.op_id = SETUP_OP
        self._stack: list[int] = []

    def _wrap(self, span_name, fn, work):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if work is not None:
                self.work[idx] = work(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        # A binding the program no longer has is simply not traced.
        present = [t for t in TARGETS if hasattr(t[0], t[1])]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in present]
        try:
            for (mod, attr, span_name, work), (_, _, fn) in zip(present, saved):
                setattr(mod, attr, self._wrap(span_name, fn, work))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def arrays(self) -> dict:
        """Spans as numpy arrays, with durations and self times."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child_sum,
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path, **{k: a[k] for k in ("names", "name_id", "op", "parent", "start", "end")}
        )


class LayerView:
    """Per-layer aggregates over the recorded spans.

    A layer's figures come from the timed ops' spans when the workload's ops
    call it, and otherwise from the coverage pass, so every traced run
    reports every layer. `source(name)` says which.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        self.a = tracer.arrays()

    def _select(self, name: str) -> tuple[np.ndarray, str]:
        if name not in self.t._ids:
            return np.zeros(0, dtype=np.int64), "none"
        is_name = self.a["name_id"] == self.t._ids[name]
        in_ops = is_name & (self.a["op"] >= 0)
        if in_ops.any():
            return np.flatnonzero(in_ops), "ops"
        return np.flatnonzero(is_name & (self.a["op"] == COVERAGE_OP)), "coverage"

    def source(self, name: str) -> str:
        return self._select(name)[1]

    def spans(self, name: str, everywhere: bool = False) -> np.ndarray:
        if everywhere:
            if name not in self.t._ids:
                return np.zeros(0, dtype=np.int64)
            return np.flatnonzero(self.a["name_id"] == self.t._ids[name])
        return self._select(name)[0]

    def dur(self, name: str, everywhere: bool = False) -> np.ndarray:
        return self.a["dur"][self.spans(name, everywhere)]

    def self_time(self, name: str) -> np.ndarray:
        return self.a["self"][self.spans(name)]

    def work(self, name: str, unit: str) -> float:
        return float(sum(self.t.work[int(i)].get(unit, 0) for i in self.spans(name)))

    def calls_per_op(self, name: str) -> float:
        idx = self.spans(name)
        ops = np.unique(self.a["op"][idx])
        return idx.size / max(ops.size, 1)

    def rate(self, name: str, unit: str, scale: float = 1e-6) -> float:
        """Work units per second of the layer's own spans, times scale."""
        return self.work(name, unit) / float(self.dur(name).sum()) * scale

    def children_named(self, parent_name: str, child_name: str) -> int:
        parents = self.spans(parent_name)
        if child_name not in self.t._ids or parents.size == 0:
            return 0
        is_child = self.a["name_id"] == self.t._ids[child_name]
        return int(np.isin(self.a["parent"][is_child], parents).sum())

    def error_count(self, prefix: str, error: str) -> int:
        return sum(
            1
            for idx, err in self.t.errors.items()
            if err == error and self.t.names[self.t.name_id[idx]].startswith(prefix)
        )
