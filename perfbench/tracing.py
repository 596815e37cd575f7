"""Span recorder for the traced benchmark run, plus its per-layer summary.

The child process installs the recorder by rebinding public names of the
multidetect modules at the places their callers look them up; nothing
inside ``src/`` is modified.  Spans stay in memory, one buffer per thread,
and are written out once when the operation ends.  The parent reads them
back and turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

# Per-layer metrics in the order BENCHMARK.json lists them, with their units.
LAYER_METRICS = {
    "config.resolve_s": "s",
    "config.resolve_calls": "count",
    "rng.stream_s": "s",
    "rng.stream_calls": "count",
    "scenarios.draw_s": "s",
    "scenarios.draw_calls": "count",
    "qpc.sample_s": "s",
    "qpc.readout_s": "s",
    "qpc.calls": "count",
    "oscillator.sample_s": "s",
    "oscillator.readout_s": "s",
    "oscillator.calls": "count",
    "experiment.run_s": "s",
    "experiment.self_s": "s",
    "experiment.records_kept": "count",
    "cli.csv_write_s": "s",
    "cli.csv_rows_written": "count",
    "cli.csv_bytes": "bytes",
    "cli.csv_parse_s": "s",
    "cli.csv_rows_parsed": "count",
    "inference.score_s": "s",
    "inference.rows_scored": "count",
    "trace.overhead_ratio": "ratio",
}


class _Buffer:
    """Spans of one thread: name id, parent index (-1 for a root), start, end."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Recorder:
    """Collects spans around wrapped callables, and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span called ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.name)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.start.append(clock())
            buf.end.append(0.0)
            buf.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()

        return traced

    def save(self, path) -> None:
        """Write every span, merged across threads, to an ``.npz`` file."""
        parts = {"name": [], "parent": [], "start": [], "end": []}
        offset = 0
        for buf in self._buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            offset += len(buf.name)
        arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
        np.savez(path, names=np.array(self.names, dtype=str), **arrays)


def install(recorder: Recorder) -> None:
    """Rebind the names each layer's callers use so that calls record spans.

    A name that no longer exists is skipped, so its metrics read 0 instead
    of the benchmark failing after a refactor of that layer.
    """
    from multidetect import cli, config, experiment, oscillator, qpc

    def patch(module, attr, span):
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, recorder.wrap(span, fn))

    # config.load calls resolve through its module globals, cli through cfg.resolve
    patch(config, "resolve", "config.resolve")
    # experiment imports these by name; its physical layer looks up qpc/osc attributes per call
    streams = getattr(experiment, "TrialStreams", None)
    if streams is not None:
        traced_stream = recorder.wrap("rng.stream", streams.stream)
        experiment.TrialStreams = type(streams.__name__, (streams,), {"stream": traced_stream})
    for attr in ("sample_unanimous", "sample_binomial_trial", "sample_custom_trial"):
        patch(experiment, attr, "scenarios.draw")
    patch(qpc, "sample_current", "qpc.sample")
    patch(qpc, "current_readout", "qpc.readout")
    patch(oscillator, "sample_pointer", "oscillator.sample")
    patch(oscillator, "readout", "oscillator.readout")
    # cli imports these by name
    patch(cli, "required_trials", "inference.score")
    patch(cli, "cmd_infer", "cli.cmd_infer")

    decide = getattr(cli, "decide", None)
    if decide is not None:
        traced_decide = recorder.wrap("inference.score", decide)

        def counted_decide(data, *args, **kwargs):
            rows = getattr(data, "n_trials", None)
            recorder.count("inference.rows_scored", len(data) if rows is None else rows)
            return traced_decide(data, *args, **kwargs)

        cli.decide = counted_decide

    run_experiment = getattr(cli, "run_experiment", None)
    if run_experiment is not None:
        traced_run = recorder.wrap("experiment.run", run_experiment)

        def counted_run(*args, **kwargs):
            # the CSV writer is the on_record callback cmd_simulate passes in
            if kwargs.get("on_record") is not None:
                kwargs["on_record"] = recorder.wrap("cli.csv_write", kwargs["on_record"])
            result = traced_run(*args, **kwargs)
            records = result[0] if isinstance(result, tuple) else ()
            recorder.count("experiment.records_kept", len(records))
            return result

        cli.run_experiment = counted_run


def layer_totals(spans_path, counters: dict) -> dict[str, float]:
    """Busy time, self time and calls per span name, plus the counters, for one operation."""
    with np.load(spans_path) as data:
        names = list(data["names"])
        name, parent = data["name"].astype(np.int64), data["parent"].astype(np.int64)
        duration = data["end"] - data["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    self_time = duration - covered
    totals = dict(counters)
    for i, span in enumerate(names):
        mask = name == i
        totals[f"{span}.busy"] = float(duration[mask].sum())
        totals[f"{span}.self"] = float(self_time[mask].sum())
        totals[f"{span}.calls"] = int(mask.sum())
    return totals


def layer_metrics(totals: dict) -> dict[str, float]:
    """Map one iteration's summed totals onto the per-layer metric names.

    ``cli.csv_bytes`` and ``cli.csv_rows_parsed`` are counted by the parent
    from the operation's outputs; ``trace.overhead_ratio`` is added by the
    caller.
    """
    get = lambda key: totals.get(key, 0)
    return {
        "config.resolve_s": get("config.resolve.busy"),
        "config.resolve_calls": get("config.resolve.calls"),
        "rng.stream_s": get("rng.stream.busy"),
        "rng.stream_calls": get("rng.stream.calls"),
        "scenarios.draw_s": get("scenarios.draw.busy"),
        "scenarios.draw_calls": get("scenarios.draw.calls"),
        "qpc.sample_s": get("qpc.sample.busy"),
        "qpc.readout_s": get("qpc.readout.busy"),
        "qpc.calls": get("qpc.sample.calls") + get("qpc.readout.calls"),
        "oscillator.sample_s": get("oscillator.sample.busy"),
        "oscillator.readout_s": get("oscillator.readout.busy"),
        "oscillator.calls": get("oscillator.sample.calls") + get("oscillator.readout.calls"),
        "experiment.run_s": get("experiment.run.busy"),
        "experiment.self_s": get("experiment.run.self"),
        "experiment.records_kept": get("experiment.records_kept"),
        "cli.csv_write_s": get("cli.csv_write.busy"),
        "cli.csv_rows_written": get("cli.csv_write.calls"),
        "cli.csv_bytes": get("cli.csv_bytes"),
        "cli.csv_parse_s": get("cli.cmd_infer.self"),
        "cli.csv_rows_parsed": get("cli.csv_rows_parsed"),
        "inference.score_s": get("inference.score.busy"),
        "inference.rows_scored": get("inference.rows_scored"),
    }
