"""In-memory span recorder and the per-layer metrics derived from its spans.

The recorder wraps public functions of mrfrf at the module attribute their
caller resolves at call time (for example ``mrfrf.ident.sweep_bins``, which is
what ``identify`` calls), so nothing under ``src/`` is edited.  Every span
keeps its name, start, end, parent span and iteration; spans stay in memory
and are written out once, when the run ends.  The pipeline is single threaded
here, so a span's children run one after another inside it, and a span's self
time is its duration minus the durations of its direct children.
"""

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


def _path_bytes(args, kwargs, _out):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _loop_samples(args, _kwargs, _out):
    return {"fast_samples": int(args[14].shape[0])}   # r: (n_fast, n_u)


def _sim_samples(_args, _kwargs, out):
    return {"fast_samples": int(out.u_h.n_samples)}


def _withheld(_args, _kwargs, out):
    return {"withheld": int(np.count_nonzero(out.flags))}


def _fits(_args, _kwargs, out):
    return {"fits": len(out), "failed": sum(f.failed for f in out),
            "fallback": sum(f.fallback for f in out)}


#: (module, attribute the caller resolves, span name, counter).  A function
#: reached through two callers (the in-process pipeline and the CLI) is
#: wrapped at both attributes under one span name.
TRACE_POINTS = (
    ("mrfrf._accel", "multirate_loop", "accel.multirate_loop", _loop_samples),
    ("mrfrf.loopsim", "simulate", "loopsim.simulate", _sim_samples),
    ("mrfrf.cli", "simulate", "loopsim.simulate", _sim_samples),
    ("mrfrf.loopsim", "to_state_space", "lti.to_state_space", None),
    ("mrfrf.bench", "freq_response", "lti.freq_response", None),
    ("mrfrf.spectral", "multisine", "spectral.multisine", None),
    ("mrfrf.cli", "multisine", "spectral.multisine", None),
    ("mrfrf.ident", "dft", "spectral.dft", None),
    ("mrfrf.ident", "lift", "multirate.lift", None),
    ("mrfrf.ident", "identify", "ident.identify", _withheld),
    ("mrfrf.cli", "identify", "ident.identify", _withheld),
    ("mrfrf.ident", "sweep_bins", "lrm.sweep_bins", _fits),
    ("mrfrf.lrm", "fit_local", "lrm.fit_local", None),
    ("mrfrf.ident", "first_row_lifted_P", "ident.invert", None),
    ("mrfrf.ident", "recover_P", "ident.recover", None),
    ("mrfrf.bench", "true_plant_frf", "bench.true_plant_frf", None),
    ("mrfrf.cli", "true_plant_frf", "bench.true_plant_frf", None),
    ("mrfrf.bench", "error_report", "bench.error_report", None),
    ("mrfrf.cli", "error_report", "bench.error_report", None),
    ("mrfrf.io", "write_signal_csv", "io.write_signal", _path_bytes),
    ("mrfrf.io", "read_signal_csv", "io.read_signal", _path_bytes),
    ("mrfrf.io", "write_frf_entry_csv", "io.write_frf", _path_bytes),
    ("mrfrf.io", "read_frf_entry_csv", "io.read_frf", _path_bytes),
    ("mrfrf.io", "write_json", "io.write_json", _path_bytes),
    ("mrfrf.io", "load_scenario", "io.load_scenario", _path_bytes),
    ("mrfrf.cli", "run_suites", "validate.run_suites", None),
)

_WRITES = ("io.write_signal", "io.write_frf", "io.write_json")
_READS = ("io.read_signal", "io.read_frf", "io.load_scenario")


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "counts")

    def __init__(self, name, start, parent, iteration):
        self.name, self.start, self.parent = name, start, parent
        self.iteration, self.end, self.counts = iteration, None, None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "iteration": self.iteration,
                "counts": self.counts}


class Tracer:
    """Records spans while installed and not paused; a no-op otherwise."""

    def __init__(self):
        self.spans = []
        self.iteration = None
        self._recording = False
        self._stack = []
        self._saved = []

    def install(self, iteration):
        self.iteration = iteration
        for module, attr, name, count in TRACE_POINTS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, count))
        self._recording = True

    def uninstall(self):
        self._recording = False
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.iteration)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own call into a layer."""
        if not self._recording:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        recording, self._recording = self._recording, False
        try:
            yield
        finally:
            self._recording = recording

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump([s.as_dict() for s in self.spans], f)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, iteration):
    """Per-layer metrics of one traced iteration, from its spans."""
    total = defaultdict(float)
    children = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in spans:
        if s.iteration != iteration:
            continue
        d = s.end - s.start
        total[s.name] += d
        calls[s.name] += 1
        if s.parent is not None:
            children[spans[s.parent].name] += d
        for key, value in (s.counts or {}).items():
            counts[s.name, key] += value

    def own(name):
        return total[name] - children[name]

    written = sum(counts[n, "bytes"] for n in _WRITES)
    read = sum(counts[n, "bytes"] for n in _READS)
    return {
        "accel.multirate_loop_s": total["accel.multirate_loop"],
        "accel.us_per_fast_sample": 1e6 * _ratio(
            total["accel.multirate_loop"],
            counts["accel.multirate_loop", "fast_samples"]),
        "loopsim.simulate_s": own("loopsim.simulate"),
        "loopsim.fast_samples": counts["loopsim.simulate", "fast_samples"],
        "lti.to_state_space_s": total["lti.to_state_space"],
        "lti.freq_response_s": total["lti.freq_response"],
        "spectral.multisine_s": total["spectral.multisine"],
        "spectral.dft_s": total["spectral.dft"],
        "spectral.dft_calls": calls["spectral.dft"],
        "multirate.lift_s": total["multirate.lift"],
        "multirate.lift_calls": calls["multirate.lift"],
        "lrm.sweep_s": total["lrm.sweep_bins"],
        "lrm.fit_calls": calls["lrm.fit_local"],
        "lrm.fit_fail_frac": _ratio(counts["lrm.sweep_bins", "failed"],
                                    counts["lrm.sweep_bins", "fits"]),
        "lrm.share_of_identify": _ratio(total["lrm.sweep_bins"],
                                        total["ident.identify"]),
        "ident.identify_s": own("ident.identify"),
        "ident.invert_s": total["ident.invert"],
        "ident.recover_s": total["ident.recover"],
        "ident.withheld_bins": counts["ident.identify", "withheld"],
        "bench.true_plant_frf_s": total["bench.true_plant_frf"],
        "bench.error_report_s": total["bench.error_report"],
        "io.write_signal_s": total["io.write_signal"],
        "io.read_signal_s": total["io.read_signal"],
        "io.write_frf_s": total["io.write_frf"],
        "io.bytes_written": written,
        "io.bytes_read": read,
        "io.write_MBps": 1e-6 * _ratio(written,
                                       sum(total[n] for n in _WRITES)),
        "io.read_MBps": 1e-6 * _ratio(read, sum(total[n] for n in _READS)),
        "cli.generate_s": own("cli.generate"),
        "cli.simulate_s": own("cli.simulate"),
        "cli.identify_s": own("cli.identify"),
        "cli.report_s": own("cli.report"),
        "cli.validate_s": own("cli.validate"),
        "validate.run_suites_s": total["validate.run_suites"],
    }


def fit_durations_ms(spans):
    """Durations of every traced local fit, in milliseconds."""
    return [1e3 * (s.end - s.start) for s in spans if s.name == "lrm.fit_local"]
