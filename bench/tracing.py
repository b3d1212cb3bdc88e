"""Spans around bellqkd's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every public function of ``states``,
``metrics``, ``filtering`` and ``protocol_sim`` in every module namespace
that binds it (so ``metrics.to_mueller`` and ``protocol_sim.optimal_filters``
are traced too), and ``cli.main`` with a span named after the subcommand.
Spans (name, start, end, parent, root, raised) stay in memory; ``write``
saves them at the end and ``per_layer`` derives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

import bellqkd
from bellqkd import cli, filtering, metrics, protocol_sim, states

LAYERS = {"states": states, "metrics": metrics, "filtering": filtering,
          "protocol_sim": protocol_sim}
NAMESPACES = (states, metrics, filtering, protocol_sim, cli, bellqkd)
CLI_COMMANDS = ("analyze", "filter", "simulate", "sweep")


def _count_normal_form(tally, args, result):
    tally[f"filtering.normal_form.{result.kind.lower()}"] += 1


def _count_rounds(tally, args, result):
    tally["protocol_sim.rounds"] += result.rounds_total
    tally["protocol_sim.key_bits"] += result.key_bits


ON_RESULT = {"filtering.normal_form": _count_normal_form,
             "protocol_sim.run_protocol": _count_rounds}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.raised: list[bool] = []
        self.tally: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, nid, fn, args, kwargs, on_result):
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(self.root[stack[0]] if stack else i)
        self.raised.append(False)
        self.end.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.raised[i] = True
            raise
        finally:
            self.end[i] = time.perf_counter_ns()
            stack.pop()
        if on_result is not None:
            on_result(self.tally, args, result)
        return result

    def _wrap(self, span_name, fn):
        nid = self._id(span_name)
        on_result = ON_RESULT.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(nid, fn, args, kwargs, on_result)
        return traced

    def _wrap_cli(self, fn):
        ids = {c: self._id(f"cli.{c}") for c in CLI_COMMANDS}
        other = self._id("cli.main")

        @functools.wraps(fn)
        def traced(argv=None):
            nid = ids.get(argv[0], other) if argv else other
            return self._span(nid, fn, (argv,), {}, None)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each public function; restore on exit."""
        wrappers = {}
        for layer, mod in LAYERS.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not inspect.isclass(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        wrappers[id(cli.main)] = (cli.main, self._wrap_cli(cli.main))
        saved = []
        for ns in NAMESPACES:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for ns, attr, value in saved:
                setattr(ns, attr, value)

    # -----------------------------------------------------------------------

    def _arrays(self):
        start = np.asarray(self.start, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child, np.asarray(self.name, dtype=np.int64)

    def per_layer(self, replays: int) -> tuple[dict, dict]:
        """Per-layer metrics from the spans; ``us`` is the median per call.

        The traced units ran ``replays`` times; counts are per replay.
        """
        dur, self_ns, name = self._arrays()
        by_name = {n: name == i for i, n in enumerate(self.names)}
        empty = np.zeros(len(name), dtype=bool)

        def sel(n):
            return by_name.get(n, empty)

        def per_replay(total):
            return {"value": total / replays, "unit": "count"}

        def calls(n):
            return per_replay(int(sel(n).sum()))

        def med(values, n, scale, unit):
            v = values[sel(n)]
            return {"value": float(np.median(v)) / scale if len(v) else 0.0,
                    "unit": unit}

        def us(n):
            return med(dur, n, 1e3, "us")

        def count(key):
            return per_replay(self.tally[key])

        nf_calls = int(sel("filtering.normal_form").sum())
        raised = int(np.asarray(self.raised, dtype=bool)[sel("filtering.normal_form")].sum())
        rounds = self.tally["protocol_sim.rounds"]
        loop_s = float(self_ns[sel("protocol_sim.run_protocol")].sum()) / 1e9
        out = {
            "states.to_mueller.calls": calls("states.to_mueller"),
            "states.to_mueller.us": us("states.to_mueller"),
            "states.make_family.us": us("states.make_family"),
            "states.validate.us": us("states.validate"),
            "states.load_state_file.us": us("states.load_state_file"),
            "metrics.correlation_spectrum.calls": calls("metrics.correlation_spectrum"),
            "metrics.correlation_spectrum.us": us("metrics.correlation_spectrum"),
            "metrics.chsh_value.us": us("metrics.chsh_value"),
            "filtering.normal_form.calls": calls("filtering.normal_form"),
            "filtering.normal_form.us": us("filtering.normal_form"),
            "filtering.normal_form.diagonal": count("filtering.normal_form.diagonal"),
            "filtering.normal_form.xform": count("filtering.normal_form.xform"),
            "filtering.normal_form.raised": per_replay(raised),
            "filtering.diagonal_ratio": {
                "value": self.tally["filtering.normal_form.diagonal"] / nf_calls
                if nf_calls else 0.0, "unit": "ratio"},
            "filtering.optimal_filters.us": us("filtering.optimal_filters"),
            "filtering.lorentz_to_filter.us": us("filtering.lorentz_to_filter"),
            "filtering.apply_filters.us": us("filtering.apply_filters"),
            "filtering.summarize_metrics.us": us("filtering.summarize_metrics"),
            "filtering.filtered_key_rate.us": us("filtering.filtered_key_rate"),
            "filtering.concurrence.us": us("filtering.concurrence"),
            "protocol_sim.run_protocol.calls": calls("protocol_sim.run_protocol"),
            "protocol_sim.run_protocol.self_s": med(
                self_ns, "protocol_sim.run_protocol", 1e9, "s"),
            "protocol_sim.sample_rounds_per_s": {
                "value": rounds / loop_s if loop_s else 0.0, "unit": "rounds/s"},
            "protocol_sim.born_joint_distribution.calls": calls(
                "protocol_sim.born_joint_distribution"),
            "protocol_sim.born_joint_distribution.us": us(
                "protocol_sim.born_joint_distribution"),
            "protocol_sim.key_yield": {
                "value": self.tally["protocol_sim.key_bits"] / rounds if rounds else 0.0,
                "unit": "bits/round"},
            "cli.analyze.self_us": med(self_ns, "cli.analyze", 1e3, "us"),
            "cli.filter.self_us": med(self_ns, "cli.filter", 1e3, "us"),
            "cli.simulate.self_us": med(self_ns, "cli.simulate", 1e3, "us"),
            "cli.sweep.self_s": med(self_ns, "cli.sweep", 1e9, "s"),
        }
        # self time per layer over the whole traced run, for the human report
        layer_self = Counter()
        for i, n in enumerate(self.names):
            layer_self[n.split(".")[0]] += float(self_ns[name == i].sum()) / 1e9
        info = {"spans": len(name), "self_s_by_layer": dict(layer_self),
                "rounds_traced": rounds}
        return out, info

    def write(self, path: Path, workload: str, seed: int) -> Path:
        t0 = min(self.start, default=0)
        doc = {
            "workload": workload, "seed": seed, "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "root", "raised"],
            "spans": [[n, s - t0, e - t0, p, r, int(x)] for n, s, e, p, r, x in zip(
                self.name, self.start, self.end, self.parent, self.root, self.raised)],
            "tally": dict(self.tally),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return path
