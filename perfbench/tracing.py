"""Span wrappers for the traced run, installed from outside the package.

Every target below is an attribute of an obfusense module (or of a class in
one). Installing the tracer replaces the attribute with a wrapper that times
each call; the wrapper keeps a stack of open spans, so a span's self time is
its duration minus the time covered by the spans it caused. Statistics are
kept in memory per group (one group per per-layer metric) and per layer (one
layer per module, except that subcarrier selection counts as sensing wherever
it lives).

A target that no longer exists is recorded in `missing` instead of failing;
a metric whose targets are all missing is reported as null.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer, group)
TARGETS = (
    ("channel", "FrameSimulator.__init__", "channel", "build"),
    ("channel", "FrameSimulator.frame", "channel", "frame"),
    ("irs", "step", "irs", "step"),
    ("experiments", "reference_and_selection", "experiments", "session"),
    ("experiments", "run_session", "experiments", "session"),
    ("experiments", "parameter_study", "experiments", "grid"),
    ("experiments", "run_coverage_grid", "experiments", "grid"),
    ("experiments", "coherence_time", "experiments", "coherence"),
    ("experiments", "select_reference_subcarriers", "sensing", "select"),
    ("sensing", "select_subcarriers", "sensing", "select"),
    ("sensing", "observe", "sensing", "observe"),
    ("sensing", "observe_magnitudes", "sensing", "observe"),
    ("sensing", "calibrate_threshold", "sensing", "threshold"),
    ("sensing", "max_threshold", "sensing", "threshold"),
    ("sensing", "detect", "sensing", "threshold"),
    ("sensing", "roc", "sensing", "roc"),
    ("sensing", "attack_report", "sensing", "report"),
    ("io", "load_scenario", "io", "config"),
    ("io", "export_trace", "io", "export_trace"),
    ("io", "ingest_trace", "io", "ingest_trace"),
    ("io", "export_observation", "io", "observation"),
    ("io", "load_observation", "io", "observation"),
    ("io", "export_report", "io", "observation"),
    ("cli", "main", "cli", "main"),
    ("cli", "cmd_simulate", "cli", "command"),
    ("cli", "cmd_ingest", "cli", "command"),
    ("cli", "cmd_attack", "cli", "command"),
    # private, but the only names that isolate the manifest and sha256 work
    ("cli", "_write_manifest", "cli", "manifest"),
    ("cli", "_sha256", "cli", "manifest"),
)

LAYERS = ("channel", "irs", "experiments", "sensing", "io", "cli")


class Tracer:
    """Installs span wrappers and aggregates busy and self time per group."""

    def __init__(self, modules, on_session=None):
        self._modules = modules
        self._on_session = on_session
        self._installed = []
        self.present = set()
        self.missing = []
        self.reset()

    def reset(self):
        self._stack = []
        self._active = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.build_durations = []

    def install(self):
        for module, attr, layer, group in TARGETS:
            owner = getattr(self._modules, module)
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except AttributeError:
                self.missing.append(f"{module}.{attr}")
                continue
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, group))
            self.present.add(group)

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, original, layer, group):
        observe = self._on_session if group == "session" else None

        @functools.wraps(original)
        def span(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            self._active[group] += 1
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                if inspect.isgenerator(result):
                    # consume inside the span, so its work is timed here
                    result = iter(list(result))
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self._active[group] -= 1
                if self._stack:
                    self._stack[-1][0] += dur
                own = dur - child[0]
                self.self_time[group] += own
                self.layer_self[layer] += own
                if not self._active[group]:
                    self.busy[group] += dur
                if group == "build":
                    self.build_durations.append(dur)
            if observe is not None:
                observe(result)
            return result

        return span


def _ticks(n_frames, sample_rate, update_rate) -> int:
    """Scheduler ticks of a defended session: ticks k >= 1 with
    k / update_rate <= time of its last frame, the session loop's rule."""
    t_last = (n_frames - 1) / sample_rate + 1e-12
    k = int(math.floor(t_last * update_rate))
    while (k + 1) / update_rate <= t_last:
        k += 1
    while k > 0 and k / update_rate > t_last:
        k -= 1
    return k


def session_counter(scenario, update_rate):
    """(sessions, observe): observe() reads the counts of one session from the
    meta of its returned observation and appends them to sessions."""
    sessions = []
    per_subcarrier = scenario.n_rx * scenario.n_tx

    def observe(result):
        meta = (result[0] if isinstance(result, tuple) else result).meta
        n = meta["n_frames"]
        subs = meta.get("subcarriers")
        k = scenario.n_subcarriers if subs is None else len(subs)
        sessions.append({
            "frames": n,
            "person_frames": n if "moving" in meta else 0,
            "ticks": _ticks(n, scenario.sample_rate, update_rate) if meta["defense_on"] else 0,
            "changes": len(meta["irs_change_frames"]),
            "cells": n * k * per_subcarrier,
        })
    return sessions, observe


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, sessions, file_counts, n_iter, build_durations, scale,
                      untraced, traced):
    """Per-layer metrics per iteration of the traced phase.

    Times are multiplied by `scale`, the calibration factor of the traced
    phase, so they are in the same reference seconds as the end-to-end
    metrics; `untraced` and `traced` are calibrated iteration times.
    """
    busy = {g: tracer.busy[g] * scale / n_iter for g in tracer.present}
    own = {g: tracer.self_time[g] * scale / n_iter for g in tracer.present}

    def total(key):
        return sum(s[key] for s in sessions) / n_iter

    frames, ticks, changes = total("frames"), total("ticks"), total("changes")
    cells = total("cells") + file_counts.get("observe_cells", 0) / n_iter
    trace_bytes = file_counts.get("io.trace_bytes", 0) / n_iter
    ingest_mb = file_counts.get("ingest_bytes", 0) / n_iter / 1e6
    # (name, unit, value, groups it needs: null when none of them was found)
    table = [
        ("channel.build_s", "s", lambda: statistics.median(build_durations) * scale, ("build",)),
        ("channel.frames", "count", lambda: frames, ("session",)),
        ("channel.person_frames", "count", lambda: total("person_frames"), ("session",)),
        ("channel.frame_s", "s", lambda: busy["frame"], ("frame",)),
        ("channel.frames_per_busy_s", "1/s", lambda: _ratio(frames, busy["frame"]), ("frame",)),
        ("experiments.session_s", "s", lambda: busy["session"], ("session",)),
        ("experiments.self_s", "s", lambda: own.get("session", 0.0) + own.get("grid", 0.0),
         ("session", "grid")),
        ("experiments.coherence_s", "s", lambda: busy["coherence"], ("coherence",)),
        ("irs.ticks", "count", lambda: ticks, ("session",)),
        ("irs.changes", "count", lambda: changes, ("session",)),
        ("irs.change_ratio", "ratio", lambda: _ratio(changes, ticks), ("session",)),
        ("irs.step_s", "s", lambda: busy["step"], ("step",)),
        ("sensing.observe_cells", "count", lambda: cells, ("session",)),
        ("sensing.observe_s", "s", lambda: busy["observe"], ("observe",)),
        ("sensing.cells_per_s", "1/s", lambda: _ratio(cells, busy["observe"]), ("observe",)),
        ("sensing.select_s", "s", lambda: busy["select"], ("select",)),
        ("sensing.threshold_s", "s", lambda: busy["threshold"], ("threshold",)),
        ("sensing.roc_s", "s", lambda: busy["roc"], ("roc",)),
        ("io.trace_rows", "count", lambda: file_counts.get("io.trace_rows", 0) / n_iter, ()),
        ("io.trace_bytes", "bytes", lambda: trace_bytes, ()),
        ("io.export_trace_s", "s", lambda: busy["export_trace"], ("export_trace",)),
        ("io.ingest_trace_s", "s", lambda: busy["ingest_trace"], ("ingest_trace",)),
        ("io.export_mb_per_s", "MB/s", lambda: _ratio(trace_bytes / 1e6, busy["export_trace"]),
         ("export_trace",)),
        ("io.ingest_mb_per_s", "MB/s", lambda: _ratio(ingest_mb, busy["ingest_trace"]),
         ("ingest_trace",)),
        ("io.observation_s", "s", lambda: busy["observation"], ("observation",)),
        ("io.config_s", "s", lambda: busy["config"], ("config",)),
        ("cli.self_s", "s", lambda: own.get("main", 0.0) + own.get("command", 0.0),
         ("main", "command")),
        ("cli.manifest_s", "s", lambda: busy["manifest"], ("manifest",)),
        ("bench.traced_wall_s", "s", lambda: statistics.median(traced), ()),
        ("bench.trace_overhead_s", "s",
         lambda: statistics.median(traced) - statistics.median(untraced), ()),
    ]
    return {name: {"value": float(value()) if not groups or tracer.present.intersection(groups)
                   else None, "unit": unit}
            for name, unit, value, groups in table}


def unattributed_share(tracer, raw_wall_total):
    """Share of the traced wall time that no span's self time covers."""
    return (raw_wall_total - sum(tracer.layer_self[layer] for layer in LAYERS)) / raw_wall_total
