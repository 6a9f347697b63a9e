"""In-memory spans around the public functions of each ``mrfmap`` layer.

A traced run replaces layer functions by wrappers that record a span
(name, start, end, parent, run id, attributes) for every call, including the
calls one layer makes into another: ``build_dictionary`` looks up
``simulate_fingerprints`` in its own module, so the wrapper is installed
under every module name that code resolves at call time. The originals are
restored when the ``instrument`` block ends. No file under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

from mrfmap import dictionary, epg, schedule
from mrfmap.nn import adam, backprop, checkpoint, models

from mrfbench.workloads import p90

MODEL_TAGS = {"rnn_regressor": "gru", "ann": "ann", "cnn1d": "cnn"}


def model_tag(spec) -> str:
    if spec.kind == "rnn_regressor":
        return spec.cell_kind
    return MODEL_TAGS[spec.kind]


def params_tag(params) -> str:
    """Model tag from a parameter dict's first key (``cell.w``, ``fc1.w``, ...)."""
    first = next(iter(params))
    return {"cell": "gru", "fc1": "ann", "conv1": "cnn"}[first.split(".")[0]]


def _epg_attrs(params_list, sched, *_, **__):
    return "epg", {"atoms": len(params_list), "n": sched.n_excitations}


def _match_batch_attrs(d, queries, *_, **__):
    return "dictionary.match_batch", {
        "queries": len(queries), "atoms": d.n_atoms, "n": d.n_samples}


def _model_attrs(layer):
    def attrs(spec, params, signals, *_, **__):
        return f"{layer}.{model_tag(spec)}", {
            "signals": 1 if signals.ndim == 1 else len(signals),
            "steps": spec.n_steps if spec.kind == "rnn_regressor" else 0}
    return attrs


def _backprop_attrs(layer):
    def attrs(spec, *_, **__):
        return f"{layer}.{model_tag(spec)}", {}
    return attrs


def _adam_attrs(state, params, grads):
    return f"nn.adam.adam_update.{params_tag(params)}", {
        "params": sum(p.size for p in params.values())}


def _fixed(name):
    return lambda *_, **__: (name, {})


# (module, attribute, span naming) for every name a layer is called through.
TARGETS = [
    (schedule, "schedule_digest", _fixed("schedule.digest")),
    (dictionary, "schedule_digest", _fixed("schedule.digest")),
    (epg, "simulate_fingerprints", _epg_attrs),
    (dictionary, "simulate_fingerprints", _epg_attrs),
    (dictionary, "build_dictionary", _fixed("dictionary.build")),
    (dictionary, "save_dictionary", _fixed("dictionary.save")),
    (dictionary, "load_dictionary", _fixed("dictionary.load")),
    (dictionary, "match", _fixed("dictionary.match")),
    (dictionary, "match_batch", _match_batch_attrs),
    (models, "predict_batch", _model_attrs("nn.models.predict_batch")),
    (models, "predict_single", _model_attrs("nn.models.predict_single")),
    (models, "forward_batch", _model_attrs("nn.models.forward_batch")),
    (backprop, "forward_batch", _model_attrs("nn.models.forward_batch")),
    (backprop, "loss_and_grads", _backprop_attrs("nn.backprop.loss_and_grads")),
    (backprop, "backward", _backprop_attrs("nn.backprop.backward")),
    (adam, "adam_update", _adam_attrs),
    (checkpoint, "save_checkpoint", _fixed("nn.checkpoint.save")),
    (checkpoint, "load_checkpoint", _fixed("nn.checkpoint.load")),
]


class Tracer:
    """Collects spans in memory; ``dump`` writes them as JSON lines."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _wrap(self, fn, naming):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, attrs = naming(*args, **kwargs)
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Install the span wrappers for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, naming), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(fn, naming))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    children = sorted((s["start"], s["end"]) for s in spans
                      if s["parent"] == span["id"])
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in children:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return duration(span) - covered


def root_of(span: dict, spans: list[dict]) -> dict:
    while span["parent"] is not None:
        span = spans[span["parent"]]
    return span


def layer_metrics(spans: list[dict], extras: dict) -> dict:
    """Per-layer numbers from the spans of one traced run.

    Timed-region figures come from spans under ``round`` roots; the
    ``setup.*`` figures from spans under ``setup`` roots. ``extras`` holds
    values measured outside spans (file sizes, check counts, overhead).
    """
    timed = [s for s in spans if root_of(s, spans)["name"] == "round"
             and s["name"] != "round"]
    setup = [s for s in spans if root_of(s, spans)["name"] == "setup"
             and s["name"] != "setup"]

    def named(group, name):
        return [s for s in group if s["name"] == name]

    def busy(name, group=timed):
        return sum(duration(s) for s in named(group, name))

    def p50_ms(name):
        d = [duration(s) for s in named(timed, name)]
        return 1e3 * statistics.median(d) if d else 0.0

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    epg_spans = named(timed, "epg")
    atoms = sum(s["atoms"] for s in epg_spans)
    excitations = sum(s["atoms"] * s["n"] for s in epg_spans)
    m["epg.calls"] = (len(epg_spans), "count")
    m["epg.atoms"] = (atoms, "count")
    m["epg.busy_s"] = (busy("epg"), "s")
    m["epg.atoms_per_s"] = (per(atoms, busy("epg")), "atoms/s")
    m["epg.ns_per_atom_excitation"] = (1e9 * per(busy("epg"), excitations), "ns")
    m["schedule.digest.busy_s"] = (busy("schedule.digest"), "s")

    m["dictionary.build.busy_s"] = (busy("dictionary.build"), "s")
    m["dictionary.build.self_s"] = (
        sum(self_time(s, spans) for s in named(timed, "dictionary.build")), "s")
    m["dictionary.save.busy_s"] = (busy("dictionary.save"), "s")
    m["dictionary.load.busy_s"] = (busy("dictionary.load"), "s")
    m["dictionary.file_bytes"] = (extras["dictionary.file_bytes"], "bytes")
    m["dictionary.atoms_resident_bytes"] = (
        extras["dictionary.atoms_resident_bytes"], "bytes")

    mb = named(timed, "dictionary.match_batch")
    queries = sum(s["queries"] for s in mb)
    flops = sum(2.0 * s["atoms"] * s["n"] * s["queries"] for s in mb)
    mb_busy = busy("dictionary.match_batch")
    m["dictionary.match_batch.busy_s"] = (mb_busy, "s")
    m["dictionary.match_batch.queries_per_s"] = (per(queries, mb_busy), "1/s")
    m["dictionary.match_batch.effective_gflops"] = (
        1e-9 * per(flops, mb_busy), "GFLOP/s")
    one = [duration(s) for s in named(timed, "dictionary.match")]
    m["dictionary.match.samples"] = (len(one), "count")
    m["dictionary.match.p50_ms"] = (p50_ms("dictionary.match"), "ms")
    m["dictionary.match.p90_ms"] = (1e3 * p90(one) if len(one) > 1 else 0.0, "ms")
    m["dictionary.match.rejected"] = (extras["dictionary.match.rejected"], "count")
    m["dictionary.match.naive_agree_frac"] = (
        extras["dictionary.match.naive_agree_frac"], "ratio")

    for tag in ("gru", "ann", "cnn"):
        name = f"nn.models.predict_batch.{tag}"
        spans_pb = named(timed, name)
        signals = sum(s["signals"] for s in spans_pb)
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.signals_per_s"] = (per(signals, busy(name)), "1/s")
        if tag == "gru":
            steps = sum(s["steps"] for s in spans_pb)
            m[f"{name}.us_per_step"] = (1e6 * per(busy(name), steps), "us")
    for tag in ("gru", "ann", "cnn"):
        name = f"nn.models.predict_single.{tag}"
        m[f"{name}.p50_ms"] = (p50_ms(name), "ms")
    for tag in ("gru", "ann", "cnn"):
        m[f"nn.models.forward_batch.{tag}.busy_s"] = (
            busy(f"nn.models.forward_batch.{tag}"), "s")
        m[f"nn.backprop.backward.{tag}.busy_s"] = (
            busy(f"nn.backprop.backward.{tag}"), "s")
        m[f"nn.backprop.loss_and_grads.{tag}.self_s"] = (
            sum(self_time(s, spans)
                for s in named(timed, f"nn.backprop.loss_and_grads.{tag}")), "s")
        m[f"nn.adam.adam_update.{tag}.busy_s"] = (
            busy(f"nn.adam.adam_update.{tag}"), "s")
    adam_spans = [s for s in timed if s["name"].startswith("nn.adam.")]
    m["nn.adam.ns_per_param"] = (
        1e9 * per(sum(duration(s) for s in adam_spans),
                  sum(s["params"] for s in adam_spans)), "ns")
    m["nn.checkpoint.save.busy_s"] = (busy("nn.checkpoint.save"), "s")
    m["nn.checkpoint.load.busy_s"] = (busy("nn.checkpoint.load"), "s")
    m["nn.checkpoint.file_bytes"] = (extras["nn.checkpoint.file_bytes"], "bytes")

    m["setup.epg.busy_s"] = (busy("epg", setup), "s")
    m["setup.schedule.digest.busy_s"] = (busy("schedule.digest", setup), "s")
    m["setup.dictionary.build.busy_s"] = (busy("dictionary.build", setup), "s")
    m["trace.overhead_frac"] = (extras["trace.overhead_frac"], "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
