"""Spans and per-layer counters recorded around the program's public functions.

The tracer replaces functions and methods of the lineactions modules with
wrappers for the length of a traced pass and puts the originals back after
it.  Every wrapped call records a span (name, start, end, parent) in memory,
adds its duration minus its children's to the layer's self time, and may add
counters read off its arguments and result.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 200_000        # spans kept for the trace file; counters see every call


def _sweep_counters(args, result):
    return {"states": sum(result.states_by_depth.values()), "words": result.total_words}


def _reduce_counters(args, result):
    word = args[0]
    nf = result[0] if isinstance(result, tuple) else result
    return {"letters": sum(abs(e) for _, e in word.syllables),
            "pinches": (word.t_count - nf.word.t_count) // 2}


def _estimate_counters(args, result):
    return {"iterates": result.iters}


def _solve_counters(args, result):
    return {"iterations": result.iterations, "grid_points": len(result.xs)}


# (layer, module, attribute path, counter hook); eval_enclosure is wrapped on
# every tree class that defines it, all under maps.enclosure
LAYERS = [
    ("maps.hermite_invert", "lineactions.maps", "HermitePiece.invert_enclosure", None),
    *[("maps.enclosure", "lineactions.maps", f"{cls}.eval_enclosure", None)
      for cls in ("AffineMap", "FundamentalDomainMap", "TrigPolyLift", "Compose",
                  "Inverse", "TranslateConjugate")],
    ("maps.trig_invert", "lineactions.maps", "TrigPolyLift.invert_float", None),
    ("maps.fourier_smooth", "lineactions.maps", "fourier_smooth", None),
    ("action.build", "lineactions.action", "build_action", None),
    ("action.verify_inclusions", "lineactions.action", "verify_inclusions", None),
    ("action.sweep", "lineactions.action", "sweep_certify", _sweep_counters),
    ("action.certify_word", "lineactions.action", "certify_word", None),
    ("words.reduce", "lineactions.words", "reduce", _reduce_counters),
    ("words.equal", "lineactions.words", "equal", None),
    ("circle.translation_estimate", "lineactions.circle", "translation_number_estimate",
     _estimate_counters),
    ("circle.mean_translation", "lineactions.circle", "mean_translation_number", None),
    ("rigidity.solve", "lineactions.rigidity", "solve_conjugacy", _solve_counters),
    ("rigidity.detect", "lineactions.rigidity", "detect_nonstandard", None),
]

# spans the benchmark opens itself, around calls that have no single entry point
OWN_SPANS = ["presentations.relation_check"]

# per-layer metrics in the order they are reported; (layer, field, unit)
METRICS = [
    ("maps.hermite_invert", "calls", "count"), ("maps.hermite_invert", "self_s", "s"),
    ("maps.enclosure", "calls", "count"), ("maps.enclosure", "self_s", "s"),
    ("maps.trig_invert", "calls", "count"), ("maps.trig_invert", "self_s", "s"),
    ("maps.fourier_smooth", "self_s", "s"),
    ("action.build", "self_s", "s"),
    ("action.verify_inclusions", "self_s", "s"),
    ("action.sweep", "self_s", "s"), ("action.sweep", "states", "count"),
    ("action.sweep", "words", "count"),
    ("action.certify_word", "calls", "count"), ("action.certify_word", "self_s", "s"),
    ("words.reduce", "calls", "count"), ("words.reduce", "self_s", "s"),
    ("words.reduce", "letters", "count"), ("words.reduce", "pinches", "count"),
    ("words.equal", "calls", "count"),
    ("presentations.relation_check", "calls", "count"),
    ("presentations.relation_check", "self_s", "s"),
    ("circle.translation_estimate", "self_s", "s"),
    ("circle.translation_estimate", "iterates", "count"),
    ("circle.mean_translation", "self_s", "s"),
    ("rigidity.solve", "self_s", "s"), ("rigidity.solve", "iterations", "count"),
    ("rigidity.solve", "grid_points", "count"),
    ("rigidity.detect", "self_s", "s"),
]


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []          # (name id, start, end, parent id, span id)
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list[list] = []          # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []         # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        return span_id, parent

    def _exit(self, name: str, span_id: int, parent: int, start: float, end: float):
        _, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.spans.append((name_id, start, end, parent, span_id))
        else:
            self.dropped += 1

    def span(self, name: str):
        """Context manager for a span the benchmark opens around its own calls."""
        return _Span(self, name)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, span_id, parent, start, time.perf_counter())
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function wherever a lineactions module refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lineactions" or k.startswith("lineactions."))]
        for name, module_name, path, hook in LAYERS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                if module is not owner and module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ----------------------------------------------------------
    def metrics(self, time_scale: float) -> dict:
        out = {}
        for layer, field, unit in METRICS:
            if field == "calls":
                value = self.calls[layer]
            elif field == "self_s":
                value = self.self_s[layer] * time_scale
            else:
                value = self.counters[f"{layer}.{field}"]
            out[f"{layer}.{field}"] = {"value": value, "unit": unit}
        return out

    def write(self, path, meta: dict) -> None:
        data = {"meta": {**meta, "spans_dropped": self.dropped,
                         "fields": ["name", "start", "end", "parent", "id"]},
                "names": self.names, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "ids", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.ids = self.tracer._enter()
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer._exit(self.name, *self.ids, self.start, time.perf_counter())
        return False
