"""Span tracer that measures the package's layers from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper in
every ``qutrit_pingpong`` module namespace that binds it, so calls through
imported names (``protocol.mub``, ``cli.run``) and intra-module globals are
all seen. A span records id, name, start, end, parent id, repetition id and
the exception type if one escaped. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute) pairs; a dotted attribute is a method patched on its class.
TARGETS = (
    ("cli", "main"),
    ("protocol", "load_protocol_config"),
    ("protocol", "run"),
    ("protocol", "attack_state"),
    ("protocol", "control_distribution"),
    ("protocol", "decode_distribution"),
    ("protocol", "write_transcript"),
    ("protocol", "RunReport.to_json"),
    ("qutrit", "mub"),
    ("qutrit", "coding_unitary"),
    ("qutrit", "bell_state"),
    ("qutrit", "control_correlations"),
    ("qutrit", "solve_cubic"),
    ("attack", "complete_circulant"),
    ("attack", "verify_reference_attacks"),
    ("information", "info_curve"),
    ("information", "holevo_information"),
    ("information", "factorized_eigenvalues"),
)

NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counted at the boundary where it happens: name -> (counter, fn(args, kwargs, result)).
COUNTERS = {
    "protocol.run": ("cycles", lambda a, k, r: _arg(a, k, 0, "config").cycles),
    "protocol.write_transcript": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "information.info_curve": ("points", lambda a, k, r: len(r)),
}


class Tracer:
    def __init__(self, rep: int = 0):
        self.rep = rep
        self.enabled = True
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count()

    def install(self) -> None:
        homes = {m: importlib.import_module(f"qutrit_pingpong.{m}") for m, _ in TARGETS}
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "qutrit_pingpong"]
        for (module, attr), name in zip(TARGETS, NAMES):
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(homes[module], owner)
                setattr(cls, fname, self._wrap(name, getattr(cls, fname)))
                continue
            original = getattr(homes[module], fname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.rep, error))
            if counter:
                self.counts[(name, counter[0])] += counter[1](args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per name: calls, self and total seconds, escaped errors and counters.

        Self time is a span's duration minus that of its direct children;
        calls nest strictly on one thread, so children never overlap.
        """
        covered = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0} for name in NAMES}
        for span_id, name, start, end, _, _, error in self.spans:
            layer = layers[name]
            layer["calls"] += 1
            layer["total_s"] += (end - start) * 1e-9
            layer["self_s"] += (end - start - covered[span_id]) * 1e-9
            layer["errors"] += error is not None
        for (name, counter), value in self.counts.items():
            layers[name][counter] = value
        return layers

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "rep", "error"], "spans": self.spans}, fh)
