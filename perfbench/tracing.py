"""Run-time spans and counters around calls into trialg's layers.

``Tracer.install`` wraps public (and a few boundary) functions of trialg's
modules in place, in every module namespace that bound them, so calls made
inside the program are caught too.  Each wrapped call is a span; a layer's
self time is its spans' duration minus the part covered by child spans.
Only the traced run installs it; the timed runs carry no wrappers.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# layer -> (module, attribute names); the layer names are the reported metric prefixes
LAYERS = {
    "io.parse": ("io", ("_load_json",)),
    "algcore.build": ("io", ("algebra_from_json", "bimodule_from_json", "triangular_from_json",
                             "linmap_from_json", "bilinmap_from_json")),
    "sigmamaps.aut_check": ("sigmamaps", ("require_automorphism",)),
    "sigmamaps.verify": ("sigmamaps", ("classify_linear", "classify_bilinear")),
    "spaces.solve": ("spaces", ("solve_space",)),
    "classify.check": ("classify", ("extremal_split", "inner_biderivation_witness",
                                    "innerness_hypotheses", "commuting_blocks", "properness",
                                    "endo_blocks", "endo_mono_epi", "partible_witness",
                                    "partibility_sufficient")),
    "cli.emit": ("cli", ("_emit", "_report")),
    "cli.emit.json": ("io", ("canonical_json",)),
}


class Tracer:
    def __init__(self):
        self.stack = []  # [layer, start_ns, child_ns, span_index]
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.input_bytes = 0
        self.spans: list | None = []  # kept for the first round only
        self._undo = []

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "io.parse" and args:
                try:
                    tracer.input_bytes += os.path.getsize(args[0])
                except OSError:
                    pass
            tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            idx = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def open(self, layer):
        now = time.perf_counter_ns()
        idx = None
        if self.spans is not None:
            parent = self.stack[-1][3] if self.stack else None
            idx = len(self.spans)
            self.spans.append({"name": layer, "start_ns": now, "end_ns": None, "parent": parent})
        self.stack.append([layer, now, 0, idx])
        return idx

    def close(self, idx):
        now = time.perf_counter_ns()
        layer, start, child, _ = self.stack.pop()
        dur = now - start
        self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx is not None and self.spans is not None:
            self.spans[idx]["end_ns"] = now

    def install(self):
        for modname, _ in LAYERS.values():
            importlib.import_module("trialg." + modname)
        mods = {name[len("trialg."):]: m for name, m in sys.modules.items()
                if name.startswith("trialg.") and m is not None}
        for layer, (modname, attrs) in LAYERS.items():
            for attr in attrs:
                orig = getattr(mods[modname], attr)
                wrapped = self._wrap(layer, orig)
                for m in mods.values():
                    if getattr(m, attr, None) is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))
        space_cls = mods["spaces"].MapSpace
        orig = space_cls.to_json
        space_cls.to_json = self._wrap("cli.emit", orig)
        self._undo.append((space_cls, "to_json", orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def ms(self, *layers):
        return sum(self.self_ns.get(layer, 0) for layer in layers) / 1e6
