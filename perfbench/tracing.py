"""Span tracing of decolab from outside the package.

`Tracer.install` wraps the public functions of each layer module (and two
class boundaries: `LindbladGenerator` construction and every
`IsotropicAmplitude` call) and rebinds each wrapper in every decolab
namespace that holds the original, because modules import functions by name
(`cli` binds `F_vac`, `pointer_states` binds `dag`, ...). Each call records a
span: name, start, end, parent span, job id (round, job index), whether an
exception passed through it, and whether it is the outermost open span of its
module. Spans stay in memory, in flat typed arrays because hard-sphere
quadrature makes close to a million amplitude calls per round, and are
written when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dephasing", "collisional", "trajectories", "pointer_states",
          "lindblad", "operator_core", "weak_coupling", "channels", "units")
# (module, class, method, span name)
CLASS_HOOKS = (
    ("lindblad", "LindbladGenerator", "__init__", "lindblad.LindbladGenerator"),
    ("collisional", "IsotropicAmplitude", "__call__", "collisional.amp"),
)


class Tracer:
    def __init__(self):
        self.names = []            # span name per name id
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.round = array("H")
        self.job = array("H")
        self.error = array("B")
        self.outer = array("B")
        self.current = (0, 0)      # (round, job index) of the running job
        self._stack = []
        self._open = {}            # module -> open spans of that module
        self._undo = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        rounds, jobs, errors, outers = self.round, self.job, self.error, self.outer
        stack, open_layers = self._stack, self._open

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.current[0])
            jobs.append(self.current[1])
            depth = open_layers.get(layer, 0)
            outers.append(depth == 0)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            open_layers[layer] = depth + 1
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                open_layers[layer] = depth
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every layer's public functions in all decolab namespaces."""
        modules = {layer: importlib.import_module(f"decolab.{layer}")
                   for layer in LAYERS}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "decolab" or key.startswith("decolab.")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        for layer, cls_name, method, name in CLASS_HOOKS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "round": np.frombuffer(self.round, dtype=np.uint16),
                "job": np.frombuffer(self.job, dtype=np.uint16),
                "error": np.frombuffer(self.error, dtype=np.uint8),
                "outer": np.frombuffer(self.outer, dtype=np.uint8)}

    def write(self, path):
        """All spans as one compressed numpy archive; `names` maps name_id
        to the span name and parent -1 marks a job's root span."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self, round_index=None) -> dict:
        """Per-function calls, inclusive seconds and errors, plus per-module
        self seconds, busy seconds and errors leaving the module; over all
        spans or those of one round.

        Self time is a span's duration minus its children's durations (spans
        nest strictly in one thread); busy time sums the spans that have no
        open ancestor in the same module.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        keep = np.ones(dur.size, bool) if round_index is None \
            else a["round"] == round_index
        nid, dur, own = a["name_id"][keep], dur[keep], (dur - child)[keep]
        err, outer = a["error"][keep], a["outer"][keep].astype(bool)
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        secs = np.bincount(nid, weights=dur, minlength=n)
        errs = np.bincount(nid, weights=err, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {"calls": int(calls[i]), "s": float(secs[i]),
                             "errors": int(errs[i])}
        layers = sorted({name.split(".", 1)[0] for name in self.names})
        layer_of = np.array([layers.index(name.split(".", 1)[0])
                             for name in self.names], dtype=np.int64)
        lid = layer_of[nid] if nid.size else np.zeros(0, np.int64)
        self_s = np.bincount(lid, weights=own, minlength=len(layers))
        busy_s = np.bincount(lid[outer], weights=dur[outer], minlength=len(layers))
        layer_err = np.bincount(lid[outer], weights=err[outer], minlength=len(layers))
        layer_calls = np.bincount(lid, minlength=len(layers))
        for j, layer in enumerate(layers):
            if layer_calls[j]:
                out[layer] = {"self_s": float(self_s[j]), "busy_s": float(busy_s[j]),
                              "errors": int(layer_err[j])}
        return out
