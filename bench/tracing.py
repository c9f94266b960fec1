"""Span tracer for the kgbohm modules, installed from outside the program.

`Tracer.install()` wraps every function named in a layer module's
`__all__` and every public `Superposition` method, and patches the wrapped
object into each `kgbohm` module namespace (and module-level dict) that
holds the original, so calls between modules are traced too. `FourVector`
operators stay unwrapped; their cost lands in the caller's self time.

Spans live in flat in-memory arrays (name, start, end, parent, run id,
raised) and are written out only by `write_csv`, after the traced run.
Tracing is single-threaded: run traced work with `--workers 1`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "measure", "trajectory", "construction", "wavefield", "minkowski")


class Tracer:
    def __init__(self, sample_args: dict[str, int] | None = None):
        self.names: list[str] = []  # span name index -> "layer.function"
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.run_ids = array("q")
        self.raised = array("b")
        self.run_id = 0
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # "layer.function" -> how many calls' arguments to keep for replay
        self._sample_limits = dict(sample_args or {})
        self.samples: dict[str, list[tuple]] = {k: [] for k in self._sample_limits}
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, run_ids, raised, stack = self.parents, self.run_ids, self.raised, self._stack
        clock = time.perf_counter
        keep = self.samples.get(name)
        limit = self._sample_limits.get(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            run_ids.append(self.run_id)
            raised.append(0)
            ends.append(0.0)
            if keep is not None and len(keep) < limit:
                keep.append((args, kwargs))
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        import kgbohm

        modules = {
            layer: importlib.import_module(f"kgbohm.{layer}") for layer in LAYERS
        }
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        sup = modules["wavefield"].Superposition
        for attr, obj in list(vars(sup).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                new = self._wrap(f"wavefield.Superposition.{attr}", obj)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(f"wavefield.Superposition.{attr}", obj.__func__))
            else:
                continue
            self._set(sup, attr, new)
        namespaces = [kgbohm, *modules.values()]
        namespaces += [m for m in vars(kgbohm).values() if inspect.ismodule(m) and m not in namespaces]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            self._set(obj, key, replace[id(val)])

    def _set(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patched.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patched.clear()

    # ---- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.starts)
        names = np.array(self.name_ids, dtype=np.int64)
        start = np.array(self.starts, dtype=np.float64)
        end = np.array(self.ends, dtype=np.float64)
        parent = np.array(self.parents, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        layer_of_name = np.array(
            [LAYERS.index(nm.split(".", 1)[0]) for nm in self.names] or [0], dtype=np.int64
        )
        return {
            "name": names,
            "layer": layer_of_name[names] if n else names,
            "start": start,
            "end": end,
            "parent": parent,
            "dur": dur,
            "self": dur - child,
            "raised": np.array(self.raised, dtype=bool),
        }

    def name_mask(self, a: dict, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(a["name"]), dtype=bool)
        return a["name"] == self.names.index(name)

    def write_csv(self, path: Path) -> None:
        a = self.arrays()
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,run,raised\n")
            t0 = a["start"].min() if len(a["start"]) else 0.0
            for i in range(len(a["name"])):
                fh.write(
                    f"{i},{self.names[a['name'][i]]},{a['start'][i] - t0:.9f},"
                    f"{a['end'][i] - t0:.9f},{a['parent'][i]},{self.run_ids[i]},"
                    f"{int(a['raised'][i])}\n"
                )
