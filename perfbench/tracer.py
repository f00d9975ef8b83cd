"""Outside-in tracer for the ``slns`` modules.

The tracer times the library from the benchmark's side: it replaces public
functions and methods with wrappers that record a span per call, and puts
the originals back on :meth:`Tracer.uninstall`. A function imported by name
into another module (``solver`` binds ``weber_velocity`` itself, ``recovery``
binds ``translate_batch``) is replaced at every module binding that holds
it, so a call is seen where the caller looks the name up. Methods are
replaced on their class.

Each span is ``(name, start, end, parent, step)``; ``parent`` indexes the
enclosing span (``-1`` for a step span) and ``step`` is the traced step.
Spans and counts stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, function) -> span name; replaced at every slns binding that holds it
FUNCTIONS = {
    ("slns.recovery", "weber_velocity"): "recovery.velocity",
    ("slns.recovery", "burgers_velocity"): "recovery.velocity",
    ("slns.recovery", "transported_vorticity_2d"): "recovery.vorticity",
    ("slns.recovery", "probe_spread"): "recovery.probe",
    ("slns.flowmap", "translate_batch"): "flowmap.translate",
    ("slns.flowmap", "invert_core"): "flowmap.invert_core",
    ("slns.spectral", "shift_mean_multiplier"): "spectral.chi",
}

# (module, class, method) -> span name; replaced on the class
METHODS = {
    ("slns.wiener", "WienerEnsemble", "increments"): "wiener.increments",
    ("slns.flowmap", "FlowEnsemble", "advanced"): "flowmap.advance",
    ("slns.flowmap", "FlowEnsemble", "invert"): "flowmap.invert",
    ("slns.flowmap", "FlowEnsemble", "max_det_deviation"): "flowmap.det",
    ("slns.interp", "FieldInterpolator", "__init__"): "interp.prefilter",
    ("slns.interp", "FieldInterpolator", "at"): "interp.at",
    ("slns.spectral", "SpectralWorkspace", "fft"): "spectral.fft",
    ("slns.spectral", "SpectralWorkspace", "ifft"): "spectral.fft",
}

MODULES = ("solver", "wiener", "flowmap", "recovery", "spectral", "interp")

_ORIGINAL = "_perfbench_original"


def _slns_modules():
    return [m for name, m in list(sys.modules.items()) if name == "slns" or name.startswith("slns.")]


def installed_wrappers() -> list[str]:
    """Every tracer wrapper still bound in an slns module or class."""
    found = []
    for mod in _slns_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _ORIGINAL):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, _ORIGINAL)
                ]
    return found


class Tracer:
    """Records spans and counts for calls made inside :meth:`begin_step` /
    :meth:`end_step` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._bindings: list[tuple[object, str, object]] = []
        self._step = -1
        self._filtered: set = set()
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self._t0, None, parent, self._step])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter() - self._t0
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[self._step][key] += n

    def begin_step(self, step: int) -> None:
        self._step = step
        self.counts[step] = Counter()
        self._filtered = set()
        self._enter("solver.step")

    def end_step(self, failed: bool) -> None:
        if failed:
            self.errors["solver"] += 1
        # an exception may leave wrapped spans open; close them with the step
        while self._stack:
            self._exit(self._stack[-1])
        self._step = -1

    # -- counters attached to particular wrappers ------------------------------

    def _on_call(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "flowmap.advance":
            self._count("solver.picard_passes")
        elif name == "flowmap.invert_core":
            self._count("flowmap.invert_core_calls")
        elif name == "spectral.chi":
            self._count("spectral.chi_calls")
        elif name == "spectral.fft":
            self._count("spectral.fft_calls")
            self._count("spectral.fft_points", int(np.size(args[1])))
        elif name == "interp.at":
            points = args[1] if len(args) > 1 else kwargs["points"]
            n = int(np.prod(np.shape(points)[1:]))
            self._count("interp.at_points", n)
            if self._open["flowmap.invert"]:
                self._count("flowmap.invert_interp_points", n)
        elif name == "interp.prefilter":
            order = args[3] if len(args) > 3 else kwargs.get("order", 3)
            if order == 1:
                return
            values = args[2] if len(args) > 2 else kwargs["values"]
            data = np.ascontiguousarray(values, dtype=np.float64)
            key = (order, data.shape, hashlib.blake2b(data.tobytes(), digest_size=16).digest())
            self._count("interp.prefilter_calls")
            if key in self._filtered:
                self._count("interp.prefilter_repeats")
            self._filtered.add(key)

    def _wrap(self, name: str, fn):
        tracer = self
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._step < 0:
                return fn(*args, **kwargs)
            tracer._on_call(name, args, kwargs)
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[module] += 1
                raise
            finally:
                tracer._exit(idx)

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _slns_modules()
        for (mod_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for (mod_name, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            self._bindings.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings = []

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, scale: dict[int, float]) -> dict[str, float]:
        """Per-step means over the steps keyed in ``scale``: inclusive
        ``<layer>_ms`` times (each span's duration multiplied by its step's
        scale), counts, the step's self time and the error counts."""
        wanted = scale.keys()
        n = len(wanted)
        inclusive: Counter = Counter()
        child_time: Counter = Counter()
        step_time = 0.0
        for name, start, end, parent, step in self.spans:
            if step not in wanted:
                continue
            dur = (end - start) * scale[step]
            if parent < 0:
                step_time += dur
                continue
            child_time[parent] += dur
            if not self._nested_in_same(parent, name):
                inclusive[name] += dur
        roots_children = sum(t for idx, t in child_time.items() if self.spans[idx][3] < 0)
        counts: Counter = Counter()
        for step in wanted:
            counts.update(self.counts.get(step, {}))

        out = {"solver.step_self_ms": 1e3 * (step_time - roots_children) / n}
        for name in (
            "wiener.increments",
            "flowmap.advance",
            "flowmap.invert",
            "flowmap.translate",
            "flowmap.det",
            "recovery.velocity",
            "recovery.vorticity",
            "recovery.probe",
            "spectral.chi",
            "spectral.fft",
            "interp.at",
            "interp.prefilter",
        ):
            out[f"{name}_ms"] = 1e3 * inclusive[name] / n
        for key in (
            "solver.picard_passes",
            "flowmap.invert_core_calls",
            "flowmap.invert_interp_points",
            "spectral.chi_calls",
            "spectral.fft_calls",
            "spectral.fft_points",
            "interp.at_points",
            "interp.prefilter_calls",
        ):
            out[key] = counts[key] / n
        out["interp.prefilter_repeat_share"] = counts["interp.prefilter_repeats"] / max(
            counts["interp.prefilter_calls"], 1
        )
        for module in MODULES:
            out[f"{module}.errors"] = float(self.errors[module])
        return out

    def _nested_in_same(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        """Write spans and per-step counts as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(
                    json.dumps({"span": name, "start": start, "end": end, "parent": parent, "step": step})
                    + "\n"
                )
            for step, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"step": step, "counts": dict(counts)}) + "\n")
