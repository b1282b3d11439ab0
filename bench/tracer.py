"""Layer tracing for the benchmark, applied from outside the package.

``Tracer.install`` wraps the public functions of the layer modules (and the
engine's methods) and rebinds every name under which a ``reservematch``
module holds them, so calls between modules go through the wrappers too.
Ordinary calls become spans (name, start, end, parent) kept in memory; the
inner-loop calls listed in ``COUNTED`` only add to per-name counters and to
their caller's child time, because a span per call would cost more than the
call. Self time (a span minus its child spans and counted calls) is summed
per layer bucket as spans close. ``uninstall`` restores every binding.

Nothing under ``src/`` is changed; untraced runs install nothing.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# Layer modules whose public functions are wrapped. ``bits`` in ``_engine``
# is a lazy generator, so its cost stays with its caller.
LAYER_MODULES = (
    "generator",
    "fileio",
    "instance",
    "_engine",
    "cop",
    "choice",
    "verification",
    "incentives",
    "cli",
)

# Engine methods wrapped on their classes: (class name, method name).
ENGINE_METHODS = (
    ("Compiled", "__init__"),
    ("Compiled", "from_instance"),
    ("Compiled", "with_preferences"),
    ("Compiled", "to_mask"),
    ("Compiled", "to_set"),
    ("Compiled", "default_order_rank"),
    ("Compiled", "order_rank"),
    ("Compiled", "cop"),
    ("Compiled", "proposable"),
    ("CompiledSchool", "choose"),
    ("CompiledSlotSchool", "choose"),
)

# Inner-loop calls: counted and timed in aggregate, never recorded as spans.
COUNTED = frozenset(
    {
        "engine.CompiledSchool.choose",
        "engine.CompiledSlotSchool.choose",
        "choice.dynamic_reserves_choice",
        "choice.completion_choice",
    }
)

# Span name -> layer bucket. Names not listed fall into "<module>.other".
BUCKETS = {
    "fileio.load_instance": "fileio.load",
    "fileio.load_allocation": "fileio.load",
    "fileio.load_slot_market": "fileio.load",
    "fileio.instance_from_document": "fileio.load",
    "fileio.ex1_path": "fileio.load",
    "fileio.save_instance": "fileio.save",
    "fileio.save_allocation": "fileio.save",
    "fileio.save_slot_market": "fileio.save",
    "fileio.instance_to_document": "fileio.save",
    "instance.validate_instance": "instance.validate",
    "engine.Compiled.__init__": "engine.compile",
    "engine.Compiled.from_instance": "engine.compile",
    "engine.Compiled.default_order_rank": "engine.order_rank",
    "engine.Compiled.order_rank": "engine.order_rank",
    "engine.Compiled.cop": "engine.cop",
    "engine.CompiledSchool.choose": "engine.choose",
    "engine.CompiledSlotSchool.choose": "engine.choose",
    "cop.run_cop_default": "cop.run_cop_default",
    "cop.check_order_independence": "cop.order_independence",
    "choice.dynamic_reserves_choice": "choice.reference",
    "choice.completion_choice": "choice.reference",
    "verification.is_stable": "verification.is_stable",
    "verification.find_blocking_set": "verification.blocking",
    "verification.check_irc": "verification.axioms",
    "verification.check_substitutability": "verification.axioms",
    "verification.check_lad": "verification.axioms",
    "verification.check_completion": "verification.axioms",
    "verification.choice_handle": "verification.axioms",
    "verification.completion_handle": "verification.axioms",
    "incentives.find_profitable_misreport": "incentives.misreport",
    "incentives.find_group_misreport": "incentives.misreport",
    "incentives.preference_space_size": "incentives.misreport",
    "incentives.check_respects_improvements": "incentives.improvement",
    "incentives.is_unambiguous_improvement": "incentives.improvement",
    "incentives.school_priorities": "incentives.improvement",
    "incentives.check_flexibility_pareto": "incentives.flexibility",
    "incentives.improvement_chains": "incentives.flexibility",
    "incentives.is_more_flexible": "incentives.flexibility",
    "incentives.allocation_waste": "incentives.flexibility",
}
for _generator_fn in (
    "generate_random_instance",
    "generate_school_pool",
    "generate_slot_specific_school",
    "single_swap_improvement",
    "unit_flexibility_pair",
):
    BUCKETS[f"generator.{_generator_fn}"] = "generator.generate"

# Functions whose instance file size feeds ``fileio.instance_bytes``.
SIZED = ("fileio.load_instance", "fileio.save_instance")

_CHOOSE = ("engine.CompiledSchool.choose", "engine.CompiledSlotSchool.choose")
_COP = ("engine.Compiled.cop",)

# Per-layer metric -> how it is computed from a snapshot delta:
#   ("self", bucket)                  summed self time of the bucket, seconds
#   ("calls", names)                  calls of the named functions
#   ("calls_under", names, bucket)    calls whose nearest enclosing span is in bucket
#   ("bytes",)                        instance file bytes read or written
LAYER_METRICS = {
    "generator.generate_s": ("self", "generator.generate"),
    "fileio.save_s": ("self", "fileio.save"),
    "fileio.load_s": ("self", "fileio.load"),
    "fileio.instance_bytes": ("bytes",),
    "instance.validate_s": ("self", "instance.validate"),
    "instance.validate_calls": ("calls", ("instance.validate_instance",)),
    "engine.compile_s": ("self", "engine.compile"),
    "engine.compile_calls": ("calls", ("engine.Compiled.__init__",)),
    "engine.order_rank_s": ("self", "engine.order_rank"),
    "engine.cop_s": ("self", "engine.cop"),
    "engine.cop_calls": ("calls", _COP),
    "engine.choose_s": ("self", "engine.choose"),
    "engine.choose_calls": ("calls", _CHOOSE),
    "cop.run_cop_default_s": ("self", "cop.run_cop_default"),
    "cop.order_independence_s": ("self", "cop.order_independence"),
    "choice.reference_s": ("self", "choice.reference"),
    "choice.reference_calls": (
        "calls",
        ("choice.dynamic_reserves_choice", "choice.completion_choice"),
    ),
    "verification.is_stable_s": ("self", "verification.is_stable"),
    "verification.blocking_s": ("self", "verification.blocking"),
    "verification.blocking_candidates": ("calls_under", _CHOOSE, "verification.blocking"),
    "verification.axioms_s": ("self", "verification.axioms"),
    "incentives.misreport_s": ("self", "incentives.misreport"),
    "incentives.misreport_cop_calls": ("calls_under", _COP, "incentives.misreport"),
    "incentives.improvement_s": ("self", "incentives.improvement"),
    "incentives.flexibility_s": ("self", "incentives.flexibility"),
    "cli.self_s": ("self", "cli"),
}


def bucket_of(name: str) -> str:
    if name.startswith("cli."):
        return "cli"
    return BUCKETS.get(name, name.split(".", 1)[0] + ".other")


class Snapshot:
    """Cumulative per-bucket self time, per-(name, parent bucket) call counts
    and instance bytes at one moment."""

    def __init__(self, self_s: dict, calls: dict, instance_bytes: int):
        self.self_s = self_s
        self.calls = calls
        self.instance_bytes = instance_bytes

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(
            {k: v - other.self_s.get(k, 0.0) for k, v in self.self_s.items()},
            {k: v - other.calls.get(k, 0) for k, v in self.calls.items()},
            self.instance_bytes - other.instance_bytes,
        )

    def metrics(self) -> dict:
        out = {}
        for metric, (kind, *spec) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = self.self_s.get(spec[0], 0.0)
            elif kind == "calls":
                out[metric] = sum(n for (name, _), n in self.calls.items() if name in spec[0])
            elif kind == "calls_under":
                names, parent = spec
                out[metric] = sum(
                    n for (name, under), n in self.calls.items() if name in names and under == parent
                )
            else:
                out[metric] = self.instance_bytes
        return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._bucket_names: list[str] = []
        self._bucket_index: dict[str, int] = {}
        self._self_s: list[float] = []
        self._calls: dict[tuple[int, int], int] = {}
        self.instance_bytes = 0
        # open spans, innermost last: [span id, bucket id, child seconds]
        self._stack: list[list] = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _bucket(self, bucket: str) -> int:
        if bucket not in self._bucket_index:
            self._bucket_index[bucket] = len(self._bucket_names)
            self._bucket_names.append(bucket)
            self._self_s.append(0.0)
        return self._bucket_index[bucket]

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        bid = self._bucket(bucket_of(name))
        stack = self._stack
        calls = self._calls
        self_s = self._self_s

        if name in COUNTED:

            def counted(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    self_s[bid] += took
                    if stack:
                        top = stack[-1]
                        top[2] += took
                        key = (nid, top[1])
                    else:
                        key = (nid, -1)
                    calls[key] = calls.get(key, 0) + 1

            return counted

        sized = _path_getter(fn) if name in SIZED else None

        def spanned(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            if stack:
                parent = stack[-1]
                parent_id, parent_bucket = parent[0], parent[1]
            else:
                parent, parent_id, parent_bucket = None, -1, -1
            frame = [sid, bid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self_s[bid] += took - frame[2]
                if parent is not None:
                    parent[2] += took
                key = (nid, parent_bucket)
                calls[key] = calls.get(key, 0) + 1
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_parent.append(parent_id)
                self.span_start.append(start)
                self.span_end.append(end)
                if sized is not None:
                    path = sized(args, kwargs)
                    if os.path.isfile(path):
                        self.instance_bytes += os.path.getsize(path)

        return spanned

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever the package
        binds it."""
        wrappers: dict[object, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"reservematch.{short}"]
            layer = short.lstrip("_")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "reservematch" and not modname.startswith("reservematch."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        engine = sys.modules["reservematch._engine"]
        for cls_name, meth in ENGINE_METHODS:
            cls = getattr(engine, cls_name)
            raw = cls.__dict__[meth]
            name = f"engine.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._patch(cls, meth, self._wrap(raw, name))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> Snapshot:
        return Snapshot(
            {b: self._self_s[i] for i, b in enumerate(self._bucket_names)},
            {
                (self.names[nid], self._bucket_names[pb] if pb >= 0 else None): n
                for (nid, pb), n in self._calls.items()
            },
            self.instance_bytes,
        )

    def write(self, path, extra: dict) -> None:
        """Write every span and the per-bucket totals as one JSON document."""
        snap = self.snapshot()
        calls: dict[str, int] = {}
        for (name, _), n in snap.calls.items():
            calls[name] = calls.get(name, 0) + n
        doc = {
            **extra,
            "names": self.names,
            "spans": {
                "id": self.span_id.tolist(),
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
            "bucket_self_s": snap.self_s,
            "calls": calls,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _path_getter(fn):
    signature = inspect.signature(fn)

    def path_of(args, kwargs):
        return signature.bind(*args, **kwargs).arguments["path"]

    return path_of
