"""Per-layer tracing by wrapping the package's public functions from outside.

A layer is one module of ``halfturn_ice``.  ``Tracer.install`` wraps every
public function of each layer module and the public methods and arithmetic
operators of the classes defined there.  Every binding of a wrapped object is
re-pointed, so names imported with ``from ... import`` (``icemodel.gen_asms``,
``cli.census``, ``enum_asm.stats`` ...) and class aliases (``__rmul__ =
__mul__``) go through the same wrapper.  ``Tracer.uninstall`` puts every
original back.

Each wrapped call adds to aggregated counters only; no per-call span is
kept, because leaves such as ``Cyclo.__mul__`` run hundreds of thousands of
times.  A stack of child-time accumulators gives self time: a call's
duration minus the part spent in wrapped callees.  A call that returns a
generator is timed over its iteration: every ``next`` is one timed step.
Outermost calls (no wrapped caller) are also kept as spans.
"""

from __future__ import annotations

import inspect
import time
import types
from collections import Counter

LAYERS = ("exactnum", "laurent", "asm", "enum_asm", "icemodel",
          "determinant", "formulas", "verify", "cli")

# Operators wrapped on classes; other dunders (__eq__, __hash__, __init__,
# __getitem__ ...) stay unwrapped and count as their caller's self time.
_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__pow__", "__truediv__", "__rtruediv__")

# Bindings created by ``from ... import`` that must go through a wrapper.
IMPORTED_BINDINGS = (("icemodel", "gen_asms"), ("icemodel", "to_state"),
                     ("cli", "census"), ("cli", "gen_asms"),
                     ("enum_asm", "as_asm"), ("enum_asm", "stats"))
OPERATOR_ALIASES = (("laurent", "LaurentPoly", "__rmul__", "__mul__"),
                    ("laurent", "LaurentPoly", "__radd__", "__add__"),
                    ("exactnum", "Cyclo", "__rmul__", "__mul__"),
                    ("exactnum", "Cyclo", "__radd__", "__add__"))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Functions whose stats split by an argument: key suffix from (args, kwargs).
_SPLIT = {
    "icemodel.partition_function":
        lambda a, k: "evaluated" if _arg(a, k, 1, "assignment") is not None else "symbolic",
    "enum_asm.gen_asms": lambda a, k: _arg(a, k, 1, "klass", "all"),
    "verify.run_suite": lambda a, k: _arg(a, k, 0, "suite_id"),
}


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _mul_counts(counts, key, args, result):
    counts[key + ".term_products"] += _terms(args[0]) * _terms(args[1])
    counts[key + ".terms_out"] += _terms(result)


def _exact_div_counts(counts, key, args, result):
    counts[key + ".quotient_terms"] += _terms(result)


def _state_counts(counts, key, args, result):
    counts[key + ".states"] += result.state_count


def _det_counts(counts, key, args, result):
    counts[key + ".ops"] += len(args[0]) ** 3


# Work counts taken from a call's arguments and result, by stats key.
_COUNTERS = {
    "laurent.mul": _mul_counts,
    "laurent.exact_div": _exact_div_counts,
    "icemodel.partition_function.evaluated": _state_counts,
    "determinant.det_exact": _det_counts,
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "items")

    def __init__(self):
        self.calls = 0
        self.s = 0.0    # inclusive time of outermost calls (recursion counted once)
        self.self_s = 0.0
        self.depth = 0
        self.items = 0  # values yielded, for calls that return a generator


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.layer_s = dict.fromkeys(LAYERS, 0.0)  # time inside a layer, entered from outside it
        self._layer_depth = dict.fromkeys(LAYERS, 0)
        self.spans: list[tuple[str, float, float]] = []
        self._stack = [0.0]  # child time of each open wrapped call; [0] is the root
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _timed_iter(self, it, st: Stat, layer: str):
        clock = time.perf_counter
        while True:
            self._enter(layer)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                st.self_s += self._leave(layer, dt)
                st.s += dt
            st.items += 1
            yield item

    def _enter(self, layer: str) -> None:
        self._stack.append(0.0)
        self._layer_depth[layer] += 1

    def _leave(self, layer: str, dt: float) -> float:
        """Close the innermost call; returns its self time."""
        stack = self._stack
        own = dt - stack.pop()
        stack[-1] += dt
        self.self_s[layer] += own
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.layer_s[layer] += dt
        return own

    def _wrap(self, fn, base: str, layer: str):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        enter, leave = self._enter, self._leave
        split = _SPLIT.get(base)
        fixed = None if split else self._stat(base)
        counters = self.counts

        def wrapper(*args, **kwargs):
            key = f"{base}.{split(args, kwargs)}" if split else base
            st = fixed or self._stat(key)
            outermost = len(stack) == 1
            enter(layer)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                st.self_s += leave(layer, dt)
                st.calls += 1
                st.depth -= 1
                if not st.depth:
                    st.s += dt
                if outermost:
                    spans.append((key, t0, t1))
            count = _COUNTERS.get(key)
            if count:
                count(counters, key, args, result)
            if isinstance(result, types.GeneratorType):
                return self._timed_iter(result, st, layer)
            return result

        wrapper.__name__ = getattr(fn, "__name__", base)
        wrapper.__qualname__ = getattr(fn, "__qualname__", base)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of ``package`` (the imported ``halfturn_ice``)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        owners = list(modules.values())
        targets = []  # (original, stats key, layer)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    owners.append(obj)
                    for mname, meth in vars(obj).items():
                        public = not mname.startswith("_") or mname in _OPERATORS
                        if public and inspect.isfunction(meth):
                            targets.append((meth, f"{layer}.{meth.__name__.strip('_')}", layer))
                elif callable(obj):
                    targets.append((obj, f"{layer}.{name}", layer))
        seen = set()
        for orig, key, layer in targets:
            if id(orig) in self._wrappers:
                continue
            if key in seen:
                raise RuntimeError(f"two traced functions share the key {key!r}")
            seen.add(key)
            self._wrappers[id(orig)] = self._wrap(orig, key, layer)
        for owner in owners:
            for name, obj in list(vars(owner).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((owner, name, obj))
                    setattr(owner, name, wrapper)
        # The half-turn generator's completions, counted at its own binding
        # so that its accept ratio has a denominator.
        enum_mod = modules["enum_asm"]
        inner = enum_mod.as_asm
        counts = self.counts

        def as_asm_attempt(*args, **kwargs):
            counts["enum_asm.as_asm.attempts"] += 1
            return inner(*args, **kwargs)

        as_asm_attempt.__perfbench_wrapped__ = inner
        self._patches.append((enum_mod, "as_asm", inner))
        enum_mod.as_asm = as_asm_attempt
        self._check_installed(modules)

    def _check_installed(self, modules) -> None:
        for layer, name in IMPORTED_BINDINGS:
            if not is_wrapped(getattr(modules[layer], name)):
                raise RuntimeError(f"{layer}.{name} is not intercepted")
        for layer, cls, alias, op in OPERATOR_ALIASES:
            owner = getattr(modules[layer], cls)
            if not is_wrapped(vars(owner)[alias]) or vars(owner)[alias] is not vars(owner)[op]:
                raise RuntimeError(f"{cls}.{alias} does not share the {op} wrapper")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)
        self._wrappers.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of everything recorded."""
        return {
            "stats": {k: {"calls": st.calls, "s": st.s, "self_s": st.self_s, "items": st.items}
                      for k, st in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(self.self_s),
            "layer_s": dict(self.layer_s),
            "spans": [list(s) for s in self.spans],
        }


def is_wrapped(obj) -> bool:
    return hasattr(obj, "__perfbench_wrapped__")
