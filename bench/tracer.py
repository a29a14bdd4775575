"""Per-layer spans from wrappers the benchmark installs around the program.

Every public function of the seven package modules and a fixed list of
``NumberField``/``NumberFieldElement`` methods is wrapped.  A wrapper
replaces the original in every namespace that binds it (``floor_exact`` is
bound in ``numeric``, ``contfrac`` and ``jacobi_perron``, most names also in
the package and in ``cli``), so calls between modules are traced too.

A span's self time is its duration minus the time covered by the spans it
called; the wrapper's own bookkeeping is charged to no span.  Code outside
the package (argparse, sympy, ``Fraction``) counts toward the span that
called it.  Spans stay in memory as per-name sums; nothing is written while
a run measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer name used in metric names (a metric name may not start with "_")
LAYERS = {
    "cli": "cli",
    "lattice": "lattice",
    "jacobi_perron": "jacobi_perron",
    "contfrac": "contfrac",
    "bratteli": "bratteli",
    "numeric": "numeric",
    "_intmat": "intmat",
}

# (class, attribute) -> span name, for methods that carry numeric work
METHODS = {
    ("NumberField", "__init__"): "field_init",
    ("NumberField", "root_interval"): "root_interval",
    ("NumberFieldElement", "inverse"): "inverse",
    ("NumberFieldElement", "interval"): "interval",
    ("NumberFieldElement", "sign"): "sign",
    ("NumberFieldElement", "__add__"): "add",
    ("NumberFieldElement", "__radd__"): "add",
    ("NumberFieldElement", "__sub__"): "sub",
    ("NumberFieldElement", "__rsub__"): "sub",
    ("NumberFieldElement", "__neg__"): "neg",
    ("NumberFieldElement", "__mul__"): "mul",
    ("NumberFieldElement", "__rmul__"): "mul",
    ("NumberFieldElement", "__truediv__"): "div",
    ("NumberFieldElement", "__rtruediv__"): "div",
    ("NumberFieldElement", "__pow__"): "pow",
}

# spans whose repeated interval() calls are precision escalations
DECISIONS = {"numeric.floor_exact", "numeric.sign"}


def _max_bits(matrix):
    return max(max(map(abs, row)) for row in matrix).bit_length()


class Tracer:
    """Installs the wrappers and accumulates self time and counts per span name."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_bits = 0
        self._stack = []
        self._undo = []
        self._post = {
            "jacobi_perron.jp_expand": self._count_jp_digits,
            "contfrac.cf_expand": self._count_cf_digits,
            "intmat.matmul": self._track_bits,
        }

    def _count_jp_digits(self, result):
        self.counts["jacobi_perron.jp_expand.digits"] += len(result.digits)

    def _count_cf_digits(self, result):
        self.counts["contfrac.cf_expand.digits"] += len(result.digits)

    def _track_bits(self, result):
        self.max_bits = max(self.max_bits, _max_bits(result))

    def _wrap(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        post = self._post.get(name)
        decision = name in DECISIONS
        is_interval = name == "numeric.interval"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            if is_interval and stack and stack[-1][2]:
                stack[-1][1] += 1
            frame = [0.0, 0, decision]  # child seconds, interval calls, decision span
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    t1 = perf_counter()
                    post(result)
                    frame[0] += perf_counter() - t1
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self_s[name] += t1 - t0 - frame[0]
                calls[name] += 1
                if decision and frame[1] > 1:
                    tracer.counts["numeric.escalations"] += frame[1] - 1
                if stack:
                    stack[-1][0] += perf_counter() - t_in

        return wrapper

    def install(self, package):
        """Wrap the package's public functions and the METHODS, everywhere bound.

        The wrappers record nothing until ``active`` is set.
        """
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        namespaces = [package, *modules.values()]
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{LAYERS[mod_name]}.{attr}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)][1])
        for (cls_name, attr), span in METHODS.items():
            cls = getattr(modules["numeric"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"numeric.{span}", original))

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_ms(self, layer):
        prefix = layer + "."
        return 1000 * sum(v for k, v in self.self_s.items() if k.startswith(prefix))
