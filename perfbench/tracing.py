"""Span recorder that times isofib's public functions from outside the package.

``SpanRecorder.install`` replaces each target function with a timing wrapper
in every ``isofib`` module namespace that binds it (``from .curves import
hasse_invariant`` binds the name in ``ordinarity`` and ``cli`` too), and on
the class for methods.  Nothing under ``src/`` is edited; ``uninstall`` puts
the originals back.

A span is ``(target, start, end, parent, op)``: the target's index in
``TARGETS``, ``perf_counter`` readings, the index of the enclosing span (-1 at
the top) and the op id.  Spans stay in memory until the caller takes them.
A span's self time is its duration minus the durations of its direct
children; time spent in helpers that are not targets is part of the self
time of the nearest enclosing target.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, qualified name) of every function the traced run times
TARGETS = (
    ("ffpoly", "PrimeField.__init__"),
    ("ffpoly", "FpPolynomial.__mul__"),
    ("ffpoly", "FpPolynomial.__pow__"),
    ("ffpoly", "FpPolynomial.is_squarefree"),
    ("ffpoly", "poly_pow_coeff"),
    ("ffpoly", "matrix_rank_det"),
    ("curves", "hasse_invariant"),
    ("curves", "cartier_manin"),
    ("curves", "p_rank_hyperelliptic"),
    ("fibration", "validate_spec"),
    ("fibration", "singular_fibers"),
    ("fibration", "surface_invariants"),
    ("ordinarity", "build_report"),
    ("ordinarity", "decide"),
    ("ordinarity", "hasse_divisor"),
    ("ordinarity", "check_supersingular_corollary"),
    ("cli", "main"),
    ("cli", "load_spec"),
    ("cli", "load_scan_document"),
    ("cli", "parse_spec_document"),
    ("cli", "cmd_invariants"),
    ("cli", "cmd_decide"),
    ("cli", "cmd_scan"),
)
LAYERS = ("ffpoly", "curves", "fibration", "ordinarity", "cli")

# named work counts, taken from a call's arguments and result
COUNTERS = {
    "ffpoly.FpPolynomial.__mul__": (
        "coeff_products", lambda args, result: len(args[0].coeffs) * len(args[1].coeffs)),
    "fibration.singular_fibers": ("fibers_built", lambda args, result: len(result)),
}


def target_names() -> list[str]:
    return [f"{module}.{qualname}" for module, qualname in TARGETS]


def counter_names() -> list[str]:
    return [f"{name}.{label}" for name, (label, _) in COUNTERS.items()]


class SpanRecorder:
    """Collects spans and named counts while installed."""

    def __init__(self):
        self.names = target_names()
        self.spans: list = []
        self.counts = dict.fromkeys(counter_names(), 0)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(self.names[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op)
            if counter is not None:
                counts[f"{self.names[index]}.{counter[0]}"] += counter[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "isofib" or name.startswith("isofib."))]
        for index, (module, qualname) in enumerate(TARGETS):
            home = sys.modules[f"isofib.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(index, original))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.update(dict.fromkeys(self.counts, 0))
        return spans, counts


def aggregate(spans: list, names: list[str]) -> dict[str, float]:
    """``<target>.calls``, ``<target>.self_s`` and ``<layer>.self_s`` from spans."""
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for index, start, end, parent, _op in spans:
        calls[index] += 1
        self_s[index] += end - start
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
    out: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, n, t in zip(names, calls, self_s):
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = t
        layer_self[name.split(".", 1)[0]] += t
    for layer, t in layer_self.items():
        out[f"{layer}.self_s"] = t
    return out


def write_spans(path, spans: list, names: list[str]) -> None:
    """One JSON object per line: name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, start, end, parent, op in spans:
            handle.write(json.dumps({"name": names[index], "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
