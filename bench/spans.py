"""Timed spans around the public functions of each `dmbl` layer.

Only traced runs import this module.  `install` replaces every binding of a
wrapped function in the loaded `dmbl` modules (``dmbl.finalg.congruences``
and ``dmbl.varieties.congruences`` alike) with a wrapper that records one
span per call; `uninstall` puts the originals back.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time

# layer (module under dmbl) -> wrapped public functions
WRAPPED = {
    "finalg": (
        "satisfies", "congruences", "principal_congruence", "quotient",
        "is_subdirectly_irreducible", "is_isomorphic", "subalgebra_generated",
        "product", "is_class",
    ),
    "sweep": ("value_matrix", "partition_ids", "signatures", "enumerate_terms"),
    "varieties": ("verify_theorems", "hsp_membership", "build_lattice", "jonsson_check"),
    "decomp": ("decompose", "check_ailnb", "band_of", "greens"),
    "sums": ("validate", "dpl_sum"),
    "terms": ("parse_identity", "classify"),
    "catalog": ("get_algebra",),
}

# spans whose outcome feeds a ratio: name -> (ratio name, outcome of a result)
OUTCOMES = {
    "finalg.is_isomorphic": ("hit_ratio", lambda r: r is not None),
    "finalg.is_subdirectly_irreducible": ("true_ratio", lambda r: bool(r)),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "calls"))
        out.append((f"{name}.self_s", "s"))
    for name, (ratio, _) in OUTCOMES.items():
        out.append((f"{name}.{ratio}", "ratio"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Spans as ``[name, start, end, parent, op, outcome]`` lists; `parent`
    is the index of the enclosing span or -1, `outcome` is None unless the
    function is in OUTCOMES."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name, (None, None))[1]
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the listed functions in loaded dmbl modules."""
        modules = [m for k, m in sys.modules.items() if k == "dmbl" or k.startswith("dmbl.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"dmbl.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._originals.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "outcome"],
                       "spans": self.spans}, fh)


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Calls, self time and outcome counts per span name.

    Self time is a span's duration minus the durations of its direct child
    spans, which lie inside it because the calls nest.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _outcome in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {name: {"calls": 0, "self_s": 0.0, "true": 0} for name in SPAN_NAMES}
    for k, (name, start, end, _parent, _op, outcome) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[k]
        t["true"] += bool(outcome)
    return totals
