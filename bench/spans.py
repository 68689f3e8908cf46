"""Per-module spans for the traced run, recorded from outside wittloc.

``Tracer.install`` wraps the public entry points of each module.  A wrapped
function is replaced under every name it is bound to in any loaded wittloc
module (``engine.generic_euler`` as well as ``euler.generic_euler``), and a
wrapped method is replaced on its class.  Each call records a span
(name, parent, start, end).  Self time is a span's duration minus the
durations of its direct child spans, and is summed per name while the run
goes, so the metrics do not depend on how many spans are kept.

Spans are kept in compact arrays and written out by ``Tracer.write``:
``names.json`` lists the span names and ``name.u16``, ``parent.i32``,
``start.f64`` and ``end.f64`` hold one native-endian entry per span
(``parent`` is -1 for a root; times are ``time.perf_counter`` seconds).
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List

# span name -> (module, attribute paths); a dotted path names a method
SPANS = {
    "euler.generic_euler": ("euler", ["generic_euler"]),
    "euler.euler_rep": ("euler", ["euler_rep"]),
    "engine.bott_residue": ("engine", ["bott_residue"]),
    "engine.exact_divide": ("engine", ["exact_divide"]),
    "rings.mul": ("rings", ["GradedElement.__mul__"]),
    "rings.add": ("rings", ["GradedElement.__add__"]),
    "witt.canon": ("witt", ["_canonicalize"]),
    "witt.eq": ("witt", ["WittClass.__eq__"]),
    "places.wq_key": ("places", ["wq_key"]),
    "places.ker_iota_rational": ("places", ["ker_iota_rational"]),
    "places.local_in_ideal": ("places", ["local_in_ideal"]),
    "quadext.transfer": ("quadext", ["transfer"]),
    "quadext.base_change": ("quadext", ["base_change"]),
    "quadext.in_Ia": ("quadext", ["in_Ia"]),
    "quadext.principal_ideal_certificate": ("quadext", ["principal_ideal_certificate"]),
    "fields.is_square": ("fields", ["is_square"]),
    "exprs.parse": ("exprs", ["parse_witt_expr", "parse_ring_expr", "parse_rep",
                              "parse_field", "parse_scalar"]),
    "exprs.print": ("exprs", ["witt_str", "ring_str", "rep_str"]),
}
# spans whose inclusive time is reported too (outermost calls only)
INCLUSIVE = ("euler.generic_euler", "engine.bott_residue", "engine.exact_divide", "witt.canon")
CANON_KINDS = ("Q", "R", "Fp", "Fq", "Qsqrt")
OP = "op"
MAX_KEPT_SPANS = 4_000_000


def _field_kind(field) -> str:
    kind = getattr(field, "kind", None)
    if kind == "QuadExt":
        base = getattr(field.base, "kind", None)
        return {"Fp": "Fq", "Q": "Qsqrt"}.get(base, "other")
    return kind if kind in CANON_KINDS else "other"


class Tracer:
    def __init__(self):
        self.names: List[str] = [OP] + list(SPANS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.active = [0] * len(self.names)
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []  # [span id, kept index, start, child time]
        self._undo: List[Callable[[], None]] = []
        self._factor = None  # places._factor, an lru_cache, when it exists
        self.enabled = True

    # -- recording ----------------------------------------------------------

    def _enter(self, sid: int) -> list:
        t = time.perf_counter()
        idx = len(self.start)
        if idx < MAX_KEPT_SPANS:
            self.span_name.append(sid)
            self.parent.append(self._stack[-1][1] if self._stack else -1)
            self.start.append(t)
            self.end.append(t)
        else:
            idx = -1
        frame = [sid, idx, t, 0.0]
        self._stack.append(frame)
        self.active[sid] += 1
        return frame

    def _exit(self, frame: list) -> None:
        t = time.perf_counter()
        sid, idx, t0, child = frame
        self._stack.pop()
        dur = t - t0
        if idx >= 0:
            self.end[idx] = t
        self.calls[sid] += 1
        self.self_s[sid] += dur - child
        self.active[sid] -= 1
        if self.active[sid] == 0:
            self.total_s[sid] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span (used for the per-operation root);
        factorization-cache hits and misses are counted across the call."""
        before = self._factor.cache_info() if self._factor else None
        frame = self._enter(self.ids[name])
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            if before is not None:
                after = self._factor.cache_info()
                self.count("places.factor.hits", after.hits - before.hits)
                self.count("places.factor.misses", after.misses - before.misses)

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sid = self.ids[name]
        enter, exit_ = self._enter, self._exit
        pre = self._pre_hooks().get(name)
        post = self._post_hooks().get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            frame = enter(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if post is not None:
                post(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _pre_hooks(self):
        def canon(args):
            self.count("witt.canon.calls." + _field_kind(args[0]))
            self.count("witt.canon.entries_in", len(args[1]))

        def mul(args):
            other = args[1] if len(args) > 1 else None
            if hasattr(other, "coeffs"):
                self.count("rings.mul.term_pairs", len(args[0].coeffs) * len(other.coeffs))

        return {"witt.canon": canon, "rings.mul": mul}

    def _post_hooks(self):
        def divide(out):
            if out is None:
                self.count("engine.exact_divide.none")

        return {"engine.exact_divide": divide}

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self, package) -> None:
        """Wrap every target that exists in the loaded ``package`` modules.

        A target missing from the package is skipped; its metrics read 0.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for name, (mod_name, paths) in SPANS.items():
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if fn is None or not callable(fn):
                    continue
                wrapped = self._wrap(name, fn)
                if owner_name:
                    self._set(owner, attr, wrapped)
                    continue
                for m in modules:
                    for bound, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, bound, wrapped)
        self._install_square_counter(sys.modules.get(f"{package.__name__}.euler"))
        factor = getattr(sys.modules.get(f"{package.__name__}.places"), "_factor", None)
        self._factor = factor if hasattr(factor, "cache_info") else None

    def _install_square_counter(self, euler_mod) -> None:
        """Count ``EulerClassValue.known_square`` reads that compute the square."""
        cls = getattr(euler_mod, "EulerClassValue", None)
        prop = cls.__dict__.get("known_square") if cls is not None else None
        if not isinstance(prop, property):
            return
        getter = prop.fget

        def known_square(obj):
            if self.enabled and getattr(obj, "_square", None) is None:
                self.count("euler.square_evals")
            return getter(obj)

        self._set(cls, "known_square", property(known_square))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit)."""
        op_time = self.total_s[self.ids[OP]] or 1e-12
        out: Dict[str, tuple] = {}
        for name in SPANS:
            sid = self.ids[name]
            out[f"{name}.calls"] = (self.calls[sid], "count")
            out[f"{name}.self_pct"] = (100.0 * self.self_s[sid] / op_time, "%")
            if name in INCLUSIVE:
                out[f"{name}.total_pct"] = (100.0 * self.total_s[sid] / op_time, "%")
        c = self.counters
        for kind in CANON_KINDS:
            out[f"witt.canon.calls.{kind}"] = (c.get(f"witt.canon.calls.{kind}", 0), "count")
        out["witt.canon.entries_in"] = (c.get("witt.canon.entries_in", 0), "count")
        out["rings.mul.term_pairs"] = (c.get("rings.mul.term_pairs", 0), "count")
        out["euler.square_evals"] = (c.get("euler.square_evals", 0), "count")
        divides = self.calls[self.ids["engine.exact_divide"]]
        none = c.get("engine.exact_divide.none", 0)
        out["engine.exact_divide.none_frac"] = (none / divides if divides else 0.0, "frac")
        hits, misses = c.get("places.factor.hits", 0), c.get("places.factor.misses", 0)
        out["places.factor.hits"] = (hits, "count")
        out["places.factor.misses"] = (misses, "count")
        out["places.factor.hit_frac"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
        out["trace.spans"] = (sum(self.calls), "count")
        return out

    def write(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump({"names": self.names, "kept": len(self.start),
                       "limit": MAX_KEPT_SPANS}, fh)
        for fname, arr in (("name.u16", self.span_name), ("parent.i32", self.parent),
                           ("start.f64", self.start), ("end.f64", self.end)):
            with open(os.path.join(directory, fname), "wb") as fh:
                arr.tofile(fh)
