"""Timing wrappers for the traced run.

The wrappers are installed from the benchmark's side onto the module
attributes through which kodlat's modules call each other (and through which
the workloads call kodlat), and removed again afterwards; the library's
source is never changed.  Each call records a span (name, start, end, parent
span, op id) in memory.  A target that no longer exists is skipped and
listed in ``absent``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TARGETS = (
    "catalog.curve_from_label",
    "roots.fundamental_roots",
    "roots.enumerate_roots_in_box",
    "ratlinalg.closest_lattice_point",
    "ratlinalg.lagrange_reduce",
    "ratlinalg.solve2",
    "ratlinalg.nullspace",
    "ratlinalg.psd_pivots",
    "charge.membership",
    "charge.vanishing_root",
    "charge.min_root_modulus_witness",
    "charge.support_form",
    "chamber.reduce_to_fundamental",
    "chamber.normalize",
    "chamber.in_fundamental_chamber",
    "twist.dual_reflect_charge",
    "exact.parse_rational",
    "cli.main",
)

OP = "op"
SETUP_OP = "setup"


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.absent: list[str] = []
        self._patched: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kodlat" or name.startswith("kodlat.")]
        for target in TARGETS:
            modname, attr = target.split(".")
            original = getattr(sys.modules.get("kodlat." + modname), attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(len(self.names), original)
            self.names.append(target)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name_id: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)

        return wrapper

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span; spans outside ops get op id None."""
        self.op = op_id
        try:
            return self._wrap(0, fn)(*args)
        finally:
            self.op = None

    def summary(self, op_filter) -> dict:
        """Per target: calls and self time (ns) over spans whose op passes the filter,
        plus the walk figures: steps, walk time and membership time inside walks."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {name: 0 for name in self.names}
        self_ns = {name: 0 for name in self.names}
        walk = {"steps": 0, "walk_ns": 0, "membership_ns": 0}
        for idx, (name_id, start, end, parent, op) in enumerate(self.spans):
            if not op_filter(op):
                continue
            name = self.names[name_id]
            calls[name] += 1
            self_ns[name] += end - start - child[idx]
            parent_name = self.names[self.spans[parent][0]] if parent >= 0 else None
            if name == "chamber.reduce_to_fundamental":
                walk["walk_ns"] += end - start
            elif parent_name == "chamber.reduce_to_fundamental":
                if name == "twist.dual_reflect_charge":
                    walk["steps"] += 1
                elif name == "charge.membership":
                    walk["membership_ns"] += end - start
        return {"calls": calls, "self_ns": self_ns, "walk": walk}

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, names=self.names, absent=self.absent,
                                         fields=["name", "start_ns", "end_ns", "parent", "op"]))
                         + "\n")
            for name_id, start, end, parent, op in self.spans:
                handle.write(json.dumps([self.names[name_id], start, end, parent, op]) + "\n")
