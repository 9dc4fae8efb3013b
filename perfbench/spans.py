"""Span tracing of gman from outside: wrappers around the public entry
points of each module, installed by the benchmark at run time.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, when the round ends.  Counts are taken by
the same wrappers, at the same boundaries.  A function that a later
version of gman no longer has is skipped, so its metrics read 0.

Layers are gman's modules; a span's layer is the first part of its name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# module -> public functions wrapped as spans named "<module>.<function>"
FUNCTIONS = {
    "cli": ["main"],
    "scenario": ["load_scenario"],
    "cohomology": ["cohomology_report", "hkr_check", "duflo_check"],
    "dpoly": ["hochschild", "gerstenhaber", "ext_cup", "ext_gerstenhaber", "ext_hkr"],
    "calculus": ["schouten", "contract", "ext_schouten", "ext_pv_wedge", "mixed_mul"],
    "linalg": ["matrix_rank"],
    "atiyah": ["atiyah_cocycle", "todd_cocycle", "todd_sqrt", "is_ce_closed",
               "invariant_connection_obstruction"],
    "checks": ["run_axiom_checks", "tpoly_axiom_checks", "dpoly_axiom_checks"],
}
WORKSPACE_METHODS = ["basis", "columns", "rank", "dim_h", "representatives"]
REDUCER_METHODS = ["insert", "contains"]
AUDIT = "@audit"  # suffix of Workspace spans on the order-(N+1) recheck workspace
LAYERS = ["cli", "scenario", "cohomology", "actions", "dpoly", "calculus",
          "linalg", "atiyah", "checks"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.basis_sizes: dict[tuple, int] = {}  # (caps, side, audit, w, k) -> size

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, pick=None, observe=None):
        """Span-recording wrapper.  ``pick(args)``, called before ``fn``,
        returns a state tuple whose first item selects the span name
        ``name + AUDIT``; ``observe(args, state, result)`` sees the result."""
        nid, aid = self._id(name), self._id(name + AUDIT) if pick else None
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pick(args) if pick else None
            i = len(names)
            names.append(aid if state and state[0] else nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if observe is not None:
                observe(args, state, out)
            return out
        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap gman's entry points in every loaded gman module that holds
        a reference to them (``from .x import f`` copies the reference)."""
        mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
                if n.startswith("gman.") and m is not None}
        for mod, fnames in FUNCTIONS.items():
            for fname in fnames:
                fn = getattr(mods.get(mod), fname, None)
                if fn is not None:
                    self._replace(mods, fn, self.wrap(fn, f"{mod}.{fname}",
                                                      observe=self._observer(mod, fname)))
        actions = mods.get("actions")
        for fname in ("on_polyvectors", "on_dpoly"):
            factory = getattr(actions, fname, None)
            if factory is not None:
                self._replace(mods, factory, self._action_factory(factory))
        ws = getattr(mods.get("cohomology"), "Workspace", None)
        for meth in WORKSPACE_METHODS:
            fn = getattr(ws, meth, None)
            if fn is not None:
                setattr(ws, meth, self.wrap(fn, f"cohomology.{meth}",
                                            pick=self._ws_state(meth),
                                            observe=self._ws_observer(meth)))
        red = getattr(mods.get("linalg"), "ColumnReducer", None)
        for meth in REDUCER_METHODS:
            fn = getattr(red, meth, None)
            if fn is not None:
                setattr(red, meth, self.wrap(
                    fn, f"linalg.{meth}", observe=self._count_pivot if meth == "insert" else None))

    @staticmethod
    def _replace(mods: dict, fn, wrapped) -> None:
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)

    def _action_factory(self, factory):
        """The CE action term is the closure the factory returns."""
        @functools.wraps(factory)
        def make(s):
            return self.wrap(factory(s), "actions.ce_action")
        return make

    def _observer(self, mod: str, fname: str):
        counts = self.counts
        if (mod, fname) == ("cohomology", "duflo_check"):
            return lambda args, state, out: counts.update(
                {"cohomology.duflo_pairs": out.get("pairs_checked", 0)})
        if mod == "checks" and fname != "run_axiom_checks":
            return lambda args, state, out: counts.update(
                {"checks.cases": out.get("cases", 0)})
        return None

    @staticmethod
    def _ws_state(meth: str):
        """(is the audit workspace, was the result computed rather than cached)."""
        cache = {"basis": "_bases", "columns": "_cols", "rank": "_ranks"}.get(meth)

        def pick(args):
            ws = args[0]
            caps = getattr(getattr(ws, "s", None), "caps", None)
            audit = caps is not None and getattr(ws, "max_order", None) != caps.max_order
            store = getattr(ws, cache, None) if cache else None
            miss = store is None or tuple(args[1:3]) not in store
            return audit, miss
        return pick

    def _ws_observer(self, meth: str):
        counts, sizes = self.counts, self.basis_sizes

        def observe(args, state, out):
            audit, miss = state
            if meth == "representatives":
                counts["cohomology.classes"] += len(out)
            if not miss:
                return
            if meth == "basis":
                counts["cohomology.basis_elems"] += len(out)
                ws = args[0]
                sizes[(ws.s.caps, ws.side, audit) + tuple(args[1:3])] = len(out)
            elif meth == "columns":
                counts["cohomology.columns"] += len(out)
                counts["cohomology.nonzeros"] += sum(len(c) for c in out)
            elif meth == "rank":
                counts["cohomology.rank_total"] += out
        return observe

    def _count_pivot(self, args, state, inserted) -> None:
        self.counts["linalg.pivots"] += bool(inserted)

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far: span totals
        (nested spans of the same name counted once), self time per layer,
        and the counts taken by the wrappers."""
        n = len(self.name)
        names, parent = self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        assembly = {i for i, nm in enumerate(self.names)
                    if nm.split(AUDIT)[0] in ("cohomology.basis", "cohomology.columns")}
        audit = {i for i, nm in enumerate(self.names) if nm.endswith(AUDIT)}
        child = [0.0] * n
        asm = [0.0] * n  # time in nested basis/columns spans
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                asm[p] += dur[i] if names[i] in assembly else asm[i]
        total = [0.0] * len(self.names)
        net = [0.0] * len(self.names)  # totals net of nested column assembly
        calls = [0] * len(self.names)
        layer_self: Counter = Counter()
        audit_s = 0.0
        active = [0] * len(self.names)
        stack: list[int] = []
        for i in range(n):
            p, nid = parent[i], names[i]
            while stack and stack[-1] != p:
                active[names[stack.pop()]] -= 1
            if not active[nid]:
                total[nid] += dur[i]
                net[nid] += dur[i] - asm[i]
            if nid in audit and (p < 0 or names[p] not in audit):
                audit_s += dur[i]
            calls[nid] += 1
            layer_self[self.names[nid].split(".")[0]] += dur[i] - child[i]
            stack.append(i)
            active[nid] += 1

        def t(name, values=total):
            return sum(values[i] for nm, i in self._ids.items()
                       if nm.split(AUDIT)[0] == name)

        def c(name):
            return sum(calls[i] for nm, i in self._ids.items()
                       if nm.split(AUDIT)[0] == name)

        k = self.counts
        # share of the audit basis that the order-N basis already holds
        main_basis = audit_basis = 0
        for (caps, side, is_audit, w, kk), size in self.basis_sizes.items():
            main = self.basis_sizes.get((caps, side, False, w, kk))
            if is_audit and main is not None:
                audit_basis += size
                main_basis += main
        m = {
            "scenario.load_s": t("scenario.load_scenario"),
            "cohomology.basis_s": t("cohomology.basis"),
            "cohomology.basis_elems": k["cohomology.basis_elems"],
            "cohomology.columns_s": t("cohomology.columns"),
            "cohomology.columns": k["cohomology.columns"],
            "cohomology.nonzeros": k["cohomology.nonzeros"],
            "cohomology.rank_s": t("cohomology.rank", net),
            "cohomology.rank_total": k["cohomology.rank_total"],
            "cohomology.audit_s": audit_s,
            "cohomology.audit_basis_elems": audit_basis,
            "cohomology.audit_reuse_share": main_basis / audit_basis if audit_basis else 0.0,
            "cohomology.representatives_s": t("cohomology.representatives", net),
            "cohomology.classes": k["cohomology.classes"],
            "cohomology.hkr_check_s": t("cohomology.hkr_check"),
            "actions.ce_action_s": t("actions.ce_action"),
            "actions.ce_action_calls": c("actions.ce_action"),
            "dpoly.hochschild_s": t("dpoly.hochschild"),
            "dpoly.hochschild_calls": c("dpoly.hochschild"),
            "cohomology.duflo_check_s": t("cohomology.duflo_check"),
            "cohomology.duflo_pairs": k["cohomology.duflo_pairs"],
            "dpoly.ext_cup_s": t("dpoly.ext_cup"),
            "dpoly.ext_gerstenhaber_s": t("dpoly.ext_gerstenhaber"),
            "dpoly.ext_hkr_s": t("dpoly.ext_hkr"),
            "calculus.contract_s": t("calculus.contract"),
            "calculus.ext_schouten_s": t("calculus.ext_schouten"),
            "calculus.ext_pv_wedge_s": t("calculus.ext_pv_wedge"),
            "linalg.insert_s": t("linalg.insert"),
            "linalg.inserts": c("linalg.insert"),
            "linalg.contains_s": t("linalg.contains"),
            "linalg.contains_calls": c("linalg.contains"),
            "linalg.pivot_share": (k["linalg.pivots"] / c("linalg.insert")
                                   if c("linalg.insert") else 0.0),
            "atiyah.cocycle_s": t("atiyah.atiyah_cocycle"),
            "atiyah.todd_s": t("atiyah.todd_cocycle") + t("atiyah.todd_sqrt"),
            "checks.tpoly_s": t("checks.tpoly_axiom_checks"),
            "checks.dpoly_s": t("checks.dpoly_axiom_checks"),
            "checks.cases": k["checks.cases"],
            "dpoly.gerstenhaber_s": t("dpoly.gerstenhaber"),
            "calculus.schouten_s": t("calculus.schouten"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def write(self, path) -> None:
        """Write the spans as JSON columns (times in seconds)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)
