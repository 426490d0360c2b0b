"""Span tracing of treeconn layers, recorded from outside the library.

Each traced function is wrapped and the wrapper is written over every module
attribute of the ``treeconn`` package that refers to the original function,
so a call is seen wherever the name is looked up (``search.compose``,
``morphisms.compose``, ``kernels.dfs_degree``, ...).  A span records its name,
start, end, parent span and query id, plus a few counters read from the
call's arguments and result.  Spans stay in memory; ``aggregate`` derives the
per-layer totals and self times from the span tree.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _rows(args, out):
    count, _ = out
    return {"rows": int(count)}


def _rigid_fill(args, out):
    return {"rows": int(out)}


def _pair_filter(args, out):
    return {"cells": int(out.size), "hits": int(out.sum())}


def _sweep(args, out):
    nfeas, _ = out
    return {"pairs": int(args[0].shape[0]) * int(args[1].shape[0]), "feasible": int(nfeas)}


def _dfs_pre(args):
    return int(args[15][1])


def _dfs(args, out, before):
    return {"nodes": int(args[15][1]) - before}


def _hom(args, out):
    return {"morphisms": len(out)}


def _copy_family(args, out):
    return {
        "composites": len(out.hom_st) * len(out.hom_tv),
        "copies": len(out.copies),
        "distinct": len(set(out.copies)),
    }


# name -> (module, attribute, counter, pre-call hook).  Names are
# "<layer>.<function>", with the layer named by its module.
TRACED = {
    "kernels.embedding_search": ("treeconn.kernels", "embedding_search", _rows, None),
    "kernels.rigid_count": ("treeconn.kernels", "rigid_count", None, None),
    "kernels.rigid_fill": ("treeconn.kernels", "rigid_fill", _rigid_fill, None),
    "kernels.pair_caps": ("treeconn.kernels", "pair_caps", None, None),
    "kernels.pair_filter": ("treeconn.kernels", "pair_filter", _pair_filter, None),
    "kernels.doubling_pair_sweep": ("treeconn.kernels", "doubling_pair_sweep", _sweep, None),
    "kernels.dfs_bad_coloring": ("treeconn.kernels", "dfs_bad_coloring", _dfs, _dfs_pre),
    "kernels.dfs_degree": ("treeconn.kernels", "dfs_degree", _dfs, _dfs_pre),
    "homsets.enumerate_hom": ("treeconn.homsets", "enumerate_hom", _hom, None),
    "homsets.enumerate_embeddings": ("treeconn.homsets", "enumerate_embeddings", _hom, None),
    "homsets.enumerate_increasing_injections": (
        "treeconn.homsets", "enumerate_increasing_injections", _hom, None),
    "homsets.enumerate_rigid_surjections": (
        "treeconn.homsets", "enumerate_rigid_surjections", _hom, None),
    "homsets.enumerate_connections": ("treeconn.homsets", "enumerate_connections", _hom, None),
    "homsets.enumerate_psc": ("treeconn.homsets", "enumerate_psc", _hom, None),
    "homsets.count_rigid_surjections": ("treeconn.homsets", "count_rigid_surjections", None, None),
    "homsets._emb_rows": ("treeconn.homsets", "_emb_rows", None, None),
    "homsets._rigid_rows": ("treeconn.homsets", "_rigid_rows", None, None),
    "search.copy_family": ("treeconn.search", "copy_family", _copy_family, None),
    "search.arrow_check": ("treeconn.search", "arrow_check", None, None),
    "search.degree_at_witness": ("treeconn.search", "degree_at_witness", None, None),
    "search.verify_lower_bound": ("treeconn.search", "verify_lower_bound", None, None),
    "morphisms.compose": ("treeconn.morphisms", "compose", None, None),
    "colorings.powerset_coloring": ("treeconn.colorings", "powerset_coloring", None, None),
    "constructions.doubling_tree": ("treeconn.constructions", "doubling_tree", None, None),
    "constructions.plus_leaf": ("treeconn.constructions", "plus_leaf", None, None),
    "constructions.star_extend": ("treeconn.constructions", "star_extend", None, None),
    "constructions.graft": ("treeconn.constructions", "graft", None, None),
    "cli.main": ("treeconn.cli", "main", None, None),
}

# The category each Hom-set entry point enumerates; enumerate_hom and
# enumerate_connections take it as an argument.
_HOM_TAGS = {
    "homsets.enumerate_embeddings": "emb",
    "homsets.enumerate_increasing_injections": "incinj",
    "homsets.enumerate_rigid_surjections": "rigid",
    "homsets.enumerate_psc": "psc",
}


def _hom_tag(name, args, kwargs):
    if name == "homsets.enumerate_hom":
        return args[0]
    if name == "homsets.enumerate_connections":
        return args[2] if len(args) > 2 else kwargs.get("category", "conn")
    return _HOM_TAGS.get(name)


class Tracer:
    """Records spans while installed; ``query`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query, counters, tag]
        self.query: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, counter, pre):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query, None,
                   _hom_tag(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(rec)
            before = pre(args) if pre is not None else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[1] = t0
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, out, before) if pre is not None else counter(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "treeconn" or k.startswith("treeconn."))]
        for name, (modname, attr, counter, pre) in TRACED.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, counter, pre)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patches):
            setattr(m, key, orig)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()


def aggregate(spans: list[list]) -> dict:
    """Per-function and per-layer totals of one traced round.

    ``<f>.s`` sums the spans of f not nested in another span of f; ``<f>.self_s``
    sums each span's duration minus the time its child spans cover.  The
    layer totals ``<layer>.s`` and ``<layer>.self_s`` do the same over every
    function of the layer.  Counters are summed per function.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for i, rec in enumerate(spans):
        name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
        layer = name.split(".", 1)[0]
        dur = end - start
        self_t = dur - child_time[i]
        outer_fn = outer_layer = True
        p = parent
        while p >= 0:
            pname = spans[p][0]
            if pname == name:
                outer_fn = False
            if pname.split(".", 1)[0] == layer:
                outer_layer = False
            p = spans[p][3]
        out[f"{name}.self_s"] += self_t
        out[f"{layer}.self_s"] += self_t
        if outer_fn:
            out[f"{name}.s"] += dur
        if outer_layer:
            out[f"{layer}.s"] += dur
            if rec[6] is not None:
                out[f"homsets.{rec[6]}.s"] += dur
        counts[f"{name}.calls"] += 1
        counts[f"{layer}.calls"] += 1
        for key, value in (rec[5] or {}).items():
            counts[f"{name}.{key}"] += value
            if layer == "homsets" and key == "morphisms" and outer_layer:
                counts["homsets.morphisms"] += value
    counts["trace.spans"] = len(spans)
    return {"times": dict(out), "counts": dict(counts)}
