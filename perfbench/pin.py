"""Regenerate ``pinned.json`` and cross-check it against independent sources.

Usage (from the repository root):
    python3 perfbench/pin.py

It computes the pinned answers with the library, checks each of them
against a source that does not run the code under test, and writes
``pinned.json`` only when every check passes.  The file is deterministic,
so an unchanged ``git diff`` after a run is the check.  A run takes a few
minutes.

* small-homs Hom counts, compose-all answers and CLI ``enum`` output on every
  instance up to size 5, against the filter-all-maps oracles of
  ``tests/conftest.py`` (plus literal linear-order oracles written here for
  the conn-linear and conn-root categories, and literal composition);
* conn-family arrow verdicts: ``fails`` at r = 2 is proved by a bad
  2-coloring that is checked on copies composed here from oracle Hom-sets.
  For conn and psc the coloring is the invariant set at vertex 1, for
  conn-root a rule on the linear orders (see ``bad_color``); for rigid it is
  the library's canonical coloring, after the library's Hom(S, V) has been
  matched with the oracle's.  Every conn-family Hom count is checked against
  the oracles.  For |V| = 10 the rigid oracle is ``rigid_by_embedding``,
  which restates the conftest filter and is matched with it first (see
  ``check_conn_family``).
* lower-bound and arrow-search need no table: their expected answers are
  the doubling lower bound and the Ramsey numbers (see ``queries.py``); this
  script runs every lower-bound pool instance once to confirm it.

The oracles import pytest and hypothesis through ``tests/conftest.py``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import treeconn  # noqa: E402
import conftest as oracle  # noqa: E402
import queries  # noqa: E402
from queries import (  # noqa: E402
    CATEGORIES, CLI_KINDS, LOWER_BOUND_SOURCES, conn_family_trees, fmt, tree,
)


def require(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"cross-check failed: {what}")


def trees_of(*sizes):
    return [t for n in sizes for t in treeconn.enumerate_trees(n)]


# ---------------------------------------------------------------------------
# Oracles (literal definitions; no library generators).
# ---------------------------------------------------------------------------

def linear_rigid_oracle(big_n, small_n):
    """Surjections of linear orders with an increasing-injection partner
    satisfying both adjoint-pair laws."""
    embs = list(itertools.combinations(range(big_n), small_n))
    out = []
    for s in itertools.product(range(small_n), repeat=big_n):
        if set(s) != set(range(small_n)):
            continue
        if any(all(s[e[x]] == x for x in range(small_n))
               and all(e[s[y]] <= y for y in range(big_n)) for e in embs):
            out.append(s)
    return out


def linear_conn_oracle(S, T, root):
    rigs = linear_rigid_oracle(T.n, S.n)
    embs = [e for e in itertools.combinations(range(T.n), S.n) if not root or e[0] == 0]
    return sorted((s, e) for s in rigs for e in embs if oracle.cond_a_oracle(s, e))


@lru_cache(maxsize=None)
def oracle_hom(category, S, T):
    """Hom(S, T) as sorted raw tuples, in the library's record order."""
    if category == "emb":
        return [tuple(e) for e in oracle.emb_oracle(S, T)]
    if category == "incinj":
        return [tuple(e) for e in oracle.incinj_oracle(S, T)]
    if category == "rigid":
        return [tuple(s) for s in oracle.rigid_oracle(T, S)]
    if category == "conn":
        return oracle.conn_oracle(S, T)
    if category == "psc":
        return oracle.psc_oracle(S, T)
    return linear_conn_oracle(S, T, root=category == "conn-root")


def rigid_by_embedding(T, S):
    """``conftest.rigid_oracle(T, S)``, restated.  For one embedding e: S ->
    T, the maps s that satisfy both adjoint-pair laws with e are a product of
    choices per vertex y of T: s(e(x)) = x, and otherwise any x with e(x)
    below y.  Such an s is onto.  The union over e is the oracle's filter
    result, without trying all |S|^|T| maps (18 s at |T| = 10)."""
    out = set()
    for e in oracle.emb_oracle(S, T):
        fixed = {v: x for x, v in enumerate(e)}
        choices = [[x for x in ([fixed[y]] if y in fixed else range(S.n))
                    if T.is_pred(e[x], y)] for y in range(T.n)]
        out.update(itertools.product(*choices))
    return sorted(out)


@contextlib.contextmanager
def restated_rigid():
    """Let the conftest oracles, conn and psc included, use
    ``rigid_by_embedding`` for the rigid part."""
    literal = oracle.rigid_oracle
    oracle.rigid_oracle = rigid_by_embedding
    oracle_hom.cache_clear()
    try:
        yield
    finally:
        oracle.rigid_oracle = literal
        oracle_hom.cache_clear()


def oracle_compose(category, f, g):
    if category in ("emb", "incinj"):
        return tuple(g[v] for v in f)
    if category == "rigid":
        return tuple(f[v] for v in g)
    if category == "psc":
        fs, fe, ftop = f
        gs, ge, _ = g
        top = ge[ftop]
        return (tuple(fs[gs[y]] for y in range(top + 1)), tuple(ge[v] for v in fe), top)
    fs, fe = f
    gs, ge = g
    return (tuple(fs[v] for v in gs), tuple(ge[v] for v in fe))


def oracle_copies(category, S, T, V):
    hom_sv = oracle_hom(category, S, V)
    index = {h: i for i, h in enumerate(hom_sv)}
    copies = []
    for g in oracle_hom(category, T, V):
        copies.append(frozenset(index[oracle_compose(category, f, g)]
                                for f in oracle_hom(category, S, T)))
    return hom_sv, copies


def record_tuple(category, rec):
    if category in ("emb", "incinj"):
        return tuple(rec["emb"])
    if category == "rigid":
        return tuple(rec["surj"])
    if category == "psc":
        return (tuple(rec["surj"]), tuple(rec["emb"]), rec["domain_top"])
    return (tuple(rec["surj"]), tuple(rec["emb"]))


# ---------------------------------------------------------------------------
# small-homs
# ---------------------------------------------------------------------------

def small_homs_pool():
    """hom: |S|<=4, |S|<=|T|<=6; compose: |S| in 2..3, |T|=4, |V|=5; cli:
    small side 2..3, large side 4..5."""
    hom = [(c, S, T) for c in CATEGORIES for S in trees_of(1, 2, 3, 4)
           for T in trees_of(1, 2, 3, 4, 5, 6) if S.n <= T.n]
    compose = [(c, S, T, V) for c in CATEGORIES for S in trees_of(2, 3)
               for T in trees_of(4) for V in trees_of(5)]
    cli = []
    for kind in CLI_KINDS:
        for small in trees_of(2, 3):
            for big in trees_of(4, 5):
                a, b = (big, small) if kind == "rigid" else (small, big)
                cli.append((kind, a, b))
    return hom, compose, cli


def pin_small_homs():
    hom, compose, cli = small_homs_pool()
    out = {"hom": {}, "compose": {}, "cli": {}}
    for c, S, T in hom:
        out["hom"][f"{c} {fmt(S)} {fmt(T)}"] = len(treeconn.enumerate_hom(c, S, T))
    for c, S, T, V in compose:
        if not len(treeconn.enumerate_hom(c, S, T)) or not len(treeconn.enumerate_hom(c, T, V)):
            continue  # copy_family rejects empty Hom-sets; keep only queries that succeed
        answer, _ = queries._compose_all(c, fmt(S), fmt(T), fmt(V))
        out["compose"][f"{c} {fmt(S)} {fmt(T)} {fmt(V)}"] = answer
    for kind, A, B in cli:
        answer, _ = queries._cli_enum(["enum", kind, fmt(A), fmt(B)])
        out["cli"][f"{kind} {fmt(A)} {fmt(B)}"] = answer
    return out


def check_small_homs(pin) -> int:
    checked = 0
    for key, count in pin["hom"].items():
        c, a, b = key.split()
        S, T = tree(a), tree(b)
        if T.n <= 5:
            require(len(oracle_hom(c, S, T)) == count, key)
            checked += 1
    for key, answer in pin["compose"].items():
        c, a, b, v = key.split()
        S, T, V = tree(a), tree(b), tree(v)
        hom_sv, copies = oracle_copies(c, S, T, V)
        expect = [len(oracle_hom(c, S, T)), len(oracle_hom(c, T, V)), len(hom_sv),
                  len(set(copies))]
        require(expect == answer, (key, expect, answer))
        checked += 1
    for key, answer in pin["cli"].items():
        kind, a, b = key.split()
        A, B = tree(a), tree(b)
        code, text = queries.cli_stdout(["enum", kind, a, b])
        require(code == 0, key)
        got = [record_tuple(kind, json.loads(line)) for line in text.splitlines() if line]
        want = oracle_hom("rigid", B, A) if kind == "rigid" else oracle_hom(kind, A, B)
        require(got == want, key)
        require(queries.digest(text) == answer, key)
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# conn-family
# ---------------------------------------------------------------------------

def pin_conn_family():
    S, T, V0, one, two = conn_family_trees()
    out = {f"conn-root {fmt(T)} {fmt(V0)}": len(treeconn.enumerate_hom("conn-root", T, V0))}
    for c in ("conn", "psc", "rigid"):
        for V in [V0] + one + two:
            out[f"{c} {fmt(T)} {fmt(V)}"] = len(treeconn.enumerate_hom(c, T, V))
    for c in ("conn", "psc", "rigid", "conn-root"):
        for V in [V0] + one + two:
            out[f"{c} {fmt(S)} {fmt(V)}"] = len(treeconn.enumerate_hom(c, S, V))
    return out


def bad_color(category, h, V):
    """The color of h in Hom(chain2, V), a raw oracle tuple, under a
    2-coloring that is bad on every copy.

    conn, psc: the invariant set, i.e. 1 when the embedding half moves vertex
    1 off the meet of its preimages under the surjection.  conn-root, whose
    maps see only the linear orders: 1 when at least two preimages of
    vertex 1 lie below its embedded image.
    """
    surj, emb = h[0], h[1]
    pre = [y for y, x in enumerate(surj) if x == 1]
    if category == "conn-root":
        return int(sum(1 for y in pre if y < emb[1]) >= 2)
    m = pre[0]
    for y in pre[1:]:
        while not V.is_pred(m, y):
            m = V.parent[m]
    return int(emb[1] != m)


def check_conn_family(pin) -> int:
    """Arrow verdicts on V0 and its 1-leaf extensions (|V| <= 9) and Hom
    counts into them against the literal oracles; then, once
    ``rigid_by_embedding`` matches the literal rigid oracle on all of these,
    the counts into 2-leaf extensions (|V| = 10) with it."""
    S, T, V0, one, two = conn_family_trees()
    checked = 0
    for V in [V0] + one:
        for c in ("conn", "psc", "rigid", "conn-root"):
            if c == "conn-root" and V is not V0:
                continue  # the benchmark runs conn-root arrows on V0 only
            hom_sv, copies = oracle_copies(c, S, T, V)
            if c == "rigid":
                cert = treeconn.arrow_check(S, T, V, 2, c)
                lib = [f.surj.values for f in treeconn.enumerate_hom(c, S, V)]
                require(lib == hom_sv, ("rigid Hom(S, V)", fmt(V)))
                colors = cert.coloring
            else:
                colors = [bad_color(c, h, V) for h in hom_sv]
            require(all(len({colors[i] for i in cp}) == 2 for cp in copies), (c, fmt(V)))
            checked += 1
        require(rigid_by_embedding(V, T) == oracle.rigid_oracle(V, T), ("restated", fmt(V)))
    for key, count in pin.items():
        c, a, b = key.split()
        A, B = tree(a), tree(b)
        if B.n <= 9:
            require(len(oracle_hom(c, A, B)) == count, key)
            checked += 1
    with restated_rigid():
        for key, count in pin.items():
            c, a, b = key.split()
            A, B = tree(a), tree(b)
            if B.n > 9:
                require(len(oracle_hom(c, A, B)) == count, key)
                checked += 1
    return checked


def pin_lower_bound():
    """Instance sizes of the seeded lower-bound pools, which the benchmark
    uses only to spread its draws: the number of checks of a direct
    verification, and the number of embedding rows T -> V of a sweep.  Every
    pool instance must report ok."""
    direct, sweeps = queries.lower_bound_pool()
    out = {}
    for S, V in [sv for pool in direct.values() for sv in pool]:
        rep = treeconn.verify_lower_bound(S, V)
        require(rep.ok, f"lower-bound {fmt(S)} {fmt(V)}")
        out[queries.lower_bound_key(S, V)] = rep.checked
    for S, V in sweeps:
        rep = treeconn.verify_lower_bound(S, V)
        require(rep.ok, f"lower-bound {fmt(S)} {fmt(V)}")
        out[queries.lower_bound_key(S, V)] = len(
            treeconn.enumerate_embeddings(queries.doubling(S), V))
    for text in LOWER_BOUND_SOURCES:
        D2 = queries.doubling(queries.doubling(tree(text)))
        if D2.n <= 16:
            require(treeconn.verify_lower_bound(tree(text), D2).ok, f"lower-bound {text}")
    return out


def main() -> None:
    t0 = time.perf_counter()
    pinned = {"small-homs": pin_small_homs(), "conn-family": pin_conn_family(),
              "lower-bound": pin_lower_bound()}
    print(f"computed pinned answers in {time.perf_counter() - t0:.1f}s", flush=True)
    n = check_small_homs(pinned["small-homs"])
    print(f"small-homs: {n} answers match the oracles", flush=True)
    n = check_conn_family(pinned["conn-family"])
    print(f"conn-family: {n} checks pass", flush=True)
    queries.PINNED.write_text(json.dumps(pinned, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {queries.PINNED} in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
