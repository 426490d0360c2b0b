"""Shared brute-force oracles: enumerate all raw maps and filter by literal
condition checks, independently of the package's generators."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

import treeconn as tc
from treeconn import kernels
from treeconn.colorings import prune_rows
from treeconn.errors import BudgetExceededError
from treeconn.homsets import HomSet, _emb_rows
from treeconn.morphisms import (CONN, FAILURES, PSC, composite_rows, cut_at_top,
                                row_disagreements, row_failures)
from treeconn.trees import ROOT


@st.composite
def canonical_trees(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parent = [ROOT]
    for v in range(1, n):
        spine = []
        w = v - 1
        while w != ROOT:
            spine.append(w)
            w = parent[w]
        parent.append(draw(st.sampled_from(sorted(spine))))
    return tc.OrderedTree(tuple(parent))


def emb_oracle(S, T):
    """All tree embeddings S -> T by filtering every raw map."""
    out = []
    for vals in itertools.product(range(T.n), repeat=S.n):
        if vals[0] != 0:
            continue
        if any(vals[x] <= vals[x - 1] for x in range(1, S.n)):
            continue
        ok = all(
            T.meet(vals[x], vals[y]) == vals[S.meet(x, y)]
            for x in range(S.n)
            for y in range(x + 1, S.n)
        )
        if ok:
            out.append(vals)
    return sorted(out)


def incinj_oracle(S, T):
    return sorted(itertools.combinations(range(T.n), S.n))


def galois_ok(svals, evals, S, T):
    """Both adjoint-pair laws, evaluated literally."""
    if any(svals[evals[x]] != x for x in range(S.n)):
        return False
    return all(T.is_pred(evals[svals[y]], y) for y in range(len(svals)))


def rigid_oracle(T, S):
    """All rigid surjections T -> S: raw maps filtered by surjectivity and
    the existence of an embedding forming an adjoint pair."""
    embs = emb_oracle(S, T)
    out = []
    for svals in itertools.product(range(S.n), repeat=T.n):
        if set(svals) != set(range(S.n)):
            continue
        if any(galois_ok(svals, e, S, T) for e in embs):
            out.append(svals)
    return sorted(out)


def cond_a_oracle(svals, evals):
    """Condition (a), the literal linear-order connection check, on raw
    value sequences."""
    for x, ix in enumerate(evals):
        if ix >= len(svals) or svals[ix] != x:
            return False
        if any(svals[y] > x for y in range(ix)):
            return False
    return True


def conn_oracle(S, T):
    embs = emb_oracle(S, T)
    rigs = rigid_oracle(T, S)
    return sorted((s, e) for s in rigs for e in embs if cond_a_oracle(s, e))


@lru_cache(maxsize=None)
def linear_conn_oracle(ns, nt, fix_min=False):
    """All connections between the linear orders of sizes ns and nt (they
    ignore tree shape): raw maps with an increasing-injection Galois partner
    in the linear order, paired with every increasing injection (fixing the
    minimum when ``fix_min``) that passes condition (a)."""
    embs = list(itertools.combinations(range(nt), ns))
    rigs = [
        s for s in itertools.product(range(ns), repeat=nt)
        if any(
            all(s[e[x]] == x for x in range(ns)) and all(e[s[y]] <= y for y in range(nt))
            for e in embs
        )
    ]
    if fix_min:
        embs = [e for e in embs if e[0] == 0]
    return sorted((s, e) for s in rigs for e in embs if cond_a_oracle(s, e))


def psc_oracle(S, T):
    out = []
    for v in range(T.n):
        Tv = tc.initial_subtree(T, v)
        if S.n > Tv.n:
            continue
        embs = [e for e in emb_oracle(S, Tv) if e[-1] == v]
        if not embs:
            continue
        rigs = rigid_oracle(Tv, S)
        for s in rigs:
            for e in embs:
                if cond_a_oracle(s, e):
                    out.append((s, e, v))
    return sorted(out)


def naive_bad_coloring(copies, n_items, r):
    """First (lexicographically least) coloring with no monochromatic copy,
    or None, by full enumeration."""
    for coloring in itertools.product(range(r), repeat=n_items):
        if all(len({coloring[i] for i in cp}) >= 2 for cp in copies):
            return coloring
    return None


def naive_degree(copies, n_items, r):
    """Max over all colorings of the min over copies of attained colors."""
    best = 0
    for coloring in itertools.product(range(r), repeat=n_items):
        best = max(best, min(len({coloring[i] for i in cp}) for cp in copies))
    return best


@lru_cache(maxsize=None)
def small_trees(max_n):
    return tuple(tc.all_trees_up_to(max_n))


@pytest.fixture(scope="session")
def trees_up_to_4():
    return small_trees(4)


@pytest.fixture(scope="session")
def trees_up_to_5():
    return small_trees(5)


def anc_loop(t):
    """Loop reference for ``OrderedTree.anc``: walk each vertex's parent
    chain."""
    n = t.n
    m = np.zeros((n, n), dtype=np.bool_)
    for v in range(n):
        w = v
        while w != ROOT:
            m[w, v] = True
            w = t.parent[w]
    m.setflags(write=False)
    return m


def meet_table_loop(t):
    """Loop reference for ``OrderedTree.meet_table``: the last common
    ancestor of every pair, read from the ancestor matrix."""
    n = t.n
    anc = anc_loop(t)
    tab = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u, n):
            common = np.flatnonzero(anc[:, u] & anc[:, v])
            w = int(common[-1])
            tab[u, v] = w
            tab[v, u] = w
    tab.setflags(write=False)
    return tab


def child_toward(t, u, v):
    """The child of u whose subtree contains v; v must lie strictly above u."""
    if v == u or not t.is_pred(u, v):
        raise ValueError(f"{v} is not a strict descendant of {u}")
    while t.parent[v] != u:
        v = t.parent[v]
    return v


def definitional_order(t, u, v):
    """Compare u and v by the two-clause order definition, evaluated literally.

    Returns -1, 0, or 1.  Clause one: u below v.  Clause two: v not below u
    and the branch of u at the meet precedes the branch of v.  The oracle
    against plain index comparison.
    """
    if u == v:
        return 0
    if t.is_pred(u, v):
        return -1
    if t.is_pred(v, u):
        return 1
    m = t.meet(u, v)
    return -1 if child_toward(t, m, u) < child_toward(t, m, v) else 1


def is_embedding_loop(f):
    """Loop reference for ``morphisms.is_embedding``: the meets of all pairs.
    It reads the trees' tables, which are checked against the loops above."""
    if not f.is_total:
        raise tc.InvalidMorphismError("embedding check needs a total map")
    vals = f.values
    if vals[0] != 0:
        return False
    for x in range(1, len(vals)):
        if vals[x] <= vals[x - 1]:
            return False
    ms = f.source.meet_table
    mt = f.target.meet_table
    n = len(vals)
    for x in range(n):
        for y in range(x + 1, n):
            if mt[vals[x], vals[y]] != vals[ms[x, y]]:
                return False
    return True


def induced_embedding_loop(s):
    """Loop reference for ``morphisms.induced_embedding``: the meet of every
    preimage, then both adjoint laws."""
    ns = s.target.n
    pre: list[list[int]] = [[] for _ in range(ns)]
    for y in range(s.effective_n):
        pre[s.values[y]].append(y)
    if any(not p for p in pre):
        raise tc.InvalidMorphismError("induced embedding needs a surjective map")
    meet = s.source.meet_table
    vals = []
    for x in range(ns):
        m = pre[x][0]
        for y in pre[x][1:]:
            m = int(meet[m, y])
        vals.append(m)
    cand = tc.TreeMap(s.target, s.source, tuple(vals))
    if not is_embedding_loop(cand):
        return None
    anc = s.source.anc
    for x in range(ns):
        if s.values[vals[x]] != x:
            return None
    for y in range(s.effective_n):
        if not anc[vals[s.values[y]], y]:
            return None
    return cand


def condition_a_loop(s, i):
    """Loop reference for ``morphisms.condition_a``: scan everything below
    each i(x)."""
    top = s.top
    for x in range(i.effective_n):
        ix = i.values[x]
        if ix > top or s.values[ix] != x:
            return False
        for y in range(ix):
            if s.values[y] > x:
                return False
    return True


def validate_connection_loop(c, *, induced=induced_embedding_loop, embeds=is_embedding_loop):
    """Loop reference for ``morphisms.validate_connection``: the conditions
    of c's category, checked on the maps in the order of
    ``morphisms.FAILURES``; raises the message of the first that fails.
    ``induced`` and ``embeds`` stand in for the loop references of the same
    name, so a caller can memoize them per half."""
    cat = c.category
    if cat == tc.EMB:
        ok = embeds(c.emb)
    elif cat == tc.INC_INJ:
        ok = all(a < b for a, b in zip(c.emb.values, c.emb.values[1:]))
    elif cat == tc.RIGID:
        ok = len(set(c.surj.values)) == c.source.n and induced(c.surj) is not None
    if cat in (tc.EMB, tc.INC_INJ, tc.RIGID):
        if not ok:
            raise tc.InvalidMorphismError(FAILURES[cat][0])
        return
    if cat == tc.PSC and max(c.emb.values) > c.surj.top:
        raise tc.InvalidMorphismError(FAILURES[cat][0])
    if cat == tc.PSC and c.emb.values[-1] != c.surj.top:
        raise tc.InvalidMorphismError(FAILURES[cat][1])
    # Condition (a) makes s onto, so the induced embedding exists below.
    if not condition_a_loop(c.surj, c.emb):
        raise tc.InvalidMorphismError(FAILURES[tc.CONN_LINEAR][0])
    if cat in (tc.CONN, tc.PSC):
        if induced(c.surj) is None:
            raise tc.InvalidMorphismError(FAILURES[tc.RIGID][0])
        if not embeds(c.emb):
            raise tc.InvalidMorphismError(FAILURES[tc.EMB][0])
    elif cat == tc.CONN_ROOT and c.emb.values[0] != 0:
        raise tc.InvalidMorphismError(FAILURES[cat][1])


def compose_loop(f, g):
    """Loop reference for ``morphisms.compose``: the composite's values one
    vertex at a time, re-validated by ``validate_connection_loop``."""
    if f.category != g.category:
        raise tc.InvalidMorphismError(f"category mismatch: {f.category} vs {g.category}")
    if f.target != g.source:
        raise tc.InvalidMorphismError("middle trees do not match")
    cat = f.category
    S, V = f.source, g.target
    if cat in (tc.EMB, tc.INC_INJ):
        vals = tuple(g.emb.values[v] for v in f.emb.values)
        out = tc.Connection(cat, None, tc.TreeMap(S, V, vals))
    elif cat == tc.RIGID:
        vals = tuple(f.surj.values[v] for v in g.surj.values)
        out = tc.Connection(cat, tc.TreeMap(V, S, vals), None)
    elif cat == tc.PSC:
        new_top = g.emb.values[f.top]
        svals = []
        for y in range(new_top + 1):
            mid = g.surj.values[y]
            if mid > f.top:
                raise tc.InvalidMorphismError("composite escapes the inner initial segment")
            svals.append(f.surj.values[mid])
        evals = tuple(g.emb.values[f.emb.values[x]] for x in range(S.n))
        out = tc.Connection(
            tc.PSC,
            tc.TreeMap(V, S, tuple(svals), domain_top=new_top),
            tc.TreeMap(S, V, evals),
        )
    else:
        svals = tuple(f.surj.values[g.surj.values[y]] for y in range(V.n))
        evals = tuple(g.emb.values[f.emb.values[x]] for x in range(S.n))
        out = tc.Connection(cat, tc.TreeMap(V, S, svals), tc.TreeMap(S, V, evals))
    try:
        validate_connection_loop(out)
    except tc.InvalidMorphismError as exc:
        raise tc.InvalidMorphismError(f"composite failed re-validation: {exc}") from exc
    return out


def disagreements_loop(c):
    """Loop reference for ``colorings.invariant_set`` (less its marked-set
    check): c validated by ``validate_connection_loop``, then the vertices
    where its embedding differs from the induced embedding of its
    surjection."""
    validate_connection_loop(c)
    ind = induced_embedding_loop(c.surj).values
    return frozenset(x for x in range(c.source.n) if ind[x] != c.emb.values[x])


def connection_to_record_loop(c):
    """Loop reference for ``morphisms.row_records``: the record of c, read
    off its ``TreeMap`` halves."""
    return {
        "category": c.category,
        "source": tc.tree_to_record(c.source),
        "target": tc.tree_to_record(c.target),
        "surj": list(c.surj.values) if c.surj is not None else None,
        "emb": list(c.emb.values) if c.emb is not None else None,
        "domain_top": c.surj.domain_top if c.surj is not None else None,
    }


def restrict_loop(m, v):
    """The map m restricted to the initial segment 0..v of its source."""
    return tc.TreeMap(m.source, m.target, m.values[: v + 1], domain_top=v)


def to_strong_loop(c):
    """Loop reference for ``colorings.to_strong``: the surjection restricted
    to the segment up to the embedding's top, as a ``TreeMap``."""
    if c.category != tc.CONN:
        raise tc.InvalidMorphismError("to_strong applies to total tree connections")
    validate_connection_loop(c)
    return tc.Connection(tc.PSC, restrict_loop(c.surj, c.emb.values[-1]), c.emb)


def complete_strong_loop(p):
    """Loop reference for ``morphisms.complete_strong``: every vertex above
    the segment top sent to the root."""
    if p.category != tc.PSC:
        raise tc.InvalidMorphismError("completion applies to partial strong pairs")
    validate_connection_loop(p)
    T, S = p.target, p.source
    svals = p.surj.values + (0,) * (T.n - 1 - p.top)
    return tc.Connection(tc.CONN, tc.TreeMap(T, S, svals), tc.TreeMap(S, T, p.emb.values))


def prune_top_loop(p):
    """Loop reference for ``colorings.prune_top``: both halves restricted
    through the embedding's image of the new top, and the bit read from
    ``disagreements_loop``."""
    hom = p.hom
    S = hom.source
    if S.n < 2:
        raise tc.InvalidMorphismError("cannot prune a single-vertex source")
    w = S.n - 2
    bit = int(S.n - 1 in disagreements_loop(hom))
    Sw = tc.initial_subtree(S, w)
    iw = hom.emb.values[w]
    surj = tc.TreeMap(hom.target, Sw, hom.surj.values[: iw + 1], domain_top=iw)
    emb = tc.TreeMap(Sw, hom.target, hom.emb.values[: w + 1])
    return tc.AnnotatedPscHom(tc.Connection(tc.PSC, surj, emb), p.bits + (bit,))


def lower_top_loop(q):
    """Loop reference for ``colorings.lower_top``: the embedding's top moved
    onto the induced embedding's, the surjection restricted there."""
    if q.category != tc.PSC:
        raise tc.InvalidMorphismError("lower_top applies to partial strong pairs")
    S = q.source
    v = S.n - 1
    if v not in disagreements_loop(q):
        raise tc.InvalidMorphismError("embedding already agrees with the induced embedding at the top")
    target_top = induced_embedding_loop(q.surj).values[v]
    vals = q.emb.values[:v] + (target_top,)
    return tc.Connection(tc.PSC, restrict_loop(q.surj, target_top), tc.TreeMap(S, q.target, vals))


def functor_laws(sources, targets):
    """The composition laws of the strongification and of pruning, by one
    ``composite_rows`` pass per (S, T, V), S in ``sources`` and T, V in
    ``targets``: (both held, strongification composites, pruning composites).

    Strongification: for conn f in Hom(S, T) and g in Hom(T, V), the conn
    composite f o g is valid and its cut is the psc composite of the cuts.
    Pruning, for S of at least two vertices: for psc f in Hom(S, T) and psc
    g in Hom(T, V) whose embedding is the induced one, pruning f o g gives
    the composite of pruned f with g, and the same bit as pruning f.
    """
    conn, psc, outer, pruned = {}, {}, {}, {}
    for S in sources:
        for T in targets:
            conn[S, T] = tc.enumerate_connections(S, T).rows
            psc[S, T] = tc.enumerate_psc(S, T).rows
            if len(psc[S, T]) and S.n >= 2:
                pruned[S, T] = prune_rows(S, T, psc[S, T])
    for T in targets:
        for V in targets:
            conn[T, V] = tc.enumerate_connections(T, V).rows
            rows = tc.enumerate_psc(T, V).rows
            if len(rows):
                outer[T, V] = rows[~row_disagreements(PSC, T, V, rows).any(axis=1)]
    ok, strong, prune = True, 0, 0
    for S in sources:
        for T in targets:
            f = conn[S, T]
            for V in targets:
                g = conn[T, V]
                if not (len(f) and len(g)):
                    continue
                h = composite_rows(CONN, T.n, f, g).reshape(-1, V.n + S.n)
                ok &= bool((row_failures(CONN, S, V, h) < 0).all())
                rhs = composite_rows(PSC, T.n, cut_at_top(f.copy(), T.n),
                                     cut_at_top(g.copy(), V.n))
                ok &= np.array_equal(cut_at_top(h, V.n), rhs.reshape(h.shape))
                strong += len(f) * len(g)
            if (S, T) not in pruned:
                continue
            f, (pf, pbits) = psc[S, T], pruned[S, T]
            for V in targets:
                g = outer.get((T, V), ())
                if not len(g):
                    continue
                lhs, bits = prune_rows(S, V, composite_rows(PSC, T.n, f, g).reshape(-1, V.n + S.n))
                rhs = composite_rows(PSC, T.n, pf, g).reshape(lhs.shape)
                ok &= np.array_equal(lhs, rhs) and np.array_equal(bits, np.tile(pbits, len(g)))
                prune += len(f) * len(g)
    return ok, strong, prune


def embedding_search_loop(meet_s, meet_t, pin_root, max_out):
    """Loop reference for ``kernels.embedding_search``: the same injections
    by backtracking.  Candidates are scanned in ascending order, so rows
    come out in lexicographic order.

    Returns (count, out); only the first max_out rows are materialized, the
    count keeps running past them.
    """
    ns = meet_s.shape[0]
    nt = meet_t.shape[0]
    out = np.empty((max_out, ns), dtype=np.int64)
    img = np.empty(ns, dtype=np.int64)
    cand = np.zeros(ns, dtype=np.int64)
    count = 0
    d = 0
    while d >= 0:
        if d == ns:
            if count < max_out:
                for x in range(ns):
                    out[count, x] = img[x]
            count += 1
            d -= 1
            continue
        c = cand[d]
        lo = 0 if d == 0 else img[d - 1] + 1
        if c < lo:
            c = lo
        # Leave room for the ns - 1 - d larger images still to place.
        hi = 1 if (d == 0 and pin_root) else nt - (ns - 1 - d)
        chosen = np.int64(-1)
        while c < hi:
            ok = True
            for y in range(d):
                if meet_t[img[y], c] != img[meet_s[y, d]]:
                    ok = False
                    break
            if ok:
                chosen = c
                break
            c += 1
        if chosen < 0:
            d -= 1
            continue
        img[d] = chosen
        cand[d] = chosen + 1
        d += 1
        if d < ns:
            cand[d] = 0
    return count, out


def pair_caps_loop(embs, nt):
    """Loop reference for ``kernels.pair_caps``: caps[q][y] is the least x
    with embs[q, x] > y, or ns when there is none."""
    ns = embs.shape[1]
    return [
        [next((x for x in range(ns) if embs[q, x] > y), ns) for y in range(nt)]
        for q in range(embs.shape[0])
    ]


def rigid_count_loop(skels, dom, cap):
    """Loop reference for ``kernels.rigid_count``: the number of surjections
    whose induced embedding is one of ``skels``.

    skels: (k, ns) rows are embeddings of the small tree into the big one.
    dom: (nt, nt) bool, dom[u, y] true when assigning image x with skeleton
    vertex u=skel[x] to position y is allowed (ancestry for trees, <= for
    linear orders).  The count is clamped to cap + 1 as soon as it is known
    to exceed cap.
    """
    k = skels.shape[0]
    ns = skels.shape[1]
    nt = dom.shape[0]
    inskel = np.zeros(nt, dtype=np.bool_)
    total = np.int64(0)
    for p in range(k):
        for y in range(nt):
            inskel[y] = False
        for x in range(ns):
            inskel[skels[p, x]] = True
        prod = np.int64(1)
        for y in range(nt):
            if inskel[y]:
                continue
            cnt = np.int64(0)
            for x in range(ns):
                if dom[skels[p, x], y]:
                    cnt += 1
            prod *= cnt
            if prod == 0 or prod > cap:
                break
        total += prod
        if total > cap:
            return cap + np.int64(1)
    return total


def rigid_fill_loop(skels, dom, out):
    """Loop reference for ``kernels.rigid_fill``: materialize the
    surjections counted by ``rigid_count_loop`` into ``out``.

    Rows are grouped by skeleton and enumerated odometer-style over the free
    positions; the caller sorts the result into canonical order.
    """
    k = skels.shape[0]
    ns = skels.shape[1]
    nt = dom.shape[0]
    allowed = np.empty((nt, ns), dtype=np.int64)
    na = np.empty(nt, dtype=np.int64)
    freev = np.empty(nt, dtype=np.int64)
    idx = np.empty(nt, dtype=np.int64)
    s = np.empty(nt, dtype=np.int64)
    pos = 0
    for p in range(k):
        for y in range(nt):
            s[y] = -1
        for x in range(ns):
            s[skels[p, x]] = x
        nf = 0
        feasible = True
        for y in range(nt):
            if s[y] >= 0:
                continue
            cnt = 0
            for x in range(ns):
                if dom[skels[p, x], y]:
                    allowed[nf, cnt] = x
                    cnt += 1
            if cnt == 0:
                feasible = False
                break
            na[nf] = cnt
            freev[nf] = y
            nf += 1
        if not feasible:
            continue
        for f in range(nf):
            idx[f] = 0
        while True:
            for f in range(nf):
                s[freev[f]] = allowed[f, idx[f]]
            for y in range(nt):
                out[pos, y] = s[y]
            pos += 1
            f = nf - 1
            while f >= 0:
                idx[f] += 1
                if idx[f] < na[f]:
                    break
                idx[f] = 0
                f -= 1
            if f < 0:
                break
    return pos


def doubling_pair_sweep_loop(ms, js, anc, base, first_double, viol_out):
    """Loop reference for ``kernels.doubling_pair_sweep``: the same pair
    test and stability check, one (embedding, skeleton) pair at a time."""
    nt = ms.shape[1]
    nv = anc.shape[0]
    caps = pair_caps_loop(js, nv)
    nfeas = nviol = 0
    for q in range(js.shape[0]):
        cap = caps[q]
        for p in range(ms.shape[0]):
            minv = [-1] * nv
            for t in range(nt):
                minv[ms[p, t]] = t
            feas = all(
                anc[ms[p, t], js[q, t]]
                and minv[js[q, t]] in (-1, t)
                and t <= cap[ms[p, t]]
                for t in range(nt)
            )
            if not feas:
                continue
            nfeas += 1
            bad = any(
                ms[p, tb] != js[q, tb] or ms[p, tb] == js[q, td]
                for tb, td in zip(base, first_double)
            )
            if bad:
                if nviol < viol_out.shape[0]:
                    viol_out[nviol] = (p, q)
                nviol += 1
    return nfeas, nviol


def enumerate_psc_loop(S, T, budget=tc.DEFAULT_BUDGET):
    """Per-segment reference for ``homsets.enumerate_psc``: one
    ``kernels.connection_rows`` call per initial segment up to v, its rows
    padded to T.n with -1, then all of them sorted."""
    rows = _emb_rows(S, T, budget)
    parts = [np.empty((0, T.n + S.n), dtype=np.int64)]
    found = 0
    for v in range(S.n - 1, T.n):
        embs = rows[rows[:, -1] == v]
        if len(embs) == 0:
            continue
        part = kernels.connection_rows(rows[rows[:, -1] <= v], embs,
                                       T.anc[: v + 1, : v + 1], budget.max_hom - found)
        if part is None:
            raise BudgetExceededError(
                f"more than max_hom={budget.max_hom} partial strong pairs", kind="max_hom"
            )
        found += len(part)
        # Pad the surjection to T.n with -1: a shorter prefix sorts first.
        parts.append(np.insert(part, [v + 1] * (T.n - 1 - v), -1, axis=1))
    allrows = np.concatenate(parts)
    return HomSet(PSC, S, T, allrows[np.lexsort(allrows.T[::-1])])


def copy_family_loop(S, T, V, category):
    """Loop reference for ``search.copy_family``: Hom(S, V) as (key, top)
    pairs, and for each g in Hom(T, V) the sorted indices in Hom(S, V) of
    ``compose_loop(f, g)`` over all f in Hom(S, T), found by key lookup."""
    hom_st = list(tc.enumerate_hom(category, S, T))
    hom_sv = [(h.key(), h.top) for h in tc.enumerate_hom(category, S, V)]
    index = {key: i for i, (key, _) in enumerate(hom_sv)}
    copies = tuple(
        tuple(sorted({index[compose_loop(f, g).key()] for f in hom_st}))
        for g in tc.enumerate_hom(category, T, V)
    )
    return hom_sv, copies


def csr_loop(copies, n_items):
    """Loop reference for the item -> copies arrays (istart, icopies) of
    ``search._search_arrays``: each item lists the copies that contain it
    in the order the copies come."""
    member = [[] for _ in range(n_items)]
    for i, cp in enumerate(copies):
        for it in cp:
            member[it].append(i)
    istart = [0]
    for m in member:
        istart.append(istart[-1] + len(m))
    icopies = [i for m in member for i in m]
    return istart, icopies


def dfs_bad_coloring_loop(width, istart, icopies, order, r,
                          col, nxt, maxu, ccnt, ccol, cmix, ubuf, ulen,
                          state, node_budget):
    """Loop reference for ``kernels.dfs_bad_coloring`` without forward
    checking: a color is rejected only when it would complete a
    monochromatic copy, found by scanning the copies of the item it colors.

    Items are colored in the order given by ``order`` with colors tried
    ascending, restricted to at most one fresh color beyond those already
    used (any bad coloring has a representative of this form, and with the
    identity order the first hit is the lexicographically least bad
    coloring).  A branch dies as soon as some copy becomes fully assigned
    and monochromatic.

    state = [depth, explored]; all other arrays persist across calls so the
    search can be paused on the node budget and resumed.
    """
    n = order.shape[0]
    d = state[0]
    explored = state[1]
    while True:
        if d == n:
            state[0] = d
            state[1] = explored
            return kernels.FOUND
        it = order[d]
        c = nxt[d]
        lim = r
        m2 = maxu[d] + 2
        if m2 < lim:
            lim = m2
        chosen = np.int64(-1)
        while c < lim:
            if explored >= node_budget:
                nxt[d] = c
                state[0] = d
                state[1] = explored
                return kernels.PAUSED
            explored += 1
            dead = False
            for tpos in range(istart[it], istart[it + 1]):
                k = icopies[tpos]
                if ccnt[k] + 1 == width and cmix[k] == 0:
                    if ccnt[k] == 0 or ccol[k] == c:
                        dead = True
                        break
            if not dead:
                chosen = c
                break
            c += 1
        if chosen < 0:
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                return kernels.EXHAUSTED
            prev = order[d]
            for tpos in range(istart[prev], istart[prev + 1]):
                ccnt[icopies[tpos]] -= 1
            for u in range(ulen[d]):
                cmix[ubuf[d, u]] = 0
            col[prev] = -1
            continue
        ul = 0
        for tpos in range(istart[it], istart[it + 1]):
            k = icopies[tpos]
            if ccnt[k] == 0:
                ccol[k] = chosen
            elif cmix[k] == 0 and ccol[k] != chosen:
                cmix[k] = 1
                ubuf[d, ul] = k
                ul += 1
            ccnt[k] += 1
        ulen[d] = ul
        col[it] = chosen
        nxt[d] = chosen + 1
        mu = maxu[d]
        if chosen > mu:
            mu = chosen
        maxu[d + 1] = mu
        d += 1
        if d < n:
            nxt[d] = 0


def _popcount(x):
    c = 0
    while x:
        x &= x - 1
        c += 1
    return c


def dfs_degree_loop(width, istart, icopies, order, r, ncopies,
                    col, nxt, maxu, ccnt, cmask, ubuf, ulen,
                    state, best_col, node_budget):
    """Loop reference for ``kernels.dfs_degree`` that recomputes the bound
    over all ``ncopies`` copies at every node, from ccnt (assigned items per
    copy) and cmask (colors per copy).

    state = [depth, explored, best, cap] where cap = min(r, width) is an
    a-priori upper bound; the search stops early when best reaches it.
    best_col holds the witness coloring for the current best.
    """
    n = order.shape[0]
    d = state[0]
    explored = state[1]
    best = state[2]
    cap = state[3]
    while True:
        if best >= cap:
            state[0] = d
            state[1] = explored
            state[2] = best
            return kernels.EXHAUSTED
        if d == n:
            val = cap
            for k in range(ncopies):
                pc = _popcount(cmask[k])
                if pc < val:
                    val = pc
            if val > best:
                best = val
                for i in range(n):
                    best_col[i] = col[i]
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                state[2] = best
                return kernels.EXHAUSTED
            prev = order[d]
            for tpos in range(istart[prev], istart[prev + 1]):
                ccnt[icopies[tpos]] -= 1
            for u in range(ulen[d]):
                cmask[ubuf[d, u]] &= ~(np.int64(1) << col[prev])
            col[prev] = -1
            continue
        it = order[d]
        c = nxt[d]
        lim = r
        m2 = maxu[d] + 2
        if m2 < lim:
            lim = m2
        chosen = np.int64(-1)
        while c < lim:
            if explored >= node_budget:
                nxt[d] = c
                state[0] = d
                state[1] = explored
                state[2] = best
                return kernels.PAUSED
            explored += 1
            # Tentatively apply, bound, and keep or roll back.
            ul = 0
            for tpos in range(istart[it], istart[it + 1]):
                k = icopies[tpos]
                bit = np.int64(1) << c
                if cmask[k] & bit == 0:
                    cmask[k] |= bit
                    ubuf[d, ul] = k
                    ul += 1
                ccnt[k] += 1
            ub = cap
            for k in range(ncopies):
                pc = _popcount(cmask[k])
                rem = width - ccnt[k]
                room = r - pc
                if rem < room:
                    room = rem
                if pc + room < ub:
                    ub = pc + room
            if ub > best:
                chosen = c
                ulen[d] = ul
                break
            for u in range(ul):
                cmask[ubuf[d, u]] &= ~(np.int64(1) << c)
            for tpos in range(istart[it], istart[it + 1]):
                ccnt[icopies[tpos]] -= 1
            c += 1
        if chosen < 0:
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                state[2] = best
                return kernels.EXHAUSTED
            prev = order[d]
            for tpos in range(istart[prev], istart[prev + 1]):
                ccnt[icopies[tpos]] -= 1
            for u in range(ulen[d]):
                cmask[ubuf[d, u]] &= ~(np.int64(1) << col[prev])
            col[prev] = -1
            continue
        col[it] = chosen
        nxt[d] = chosen + 1
        mu = maxu[d]
        if chosen > mu:
            mu = chosen
        maxu[d + 1] = mu
        d += 1
        if d < n:
            nxt[d] = 0


def verify_lower_bound_direct_loop(dbl, V, budget=tc.DEFAULT_BUDGET):
    """Loop reference for ``search._verify_lower_bound_direct``: one
    ``compose_loop`` and one ``disagreements_loop`` per (outer morphism,
    subset) pair."""
    hom_tv = tc.enumerate_connections(dbl.tree, V, tc.CONN, budget)
    witnesses = [(B, dbl.connection_for(B)) for B in dbl.subsets()]
    bad = []
    checked = 0
    for g in hom_tv:
        for B, w in witnesses:
            checked += 1
            got = disagreements_loop(compose_loop(w, g))
            if got != B:
                if len(bad) < 16:
                    bad.append(
                        f"outer surj {g.surj.values} emb {g.emb.values}: "
                        f"subset {sorted(B)} colored {sorted(got)}"
                    )
    ok = not bad and len(hom_tv) > 0
    return tc.VerificationReport(
        "doubling-coloring-stability", ok, checked, "direct", tuple(bad)
    )


def verify_no_ramsey_loop(S, T, x, s, i, witness, budget=tc.DEFAULT_BUDGET):
    """Loop reference for the outer-composition check of
    ``tc.verify_no_ramsey`` (its preconditions are left to the caller): one
    ``compose_loop`` and one ``disagreements_loop`` per outer morphism and
    pair."""
    base = tc.Connection(tc.CONN, s, i)
    straight = tc.Connection(tc.CONN, s, tc.TreeMap(S, T, induced_embedding_loop(s).values))
    hom_tv = tc.enumerate_connections(T, witness, tc.CONN, budget)
    bad = []
    checked = 0
    for g in hom_tv:
        checked += 1
        c0, c1 = (int(x in disagreements_loop(compose_loop(h, g))) for h in (straight, base))
        if (c0, c1) != (0, 1):
            if len(bad) < 16:
                bad.append(
                    f"outer surj {g.surj.values} emb {g.emb.values}: colors ({c0}, {c1})"
                )
    ok = not bad and len(hom_tv) > 0
    return tc.VerificationReport(
        "two-coloring-separation", ok, checked, "direct", tuple(bad)
    )
