"""Shared brute-force oracles: enumerate all raw maps and filter by literal
condition checks, independently of the package's generators."""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest
from hypothesis import strategies as st

import treeconn as tc
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


def pair_caps_loop(embs, nt):
    """Loop reference for ``kernels.pair_caps``: caps[q][y] is the least x
    with embs[q, x] > y, or ns when there is none."""
    ns = embs.shape[1]
    return [
        [next((x for x in range(ns) if embs[q, x] > y), ns) for y in range(nt)]
        for q in range(embs.shape[0])
    ]


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


def copy_family_loop(S, T, V, category):
    """Loop reference for ``search.copy_family``: Hom(S, V) as (key, top)
    pairs, and for each g in Hom(T, V) the sorted indices in Hom(S, V) of
    ``tc.compose(f, g)`` over all f in Hom(S, T), found by key lookup."""
    hom_st = list(tc.enumerate_hom(category, S, T))
    hom_sv = [(h.key(), h.top) for h in tc.enumerate_hom(category, S, V)]
    index = {key: i for i, (key, _) in enumerate(hom_sv)}
    copies = tuple(
        tuple(sorted({index[tc.compose(f, g).key()] for f in hom_st}))
        for g in tc.enumerate_hom(category, T, V)
    )
    return hom_sv, copies


def csr_loop(copies, n_items):
    """Loop reference for ``search._csr``: each item lists the copies that
    contain it in the order the copies come."""
    cstart = [0]
    for cp in copies:
        cstart.append(cstart[-1] + len(cp))
    citems = [it for cp in copies for it in cp]
    clen = [len(cp) for cp in copies]
    member = [[] for _ in range(n_items)]
    for i, cp in enumerate(copies):
        for it in cp:
            member[it].append(i)
    istart = [0]
    for m in member:
        istart.append(istart[-1] + len(m))
    icopies = [i for m in member for i in m]
    maxdeg = max((len(m) for m in member), default=0)
    return cstart, citems, clen, istart, icopies, maxdeg
