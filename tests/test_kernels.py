"""The loop kernels (the two coloring searches and the unused pair_filter)
must agree with the brute-force oracles in conftest and, compiled or run
on memoryviews, exactly with the plain function on numpy arrays.  The numpy
kernels (the embedding frontier, pair caps, the mixed-radix expansion behind
connection_rows, rigid_count and rigid_fill, the doubling sweep) and the
pruned searches must agree with the loop references in conftest, and must
check max_hom before they allocate."""

import ast
import hashlib
import importlib.util
import inspect
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import tracemalloc

import numpy as np
import pytest

import treeconn as tc
from treeconn import kernels, search
from treeconn.errors import BudgetExceededError
from treeconn.homsets import _emb_rows, _leq_matrix, _min_table, _rigid_rows
from conftest import (dfs_bad_coloring_loop, dfs_degree_loop, doubling_pair_sweep_loop,
                      emb_oracle, embedding_search_loop, incinj_oracle, pair_caps_loop,
                      rigid_count_loop, rigid_fill_loop, rigid_oracle, small_trees)


CHERRY = tc.parse_tree("(()())")


def both(kernel, *args):
    compiled = kernel(*args)
    interpreted = kernels.py_func(kernel)(*[np.copy(a) if isinstance(a, np.ndarray) else a for a in args])
    return compiled, interpreted


# All trees up to 4 vertices; doubling(chain2) is one of them.
KERNEL_TREES = small_trees(4)


def _embedding_search_matches_loop(S, T, tables):
    count, rows = kernels.embedding_search(*tables, 10**6)
    want_count, want = embedding_search_loop(*tables, 10**6)
    assert count == want_count and rows.shape == (count, S.n), (S, T, tables[2])
    assert np.array_equal(rows, want[:count]), (S, T, tables[2])


def test_embedding_search_backends_agree(monkeypatch):
    # The frontier against the backtracking loop it replaced.  Meet tables
    # with the root pinned give tree embeddings; min tables without it give
    # increasing injections.  Every pair of trees up to 6 vertices, then
    # tree embeddings into doubling^2 of every tree up to 4 vertices (up to
    # 22 vertices), at the default and at 1-cell blocks.
    for S, T in itertools.product(KERNEL_TREES, repeat=2):
        assert _emb_rows(S, T, tc.DEFAULT_BUDGET).tolist() == [list(v) for v in emb_oracle(S, T)]
        assert (_emb_rows(S, T, tc.DEFAULT_BUDGET, linear=True).tolist()
                == [list(v) for v in incinj_oracle(S, T)])
    for S, T in itertools.product(small_trees(6), repeat=2):
        _embedding_search_matches_loop(S, T, (S.meet_table, T.meet_table, True))
        _embedding_search_matches_loop(S, T, (_min_table(S.n), _min_table(T.n), False))
    for block_cells in (kernels._BLOCK_CELLS, 1):
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
        for S in KERNEL_TREES:
            d1 = tc.doubling_tree(S).tree
            d2 = tc.doubling_tree(d1).tree
            for small in (S, d1):
                _embedding_search_matches_loop(small, d2, (small.meet_table, d2.meet_table, True))
    # A frontier that dies at a middle level: no two vertices below a chain
    # vertex meet at the root.  The result still has one column per vertex.
    count, rows = kernels.embedding_search(CHERRY.meet_table, tc.chain(5).meet_table, True, 100)
    assert count == 0 and rows.shape == (0, 3)


def test_embedding_levels_check_max_hom_before_they_are_allocated():
    # Increasing injections chain4 -> chain200: level 1 holds C(198, 2) =
    # 19,503 prefixes.  Level 2 would hold C(199, 3) = 1,293,699 (31 MB), the
    # final level C(200, 4) (2 GB); the search stops before either exists.
    budget = tc.Budget(max_vertices=200, max_hom=20_000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="1293699 prefix embeddings exceed budget max_hom=20000") as exc:
            _emb_rows(tc.chain(4), tc.chain(200), budget, linear=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.kind == "max_hom"
    assert peak < 4 << 20


def test_a_prefix_level_over_max_hom_raises_although_the_hom_set_fits():
    # ((()())) has one embedding into ((((()())))), but its first three
    # vertices have 6 images: max_hom bounds the rows of every level.
    S, T = tc.parse_tree("((()()))"), tc.parse_tree("((((()()))))")
    assert len(tc.enumerate_embeddings(S, T, tc.Budget(max_hom=6))) == 1
    with pytest.raises(BudgetExceededError, match="6 prefix embeddings exceed") as exc:
        tc.enumerate_embeddings(S, T, tc.Budget(max_hom=5))
    assert exc.value.kind == "max_hom"


def test_emb_rows_searches_once(monkeypatch):
    calls = []
    search_once = kernels.embedding_search

    def counted(*args):
        calls.append(args[3])
        return search_once(*args)

    monkeypatch.setattr(kernels, "embedding_search", counted)
    rows = _emb_rows(C3, tc.chain(40), tc.Budget(max_vertices=40, max_hom=20_000), linear=True)
    assert len(rows) == 9880  # C(40, 3)
    assert calls == [20_000]


def _rigid_matches_loop_reference(skels, dom, caps):
    """rigid_count at each cap, and rigid_fill row for row in its unsorted
    order, equal the loop references; returns the filled rows."""
    for cap in caps:
        assert kernels.rigid_count(skels, dom, cap) == rigid_count_loop(skels, dom, cap), cap
    n = int(rigid_count_loop(skels, dom, 10**9))
    got = np.full((n, dom.shape[0]), -1, dtype=np.int64)
    want = np.full((n, dom.shape[0]), -1, dtype=np.int64)
    assert kernels.rigid_fill(skels, dom, got) == rigid_fill_loop(skels, dom, want) == n
    assert np.array_equal(got, want)
    return got


def test_rigid_kernels_backends_agree():
    # Every pair of trees up to 5 vertices: counts (clamped at caps 0, 1
    # and 4 too), unsorted rows, the sorted Hom rows and the oracle.
    for S, T in itertools.product(small_trees(5), repeat=2):
        skels = _emb_rows(S, T, tc.DEFAULT_BUDGET)
        rows = _rigid_matches_loop_reference(skels, T.anc, (0, 1, 4, 10**6))
        want = rigid_oracle(T, S)
        assert sorted(map(tuple, rows.tolist())) == want, (S, T)
        assert list(map(tuple, _rigid_rows(T, S, tc.DEFAULT_BUDGET).tolist())) == want
        assert tc.count_rigid_surjections(T, S) == len(want)
        assert tc.count_rigid_surjections(T, S, cap=2) == min(len(want), 3)


def _doubling_family():
    """(S, V) for S = chain2 and doubling(chain2) and V its doubling,
    doubling^2(chain2) and every 1- and 2-leaf extension of the latter (up
    to 10 vertices), as in the conn-family benchmark."""
    leaf = tc.Forest((-1,))
    vs = [D1, D2] + [tc.graft(D2, list(a), [leaf] * k).tree
                     for k in (1, 2) for a in itertools.combinations(range(D2.n), k)]
    return [(S, V) for V in vs for S in (C2, D1)]


@pytest.mark.parametrize("block_cells", [kernels._BLOCK_CELLS, 1])
def test_rigid_kernels_match_loop_reference_on_the_doubling_family(monkeypatch, block_cells):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
    biggest = 0
    for S, V in _doubling_family():
        skels = _emb_rows(S, V, tc.DEFAULT_BUDGET)
        n = int(rigid_count_loop(skels, V.anc, 10**9))
        rows = _rigid_matches_loop_reference(skels, V.anc, (0, n // 2, n - 1, n))
        want = rows[np.lexsort(rows.T[::-1])]
        assert np.array_equal(_rigid_rows(V, S, tc.DEFAULT_BUDGET), want), (S, V)
        biggest = max(biggest, n)
    assert biggest > 2000


def test_rigid_kernels_skip_a_skeleton_with_an_empty_position():
    # Under <= on chain4, a skeleton that misses 0 leaves position 0 no
    # value, so it has no surjection; the others still expand in order.
    skels = _emb_rows(C2, tc.chain(4), tc.DEFAULT_BUDGET, linear=True)
    dom = _leq_matrix(4)
    empty = skels[:, 0] > 0
    assert empty.any() and not empty.all()
    rows = _rigid_matches_loop_reference(skels, dom, (0, 2, 10**6))
    assert len(rows) == kernels.rigid_count(skels[~empty], dom, 10**6) > 0
    assert kernels.rigid_count(skels[empty], dom, 10**6) == 0


def test_rigid_kernels_list_values_ascending_on_wide_positions():
    # numpy sorts up to 16 entries by insertion sort, which is stable, so
    # only a position with 17 candidate values shows an unstable value order.
    skels = _emb_rows(tc.chain(17), tc.chain(18), tc.DEFAULT_BUDGET)
    assert len(_rigid_matches_loop_reference(skels, tc.chain(18).anc, (10**6,))) == 153


def test_rigid_rows_check_max_hom_before_any_row(monkeypatch):
    skels = _emb_rows(D1, D2, tc.DEFAULT_BUDGET)
    n = kernels.rigid_count(skels, D2.anc, 10**6)
    budget = tc.Budget(max_hom=n - 1)

    def fill(*args):
        raise AssertionError("rigid_fill called past the max_hom check")

    with monkeypatch.context() as m:
        m.setattr(kernels, "rigid_fill", fill)
        with pytest.raises(BudgetExceededError,
                           match=f"more than max_hom={n - 1} rigid surjections") as exc:
            _rigid_rows(D2, D1, budget)
    assert exc.value.kind == "max_hom"
    with pytest.raises(ValueError, match="out is too short"):
        kernels.rigid_fill(skels, D2.anc, np.empty((n - 1, D2.n), dtype=np.int64))
    # The shared expansion refuses 3**12 rows (51 MB) without allocating them.
    allowed = np.ones((1, 12, 3), dtype=bool)
    tracemalloc.start()
    try:
        assert kernels._expand([(allowed, np.empty((1, 0), dtype=np.int64))], 12, 3**12 - 1) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pair_kernels_backends_agree():
    # pair_caps is numpy only, so it is checked against its loop reference.
    for S, T in itertools.product(KERNEL_TREES, repeat=2):
        erows = _emb_rows(S, T, tc.DEFAULT_BUDGET)
        if len(erows):
            assert kernels.pair_caps(erows, T.n).tolist() == pair_caps_loop(erows, T.n)
    hits = 0
    for S, T in ((tc.chain(2), tc.chain(4)), (tc.chain(2), tc.doubling_tree(tc.chain(2)).tree),
                 (tc.parse_tree("(()())"), tc.parse_tree("(()(()))"))):
        srows = _rigid_rows(T, S, tc.DEFAULT_BUDGET)
        erows = _emb_rows(S, T, tc.DEFAULT_BUDGET)
        caps = kernels.pair_caps(erows, T.n)
        m1, m2 = both(kernels.pair_filter, srows, erows, caps)
        assert np.array_equal(m1, m2)
        want = [[tc.is_connection(tc.TreeMap(T, S, s), tc.TreeMap(S, T, e)) for e in erows.tolist()]
                for s in srows.tolist()]
        assert m1.tolist() == want, (S, T)
        hits += int(m1.sum())
    assert hits > 0


C2, C3 = tc.chain(2), tc.chain(3)
D1 = tc.doubling_tree(C2).tree
D2 = tc.doubling_tree(D1).tree


def _undo_rows(istart):
    """The loop references' undo buffer: one row per depth, as wide as the
    most copies through an item."""
    degree = np.diff(istart)
    rows, width = max(len(degree), 1), max(int(degree.max(initial=0)), 1)
    return np.zeros((rows, width), dtype=np.int64), np.zeros(rows, dtype=np.int64)


def _bad_coloring_reference(fam, r, mode):
    csr, (col, nxt, maxu) = search._search_arrays(fam, mode)
    ncopies, width = fam.rows.shape
    per_copy = [np.zeros(ncopies, dtype=np.int64) for _ in range(3)]  # ccnt, ccol, cmix
    state = np.zeros(2, dtype=np.int64)
    status = dfs_bad_coloring_loop(width, *csr, r, col, nxt, maxu, *per_copy,
                                   *_undo_rows(csr[0]), state, 10**9)
    coloring = tuple(int(c) for c in col) if status == kernels.FOUND else None
    return status, coloring, int(state[1])


def _degree_reference(fam, r, mode):
    csr, (col, nxt, maxu) = search._search_arrays(fam, mode)
    ncopies, width = fam.rows.shape
    r_eff = min(r, fam.n_items)
    ccnt, cmask = np.zeros(ncopies, dtype=np.int64), np.zeros(ncopies, dtype=np.int64)
    best_col = np.full(fam.n_items, -1, dtype=np.int64)
    state = np.array([0, 0, 0, min(r_eff, width)], dtype=np.int64)
    status = dfs_degree_loop(width, *csr, r_eff, ncopies, col, nxt, maxu, ccnt, cmask,
                             *_undo_rows(csr[0]), state, best_col, 10**9)
    return status, int(state[2]), tuple(int(c) for c in best_col), int(state[1])


def _recorded_calls(name, run):
    """Run ``run()`` with kernels.<name> recorded: per call, copies of its
    arguments before it, its status and copies of its arrays after it."""
    kernel = getattr(kernels, name)
    calls = []

    def recorded(*args):
        before = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
        status = kernel(*args)
        calls.append((before, status, [np.copy(a) for a in args if isinstance(a, np.ndarray)]))
        return status

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, name, recorded)
        run()
    return calls


def _bound_args(kernel, args):
    """The arguments of one call of ``kernel``, by parameter name."""
    return inspect.signature(kernels.py_func(kernel)).bind(*args).arguments


def _assert_backends_agree(kernel, calls):
    """Each recorded call of ``kernel`` (numba, or the interpreted kernel on
    memoryviews) returns the same status and leaves every array as
    ``kernels.py_func(kernel)`` does on plain numpy arrays."""
    assert kernels.py_func(kernel) is not kernel
    assert len(calls) > 1
    for before, status, after in calls:
        args = [np.copy(a) if isinstance(a, np.ndarray) else a for a in before]
        assert kernels.py_func(kernel)(*args) == status
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        assert all(np.array_equal(a, b) for a, b in zip(arrays, after, strict=True))


@pytest.mark.parametrize("name", ["dfs_bad_coloring", "dfs_degree", "pair_filter"])
def test_loop_kernels_read_every_parameter(name):
    # An argument that the kernel never reads is dead weight at every call.
    [fn] = ast.parse(inspect.getsource(kernels.py_func(getattr(kernels, name)))).body
    params = [a.arg for a in fn.args.args]
    loaded = {node.id for node in ast.walk(fn)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [p for p in params if p not in loaded] == []
    if name != "pair_filter":
        # The benchmark's tracer reads the node count from argument 15.
        assert params.index("state") == 15


def test_interpreted_kernels_run_on_memoryviews():
    kind = kernels._jit(lambda a, r: (type(a), type(a[0]), r))
    got = kind(np.arange(3, dtype=np.int64), 2)
    if kernels.BACKEND == "numba":
        assert got[1] is not int
    else:
        assert got == (memoryview, int, 2)


def test_dfs_bad_backends_agree(monkeypatch):
    # Chunks of 7 nodes, so the calls resume from every kind of state; the
    # conn-root family forbids colors and wipes items out.
    monkeypatch.setattr(search, "_CHUNK", 7)
    for fam in (tc.copy_family(C2, C3, tc.chain(5), tc.INC_INJ),
                tc.copy_family(C2, D1, D2, tc.CONN_ROOT)):
        out = []
        calls = _recorded_calls("dfs_bad_coloring", lambda: out.append(
            search._search_bad_coloring(fam, 2, tc.DEFAULT_BUDGET, "canonical", time.monotonic())))
        _assert_backends_agree(kernels.dfs_bad_coloring, calls)
        assert out[0][0] == kernels.FOUND
        assert out[0][:2] == _bad_coloring_reference(fam, 2, "canonical")[:2]


def test_dfs_degree_backends_agree(monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 7)
    for V in (tc.chain(5), tc.chain(6)):
        fam = tc.copy_family(C2, C3, V, tc.INC_INJ)
        out = []
        calls = _recorded_calls("dfs_degree", lambda: out.append(
            search._search_degree(fam, 3, tc.DEFAULT_BUDGET, "canonical", time.monotonic())))
        _assert_backends_agree(kernels.dfs_degree, calls)
        assert out[0] == _degree_reference(fam, 3, "canonical")


# chain9 at r = 3 is left out: the reference needs 5.5M nodes (about a minute).
ARROW_CASES = (
    [(C2, C3, tc.chain(n), r, tc.INC_INJ) for r in (2, 3) for n in range(3, 10) if (n, r) != (9, 3)]
    + [(C2, D1, D2, 2, cat) for cat in (tc.CONN, tc.PSC, tc.RIGID, tc.CONN_ROOT)]
)


@pytest.mark.parametrize("mode", ["canonical", "fast"])
def test_dfs_bad_coloring_matches_loop_reference(mode):
    # Forward checking only cuts subtrees without a bad coloring, so the
    # verdict and the first coloring found are those of the plain search.
    pruned = 0
    for S, T, V, r, cat in ARROW_CASES:
        fam = tc.copy_family(S, T, V, cat)
        status, coloring, explored = search._search_bad_coloring(
            fam, r, tc.DEFAULT_BUDGET, mode, time.monotonic())
        want_status, want_coloring, want_explored = _bad_coloring_reference(fam, r, mode)
        assert (status, coloring) == (want_status, want_coloring), (V, r, cat)
        assert explored <= want_explored, (V, r, cat)
        pruned += explored < want_explored
    assert pruned > 0


def _digest(coloring):
    """The first 12 hex digits of the sha256 of a coloring's digits."""
    if coloring is None:
        return None
    return hashlib.sha256("".join(map(str, coloring)).encode()).hexdigest()[:12]


# (status, coloring digest, explored) of every ARROW_CASES search, as the
# searches with n_items x (most copies through an item) undo rows found them.
# The chain cases agree in both modes.
_F, _E = kernels.FOUND, kernels.EXHAUSTED
_CHAIN_ARROWS = [
    (_F, "7a3e6b16cb75", 4), (_F, "a78b7c21dc8e", 12), (_F, "02167d93637f", 35),
    (_E, None, 319), (_E, None, 663), (_E, None, 1359), (_E, None, 2759),
    (_F, "7a3e6b16cb75", 4), (_F, "1e45012c459e", 10), (_F, "d7ec30f5fa5d", 24),
    (_F, "b3ee8a65611d", 60), (_F, "9f9b84bbdc9d", 603), (_F, "4856a9301524", 12222),
]
PINNED_ARROWS = {
    "canonical": _CHAIN_ARROWS + [(_F, "7824da01c2ed", 350), (_F, "ad66a7236819", 120),
                                  (_F, "db40f30813f1", 114), (_F, "4436516c46bd", 585)],
    "fast": _CHAIN_ARROWS + [(_F, "8062608b7a24", 350), (_F, "0cc9d03a372e", 121),
                             (_F, "fed3ce0d8994", 114), (_F, "05edf52fb762", 632)],
}
# (status, degree, witness, explored) at r = 3 on chain3..chain7, both modes.
PINNED_DEGREES = [
    (_E, 3, "012", 8), (_E, 3, "012210", 26), (_E, 2, "0000112211", 49),
    (_E, 2, "000001122212211", 146), (_E, 2, "000001112202120210100", 2087),
]


@pytest.mark.parametrize("mode", ["canonical", "fast"])
def test_dfs_searches_match_pinned_results(mode):
    # How the undo state is stored must not change the search: verdicts,
    # colorings and node counts are the pinned ones exactly.
    got = []
    for S, T, V, r, cat in ARROW_CASES:
        status, coloring, explored = search._search_bad_coloring(
            tc.copy_family(S, T, V, cat), r, tc.DEFAULT_BUDGET, mode, time.monotonic())
        got.append((status, _digest(coloring), explored))
    assert got == PINNED_ARROWS[mode]
    got = []
    for n in range(3, 8):
        status, k, witness, explored = search._search_degree(
            tc.copy_family(C2, C3, tc.chain(n), tc.INC_INJ), 3, tc.DEFAULT_BUDGET, mode,
            time.monotonic())
        got.append((status, k, "".join(map(str, witness)), explored))
    assert got == PINNED_DEGREES


def test_search_trails_stay_within_their_bounds(monkeypatch):
    # One node per kernel call, so each trail end a step writes to
    # fstart/ustart is seen before a later step can overwrite it.  Along one
    # path a copy forbids once at most (arrow search), and gains each of at
    # most min(r, its size) colors once (degree search).  Between calls the
    # arrow search's csame[k] counts the assigned items of copy k with color
    # ccol[k], and is 0 exactly when none of them is assigned.
    monkeypatch.setattr(search, "_CHUNK", 1)
    used = {"forbids": 0, "degree": 0}

    def arrow(*args):
        status = dfs_bad(*args)
        a = _bound_args(dfs_bad, args)
        colors = np.asarray(a["col"])[np.asarray(a["citems"]).reshape(-1, a["width"])]
        assigned = colors >= 0
        same = (assigned & (colors == np.asarray(a["ccol"])[:, None])).sum(axis=1)
        assert np.array_equal(a["csame"], same)
        assert np.array_equal(a["csame"] == 0, ~assigned.any(axis=1))
        assert a["fstart"].max() <= len(a["csame"])
        used["forbids"] = max(used["forbids"], int(a["fstart"].max()))
        return status

    def degree(*args):
        status = dfs_deg(*args)
        a = _bound_args(dfs_deg, args)
        assert a["ustart"].max() <= len(a["cval"]) * a["cap"]
        used["degree"] = max(used["degree"], int(a["ustart"].max()))
        return status

    dfs_bad, dfs_deg = kernels.dfs_bad_coloring, kernels.dfs_degree
    monkeypatch.setattr(kernels, "dfs_bad_coloring", arrow)
    monkeypatch.setattr(kernels, "dfs_degree", degree)
    # The four conn families forbid; chain6 and chain7 at r = 2 exhaust.
    for S, T, V, r, cat in ARROW_CASES[-4:] + ARROW_CASES[3:5]:
        search._search_bad_coloring(tc.copy_family(S, T, V, cat), r, tc.DEFAULT_BUDGET,
                                    "canonical", time.monotonic())
    for S, T, V, r, cat in DEGREE_CASES:
        search._search_degree(tc.copy_family(S, T, V, cat), r, tc.DEFAULT_BUDGET,
                              "canonical", time.monotonic())
    assert min(used.values()) > 0


def test_arrow_search_memory_follows_the_copies():
    # conn-root chain2 -> doubling -> doubling^2: 4,203 copies of 12 over 448
    # items.  Undo rows of n_items x (most copies through an item) made a
    # 6.4 MB peak; the trails hold one entry per copy, and the copies are
    # read as built.
    fam = tc.copy_family(C2, D1, D2, tc.CONN_ROOT)
    tracemalloc.start()
    try:
        status, _, explored = search._search_bad_coloring(
            fam, 2, tc.DEFAULT_BUDGET, "canonical", time.monotonic())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (status, explored) == (kernels.FOUND, 585)
    assert peak < 2 << 20


DEGREE_CASES = (
    [(C2, C3, tc.chain(n), r, tc.INC_INJ) for r in (2, 3) for n in range(3, 8)]
    + [(S, tc.doubling_tree(S).tree, tc.doubling_tree(S).tree, 2 ** len(tc.doubling_tree(S).marked), tc.CONN)
       for S in (tc.chain(1), C2, tc.parse_tree("(()())"))]
)


@pytest.mark.parametrize("mode", ["canonical", "fast"])
def test_dfs_degree_matches_loop_reference(mode):
    # The incremental bound equals the rescanned one, so the search is the same.
    for S, T, V, r, cat in DEGREE_CASES:
        fam = tc.copy_family(S, T, V, cat)
        got = search._search_degree(fam, r, tc.DEFAULT_BUDGET, mode, time.monotonic())
        assert got == _degree_reference(fam, r, mode), (V, r, cat)


def test_doubling_sweep_matches_loop_reference(monkeypatch):
    # Swapping base and first doubles plants violations: 10 for (()), more
    # than viol_out holds for (()()), so the kept prefix and its order count.
    # With 100-cell blocks the violations fall in many blocks of embeddings.
    for block_cells, S in itertools.product(
            (kernels._BLOCK_CELLS, 100), (tc.chain(2), tc.parse_tree("(()())"))):
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
        dbl = tc.doubling_tree(S)
        V = tc.doubling_tree(dbl.tree).tree
        rows = _emb_rows(dbl.tree, V, tc.DEFAULT_BUDGET)
        base = np.array([dbl.base_index[x] for x in dbl.marked], dtype=np.int64)
        first = np.array([dbl.doubles[x][0] for x in dbl.marked], dtype=np.int64)
        for b, f in ((base, first), (first, base)):
            viol1 = np.full((16, 2), -1, dtype=np.int64)
            viol2 = np.full((16, 2), -1, dtype=np.int64)
            got = kernels.doubling_pair_sweep(rows, rows, V.anc, b, f, viol1)
            want = doubling_pair_sweep_loop(rows, rows, V.anc, b, f, viol2)
            assert tuple(int(v) for v in got) == want
            assert np.array_equal(viol1, viol2)
        assert want[1] > 0


def test_connection_rows_do_not_depend_on_block_size(monkeypatch):
    from treeconn.homsets import _leq_matrix

    D = tc.doubling_tree(tc.chain(2)).tree
    T = tc.doubling_tree(D).tree
    cases = []
    for S in (tc.chain(2), D):
        rows = _emb_rows(S, T, tc.DEFAULT_BUDGET)
        cases.append((rows, rows, T.anc))
        lin = _emb_rows(S, T, tc.DEFAULT_BUDGET, linear=True)
        cases.append((lin, lin, _leq_matrix(T.n)))
        cases.append((lin, lin[lin[:, 0] == 0], _leq_matrix(T.n)))
    want = [kernels.connection_rows(*case, 10**6) for case in cases]
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", 1)
    for case, rows in zip(cases, want):
        assert len(rows) > 0
        assert np.array_equal(kernels.connection_rows(*case, 10**6), rows)
        assert kernels.connection_rows(*case, len(rows) - 1) is None


def test_resumable_search_pauses_and_resumes():
    fam = tc.copy_family(C2, C3, tc.chain(6), tc.INC_INJ)
    csr, (col, nxt, maxu) = search._search_arrays(fam, "canonical")
    n, (ncopies, width) = fam.n_items, fam.rows.shape
    ccol, csame = np.zeros(ncopies, dtype=np.int64), np.zeros(ncopies, dtype=np.int64)
    forbid = np.zeros(n * 2, dtype=np.int64)
    nforb = np.zeros(n, dtype=np.int64)
    forbids = search._trail(n, ncopies)
    state = np.zeros(2, dtype=np.int64)
    pauses = 0
    while True:
        status = kernels.dfs_bad_coloring(
            fam.rows.ravel(), width, *csr, 2, col, nxt, maxu, ccol, csame, forbid, nforb,
            *forbids, state, int(state[1]) + 50,
        )
        if status != kernels.PAUSED:
            break
        pauses += 1
    assert status == kernels.EXHAUSTED
    assert pauses > 0
    # One-shot run must agree with the chunked run.
    one = tc.arrow_check(C2, C3, tc.chain(6), 2, tc.INC_INJ)
    assert one.verdict == "arrows"
    assert one.explored == int(state[1])
    # Every counter is back to its start once the search is exhausted.
    assert not csame.any() and not forbid.any() and not nforb.any()


@pytest.mark.parametrize("chunk", [1, 7, 50])
def test_searches_resume_to_the_one_shot_result(monkeypatch, chunk):
    arrows = [(tc.chain(n), r, mode) for n, r in ((5, 2), (6, 2), (5, 3))
              for mode in ("canonical", "fast")]
    degrees = [(tc.chain(n), r, "canonical") for n, r in ((5, 3), (6, 2))]
    want = [tc.arrow_check(C2, C3, V, r, tc.INC_INJ, mode=mode) for V, r, mode in arrows]
    want += [tc.degree_at_witness(C2, C3, V, r, tc.INC_INJ, mode=mode) for V, r, mode in degrees]
    monkeypatch.setattr(search, "_CHUNK", chunk)
    got = [tc.arrow_check(C2, C3, V, r, tc.INC_INJ, mode=mode) for V, r, mode in arrows]
    got += [tc.degree_at_witness(C2, C3, V, r, tc.INC_INJ, mode=mode) for V, r, mode in degrees]
    assert got == want
    assert {cert.verdict for cert in got[:len(arrows)]} == {"arrows", "fails"}


@pytest.mark.skipif(importlib.util.find_spec("numba") is not None,
                    reason="numba is installed")
def test_backend_without_numba_is_python():
    # Without numba the package imports and runs the interpreted kernels.
    env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).parents[1]))
    code = "import treeconn; print(treeconn.kernels.BACKEND)"
    auto = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert auto.returncode == 0 and auto.stdout.strip() == "python"


def test_backend_flag_is_reported():
    assert kernels.BACKEND in ("numba", "python")
