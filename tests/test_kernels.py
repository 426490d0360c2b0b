"""The compiled kernels must agree exactly with their interpreted fallbacks,
and the numpy kernels with the loop references in conftest."""

import itertools

import numpy as np

import treeconn as tc
from treeconn import kernels
from treeconn.homsets import _emb_rows
from conftest import doubling_pair_sweep_loop, pair_caps_loop, small_trees


def both(kernel, *args):
    compiled = kernel(*args)
    interpreted = kernels.py_func(kernel)(*[np.copy(a) if isinstance(a, np.ndarray) else a for a in args])
    return compiled, interpreted


def test_embedding_search_backends_agree():
    S, T = tc.chain(3), tc.parse_tree("((())(()))")
    for pin in (True, False):
        (c1, o1), (c2, o2) = both(kernels.embedding_search, S.meet_table, T.meet_table, pin, 64)
        assert c1 == c2
        assert np.array_equal(o1[:c1], o2[:c2])


def test_rigid_kernels_backends_agree():
    T = tc.doubling_tree(tc.chain(2)).tree
    S = tc.chain(2)
    skels = _emb_rows(S, T, tc.DEFAULT_BUDGET)
    n1, n2 = both(kernels.rigid_count, skels, T.anc, 10_000)
    assert n1 == n2
    out1 = np.empty((int(n1), T.n), dtype=np.int64)
    out2 = np.empty((int(n1), T.n), dtype=np.int64)
    k1 = kernels.rigid_fill(skels, T.anc, out1)
    k2 = kernels.py_func(kernels.rigid_fill)(skels, T.anc, out2)
    assert k1 == k2 == n1
    assert np.array_equal(out1, out2)


def test_pair_kernels_backends_agree():
    # pair_caps is numpy only, so it is checked against its loop reference.
    trees = small_trees(4) + (tc.doubling_tree(tc.chain(2)).tree,)
    for S in trees:
        for T in trees:
            erows = _emb_rows(S, T, tc.DEFAULT_BUDGET)
            if len(erows):
                assert kernels.pair_caps(erows, T.n).tolist() == pair_caps_loop(erows, T.n)
    S, T = tc.chain(2), tc.chain(4)
    from treeconn.homsets import _rigid_rows

    srows = _rigid_rows(T, S, tc.DEFAULT_BUDGET)
    erows = _emb_rows(S, T, tc.DEFAULT_BUDGET)
    caps = kernels.pair_caps(erows, T.n)
    m1, m2 = both(kernels.pair_filter, srows, erows, caps)
    assert np.array_equal(m1, m2)


def _search_args(fam_copies, n, r):
    from treeconn.search import _csr, _order

    cstart, citems, clen, istart, icopies, maxdeg = _csr(sorted(set(fam_copies)), n)
    order = _order("canonical", istart, n)
    return cstart, citems, clen, istart, icopies, maxdeg, order


def test_dfs_bad_backends_agree():
    fam = tc.copy_family(tc.chain(2), tc.chain(3), tc.chain(5), tc.INC_INJ)
    n = len(fam.hom_sv)
    cstart, citems, clen, istart, icopies, maxdeg, order = _search_args(fam.copies, n, 2)
    results = []
    for impl in (kernels.dfs_bad_coloring, kernels.py_func(kernels.dfs_bad_coloring)):
        col = np.full(n, -1, dtype=np.int64)
        nxt = np.zeros(n, dtype=np.int64)
        maxu = np.full(n + 1, -1, dtype=np.int64)
        ncopies = len(set(fam.copies))
        ccnt = np.zeros(ncopies, dtype=np.int64)
        ccol = np.zeros(ncopies, dtype=np.int64)
        cmix = np.zeros(ncopies, dtype=np.int64)
        ubuf = np.zeros((n, maxdeg), dtype=np.int64)
        ulen = np.zeros(n, dtype=np.int64)
        state = np.zeros(2, dtype=np.int64)
        status = impl(cstart, citems, clen, istart, icopies, order, 2,
                      col, nxt, maxu, ccnt, ccol, cmix, ubuf, ulen, state, 10**6)
        results.append((status, tuple(col), int(state[1])))
    assert results[0] == results[1]
    assert results[0][0] == kernels.FOUND


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
    fam = tc.copy_family(tc.chain(2), tc.chain(3), tc.chain(6), tc.INC_INJ)
    n = len(fam.hom_sv)
    cstart, citems, clen, istart, icopies, maxdeg, order = _search_args(fam.copies, n, 2)
    col = np.full(n, -1, dtype=np.int64)
    nxt = np.zeros(n, dtype=np.int64)
    maxu = np.full(n + 1, -1, dtype=np.int64)
    ncopies = len(set(fam.copies))
    ccnt = np.zeros(ncopies, dtype=np.int64)
    ccol = np.zeros(ncopies, dtype=np.int64)
    cmix = np.zeros(ncopies, dtype=np.int64)
    ubuf = np.zeros((n, maxdeg), dtype=np.int64)
    ulen = np.zeros(n, dtype=np.int64)
    state = np.zeros(2, dtype=np.int64)
    pauses = 0
    while True:
        status = kernels.dfs_bad_coloring(
            cstart, citems, clen, istart, icopies, order, 2,
            col, nxt, maxu, ccnt, ccol, cmix, ubuf, ulen, state, int(state[1]) + 50,
        )
        if status != kernels.PAUSED:
            break
        pauses += 1
    assert status == kernels.EXHAUSTED
    assert pauses > 0
    # One-shot run must agree with the chunked run.
    one = tc.arrow_check(tc.chain(2), tc.chain(3), tc.chain(6), 2, tc.INC_INJ)
    assert one.verdict == "arrows"
    assert one.explored == int(state[1])


def test_backend_flag_is_reported():
    assert kernels.BACKEND in ("numba", "python")
    assert kernels.JIT_ENABLED == (kernels.BACKEND == "numba")
