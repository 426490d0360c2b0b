import dataclasses
import json
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treeconn as tc
from treeconn import kernels, search
from treeconn.errors import DegenerateInputError, InvalidMorphismError
from treeconn import homsets
from treeconn.homsets import HomSet, _emb_rows
from treeconn.morphisms import FAILURES
from conftest import (copy_family_loop, csr_loop, naive_bad_coloring, naive_degree, small_trees,
                      verify_lower_bound_direct_loop, verify_no_ramsey_loop)

C1, C2, C3 = tc.chain(1), tc.chain(2), tc.chain(3)
D1 = tc.doubling_tree(C2).tree
D2 = tc.doubling_tree(D1).tree


def _assert_family_matches_loop(S, T, V, category):
    try:
        fam = tc.copy_family(S, T, V, category)
    except DegenerateInputError:
        return 0
    hom_sv, copies = copy_family_loop(S, T, V, category)
    assert [(h.key(), h.top) for h in fam.hom_sv] == hom_sv
    assert fam.copies == copies
    # f -> f o g is injective: the loop's deduplicated copies keep every f.
    assert {len(cp) for cp in copies} == {len(fam.hom_st)}
    return 1


@pytest.mark.parametrize("category", tc.CATEGORIES)
def test_copy_family_matches_compose_loop(category):
    checked = 0
    for S in small_trees(3):
        for T in small_trees(4):
            for V in small_trees(4):
                checked += _assert_family_matches_loop(S, T, V, category)
    assert checked > 0


@pytest.mark.parametrize("block_cells", [kernels._BLOCK_CELLS, 1])
def test_copy_family_of_doublings_matches_compose_loop(monkeypatch, block_cells):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
    for category in (tc.CONN, tc.PSC, tc.RIGID, tc.CONN_ROOT):
        assert _assert_family_matches_loop(C2, D1, D2, category) == 1


@pytest.mark.parametrize("category", [tc.INC_INJ, tc.RIGID, tc.CONN, tc.PSC])
@pytest.mark.parametrize("which", [0, -1])
def test_copy_family_rejects_a_missing_composite(monkeypatch, category, which):
    V = tc.chain(4)
    hit = sorted({i for cp in tc.copy_family(C2, C3, V, category).copies for i in cp})
    drop = hit[which]
    enumerate_hom = search.enumerate_hom

    def without_one_row(cat, A, B, budget=tc.DEFAULT_BUDGET):
        hom = enumerate_hom(cat, A, B, budget)
        if (A, B) != (C2, V):  # Hom(S, V) only
            return hom
        return HomSet(cat, A, B, np.delete(hom.rows, drop, axis=0))

    monkeypatch.setattr(search, "enumerate_hom", without_one_row)
    with pytest.raises(InvalidMorphismError, match="missing"):
        tc.copy_family(C2, C3, V, category)


def test_copy_family_validates_each_distinct_composite_once(monkeypatch):
    calls = []
    real = search.row_failures

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search, "row_failures", recorded)
    fam = tc.copy_family(C2, D1, D2, tc.PSC)
    hit = sorted({i for cp in fam.copies for i in cp})
    [(category, S, V, rows)] = calls
    assert (category, S, V) == (tc.PSC, C2, D2)
    assert np.array_equal(rows, fam.hom_sv.rows[hit])
    # The first failing row, in Hom(S, V) order, names the failure.
    monkeypatch.setattr(search, "row_failures",
                        lambda cat, S, V, rows: np.resize([-1, 3, 2], len(rows)))
    with pytest.raises(InvalidMorphismError, match=FAILURES[tc.PSC][3]):
        tc.copy_family(C2, D1, D2, tc.PSC)


def _assert_search_arrays_match_loop(fam):
    """_search_arrays' item -> copies arrays are csr_loop's over the rows
    as built, repeated copies kept."""
    for mode in ("canonical", "fast"):
        (istart, icopies, _), _ = search._search_arrays(fam, mode)
        for a, b in zip((istart, icopies), csr_loop(fam.rows.tolist(), fam.n_items), strict=True):
            assert a.dtype == np.int64
            assert a.tolist() == b


def test_csr_matches_loop_reference():
    # Small hand-made families too: a repeated copy, one-item copies and no copies.
    fam = tc.copy_family(C2, D1, D2, tc.CONN)
    cases = [(fam.rows, len(fam.hom_sv)), ([(1, 3), (0, 3), (3, 4), (0, 3)], 5),
             ([(2,), (0,)], 3), (np.empty((0, 2), dtype=np.int64), 0)]
    for rows, n in cases:
        _assert_search_arrays_match_loop(
            SimpleNamespace(rows=np.asarray(rows, dtype=np.int64), n_items=n))


def _search_results(fam, r, mode):
    """Both searches on fam: (status, coloring, nodes) of the arrow search
    and (status, degree, witness, nodes) of the degree search."""
    return (search._search_bad_coloring(fam, r, tc.DEFAULT_BUDGET, mode, time.monotonic()),
            search._search_degree(fam, r, tc.DEFAULT_BUDGET, mode, time.monotonic()))


def _with_rows(fam, rows):
    return SimpleNamespace(n_items=fam.n_items, rows=rows)


@pytest.mark.parametrize("S, T, V, category", [
    ("(())", "(()())", "((())())", tc.PSC),
    ("()", "(((())))", "((()())())", tc.CONN_LINEAR),
], ids=[tc.PSC, tc.CONN_LINEAR])
def test_repeated_copies_change_no_answer(S, T, V, category):
    # The searches read every copy as built; on families where two g give
    # the same copy, the answers equal those on the distinct copies.
    fam = tc.copy_family(*map(tc.parse_tree, (S, T, V)), category)
    distinct = _with_rows(fam, np.unique(fam.rows, axis=0))
    assert fam.rows.shape[1] >= 2 and len(distinct.rows) < len(fam.rows)
    for r in (2, 3):
        assert _search_results(fam, r, "canonical") == _search_results(distinct, r, "canonical")
        # Fast mode orders items by how many copies hold them, repeats
        # counted, so only its verdicts and degrees must agree.
        (status, coloring, _), (dstatus, k, witness, _) = _search_results(fam, r, "fast")
        (want, _, _), (_, want_k, _, _) = _search_results(distinct, r, "fast")
        assert (status, dstatus, k) == (want, kernels.EXHAUSTED, want_k)
        if status == kernels.FOUND:
            search._verify_bad_coloring(fam, coloring, r)
        search._verify_degree_witness(fam, witness, r, k)


def test_search_arrays_memory_on_a_dense_family():
    # conn-root chain2 -> doubling -> doubling^2 with two more leaves: 117,859
    # copies of 12 items, 11 MB of rows.  The family and the search arrays
    # are built in one window: the rows are held once, as built, and the
    # item -> copies arrays are the argsort of them.
    # The re-verification gathers the copies' colors once and sorts them in
    # place, so its own window holds one more copy of the rows.
    V = tc.graft(D2, [0, 1], [tc.parse_forest("()")] * 2).tree
    tracemalloc.start()
    try:
        fam = tc.copy_family(C2, D1, V, tc.CONN_ROOT)
        search._search_arrays(fam, "canonical")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.rows.shape == (117_859, 12)
    assert peak < 40 << 20
    tracemalloc.start()
    try:
        fewest = search._fewest_colors(fam, (0,) * fam.n_items, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fewest == 1
    assert peak < 16 << 20


def test_copy_family_sizes():
    fam = tc.copy_family(C2, C3, tc.chain(4), tc.INC_INJ)
    assert len(fam.hom_sv) == 6
    assert len(fam.hom_tv) == 4
    assert all(len(cp) == 3 for cp in fam.copies)
    ident_fam = tc.copy_family(C2, C3, C3, tc.INC_INJ)
    assert set(ident_fam.copies[0]) == set(range(len(ident_fam.hom_st)))


def test_copy_family_degenerate():
    cherry = tc.parse_tree("(()())")
    with pytest.raises(DegenerateInputError):
        tc.copy_family(cherry, C3, cherry, tc.CONN)  # Hom(S, T) empty


def test_arrow_matches_naive_oracle_small():
    cases = [
        (C2, C3, tc.chain(4), 2),
        (C2, C3, tc.chain(5), 2),
        (C2, C3, tc.chain(5), 3),
        (C2, C2, tc.chain(4), 2),
    ]
    for S, T, V, r in cases:
        fam = tc.copy_family(S, T, V, tc.INC_INJ)
        expected = naive_bad_coloring(fam.copies, len(fam.hom_sv), r)
        cert = tc.arrow_check(S, T, V, r, tc.INC_INJ)
        if expected is None:
            assert cert.verdict == "arrows"
        else:
            assert cert.verdict == "fails"
            assert cert.coloring == expected  # lexicographically least


def test_arrow_with_one_and_two_item_copies():
    # Hom(C2, C2) is the identity, so every copy is one item: each is
    # monochromatic under any coloring and the search ends before a node.
    fam = tc.copy_family(C2, C2, C3, tc.INC_INJ)
    assert {len(cp) for cp in fam.copies} == {1}
    for mode in ("canonical", "fast"):
        cert = tc.arrow_check(C2, C2, C3, 2, tc.INC_INJ, mode=mode)
        assert (cert.verdict, cert.explored) == ("arrows", 0)
        k, cert = tc.degree_at_witness(C2, C2, C3, 2, tc.INC_INJ, mode=mode)
        assert k == 1
    # Hom(C1, C2) has two maps, so the copies are the pairs of points of
    # chainN: a bad r-coloring colors the N points apart, so it exists iff N <= r.
    for n, r in ((2, 2), (3, 2), (3, 3), (4, 3)):
        fam = tc.copy_family(C1, C2, tc.chain(n), tc.INC_INJ)
        assert {len(cp) for cp in fam.copies} == {2}
        cert = tc.arrow_check(C1, C2, tc.chain(n), r, tc.INC_INJ)
        expected = naive_bad_coloring(fam.copies, fam.n_items, r)
        assert cert.verdict == ("arrows" if n > r else "fails")
        assert cert.coloring == expected


@st.composite
def copy_families(draw):
    # Families of one width, as copy_family builds: each copy has
    # len(Hom(S, T)) distinct items.
    n = draw(st.integers(min_value=1, max_value=8))
    width = draw(st.integers(min_value=1, max_value=min(4, n)))
    item = st.integers(min_value=0, max_value=n - 1)
    copy = st.sets(item, min_size=width, max_size=width).map(sorted)
    rows = np.array(draw(st.lists(copy, min_size=1, max_size=6)), dtype=np.int64)
    return SimpleNamespace(n_items=n, rows=rows, copies=rows.tolist()), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(copy_families(), st.data())
def test_searches_match_naive_oracles_on_random_families(family, data):
    fam, r = family
    _assert_search_arrays_match_loop(fam)
    # Canonical answers do not depend on the order of the copies or on a
    # repeated one.
    order = data.draw(st.permutations(range(len(fam.rows))))
    again = data.draw(st.integers(0, len(fam.rows) - 1))
    shuffled = _with_rows(fam, fam.rows[order + [again]])
    assert _search_results(shuffled, r, "canonical") == _search_results(fam, r, "canonical")
    bad = naive_bad_coloring(fam.copies, fam.n_items, r)
    degree = naive_degree(fam.copies, fam.n_items, r)
    for mode in ("canonical", "fast"):
        status, coloring, _ = search._search_bad_coloring(
            fam, r, tc.DEFAULT_BUDGET, mode, time.monotonic())
        if bad is None:
            assert status == kernels.EXHAUSTED
        else:
            assert status == kernels.FOUND
            search._verify_bad_coloring(fam, coloring, r)
            if mode == "canonical":
                assert coloring == bad
        status, k, witness, _ = search._search_degree(
            fam, r, tc.DEFAULT_BUDGET, mode, time.monotonic())
        assert status == kernels.EXHAUSTED
        assert k == degree
        search._verify_degree_witness(fam, witness, r, k)


def test_certificates_reject_a_wrong_coloring():
    fam = tc.copy_family(C2, C3, tc.chain(5), tc.INC_INJ)
    cert = tc.arrow_check(C2, C3, tc.chain(5), 2, tc.INC_INJ)
    search._verify_bad_coloring(fam, cert.coloring, 2)
    search._verify_degree_witness(fam, cert.coloring, 2, 2)
    flipped = (1 - cert.coloring[0],) + cert.coloring[1:]
    with pytest.raises(InvalidMorphismError, match="monochromatic copy"):
        search._verify_bad_coloring(fam, flipped, 2)
    with pytest.raises(InvalidMorphismError, match="attains 1, claimed 2"):
        search._verify_degree_witness(fam, flipped, 2, 2)


def test_fewest_colors_refuses_a_color_outside_the_range():
    fam = tc.copy_family(C2, C3, tc.chain(5), tc.INC_INJ)
    for bad in (-1, 2):
        coloring = (bad,) + (0,) * (fam.n_items - 1)
        with pytest.raises(ValueError, match=r"color indices must lie in 0\.\.r-1"):
            search._fewest_colors(fam, coloring, 2)


def test_arrow_fast_mode_still_verifies():
    cert = tc.arrow_check(C2, C3, tc.chain(5), 2, tc.INC_INJ, mode="fast")
    assert cert.verdict == "fails"
    fam = tc.copy_family(C2, C3, tc.chain(5), tc.INC_INJ)
    for cp in fam.copies:
        assert len({cert.coloring[i] for i in cp}) >= 2


def test_arrow_single_color_always_arrows():
    cert = tc.arrow_check(C2, C3, tc.chain(5), 1, tc.INC_INJ)
    assert cert.verdict == "arrows"


@pytest.mark.parametrize("check, mode", [(tc.arrow_check, "fsat"),
                                         (tc.degree_at_witness, "Fast")],
                         ids=["arrow_check", "degree_at_witness"])
def test_unknown_mode_is_an_error(check, mode):
    # A mistyped mode must not run canonical mode without a word.
    with pytest.raises(ValueError, match=r"mode must be one of \('canonical', 'fast'\)"):
        check(C2, C3, tc.chain(5), 2, tc.INC_INJ, mode=mode)


def test_arrow_budget_unknown():
    tiny = tc.Budget(max_nodes=1)
    cert = tc.arrow_check(C2, C3, tc.chain(6), 2, tc.INC_INJ, budget=tiny)
    assert cert.verdict == "unknown"
    assert cert.exit_code == 2
    # Enumeration budgets also surface as unknown, not as exceptions.
    tiny_hom = tc.Budget(max_hom=3)
    cert = tc.arrow_check(C2, C3, tc.chain(6), 2, tc.INC_INJ, budget=tiny_hom)
    assert cert.verdict == "unknown"
    k, cert = tc.degree_at_witness(C2, C3, tc.chain(6), 2, tc.INC_INJ, budget=tiny_hom)
    assert k is None and cert.verdict == "unknown"
    # The time cap stops the search close to the cap (uncapped, this search
    # uses up the default 20M-node budget without finishing).
    t0 = time.perf_counter()
    cert = tc.arrow_check(C2, C3, tc.chain(12), 3, tc.INC_INJ, tc.Budget(time_cap=1.0))
    assert cert.verdict == "unknown"
    assert time.perf_counter() - t0 < 3.0


def test_unknown_names_its_limit(monkeypatch):
    V = tc.chain(6)
    for limit, budget in (("max_hom", tc.Budget(max_hom=3)),
                          ("max_vertices", tc.Budget(max_vertices=5)),
                          ("max_nodes", tc.Budget(max_nodes=1))):
        cert = tc.arrow_check(C2, C3, V, 2, tc.INC_INJ, budget=budget)
        k, degree_cert = tc.degree_at_witness(C2, C3, V, 2, tc.INC_INJ, budget=budget)
        assert (cert.verdict, degree_cert.verdict, k) == ("unknown", "unknown", None)
        assert cert.limit == degree_cert.limit == limit
        assert "limit" not in cert.to_record()
    real = search.copy_family
    monkeypatch.setattr(search, "copy_family", lambda *args: time.sleep(0.3) or real(*args))
    budget = tc.Budget(time_cap=0.2)
    assert tc.arrow_check(C2, C3, tc.chain(12), 3, tc.INC_INJ, budget).limit == "time_cap"
    assert tc.degree_at_witness(C2, C3, tc.chain(8), 3, tc.INC_INJ, budget)[1].limit == "time_cap"
    # A decided verdict names no limit.
    assert tc.arrow_check(C2, C3, tc.chain(5), 2, tc.INC_INJ).limit is None


def test_time_cap_counts_enumeration(monkeypatch):
    # The cap counts from before the copy family is built, so a family that
    # takes longer than the cap leaves only the first, short search chunk.
    real = search.copy_family

    def slow_copy_family(*args):
        time.sleep(0.3)
        return real(*args)

    monkeypatch.setattr(search, "copy_family", slow_copy_family)
    budget = tc.Budget(time_cap=0.2)
    cert = tc.arrow_check(C2, C3, tc.chain(12), 3, tc.INC_INJ, budget)
    assert cert.verdict == "unknown"
    assert cert.explored <= search._FIRST_TIMED_CHUNK
    k, cert = tc.degree_at_witness(C2, C3, tc.chain(8), 3, tc.INC_INJ, budget)
    assert k is None and cert.verdict == "unknown"
    assert cert.explored <= search._FIRST_TIMED_CHUNK


def test_arrow_chain12_two_colors_exhausts():
    # R(3, 3) = 6: K_12 arrows the triangle at r = 2.  Forward checking
    # exhausts the search in 22,447 nodes (1,454,487 without it).
    cert = tc.arrow_check(C2, C3, tc.chain(12), 2, tc.INC_INJ)
    assert cert.verdict == "arrows"
    assert cert.explored == 22_447


def test_degree_r1_is_one():
    k, cert = tc.degree_at_witness(C2, C3, tc.chain(4), 1, tc.INC_INJ)
    assert k == 1 and cert.verdict == "degree_at_most_k"


def test_degree_color_count_fits_the_mask():
    # r above the number of items is harmless: 5 items, degree 3.
    k, cert = tc.degree_at_witness(C1, C3, tc.chain(5), 65, tc.INC_INJ)
    assert k == 3 and cert.verdict == "degree_at_most_k"
    # 65 items can take 65 colors, more than the int64 color masks hold.
    C65 = tc.chain(65)
    with pytest.raises(ValueError, match="at most 63 colors"):
        tc.degree_at_witness(C1, C65, C65, 65, tc.INC_INJ, tc.Budget(max_vertices=128))


def test_degree_matches_naive_oracle_small():
    cases = [
        (C2, C3, tc.chain(4), 2, tc.INC_INJ),
        (C2, C3, tc.chain(5), 2, tc.INC_INJ),
        (C2, C3, tc.chain(4), 3, tc.INC_INJ),
        (C2, tc.doubling_tree(C2).tree, tc.doubling_tree(C2).tree, 2, tc.CONN),
    ]
    for S, T, V, r, cat in cases:
        fam = tc.copy_family(S, T, V, cat)
        expected = naive_degree(fam.copies, len(fam.hom_sv), r)
        k, cert = tc.degree_at_witness(S, T, V, r, cat)
        assert k == expected
        assert cert.verdict == "degree_at_most_k"


def test_degree_one_at_an_arrows_witness():
    # Where the arrow relation holds, some copy is monochromatic under every
    # coloring, so the degree at that witness is 1.
    k, cert = tc.degree_at_witness(C2, C3, tc.chain(6), 2, tc.INC_INJ)
    assert k == 1 and cert.verdict == "degree_at_most_k"


def test_degree_lower_bound_at_doubling_witnesses():
    # With the doubled tree as middle object and r = 2^{marked}, the degree
    # at the witness reaches 2^{marked}.
    for S in (C1, C2, tc.parse_tree("(()())")):
        dbl = tc.doubling_tree(S)
        r = 2 ** len(dbl.marked)
        k, cert = tc.degree_at_witness(S, dbl.tree, dbl.tree, r, tc.CONN)
        assert cert.verdict == "degree_at_most_k"
        assert k >= 2 ** len(dbl.marked)


def test_degree_at_most_flag():
    T = tc.doubling_tree(C2).tree
    k, cert = tc.degree_at_witness(C2, T, T, 2, tc.CONN, at_most=1)
    assert k == 2
    assert cert.verdict == "degree_exceeds_k"
    assert cert.exit_code == 1


def test_search_covers_every_category():
    # The one engine drives all category tags; verdicts match the naive
    # oracle on small instances.
    cases = [
        (C2, C3, tc.chain(4), 2, tc.CONN_ROOT),
        (C2, C3, tc.chain(4), 2, tc.RIGID),
        (C2, C3, tc.chain(4), 2, tc.CONN),
        (C2, C3, tc.chain(4), 2, tc.PSC),
    ]
    for S, T, V, r, cat in cases:
        fam = tc.copy_family(S, T, V, cat)
        expected = naive_bad_coloring(fam.copies, len(fam.hom_sv), r)
        cert = tc.arrow_check(S, T, V, r, cat)
        if expected is None:
            assert cert.verdict == "arrows", cat
        else:
            assert cert.verdict == "fails" and cert.coloring == expected, cat


def test_certificate_json_round_trip():
    cert = tc.arrow_check(C2, C3, tc.chain(5), 2, tc.INC_INJ)
    rec = json.loads(cert.to_json())
    assert set(rec) == {"verdict", "r", "k", "coloring", "explored"}
    assert rec["verdict"] == "fails"
    assert rec["coloring"] == list(cert.coloring)


def test_lower_bound_methods_agree():
    cherry = tc.parse_tree("(()())")
    cases = [
        (C1, None),
        (C1, "double"),
        (C2, None),
        (C2, "double"),
        (cherry, None),
    ]
    for S, which in cases:
        dbl = tc.doubling_tree(S)
        V = dbl.tree if which is None else tc.doubling_tree(dbl.tree).tree
        direct = tc.verify_lower_bound(S, V, method="direct")
        factored = tc.verify_lower_bound(S, V, method="factored")
        assert direct.ok and factored.ok
        # Distinct (induced embedding, embedding) pairs in the literal
        # Hom-set equal the realizable pairs of the factored sweep.
        hom = tc.enumerate_connections(dbl.tree, V)
        pairs = {(tc.induced_embedding(g.surj).values, g.emb.values) for g in hom}
        assert len(pairs) == factored.checked >> len(dbl.marked)


def test_lower_bound_detects_planted_violation():
    # Feed the factored sweep a wrong double index and expect a violation.
    import numpy as np

    from treeconn import kernels
    from treeconn.homsets import _emb_rows

    dbl = tc.doubling_tree(C2)
    V = tc.doubling_tree(dbl.tree).tree
    rows = _emb_rows(dbl.tree, V, tc.DEFAULT_BUDGET)
    base = np.array([dbl.base_index[1]], dtype=np.int64)
    wrong_first = np.array([dbl.base_index[1]], dtype=np.int64)  # not the double
    viol = np.full((16, 2), -1, dtype=np.int64)
    nfeas, nviol = kernels.doubling_pair_sweep(rows, rows, V.anc, base, wrong_first, viol)
    assert nfeas > 0 and nviol > 0


# chain1, chain2, the 3-vertex trees and the 4-vertex sources of the
# benchmark's lower-bound family.
DIRECT_SOURCES = ("()", "(())", "(()())", "((()))", "(()()())", "(()(()))", "((())())",
                  "((()()))", "(((())))")


def _direct(dbl, V):
    rows = _emb_rows(dbl.tree, V, tc.DEFAULT_BUDGET)
    return search._verify_lower_bound_direct(dbl, V, rows, tc.DEFAULT_BUDGET)


def _plant(dbl, a):
    """The doubling with a's first double moved onto a itself: each witness
    stays a valid connection but no longer disagrees at a."""
    return dataclasses.replace(dbl, doubles={**dbl.doubles, a: (dbl.base_index[a], dbl.doubles[a][1])})


@pytest.mark.parametrize("block_cells", [kernels._BLOCK_CELLS, 100])
def test_direct_verifications_match_loop_references(monkeypatch, block_cells):
    # With 100-cell blocks the outer morphisms fall in many blocks.
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
    cases = [(text, V) for text in DIRECT_SOURCES
             for D in [tc.doubling_tree(tc.parse_tree(text)).tree] for V in (D, tc.plus_leaf(D))]
    cases.append(("(())", D2))
    truncated = 0
    for text, V in cases:
        S = tc.parse_tree(text)
        dbl = tc.doubling_tree(S)
        rep = tc.verify_lower_bound(S, V, method="direct")
        assert rep.ok
        assert rep == verify_lower_bound_direct_loop(dbl, V), (text, V)
        for a in dbl.marked:
            planted = _plant(dbl, a)
            rep = _direct(planted, V)
            assert not rep.ok and 0 < len(rep.details) <= 16
            assert rep == verify_lower_bound_direct_loop(planted, V), (text, V, a)
            truncated += rep.checked // 2 > 16
        for x in dbl.marked:
            w = dbl.connection_for({x})
            rep = tc.verify_no_ramsey(S, dbl.tree, x, w.surj, w.emb, V)
            assert rep.ok
            assert rep == verify_no_ramsey_loop(S, dbl.tree, x, w.surj, w.emb, V), (text, V, x)
    # Half the checks of a planted vertex are violations: some cases keep
    # only the first 16.
    assert truncated > 0


def test_direct_lower_bound_rejects_an_invalid_composite():
    dbl = tc.doubling_tree(C2)
    # Not an embedding (the root is not preserved), yet shaped like a witness.
    broken = dataclasses.replace(dbl, base_index=(1, 2))
    with pytest.raises(InvalidMorphismError, match="composite failed re-validation"):
        _direct(broken, dbl.tree)


def test_auto_lower_bound_enumerates_the_embeddings_once(monkeypatch):
    # The auto choice counts the rigid surjections V -> T on the embeddings
    # T -> V and hands the same rows to the method it picks.
    cases = [(tc.parse_tree(text), V) for text in ("(())", "(()())", "((()))")
             for D in [tc.doubling_tree(tc.parse_tree(text)).tree]
             for V in (D, tc.plus_leaf(D), tc.doubling_tree(D).tree)]
    want = []
    for S, V in cases:
        T = tc.doubling_tree(S).tree
        n = tc.count_rigid_surjections(V, T, cap=search._DIRECT_CAP)
        method = "direct" if n <= search._DIRECT_CAP else "factored"
        want.append(tc.verify_lower_bound(S, V, method=method))
    assert {rep.method for rep in want} == {"direct", "factored"}
    calls = []

    def counted(S, T, budget, **kw):
        calls.append((S, T))
        return _emb_rows(S, T, budget, **kw)

    monkeypatch.setattr(search, "_emb_rows", counted)
    monkeypatch.setattr(homsets, "_emb_rows", counted)
    for (S, V), rep in zip(cases, want):
        calls.clear()
        assert tc.verify_lower_bound(S, V) == rep
        assert calls == [(tc.doubling_tree(S).tree, V)], (S, V, rep.method)


def test_no_ramsey_pass_and_preconditions():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    w = dbl.connection_for({1})
    for V in (T, tc.doubling_tree(T).tree):
        rep = tc.verify_no_ramsey(C2, T, 1, w.surj, w.emb, V)
        assert rep.ok
    plain = dbl.connection_for(())
    with pytest.raises(InvalidMorphismError, match="agrees with the induced"):
        tc.verify_no_ramsey(C2, T, 1, plain.surj, plain.emb, T)
    not_emb = tc.TreeMap(C2, T, (1, 2))  # root not preserved
    with pytest.raises(InvalidMorphismError, match="not a connection"):
        tc.verify_no_ramsey(C2, T, 1, w.surj, not_emb, T)
    # Mapping onto the second double also yields a valid witness pair.
    second = tc.Connection(tc.CONN, w.surj, tc.TreeMap(C2, T, (0, 3)))
    tc.validate_connection(second)
    assert tc.verify_no_ramsey(C2, T, 1, second.surj, second.emb, T).ok


def test_no_ramsey_refuses_trees_the_pair_does_not_run_between():
    # The pair lives on doubling(((()))) = ((((()()))())).  Another tree of
    # 7 vertices, as T and as the witness, once reported a pass.
    S = tc.parse_tree("((()))")
    dbl = tc.doubling_tree(S)
    w = dbl.connection_for({1})
    wrong = tc.parse_tree("(((((())))()))")
    with pytest.raises(ValueError, match="^T is not the tree that s maps from$"):
        tc.verify_no_ramsey(S, wrong, 1, w.surj, w.emb, wrong)
    with pytest.raises(ValueError, match="^S is not the tree that s maps onto$"):
        tc.verify_no_ramsey(tc.parse_tree("(()())"), dbl.tree, 1, w.surj, w.emb, dbl.tree)


def test_no_ramsey_needs_branching_image():
    # Identity on a chain: induced image of x has a single child.
    s = tc.TreeMap(C3, C3, (0, 1, 2))
    i = tc.TreeMap(C3, C3, (0, 1, 2))
    with pytest.raises(InvalidMorphismError, match="agrees with the induced"):
        tc.verify_no_ramsey(C3, C3, 1, s, i, C3)
    # (s, i) disagrees at 1, but vertex 1 of chain3, its induced image,
    # has one child.
    s = tc.TreeMap(C3, C2, (0, 1, 1))
    i = tc.TreeMap(C2, C3, (0, 2))
    with pytest.raises(InvalidMorphismError,
                       match="^hypothesis failed: induced image of 1 has fewer than two "
                             "immediate successors$"):
        tc.verify_no_ramsey(C2, C3, 1, s, i, C3)


def test_factored_lower_bound_reports_its_violations():
    # Each first double moved onto its base vertex: the identity pair of
    # the sweep breaks the stability condition.
    dbl = tc.doubling_tree(tc.parse_tree("((()))"))
    planted = dataclasses.replace(
        dbl, doubles={x: (dbl.base_index[x], d[1]) for x, d in dbl.doubles.items()})
    V = dbl.tree
    rep = search._verify_lower_bound_factored(planted, V, _emb_rows(V, V, tc.DEFAULT_BUDGET))
    ident = tuple(range(V.n))
    assert (rep.ok, rep.checked, rep.method) == (False, 4, "factored")
    assert rep.details == (
        f"skeleton {ident} with embedding {ident} breaks the stability condition",)
    assert rep.summary() == (
        "doubling-coloring-stability: FAIL (4 checks, factored)\n  " + rep.details[0])


def _no_disagreements(category, S, T, rows):
    return np.zeros((len(rows), S.n), dtype=bool)


def test_direct_lower_bound_reports_at_most_16_violations(monkeypatch):
    # With every composite colored by the empty set, each outer morphism
    # fails for the subset {1}.
    monkeypatch.setattr(search, "row_disagreements", _no_disagreements)
    rep = tc.verify_lower_bound(C2, D2, method="direct")
    assert (rep.ok, rep.checked, len(rep.details)) == (False, 1062, 16)
    assert rep.details[0] == "outer surj (0, 0, 0, 0, 0, 1, 2, 3) emb (0, 5, 6, 7): subset [1] colored []"
    assert all(d.endswith(": subset [1] colored []") for d in rep.details)
    assert len(set(rep.details)) == 16
    assert rep.summary().splitlines()[0] == "doubling-coloring-stability: FAIL (1062 checks, direct)"
    assert rep.summary().splitlines()[1:] == ["  " + d for d in rep.details]


def test_no_ramsey_reports_at_most_16_violations(monkeypatch):
    monkeypatch.setattr(search, "row_disagreements", _no_disagreements)
    w = tc.doubling_tree(C2).connection_for({1})
    rep = tc.verify_no_ramsey(C2, D1, 1, w.surj, w.emb, D2)
    assert (rep.ok, rep.checked, len(rep.details)) == (False, 531, 16)
    assert rep.details[0] == "outer surj (0, 0, 0, 0, 0, 1, 2, 3) emb (0, 5, 6, 7): colors (0, 0)"
    assert all(d.endswith(": colors (0, 0)") for d in rep.details)
    assert len(set(rep.details)) == 16
    assert rep.summary().splitlines()[0] == "two-coloring-separation: FAIL (531 checks, direct)"
