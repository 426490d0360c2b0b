import functools
import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest

import treeconn as tc
from treeconn import kernels
from treeconn.errors import BudgetExceededError, InvalidMorphismError
from treeconn.homsets import HomSet, _row_keys
from treeconn.morphisms import FAILURES, row_disagreements, row_failures
from treeconn.trees import ROOT
from conftest import (
    conn_oracle,
    disagreements_loop,
    emb_oracle,
    enumerate_psc_loop,
    incinj_oracle,
    induced_embedding_loop,
    is_embedding_loop,
    linear_conn_oracle,
    psc_oracle,
    rigid_oracle,
    small_trees,
    validate_connection_loop,
)

C1, C2, C3 = tc.chain(1), tc.chain(2), tc.chain(3)
CHERRY = tc.parse_tree("(()())")


def test_known_counts():
    assert len(tc.enumerate_embeddings(C2, C3)) == 2
    assert len(tc.enumerate_embeddings(C2, CHERRY)) == 2
    assert len(tc.enumerate_rigid_surjections(C3, C2)) == 3
    assert len(tc.enumerate_rigid_surjections(C2, C2)) == 1
    assert len(tc.enumerate_connections(C2, C3)) == 4
    assert len(tc.enumerate_increasing_injections(C2, tc.chain(5))) == 10


def test_connection_membership_example():
    dbl = tc.doubling_tree(C2)
    keys = {c.key() for c in tc.enumerate_connections(C2, dbl.tree)}
    assert ((0, 1, 1, 1), (0, 1)) in keys
    assert ((0, 1, 1, 1), (0, 2)) in keys


def test_chain1_connections():
    for T in tc.all_trees_up_to(4):
        hom = tc.enumerate_connections(C1, T)
        assert len(hom) == 1
        assert hom[0].emb.values == (0,)


def test_identity_membership():
    for cat in (tc.CONN, tc.PSC, tc.EMB, tc.INC_INJ, tc.RIGID):
        hom = tc.enumerate_hom(cat, C3, C3)
        assert tc.identity_connection(C3, cat).key() in {c.key() for c in hom}


@pytest.mark.parametrize(
    "category",
    [tc.EMB, tc.INC_INJ, tc.RIGID, tc.CONN, tc.PSC, tc.CONN_LINEAR, tc.CONN_ROOT],
)
def test_generator_matches_oracle(category, trees_up_to_5):
    for S in trees_up_to_5:
        for T in trees_up_to_5:
            hom = tc.enumerate_hom(category, S, T)
            got = [c.key() for c in hom]
            if category == tc.EMB:
                expect = [((), e) for e in emb_oracle(S, T)]
            elif category == tc.INC_INJ:
                expect = [((), e) for e in incinj_oracle(S, T)]
            elif category == tc.RIGID:
                expect = [(s, ()) for s in rigid_oracle(T, S)]
            elif category == tc.CONN:
                expect = list(conn_oracle(S, T))
            elif category == tc.PSC:
                got = [(*c.key(), c.surj.domain_top) for c in hom]
                expect = psc_oracle(S, T)
            else:
                expect = linear_conn_oracle(S.n, T.n, category == tc.CONN_ROOT)
            assert got == expect, (category, tc.format_tree(S), tc.format_tree(T))


def test_enumeration_deterministic():
    a = tc.enumerate_connections(C3, CHERRY, tc.CONN_LINEAR)
    b = tc.enumerate_connections(C3, CHERRY, tc.CONN_LINEAR)
    assert [c.key() for c in a] == [c.key() for c in b]


def test_lexicographic_order():
    for cat in (tc.CONN, tc.PSC, tc.RIGID, tc.EMB):
        hom = tc.enumerate_hom(cat, C2, tc.doubling_tree(C2).tree)
        keys = [c.key() for c in hom]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_psc_singleton_from_point():
    for T in tc.all_trees_up_to(5):
        assert len(tc.enumerate_psc(C1, T)) == 1


def _psc_pairs():
    """Every S <= 4 vertices into every T <= 5 vertices, plus chain2 and
    doubling(chain2) into doubling^2(chain2) and each of its 1- and 2-leaf
    extensions (|V| <= 10)."""
    D1 = tc.doubling_tree(C2).tree
    D2 = tc.doubling_tree(D1).tree
    leaf = tc.Forest((ROOT,))
    witnesses = [D2] + [tc.graft(D2, list(a), [leaf] * len(a)).tree
                        for k in (1, 2) for a in itertools.combinations(range(D2.n), k)]
    return ([(S, T) for S in small_trees(4) for T in small_trees(5)]
            + [(S, V) for S in (C2, D1) for V in witnesses])


@pytest.mark.parametrize("block_cells", [kernels._BLOCK_CELLS, 1])
def test_psc_matches_per_segment_reference(monkeypatch, block_cells):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", block_cells)
    for S, T in _psc_pairs():
        got, want = tc.enumerate_psc(S, T).rows, enumerate_psc_loop(S, T).rows
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (S, T)
        assert got.tobytes() == want.tobytes(), (S, T)


def test_psc_budget_is_exact_in_one_connection_rows_call(monkeypatch):
    calls = []
    rows = kernels.connection_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return rows(*args, **kwargs)

    monkeypatch.setattr(kernels, "connection_rows", counted)
    D2 = tc.doubling_tree(tc.doubling_tree(C2).tree).tree
    for S, T in [(C2, tc.chain(4)), (C2, D2), (tc.doubling_tree(C2).tree, D2)]:
        size = len(enumerate_psc_loop(S, T))
        calls.clear()
        assert len(tc.enumerate_psc(S, T, tc.Budget(max_hom=size))) == size
        assert len(calls) == 1
        with pytest.raises(BudgetExceededError, match="partial strong pairs") as info:
            tc.enumerate_psc(S, T, tc.Budget(max_hom=size - 1))
        assert info.value.kind == "max_hom"


def test_all_members_validate():
    for cat in (tc.CONN, tc.PSC, tc.CONN_LINEAR, tc.CONN_ROOT):
        for c in tc.enumerate_hom(cat, C2, CHERRY):
            tc.validate_connection(c)


def test_budget_errors():
    tiny = tc.Budget(max_vertices=3)
    with pytest.raises(BudgetExceededError):
        tc.enumerate_connections(C2, tc.chain(4), budget=tiny)
    small_hom = tc.Budget(max_hom=2)
    with pytest.raises(BudgetExceededError):
        tc.enumerate_rigid_surjections(C3, C2, budget=small_hom)


@pytest.mark.parametrize("call, kind, message", [
    (lambda: tc.enumerate_hom(tc.EMB, C2, tc.chain(5), tc.Budget(max_vertices=4)),
     "max_vertices", "vertices exceeds"),
    (lambda: tc.enumerate_embeddings(C2, tc.chain(5), tc.Budget(max_hom=3)),
     "max_hom", "embeddings exceed"),
    (lambda: tc.enumerate_rigid_surjections(C3, C2, tc.Budget(max_hom=2)),
     "max_hom", "rigid surjections"),
    (lambda: tc.enumerate_connections(C2, C3, budget=tc.Budget(max_hom=3)),
     "max_hom", "connections"),
    (lambda: tc.enumerate_psc(C2, C3, tc.Budget(max_hom=2)),
     "max_hom", "partial strong pairs"),
    (lambda: list(tc.enumerate_trees(5, tc.Budget(max_tree_size=4))),
     "max_tree_size", "tree size"),
])
def test_budget_error_names_its_limit(call, kind, message):
    with pytest.raises(BudgetExceededError, match=message) as info:
        call()
    assert info.value.kind == kind


def test_hom_rows_are_read_only():
    for category in tc.CATEGORIES:
        hom = tc.enumerate_hom(category, C2, C3)
        assert len(hom) > 0
        assert not hom.rows.flags.writeable
        with pytest.raises(ValueError):
            hom.rows[0, 0] = 1
        assert [c.key() for c in hom] == [hom[i].key() for i in range(len(hom))]


def test_row_keys_follow_lexicographic_row_order():
    # Entries past 255 need more than one byte; -1 is the psc padding.
    rows = np.array([[-1, 300], [0, 5], [0, 256], [1, -1], [255, 0], [256, 0]])
    keys = _row_keys(rows)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.arange(len(rows)))


def test_large_embedding_set_grows_buffer():
    # More rows than one block of the embedding frontier holds.
    roomy = tc.Budget(max_vertices=64, max_hom=20_000)
    hom = tc.enumerate_increasing_injections(C3, tc.chain(40), roomy)
    assert len(hom) == 9880  # C(40, 3)
    assert hom[0].emb.values == (0, 1, 2)
    assert hom[-1].emb.values == (37, 38, 39)


def test_self_hom_of_a_long_chain_is_the_identity():
    # Backtracking without a bound on the room left to place the remaining
    # images is exponential here (8 s at chain20).
    C22 = tc.chain(22)
    for category in (tc.INC_INJ, tc.EMB):
        t0 = time.perf_counter()
        hom = tc.enumerate_hom(category, C22, C22)
        assert time.perf_counter() - t0 < 2.0
        assert [c.emb.values for c in hom] == [tuple(range(22))]


def test_count_rigid_surjections_formula():
    for T in tc.all_trees_up_to(4):
        for S in tc.all_trees_up_to(3):
            exact = len(tc.enumerate_rigid_surjections(T, S))
            assert tc.count_rigid_surjections(T, S) == exact
    assert tc.count_rigid_surjections(tc.chain(8), C2, cap=10) == 11  # clamped


def test_count_rigid_surjections_refuses_a_negative_cap():
    T = tc.parse_tree("(()()())")
    assert tc.count_rigid_surjections(T, tc.chain(2)) == 3
    assert tc.count_rigid_surjections(T, tc.chain(2), cap=0) == 1  # clamped
    for cap in (-1, -5):
        with pytest.raises(ValueError, match=f"^cap must be non-negative, got {cap}$"):
            tc.count_rigid_surjections(T, tc.chain(2), cap=cap)


def test_count_rigid_surjections_past_max_hom_raises_unless_capped():
    # 2,455,714,800 rigid surjections; without a cap the count once read
    # max_hom + 1 = 200,001 as if it were exact.
    T = tc.parse_tree("(((()()()(())((())())()(())()()(()()))))")
    S = tc.parse_tree("(((()())))")
    for count in (tc.count_rigid_surjections, tc.enumerate_rigid_surjections):
        with pytest.raises(BudgetExceededError, match="more than max_hom=200000") as exc:
            count(T, S)
        assert exc.value.kind == "max_hom"
    assert tc.count_rigid_surjections(T, S, cap=10**12) == 2_455_714_800
    assert tc.count_rigid_surjections(T, S, cap=10) == 11


def _raw_rows(S, V):
    """Every surjection-half x embedding-half row of values, valid or not."""
    surj = np.array(list(itertools.product(range(S.n), repeat=V.n))).reshape(-1, V.n)
    emb = np.array(list(itertools.product(range(V.n), repeat=S.n))).reshape(-1, S.n)
    return np.concatenate((np.repeat(surj, len(emb), axis=0), np.tile(emb, (len(surj), 1))), axis=1)


# Raw rows repeat each half many times, so the reference's per-half work is
# done once per distinct half: one TreeMap each, the induced embedding of a
# surjection and the embedding check of an embedding.
_induced = functools.cache(induced_embedding_loop)
_embeds = functools.cache(is_embedding_loop)


def _halves(rows, cols, frm, to):
    """Per row, its half rows[:, cols] as a TreeMap frm -> to, one object
    per distinct half (found by the half's base-|to| numeral)."""
    half = rows[:, cols]
    _, first, inv = np.unique(half @ to.n ** np.arange(half.shape[1]),
                              return_index=True, return_inverse=True)
    maps = [tc.TreeMap(frm, to, vals) for vals in half[first].tolist()]
    return [maps[k] for k in inv.tolist()]


def _validate_pair(s, i):
    """(validate_connection_loop's message or None, disagreements with the
    induced embedding or None) for the CONN pair (s, i)."""
    # The halves run between the same two trees, so a namespace stands in
    # for the Connection, whose construction would cost more than the check.
    try:
        validate_connection_loop(SimpleNamespace(category=tc.CONN, surj=s, emb=i),
                                 induced=_induced, embeds=_embeds)
    except InvalidMorphismError as exc:
        return str(exc), None
    ind = _induced(s).values
    return None, [a != b for a, b in zip(i.values, ind)]


def _assert_rows_match_validation(S, V, rows):
    failed = row_failures(tc.CONN, S, V, rows)
    diff = np.zeros((len(rows), S.n), dtype=bool)
    diff[failed < 0] = row_disagreements(tc.CONN, S, V, rows[failed < 0])
    seen = set()
    pairs = zip(_halves(rows, slice(None, V.n), V, S), _halves(rows, slice(V.n, None), S, V))
    for row, (s, i), f, d in zip(rows.tolist(), pairs, failed.tolist(), diff.tolist()):
        msg, want = _validate_pair(s, i)
        assert (FAILURES[tc.CONN][f] if f >= 0 else None) == msg, (S, V, row)
        if want is not None:
            assert d == want, (S, V, row)
        seen.add(f)
    return seen


def test_conn_row_check_matches_validate_connection_on_raw_rows():
    # Every raw row with |S| <= 3 and |V| <= 5.
    seen = set()
    for S, V in itertools.product(tc.all_trees_up_to(3), tc.all_trees_up_to(5)):
        seen |= _assert_rows_match_validation(S, V, _raw_rows(S, V))
    # Every outcome occurs: valid, and each of the three failures.
    assert seen == {-1, 0, 1, 2}


def _raw_category_rows(category, S, V):
    """Every raw row of Hom(S, V) in the category's layout; a psc
    surjection is defined up to the embedding's last value, -1 past it."""
    maps = lambda frm, to: np.array(list(itertools.product(range(to.n), repeat=frm.n)))
    if category in (tc.EMB, tc.INC_INJ):
        return maps(S, V)
    if category == tc.RIGID:
        return maps(V, S)
    if category != tc.PSC:
        return _raw_rows(S, V)
    parts = []
    for e in maps(S, V).tolist():
        top = e[-1]
        surj = np.array(list(itertools.product(range(S.n), repeat=top + 1))).reshape(-1, top + 1)
        pad = np.full((len(surj), V.n - 1 - top), -1)
        parts.append(np.column_stack((surj, pad, np.tile(e, (len(surj), 1)))))
    return np.concatenate(parts)


@pytest.mark.parametrize("category", [c for c in tc.CATEGORIES if c != tc.CONN])
def test_row_failures_match_validate_connection_on_raw_rows(category):
    # Every raw row with |S| <= 3, and |V| <= 4 for pairs, |V| <= 5 for maps.
    seen = set()
    max_v = 5 if category in (tc.EMB, tc.INC_INJ, tc.RIGID) else 4
    for S, V in itertools.product(tc.all_trees_up_to(3), tc.all_trees_up_to(max_v)):
        rows = _raw_category_rows(category, S, V)
        failed = row_failures(category, S, V, rows).tolist()
        for c, f in zip(HomSet(category, S, V, rows), failed):
            try:
                validate_connection_loop(c)
                msg = None
            except InvalidMorphismError as exc:
                msg = str(exc)
            assert (FAILURES[category][f] if f >= 0 else None) == msg, (S, V, c)
        seen.update(failed)
    # Every outcome occurs: valid, and each failure a row can show (a psc
    # row ends at its embedding's last value, so it never fails
    # FAILURES[PSC][1], the strong pair check).
    strong = {1} if category == tc.PSC else set()
    assert seen == {-1} | set(range(len(FAILURES[category]))) - strong


def test_row_failures_reject_values_outside_their_tree():
    V = tc.doubling_tree(C2).tree
    bad = {tc.EMB: [0, 4], tc.INC_INJ: [-1, 2], tc.RIGID: [0, 0, 2, 1],
           tc.CONN: [0, 1, 1, 2, 0, 1],
           tc.PSC: [[0, 1, 0, -1, 0, 1],  # a value past the top, which is 1
                    [0, -1, -1, -1, 0, 2]]}  # -1 inside the segment 0..2
    for category, rows in bad.items():
        for row in np.atleast_2d(rows):
            with pytest.raises(InvalidMorphismError, match="outside"):
                row_failures(category, C2, V, row[None])
    assert row_failures(tc.PSC, C2, V, np.array([[0, 1, -1, -1, 0, 1]])).tolist() == [-1]


def test_embedding_mask_matches_loop_reference():
    # Every raw map S -> V with |S| <= 3 and |V| <= 5.
    for S, V in itertools.product(tc.all_trees_up_to(3), tc.all_trees_up_to(5)):
        e = np.array(list(itertools.product(range(V.n), repeat=S.n)))
        want = [is_embedding_loop(tc.TreeMap(S, V, row)) for row in e.tolist()]
        assert (row_failures(tc.EMB, S, V, e) < 0).tolist() == want, (S, V)


def test_conn_disagreements_on_enumerated_connections(trees_up_to_5):
    for S in trees_up_to_5:
        for V in trees_up_to_5:
            hom = tc.enumerate_connections(S, V)
            if len(hom):
                assert _assert_rows_match_validation(S, V, hom.rows) == {-1}
                assert row_disagreements(tc.CONN, S, V, hom.rows).tolist() == [
                    [x in disagreements_loop(c) for x in range(S.n)] for c in hom]


def test_conn_disagreements_raises_on_the_first_invalid_row():
    S, V = C2, tc.doubling_tree(C2).tree
    rows = tc.enumerate_connections(S, V).rows
    for bad, message in (((0, 0, 0, 0, 0, 1), FAILURES[tc.CONN][0]),  # s(i(1)) = 0
                         ((0, 0, 0, 1, 1, 3), FAILURES[tc.CONN][2])):  # i(0) is not the root
        mixed = np.concatenate((rows, [bad], rows))
        with pytest.raises(InvalidMorphismError, match=message):
            row_disagreements(tc.CONN, S, V, mixed)
    with pytest.raises(InvalidMorphismError, match="outside"):
        row_disagreements(tc.CONN, S, V, np.array([[0, 1, 1, 2, 0, 1]]))
