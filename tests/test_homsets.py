import time

import pytest

import treeconn as tc
from treeconn.errors import BudgetExceededError
from conftest import (
    conn_oracle,
    emb_oracle,
    incinj_oracle,
    linear_conn_oracle,
    psc_oracle,
    rigid_oracle,
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


def test_large_embedding_set_grows_buffer():
    # More results than the first-pass buffer holds triggers the exact retry.
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
