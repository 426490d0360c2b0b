import itertools
import re

import pytest
from hypothesis import assume, given, strategies as st

import treeconn as tc
from treeconn.errors import InvalidMorphismError
from conftest import (
    canonical_trees,
    compose_loop,
    cond_a_oracle,
    condition_a_loop,
    emb_oracle,
    galois_ok,
    induced_embedding_loop,
    is_embedding_loop,
    rigid_oracle,
    validate_connection_loop,
)

C1, C2, C3, C4 = tc.chain(1), tc.chain(2), tc.chain(3), tc.chain(4)


def tmap(S, T, vals, top=None):
    return tc.TreeMap(S, T, tuple(vals), domain_top=top)


# Halves of Hom(C2, C3), total and cut to a prefix.
SURJ, EMB_HALF = tmap(C3, C2, (0, 1, 1)), tmap(C2, C3, (0, 1))
SURJ_CUT, EMB_CUT = tmap(C3, C2, (0, 1), top=1), tmap(C2, C3, (0,), top=0)


@pytest.mark.parametrize("build, message", [
    (lambda: tmap(C3, C2, (0, 1), top=3), "domain_top 3 out of range for source of size 3"),
    (lambda: tmap(C3, C2, (0, 1)), "map has 2 values, expected 3"),
    (lambda: tmap(C2, C3, (0, 3)), "value 3 outside target of size 3"),
    (lambda: tc.Connection("bogus", SURJ, EMB_HALF), "unknown category tag 'bogus'"),
    (lambda: tc.Connection(tc.CONN, None, EMB_HALF), "conn needs both halves"),
    (lambda: tc.Connection(tc.CONN, tmap(C3, C3, (0, 1, 2)), EMB_HALF),
     "surjection target differs from embedding source"),
    (lambda: tc.Connection(tc.CONN, tmap(C4, C2, (0, 1, 1, 1)), EMB_HALF),
     "surjection source differs from embedding target"),
    (lambda: tc.Connection(tc.PSC, SURJ_CUT, EMB_CUT), "embedding half must be total"),
    (lambda: tc.Connection(tc.CONN, SURJ_CUT, EMB_HALF), "conn surjection half must be total"),
    (lambda: tc.Connection(tc.INC_INJ, SURJ, EMB_HALF), "incinj carries the embedding half only"),
    (lambda: tc.Connection(tc.EMB, None, EMB_CUT), "embedding half must be total"),
    (lambda: tc.Connection(tc.RIGID, SURJ, EMB_HALF), "rigid carries the surjection half only"),
    (lambda: tc.Connection(tc.RIGID, SURJ_CUT, None), "rigid surjection half must be total"),
], ids=["domain-top-range", "length", "value-range", "unknown-tag", "pair-missing-half",
        "surj-target", "surj-source", "pair-emb-cut", "conn-surj-cut", "emb-only-extra-half",
        "emb-only-cut", "rigid-extra-half", "rigid-cut"])
def test_malformed_maps_and_pairs_are_refused(build, message):
    # Records read from files reach these checks through connection_from_record.
    with pytest.raises(InvalidMorphismError, match=f"^{re.escape(message)}$"):
        build()


def test_is_embedding():
    assert tc.is_embedding(tmap(C3, C3, (0, 1, 2)))
    assert tc.is_embedding(tmap(C2, C3, (0, 2)))
    assert not tc.is_embedding(tmap(C2, C3, (1, 2)))  # root not preserved
    cherry = tc.parse_tree("(()())")
    assert not tc.is_embedding(tmap(cherry, C3, (0, 1, 2)))  # meet broken


def test_induced_embedding():
    ident = tc.induced_embedding(tmap(C3, C3, (0, 1, 2)))
    assert ident.values == (0, 1, 2)
    m = tc.induced_embedding(tmap(C3, C2, (0, 1, 1)))
    assert m.values == (0, 1)
    with pytest.raises(InvalidMorphismError):
        tc.induced_embedding(tmap(C3, C2, (0, 0, 0)))  # not surjective


def test_induced_embedding_of_doubling_witness():
    dbl = tc.doubling_tree(C2)
    m = tc.induced_embedding(dbl.surj)
    assert m.values == dbl.base_index == (0, 1)


def test_is_rigid_surjection():
    assert tc.is_rigid_surjection(tmap(C3, C3, (0, 1, 2)))
    assert tc.is_rigid_surjection(tmap(C3, C2, (0, 1, 0)))
    assert not tc.is_rigid_surjection(tmap(C3, C2, (1, 0, 1)))
    assert not tc.is_rigid_surjection(tmap(C3, C2, (0, 0, 0)))


def test_is_connection_examples():
    assert tc.is_connection(tmap(C2, C2, (0, 1)), tmap(C2, C2, (0, 1)))
    assert tc.is_connection(tmap(C3, C2, (0, 0, 1)), tmap(C2, C3, (0, 2)))
    assert not tc.is_connection(tmap(C3, C2, (0, 0, 1)), tmap(C2, C3, (0, 1)))
    with pytest.raises(InvalidMorphismError):
        tc.is_connection(tmap(C3, C2, (0, 0, 1)), tmap(C2, C4, (0, 2)))


def test_sealed_and_strong():
    assert tc.is_sealed(tmap(C3, C3, (0, 1, 2)))
    assert not tc.is_sealed(tmap(C3, C2, (0, 1, 1)))
    assert tc.is_sealed(tmap(C3, C2, (0, 0, 1)))
    dbl = tc.doubling_tree(C2)
    assert tc.is_strong(tc.identity_connection(dbl.tree, tc.PSC))
    weak = tc.Connection(tc.CONN, dbl.surj, dbl.base_embedding())
    assert not tc.is_strong(weak)  # embedding tops out at vertex 1 of 4


def test_restrict():
    s = tmap(C3, C2, (0, 1, 1))
    r = tc.restrict(s, 1)
    assert r.values == (0, 1) and r.domain_top == 1
    ident = tc.restrict(tmap(C3, C3, (0, 1, 2)), 1)
    assert ident.values == (0, 1)
    assert tc.restrict(s, 2) == tmap(C3, C2, (0, 1, 1), top=2)


def test_compose_connection_example():
    f = tc.Connection(tc.CONN, tmap(C3, C2, (0, 1, 1)), tmap(C2, C3, (0, 2)))
    g = tc.Connection(tc.CONN, tmap(C4, C3, (0, 1, 2, 2)), tmap(C3, C4, (0, 1, 3)))
    h = tc.compose(f, g)
    assert h.surj.values == (0, 1, 1, 1)
    assert h.emb.values == (0, 3)


def test_compose_identity_laws():
    for cat in (tc.CONN, tc.PSC, tc.INC_INJ, tc.RIGID):
        hom = tc.enumerate_hom(cat, C2, C3)
        for f in hom:
            assert tc.compose(tc.identity_connection(C2, cat), f).key() == f.key()
            assert tc.compose(f, tc.identity_connection(C3, cat)).key() == f.key()


def test_compose_psc_domain_top():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    for f in tc.enumerate_psc(C2, C3):
        for g in tc.enumerate_psc(C3, T):
            h = tc.compose(f, g)
            assert h.top == g.emb.values[f.top]
            tc.validate_connection(h)
            assert tc.is_strong(h)


def test_compose_associative_small():
    homs_ab = tc.enumerate_connections(C2, C3)
    homs_bc = tc.enumerate_connections(C3, C4)
    homs_cd = tc.enumerate_connections(C4, tc.chain(5))
    for f in homs_ab:
        for g in homs_bc:
            for h in homs_cd:
                left = tc.compose(tc.compose(f, g), h)
                right = tc.compose(f, tc.compose(g, h))
                assert left.key() == right.key()


def test_compose_psc_associative_small():
    T4 = tc.doubling_tree(C2).tree
    homs_ab = tc.enumerate_psc(C2, C3)
    homs_bc = tc.enumerate_psc(C3, T4)
    homs_cd = tc.enumerate_psc(T4, tc.doubling_tree(C3).tree)
    assert homs_ab and homs_bc and homs_cd
    for f in homs_ab:
        for g in homs_bc:
            for h in homs_cd:
                left = tc.compose(tc.compose(f, g), h)
                right = tc.compose(f, tc.compose(g, h))
                assert left.key() == right.key()
                assert left.top == right.top


def test_compose_refuses_psc_arguments_outside_their_segments():
    # g sends vertex 0, at or below the new top g_e(f_top) = 0, to 1, past
    # f's top 0: the composite escapes the inner initial segment.
    f = tc.Connection(tc.PSC, tmap(C2, C1, (0,), top=0), tmap(C1, C2, (0,)))
    g = tc.Connection(tc.PSC, tmap(C2, C2, (1, 1), top=1), tmap(C2, C2, (0, 1)))
    for fn in (tc.compose, compose_loop):
        with pytest.raises(InvalidMorphismError, match="^composite escapes the inner initial"):
            fn(f, g)
    # A psc argument that is no strong pair has no row, so compose refuses
    # it, even where the loop reference's composite happens to be valid.
    weak = tc.Connection(tc.PSC, tmap(C3, C2, (0, 1, 1), top=2), tmap(C2, C3, (0, 1)))
    ident = tc.identity_connection(C2, tc.PSC)
    assert compose_loop(ident, weak).key() == ((0, 1), (0, 1))
    with pytest.raises(InvalidMorphismError, match="re-validation: pair is not strong"):
        tc.compose(ident, weak)


def test_complete_strong_examples():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    p1 = tc.Connection(
        tc.PSC, tmap(T, C2, (0, 1), top=1), tmap(C2, T, (0, 1))
    )
    assert tc.complete_strong(p1).surj.values == (0, 1, 0, 0)
    p2 = tc.Connection(
        tc.PSC, tmap(T, C2, (0, 1, 1), top=2), tmap(C2, T, (0, 2))
    )
    assert tc.complete_strong(p2).surj.values == (0, 1, 1, 0)
    total = tc.identity_connection(C3, tc.PSC)
    assert tc.complete_strong(total).surj.values == (0, 1, 2)


def test_complete_strong_outputs_are_connections():
    # complete_strong validates only its input; every completion over these
    # psc Hom-sets passes validate_connection, and distinct pairs complete
    # to distinct connections.
    outs, pairs = set(), 0
    for S in tc.all_trees_up_to(4):
        for T in tc.all_trees_up_to(6):
            for p in tc.enumerate_psc(S, T):
                c = tc.complete_strong(p)
                assert c.category == tc.CONN
                tc.validate_connection(c)
                outs.add((S, T, c.key()))
                pairs += 1
    assert len(outs) == pairs == 3459


def test_complete_strong_rejects_non_strong():
    with pytest.raises(InvalidMorphismError):
        dbl = tc.doubling_tree(C2)
        tc.complete_strong(
            tc.Connection(tc.PSC, tc.restrict(dbl.surj, 2), tmap(C2, dbl.tree, (0, 1)))
        )


def test_galois_partner_unique_spot(trees_up_to_4):
    for S in tc.all_trees_up_to(2):
        for T in trees_up_to_4:
            embs = emb_oracle(S, T)
            for s in tc.enumerate_rigid_surjections(T, S):
                partners = [e for e in embs if galois_ok(s.surj.values, e, S, T)]
                assert partners == [tc.induced_embedding(s.surj).values]


def test_induced_embedding_of_composite_factors():
    # Induced embedding of a composite surjection = composite of induced ones.
    checked = 0
    for S in tc.all_trees_up_to(3):
        for T in tc.all_trees_up_to(4):
            rs_ts = tc.enumerate_rigid_surjections(T, S)
            if len(rs_ts) == 0:
                continue
            for V in tc.all_trees_up_to(5):
                rs_vt = tc.enumerate_rigid_surjections(V, T)
                for s in rs_ts:
                    ind_s = tc.induced_embedding(s.surj)
                    for t in rs_vt:
                        ind_t = tc.induced_embedding(t.surj)
                        comp = tc.compose(s, t)
                        expect = tuple(ind_t.values[v] for v in ind_s.values)
                        assert tc.induced_embedding(comp.surj).values == expect
                        checked += 1
    assert checked > 1000


def test_condition_a_equals_linear_connection():
    # Condition (a) reads values only, so chains of every size cover each raw
    # pair, restricted surjections included.
    for ns, nt in itertools.product(range(1, 4), range(1, 6)):
        S, T = tc.chain(ns), tc.chain(nt)
        embs = [tmap(S, T, e) for e in itertools.product(range(nt), repeat=ns)]
        for top in range(nt):
            for svals in itertools.product(range(ns), repeat=top + 1):
                s = tmap(T, S, svals, top)
                for i in embs:
                    want = cond_a_oracle(svals, i.values)
                    assert condition_a_loop(s, i) == want, (svals, i.values)
                    assert tc.condition_a(s, i) == want, (svals, i.values)


def test_condition_a_implies_the_linear_checks():
    # validate_connection checks no linear rigidity or monotonicity after
    # condition (a), because (a) implies both: s is onto with strictly
    # increasing least preimages, and i is strictly increasing.
    held = 0
    for ns, nt in itertools.product(range(1, 4), range(1, 6)):
        for svals in itertools.product(range(ns), repeat=nt):
            for evals in itertools.product(range(nt), repeat=ns):
                if not cond_a_oracle(svals, evals):
                    continue
                held += 1
                assert set(svals) == set(range(ns)), (svals, evals)
                mins = [svals.index(x) for x in range(ns)]
                assert all(a < b for a, b in zip(mins, mins[1:])), (svals, evals)
                assert all(a < b for a, b in zip(evals, evals[1:])), (svals, evals)
    assert held > 100


def _outcome(fn, m):
    """fn(m) as comparable data: its values, None, or the error message."""
    try:
        out = fn(m)
    except InvalidMorphismError as exc:
        return str(exc)
    return None if out is None else out.values


def test_predicates_match_loop_references():
    # Every raw map with |S| <= 3 and |T| <= 5, restricted surjections
    # included.
    for S, T in itertools.product(tc.all_trees_up_to(3), tc.all_trees_up_to(5)):
        for e in itertools.product(range(T.n), repeat=S.n):
            f = tmap(S, T, e)
            assert tc.is_embedding(f) == is_embedding_loop(f), (S, T, e)
            assert tc.is_increasing_injection(f) == (list(e) == sorted(set(e))), (S, T, e)
        for top in range(T.n):
            for svals in itertools.product(range(S.n), repeat=top + 1):
                s = tmap(T, S, svals, top)
                want = _outcome(induced_embedding_loop, s)
                assert _outcome(tc.induced_embedding, s) == want, (S, T, svals)
                assert tc.is_rigid_surjection(s) == isinstance(want, tuple), (S, T, svals)


def test_linear_categories():
    # Linear connections need no meet preservation; tree connections do.
    cherry = tc.parse_tree("(()())")
    lin = tc.enumerate_connections(C3, cherry, tc.CONN_LINEAR)
    tree = tc.enumerate_connections(C3, cherry, tc.CONN)
    assert len(tree) == 0  # no tree embedding of a chain hits both leaves' meet
    assert len(lin) > 0
    rooted = tc.enumerate_connections(C3, cherry, tc.CONN_ROOT)
    assert all(c.emb.values[0] == 0 for c in rooted)
    assert {c.key() for c in rooted} <= {c.key() for c in lin}


def test_connection_record_round_trip():
    for cat in (tc.CONN, tc.PSC, tc.INC_INJ, tc.RIGID):
        for c in tc.enumerate_hom(cat, C2, C3):
            rec = tc.connection_to_record(c)
            back = tc.connection_from_record(rec)
            assert back == c


def test_rigid_enumeration_matches_oracle_spot():
    got = [s.surj.values for s in tc.enumerate_rigid_surjections(C4, C2)]
    assert got == rigid_oracle(C4, C2)


@given(canonical_trees(max_n=4), canonical_trees(max_n=6), st.data())
def test_any_extension_of_an_embedding_is_rigid(S, T, data):
    # A surjection built from any embedding skeleton plus arbitrary choices
    # above the skeleton vertices is rigid, and the skeleton is recovered as
    # its induced embedding.
    embs = tc.enumerate_embeddings(S, T)
    assume(len(embs) > 0)
    skel = data.draw(st.sampled_from([e.emb.values for e in embs]))
    vals = [-1] * T.n
    for x, y in enumerate(skel):
        vals[y] = x
    for y in range(T.n):
        if vals[y] >= 0:
            continue
        allowed = [x for x in range(S.n) if T.is_pred(skel[x], y)]
        vals[y] = data.draw(st.sampled_from(allowed))
    s = tc.TreeMap(T, S, tuple(vals))
    assert tc.is_rigid_surjection(s)
    assert tc.induced_embedding(s).values == skel


def _morphism(data, category, S, T, raw):
    """A morphism of Hom(S, T) drawn from the enumerated Hom-set, or, when
    ``raw``, a Connection of the category's shape with arbitrary values (a
    psc surjection on an arbitrary initial segment)."""
    if not raw:
        hom = tc.enumerate_hom(category, S, T)
        assume(len(hom) > 0)
        return hom[data.draw(st.integers(0, len(hom) - 1))]
    values = lambda frm, to, n: data.draw(st.lists(st.integers(0, to.n - 1),
                                                   min_size=n, max_size=n))
    surj = emb = None
    if category != tc.RIGID:
        emb = tmap(S, T, values(S, T, S.n))
    if category not in (tc.EMB, tc.INC_INJ):
        top = data.draw(st.integers(0, T.n - 1)) if category == tc.PSC else None
        surj = tmap(T, S, values(T, S, T.n if top is None else top + 1), top)
    return tc.Connection(category, surj, emb)


def _result(fn, *args):
    """fn(*args) as comparable data: a morphism's key and top, None, or the
    error message."""
    try:
        out = fn(*args)
    except InvalidMorphismError as exc:
        return str(exc)
    return None if out is None else (out.key(), out.top)


@given(st.sampled_from(tc.CATEGORIES), canonical_trees(max_n=3), canonical_trees(max_n=5),
       st.booleans(), st.data())
def test_validate_connection_matches_loop_reference(category, S, T, raw, data):
    c = _morphism(data, category, S, T, raw)
    assert _result(tc.validate_connection, c) == _result(validate_connection_loop, c)


@given(st.sampled_from(tc.CATEGORIES), canonical_trees(max_n=3), canonical_trees(max_n=4),
       canonical_trees(max_n=5), st.booleans(), st.data())
def test_compose_matches_loop_reference(category, S, T, V, raw, data):
    # compose needs a psc argument shaped as a strong pair (it has no row
    # otherwise), so raw psc maps are left out.
    raw = raw and category != tc.PSC
    f = _morphism(data, category, S, T, raw)
    g = _morphism(data, category, T, V, raw)
    assert _result(tc.compose, f, g) == _result(compose_loop, f, g)
