"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and bounds are pinned here; every expected value is either
forced by the definitions, computed by an independent oracle in this file or
conftest.py, or cross-checked against the naive full-enumeration oracle.
"""

import time

import treeconn as tc
from conftest import (
    conn_oracle,
    definitional_order,
    emb_oracle,
    functor_laws,
    galois_ok,
    incinj_oracle,
    naive_bad_coloring,
    psc_oracle,
    rigid_oracle,
)

C1, C2, C3 = tc.chain(1), tc.chain(2), tc.chain(3)


def report(num: int, ok: bool, text: str) -> None:
    print(f"\nCRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def hom_cache(category, sources, targets):
    cache = {}
    for S in sources:
        for T in targets:
            cache[(S.parent, T.parent)] = tc.enumerate_hom(category, S, T)
    return cache


def test_criterion_1_tree_substrate():
    t0 = time.perf_counter()
    counts = [sum(1 for _ in tc.enumerate_trees(n)) for n in range(1, 8)]
    ok = counts == [1, 1, 2, 5, 14, 42, 132]
    pairs = 0
    for t in tc.all_trees_up_to(6):
        for u in range(t.n):
            for v in range(t.n):
                pairs += 1
                if definitional_order(t, u, v) != (u > v) - (u < v):
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, f"tree counts {counts}, {pairs} order comparisons, {elapsed:.2f}s")


def test_criterion_2_adjoint_pair_laws():
    t0 = time.perf_counter()
    small = tc.all_trees_up_to(3)
    big = tc.all_trees_up_to(5)
    checked = violations = 0
    for S in small:
        for T in big:
            embs = emb_oracle(S, T)
            for c in tc.enumerate_rigid_surjections(T, S):
                checked += 1
                s = c.surj
                ind = tc.induced_embedding(s)
                if ind is None:
                    violations += 1
                    continue
                if any(s.values[ind.values[x]] != x for x in range(S.n)):
                    violations += 1
                if any(not T.is_pred(ind.values[s.values[y]], y) for y in range(T.n)):
                    violations += 1
                partners = [e for e in embs if galois_ok(s.values, e, S, T)]
                if partners != [ind.values]:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    report(2, ok, f"{checked} rigid surjections, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_pinned_at_branching_vertices():
    small = tc.all_trees_up_to(3)
    big = tc.all_trees_up_to(5)
    checked = violations = 0
    for S in small:
        branching = [x for x in range(S.n) if S.num_children(x) >= 2]
        if not branching:
            continue
        for T in big:
            embs = tc.enumerate_embeddings(S, T)
            surjs = tc.enumerate_rigid_surjections(T, S)
            for sc in surjs:
                ind = tc.induced_embedding(sc.surj)
                for ec in embs:
                    if any(sc.surj.values[ec.emb.values[x]] != x for x in range(S.n)):
                        continue  # not a partial inverse pair
                    checked += 1
                    for x in branching:
                        if ec.emb.values[x] != ind.values[x]:
                            violations += 1
    ok = violations == 0 and checked > 0
    report(3, ok, f"{checked} partial-inverse pairs checked, {violations} violations")


def test_criterion_4_homset_counts_vs_oracle():
    ok = True
    ok &= len(tc.enumerate_embeddings(C2, C3)) == 2
    ok &= len(tc.enumerate_rigid_surjections(C3, C2)) == 3
    ok &= len(tc.enumerate_connections(C2, C3)) == 4
    for T in tc.all_trees_up_to(5):
        ok &= len(tc.enumerate_psc(C1, T)) == 1
    instances = 0
    for S in tc.all_trees_up_to(3):
        for T in tc.all_trees_up_to(4):
            if T.n ** S.n > 10**6 or S.n ** T.n > 10**6:
                continue
            instances += 1
            ok &= [c.key() for c in tc.enumerate_embeddings(S, T)] == [
                ((), e) for e in emb_oracle(S, T)
            ]
            ok &= [c.key() for c in tc.enumerate_increasing_injections(S, T)] == [
                ((), e) for e in incinj_oracle(S, T)
            ]
            ok &= [c.key() for c in tc.enumerate_rigid_surjections(T, S)] == [
                (s, ()) for s in rigid_oracle(T, S)
            ]
            ok &= [c.key() for c in tc.enumerate_connections(S, T)] == conn_oracle(S, T)
            ok &= [c.key() for c in tc.enumerate_psc(S, T)] == [
                (s, e) for s, e, _ in psc_oracle(S, T)
            ]
    report(4, ok, f"named counts plus generator==oracle on {instances} instances")


def test_criterion_5_doubling_witness_stability():
    t0 = time.perf_counter()
    ok = True
    lines = []
    for S in tc.all_trees_up_to(4):
        dbl = tc.doubling_tree(S)
        for B in dbl.subsets():
            conn = dbl.connection_for(B)
            tc.validate_connection(conn)
            if tc.invariant_set(conn) != B:
                ok = False
        for witness in (dbl.tree, tc.doubling_tree(dbl.tree).tree):
            rep = tc.verify_lower_bound(S, witness)
            ok &= rep.ok
            lines.append(
                f"{tc.format_tree(S)}->|V|={witness.n} {rep.method}:{rep.checked}"
            )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(5, ok, f"{len(lines)} witness sweeps, {elapsed:.1f}s; " + " ".join(lines[-2:]))


def test_criterion_6_two_coloring_separation():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    w = dbl.connection_for({1})
    ok = True
    total = 0
    for witness in (T, tc.doubling_tree(T).tree):
        rep = tc.verify_no_ramsey(C2, T, 1, w.surj, w.emb, witness)
        ok &= rep.ok
        total += rep.checked
    report(6, ok, f"{total} outer morphisms separate the two composites")


def test_criterion_7_degree_at_witness():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    k, cert = tc.degree_at_witness(C2, T, T, 2, tc.CONN)
    ok = k == 2 == 2 ** len(dbl.marked) and cert.verdict == "degree_at_most_k"
    # Lower bound independently: the disagreement-set coloring forces both
    # colors on every copy.
    fam = tc.copy_family(C2, T, T, tc.CONN)
    coloring = [
        0 if tc.invariant_set(h) == frozenset() else 1 for h in fam.hom_sv
    ]
    ok &= all(len({coloring[i] for i in cp}) == 2 for cp in fam.copies)
    report(7, ok, f"degree {k} == 2^|marked| with explicit coloring as lower bound "
                  "(r = 2: lower side only, every degree at r = 2 is at most 2)")


def test_criterion_8_functor_suite():
    t0 = time.perf_counter()
    small = tc.all_trees_up_to(3)
    mid = tc.all_trees_up_to(5)
    ok = True
    # Identities and frankness with section, one morphism at a time.
    for T in mid:
        ok &= tc.to_strong(tc.identity_connection(T)).key() == tc.identity_connection(T, tc.PSC).key()
    for S in small:
        for T in mid:
            pscs = tc.enumerate_psc(S, T)
            strong = {tc.to_strong(c).key() for c in tc.enumerate_connections(S, T)}
            ok &= strong == {p.key() for p in pscs}
            for p in pscs:
                ok &= tc.to_strong(tc.complete_strong(p)).key() == p.key()
                ok &= tc.prune_signature(p) == tc.invariant_set(p)
                if p.source.n >= 2 and tc.prune_top(tc.annotate(p)).bits[-1] == 1:
                    ok &= tc.prune_top(tc.annotate(tc.lower_top(p))).bits[-1] == 0
    # The composition laws of the strongification and of pruning (the
    # recorded bit rides through composition), on whole Hom-sets.
    laws, comp_checked, prune_checked = functor_laws(small, mid)
    ok &= laws
    elapsed = time.perf_counter() - t0
    report(
        8,
        ok,
        f"{comp_checked} strongification and {prune_checked} pruning composites, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_classical_cross_check():
    # Warm the compiled kernels on a trivial instance before timing.
    tc.arrow_check(C2, C2, C3, 2, tc.INC_INJ)
    t0 = time.perf_counter()
    fails = tc.arrow_check(C2, C3, tc.chain(5), 2, tc.INC_INJ)
    holds = tc.arrow_check(C2, C3, tc.chain(6), 2, tc.INC_INJ)
    elapsed = time.perf_counter() - t0
    ok = fails.verdict == "fails" and holds.verdict == "arrows" and elapsed < 5.0
    fam5 = tc.copy_family(C2, C3, tc.chain(5), tc.INC_INJ)
    expected = naive_bad_coloring(fam5.copies, len(fam5.hom_sv), 2)
    ok &= fails.coloring == expected
    for cp in fam5.copies:
        ok &= len({fails.coloring[i] for i in cp}) >= 2
    fam6 = tc.copy_family(C2, C3, tc.chain(6), tc.INC_INJ)
    ok &= naive_bad_coloring(fam6.copies, len(fam6.hom_sv), 2) is None
    report(9, ok, f"threshold between 5 and 6 reproduced in {elapsed:.2f}s")


def test_criterion_10_linear_reduction():
    ok = True
    # On chains, tree connections coincide with the root-fixing linear ones.
    for K, L in ((C2, C2), (C2, C3), (C3, tc.chain(4))):
        tree_keys = [c.key() for c in tc.enumerate_connections(K, L)]
        root_keys = [c.key() for c in tc.enumerate_connections(K, L, tc.CONN_ROOT)]
        ok &= tree_keys == root_keys
    # Composites through the doubled chain keep the full disagreement set.
    K = L = C2
    dbl = tc.doubling_tree(L)
    T = dbl.tree
    full = frozenset(range(1, K.n))
    w = dbl.connection_for(dbl.marked)
    inner = tc.enumerate_connections(K, L)
    ok &= len(inner) == 1
    checked = 0
    for witness in (T, tc.doubling_tree(T).tree):
        for g in tc.enumerate_connections(T, witness):
            for f in inner:
                checked += 1
                comp = tc.compose(tc.compose(f, w), g)
                ok &= tc.invariant_set(comp) == full
    report(10, ok, f"{checked} composites keep the non-minimum set {sorted(full)}")
