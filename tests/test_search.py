import json
import time

import pytest

import treeconn as tc
from treeconn.errors import DegenerateInputError, InvalidMorphismError
from treeconn.search import count_outer_pairs
from conftest import naive_bad_coloring, naive_degree

C1, C2, C3 = tc.chain(1), tc.chain(2), tc.chain(3)


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


def test_arrow_fast_mode_still_verifies():
    cert = tc.arrow_check(C2, C3, tc.chain(5), 2, tc.INC_INJ, mode="fast")
    assert cert.verdict == "fails"
    fam = tc.copy_family(C2, C3, tc.chain(5), tc.INC_INJ)
    for cp in fam.copies:
        assert len({cert.coloring[i] for i in cp}) >= 2


def test_arrow_single_color_always_arrows():
    cert = tc.arrow_check(C2, C3, tc.chain(5), 1, tc.INC_INJ)
    assert cert.verdict == "arrows"


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
    # The time cap stops the search close to the cap (about 17 s uncapped).
    t0 = time.perf_counter()
    cert = tc.arrow_check(C2, C3, tc.chain(12), 2, tc.INC_INJ, tc.Budget(time_cap=1.0))
    assert cert.verdict == "unknown"
    assert time.perf_counter() - t0 < 3.0


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
        assert len(pairs) == count_outer_pairs(dbl, V)


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


def test_no_ramsey_needs_branching_image():
    # Identity on a chain: induced image of x has a single child.
    s = tc.TreeMap(C3, C3, (0, 1, 2))
    i = tc.TreeMap(C3, C3, (0, 1, 2))
    with pytest.raises(InvalidMorphismError, match="agrees with the induced"):
        tc.verify_no_ramsey(C3, C3, 1, s, i, C3)
