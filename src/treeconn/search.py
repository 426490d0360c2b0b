"""Arrow relations and degrees at a witness, decided by exhaustive search
with independently re-verified certificates, plus the batch verifications
built on the doubling construction."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import DEFAULT_BUDGET, Budget
from .constructions import DoublingResult, doubling_tree
from .colorings import powerset_coloring, two_coloring
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    InvalidMorphismError,
)
from .homsets import HomSet, _emb_rows, count_rigid_surjections, enumerate_connections, enumerate_hom
from .morphisms import CONN, Connection, TreeMap, compose, induced_embedding, validate_connection
from .trees import OrderedTree

VERDICTS = ("arrows", "fails", "degree_at_most_k", "degree_exceeds_k", "unknown")

_CHUNK = 2_000_000  # search nodes between wall-clock checks without a time cap
_FIRST_TIMED_CHUNK = 1_000  # first chunk under a time cap, before a rate is known
_CHUNK_SECONDS = 0.1  # target chunk length under a time cap
_MAX_MASK_COLORS = 63  # colors that fit the degree search's int64 bitmasks


@dataclass(frozen=True)
class CopyFamily:
    """For each g in Hom(T, V), the image of g composed with Hom(S, T),
    stored as index sets into the enumerated Hom(S, V)."""

    category: str
    hom_st: HomSet
    hom_tv: HomSet
    hom_sv: HomSet
    copies: tuple[tuple[int, ...], ...]

    @property
    def n_items(self) -> int:
        return len(self.hom_sv)


@dataclass(frozen=True)
class Coloring:
    values: tuple[int, ...]
    r: int

    def __post_init__(self):
        if any(not 0 <= v < self.r for v in self.values):
            raise ValueError("color indices must lie in 0..r-1")


@dataclass(frozen=True)
class ArrowCertificate:
    """Outcome of an arrow or degree search.

    Negative verdicts carry the witness coloring and re-verify against the
    copy family by direct counting; ``unknown`` appears only on budget
    exhaustion.
    """

    verdict: str
    r: int
    k: int | None
    coloring: tuple[int, ...] | None
    explored: int

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "r": self.r,
            "k": self.k,
            "coloring": list(self.coloring) if self.coloring is not None else None,
            "explored": self.explored,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))

    @property
    def exit_code(self) -> int:
        if self.verdict in ("arrows", "degree_at_most_k"):
            return 0
        if self.verdict in ("fails", "degree_exceeds_k"):
            return 1
        return 2


def copy_family(S: OrderedTree, T: OrderedTree, V: OrderedTree, category: str,
                budget: Budget = DEFAULT_BUDGET) -> CopyFamily:
    """Enumerate the three Hom-sets and locate every composite."""
    hom_st = enumerate_hom(category, S, T, budget)
    hom_tv = enumerate_hom(category, T, V, budget)
    if len(hom_st) == 0:
        raise DegenerateInputError("Hom(S, T) is empty; no copies exist")
    if len(hom_tv) == 0:
        raise DegenerateInputError("Hom(T, V) is empty; no copies exist")
    hom_sv = enumerate_hom(category, S, V, budget)
    copies = []
    for g in hom_tv:
        seen = set()
        for f in hom_st:
            h = compose(f, g)
            try:
                seen.add(hom_sv.index_of(h))
            except KeyError as exc:  # pragma: no cover - enumeration bug guard
                raise InvalidMorphismError(
                    "composite missing from enumerated Hom(S, V); enumeration bug"
                ) from exc
        copies.append(tuple(sorted(seen)))
    return CopyFamily(category, hom_st, hom_tv, hom_sv, tuple(copies))


def _dedup_copies(fam: CopyFamily) -> list[tuple[int, ...]]:
    return sorted(set(fam.copies))


def _csr(copies: list[tuple[int, ...]], n_items: int):
    cstart = np.zeros(len(copies) + 1, dtype=np.int64)
    for i, cp in enumerate(copies):
        cstart[i + 1] = cstart[i] + len(cp)
    citems = np.empty(int(cstart[-1]), dtype=np.int64)
    for i, cp in enumerate(copies):
        citems[cstart[i]:cstart[i + 1]] = cp
    clen = np.array([len(cp) for cp in copies], dtype=np.int64)
    member: list[list[int]] = [[] for _ in range(n_items)]
    for i, cp in enumerate(copies):
        for it in cp:
            member[it].append(i)
    istart = np.zeros(n_items + 1, dtype=np.int64)
    for it in range(n_items):
        istart[it + 1] = istart[it] + len(member[it])
    icopies = np.empty(int(istart[-1]), dtype=np.int64)
    for it in range(n_items):
        icopies[istart[it]:istart[it + 1]] = member[it]
    maxdeg = max((len(m) for m in member), default=0)
    return cstart, citems, clen, istart, icopies, maxdeg


def _order(mode: str, istart: np.ndarray, n_items: int) -> np.ndarray:
    if mode == "fast":
        degree = istart[1:] - istart[:-1]
        return np.argsort(-degree, kind="stable").astype(np.int64)
    return np.arange(n_items, dtype=np.int64)


def _run_chunks(kernel_call, state, budget: Budget):
    """Drive a resumable kernel under the node and wall-clock budgets.

    Under a time cap each chunk is sized from the node rate seen so far to
    last about _CHUNK_SECONDS, so the clock is read often enough to stop
    close to the cap.  Without a cap the chunks are a fixed node count, so
    the sequence of kernel calls, which a tracer counts, does not depend on
    the speed of the machine.
    """
    t0 = time.monotonic()
    chunk = _CHUNK if budget.time_cap is None else _FIRST_TIMED_CHUNK
    while True:
        status = kernel_call(min(budget.max_nodes, int(state[1]) + chunk))
        if status != kernels.PAUSED:
            return status
        if state[1] >= budget.max_nodes:
            return kernels.PAUSED
        if budget.time_cap is not None:
            spent = time.monotonic() - t0
            if spent > budget.time_cap:
                return kernels.PAUSED
            rate = int(state[1]) / max(spent, 1e-6)
            chunk = max(_FIRST_TIMED_CHUNK, int(rate * _CHUNK_SECONDS))


def arrow_check(S: OrderedTree, T: OrderedTree, V: OrderedTree, r: int,
                category: str, budget: Budget = DEFAULT_BUDGET,
                mode: str = "canonical") -> ArrowCertificate:
    """Decide whether every r-coloring of Hom(S, V) is monochromatic on some
    copy of Hom(S, T).

    A verdict of ``fails`` carries a coloring under which every copy attains
    at least two colors (in canonical mode, the lexicographically least
    such); ``arrows`` is an exhaustion record of the pruned search over all
    colorings up to color renaming.
    """
    if r < 1:
        raise ValueError("need at least one color")
    try:
        fam = copy_family(S, T, V, category, budget)
    except BudgetExceededError:
        return ArrowCertificate("unknown", r, None, None, 0)
    status, coloring, explored = _search_bad_coloring(fam, r, budget, mode)
    if status == kernels.FOUND:
        _verify_bad_coloring(fam, coloring, r)
        return ArrowCertificate("fails", r, None, coloring, explored)
    if status == kernels.EXHAUSTED:
        return ArrowCertificate("arrows", r, None, None, explored)
    return ArrowCertificate("unknown", r, None, None, explored)


def _search_bad_coloring(fam: CopyFamily, r: int, budget: Budget, mode: str):
    n = fam.n_items
    copies = _dedup_copies(fam)
    cstart, citems, clen, istart, icopies, maxdeg = _csr(copies, n)
    order = _order(mode, istart, n)
    col = np.full(n, -1, dtype=np.int64)
    nxt = np.zeros(n, dtype=np.int64)
    maxu = np.full(n + 1, -1, dtype=np.int64)
    ccnt = np.zeros(len(copies), dtype=np.int64)
    ccol = np.zeros(len(copies), dtype=np.int64)
    cmix = np.zeros(len(copies), dtype=np.int64)
    ubuf = np.zeros((max(n, 1), max(maxdeg, 1)), dtype=np.int64)
    ulen = np.zeros(max(n, 1), dtype=np.int64)
    state = np.zeros(2, dtype=np.int64)

    def call(limit):
        return kernels.dfs_bad_coloring(
            cstart, citems, clen, istart, icopies, order, r,
            col, nxt, maxu, ccnt, ccol, cmix, ubuf, ulen, state, limit,
        )

    status = _run_chunks(call, state, budget)
    coloring = tuple(int(c) for c in col) if status == kernels.FOUND else None
    return status, coloring, int(state[1])


def _verify_bad_coloring(fam: CopyFamily, coloring: tuple[int, ...], r: int) -> None:
    Coloring(coloring, r)
    for cp in fam.copies:
        if len({coloring[i] for i in cp}) < 2:
            raise InvalidMorphismError(
                "certificate does not re-verify: monochromatic copy found"
            )


def degree_at_witness(S: OrderedTree, T: OrderedTree, V: OrderedTree, r: int,
                      category: str, budget: Budget = DEFAULT_BUDGET,
                      mode: str = "canonical", at_most: int | None = None
                      ) -> tuple[int | None, ArrowCertificate]:
    """Least k such that every r-coloring of Hom(S, V) attains at most k
    colors on some copy; computed as the max over colorings of the min over
    copies of the attained color count, by branch and bound.

    Returns (k, certificate).  With ``at_most`` the certificate verdict
    reports whether the computed degree stays within that bound.  Raises
    ValueError when min(r, number of items) exceeds 63 colors.
    """
    if r < 1:
        raise ValueError("need at least one color")
    try:
        fam = copy_family(S, T, V, category, budget)
    except BudgetExceededError:
        return None, ArrowCertificate("unknown", r, None, None, 0)
    n = fam.n_items
    # A coloring of n items uses at most n colors; the kernel keeps each
    # copy's colors in an int64 bitmask, so at most _MAX_MASK_COLORS fit.
    r_eff = min(r, n)
    if r_eff > _MAX_MASK_COLORS:
        raise ValueError(
            f"degree search handles at most {_MAX_MASK_COLORS} colors; "
            f"{r_eff} are in play ({n} items, r={r})"
        )
    copies = _dedup_copies(fam)
    cstart, citems, clen, istart, icopies, maxdeg = _csr(copies, n)
    order = _order(mode, istart, n)
    col = np.full(n, -1, dtype=np.int64)
    nxt = np.zeros(n, dtype=np.int64)
    maxu = np.full(n + 1, -1, dtype=np.int64)
    ccnt = np.zeros(len(copies), dtype=np.int64)
    cmask = np.zeros(len(copies), dtype=np.int64)
    ubuf = np.zeros((max(n, 1), max(maxdeg, 1)), dtype=np.int64)
    ulen = np.zeros(max(n, 1), dtype=np.int64)
    best_col = np.full(n, -1, dtype=np.int64)
    cap = min(r_eff, int(clen.min()))
    state = np.zeros(4, dtype=np.int64)
    state[3] = cap

    def call(limit):
        return kernels.dfs_degree(
            cstart, citems, clen, istart, icopies, order, r_eff, len(copies),
            col, nxt, maxu, ccnt, cmask, ubuf, ulen, state, best_col, limit,
        )

    status = _run_chunks(call, state, budget)
    explored = int(state[1])
    if status != kernels.EXHAUSTED:
        return None, ArrowCertificate("unknown", r, None, None, explored)
    k = int(state[2])
    witness = tuple(int(c) for c in best_col)
    _verify_degree_witness(fam, witness, r, k)
    if at_most is not None and k > at_most:
        return k, ArrowCertificate("degree_exceeds_k", r, k, witness, explored)
    return k, ArrowCertificate("degree_at_most_k", r, k, witness, explored)


def _verify_degree_witness(fam: CopyFamily, witness: tuple[int, ...], r: int, k: int) -> None:
    Coloring(witness, r)
    attained = min(len({witness[i] for i in cp}) for cp in fam.copies)
    if attained != k:
        raise InvalidMorphismError(
            f"degree witness re-verification failed: coloring attains {attained}, claimed {k}"
        )


# ---------------------------------------------------------------------------
# Doubling-based batch verifications.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    name: str
    ok: bool
    checked: int
    method: str
    details: tuple[str, ...] = field(default_factory=tuple)

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        out = f"{self.name}: {status} ({self.checked} checks, {self.method})"
        if self.details:
            out += "\n" + "\n".join("  " + d for d in self.details)
        return out


_DIRECT_CAP = 3000  # largest surjection count handled by literal composition


def verify_lower_bound(S: OrderedTree, witness: OrderedTree | None = None,
                       budget: Budget = DEFAULT_BUDGET,
                       method: str = "auto") -> VerificationReport:
    """Check that composing any outer morphism with the doubling witnesses
    leaves every disagreement set unchanged.

    With T the doubling of S, every (t, j) in Hom(T, V) and every subset B
    of the marked set must satisfy powerset_coloring((t, j) o (s, i_B)) = B.
    The direct method composes literally; the factored method sweeps the
    skeleton/embedding pairs that classify Hom(T, V), which checks the same
    universally quantified statement because the coloring of a composite
    depends on the outer surjection only through its induced embedding.
    Both methods agree wherever both are feasible (tested).
    """
    dbl = doubling_tree(S)
    T = dbl.tree
    V = T if witness is None else witness
    if method == "auto":
        rs_count = count_rigid_surjections(V, T, budget, cap=_DIRECT_CAP)
        method = "direct" if rs_count <= _DIRECT_CAP else "factored"
    if method == "direct":
        return _verify_lower_bound_direct(dbl, V, budget)
    if method == "factored":
        return _verify_lower_bound_factored(dbl, V, budget)
    raise ValueError(f"unknown method {method!r}")


def _verify_lower_bound_direct(dbl: DoublingResult, V: OrderedTree,
                               budget: Budget) -> VerificationReport:
    hom_tv = enumerate_connections(dbl.tree, V, CONN, budget)
    witnesses = [(B, dbl.connection_for(B)) for B in dbl.subsets()]
    bad: list[str] = []
    checked = 0
    for g in hom_tv:
        for B, w in witnesses:
            checked += 1
            got = powerset_coloring(compose(w, g))
            if got != B:
                if len(bad) < 16:
                    bad.append(
                        f"outer surj {g.surj.values} emb {g.emb.values}: "
                        f"subset {sorted(B)} colored {sorted(got)}"
                    )
    ok = not bad and len(hom_tv) > 0
    return VerificationReport(
        "doubling-coloring-stability", ok, checked, "direct", tuple(bad)
    )


def _verify_lower_bound_factored(dbl: DoublingResult, V: OrderedTree,
                                 budget: Budget) -> VerificationReport:
    T = dbl.tree
    rows = _emb_rows(T, V, budget)
    base = np.array([dbl.base_index[x] for x in dbl.marked], dtype=np.int64)
    first = np.array([dbl.doubles[x][0] for x in dbl.marked], dtype=np.int64)
    viol = np.full((16, 2), -1, dtype=np.int64)
    nfeas, nviol = kernels.doubling_pair_sweep(rows, rows, V.anc, base, first, viol)
    details = []
    for p, q in viol[: min(int(nviol), 16)]:
        details.append(
            f"skeleton {tuple(int(v) for v in rows[p])} with embedding "
            f"{tuple(int(v) for v in rows[q])} breaks the stability condition"
        )
    checked = int(nfeas) * (1 << len(dbl.marked))
    # At least the inclusion skeleton pairs are always realizable; an empty
    # sweep would be a vacuous pass and signals a bug instead.
    ok = int(nviol) == 0 and int(nfeas) > 0
    return VerificationReport(
        "doubling-coloring-stability", ok, checked, "factored", tuple(details)
    )


def count_outer_pairs(dbl: DoublingResult, V: OrderedTree,
                      budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of realizable skeleton/embedding pairs behind Hom(T, V);
    used to cross-check the factored sweep against direct enumeration."""
    rows = _emb_rows(dbl.tree, V, budget)
    base = np.empty(0, dtype=np.int64)
    first = np.empty(0, dtype=np.int64)
    viol = np.full((1, 2), -1, dtype=np.int64)
    nfeas, _ = kernels.doubling_pair_sweep(rows, rows, V.anc, base, first, viol)
    return int(nfeas)


def verify_no_ramsey(S: OrderedTree, T: OrderedTree, x: int, s: TreeMap,
                     i: TreeMap, witness: OrderedTree,
                     budget: Budget = DEFAULT_BUDGET) -> VerificationReport:
    """Certify that the two-coloring separates (s, induced) from (s, i) under
    every outer morphism, so no witness tree can close the gap.

    Preconditions (each failure is reported by name): (s, i) is a valid
    connection, i differs from the induced embedding at x, and the induced
    image of x has at least two immediate successors.
    """
    base = Connection(CONN, s, i)
    try:
        validate_connection(base)
    except InvalidMorphismError as exc:
        raise InvalidMorphismError(
            f"hypothesis failed: (s, i) is not a connection: {exc}"
        ) from exc
    ind = induced_embedding(s)
    S._check_vertex(x)
    if i.values[x] == ind.values[x]:
        raise InvalidMorphismError(
            f"hypothesis failed: embedding agrees with the induced embedding at {x}"
        )
    if T.num_children(ind.values[x]) < 2:
        raise InvalidMorphismError(
            f"hypothesis failed: induced image of {x} has fewer than two immediate successors"
        )
    straight = Connection(CONN, s, TreeMap(S, T, ind.values))
    hom_tv = enumerate_connections(T, witness, CONN, budget)
    bad: list[str] = []
    checked = 0
    for g in hom_tv:
        checked += 1
        c0 = two_coloring(x, compose(straight, g))
        c1 = two_coloring(x, compose(base, g))
        if (c0, c1) != (0, 1):
            if len(bad) < 16:
                bad.append(
                    f"outer surj {g.surj.values} emb {g.emb.values}: colors ({c0}, {c1})"
                )
    return VerificationReport(
        "two-coloring-separation", not bad, checked, "direct", tuple(bad)
    )
