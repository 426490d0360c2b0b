"""Arrow relations and degrees at a witness, decided by exhaustive search
over copy-family arrays with independently re-verified certificates, plus
the batch verifications built on the doubling construction."""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import DEFAULT_BUDGET, MODES, Budget
from .constructions import DoublingResult, doubling_tree
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    InvalidMorphismError,
)
from .homsets import (HomSet, _connections, _emb_rows, composite_blocks, composite_indices,
                      enumerate_connections, enumerate_hom)
from .morphisms import (CONN, Connection, TreeMap, _raise_first, connection_to_row,
                        induced_embedding, row_disagreements, row_failures, validate_connection)
from .trees import OrderedTree

VERDICTS = ("arrows", "fails", "degree_at_most_k", "degree_exceeds_k", "unknown")

_CHUNK = 2_000_000  # search nodes between wall-clock checks without a time cap
_FIRST_TIMED_CHUNK = 1_000  # first chunk under a time cap, before a rate is known
_CHUNK_SECONDS = 0.1  # target chunk length under a time cap
_MAX_MASK_COLORS = 63  # colors that fit the degree search's int64 bitmasks


@dataclass(frozen=True, eq=False)
class CopyFamily:
    """Row g of the read-only ``rows``: the sorted indices in Hom(S, V) of
    f o g over Hom(S, T), len(hom_st) distinct ones (g's embedding half is
    injective and its surjection half onto); two g may give the same copy."""

    category: str
    hom_st: HomSet
    hom_tv: HomSet
    hom_sv: HomSet
    rows: np.ndarray

    def __post_init__(self):
        self.rows.flags.writeable = False

    @property
    def n_items(self) -> int:
        return len(self.hom_sv)

    @property
    def copies(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples, repeats included."""
        return tuple(map(tuple, self.rows.tolist()))


@dataclass(frozen=True)
class ArrowCertificate:
    """Outcome of an arrow or degree search.

    Negative verdicts carry the witness coloring and re-verify against the
    copy family by direct counting; ``unknown`` appears only on budget
    exhaustion, and then ``limit`` names the budget: max_hom, max_vertices,
    max_nodes or time_cap (it is left out of the record).
    """

    verdict: str
    r: int
    k: int | None
    coloring: tuple[int, ...] | None
    explored: int
    limit: str | None = None

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
    rows = np.empty((len(hom_tv), len(hom_st)), dtype=np.int64)
    lo = 0
    for block in composite_indices(hom_st, hom_tv, hom_sv):
        block.sort(axis=1)
        rows[lo: lo + len(block)] = block
        lo += len(block)
    # compose() validates every composite; check each distinct one once.
    hit = np.bincount(rows.ravel(), minlength=len(hom_sv)) > 0
    _raise_first(category, row_failures(category, S, V, hom_sv.rows[hit]))
    return CopyFamily(category, hom_st, hom_tv, hom_sv, rows)


def _order(mode: str, istart: np.ndarray, n_items: int) -> np.ndarray:
    if mode == "fast":
        degree = istart[1:] - istart[:-1]
        return np.argsort(-degree, kind="stable").astype(np.int64)
    return np.arange(n_items, dtype=np.int64)


def _paused(r: int, budget: Budget, explored: int) -> ArrowCertificate:
    """The certificate of a search that ``_run_chunks`` paused."""
    limit = "max_nodes" if explored >= budget.max_nodes else "time_cap"
    return ArrowCertificate("unknown", r, None, None, explored, limit)


def _run_chunks(kernel_call, state, budget: Budget, t0: float):
    """Drive a resumable kernel under the node and wall-clock budgets.

    The time cap counts from ``t0``, the ``time.monotonic()`` reading taken
    before the copy family was enumerated.  Under a time cap each chunk is
    sized from the node rate seen so far to last about _CHUNK_SECONDS, so
    the clock is read often enough to stop close to the cap.  Without a cap
    the chunks are a fixed node count, so the sequence of kernel calls,
    which a tracer counts, does not depend on the speed of the machine.
    """
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


def _check_search_args(r: int, mode: str) -> None:
    if r < 1:
        raise ValueError("need at least one color")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")


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
    _check_search_args(r, mode)
    t0 = time.monotonic()
    try:
        fam = copy_family(S, T, V, category, budget)
    except BudgetExceededError as exc:
        return ArrowCertificate("unknown", r, None, None, 0, exc.kind)
    status, coloring, explored = _search_bad_coloring(fam, r, budget, mode, t0)
    if status == kernels.FOUND:
        _verify_bad_coloring(fam, coloring, r)
        return ArrowCertificate("fails", r, None, coloring, explored)
    if status == kernels.EXHAUSTED:
        return ArrowCertificate("arrows", r, None, None, explored)
    return _paused(r, budget, explored)


def _search_arrays(fam: CopyFamily, mode: str):
    """What both searches share, read off ``fam.rows`` with its repeated
    copies, which forbid no new color and change no least count: item ->
    copies in compressed form and the item order; col, nxt, maxu."""
    n, citems = fam.n_items, fam.rows.ravel()
    istart = np.concatenate(([0], np.cumsum(np.bincount(citems, minlength=n))))
    icopies = np.argsort(citems, kind="stable")
    icopies //= fam.rows.shape[1]
    return (
        (istart, icopies, _order(mode, istart, n)),
        (np.full(n, -1, dtype=np.int64), np.zeros(n, dtype=np.int64),
         np.full(n + 1, -1, dtype=np.int64)),
    )


def _trail(n_items: int, size: int):
    """An undo trail of ``size`` entries and its n_items + 1 per-depth starts."""
    return np.zeros(size, dtype=np.int64), np.zeros(n_items + 1, dtype=np.int64)


def _search_bad_coloring(fam: CopyFamily, r: int, budget: Budget, mode: str, t0: float):
    """Run the arrow DFS over fam; returns (status, coloring or None, explored)."""
    # Every copy has len(Hom(S, T)) items; one-item copies are monochromatic
    # under every coloring, so there is nothing to search.
    if fam.rows.shape[1] == 1:
        return kernels.EXHAUSTED, None, 0
    csr, (col, nxt, maxu) = _search_arrays(fam, mode)
    n, (m, width), citems = fam.n_items, fam.rows.shape, fam.rows.ravel()
    # Colors past the n-th are never tried, so min(r, n) columns suffice.
    r_eff = min(r, n)
    ccnt, ccol, cmix = (np.zeros(m, dtype=np.int64) for _ in range(3))
    forbid = np.zeros(n * r_eff, dtype=np.int64)  # the kernel reads forbid[u * r_eff + c]
    nforb = np.zeros(n, dtype=np.int64)
    # Along one path each copy turns mixed once and forbids once at most.
    mixed, forbids = _trail(n, m), _trail(n, m)
    state = np.zeros(2, dtype=np.int64)

    def call(limit):
        return kernels.dfs_bad_coloring(
            citems, width, *csr, r_eff, col, nxt, maxu, ccnt, ccol, cmix, *mixed,
            limit, state, forbid, nforb, *forbids,
        )

    status = _run_chunks(call, state, budget, t0)
    coloring = tuple(int(c) for c in col) if status == kernels.FOUND else None
    return status, coloring, int(state[1])


def _fewest_colors(fam: CopyFamily, coloring: tuple[int, ...], r: int) -> int:
    """The fewest distinct colors any copy attains under ``coloring``, whose
    colors must lie in 0..r-1."""
    colors = np.asarray(coloring, dtype=np.int64)
    if ((colors < 0) | (colors >= r)).any():
        raise ValueError("color indices must lie in 0..r-1")
    per_copy = np.sort(colors[fam.rows], axis=1)
    return 1 + int((per_copy[:, 1:] != per_copy[:, :-1]).sum(axis=1).min())


def _verify_bad_coloring(fam: CopyFamily, coloring: tuple[int, ...], r: int) -> None:
    if _fewest_colors(fam, coloring, r) < 2:
        raise InvalidMorphismError("certificate does not re-verify: monochromatic copy found")


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
    _check_search_args(r, mode)
    t0 = time.monotonic()
    try:
        fam = copy_family(S, T, V, category, budget)
    except BudgetExceededError as exc:
        return None, ArrowCertificate("unknown", r, None, None, 0, exc.kind)
    status, k, witness, explored = _search_degree(fam, r, budget, mode, t0)
    if status != kernels.EXHAUSTED:
        return None, _paused(r, budget, explored)
    _verify_degree_witness(fam, witness, r, k)
    if at_most is not None and k > at_most:
        return k, ArrowCertificate("degree_exceeds_k", r, k, witness, explored)
    return k, ArrowCertificate("degree_at_most_k", r, k, witness, explored)


def _search_degree(fam: CopyFamily, r: int, budget: Budget, mode: str, t0: float):
    """Run the degree branch-and-bound over fam; returns (status, k,
    witness, explored), k and witness being meaningful once EXHAUSTED."""
    n = fam.n_items
    # A coloring of n items uses at most n colors; the kernel keeps each
    # copy's colors in an int64 bitmask, so at most _MAX_MASK_COLORS fit.
    r_eff = min(r, n)
    if r_eff > _MAX_MASK_COLORS:
        raise ValueError(
            f"degree search handles at most {_MAX_MASK_COLORS} colors; "
            f"{r_eff} are in play ({n} items, r={r})"
        )
    csr, (col, nxt, maxu) = _search_arrays(fam, mode)
    m, width = fam.rows.shape
    cap = min(r_eff, width)
    # Along one path a copy gains each of at most cap colors once.
    undo = _trail(n, m * cap)
    cval = np.full(m, width, dtype=np.int64)
    cmask = np.zeros(m, dtype=np.int64)
    hist = np.zeros(cap, dtype=np.int64)
    best_col = np.full(n, -1, dtype=np.int64)
    state = np.zeros(3, dtype=np.int64)

    def call(limit):
        return kernels.dfs_degree(
            *csr, r_eff, cap, col, nxt, maxu, cval, cmask, *undo,
            best_col, limit, hist, state,
        )

    status = _run_chunks(call, state, budget, t0)
    witness = tuple(int(c) for c in best_col)
    return status, int(state[2]), witness, int(state[1])


def _verify_degree_witness(fam: CopyFamily, witness: tuple[int, ...], r: int, k: int) -> None:
    attained = _fewest_colors(fam, witness, r)
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


_DIRECT_CAP = 3000  # largest surjection count handled by direct composition


def verify_lower_bound(S: OrderedTree, witness: OrderedTree | None = None,
                       budget: Budget = DEFAULT_BUDGET,
                       method: str = "auto") -> VerificationReport:
    """Check that composing any outer morphism with the doubling witnesses
    leaves every disagreement set unchanged.

    With T the doubling of S, every (t, j) in Hom(T, V) and every subset B
    of the marked set must satisfy powerset_coloring((t, j) o (s, i_B)) = B.
    The direct method composes the witnesses with Hom(T, V) by rows and
    checks and colors every composite in one array pass
    (``morphisms.row_disagreements``); the factored method sweeps the
    skeleton/embedding pairs that classify Hom(T, V), which checks the same
    universally quantified statement because the coloring of a composite
    depends on the outer surjection only through its induced embedding.
    Both methods agree wherever both are feasible (tested).
    """
    if method not in ("auto", "direct", "factored"):
        raise ValueError(f"unknown method {method!r}")
    dbl = doubling_tree(S)
    T = dbl.tree
    V = T if witness is None else witness
    # The embeddings T -> V are the skeletons of the rigid surjections the
    # auto choice counts, the pairs of the factored sweep and the skeletons
    # of Hom(T, V) for the direct method: enumerate them once.
    rows = _emb_rows(T, V, budget)
    if method == "auto":
        rs_count = kernels.rigid_count(rows, V.anc, _DIRECT_CAP)
        method = "direct" if rs_count <= _DIRECT_CAP else "factored"
    if method == "direct":
        return _verify_lower_bound_direct(dbl, V, rows, budget)
    return _verify_lower_bound_factored(dbl, V, rows)


def _composite_disagreements(hom_st: HomSet, hom_tv: HomSet) -> Iterator[tuple[int, np.ndarray]]:
    """For blocks of g in CONN ``hom_tv``: (start, array (block, len(hom_st),
    S.n)) of the disagreement sets of every f o g, each composite checked
    as a connection."""
    S, V = hom_st.source, hom_tv.target
    for lo, block in composite_blocks(hom_st, hom_tv.rows, V.n + S.n):
        try:
            diff = row_disagreements(CONN, S, V, block.reshape(-1, block.shape[2]))
        except InvalidMorphismError as exc:
            raise InvalidMorphismError(f"composite failed re-validation: {exc}") from exc
        yield lo, diff.reshape(block.shape[0], block.shape[1], S.n)


def _outer(hom_tv: HomSet, g: int) -> str:
    """Row g of the conn Hom-set hom_tv, as surjection and embedding tuples."""
    row = hom_tv.rows[g].tolist()
    n = hom_tv.target.n
    return f"outer surj {tuple(row[:n])} emb {tuple(row[n:])}"


def _verify_lower_bound_direct(dbl: DoublingResult, V: OrderedTree, rows: np.ndarray,
                               budget: Budget) -> VerificationReport:
    """The direct method; rows are the embeddings T -> V."""
    S, T = dbl.base, dbl.tree
    hom_tv = _connections(T, V, CONN, rows, budget)
    # want[b] is the b-th subset of dbl.subsets() (bit i chooses marked[i]);
    # its witness sends each chosen vertex to its first double.
    marked = list(dbl.marked)
    want = np.zeros((1 << len(marked), S.n), dtype=bool)
    want[:, marked] = np.arange(len(want))[:, None] >> np.arange(len(marked)) & 1
    base = np.array(dbl.base_index, dtype=np.int64)
    first = base.copy()
    first[marked] = [dbl.doubles[x][0] for x in marked]
    surj = np.broadcast_to(np.array(dbl.surj.values, dtype=np.int64), (len(want), T.n))
    witnesses = HomSet(CONN, S, T, np.hstack((surj, np.where(want, first, base))))
    bad: list[str] = []
    for lo, got in _composite_disagreements(witnesses, hom_tv):
        for g, b in np.argwhere((got != want).any(axis=2))[: 16 - len(bad)].tolist():
            bad.append(
                f"{_outer(hom_tv, lo + g)}: subset {np.flatnonzero(want[b]).tolist()} "
                f"colored {np.flatnonzero(got[g, b]).tolist()}"
            )
    ok = not bad and len(hom_tv) > 0
    return VerificationReport(
        "doubling-coloring-stability", ok, len(hom_tv) * len(want), "direct", tuple(bad)
    )


def _verify_lower_bound_factored(dbl: DoublingResult, V: OrderedTree,
                                 rows: np.ndarray) -> VerificationReport:
    """The factored method; rows are the embeddings T -> V."""
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


def verify_no_ramsey(S: OrderedTree, T: OrderedTree, x: int, s: TreeMap,
                     i: TreeMap, witness: OrderedTree,
                     budget: Budget = DEFAULT_BUDGET) -> VerificationReport:
    """Certify that the two-coloring separates (s, induced) from (s, i) under
    every outer morphism, so no witness tree can close the gap.

    Both pairs are composed with Hom(T, witness) by rows, and every
    composite is checked and colored in one array pass, as in the direct
    method of ``verify_lower_bound``.

    Preconditions (each failure is reported by name): s maps T onto S,
    (s, i) is a valid connection, i differs from the induced embedding at
    x, and the induced image of x has at least two immediate successors.
    """
    if S != s.target:
        raise ValueError("S is not the tree that s maps onto")
    if T != s.source:
        raise ValueError("T is not the tree that s maps from")
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
    pairs = HomSet(CONN, S, T, np.array(
        [connection_to_row(Connection(CONN, s, ind)), connection_to_row(base)]))
    hom_tv = enumerate_connections(T, witness, CONN, budget)
    bad: list[str] = []
    for lo, diff in _composite_disagreements(pairs, hom_tv):
        colors = diff[:, :, x].astype(np.int64)
        for g in np.flatnonzero((colors != (0, 1)).any(axis=1))[: 16 - len(bad)].tolist():
            c0, c1 = colors[g].tolist()
            bad.append(f"{_outer(hom_tv, lo + g)}: colors ({c0}, {c1})")
    # An empty Hom(T, witness) checks nothing, so it is no pass.
    ok = not bad and len(hom_tv) > 0
    return VerificationReport(
        "two-coloring-separation", ok, len(hom_tv), "direct", tuple(bad)
    )
