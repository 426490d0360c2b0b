"""The two workloads: seeded query lists with pinned expected answers.

Each workload joins two query families (``PARTS``), so that one run is long
enough to be steady on a shared machine while every layer keeps a family
that stresses it:

* kernel-search = lower-bound + arrow-search: the doubling pair sweep, the
  arrow DFS and the degree branch-and-bound; Hom-sets stay tiny;
* hom-family = conn-family + small-homs: Hom-set materialisation and the
  compose loop of ``copy_family`` set ``wall_ref_s``, per-call overhead of
  the sub-millisecond queries sets ``query_p50_ref_s``.

A family turns ``--seed`` into a fixed list of queries: a fixed core plus
a part the seed draws from the family's pool.  Draws are made by a pinned
instance size (see ``draw``), so every seed gets the same sizes and runs
with different seeds stay comparable.  A query keeps only the text of its
trees and parses fresh trees on every call, so each call pays the set-up of
its input trees (their lazy tables) as a fresh caller would.  Every query
calls the library through module attributes at call time
(``treeconn.search.X``), so the traced run sees the call, and returns
``(answer, counters)``: the answer
is compared with the expected one, and the counters (Hom sizes, nodes
explored, checks) must repeat exactly in every round.

Expected answers come from outside the code under test:

* arrow-search: the classical Ramsey numbers R(3,3) = 6 and R(3,3,3) = 17,
  and the chromatic index of K_N for the degree at the witness; every
  returned coloring is re-checked here on the triangles of K_N;
* lower-bound: the doubling lower bound, so every report must be ``ok``;
* conn-family: ``fails`` at r = 2 (``pin.py`` re-checks the invariant-set
  coloring as a bad 2-coloring) and Hom counts pinned in ``pinned.json``;
* small-homs: Hom counts, composite counts and CLI stdout digests pinned in
  ``pinned.json``, cross-checked by ``pin.py`` against the filter-all-maps
  oracles of the test suite on every instance up to size 5.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import treeconn
import treeconn.cli

PARTS = {
    "kernel-search": ("lower-bound", "arrow-search"),
    "hom-family": ("conn-family", "small-homs"),
}
WORKLOADS = tuple(PARTS)
PINNED = Path(__file__).with_name("pinned.json")

CATEGORIES = ("conn", "psc", "conn-linear", "conn-root", "incinj", "rigid", "emb")
CLI_KINDS = ("emb", "incinj", "rigid", "conn", "conn-root", "psc")
LEAF = treeconn.Forest((-1,))


@dataclass(frozen=True)
class Query:
    qid: str
    call: Callable[[], tuple]
    expected: object


def tree(text: str):
    return treeconn.parse_tree(text)


def fmt(t) -> str:
    return treeconn.format_tree(t)


def add_leaves(t, anchors):
    """t with one new leaf on each anchor, last in the anchor's child order."""
    return treeconn.graft(t, list(anchors), [LEAF] * len(anchors)).tree


def doubling(t):
    return treeconn.doubling_tree(t).tree


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


# ---------------------------------------------------------------------------
# Independent answers for chains: edge colorings of K_N.
# ---------------------------------------------------------------------------

RAMSEY_TRIANGLE = {2: 6, 3: 17}  # least N with K_N -> (K_3) in r colors


def expected_arrow(r: int, n: int) -> str:
    return "arrows" if n >= RAMSEY_TRIANGLE[r] else "fails"


def expected_degree(r: int, n: int) -> int:
    """Max over r-colorings of the edges of K_N of the least number of
    colors on a triangle, for r = 3: 3 while K_N is properly 3-edge-colorable
    (chromatic index N - 1 for even N, N for odd N), else 2 below R(3,3,3)."""
    index = n - 1 if n % 2 == 0 else n
    if index <= r:
        return 3
    return 2 if n < RAMSEY_TRIANGLE[r] else 1


def triangle_colors(coloring, n: int) -> list[int]:
    """Colors seen on each triangle of K_N, with the items of Hom(chain2,
    chainN) taken as the edges of K_N in lexicographic order."""
    edge = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    if len(coloring) != len(edge):
        raise ValueError("coloring does not cover the edges of K_N")
    return [
        len({coloring[edge[(a, b)]], coloring[edge[(a, c)]], coloring[edge[(b, c)]]})
        for a, b, c in itertools.combinations(range(n), 3)
    ]


def _arrow_chain(r, n, mode):
    c = treeconn.chain
    cert = treeconn.search.arrow_check(c(2), c(3), c(n), r, "incinj", mode=mode)
    answer = cert.verdict
    if cert.verdict == "fails" and min(triangle_colors(cert.coloring, n)) < 2:
        answer = "fails-with-monochromatic-triangle"
    return answer, {"explored": cert.explored}


def _degree_chain(r, n, mode):
    c = treeconn.chain
    k, cert = treeconn.search.degree_at_witness(c(2), c(3), c(n), r, "incinj", mode=mode)
    if k is not None and min(triangle_colors(cert.coloring, n)) != k:
        k = -1  # the witness does not attain the claimed degree
    return k, {"explored": cert.explored}


def arrow_search(seed: int, pinned: dict) -> list[Query]:
    """Slots: arrow at r=2 with N=5..9 in both modes, arrow at r=3 with N=8
    in one mode, and two queries for each light slot
    (arrow at r=2 with N=5..7, arrow at r=3 with N=3..7, degree at r=3 with
    N=3..7).  The seed draws the mode of every single-mode query and the
    order, so every seed does the same amount of search."""
    rng = random.Random(seed)
    modes = ("canonical", "fast")
    out = []

    def arrow(r, n, mode):
        out.append(Query(f"arrow r={r} chain{n} {mode}",
                         lambda: _arrow_chain(r, n, mode), expected_arrow(r, n)))

    def degree(n, mode):
        out.append(Query(f"degree r=3 chain{n} {mode}",
                         lambda: _degree_chain(3, n, mode), expected_degree(3, n)))

    for n in range(5, 10):
        for mode in modes:
            arrow(2, n, mode)
    arrow(3, 8, rng.choice(modes))
    for _ in range(2):
        for n in range(5, 8):
            arrow(2, n, rng.choice(modes))
        for n in range(3, 8):
            arrow(3, n, rng.choice(modes))
            degree(n, rng.choice(modes))
    rng.shuffle(out)
    return out


def draw(rng, pool, size, k):
    """k instances at evenly spaced quantiles of the pool ordered by size.

    The size at each quantile is fixed; the seed picks which instance of
    that size is used.  Every seed thus gets the same sizes, which keeps runs
    with different seeds comparable.
    """
    ordered = sorted(pool, key=size)
    same_size = defaultdict(list)
    for t in ordered:
        same_size[size(t)].append(t)
    n = len(ordered)
    return [rng.choice(same_size[size(ordered[(2 * i + 1) * n // (2 * k)])]) for i in range(k)]


# ---------------------------------------------------------------------------
# lower-bound: verify_lower_bound(S, V).
# ---------------------------------------------------------------------------

LOWER_BOUND_SOURCES = ("(()())", "((()))", "(()()())", "(()(()))", "((())())",
                       "((()()))", "(((())))")


def _lower_bound(s, v):
    rep = treeconn.search.verify_lower_bound(tree(s), tree(v))
    return rep.ok, {"checked": rep.checked, "method": rep.method}


def lower_bound_pool():
    """The seeded pools: per S, every 1- and 2-leaf extension of
    doubling(S) (verified by direct composition); and every 1-leaf extension
    of doubling^2(S) where that has at most 16 vertices (verified by the
    factored sweep)."""
    direct, sweeps = {}, []
    for text in LOWER_BOUND_SOURCES:
        S = tree(text)
        D = doubling(S)
        direct[text] = [(S, add_leaves(D, anchors))
                        for k in (1, 2) for anchors in itertools.combinations(range(D.n), k)]
        D2 = doubling(D)
        if D2.n <= 16:
            sweeps += [(S, add_leaves(D2, [a])) for a in range(D2.n)]
    return direct, sweeps


def lower_bound(seed: int, pinned: dict) -> list[Query]:
    """Fixed: V = doubling(S) for every S with 3-4 vertices and V =
    doubling^2(S) where that has at most 16 vertices.  Seeded: four leaf
    extensions of doubling(S) per S, drawn by the pinned number of checks;
    eight 1-leaf extensions of doubling^2(S), drawn by sweep size (the
    pinned number of embeddings T -> V).  See ``draw``."""
    rng = random.Random(seed)
    sizes = pinned["lower-bound"]
    out = []

    def add(S, V, label):
        s, v = fmt(S), fmt(V)
        out.append(Query(f"lower-bound {s} {label} {v}", lambda: _lower_bound(s, v), True))

    def size(sv):
        return sizes[lower_bound_key(*sv)], sv[1].n

    direct, sweeps = lower_bound_pool()
    for text in LOWER_BOUND_SOURCES:
        S = tree(text)
        D = doubling(S)
        add(S, D, "doubling")
        D2 = doubling(D)
        if D2.n <= 16:
            add(S, D2, "doubling^2")
        for S, V in draw(rng, direct[text], size, 4):
            add(S, V, "doubling+leaves")
    for S, V in draw(rng, sweeps, size, 8):
        add(S, V, "doubling^2+leaf")
    rng.shuffle(out)
    return out


def lower_bound_key(S, V):
    return f"{fmt(S)} {fmt(V)}"


# ---------------------------------------------------------------------------
# conn-family: chain2 -> doubling -> doubling^2 and its leaf extensions.
# ---------------------------------------------------------------------------

def _arrow_family(s, t, v, category):
    cert = treeconn.search.arrow_check(tree(s), tree(t), tree(v), 2, category)
    return cert.verdict, {"explored": cert.explored}


def _hom_count(category, a, b):
    return len(treeconn.homsets.enumerate_hom(category, tree(a), tree(b))), {}


def conn_family_trees():
    """S, T = doubling(S), V0 = doubling^2(S) and the leaf-extension pool:
    every 1-leaf and every 2-leaf (distinct anchors) extension of V0."""
    S = treeconn.chain(2)
    T = doubling(S)
    V0 = doubling(T)
    one = [add_leaves(V0, [a]) for a in range(V0.n)]
    two = [add_leaves(V0, [a, b]) for a, b in itertools.combinations(range(V0.n), 2)]
    return S, T, V0, one, two


def conn_family(seed: int, pinned: dict) -> list[Query]:
    """Fixed: arrow_check at r=2 on V0 in conn, psc, rigid and conn-root,
    and Hom(T, V0) in conn-root.  Seeded, each drawn by the pinned size of
    Hom(T, V) or Hom(S, V) (see ``draw``): arrow_check on 1-leaf
    extensions (one psc, one rigid), Hom(T, V) counts on 2-leaf extensions
    (two each in conn, psc, rigid) and Hom(S, V) counts on 1- and 2-leaf
    extensions (sixteen each in conn, psc, rigid)."""
    rng = random.Random(seed)
    counts = pinned["conn-family"]
    S, T, V0, one, two = conn_family_trees()
    one = one[1:]  # anchor 0 adds a leaf under the root: the Hom-sets barely grow
    out = []

    def size(category, A):
        return lambda V: (counts[f"{category} {fmt(A)} {fmt(V)}"], V.n)

    def arrow(V, category, label):
        s, t, v = fmt(S), fmt(T), fmt(V)
        out.append(Query(f"arrow r=2 {category} {label}",
                         lambda: _arrow_family(s, t, v, category), "fails"))

    def count(category, A, B, label):
        a, b = fmt(A), fmt(B)
        out.append(Query(f"hom {category} {label} -> {b}",
                         lambda: _hom_count(category, a, b), size(category, A)(B)[0]))

    for category in ("conn", "psc", "rigid", "conn-root"):
        arrow(V0, category, "doubling^2")
    count("conn-root", T, V0, "T")
    for category in ("psc", "rigid"):
        for V in draw(rng, one, size(category, T), 1):
            arrow(V, category, "1-leaf")
    for category in ("conn", "psc", "rigid"):
        for V in draw(rng, two, size(category, T), 2):
            count(category, T, V, "T")
    # Many small graded counts keep the median query from jumping between
    # two clusters of latencies.
    for category in ("conn", "psc", "rigid"):
        for V in draw(rng, one + two, size(category, S), 16):
            count(category, S, V, "S")
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# small-homs: many small Hom-sets, composites and CLI enumerations.
# ---------------------------------------------------------------------------

def _compose_all(category, s, t, v):
    fam = treeconn.search.copy_family(tree(s), tree(t), tree(v), category)
    answer = [len(fam.hom_st), len(fam.hom_tv), len(fam.hom_sv), len(set(fam.copies))]
    return answer, {}


def cli_stdout(argv) -> tuple[int, str]:
    """Exit code and captured stdout of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = treeconn.cli.main(argv)
    return code, buf.getvalue()


def _cli_enum(argv):
    code, text = cli_stdout(argv)
    return digest(text) if code == 0 else f"exit {code}", {"bytes": len(text)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SELF_HOM_SIZES = range(11, 17)


def small_homs(seed: int, pinned: dict) -> list[Query]:
    """Fixed core: self-Hom queries Hom(chainN, chainN) in incinj and emb for
    N = 11..16, whose only morphism is the identity.  Seeded, per category
    and drawn by size (see ``draw``): 17 Hom-set counts (|S|<=4,
    |T|<=6), 3 compose-all queries (|S| in 2..3, |T|=4, |V|=5) and, per CLI
    kind, 3 ``enum`` runs."""
    rng = random.Random(seed)
    pin = pinned["small-homs"]
    out = []
    for n in SELF_HOM_SIZES:
        for category in ("incinj", "emb"):
            c = fmt(treeconn.chain(n))
            out.append(Query(f"self-hom {category} chain{n}",
                             lambda k=category, c=c: _hom_count(k, c, c), 1))

    def pool(table, head):
        return [key for key in sorted(table) if key.split()[0] == head]

    def vertices(key):  # total size of the trees named in a pinned key
        return sum(len(text) // 2 for text in key.split()[1:])

    def hom_size(key):
        return pin["hom"][key], vertices(key)

    def compose_size(key):
        return tuple(pin["compose"][key]), vertices(key)

    def cli_size(key):
        kind, a, b = key.split()
        return hom_size(f"rigid {b} {a}" if kind == "rigid" else key)

    for category in CATEGORIES:
        for key in draw(rng, pool(pin["hom"], category), hom_size, 17):
            _, a, b = key.split()
            out.append(Query(f"hom {key}", lambda k=category, a=a, b=b: _hom_count(k, a, b),
                             pin["hom"][key]))
        for key in draw(rng, pool(pin["compose"], category), compose_size, 3):
            _, a, b, c = key.split()
            out.append(Query(f"compose {key}",
                             lambda k=category, a=a, b=b, c=c: _compose_all(k, a, b, c),
                             pin["compose"][key]))
    for kind in CLI_KINDS:
        for key in draw(rng, pool(pin["cli"], kind), cli_size, 3):
            argv = ["enum", *key.split()]
            out.append(Query(f"cli {' '.join(argv)}", lambda argv=argv: _cli_enum(argv),
                             pin["cli"][key]))
    rng.shuffle(out)
    return out


BUILDERS = {
    "lower-bound": lower_bound,
    "arrow-search": arrow_search,
    "conn-family": conn_family,
    "small-homs": small_homs,
}


def build(workload: str, seed: int) -> list[Query]:
    pinned = load_pinned()
    out = [q for part in PARTS[workload] for q in BUILDERS[part](seed, pinned)]
    random.Random(seed).shuffle(out)
    return out


def warm_up(workload: str) -> None:
    """One tiny call through each kernel the workload uses."""
    for part in PARTS[workload]:
        warm_up_part(part)


def warm_up_part(part: str) -> None:
    c = treeconn.chain
    search = treeconn.search
    if part == "lower-bound":
        search.verify_lower_bound(c(2), method="direct")
        search.verify_lower_bound(c(2), method="factored")
    elif part == "arrow-search":
        search.arrow_check(c(2), c(3), c(3), 2, "incinj")
        search.degree_at_witness(c(2), c(3), c(3), 2, "incinj")
    elif part == "conn-family":
        for category in ("conn", "psc", "rigid", "conn-root"):
            search.arrow_check(c(2), c(2), c(3), 2, category)
    else:
        for category in CATEGORIES:
            treeconn.homsets.enumerate_hom(category, c(2), c(3))
        _cli_enum(["enum", "conn", "chain2", "chain3", "--count"])


def probe() -> None:
    """The warm-up calls of every query family: one tiny call through every
    traced function.  Traced rounds end with it, so that every per-layer
    time is measured on every workload, also for functions the workload
    itself never calls."""
    for part in BUILDERS:
        warm_up_part(part)
