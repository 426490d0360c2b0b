"""Array kernels for the hot enumeration and search loops.

Connections are generated pair-first: ``realizable_pairs`` finds the
(skeleton, embedding) pairs that carry a connection, ``connection_rows``
expands each pair over its free positions, and ``doubling_pair_sweep``
checks the doubling stability condition on the pairs.  These are plain
numpy, vectorised over pairs in blocks of a fixed cell count.

The loop kernels (embedding backtracking, rigid-surjection count and fill,
the coloring searches) are compiled with numba when available; setting
``TREECONN_BACKEND=python`` selects the same code interpreted.
``perfbench/run.py`` measures both kinds end to end and per kernel.
"""

from __future__ import annotations

import os

import numpy as np

_REQUESTED = os.environ.get("TREECONN_BACKEND", "numba").strip().lower()
if _REQUESTED not in ("numba", "python"):
    raise RuntimeError(
        f"TREECONN_BACKEND={_REQUESTED!r} not understood; use 'numba' or 'python'"
    )

JIT_ENABLED = False
if _REQUESTED == "numba":
    try:
        from numba import njit as _njit

        JIT_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        JIT_ENABLED = False

BACKEND = "numba" if JIT_ENABLED else "python"


def _jit(fn):
    if JIT_ENABLED:
        return _njit(cache=True)(fn)
    return fn


def py_func(kernel):
    """The interpreted version of a kernel (itself, when not compiled)."""
    return getattr(kernel, "py_func", kernel)


# Search statuses shared by the resumable kernels.
FOUND = 0
EXHAUSTED = 1
PAUSED = 2


@_jit
def embedding_search(meet_s, meet_t, pin_root, max_out):
    """Enumerate structure-preserving increasing injections by backtracking.

    meet_s/meet_t: (n, n) int64 meet tables.  With true meet tables and
    pin_root this yields tree embeddings; with min-tables and no root pin it
    yields plain increasing injections.  Candidates are scanned in ascending
    order, so rows come out in lexicographic order.

    Returns (count, out); only the first max_out rows are materialized, the
    count keeps running so callers can detect budget overflow exactly.
    """
    ns = meet_s.shape[0]
    nt = meet_t.shape[0]
    out = np.empty((max_out, ns), dtype=np.int64)
    img = np.empty(ns, dtype=np.int64)
    cand = np.zeros(ns, dtype=np.int64)
    count = 0
    d = 0
    while d >= 0:
        if d == ns:
            if count < max_out:
                for x in range(ns):
                    out[count, x] = img[x]
            count += 1
            d -= 1
            continue
        c = cand[d]
        lo = 0 if d == 0 else img[d - 1] + 1
        if c < lo:
            c = lo
        # Leave room for the ns - 1 - d larger images still to place.
        hi = 1 if (d == 0 and pin_root) else nt - (ns - 1 - d)
        chosen = np.int64(-1)
        while c < hi:
            ok = True
            for y in range(d):
                if meet_t[img[y], c] != img[meet_s[y, d]]:
                    ok = False
                    break
            if ok:
                chosen = c
                break
            c += 1
        if chosen < 0:
            d -= 1
            continue
        img[d] = chosen
        cand[d] = chosen + 1
        d += 1
        if d < ns:
            cand[d] = 0
    return count, out


@_jit
def rigid_count(skels, dom, cap):
    """Number of surjections whose induced embedding is one of ``skels``.

    skels: (k, ns) rows are embeddings of the small tree into the big one.
    dom: (nt, nt) bool, dom[u, y] true when assigning image x with skeleton
    vertex u=skel[x] to position y is allowed (ancestry for trees, <= for
    linear orders).  The count is clamped to cap + 1 as soon as it is known
    to exceed cap.
    """
    k = skels.shape[0]
    ns = skels.shape[1]
    nt = dom.shape[0]
    inskel = np.zeros(nt, dtype=np.bool_)
    total = np.int64(0)
    for p in range(k):
        for y in range(nt):
            inskel[y] = False
        for x in range(ns):
            inskel[skels[p, x]] = True
        prod = np.int64(1)
        for y in range(nt):
            if inskel[y]:
                continue
            cnt = np.int64(0)
            for x in range(ns):
                if dom[skels[p, x], y]:
                    cnt += 1
            prod *= cnt
            if prod == 0 or prod > cap:
                break
        total += prod
        if total > cap:
            return cap + np.int64(1)
    return total


@_jit
def rigid_fill(skels, dom, out):
    """Materialize the surjections counted by ``rigid_count`` into ``out``.

    Rows are grouped by skeleton and enumerated odometer-style over the free
    positions; the caller sorts the result into canonical order.
    """
    k = skels.shape[0]
    ns = skels.shape[1]
    nt = dom.shape[0]
    allowed = np.empty((nt, ns), dtype=np.int64)
    na = np.empty(nt, dtype=np.int64)
    freev = np.empty(nt, dtype=np.int64)
    idx = np.empty(nt, dtype=np.int64)
    s = np.empty(nt, dtype=np.int64)
    pos = 0
    for p in range(k):
        for y in range(nt):
            s[y] = -1
        for x in range(ns):
            s[skels[p, x]] = x
        nf = 0
        feasible = True
        for y in range(nt):
            if s[y] >= 0:
                continue
            cnt = 0
            for x in range(ns):
                if dom[skels[p, x], y]:
                    allowed[nf, cnt] = x
                    cnt += 1
            if cnt == 0:
                feasible = False
                break
            na[nf] = cnt
            freev[nf] = y
            nf += 1
        if not feasible:
            continue
        for f in range(nf):
            idx[f] = 0
        while True:
            for f in range(nf):
                s[freev[f]] = allowed[f, idx[f]]
            for y in range(nt):
                out[pos, y] = s[y]
            pos += 1
            f = nf - 1
            while f >= 0:
                idx[f] += 1
                if idx[f] < na[f]:
                    break
                idx[f] = 0
                f -= 1
            if f < 0:
                break
    return pos


@_jit
def pair_filter(surjs, embs, caps):
    """Mask of surjection/embedding pairs that are partial inverses.

    The library generates connections pair-first (``connection_rows``) and
    no longer calls this; the benchmark tracer still resolves it by name.

    Pair (s, j) passes when s(j(x)) = x for every x and s(y) stays at or
    below caps[q, y], the least x whose embedded image lies strictly above y.
    """
    a = surjs.shape[0]
    b = embs.shape[0]
    ns = embs.shape[1]
    nt = surjs.shape[1]
    mask = np.zeros((a, b), dtype=np.bool_)
    for q in range(b):
        for p in range(a):
            ok = True
            for x in range(ns):
                if surjs[p, embs[q, x]] != x:
                    ok = False
                    break
            if ok:
                for y in range(nt):
                    if surjs[p, y] > caps[q, y]:
                        ok = False
                        break
            mask[p, q] = ok
    return mask


@_jit
def dfs_bad_coloring(cstart, citems, clen, istart, icopies, order, r,
                     col, nxt, maxu, ccnt, ccol, cmix, ubuf, ulen,
                     state, node_budget):
    """Resumable depth-first search for a coloring with no monochromatic copy.

    Items are colored in the order given by ``order`` with colors tried
    ascending, restricted to at most one fresh color beyond those already
    used (any bad coloring has a representative of this form, and with the
    identity order the first hit is the lexicographically least bad
    coloring).  A branch dies as soon as some copy becomes fully assigned
    and monochromatic.

    state = [depth, explored]; all other arrays persist across calls so the
    search can be paused on the node budget and resumed.
    """
    n = order.shape[0]
    d = state[0]
    explored = state[1]
    while True:
        if d == n:
            state[0] = d
            state[1] = explored
            return FOUND
        it = order[d]
        c = nxt[d]
        lim = r
        m2 = maxu[d] + 2
        if m2 < lim:
            lim = m2
        chosen = np.int64(-1)
        while c < lim:
            if explored >= node_budget:
                nxt[d] = c
                state[0] = d
                state[1] = explored
                return PAUSED
            explored += 1
            dead = False
            for tpos in range(istart[it], istart[it + 1]):
                k = icopies[tpos]
                if ccnt[k] + 1 == clen[k] and cmix[k] == 0:
                    if ccnt[k] == 0 or ccol[k] == c:
                        dead = True
                        break
            if not dead:
                chosen = c
                break
            c += 1
        if chosen < 0:
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                return EXHAUSTED
            prev = order[d]
            for tpos in range(istart[prev], istart[prev + 1]):
                ccnt[icopies[tpos]] -= 1
            for u in range(ulen[d]):
                cmix[ubuf[d, u]] = 0
            col[prev] = -1
            continue
        ul = 0
        for tpos in range(istart[it], istart[it + 1]):
            k = icopies[tpos]
            if ccnt[k] == 0:
                ccol[k] = chosen
            elif cmix[k] == 0 and ccol[k] != chosen:
                cmix[k] = 1
                ubuf[d, ul] = k
                ul += 1
            ccnt[k] += 1
        ulen[d] = ul
        col[it] = chosen
        nxt[d] = chosen + 1
        mu = maxu[d]
        if chosen > mu:
            mu = chosen
        maxu[d + 1] = mu
        d += 1
        if d < n:
            nxt[d] = 0


@_jit
def _popcount(x):
    c = 0
    while x:
        x &= x - 1
        c += 1
    return c


@_jit
def dfs_degree(cstart, citems, clen, istart, icopies, order, r, ncopies,
               col, nxt, maxu, ccnt, cmask, ubuf, ulen,
               state, best_col, node_budget):
    """Resumable branch-and-bound for max over colorings of the minimum
    number of colors attained on a copy.

    state = [depth, explored, best, cap] where cap = min(r, smallest copy
    size) is an a-priori upper bound; the search stops early when best
    reaches it.  best_col holds the witness coloring for the current best.
    """
    n = order.shape[0]
    d = state[0]
    explored = state[1]
    best = state[2]
    cap = state[3]
    while True:
        if best >= cap:
            state[0] = d
            state[1] = explored
            state[2] = best
            return EXHAUSTED
        if d == n:
            val = cap
            for k in range(ncopies):
                pc = _popcount(cmask[k])
                if pc < val:
                    val = pc
            if val > best:
                best = val
                for i in range(n):
                    best_col[i] = col[i]
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                state[2] = best
                return EXHAUSTED
            prev = order[d]
            for tpos in range(istart[prev], istart[prev + 1]):
                ccnt[icopies[tpos]] -= 1
            for u in range(ulen[d]):
                cmask[ubuf[d, u]] &= ~(np.int64(1) << col[prev])
            col[prev] = -1
            continue
        it = order[d]
        c = nxt[d]
        lim = r
        m2 = maxu[d] + 2
        if m2 < lim:
            lim = m2
        chosen = np.int64(-1)
        while c < lim:
            if explored >= node_budget:
                nxt[d] = c
                state[0] = d
                state[1] = explored
                state[2] = best
                return PAUSED
            explored += 1
            # Tentatively apply, bound, and keep or roll back.
            ul = 0
            for tpos in range(istart[it], istart[it + 1]):
                k = icopies[tpos]
                bit = np.int64(1) << c
                if cmask[k] & bit == 0:
                    cmask[k] |= bit
                    ubuf[d, ul] = k
                    ul += 1
                ccnt[k] += 1
            ub = cap
            for k in range(ncopies):
                pc = _popcount(cmask[k])
                rem = clen[k] - ccnt[k]
                room = r - pc
                if rem < room:
                    room = rem
                if pc + room < ub:
                    ub = pc + room
            if ub > best:
                chosen = c
                ulen[d] = ul
                break
            for u in range(ul):
                cmask[ubuf[d, u]] &= ~(np.int64(1) << c)
            for tpos in range(istart[it], istart[it + 1]):
                ccnt[icopies[tpos]] -= 1
            c += 1
        if chosen < 0:
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                state[2] = best
                return EXHAUSTED
            prev = order[d]
            for tpos in range(istart[prev], istart[prev + 1]):
                ccnt[icopies[tpos]] -= 1
            for u in range(ulen[d]):
                cmask[ubuf[d, u]] &= ~(np.int64(1) << col[prev])
            col[prev] = -1
            continue
        col[it] = chosen
        nxt[d] = chosen + 1
        mu = maxu[d]
        if chosen > mu:
            mu = chosen
        maxu[d + 1] = mu
        d += 1
        if d < n:
            nxt[d] = 0


# ---------------------------------------------------------------------------
# Pair-first connection generation (plain numpy, vectorised over pairs).
#
# A connection (s, j) is a skeleton m, the induced embedding of s, paired
# with an embedding j; the rows below are (skels[p], embs[q]) index pairs.
# The pair tests work in blocks of about _BLOCK_CELLS cells and the row
# expansion one output column at a time, so memory follows the output and
# not the skeleton x embedding cross product.
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 1 << 14


def pair_caps(embs, nt):
    """caps[q, y] = least x with embs[q, x] > y, or ns when none exists."""
    b, ns = embs.shape
    hit = np.zeros((b, nt), dtype=np.int64)
    hit[np.arange(b)[:, None], embs] = 1
    # Rows are strictly increasing, so the x with embs[q, x] <= y are a prefix.
    return np.cumsum(hit, axis=1)


def realizable_pairs(skels, embs, dom, caps):
    """Yield, one block of embeddings at a time, the index arrays (p, q) of
    the pairs whose skeleton m = skels[p] and embedding j = embs[q] carry at
    least one connection; caps = pair_caps(embs, nt).

    The pair is realizable when, for every x: dom[m(x), j(x)]; the inverse
    of m at j(x) is undefined or x; and x <= caps[q, m(x)].  dom[u, y] says
    that a vertex y may take the value x with skeleton vertex u = m(x)
    (ancestry for trees, <= for linear orders).  Pairs come out ordered by
    embedding, then by skeleton.
    """
    a, ns = skels.shape
    b = embs.shape[0]
    nt = dom.shape[0]
    minv = np.full((a, nt), -1, dtype=np.int64)
    minv[np.arange(a)[:, None], skels] = np.arange(ns)
    step = max(1, _BLOCK_CELLS // max(a, 1))
    for q0 in range(0, b, step):
        js, cs = embs[q0:q0 + step], caps[q0:q0 + step]
        ok = np.ones((len(js), a), dtype=np.bool_)
        for x in range(ns):
            mx, jx = skels[:, x], js[:, x]
            inv = minv[:, jx].T
            ok &= dom[mx[None, :], jx[:, None]]
            ok &= (inv < 0) | (inv == x)
            ok &= cs[:, mx] >= x
        q, p = np.nonzero(ok)
        yield p, q + q0


def _allowed(skels, embs, caps, dom, p, q):
    """allowed[k, y, x]: position y may take value x in the connections of
    pair (p[k], q[k]).  Positions on the skeleton or the embedding image are
    forced to the one value x with m(x) = y or j(x) = y; any other y takes
    each x with dom[m(x), y] and x <= caps[q, y]."""
    ns = skels.shape[1]
    nt = dom.shape[0]
    ms, js = skels[p], embs[q]
    xs = np.arange(ns)
    allowed = dom[ms[:, None, :], np.arange(nt)[None, :, None]]
    allowed &= xs[None, None, :] <= caps[q][:, :, None]
    forced = np.full((len(p), nt), -1, dtype=np.int64)
    rows = np.arange(len(p))[:, None]
    forced[rows, ms] = xs
    forced[rows, js] = xs
    fixed = forced >= 0
    allowed[fixed] = xs[None, :] == forced[fixed][:, None]
    return allowed


def connection_rows(skels, embs, dom, max_out):
    """Every connection over the realizable (skeleton, embedding) pairs, as
    rows s | j of length nt + ns in lexicographic order.

    Each pair expands by mixed radix over its free positions.  Returns None,
    before allocating any row, when there are more than max_out rows.
    """
    ns = skels.shape[1]
    nt = dom.shape[0]
    caps = pair_caps(embs, nt)
    step = max(1, _BLOCK_CELLS // max(nt * ns, 1))
    empty = np.empty(0, dtype=np.int64)
    ps, qs, cs = [empty], [empty], [empty]
    total = 0
    for block_p, block_q in realizable_pairs(skels, embs, dom, caps):
        for k0 in range(0, len(block_p), step):
            bp, bq = block_p[k0:k0 + step], block_q[k0:k0 + step]
            allowed = _allowed(skels, embs, caps, dom, bp, bq)
            # A float product cannot wrap; clamped, it is exact below max_out + 1.
            prod = allowed.sum(axis=2).prod(axis=1, dtype=np.float64)
            bc = np.minimum(prod, max_out + 1).astype(np.int64)
            total += int(bc.sum())
            if total > max_out:
                return None
            # Kept pairs have a row each, so they number at most max_out.
            keep = bc > 0
            ps.append(bp[keep])
            qs.append(bq[keep])
            cs.append(bc[keep])
    p, q, counts = np.concatenate(ps), np.concatenate(qs), np.concatenate(cs)
    out = np.empty((total, nt + ns), dtype=np.int64)
    pos = 0
    for k0 in range(0, len(p), step):
        bp, bq, bc = p[k0:k0 + step], q[k0:k0 + step], counts[k0:k0 + step]
        allowed = _allowed(skels, embs, caps, dom, bp, bq)
        radix = allowed.sum(axis=2)
        values = np.argsort(~allowed, axis=2, kind="stable")
        n = int(bc.sum())
        pair = np.repeat(np.arange(len(bp)), bc)
        digits = np.arange(n) - np.repeat(np.cumsum(bc) - bc, bc)
        block = out[pos:pos + n]
        for y in range(nt - 1, -1, -1):
            r = radix[pair, y]
            block[:, y] = values[pair, y, digits % r]
            digits //= r
        block[:, nt:] = embs[bq[pair]]
        pos += n
    return out[np.lexsort(out.T[::-1])]


def doubling_pair_sweep(ms, js, anc, base, first_double, viol_out):
    """Sweep all realizable skeleton/embedding pairs of the outer Hom-set and
    check the doubling stability condition on each.

    ms and js both list the embeddings of the doubling tree T into the
    witness V (rows, length nt); realizability is ``realizable_pairs`` with
    dom = anc.  For each realizable pair the stability condition says the
    skeleton and the embedding agree on every marked base vertex and the
    skeleton avoids the embedded first double.

    Returns (n_realizable, n_violations); the first violating (m, j) index
    pairs, ordered by embedding and then by skeleton, are written to
    viol_out.
    """
    caps = pair_caps(js, anc.shape[0])
    n_realizable = n_violations = 0
    for p, q in realizable_pairs(ms, js, anc, caps):
        mb = ms[p[:, None], base[None, :]]
        bad = (mb != js[q[:, None], base[None, :]]) | (mb == js[q[:, None], first_double[None, :]])
        viol = np.flatnonzero(bad.any(axis=1))
        k = max(0, min(len(viol), viol_out.shape[0] - n_violations))
        viol_out[n_violations:n_violations + k, 0] = p[viol[:k]]
        viol_out[n_violations:n_violations + k, 1] = q[viol[:k]]
        n_realizable += len(p)
        n_violations += len(viol)
    return n_realizable, n_violations
