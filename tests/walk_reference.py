"""The recording walk on single return-map pieces, as the reference for
`windtree.billiard._walk_period`, which climbs the powers of the map,
from T^2 up to T^32, as a walk grows.  `_walk_period` below is the
single-piece walk word for word, reading the pieces from level 0 of the
orbit's table, with the cycle-store lookup of its first landmark block,
which `_landmark_at` answers by scanning every interval of the store;
`tests/test_billiard.py` records and finds cycles both ways and compares
every column of every `_Cycle` and every field of the `_Walk`.
"""

from bisect import bisect_left

from windtree.billiard import (_LANDMARK_EVERY, Orbit, _Cycle, _CycleStore,
                               _down, _Walk)


def _landmark_at(store: _CycleStore, n0: int, k: int, t: int):
    """(cycle, landmark) of the landmark interval of ``store`` that holds
    the state (k, t) at lattice scale n0, or None."""
    for i, (lo, hi) in enumerate(zip(store.los[k], store.his[k])):
        if n0 * lo < t < n0 * hi:
            ci, b = divmod(store.refs[k][i], 1 << 32)
            return store.cycles[ci], b
    return None


def _walk_period(walk: Orbit, limit: int, store: _CycleStore,
                 to_cell: bool = False) -> _Walk:
    """Step the start of ``walk`` until it is on a cycle recorded in
    ``store`` (looked up before each of its first _LANDMARK_EVERY steps),
    is back on its quotient state, hits a corner, or has made ``limit``
    collisions; record the cycle it closes.

    The open interval of starts that take the same pieces is shrunk along
    the way, kept as its margins below and above the orbit's point: each
    image is cut down to the next piece.  With ``to_cell``, the walk also
    stops on its first return to the start cell.  A walk back on its
    quotient start reflected, at phase j, closes there only when 2j is
    within ``limit``.
    """
    G = _LANDMARK_EVERY
    # piece i spans cuts[k][i - 1] to cuts[k][i]
    cuts, pieces = walk.tables.edges[0], walk.tables.rows[0]
    k, t, r = k0, t0, r0 = walk.k, walk.t, walk.r
    m, n = sm, sn = walk.cell
    n0, v = walk.n0, walk.lattice.v
    ext = steps = 0
    rec = _Cycle()
    closed, corner, returned = False, None, False
    cs = cuts[k]
    i = bisect_left(cs, t)
    below, above = t - cs[i - 1], cs[i] - t
    if above == 0:
        return _Walk(0, m, n, 0, walk.corner_hit(k, i, r, m, n), None, False,
                     None)
    found = _landmark_at(store, n0, k, t)
    if found is not None:
        return _Walk(0, m, n, 0, None, None, False, (*found, 0, 0, 0, 0, t, r))
    mlo = mhi = m
    nlo = nhi = n
    while steps < limit:
        if steps:  # the box of the last landmark's block, from its cell
            rec.mlo.append(mlo - lm)
            rec.mhi.append(mhi - lm)
            rec.nlo.append(nlo - ln)
            rec.nhi.append(nhi - ln)
        # a landmark: the phase-0 point is at t0 + off, and its extent is
        # ext + v*(k0 - k)*(tau - t0)
        rec.phase.append(steps)
        rec.k.append(k)
        rec.r.append(r)
        rec.off += _down([t - t0], n0)
        rec.cm.append(m - sm)
        rec.cn.append(n - sn)
        rec.ea += _down([ext - v * (k0 - k) * t0], n0)
        mlo = mhi = lm = m
        nlo = nhi = ln = n
        for steps in range(steps + 1, min(steps + G, limit) + 1):
            k, r, shift, dm, dn, c0, c1, *_ = pieces[k][i][r]
            ext += c0 + c1 * t
            t += shift
            m += dm
            n += dn
            if m < mlo:
                mlo = m
            elif m > mhi:
                mhi = m
            if n < nlo:
                nlo = n
            elif n > nhi:
                nhi = n
            if t == t0 and k == k0 and (r == r0 or 2 * steps <= limit):
                closed = True
                returned = to_cell and m == sm and n == sn
                break
            if m == sm and n == sn and to_cell:
                returned = True
                break
            cs = cuts[k]
            i = bisect_left(cs, t)
            c = cs[i]
            if c == t:
                corner = walk.corner_hit(k, i, r, m, n)
                break
            if c - t < above:
                above = c - t
            c = t - cs[i - 1]
            if c < below:
                below = c
            found = steps < min(G, limit) and _landmark_at(store, n0, k, t)
            if found:
                return _Walk(steps, m, n, ext, None, None, False,
                             (*found, steps, m - sm, n - sn, ext, t, r))
        else:
            continue
        break
    if not closed:
        return _Walk(steps, m, n, ext, corner, None, returned, None)
    rec.mlo.append(mlo - lm)
    rec.mhi.append(mhi - lm)
    rec.nlo.append(nlo - ln)
    rec.nhi.append(nhi - ln)
    rec.seal(steps, r ^ r0, (m - sm, n - sn),
             *_down([ext, t0 - below, t0 + above], n0))
    store.add(rec)
    return _Walk(steps, m, n, ext, None, rec, returned,
                 (rec, 0, 0, 0, 0, 0, t0, r0))
