"""The recording walk on single return-map pieces, as the reference for
`windtree.billiard._walk_period`, which steps the 8th power of the map
once a walk is long.  The function below is the single-piece walk word
for word; `tests/test_billiard.py` records cycles both ways and compares
every column of every `_Cycle` and every field of the `_Walk`.
"""

from bisect import bisect_left

from windtree.billiard import (_LANDMARK_EVERY, _LEAF, Orbit, _Cycle,
                               _CycleStore, _down, _extent_slope, _Walk)


def _walk_period(walk: Orbit, limit: int, store: _CycleStore,
                 to_cell: bool = False) -> _Walk:
    """Step the start of ``walk`` until it is back on its start state, hits a
    corner, or has made ``limit`` collisions; record the cycle it closes.

    The open interval of starts that take the same pieces is shrunk along
    the way, kept as its margins below and above the orbit's point: each
    image is cut down to the next piece.  With ``to_cell``, the walk also
    stops on its first return to the start cell.  The sign the walk tracks
    is the one the leaf geometry fixes at every phase, so it is +1 when
    the walk closes: the period map on the interval is unflipped.
    """
    G = _LANDMARK_EVERY
    cuts, pieces = walk._cuts, walk._pieces
    lows = [(0, *cs) for cs in cuts]  # lows[k][i]: the low end of piece i
    k = k0 = walk.k
    t = t0 = walk.t
    m, n = sm, sn = walk.cell
    leaf0, n0 = _LEAF[k0], walk.n0
    sign, ext, steps = 1, 0, 0
    rec = _Cycle()
    closed, corner, returned = False, None, False
    cs = cuts[k]
    i = bisect_left(cs, t)
    below, above = t - lows[k][i], cs[i] - t
    if above == 0:
        return _Walk(0, m, n, 0, walk.corner_hit(k, i, m, n), None, False)
    mlo = mhi = m
    nlo = nhi = n
    while steps < limit:
        if steps:  # the box of the last landmark's block, from its cell
            rec.mlo.append(mlo - lm)
            rec.mhi.append(mhi - lm)
            rec.nlo.append(nlo - ln)
            rec.nhi.append(nhi - ln)
        # a landmark: the phase-0 point is at sign*t0 + off, and its
        # extent is ext + B*(tau - t0) with the slope B the leaf geometry
        # fixes
        if sign != leaf0 * _LEAF[k]:
            raise AssertionError("tracked sign off the leaf geometry")
        B = _extent_slope(walk.lattice.v, k0, k)
        rec.k.append(k)
        rec.sign.append(sign)
        rec.off.append(_down(t - sign * t0, n0))
        rec.cm.append(m - sm)
        rec.cn.append(n - sn)
        rec.ea.append(_down(ext - B * t0, n0))
        mlo = mhi = lm = m
        nlo = nhi = ln = n
        for steps in range(steps + 1, min(steps + G, limit) + 1):
            k, flip, shift, dm, dn, c0, c1, *_ = pieces[k][i]
            ext += c0 + c1 * t
            if flip:
                t = shift - t
                below, above = above, below
                sign = -sign
            else:
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
            if m == sm and n == sn and to_cell:
                returned = True
                closed = t == t0 and k == k0
                break
            if t == t0 and k == k0:
                closed = True
                break
            cs = cuts[k]
            i = bisect_left(cs, t)
            c = cs[i]
            if c == t:
                corner = walk.corner_hit(k, i, m, n)
                break
            if c - t < above:
                above = c - t
            c = t - lows[k][i]
            if c < below:
                below = c
        else:
            continue
        break
    if not closed:
        return _Walk(steps, m, n, ext, corner, None, returned)
    if sign != 1:
        raise AssertionError("period map flipped on its interval")
    rec.mlo.append(mlo - lm)
    rec.mhi.append(mhi - lm)
    rec.nlo.append(nlo - ln)
    rec.nhi.append(nhi - ln)
    rec.seal(steps, (m - sm, n - sn), _down(ext, n0),
             _down(t0 - below, n0), _down(t0 + above, n0))
    store.add(rec)
    return _Walk(steps, m, n, ext, None, rec, returned)
