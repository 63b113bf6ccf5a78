"""The recording walk on single return-map pieces, as the reference for
`windtree.billiard._walk_period`, which steps the 8th power of the map
once a walk is long.  The function below is the single-piece walk word
for word, reading the pieces from level 0 of the orbit's table;
`tests/test_billiard.py` records cycles both ways and compares every
column of every `_Cycle` and every field of the `_Walk`.
"""

from bisect import bisect_left

from windtree.billiard import (_LANDMARK_EVERY, _LEAF, _REFLECTIONS, Orbit,
                               _Cycle, _CycleStore, _down, _extent_slope,
                               _reverses, _Walk)


def _walk_period(walk: Orbit, limit: int, store: _CycleStore,
                 to_cell: bool = False) -> _Walk:
    """Step the start of ``walk`` until it is back on its start state, hits a
    corner, or has made ``limit`` collisions; record the cycle it closes.

    The open interval of starts that take the same pieces is shrunk along
    the way, kept as its margins below and above the orbit's point: each
    image is cut down to the next piece.  With ``to_cell``, the walk also
    stops on its first return to the start cell.  The sign the walk tracks
    is the one the leaf geometry fixes at every phase, so it is +1 when
    the walk closes: the period map on the interval is unflipped.  A walk
    that reaches a reflection of its start at phase j, with
    j >= _LANDMARK_EVERY and 2j <= ``limit``, stops there with the whole
    cycle of 2j collisions, its second half the first one's mirror image.
    """
    G = _LANDMARK_EVERY
    # piece i spans cuts[k][i - 1] to cuts[k][i]
    cuts, pieces = walk.tables.edges[0], walk.tables.rows[0]
    k = k0 = walk.k
    t = t0 = walk.t
    m, n = sm, sn = walk.cell
    leaf0, n0 = _LEAF[k0], walk.n0
    sign, ext, steps = 1, 0, 0
    # the start and its three reflections lie in four distinct domains:
    # goal[k] is the t of the one in domain k
    goal = [None] * 8
    for (sx, sy), kmap in _REFLECTIONS:
        goal[kmap[k0]] = cuts[k0][-1] - t0 if _reverses(k0, sx, sy) else t0
    rec = _Cycle()
    closed, half, corner, returned = False, 0, None, False
    cs = cuts[k]
    i = bisect_left(cs, t)
    below, above = t - cs[i - 1], cs[i] - t
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
        rec.phase.append(steps)
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
            if t == goal[k]:
                if k == k0:
                    closed = True
                    break
                if G <= steps and 2 * steps <= limit:
                    closed, half = True, steps
                    break
            cs = cuts[k]
            i = bisect_left(cs, t)
            c = cs[i]
            if c == t:
                corner = walk.corner_hit(k, i, m, n)
                break
            if c - t < above:
                above = c - t
            c = t - cs[i - 1]
            if c < below:
                below = c
        else:
            continue
        break
    if not closed:
        return _Walk(steps, m, n, ext, corner, None, returned)
    rec.mlo.append(mlo - lm)
    rec.mhi.append(mhi - lm)
    rec.nlo.append(nlo - ln)
    rec.nhi.append(nhi - ln)
    if half:
        (sx, sy), kmap = next(r for r in _REFLECTIONS if r[1][k0] == k)
        # T^j maps the first half's interval onto its own image under S
        # when its sign is -1 exactly where S reverses the start's side,
        # as the leaf geometry has it; then the second half cuts nothing
        if (sign < 0) != _reverses(k0, sx, sy):
            raise AssertionError("half period flipped against its mirror")
        # landmark b's image under S, moved by (dm, dn), is at phase
        # half + phase[b].  S keeps the kind of a side, so the extent
        # slope, and where it runs t from the side's other end (length - t)
        # it flips the leaf sign: the image's offset is length - off
        dm, dn, e = m - sm, n - sn, _down(ext, n0)
        rev = [_reverses(kb, sx, sy) for kb in rec.k]
        rec.phase += [half + q for q in rec.phase]
        rec.off += [cuts[kb][-1] // n0 - off if r else off
                    for kb, off, r in zip(rec.k, rec.off, rev)]
        rec.sign.extend([-sb if r else sb for sb, r in zip(rec.sign, rev)])
        rec.k.extend([kmap[kb] for kb in rec.k])
        rec.cm += [dm + sx * c for c in rec.cm]
        rec.cn += [dn + sy * c for c in rec.cn]
        rec.ea += [e + a for a in rec.ea]
        for lo, hi, s in ((rec.mlo, rec.mhi, sx), (rec.nlo, rec.nhi, sy)):
            lo2, hi2 = (lo, hi) if s > 0 else ([-c for c in hi],
                                                [-c for c in lo])
            lo += lo2
            hi += hi2
        # the interval's margins about t0, in the start's direction
        if sign < 0:
            below, above = above, below
        steps, ext = 2 * half, 2 * ext
        m, n = sm + dm + sx * dm, sn + dn + sy * dn
    elif sign != 1:
        raise AssertionError("period map flipped on its interval")
    rec.seal(steps, (m - sm, n - sn), _down(ext, n0),
             _down(t0 - below, n0), _down(t0 + above, n0))
    store.add(rec)
    return _Walk(steps, m, n, ext, None, rec, returned)
