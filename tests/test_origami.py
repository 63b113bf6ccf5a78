import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from windtree.errors import DomainError
from windtree.exact import Params, ParityClass, Slope, classify_params
from windtree.origami import (Cylinder, CylinderDecomposition, MarkedPoint,
                              OrbitClass, Origami, _along, _cycles,
                              _horizontal_cylinders, _l_shape_cell,
                              _l_shape_position, build_origami,
                              ceil_sqrt2_times, cylinder_bounds_constant,
                              decompose_direction, decompose_table_direction,
                              direction_to_horizontal_word,
                              enumerate_good_directions, flow_first_hit,
                              hyperelliptic_involution, integer_weierstrass_count,
                              involution_fixed_points, is_good_one_cylinder,
                              locate_weierstrass,
                              orbit_invariant, scaled_direction_gcd, sl2z_act,
                              table_to_scaled_slope, word_matrix)

from oracles import separatrix_cylinders

HALF = classify_params(1, 2, 1, 2)
TWO_THIRDS = classify_params(2, 3, 2, 3)
TORUS = Origami([0], [0])


def all_desk_params(max_cells):
    out = []
    for q in range(2, max_cells + 2):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            for s in range(2, max_cells + 2):
                for r in range(1, s):
                    if gcd(r, s) != 1:
                        continue
                    if q * s - p * r <= max_cells:
                        out.append(classify_params(p, q, r, s))
    return out


def test_build_origami_cell_counts():
    assert build_origami(HALF).n == 3
    assert build_origami(classify_params(1, 3, 1, 2)).n == 5
    assert build_origami(TWO_THIRDS).n == 5


def test_build_origami_stratum():
    for params in (HALF, TWO_THIRDS, classify_params(3, 4, 1, 2),
                   classify_params(1, 4, 3, 4)):
        og = build_origami(params)
        assert og.is_h2()
        assert og.cone_angles() == (6,)


def test_half_origami_permutations():
    og = build_origami(HALF)
    # bottom row (cells 0, 1) wraps with width 2; top row is the single cell 2
    assert og.h == (1, 0, 2)
    assert og.v == (2, 1, 0)


def test_weierstrass_coordinates_and_projection():
    ws = locate_weierstrass(HALF)
    assert ws.coord("D") == (0, 0)
    assert ws.coord("E") == (Fraction(3, 2), 0)
    assert ws.coord("F") == (1, Fraction(3, 2))
    assert ws.coord("A") == (Fraction(1, 2), Fraction(1, 2))
    assert ws.integer_count == 1
    # odd/even parameters: the three block centers all project to the
    # half-integer point of the torus
    for params in (HALF, classify_params(1, 2, 1, 4), classify_params(3, 4, 1, 2)):
        assert params.parity_class is ParityClass.E
        ws = locate_weierstrass(params)
        for label in "ABC":
            x, y = ws.coord(label)
            assert (x % 1, y % 1) == (Fraction(1, 2), Fraction(1, 2))
    # even/odd parameters: D, E, F land on lattice corners
    for params in (TWO_THIRDS, classify_params(2, 5, 2, 3)):
        ws = locate_weierstrass(params)
        assert ws.integer_count == 3
        assert ws.integer_labels() == ("D", "E", "F")


def test_involution_unique_and_marked_points_verified():
    # build_origami verifies markings against the involution internally;
    # spot-check the involution squares to the identity and inverts gluings
    og = build_origami(TWO_THIRDS)
    iota = hyperelliptic_involution(og)
    n = og.n
    assert all(iota[iota[i]] == i for i in range(n))
    assert all(iota[og.h[i]] == og.h_inv[iota[i]] for i in range(n))
    assert all(iota[og.v[i]] == og.v_inv[iota[i]] for i in range(n))


def test_orbit_invariant_by_parity():
    for params in (classify_params(1, 2, 1, 4), classify_params(3, 4, 1, 2),
                   classify_params(1, 4, 3, 4)):
        inv = orbit_invariant(build_origami(params))
        assert inv.kind is OrbitClass.ORBIT_A
        assert inv.integer_count == 1
    for params in (TWO_THIRDS, classify_params(2, 5, 2, 3),
                   classify_params(4, 5, 2, 3)):
        inv = orbit_invariant(build_origami(params))
        assert inv.kind is OrbitClass.ORBIT_B
        assert inv.integer_count == 3
    small = orbit_invariant(build_origami(HALF))  # 3 cells: too small
    assert small.kind is OrbitClass.NOT_APPLICABLE
    assert small.integer_count == 1
    with pytest.raises(DomainError):
        orbit_invariant(TORUS)


def test_word_matrix_and_reduction_word():
    assert word_matrix("T") == ((1, 1), (0, 1))
    assert word_matrix("Tt") == ((1, 0), (0, 1))
    assert word_matrix("Ss") == ((1, 0), (0, 1))
    assert word_matrix("SSSS") == ((1, 0), (0, 1))
    for u, v in ((1, 1), (1, 2), (3, 4), (9, 29), (16, 37), (5, 1)):
        if gcd(u, v) != 1:
            continue
        word = direction_to_horizontal_word(Slope(u, v))
        (a, b), (c, d) = word_matrix(word)
        assert (c * v + d * u) == 0
        assert abs(a * v + b * u) == 1


def test_sl2z_generator_relations_on_surfaces():
    og = build_origami(TWO_THIRDS)
    assert sl2z_act(og, "Tt") == og
    assert sl2z_act(og, "tT") == og
    assert sl2z_act(og, "Ss") == og
    assert sl2z_act(og, "sS") == og
    assert sl2z_act(og, "SSSS") == og
    assert sl2z_act(og, "") == og


def test_sl2z_preserves_invariants_under_random_words():
    rng = random.Random(7)
    for params in (HALF, TWO_THIRDS, classify_params(3, 4, 1, 2)):
        og = build_origami(params)
        base_count = integer_weierstrass_count(og)
        for _ in range(10):
            word = "".join(rng.choice("TtSs") for _ in range(rng.randint(1, 20)))
            img = sl2z_act(og, word)
            assert img.n == og.n
            assert img.stratum_signature() == og.stratum_signature()
            assert integer_weierstrass_count(img) == base_count
            # marked-point transport must agree with the involution count
            corners = sum(1 for mp in img.marked if mp.is_integer)
            assert corners == base_count


def test_identity_and_veech_elements_fix_the_surface():
    og = build_origami(HALF)
    assert sl2z_act(og, "").equivalent(og)
    # the double shear and the quarter turn both preserve this surface
    assert sl2z_act(og, "TT").equivalent(og)
    assert sl2z_act(og, "S").equivalent(og)
    # a single shear sends it to an isomorphic-looking cell count but must
    # still be a valid surface of the same stratum
    assert sl2z_act(og, "T").is_h2()


def test_horizontal_decomposition_of_half_table():
    og = build_origami(HALF)
    decomp = decompose_direction(og, Slope(0, 1))
    assert sorted((c.circumference, c.height) for c in decomp.cylinders) == [
        (1, 1), (2, 1)]
    # waists: the block centers A and B share the wide cylinder's central
    # leaf; C and F share the other
    waists = sorted(c.waist_marked_points for c in decomp.cylinders)
    assert waists == [("A", "B"), ("C", "F")]


def test_slope_one_is_good_one_cylinder_on_half_table():
    decomp = decompose_table_direction(HALF, Slope(1, 1))
    assert len(decomp.cylinders) == 1
    cyl = decomp.cylinders[0]
    assert (cyl.circumference, cyl.height) == (3, 1)
    assert cyl.modulus == Fraction(1, 3)
    assert "E" in cyl.waist_marked_points and "F" in cyl.waist_marked_points
    assert is_good_one_cylinder(HALF, Slope(1, 1))
    assert not is_good_one_cylinder(HALF, Slope(1, 2))


def test_two_thirds_slope_one_is_one_cylinder_without_e_f():
    decomp = decompose_table_direction(TWO_THIRDS, Slope(1, 1))
    assert len(decomp.cylinders) == 1
    waist = decomp.cylinders[0].waist_marked_points
    assert "E" not in waist and "F" not in waist
    assert not is_good_one_cylinder(TWO_THIRDS, Slope(1, 1))


def test_good_directions_on_half_table_are_odd_odd():
    got = {(sl.u, sl.v) for sl in enumerate_good_directions(HALF, 9)}
    want = {(u, v) for u in range(1, 10) for v in range(1, 10)
            if gcd(u, v) == 1 and u % 2 == 1 and v % 2 == 1}
    assert got == want


def test_good_directions_empty_off_the_odd_over_even_class():
    assert enumerate_good_directions(TWO_THIRDS, 7) == []
    assert enumerate_good_directions(classify_params(1, 3, 1, 2), 5) == []


def test_good_directions_contain_figure_slopes():
    got = {(sl.u, sl.v) for sl in enumerate_good_directions(HALF, 30)}
    for u, v in ((1, 1), (3, 7), (7, 9), (9, 11), (9, 29)):
        assert (u, v) in got


def test_area_conservation_over_slopes():
    for params in (HALF, TWO_THIRDS, classify_params(3, 4, 3, 4)):
        og = build_origami(params)
        for u, v in ((1, 1), (1, 2), (2, 3), (5, 2), (0, 1), (1, 0)):
            if u and v and gcd(u, v) != 1:
                continue
            decomp = decompose_direction(og, Slope(u, v))
            assert decomp.total_area() == og.n


def test_decompose_matches_separatrix_oracle():
    slopes = [(u, v) for u in range(1, 6) for v in range(1, 6) if gcd(u, v) == 1]
    for params in all_desk_params(8):
        og = build_origami(params)
        for u, v in slopes:
            got = sorted((c.circumference, c.height)
                         for c in decompose_direction(og, Slope(u, v)).cylinders)
            want = separatrix_cylinders(og.h, og.v, v, u)
            assert got == want, (str(params), u, v)


def test_cylinder_bounds_constant():
    assert cylinder_bounds_constant(TORUS, 6) == 1
    og = build_origami(HALF)
    k20 = cylinder_bounds_constant(og, 20)
    assert k20 <= ceil_sqrt2_times(og.n)
    # monotone in the slope limit
    prev = Fraction(0)
    for limit in (1, 3, 6, 10, 20):
        cur = cylinder_bounds_constant(og, limit)
        assert cur >= prev
        prev = cur


def test_table_frame_conversion():
    assert table_to_scaled_slope(HALF, Slope(1, 1)) == Slope(1, 1)
    p = classify_params(1, 3, 1, 2)  # q=3, s=2: slope scales by 2/3
    assert table_to_scaled_slope(p, Slope(1, 1)) == Slope(2, 3)
    assert table_to_scaled_slope(p, Slope(3, 2)) == Slope(1, 1)
    assert scaled_direction_gcd(HALF, Slope(1, 1)) == 2
    assert scaled_direction_gcd(HALF, Slope(3, 4)) == 2


def test_one_cylinder_waists_carry_exactly_two_points():
    # on surfaces with a single integer special point, every one-cylinder
    # decomposition has exactly two of the six points on its central leaf
    for params in (classify_params(1, 2, 1, 4), classify_params(3, 4, 1, 2),
                   classify_params(1, 4, 3, 4)):
        og = build_origami(params)
        found = 0
        for u in range(1, 6):
            for v in range(1, 6):
                if gcd(u, v) != 1:
                    continue
                decomp = decompose_table_direction(params, Slope(u, v))
                if len(decomp.cylinders) != 1:
                    continue
                found += 1
                assert len(decomp.cylinders[0].waist_marked_points) == 2, \
                    (str(params), u, v)
        assert found > 0


def test_e_to_f_half_circumference():
    # flowing from E along a good direction reaches F after exactly half
    # the cylinder circumference
    for u, v in ((1, 1), (1, 3), (3, 1), (5, 3), (3, 7)):
        og = build_origami(HALF)
        scaled = table_to_scaled_slope(HALF, Slope(u, v))
        decomp = decompose_direction(og, scaled)
        assert len(decomp.cylinders) == 1
        circ = decomp.cylinders[0].circumference
        marked = og.marked_by_label()
        e, f = marked["E"], marked["F"]
        lam = flow_first_hit(og, (e.cell, e.x, e.y), (scaled.v, scaled.u),
                             (f.cell, f.x, f.y))
        assert lam == Fraction(circ, 2), (u, v)


def test_serialize_roundtrip():
    og = build_origami(TWO_THIRDS)
    text = og.serialize()
    back = Origami.deserialize(text)
    assert back == og
    assert back.marked == og.marked
    with pytest.raises(DomainError):
        Origami.deserialize("2\n0 0\n")  # truncated cell table


def test_canonical_form_detects_relabeling():
    og = build_origami(HALF)
    # relabel cells by a permutation and check equivalence
    perm = (2, 0, 1)
    inv = (1, 2, 0)
    h2 = tuple(perm[og.h[inv[i]]] for i in range(3))
    v2 = tuple(perm[og.v[inv[i]]] for i in range(3))
    other = Origami(h2, v2)
    assert other.equivalent(og)
    assert not TORUS.equivalent(og)


def _all_bases_form(og):
    """(sigma_h, sigma_v) minimized over relabelings by breadth-first
    discovery from every cell."""
    forms = []
    for base in range(og.n):
        order, pos = [base], {base: 0}
        for i in order:
            for j in (og.h[i], og.v[i], og.h_inv[i], og.v_inv[i]):
                if j not in pos:
                    pos[j] = len(order)
                    order.append(j)
        forms.append((tuple(pos[og.h[i]] for i in order),
                      tuple(pos[og.v[i]] for i in order)))
    return min(forms)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equivalent_matches_all_bases_reference(data):
    # the verdict of equivalent on pairs of relabeled desk surfaces and
    # tori, rooted at the largest vertex classes, against the minimum over
    # every base cell
    pool = [build_origami(p) for p in SURFACES[:40]] + \
        [TORUS, Origami([1, 2, 0], [0, 1, 2]), Origami([1, 0, 3, 2], [2, 3, 0, 1])]
    og, other = (data.draw(st.sampled_from(pool)) for _ in range(2))
    og = _relabel(og, data.draw(st.permutations(range(og.n))))
    other = data.draw(st.sampled_from(
        [other, _relabel(og, data.draw(st.permutations(range(og.n))))]))
    want = og.n == other.n and _all_bases_form(og) == _all_bases_form(other)
    assert og.equivalent(other) == want


def test_l_shape_arithmetic_matches_row_major_enumeration():
    for params in all_desk_params(40):
        q, s, p, r = params.q, params.s, params.p, params.r
        position = [(col, row) for row in range(s)
                    for col in range(q if row < s - r else q - p)]
        assert len(position) == params.n_cells
        assert [_l_shape_position(params, c)
                for c in range(len(position))] == position
        assert all(_l_shape_cell(params, col, row) == c
                   for c, (col, row) in enumerate(position))


# -- the surface layer against one-step references ------------------------

SURFACES = all_desk_params(12) + [classify_params(1, 5, 2, 7),   # 33 cells
                                  classify_params(4, 13, 4, 5),  # 49 cells
                                  classify_params(1, 7, 1, 8)]   # 55 cells
COORDS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(4, 5))


def _relabel(og, perm, extra=()):
    """The same surface with cell i renamed perm[i], plus extra marked
    points given as (cell, x, y) in the old labels."""
    n = og.n
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    h = [perm[og.h[inv[j]]] for j in range(n)]
    v = [perm[og.v[inv[j]]] for j in range(n)]
    marked = [MarkedPoint(mp.label, perm[mp.cell], mp.x, mp.y)
              for mp in og.marked]
    marked += [MarkedPoint(f"p{k}", perm[c], x, y)
               for k, (c, x, y) in enumerate(extra)]
    return Origami(h, v, marked)


def _letter(og, ch):
    """One generator letter (T, t, S or s) by its definition, as a checked
    Origami."""
    h, v, h_inv, v_inv = og.h, og.v, og.h_inv, og.v_inv
    marked = []
    if ch in "Tt":
        k = 1 if ch == "T" else -1
        new_h = h
        new_v = tuple(v[h_inv[i]] if k == 1 else v[h[i]] for i in range(og.n))
        for mp in og.marked:
            x, cell = mp.x + k * mp.y, mp.cell
            if x >= 1:
                x, cell = x - 1, h[cell]
            elif x < 0:
                x, cell = x + 1, h_inv[cell]
            marked.append(MarkedPoint(mp.label, cell, x, mp.y))
    elif ch == "S":
        new_h, new_v = v_inv, h
        for mp in og.marked:
            x, y, cell = 1 - mp.y, mp.x, mp.cell
            if x == 1:
                x, cell = Fraction(0), new_h[cell]
            marked.append(MarkedPoint(mp.label, cell, x, y))
    else:
        new_h, new_v = v, h_inv
        for mp in og.marked:
            x, y, cell = mp.y, 1 - mp.x, mp.cell
            if y == 1:
                y, cell = Fraction(0), new_v[cell]
            marked.append(MarkedPoint(mp.label, cell, x, y))
    return Origami(new_h, new_v, marked)


@st.composite
def relabeled_surfaces(draw, probes=True):
    og = build_origami(draw(st.sampled_from(SURFACES)))
    extra = draw(st.lists(st.tuples(st.integers(0, og.n - 1),
                                    st.sampled_from(COORDS),
                                    st.sampled_from(COORDS)),
                          max_size=4 if probes else 0))
    return _relabel(og, draw(st.permutations(range(og.n))), extra)


TOKENS = st.lists(st.one_of(
    st.tuples(st.just("T"), st.integers(-40, 40) | st.sampled_from([-997, 1000])),
    st.tuples(st.just("S"), st.integers(-7, 7))), max_size=6)


@settings(max_examples=60, deadline=None)
@given(og=relabeled_surfaces(), tokens=TOKENS)
def test_sl2z_act_matches_letter_by_letter_property(og, tokens):
    letters = "".join(
        ({("T", True): "T", ("T", False): "t", ("S", True): "S",
          ("S", False): "s"}[gen, k > 0]) * abs(k) for gen, k in tokens)
    want = og
    for ch in letters:
        want = _letter(want, ch)
    got = sl2z_act(og, tuple(tokens))
    assert (got.h, got.v, got.marked) == (want.h, want.v, want.marked)
    assert sl2z_act(og, letters) == want


def _brute_force_involutions(og):
    """Every cell permutation of an involution with derivative -id and six
    fixed points, trying all n images of cell 0."""
    n, h, v = og.n, og.h, og.v
    sols = []
    for img0 in range(n):
        iota = {0: img0}
        stack = [0]
        ok = True
        while stack and ok:
            i = stack.pop()
            for nbr, img in ((h[i], og.h_inv[iota[i]]),
                             (v[i], og.v_inv[iota[i]])):
                if nbr not in iota:
                    iota[nbr] = img
                    stack.append(nbr)
                elif iota[nbr] != img:
                    ok = False
        if not ok:
            continue
        iota = tuple(iota[i] for i in range(n))
        if all(iota[iota[i]] == i for i in range(n)) \
                and len(involution_fixed_points(og, iota)) == 6:
            sols.append(iota)
    return sols


@settings(max_examples=60, deadline=None)
@given(og=relabeled_surfaces(probes=False), tokens=TOKENS)
def test_involution_matches_brute_force_property(og, tokens):
    assert [hyperelliptic_involution(og)] == _brute_force_involutions(og)
    img = sl2z_act(og, tuple(tokens))
    assert [hyperelliptic_involution(img)] == _brute_force_involutions(img)


@pytest.mark.parametrize("h,v", [
    ((0,), (0,)), ((1, 0), (0, 1)), ((1, 0), (1, 0)), ((1, 2, 0), (0, 1, 2)),
    ((1, 0, 3, 2), (2, 3, 0, 1)), ((1, 2, 0), (1, 2, 0)),   # tori
    ((1, 2, 3, 0), (1, 0, 3, 2)), ((1, 2, 3, 4, 0), (0, 3, 4, 2, 1)),  # H(1,1)
])
def test_involution_off_the_stratum_raises(h, v):
    og = Origami(h, v)
    assert og.stratum_signature() in ((), (1, 1))
    assert len(_brute_force_involutions(og)) != 1
    with pytest.raises(DomainError):
        hyperelliptic_involution(og)


def test_cached_table_decomposition_matches_fresh():
    slopes = [Slope(0, 1), Slope(1, 0)] + [
        Slope(u, v) for u in range(1, 5) for v in range(1, 5) if gcd(u, v) == 1]
    for params in (HALF, TWO_THIRDS, classify_params(1, 3, 1, 3),
                   classify_params(1, 5, 2, 7)):
        for sl in slopes:
            cached = decompose_table_direction(params, sl)
            assert decompose_table_direction(params, sl) is cached
            assert cached == decompose_direction(
                build_origami(params), table_to_scaled_slope(params, sl))


# -- the cycle index and the row-link rule --------------------------------


@settings(max_examples=80, deadline=None)
@given(perm=st.integers(1, 24).flatmap(lambda n: st.permutations(range(n))),
       data=st.data())
def test_cycles_index_property(perm, data):
    n = len(perm)
    index = cycles, where, pos = _cycles(tuple(perm))
    # a partition, each cycle from its minimum, in the order of those
    assert sorted(c for cyc in cycles for c in cyc) == list(range(n))
    assert all(cyc[0] == min(cyc) for cyc in cycles)
    assert [cyc[0] for cyc in cycles] == sorted(cyc[0] for cyc in cycles)
    assert all(cycles[where[c]][pos[c]] == c for c in range(n))
    assert all(perm[a] == b for cyc in cycles
               for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    cell = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(-3 * n - 2, 3 * n + 2))
    want = cell
    for _ in range(abs(k)):
        want = perm[want] if k > 0 else inv[want]
    assert _along(index, cell, k) == want
    # walking only the cycles through some starts gives the same moves
    starts = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    partial = _cycles(tuple(perm), starts)
    assert {where[c] for c in starts} == \
        {where[c] for c in range(n) if partial[1][c] >= 0}
    assert all(_along(partial, c, k) == _along(index, c, k) for c in starts)


def _old_row_links(og):
    """The row above each row, or None, by the rule with both inverse
    gluings: the up-gluing maps the row onto a single row bijectively and
    every vertex on the interface is regular."""
    h, v, h_inv, v_inv = og.h, og.v, og.h_inv, og.v_inv
    rows, row_id, _ = _cycles(h)
    up = []
    for cyc in rows:
        imgs = {v[c] for c in cyc}
        tgt = row_id[v[cyc[0]]]
        if (all(row_id[c] == tgt for c in imgs)
                and len(imgs) == len(rows[tgt])
                and all(v[h[v_inv[h_inv[c]]]] == c for c in imgs)):
            up.append(tgt)
        else:
            up.append(None)
    return rows, up


def _assert_stacks_follow_old_rule(og):
    rows, up = _old_row_links(og)
    got_rows, stacks = _horizontal_cylinders(og.h, og.v)
    assert got_rows == rows
    down = {tgt: src for src, tgt in enumerate(up) if tgt is not None}
    assert sorted(r for chain in stacks for r in chain) == list(range(len(rows)))
    for chain in stacks:
        # maximal runs of links, or a run that wraps back to its start
        assert all(up[a] == b for a, b in zip(chain, chain[1:]))
        assert up[chain[-1]] in (None, chain[0])
        assert down.get(chain[0]) in (None, chain[-1])


@st.composite
def connected_origamis(draw):
    """Random transitive pairs on at most 12 cells, and relabeled torus
    covers whose stacks of rows wrap: w x m grids with a twist per row."""
    if draw(st.booleans()):
        w, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        twists = draw(st.lists(st.integers(0, w - 1), min_size=m, max_size=m))
        h = [r * w + (i + 1) % w for r in range(m) for i in range(w)]
        v = [(r + 1) % m * w + (i + twists[r]) % w
             for r in range(m) for i in range(w)]
        return _relabel(Origami(h, v), draw(st.permutations(range(w * m))))
    n = draw(st.integers(1, 12))
    h = draw(st.permutations(range(n)))
    v = draw(st.permutations(range(n)))
    try:
        return Origami(h, v)
    except DomainError:
        reject()


@settings(max_examples=200, deadline=None)
@given(og=connected_origamis())
def test_row_links_match_inverse_rule_on_random_origamis(og):
    _assert_stacks_follow_old_rule(og)


@pytest.mark.parametrize("table", ("1/2,1/2", "2/3,2/3", "1/3,1/3", "1/5,2/7",
                                   "4/13,4/5", "4/25,6/13", "3/44,9/44"))
@settings(max_examples=10, deadline=None)
@given(tokens=TOKENS)
def test_row_links_match_inverse_rule_on_sweep_images(table, tokens):
    _assert_stacks_follow_old_rule(
        sl2z_act(build_origami(Params.parse(table)), tuple(tokens)))
