import functools
import itertools
import random
from fractions import Fraction
from math import factorial
from operator import le, sub

import pytest

from genschur.superalgebra import (
    make_extended_zigzag, make_zigzag, make_matrix_superalgebra,
    make_even_matrix, make_trivial_extension, corner_family, builtin,
    direct_sum, truncate, Presentation, bilinear,
)
from genschur.combinatorics import (
    cells, compositions, factorial_weights, arrangements, bracket,
    canonicalize, is_valid_triple,
)
from genschur import schur
from genschur.cli import oracle_partners
from genschur.schur import (
    Ambient, ORBIT, SCALED, AmbientMismatch,
    multiply, multiply_oracle, to_tensor, from_tensor,
    identity, weight_idempotent,
    idempotent_sum, window_idempotent, multi_idempotent, permutation_element,
    apply_involution,
    parse_triple, format_triple, format_element, TensorElement,
)
from test_combinatorics import multi_compositions
from test_dcp import _random_letters, _settings

ZZ1 = make_extended_zigzag(1)
ZZ2 = make_extended_zigzag(2)
M11 = make_matrix_superalgebra(1, 1)
M2E = make_even_matrix(2)


def idx(pres, lab):
    return pres.index[lab]


def test_unit_elements_and_signs():
    amb = Ambient(ZZ1, 2, 2)
    a01 = idx(ZZ1, "a0_1")
    a10 = idx(ZZ1, "a1_0")
    # already canonical: coefficient +1
    x = amb.orbit_element(((a10, 1, 1), (a01, 1, 1)))
    assert list(x.coeffs.values()) == [1]
    # odd swap of a canonical triple: -1 on the canonical key
    y = amb.orbit_element(((a01, 1, 1), (a10, 1, 1)))
    assert y == x.scale(-1)
    # repeated odd cell: zero
    assert not amb.orbit_element(((a10, 1, 1), (a10, 1, 1)))


def test_scaled_vs_orbit():
    amb = Ambient(ZZ1, 1, 2)
    c0 = idx(ZZ1, "c0")
    T = ((c0, 1, 1), (c0, 1, 1))
    assert amb.scaled_element(T).orbit_coeffs() == {T: 2}
    assert amb.orbit_element(T).with_tag(SCALED).coeffs == {T: Fraction(1, 2)}
    assert amb.scaled_element(T).with_tag(SCALED).coeffs == {T: 1}


def test_to_tensor_degree_one():
    amb = Ambient(ZZ1, 2, 1)
    e0 = idx(ZZ1, "e0")
    x = amb.orbit_element(((e0, 1, 2),))
    assert to_tensor(x).coeffs == {((e0, 1, 2),): 1}


def test_to_tensor_orbit_of_two():
    amb = Ambient(ZZ1, 2, 2)
    e0 = idx(ZZ1, "e0")
    x = amb.orbit_element(((e0, 1, 1), (e0, 2, 2)))
    assert to_tensor(x).coeffs == {
        ((e0, 1, 1), (e0, 2, 2)): 1,
        ((e0, 2, 2), (e0, 1, 1)): 1,
    }


def test_scaled_expansion_shows_factorial():
    # a repeated sector-'c' cell: the scaled element expands with the
    # multiplicity factorial on each arrangement
    amb = Ambient(ZZ1, 1, 2)
    c0 = idx(ZZ1, "c0")
    x = amb.scaled_element(((c0, 1, 1), (c0, 1, 1)))
    assert to_tensor(x).coeffs == {((c0, 1, 1), (c0, 1, 1)): 2}


def test_tensor_invariance_under_signed_action():
    amb = Ambient(ZZ1, 2, 2)
    rng = random.Random(2)
    B = amb.basis()
    for _ in range(40):
        x = amb.orbit_element(rng.choice(B))
        tx = to_tensor(x)
        for sigma in itertools.permutations(range(2)):
            assert tx.apply_place_permutation(sigma) == tx


def test_from_tensor_rejects_non_invariant():
    amb = Ambient(ZZ1, 2, 2)
    e0 = idx(ZZ1, "e0")
    t = TensorElement(amb, {((e0, 1, 1), (e0, 2, 2)): 1})
    with pytest.raises(schur.ReexpressionError):
        from_tensor(t)


def reexpands(t):
    """The re-expansion check as the orbit sum itself: the coefficients
    at canonical keys, expanded again by ``to_tensor``, give back t.  The
    reference for ``from_tensor``'s orbit count."""
    amb = t.amb
    coeffs = {key: c for key, c in t.coeffs.items()
              if canonicalize(key, amb.odd) == (key, 1)}
    return to_tensor(schur.SchurElement(amb, coeffs, ORBIT)) == t


def perturbations(amb, t, rng):
    """Five edits of the product tensor t, each as {name: coefficients}:
    drop, flip the sign of or double one arrangement; add a key with a
    repeated odd cell; add a sorted key whose orbit is otherwise absent
    (an edit with nothing to act on is left out)."""
    out = {}
    keys = sorted(t)
    if keys:
        key = rng.choice(keys)
        out["drop"] = {k: c for k, c in t.items() if k != key}
        out["flip"] = {**t, key: -t[key]}
        out["double"] = {**t, key: 2 * t[key]}
    cells_ = cells(amb.pres.dim, amb.n)
    odd_cells = [c for c in cells_ if c[0] in amb.odd]
    if amb.d >= 2 and odd_cells:
        cell = rng.choice(odd_cells)
        rest = tuple(rng.choice(cells_) for _ in range(amb.d - 2))
        out["repeated odd"] = {**t, (cell, cell) + rest: 1}
    present = {canonicalize(k, amb.odd)[0] for k in t}
    absent = [V for V in amb.basis() if V not in present]
    if absent:
        out["absent orbit"] = {**t, rng.choice(absent): 1}
    return out


@pytest.mark.parametrize("pres", [M11, ZZ1], ids=["matrix:1,1",
                                                  "ext-zigzag:1"])
@pytest.mark.parametrize("n, d", [(2, 0), (2, 2), (1, 3), (2, 3)])
def test_reexpansion_count_rejects_what_the_orbit_sum_rejects(pres, n, d):
    amb = Ambient(pres, n, d)
    basis = amb.basis()
    rng = random.Random(31 + 10 * n + d)
    verdicts = set()
    for _ in range(25):
        T = rng.choice(basis)
        U = rng.choice(amb.partners(T) or basis)
        t = schur.tensor_multiply(to_tensor(amb.scaled_element(T)),
                                  to_tensor(amb.scaled_element(U)))
        assert reexpands(t)
        edits = perturbations(amb, t.coeffs, rng)
        for name, coeffs in [("product", t.coeffs), *edits.items()]:
            edited = TensorElement(amb, coeffs)
            want = reexpands(edited)
            try:
                from_tensor(edited)
                got = True
            except schur.ReexpressionError:
                got = False
            assert got == want, (amb, T, U, name)
            verdicts.add((name, want))
    # every edit that can act here is seen both to break and, where it
    # leaves an orbit sum (a lone arrangement), to keep invariance
    assert ("drop", False) in verdicts or d == 0
    assert ("repeated odd", True) not in verdicts
    assert ("absent orbit", False) in verdicts or d == 0


def test_multiply_matches_oracle_exhaustive_small():
    for pres, n, d in [(ZZ1, 1, 1), (ZZ1, 1, 2), (M11, 1, 2), (M2E, 1, 2)]:
        amb = Ambient(pres, n, d)
        for T in amb.basis():
            for U in amb.basis():
                a, b = amb.scaled_element(T), amb.scaled_element(U)
                assert multiply(a, b) == multiply_oracle(a, b)


def test_multiply_matches_oracle_sampled_2_2():
    rng = random.Random(7)
    for pres in (ZZ1, ZZ2, M11):
        amb = Ambient(pres, 2, 2)
        B = amb.basis()
        for _ in range(250):
            a = amb.scaled_element(rng.choice(B))
            b = amb.scaled_element(rng.choice(B))
            assert multiply(a, b) == multiply_oracle(a, b)


def test_multiply_matches_oracle_degree_three():
    # U among the partners of T, where the product can be nonzero
    rng = random.Random(11)
    amb = Ambient(ZZ1, 2, 3)
    B = amb.basis()
    nonzero = 0
    for _ in range(60):
        T = rng.choice(B)
        a = amb.scaled_element(T)
        b = amb.scaled_element(rng.choice(amb.partners(T)))
        got = multiply(a, b)
        assert got == multiply_oracle(a, b)
        nonzero += bool(got)
    assert nonzero == 31


def test_scaled_constants_match_oracle_on_repeated_cells_degree_three():
    # a factor with a repeated cell: the kernel shares its copies among
    # several options and divides the output's index by the factorials
    amb = Ambient(ZZ1, 2, 3)
    pairs = [(T, U) for T in amb.basis() for U in amb.partners(T)
             if len(set(T)) < 3 or len(set(U)) < 3]
    assert len(pairs) == 26752
    nonzero = 0
    for T, U in random.Random(5).sample(pairs, 200):
        got = amb.scaled_constants(T, U)
        assert got == multiply_oracle(amb.scaled_element(T),
                                      amb.scaled_element(U)).coeffs, (T, U)
        nonzero += bool(got)
    assert nonzero == 101


@pytest.mark.parametrize("name, d", [
    ("matrix:1,1", 3), ("ext-zigzag:1", 3), ("ext-zigzag:1", 4),
    ("even-matrix:2", 3),
])
def test_scaled_constants_match_oracle_exhaustive_degree_three_up(name, d):
    # odd letters and repeated cells meet at d >= 3: every pair of the grid
    amb = Ambient(builtin(name), 1, d)
    elems = {T: amb.scaled_element(T) for T in amb.basis()}
    for T, x in elems.items():
        for U, y in elems.items():
            assert amb.scaled_constants(T, U) == \
                multiply_oracle(x, y).coeffs, (T, U)


def test_scaled_constants_match_oracle_on_random_presentations_degree_three_up():
    # the random letters of the DCP tests: products with several outputs
    # and coefficients -1, at degrees where cells repeat and odd letters
    # meet, on every basis pair
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ambients(draw):
        pres = draw(_random_letters(hypothesis))
        hypothesis.assume(pres.validate().valid)
        fits = [(n, d) for n, d in ((1, 3), (1, 4), (2, 3))
                if len(Ambient(pres, n, d).basis()) <= 60]
        hypothesis.assume(fits)
        return Ambient(pres, *draw(st.sampled_from(fits)))

    @_settings(hypothesis, 150)
    @hypothesis.given(ambients())
    def agree(amb):
        elems = {T: amb.scaled_element(T) for T in amb.basis()}
        for T, x in elems.items():
            for U, y in elems.items():
                assert amb.scaled_constants(T, U) == \
                    multiply_oracle(x, y).coeffs, (amb, T, U)

    agree()


def test_side_keys_pin_the_rejection_set():
    amb = Ambient(builtin("zigzag:2"), 2, 2)
    basis = amb.basis()
    for T in basis:
        for U in basis:
            amb.structure_constants(T, U)
    # the pairs whose side keys meet
    assert sum(amb.side_keys(T)[1] == amb.side_keys(U)[0]
               for T in basis for U in basis) == 9220
    # of those, the memo keeps the ones that pass the matching test
    stored = [sc for row in amb._prod_cache.values() for sc in row.values()]
    assert len(stored) == 4296
    # every zero product among them is the one shared mapping
    zeros = [sc for sc in stored if not sc]
    assert len(zeros) == 48
    assert all(sc is zeros[0] for sc in zeros)
    # the key tuples: sorted (row, left class) and (col, right class)
    left, right = schur._letter_classes(amb.pres)
    lkey = {T: tuple(sorted((r, left[a]) for a, r, _ in T)) for T in basis}
    rkey = {T: tuple(sorted((s, right[a]) for a, _, s in T)) for T in basis}
    ids = {T: amb.side_keys(T) for T in basis}
    for T in basis:
        for U in basis:
            assert (ids[T][1] == ids[U][0]) == (rkey[T] == lkey[U]), (T, U)
            assert (ids[T][0] == ids[U][0]) == (lkey[T] == lkey[U]), (T, U)


def test_multiply_asks_the_table_only_for_meeting_pairs(monkeypatch):
    amb = Ambient(builtin("zigzag:2"), 2, 2)
    elems = [amb.scaled_element(T) for T in amb.basis()]
    calls = []
    table = Ambient.scaled_constants

    def counted(self, T, U):
        calls.append((T, U))
        return table(self, T, U)

    monkeypatch.setattr(Ambient, "scaled_constants", counted)
    for x in elems:
        for y in elems:
            multiply(x, y)
    assert len(elems) ** 2 == 85264
    # the partner pairs, as test_side_keys_pin_the_rejection_set counts them
    assert len(calls) == 9220
    assert len(set(calls)) == 9220


def test_counterexample_products():
    # squared off-diagonal cells against each other: coefficient 4 on equal
    # columns, 2 on distinct columns
    amb = Ambient(M2E, 2, 2)
    E12, E21, E11 = (idx(M2E, l) for l in ("E1_2", "E2_1", "E1_1"))
    x = amb.scaled_element(((E12, 1, 1), (E12, 1, 1)))
    y_eq = amb.scaled_element(((E21, 1, 1), (E21, 1, 1)))
    y_ne = amb.scaled_element(((E21, 1, 1), (E21, 1, 2)))
    assert multiply(x, y_eq).coeffs == {((E11, 1, 1), (E11, 1, 1)): 4}
    assert multiply(x, y_ne).coeffs == {((E11, 1, 1), (E11, 1, 2)): 2}


def test_scaled_products_are_integral():
    rng = random.Random(13)
    for pres in (ZZ1, M11):
        amb = Ambient(pres, 2, 2)
        B = amb.basis()
        for _ in range(300):
            p = multiply(amb.scaled_element(rng.choice(B)),
                         amb.scaled_element(rng.choice(B)))
            assert all(not isinstance(v, Fraction) for v in p.coeffs.values())


def test_orbit_pair_with_nontrivial_rescale():
    # witnesses that the scaled lattice is a proper sublattice: an orbit
    # basis product whose scaled counterpart differs by a factor > 1
    amb = Ambient(M2E, 1, 2)
    E12, E21 = idx(M2E, "E1_2"), idx(M2E, "E2_1")
    T = ((E12, 1, 1), (E12, 1, 1))
    U = ((E21, 1, 1), (E21, 1, 1))
    assert amb.scale_of(T) == 2 and amb.scale_of(U) == 2
    xi_prod = multiply(amb.orbit_element(T), amb.orbit_element(U))
    eta_prod = multiply(amb.scaled_element(T), amb.scaled_element(U))
    (vx,) = xi_prod.coeffs.values()
    (ve,) = eta_prod.coeffs.values()
    assert ve == 4 * vx


def _off_diagonal_pair():
    # even 2x2 matrix units with the off-diagonal ones in sector 'a': not
    # a good pair, and E1_2^2 * E2_1^2 is half a scaled basis element
    data = M2E.to_json_dict()
    for b in data["basis"]:
        b["sector"] = "a" if b["label"] in ("E1_2", "E2_1") else "c"
    data["name"] = "off-diagonal-a"
    return Presentation.from_json_dict(data)


@pytest.mark.parametrize("pres", [
    builtin(name) for name in ("ext-zigzag:1", "matrix:1,1", "even-matrix:2",
                               "trivext:zigzag:1", "sum:zigzag:1+matrix:1,0")
] + [_off_diagonal_pair()], ids=lambda p: p.name)
@pytest.mark.parametrize("n, d", [(1, 2), (2, 1), (2, 2)])
def test_scaled_constants_match_multiply(pres, n, d):
    amb = Ambient(pres, n, d)
    elems = {T: amb.scaled_element(T) for T in amb.basis()}
    for T, x in elems.items():
        for U, y in elems.items():
            got = amb.scaled_constants(T, U)
            want = multiply(x, y).coeffs
            assert got == want, (T, U)
            assert [type(v) for v in got.values()] == \
                [type(want[V]) for V in got], (T, U)
            # the orbit route, rescaled, gives the same values and types
            via_orbit = multiply(x.with_tag(ORBIT),
                                 y.with_tag(ORBIT)).with_tag(SCALED).coeffs
            assert via_orbit == got, (T, U)
            assert [type(via_orbit[V]) for V in got] == \
                [type(v) for v in got.values()], (T, U)


@pytest.mark.parametrize("name", [
    "ext-zigzag:1", "ext-zigzag:2", "zigzag:1", "zigzag:2", "matrix:1,0",
    "matrix:0,1", "matrix:1,1", "matrix:2,1", "even-matrix:2",
    "trivext:zigzag:1", "trivext:matrix:1,0", "sum:zigzag:1+matrix:1,0",
])
def test_degree_one_one_ambient_is_the_presentation(name):
    # S(1, 1) is A: the scaled table of Ambient(A, 1, 1) is the table of A
    # under ((b, 1, 1),) <-> b, so the dcp module needs no presentation case
    pres = builtin(name)
    assert pres.validate().valid
    amb = Ambient(pres, 1, 1)
    assert amb.basis() == tuple(((b, 1, 1),) for b in range(pres.dim))
    for b in range(pres.dim):
        for c in range(pres.dim):
            want = {((k, 1, 1),): v for k, v in pres.mult_basis(b, c).items()}
            assert amb.scaled_constants(((b, 1, 1),), ((c, 1, 1),)) == want, \
                (b, c)


def test_multiply_cache_transparent():
    amb = Ambient(ZZ1, 2, 2)
    rng = random.Random(17)
    B = amb.basis()
    for _ in range(100):
        T, U = rng.choice(B), rng.choice(B)
        first = multiply(amb.scaled_element(T), amb.scaled_element(U))
        # the memoized table against the uncached computation
        assert amb.structure_constants(T, U) == \
            schur._structure_constants(amb, T, U)
        again = multiply(amb.scaled_element(T), amb.scaled_element(U))
        assert again.coeffs == first.coeffs


SMALL_ALGEBRAS = ("zigzag:1", "ext-zigzag:1", "matrix:1,0", "matrix:0,1",
                  "matrix:1,1", "even-matrix:2")


def _corners(pres):
    """Corners e*A*e by the basis idempotents e with an adapted basis."""
    out = []
    for i in range(pres.dim):
        if pres.is_idempotent({i: 1}):
            try:
                out.append(truncate(pres, {i: 1}))
            except ValueError:
                pass
    return out


def _small_ambients(hypothesis, max_basis):
    """Strategy of ambients over builtins, direct sums, trivial
    extensions and corners (nested up to two levels), n <= 2, d <= 2 and
    at most max_basis basis elements: the properties below compare every
    basis pair, so the basis stays small."""
    st = hypothesis.strategies

    @st.composite
    def presentations(draw, depth=2):
        kind = draw(st.sampled_from(["builtin", "sum", "trivext", "corner"])
                    if depth else st.just("builtin"))
        if kind == "builtin":
            return builtin(draw(st.sampled_from(SMALL_ALGEBRAS)))
        inner = draw(presentations(depth - 1))
        if kind == "sum":  # a letter class per summand, at least
            return direct_sum(inner, draw(presentations(depth - 1)))
        if kind == "trivext":  # one letter class
            hypothesis.assume(inner.unit is not None)
            return make_trivial_extension(inner)
        corners = _corners(inner)
        hypothesis.assume(corners)
        return draw(st.sampled_from(corners))

    @st.composite
    def ambients(draw):
        pres = draw(presentations())
        fits = [(n, d) for d in (2, 1, 0) for n in (2, 1)
                if len(Ambient(pres, n, d).basis()) <= max_basis]
        return Ambient(pres, *draw(st.sampled_from(fits)))

    return ambients


def spread_kernel(amb, T, U):
    """The product rule by spreads, the reference for
    ``schur._structure_constants``: each cell type of T shares its m
    copies among its options (sorted) at once, as the compositions of m
    capped at 1 for an option with an odd output cell, and divides by the
    factorials of the counts.  The sign pass is the kernel's."""
    if amb.d == 0:
        return {(): 1}
    odd = amb.odd
    products = amb.pres.products
    t, u = amb._record(T), amb._record(U)
    ucells = u.cells
    partial = [(u.counts, (), (), 1, 1)]
    for (a, r, mid), m in zip(t.cells, t.counts):
        opts = sorted((k, b, kappa) for k in u.rows[mid - 1]
                      for b, kappa in products.get((a, ucells[k][0]),
                                                   {}).items())
        if not opts:
            return {}
        spreads = []
        for takes in _spreads(m, tuple(1 if o[1] in odd else m for o in opts)):
            use = [0] * len(ucells)
            c_part = o_part = ()
            kappa = denom = 1
            for j, cnt in takes:
                k, b, kap = opts[j]
                use[k] += cnt
                c_part += (ucells[k],) * cnt
                o_part += ((b, r, ucells[k][2]),) * cnt
                kappa *= kap ** cnt
                denom *= factorial(cnt)
            spreads.append((use, c_part, o_part, kappa, denom))
        partial = [(rest, c_word + c_part, o_word + o_part, kappa * kap,
                    denom * dn)
                   for free, c_word, o_word, kappa, denom in partial
                   for use, c_part, o_part, kap, dn in spreads
                   for rest in [tuple(map(sub, free, use))] if min(rest) >= 0]
        if not partial:
            return {}
    out = {}
    for _, c_word, o_word, kappa, denom in partial:
        exp = 0
        odd_c, odd_o = [], []
        for p, c, o in zip(t.parity, c_word, o_word):
            if p:
                exp += len(odd_c)
            if c[0] in odd:
                exp += sum(x > c for x in odd_c)
                odd_c.append(c)
            if o[0] in odd:
                if o in odd_o:
                    break
                exp += sum(x > o for x in odd_o)
                odd_o.append(o)
        else:
            canon = tuple(sorted(o_word))
            coeff = kappa * (amb._record(canon).index // denom)
            v = out.get(canon, 0) + (-coeff if exp % 2 else coeff)
            if v:
                out[canon] = v
            else:
                out.pop(canon, None)
    return out


@functools.lru_cache(maxsize=None)
def _spreads(m, caps):
    """The ways to share m copies among options with these caps: each a
    tuple of (option, count > 0), in lexicographic order of the counts."""
    return tuple(tuple((j, k) for j, k in enumerate(counts) if k)
                 for counts in compositions(len(caps), m)
                 if all(map(le, counts, caps)))


@pytest.mark.parametrize("name, n, d", [
    ("ext-zigzag:2", 2, 2), ("ext-zigzag:1", 2, 3), ("matrix:1,1", 2, 3),
    ("even-matrix:2", 1, 4), ("ext-zigzag:1", 1, 4),
])
def test_kernel_matches_the_spread_kernel(name, n, d):
    # one copy at a time with run-length denominators = all copies of a
    # type at once with factorial denominators, on every partner pair:
    # odd letters with repeated cells (matrix:1,1) and runs of up to four
    # copies (n=1, d=4)
    amb = Ambient(builtin(name), n, d)
    repeated = 0
    for T in amb.basis():
        for U in amb.partners(T):
            got = schur._structure_constants(amb, T, U)
            assert got == spread_kernel(amb, T, U), (T, U)
            repeated += bool(got) and len(set(T)) < d
    assert repeated  # not vacuous: some T with a repeated cell multiplies


def test_table_matches_structure_constants_property():
    hypothesis = pytest.importorskip("hypothesis")
    ambients = _small_ambients(hypothesis, 300)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(ambients())
    def table_is_exact(amb):
        for T in amb.basis():
            for U in amb.basis():
                assert amb.structure_constants(T, U) == \
                    schur._structure_constants(amb, T, U), (amb, T, U)

    table_is_exact()


def test_oracle_join_and_fast_product_property():
    hypothesis = pytest.importorskip("hypothesis")
    ambients = _small_ambients(hypothesis, 120)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(ambients())
    def join_is_exact(amb):
        elems = {T: amb.scaled_element(T) for T in amb.basis()}
        tensors = {T: to_tensor(x) for T, x in elems.items()}
        partners = oracle_partners(amb, tensors)
        for T, x in elems.items():
            for U, y in elems.items():
                # the grid skips the tensor route off the partner set
                if U not in partners[T]:
                    assert not schur.tensor_multiply(
                        tensors[T], tensors[U]).coeffs, (amb, T, U)
                # fast product = oracle
                assert amb.scaled_constants(T, U) == \
                    multiply_oracle(x, y).coeffs, (amb, T, U)

    join_is_exact()


def test_partner_index_property():
    hypothesis = pytest.importorskip("hypothesis")
    ambients = _small_ambients(hypothesis, 300)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(ambients())
    def index_is_the_side_check(amb):
        basis = amb.basis()
        keys = {T: amb.side_keys(T) for T in basis}
        for T in basis:
            got = amb.partners(T)
            assert got == tuple(U for U in basis
                                if keys[T][1] == keys[U][0]), (amb, T)
            for U in set(basis).difference(got):
                assert amb.structure_constants(T, U) == {}, (amb, T, U)
                # the kernel, which reads no side key, finds no term
                assert schur._structure_constants(amb, T, U) == {}, \
                    (amb, T, U)

    index_is_the_side_check()


def test_oracle_join_is_the_meet_tables_scan_property():
    hypothesis = pytest.importorskip("hypothesis")
    ambients = _small_ambients(hypothesis, 120)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(ambients())
    def join_is_the_scan(amb):
        tensors = {T: to_tensor(amb.scaled_element(T)) for T in amb.basis()}
        scan = {T: {U for U, u in tensors.items()
                    if any(schur.meet_tables(amb.pres, kx, ky) is not None
                           for kx in t.coeffs for ky in u.coeffs)}
                for T, t in tensors.items()}
        assert oracle_partners(amb, tensors) == scan, amb

    join_is_the_scan()


def test_side_keys_reject_letters_of_other_summands(monkeypatch):
    pres = builtin("sum:zigzag:1+matrix:1,0")
    amb = Ambient(pres, 2, 2)
    # T from the left summand, U from the right one, T's columns U's rows
    T = ((pres.index["L.e0"], 1, 2), (pres.index["L.e0"], 2, 1))
    U = ((pres.index["R.E1_1"], 1, 2), (pres.index["R.E1_1"], 2, 1))
    assert T in amb.basis() and U in amb.basis()
    assert sorted(c[2] for c in T) == sorted(c[1] for c in U)
    assert not multiply_oracle(amb.scaled_element(T), amb.scaled_element(U))

    def unreachable(amb, T, U):
        raise AssertionError("the side check let a rejected pair through")

    monkeypatch.setattr(schur, "_structure_constants", unreachable)
    assert amb.structure_constants(T, U) == {}
    assert amb.scaled_constants(T, U) == {}
    assert U not in amb._prod_cache.get(T, {})


def test_table_outputs_are_the_basis_triples_and_reads_are_shared():
    amb = Ambient(builtin("zigzag:2"), 2, 2)
    basis = {T: T for T in amb.basis()}
    zero = None
    for T in basis:
        x = amb.scaled_element(T)
        for U in amb.partners(T):
            sc = amb.structure_constants(T, U)
            scaled = amb.scaled_constants(T, U)
            product = multiply(x, amb.scaled_element(U)).coeffs
            for V in itertools.chain(sc, scaled, product):
                assert V is basis[V], (T, U, V)
            assert amb.structure_constants(T, U) is sc
            if not sc:
                if zero is None:
                    zero = sc
                assert sc is zero and scaled is zero, (T, U)
    assert zero is not None
    with pytest.raises(TypeError):
        zero[next(iter(basis))] = 1


@pytest.mark.parametrize("name, n, d, rejects", [
    ("matrix:1,1", 1, 3, 0), ("ext-zigzag:1", 1, 3, 88),
    ("even-matrix:2", 1, 3, 0), ("sum:zigzag:1+matrix:1,0", 2, 2, 242),
    ("zigzag:2", 2, 2, 4924),
])
def test_matching_test_rejects_only_zero_products(name, n, d, rejects):
    # odd letters and repeated cells at d = 3, letters of two summands,
    # and the socle loop against arrows at one vertex; on matrix algebras
    # the side keys are already exact, so nothing is left to reject
    amb = Ambient(builtin(name), n, d)
    rejected = 0
    for T in amb.basis():
        for U in amb.partners(T):
            if schur._cells_match(amb.pres.products, T, U):
                continue
            rejected += 1
            assert schur._structure_constants(amb, T, U) == {}, (T, U)
            assert amb.structure_constants(T, U) is schur._ZERO
            assert U not in amb._prod_cache.get(T, {})
    assert rejected == rejects


def test_zero_products_are_one_shared_element():
    amb = Ambient(builtin("zigzag:2"), 2, 2)
    B = amb.basis()
    for tag in (SCALED, ORBIT):
        zero = amb.zero(tag)
        assert zero is amb.zero(tag) and zero.tag == tag and not zero
        elems = [schur.sum_terms(amb, [(T, 1)], tag) for T in B[:40]]
        products = [multiply(x, y) for x in elems for y in elems]
        zeros = [p for p in products if not p]
        assert zeros and all(p is zero for p in zeros)
        with pytest.raises(TypeError):
            zero.coeffs[B[0]] = 1
        x = next(p for p in products if p)
        for got in (zero + x, x + zero):
            assert got == x and got is not x and got is not zero
        for got in (zero.scale(-1), zero.with_tag(ORBIT if tag == SCALED
                                                   else SCALED)):
            assert not got and got is not zero and got.coeffs == {}
        assert zero.with_tag(ORBIT) == amb.zero(ORBIT)
        assert multiply(x, zero) is zero and multiply(zero, x) is zero
    assert amb.zero(SCALED) is not amb.zero(ORBIT)
    # the zero of one ambient is not shared with another
    assert Ambient(builtin("zigzag:2"), 2, 2).zero() is not amb.zero()


def test_equal_but_distinct_ambients_multiply():
    # builtin builds a fresh presentation per call, so only the structural
    # comparison can tell these ambients equal
    amb1 = Ambient(builtin("zigzag:1"), 2, 2)
    amb2 = Ambient(builtin("zigzag:1"), 2, 2)
    assert amb1.pres is not amb2.pres and amb1 == amb2
    rng = random.Random(5)
    B = amb1.basis()
    nonzero = 0
    for _ in range(40):
        T, U = rng.choice(B), rng.choice(B)
        got = multiply(amb1.scaled_element(T), amb2.scaled_element(U))
        assert got == multiply(amb1.scaled_element(T), amb1.scaled_element(U))
        nonzero += bool(got)
    assert nonzero
    assert amb1.scaled_element(T) == amb2.scaled_element(T)


def test_equal_but_distinct_ambients_number_side_keys_apart():
    # side keys are numbered per ambient in the order records are first
    # built: amb2 builds them in reverse, so its ints differ from amb1's,
    # and the product must key y's terms by x's ambient
    amb1 = Ambient(builtin("ext-zigzag:1"), 2, 2)
    amb2 = Ambient(builtin("ext-zigzag:1"), 2, 2)
    B = amb1.basis()
    for T in B:
        amb1.side_keys(T)
    for T in reversed(amb2.basis()):
        amb2.side_keys(T)
    assert amb1 == amb2
    assert any(amb1.side_keys(T) != amb2.side_keys(T) for T in B)
    nonzero = 0
    for tag in (SCALED, ORBIT):
        elems1 = {T: schur.sum_terms(amb1, [(T, 1)], tag) for T in B}
        elems2 = {T: schur.sum_terms(amb2, [(T, 1)], tag) for T in B}
        for T in B:
            for U in amb1.partners(T):
                got = multiply(elems1[T], elems2[U])
                want = multiply(elems1[T], elems1[U])
                assert got.amb is amb1 and got.tag == tag
                assert got.coeffs == want.coeffs, (tag, T, U)
                nonzero += bool(got)
    assert nonzero


def test_multiply_property():
    # random multi-term elements in either scaling against the bilinear
    # extension of the tables; an element drawn again is the same object,
    # so its cached side keys are read again
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ambients = {(name, n, d): Ambient(builtin(name), n, d)
                for name in ("zigzag:2", "ext-zigzag:1", "even-matrix:2",
                             "matrix:1,1")
                for n in (1, 2) for d in (0, 1, 2)}
    made = {}
    reused = []

    @st.composite
    def elements(draw, key):
        amb = ambients[key]
        terms = tuple(draw(st.lists(st.tuples(st.sampled_from(amb.basis()),
                                              st.integers(-3, 3)),
                                    max_size=6)))
        # "halves": scaled, with Fraction coefficients
        tag = draw(st.sampled_from([SCALED, ORBIT, "halves"]))
        elem = made.get((key, terms, tag))
        if elem is None:
            elem = made[key, terms, tag] = (
                schur.sum_terms(amb, terms, SCALED).scale(Fraction(1, 2))
                if tag == "halves" else schur.sum_terms(amb, terms, tag))
        elif len(elem.coeffs) > 1:
            reused.append(elem)
        return elem

    @st.composite
    def pairs(draw):
        key = draw(st.sampled_from(sorted(ambients)))
        return draw(elements(key)), draw(elements(key))

    def bilinear_product(x, y):
        amb = x.amb
        if x.tag == y.tag == SCALED:
            return SCALED, bilinear(amb.scaled_constants, x.coeffs, y.coeffs)
        return ORBIT, bilinear(amb.structure_constants,
                               x.with_tag(ORBIT).coeffs,
                               y.with_tag(ORBIT).coeffs)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(pairs())
    def product_is_bilinear(pair):
        x, y = pair
        for a, b in ((x, y), (y, x), (x, x), (x, y)):
            tag, want = bilinear_product(a, b)
            got = multiply(a, b)
            assert got.tag == tag
            assert list(got.coeffs.items()) == \
                list(schur._normalize(want).items()), (a, b)
            for v in got.coeffs.values():
                assert v and not (isinstance(v, Fraction)
                                  and v.denominator == 1)

    product_is_bilinear()
    assert any(len(x.coeffs) > 1 for x in made.values())
    assert reused


def test_same_shape_other_products_mismatch():
    data = M2E.to_json_dict()
    data["products"] = [p[:3] + [2 * p[3]] if p[:3] == ["E1_1", "E1_1", "E1_1"]
                        else p for p in data["products"]]
    other = Presentation.from_json_dict(data)
    assert other.name == M2E.name and other.labels == M2E.labels
    T = ((idx(M2E, "E1_1"), 1, 1), (idx(M2E, "E1_1"), 1, 1))
    a = Ambient(M2E, 2, 2).scaled_element(T)
    b = Ambient(other, 2, 2).scaled_element(T)
    assert a.amb != b.amb
    with pytest.raises(AmbientMismatch):
        multiply(a, b)
    with pytest.raises(AmbientMismatch):
        multiply(b, a)


@pytest.mark.parametrize("pres", [ZZ1, _off_diagonal_pair()],
                         ids=lambda p: p.name)
def test_mixed_tag_products_match_oracle(pres):
    amb = Ambient(pres, 2, 2)
    B = amb.basis()
    rng = random.Random(19)
    for _ in range(60):
        T, U = rng.choice(B), rng.choice(B)
        pairs = [
            (amb.orbit_element(T), amb.scaled_element(U)),
            (amb.scaled_element(T), amb.orbit_element(U)),
            # a scaled input with fractional coefficients
            (amb.orbit_element(T).with_tag(SCALED), amb.scaled_element(U)),
        ]
        for x, y in pairs:
            got, want = multiply(x, y), multiply_oracle(x, y)
            assert got.tag == want.tag, (T, U)
            assert got.coeffs == want.coeffs, (T, U)
            assert [type(v) for v in got.coeffs.values()] == \
                [type(want.coeffs[V]) for V in got.coeffs], (T, U)


@pytest.mark.parametrize("pres", [ZZ2, M2E, _off_diagonal_pair()],
                         ids=lambda p: p.name)
def test_scale_of_matches_factorial_weights(pres):
    amb = Ambient(pres, 2, 2)
    for _ in range(2):  # the second pass reads the memo
        for T in amb.basis():
            assert amb.scale_of(T) == factorial_weights(T, pres.sectors)[2]


@pytest.mark.parametrize("name, n, d", [
    ("ext-zigzag:2", 2, 2), ("even-matrix:2", 2, 2), ("matrix:1,1", 2, 3),
    ("ext-zigzag:1", 3, 3),
])
def test_triple_records_match_a_recomputation(name, n, d):
    pres = builtin(name)
    amb = Ambient(pres, n, d)
    for T in amb.basis():
        rec = amb._triples.get(T) or amb._record(T)
        types = sorted(set(T))
        assert rec.cells == tuple(types)
        assert rec.counts == tuple(T.count(c) for c in types)
        assert rec.index == factorial_weights(T, pres.sectors)[0]
        assert rec.scale == factorial_weights(T, pres.sectors)[2]
        # the positions in cells of the cells in each row 1..n
        assert rec.rows == tuple(
            tuple(k for k, c in enumerate(types) if c[1] == r)
            for r in range(1, n + 1))
        # the letter parity of the sorted cells, one entry per position
        assert rec.parity == tuple(pres.parity[a] for a, _, _ in T)
        assert (rec.left, rec.right) == amb.side_keys(T)
        assert rec.left == amb._left_key(T)


@pytest.mark.parametrize("cell", [(0, 1), (0, 1, 1, 1), (0, 2, 1), (0, 1, 0)])
def test_scaled_element_rejects_a_malformed_cell(cell):
    with pytest.raises(ValueError):
        Ambient(ZZ1, 1, 1).scaled_element((cell,))


def test_ambient_mismatch_raises():
    a = Ambient(ZZ1, 2, 2).scaled_element((
        (idx(ZZ1, "e0"), 1, 1), (idx(ZZ1, "e0"), 1, 1)))
    b = Ambient(ZZ1, 1, 2).scaled_element((
        (idx(ZZ1, "e0"), 1, 1), (idx(ZZ1, "e0"), 1, 1)))
    with pytest.raises(AmbientMismatch):
        multiply(a, b)


# ---------------------------------------------------------------------------
# idempotents

def test_identity_is_neutral():
    rng = random.Random(19)
    for pres in (ZZ1, M2E):
        amb = Ambient(pres, 2, 2)
        one = identity(amb)
        B = amb.basis()
        for _ in range(30):
            x = amb.scaled_element(rng.choice(B))
            assert multiply(one, x) == x
            assert multiply(x, one) == x


def test_weight_idempotents_decompose_identity():
    amb = Ambient(ZZ1, 2, 2)
    total = amb.zero()
    for lam in compositions(2, 2):
        total = total + weight_idempotent(amb, lam)
    assert total == identity(amb)


@pytest.mark.parametrize("lam", [(3, -1), (1, 1, 0), (1, 0)])
def test_weight_idempotent_rejects_a_bad_composition(lam):
    with pytest.raises(ValueError):
        weight_idempotent(Ambient(ZZ1, 2, 2), lam)


def test_weight_idempotent_orthogonality():
    amb = Ambient(ZZ1, 2, 2)
    lams = list(compositions(2, 2))
    for lam in lams:
        for mu in lams:
            p = multiply(weight_idempotent(amb, lam), weight_idempotent(amb, mu))
            if lam == mu:
                assert p == weight_idempotent(amb, lam)
            else:
                assert not p


def test_weight_action_on_basis():
    # the left weight idempotent keeps exactly the matching row content,
    # exhaustively at n = 2 and on the content witness at n = 3
    for n in (2, 3):
        amb = Ambient(ZZ1, n, 2)
        lams = {lam: weight_idempotent(amb, lam) for lam in compositions(n, 2)}
        for T in amb.basis():
            x = amb.scaled_element(T)
            wr = tuple(sum(c[1] == i for c in T) for i in range(1, n + 1))
            ws = tuple(sum(c[2] == i for c in T) for i in range(1, n + 1))
            assert multiply(lams[wr], x) == x
            assert multiply(x, lams[ws]) == x
            if n == 2:
                for lam, e in lams.items():
                    if lam != wr:
                        assert not multiply(e, x)
                    if lam != ws:
                        assert not multiply(x, e)


def test_window_idempotent_action():
    # the window keeps exactly the triples whose row (resp. col) content
    # stays inside the window
    amb = Ambient(ZZ1, 3, 2)
    w = window_idempotent(amb, 2)
    for T in amb.basis()[::7]:
        x = amb.scaled_element(T)
        keep_r = all(c[1] <= 2 for c in T)
        keep_s = all(c[2] <= 2 for c in T)
        assert multiply(w, x) == (x if keep_r else amb.zero())
        assert multiply(x, w) == (x if keep_s else amb.zero())


def test_multi_idempotents_decompose_identity():
    amb = Ambient(ZZ1, 2, 2)
    fam = corner_family(ZZ1, ZZ1.unit)
    total = amb.zero()
    seen = 0
    for lams in multi_compositions(len(fam), 2, 2):
        e = multi_idempotent(amb, lams, fam)
        total = total + e
        if e:
            seen += 1
            assert multiply(e, e) == e
    assert total == identity(amb)
    assert seen > 1


_E0, _C0 = idx(ZZ1, "e0"), idx(ZZ1, "c0")
_M2, _M11 = M2E.index, M11.index


@pytest.mark.parametrize("pres, n, d, lams, family, match", [
    # the cycle c0 squares to 0
    (ZZ1, 2, 2, ((1, 0), (0, 1)), [{_E0: 1}, {_C0: 1}], "idempotent"),
    (ZZ1, 2, 2, ((1, 0), (1, 0)), [{_E0: 1}, {_E0: 1}], "orthogonal"),
    (M2E, 2, 2, ((1, 0), (0, 1)),
     [{_M2["E1_1"]: 1}, {_M2["E1_1"]: 1, _M2["E1_2"]: 1}], "orthogonal"),
    # an idempotent with an odd letter
    (M11, 1, 1, ((1,),), [{_M11["E1_1"]: 1, _M11["E1_2"]: 1}], "even"),
    (ZZ1, 2, 2, ((3, -1),), [ZZ1.unit], ">= 0"),
], ids=["square-zero", "equal", "overlapping", "odd", "negative-part"])
def test_multi_idempotent_rejects_a_bad_family(pres, n, d, lams, family,
                                               match):
    with pytest.raises(ValueError, match=match):
        multi_idempotent(Ambient(pres, n, d), lams, family)


def test_permutation_elements_compose():
    amb = Ambient(ZZ1, 2, 2)
    fam = corner_family(ZZ1, ZZ1.unit)
    perms = [(1, 2), (2, 1)]
    for s0 in perms:
        for s1 in perms:
            for t0 in perms:
                for t1 in perms:
                    xs = permutation_element(amb, [s0, s1], fam)
                    xt = permutation_element(amb, [t0, t1], fam)
                    comp = [tuple(s0[t0[r - 1] - 1] for r in (1, 2)),
                            tuple(s1[t1[r - 1] - 1] for r in (1, 2))]
                    assert multiply(xs, xt) == permutation_element(amb, comp, fam)


def test_permutation_conjugates_multi_idempotent():
    amb = Ambient(ZZ1, 2, 2)
    fam = corner_family(ZZ1, ZZ1.unit)
    swap = (2, 1)
    ident = (1, 2)
    for lams in multi_compositions(len(fam), 2, 2):
        e = multi_idempotent(amb, lams, fam)
        for sig in [(swap, ident), (swap, swap), (ident, swap)]:
            xs = permutation_element(amb, list(sig), fam)
            xsi = permutation_element(amb, [s for s in sig], fam)  # s = s^-1 here
            moved = tuple(
                tuple(lam[s[r - 1] - 1] for r in (1, 2))
                for lam, s in zip(lams, sig))
            got = multiply(multiply(xs, e), xsi)
            assert got == multi_idempotent(amb, moved, fam)


@pytest.mark.parametrize("name", ["zigzag:1", "ext-zigzag:1"])
def test_invariant_tensor_power_matches_the_tensor_route(name, monkeypatch):
    # every tensor power the element constructors take, and one of an
    # element with all even cells and assorted coefficients, equals its
    # elementary expansion, word by word, re-read by from_tensor
    direct = schur.invariant_tensor_power
    seen = []

    def checked(amb, entries, tag=ORBIT):
        got = direct(amb, entries, tag)
        words = {(): 1}
        for _ in range(amb.d):
            words = {w + (cell,): c * v for w, c in words.items()
                     for cell, v in entries.items()}
        want = from_tensor(TensorElement(amb, words), tag)
        assert (got.tag, got.coeffs) == (want.tag, want.coeffs)
        seen.append(tag)
        return got

    monkeypatch.setattr(schur, "invariant_tensor_power", checked)
    pres = builtin(name)
    fam = corner_family(pres, pres.unit)
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            amb = Ambient(pres, n, d)
            even = [c for c in cells(pres.dim, n) if not pres.parity[c[0]]]
            for tag in (SCALED, ORBIT):
                schur.invariant_tensor_power(
                    amb, {c: k % 5 - 2 for k, c in enumerate(even)}, tag)
                assert identity(amb, tag)
                idempotent_sum(amb, pres.element(pres.truncation), tag)
                for inner in range(1, n + 1):
                    window_idempotent(amb, inner, tag)
                for sigmas in itertools.product(
                        itertools.permutations(range(1, n + 1)),
                        repeat=len(fam)):
                    permutation_element(amb, sigmas, fam, tag)
    assert set(seen) == {SCALED, ORBIT}


def _expand_by_tensors(amb, letters, rows, cols, tag):
    """The orbit sum of a word of general letters by the tensor route:
    the signed sum over the distinct arrangements of the formal word (one
    formal letter per distinct coefficient vector), each expanded into
    elementary words and re-read by from_tensor."""
    vecs = [{b: c for b, c in vec.items() if c} for vec in letters]
    if not all(vecs):
        return amb.zero(tag)
    ids = {}
    formal = tuple((ids.setdefault(tuple(sorted(vec.items())), len(ids)), r, s)
                   for vec, r, s in zip(vecs, rows, cols))
    by_id = {i: dict(vec) for vec, i in ids.items()}
    odd_ids = {i for i, vec in by_id.items()
               if any(amb.pres.parity[b] for b in vec)}
    if not is_valid_triple(formal, odd_ids, amb.n):
        return amb.zero(tag)
    base = bracket(formal, odd_ids)
    words = {}
    for arr in arrangements(formal):
        partial = {(): -1 if (base + bracket(arr, odd_ids)) % 2 else 1}
        for fid, r, s in arr:
            partial = {w + ((b, r, s),): c * v for w, c in partial.items()
                       for b, v in by_id[fid].items()}
        for w, c in partial.items():
            words[w] = words.get(w, 0) + c
    return from_tensor(TensorElement(amb, words), tag)


def test_multi_idempotent_matches_the_tensor_route():
    # every multi idempotent of the corner families, and of an
    # even-matrix:2 family with overlapping supports, equals the tensor
    # route's element of its formal word: member i repeated |lam_i| times
    # on the diagonal word 1^lam_i[1] ... n^lam_i[n]
    m2 = M2E.index
    overlapping = [{m2["E1_1"]: 1, m2["E1_2"]: 1},
                   {m2["E2_2"]: 1, m2["E1_2"]: -1}]
    nonzero = 0
    for pres, fam in ((ZZ1, corner_family(ZZ1, ZZ1.unit)),
                      (ZZ2, corner_family(ZZ2, ZZ2.unit)),
                      (M2E, overlapping)):
        for n, d in ((1, 3), (2, 2), (2, 3), (3, 2)):
            amb = Ambient(pres, n, d)
            for lams in multi_compositions(len(fam), n, d):
                letters, word = zip(*[
                    (f, r) for lam, f in zip(lams, fam)
                    for r, m in enumerate(lam, start=1) for _ in range(m)])
                for tag in (SCALED, ORBIT):
                    got = multi_idempotent(amb, lams, fam, tag)
                    want = _expand_by_tensors(amb, letters, word, word, tag)
                    assert (got.tag, got.coeffs) == (want.tag, want.coeffs), \
                        (pres.name, n, d, lams, tag)
                    nonzero += bool(got)
    assert nonzero


# ---------------------------------------------------------------------------
# involution

def test_involution_is_plain_anti_involution():
    rng = random.Random(23)
    for pres in (ZZ1, ZZ2, M11):
        amb = Ambient(pres, 2, 2)
        B = amb.basis()
        for _ in range(150):
            a = amb.scaled_element(rng.choice(B))
            b = amb.scaled_element(rng.choice(B))
            assert apply_involution(apply_involution(a)) == a
            assert apply_involution(multiply(a, b)) == \
                multiply(apply_involution(b), apply_involution(a))


def test_involution_fixes_weight_idempotents():
    amb = Ambient(ZZ1, 2, 2)
    for lam in compositions(2, 2):
        e = weight_idempotent(amb, lam)
        assert apply_involution(e) == e


def test_involution_swaps_arrows():
    amb = Ambient(ZZ1, 2, 1)
    a10, a01 = idx(ZZ1, "a1_0"), idx(ZZ1, "a0_1")
    got = apply_involution(amb.scaled_element(((a10, 1, 2),)))
    assert got == amb.scaled_element(((a01, 2, 1),))


# ---------------------------------------------------------------------------
# truncation

def test_corner_basis_counts_match_zigzag():
    for ell in (1, 2):
        for n, d in [(1, 1), (2, 1), (2, 2)]:
            z = make_extended_zigzag(ell)
            amb = Ambient(z, n, d)
            e = {z.index[f"e{i}"]: 1 for i in range(ell)}
            keep = [z.index[lab] for lab in z.labels
                    if z.mult(e, z.mult({z.index[lab]: 1}, e)) == {z.index[lab]: 1}]
            corner = [T for T in amb.basis() if all(c[0] in keep for c in T)]
            zz_amb = Ambient(make_zigzag(ell), n, d)
            assert len(corner) == len(zz_amb.basis())


def test_corner_projection_via_idempotent():
    # sandwiching by the idempotent sum keeps exactly the basis elements
    # whose letters all survive the corner projection
    z = ZZ2
    amb = Ambient(z, 2, 2)
    e = {z.index["e0"]: 1, z.index["e1"]: 1}
    xi_e = idempotent_sum(amb, e)
    keep = {lb for lb in range(z.dim)
            if z.mult(e, z.mult({lb: 1}, e)) == {lb: 1}}
    for T in amb.basis()[::5]:
        x = amb.scaled_element(T)
        sandwich = multiply(multiply(xi_e, x), xi_e)
        if all(c[0] in keep for c in T):
            assert sandwich == x
        else:
            assert not sandwich


# ---------------------------------------------------------------------------
# text form

def test_parse_and_format_round_trip():
    amb = Ambient(ZZ1, 2, 2)
    for T in list(amb.basis())[::11]:
        text = format_triple(amb, T)
        assert parse_triple(amb, text) == T


def test_parse_errors():
    amb = Ambient(ZZ1, 2, 2)
    for bad in ["e0|1|1", "e0,zz|1,1|1,1", "e0,e0|1,x|1,1", "e0,e0|1,1|1,9",
                "e0|1,1|1,1", "no-bars"]:
        with pytest.raises(ValueError):
            parse_triple(amb, bad)


def test_format_element_ordering():
    amb = Ambient(ZZ1, 1, 1)
    e0, c0 = idx(ZZ1, "e0"), idx(ZZ1, "c0")
    x = amb.scaled_element(((c0, 1, 1),)) + amb.scaled_element(((e0, 1, 1),)).scale(-2)
    assert format_element(x) == "2*[e0|1|1] + [c0|1|1]" or \
        format_element(x) == "- 2*[e0|1|1] + [c0|1|1]"


# ---------------------------------------------------------------------------
# window equivalence support and edge degrees

def test_window_conjugation_spans_all_weights():
    # every weight idempotent lies in the two-sided span of the window:
    # conjugating by a permutation element moves its support into the
    # window, exactly over the integers
    from genschur.schur import window_idempotent, permutation_element
    from genschur.combinatorics import compositions
    for n, N, d in [(1, 2, 1), (2, 3, 2), (2, 2, 2), (1, 3, 1)]:
        if d > n:
            continue
        amb = Ambient(ZZ1, N, d)
        fam = [dict(ZZ1.unit)]
        w = window_idempotent(amb, n)
        for lam in compositions(N, d):
            e_lam = weight_idempotent(amb, lam)
            # find a permutation pushing the support into the window
            support = [i for i, v in enumerate(lam) if v]
            assert len(support) <= d <= n
            rest = [i for i in range(N) if i not in support]
            images = support + rest
            sigma = [0] * N
            for pos, src in enumerate(images):
                sigma[src] = pos + 1
            sigma = tuple(sigma)
            inv = tuple(images[r] + 1 for r in range(N))
            moved = tuple(lam[images[r]] for r in range(N))
            assert all(v == 0 for v in moved[n:])
            xs = permutation_element(amb, [sigma], fam)
            xsi = permutation_element(amb, [inv], fam)
            e_moved = weight_idempotent(amb, moved)
            # conjugation identity and window absorption
            assert multiply(multiply(xs, e_lam), xsi) == e_moved
            assert multiply(e_moved, w) == e_moved
            # hence e_lam = xsi * (e_moved * w) * xs lies in T w T
            back = multiply(multiply(xsi, multiply(e_moved, w)), xs)
            assert back == e_lam


def test_window_two_sided_span_small():
    # direct lattice-span check at the smallest window: T * w * T fills the
    # whole lattice over the integers
    from genschur.schur import window_idempotent
    from genschur.exactlin import add_row_to_lattice, lattice_rows, smith_normal_form
    amb = Ambient(ZZ1, 2, 1)
    w = window_idempotent(amb, 1)
    basis = amb.basis()
    index = {T: i for i, T in enumerate(basis)}
    lattice = {}
    for T in basis:
        for U in basis:
            prod = multiply(multiply(amb.scaled_element(T), w),
                            amb.scaled_element(U))
            add_row_to_lattice(lattice,
                               {index[K]: c for K, c in prod.coeffs.items()})
    divisors, rank = smith_normal_form(lattice_rows(lattice))
    assert rank == len(basis) and all(v == 1 for v in divisors)


def test_degree_zero_ambient():
    amb = Ambient(ZZ1, 2, 0)
    assert amb.basis() == ((),)
    one = identity(amb)
    assert one.coeffs == {(): 1}
    assert multiply(one, one) == one
    assert multiply_oracle(one, one) == one
