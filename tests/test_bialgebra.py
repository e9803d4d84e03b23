import gc
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from genschur.superalgebra import (
    bilinear, make_extended_zigzag, make_matrix_superalgebra, corner_family,
)
from genschur import bialgebra
from genschur.cli import load_algebra, main
from genschur.exactlin import add_row_to_lattice, lattice_rows, smith_normal_form
from genschur.bialgebra import (
    star, coproduct, check_coassociative, check_exchange_identity,
    generation_closure, closure_generators, GenerationReport,
)
from genschur.schur import (
    Ambient, ORBIT, multiply, multiply_oracle, identity,
    multi_idempotent, idempotent_sum,
)
from test_combinatorics import multi_compositions
from test_dcp import _random_cases, _settings

ZZ1 = make_extended_zigzag(1)
M11 = make_matrix_superalgebra(1, 1)


def idx(pres, lab):
    return pres.index[lab]


def elements(amb, rng, count, parity=None):
    B = amb.basis()
    out = []
    while len(out) < count:
        T = rng.choice(B)
        x = amb.scaled_element(T, rng.choice([1, -1, 2]))
        if parity is None or x.parity() == parity:
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# the graded family

def test_graded_family_is_one_object_per_degree():
    e0, c0 = idx(ZZ1, "e0"), idx(ZZ1, "c0")
    amb = Ambient(ZZ1, 2, 2)
    x = amb.graded(1).scaled_element(((e0, 1, 1),))
    y = amb.graded(1).scaled_element(((c0, 1, 2),))
    # a star of degree-one elements lands in the run's own ambient
    assert star(x, y) and star(x, y).amb is amb
    members = [amb.graded(k) for k in range(5)]
    assert members[2] is amb
    for member in members:
        assert all(member.graded(k) is members[k] for k in range(5))
    # the family is a reference cycle: it lives exactly as long as amb
    probe = weakref.ref(amb.graded(1))
    del amb, x, y, members, member
    gc.collect()
    assert probe() is None


# ---------------------------------------------------------------------------
# star product

def test_star_even_doubling():
    amb1 = Ambient(ZZ1, 2, 1)
    e0 = idx(ZZ1, "e0")
    x = amb1.orbit_element(((e0, 1, 1),))
    st = star(x, x)
    assert st.coeffs == {((e0, 1, 1), (e0, 1, 1)): 2}
    # in the scaled basis the 'a'-sector multinomial appears as well
    xs = amb1.scaled_element(((e0, 1, 1),))
    assert star(xs, xs).coeffs == {((e0, 1, 1), (e0, 1, 1)): 2}


def test_star_odd_square_vanishes():
    amb1 = Ambient(ZZ1, 2, 1)
    a10 = idx(ZZ1, "a1_0")
    x = amb1.orbit_element(((a10, 1, 1),))
    assert not star(x, x)


def test_star_supercommutative():
    rng = random.Random(31)
    amb1 = Ambient(ZZ1, 2, 1)
    amb2 = Ambient(ZZ1, 2, 2)
    for _ in range(100):
        x = elements(rng.choice([amb1, amb2]), rng, 1)[0]
        y = elements(rng.choice([amb1, amb2]), rng, 1)[0]
        s = (-1) ** (x.parity() * y.parity())
        assert star(x, y) == star(y, x).scale(s)


def test_star_associative():
    rng = random.Random(37)
    amb1 = Ambient(ZZ1, 2, 1)
    for _ in range(50):
        x, y, z = elements(amb1, rng, 3)
        assert star(star(x, y), z) == star(x, star(y, z))


def test_star_scaled_integrality():
    rng = random.Random(41)
    amb = Ambient(ZZ1, 2, 2)
    for _ in range(100):
        x, y = elements(amb, rng, 2)
        st = star(x, y)
        assert all(not isinstance(v, Fraction) for v in st.coeffs.values())


def test_separated_factorization():
    # a triple whose cells split into two groups sharing no cell factors
    # as the star of the groups (both scalings)
    amb = Ambient(ZZ1, 2, 2)
    e0, c0 = idx(ZZ1, "e0"), idx(ZZ1, "c0")
    amb1 = Ambient(ZZ1, 2, 1)
    whole = amb.scaled_element(((e0, 1, 1), (c0, 2, 2)))
    f1 = amb1.scaled_element(((e0, 1, 1),))
    f2 = amb1.scaled_element(((c0, 2, 2),))
    assert star(f1, f2) == whole
    whole_o = amb.orbit_element(((e0, 1, 1), (c0, 2, 2)))
    assert star(f1.with_tag(ORBIT), f2.with_tag(ORBIT)) == whole_o


# ---------------------------------------------------------------------------
# coproduct

def test_coproduct_degree_one():
    amb1 = Ambient(ZZ1, 2, 1)
    e0 = idx(ZZ1, "e0")
    x = amb1.scaled_element(((e0, 1, 2),))
    sp = coproduct(x)
    key_l = (((e0, 1, 2),), ())
    key_r = ((), ((e0, 1, 2),))
    assert sp == {key_l: 1, key_r: 1}


def test_coproduct_counts_scaled_multiplicity():
    amb = Ambient(ZZ1, 1, 2)
    c0 = idx(ZZ1, "c0")
    T = ((c0, 1, 1), (c0, 1, 1))
    sp = coproduct(amb.scaled_element(T))
    one = ((c0, 1, 1),)
    # middle splits carry the ratio 2!/1!1! = 2
    assert sp[(one, one)] == 2
    assert sp[(T, ())] == 1


def test_coassociativity_on_basis():
    amb = Ambient(ZZ1, 2, 2)
    for T in amb.basis():
        assert check_coassociative(amb.scaled_element(T))


def test_coproduct_of_multi_idempotent():
    # the coproduct of a multi-composition idempotent is the sum over the
    # splittings of the compositions
    amb = Ambient(ZZ1, 2, 2)
    fam = corner_family(ZZ1, ZZ1.unit)
    for lams in multi_compositions(len(fam), 2, 2):
        e = multi_idempotent(amb, lams, fam)
        if not e:
            continue
        got = coproduct(e)
        expected = {}
        for mus in itertools.product(*(
                [_pairs_splitting(lam) for lam in lams])):
            mu = tuple(m for m, _ in mus)
            nu = tuple(n for _, n in mus)
            e1 = multi_idempotent(amb.graded(sum(sum(l) for l in mu)),
                                  mu, fam) if True else None
            e2 = multi_idempotent(amb.graded(sum(sum(l) for l in nu)),
                                  nu, fam)
            for k1, c1 in e1.coeffs.items():
                for k2, c2 in e2.coeffs.items():
                    key = (k1, k2)
                    expected[key] = expected.get(key, 0) + c1 * c2
        expected = {k: v for k, v in expected.items() if v}
        assert got == expected


def _pairs_splitting(lam):
    """All (mu, nu) with mu + nu = lam componentwise."""
    out = []
    ranges = [range(v + 1) for v in lam]
    for choice in itertools.product(*ranges):
        mu = tuple(choice)
        nu = tuple(l - m for l, m in zip(lam, mu))
        out.append((mu, nu))
    return out


def test_coproduct_into_one_part_is_identity():
    amb = Ambient(ZZ1, 2, 2)
    rng = random.Random(43)
    for _ in range(20):
        x = elements(amb, rng, 1)[0]
        assert coproduct(x, 1) == {(T,): c for T, c in x.coeffs.items()}


def test_coproduct_of_window_in_degrees_one_one():
    # the degree-(1, 1) part of the window idempotent's coproduct is the
    # product of degree-one windows
    from genschur.schur import window_idempotent
    amb = Ambient(ZZ1, 3, 2)
    w = window_idempotent(amb, 2)
    sp = {k: v for k, v in coproduct(w, 2).items()
          if tuple(len(t) for t in k) == (1, 1)}
    amb1 = amb.graded(1)
    w1 = window_idempotent(amb1, 2)
    expected = {}
    for k1, c1 in w1.coeffs.items():
        for k2, c2 in w1.coeffs.items():
            expected[(k1, k2)] = c1 * c2
    assert sp == expected


# ---------------------------------------------------------------------------
# exchange identity

def test_exchange_identity_even_inputs():
    rng = random.Random(47)
    amb1 = Ambient(ZZ1, 2, 1)
    for _ in range(20):
        x, y, z, u = elements(amb1, rng, 4, parity=0)
        assert check_exchange_identity(x, y, z, u)


def test_exchange_identity_with_unit_factors():
    rng = random.Random(53)
    amb1 = Ambient(ZZ1, 2, 1)
    one = identity(amb1)
    for _ in range(10):
        x, y = elements(amb1, rng, 2)
        assert check_exchange_identity(x, y, one, one)


def test_exchange_identity_random():
    rng = random.Random(59)
    amb = Ambient(ZZ1, 2, 2)
    checked = 0
    while checked < 50:
        degs = [rng.choice([1, 2]) for _ in range(2)]
        total = sum(degs)
        d3 = rng.randint(max(0, total - 2), min(2, total))
        d4 = total - d3
        def pick(d):
            a = amb.graded(d)
            return elements(a, rng, 1)[0] if d else identity(a)
        x, y = pick(degs[0]), pick(degs[1])
        z, u = pick(d3), pick(d4)
        assert check_exchange_identity(x, y, z, u)
        checked += 1


def test_checks_catch_a_corrupted_split_rule(monkeypatch):
    # negate the coset sign of every two-part split with both parts
    # nonempty: coassociativity then fails on a degree-2 basis element, and
    # the exchange identity on one quadruple of acceptance criterion 4
    # (ext-zigzag:1, n = 2, seed 20240517, quadruple 12)
    e0, e1 = idx(ZZ1, "e0"), idx(ZZ1, "e1")
    c0, a01 = idx(ZZ1, "c0"), idx(ZZ1, "a0_1")
    amb = Ambient(ZZ1, 2, 2)
    amb1 = amb.graded(1)
    x = amb1.scaled_element(((a01, 1, 1),), -1)
    y = amb1.scaled_element(((e0, 2, 1),))
    z = amb.scaled_element(((e1, 1, 2), (c0, 1, 2)), -1)
    u = identity(amb.graded(0))
    square = amb.scaled_element(((e0, 1, 1), (e0, 1, 1)))
    assert check_exchange_identity(x, y, z, u)
    assert check_coassociative(square)

    true_splits = bialgebra.splits

    def flipped(triple, parts, odd, sectors):
        for triples, sign, ratio in true_splits(triple, parts, odd, sectors):
            if parts == 2 and all(triples):
                sign = -sign
            yield triples, sign, ratio

    monkeypatch.setattr(bialgebra, "splits", flipped)
    assert not check_exchange_identity(x, y, z, u)
    assert not check_coassociative(square)


# ---------------------------------------------------------------------------
# generation

def test_generation_closure_degree_one():
    amb = Ambient(ZZ1, 2, 1)
    rep = generation_closure(amb)
    assert rep.reached_full
    assert rep.rank == len(amb.basis())


def test_generation_closure_2_2():
    amb = Ambient(ZZ1, 2, 2)
    rep = generation_closure(amb)
    assert rep.reached_full
    # the reference reads reached_full from the Smith form
    assert rep == _reference_closure(amb)


def _reference_closure(amb, max_rounds=30):
    """generation_closure as a sweep: every lattice row times every
    generator, on both sides, until a sweep adds nothing.

    reached_full is read from the Smith form (full rank and every
    elementary divisor 1), so a report equal to this one says the
    divisors are all 1 exactly when the closure reports reached_full."""
    basis = amb.basis()
    index = {T: i for i, T in enumerate(basis)}
    nb = len(basis)
    gens = bialgebra.closure_generators(amb)
    lattice = {}
    for g in gens:
        add_row_to_lattice(lattice, {index[T]: int(c) for T, c in g.items()})
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        for row in lattice_rows(lattice):
            elem = {basis[j]: v for j, v in row.items()}
            for g in gens:
                for prod in (bilinear(amb.scaled_constants, elem, g),
                             bilinear(amb.scaled_constants, g, elem)):
                    vec = {index[T]: int(c) for T, c in prod.items()}
                    if add_row_to_lattice(lattice, vec):
                        changed = True
    divisors, rank = smith_normal_form(lattice_rows(lattice))
    return GenerationReport(rank == nb and all(v == 1 for v in divisors),
                            rank, nb, rounds, len(gens))


@pytest.mark.parametrize("name, n, d", [
    ("zigzag:1", 2, 2), ("ext-zigzag:1", 1, 2), ("ext-zigzag:1", 2, 2),
    ("zigzag:2", 1, 3), ("trivext:zigzag:1", 1, 2), ("even-matrix:2", 2, 2),
])
def test_generation_closure_matches_the_sweep(name, n, d, monkeypatch):
    _check_against_the_sweep(Ambient(load_algebra(name), n, d), monkeypatch)


def _check_against_the_sweep(amb, monkeypatch):
    want = _reference_closure(amb)
    rows = []
    real_add = bialgebra.add_row_to_lattice

    def add(lattice, row):
        rows.append(row)
        return real_add(lattice, row)

    with monkeypatch.context() as m:
        m.setattr(bialgebra, "add_row_to_lattice", add)
        assert generation_closure(amb) == want, amb
    assert all(rows)  # only nonzero products reach the lattice


def test_generation_closure_matches_the_sweep_on_random_presentations(
        monkeypatch):
    # the presentations and incidence superalgebras of the DCP properties
    # that have a unit inside sector 'a'
    hypothesis = pytest.importorskip("hypothesis")

    @_settings(hypothesis, 40)
    @hypothesis.given(_random_cases(hypothesis, (1, 2), orders=True))
    def agree(case):
        pres, _, n, d, _ = case
        hypothesis.assume(pres.unital_good_pair())
        _check_against_the_sweep(Ambient(pres, n, d), monkeypatch)

    agree()


def test_generation_closure_round_cap_matches_the_sweep():
    # zigzag:2 at n=1, d=3 needs 3 rounds, so the cap cuts it short
    amb = Ambient(load_algebra("zigzag:2"), 1, 3)
    for max_rounds in (0, 1, 2, 3):
        got = generation_closure(amb, max_rounds=max_rounds)
        assert got == _reference_closure(amb, max_rounds=max_rounds)
        assert got.rounds == max_rounds


def test_generation_closure_of_full_rank_and_index_two(monkeypatch):
    # doubled generators span a sublattice of full rank but index > 1:
    # the pivots, not the rank, decide reached_full
    real = bialgebra.closure_generators
    monkeypatch.setattr(bialgebra, "closure_generators", lambda amb: [
        {T: 2 * c for T, c in g.items()} for g in real(amb)])
    amb = Ambient(ZZ1, 2, 2)
    rep = generation_closure(amb)
    assert rep.rank == rep.full_rank and not rep.reached_full
    assert rep == _reference_closure(amb)


def test_generation_check_fails_without_the_spread_generators(
        monkeypatch, capsys):
    # with star returning 0 only the sector-'a' part generates, which
    # spans a proper sublattice
    monkeypatch.setattr(bialgebra, "star", lambda x, y: x.amb.graded(
        x.amb.d + y.amb.d).zero())
    amb = Ambient(ZZ1, 2, 2)
    rep = generation_closure(amb)
    assert not rep.reached_full
    assert rep.generator_count == len(closure_generators(amb))
    code = main(["verify", "--algebra", "ext-zigzag:1", "-n", "2", "-d", "2",
                 "--format", "json", "generation"])
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert (check["id"], check["status"]) == ("generation/closure", "fail")


def test_degreewise_star_spans():
    # the graded pieces: sector-'a' part of degree d-e starred with e
    # degree-one generators span the whole lattice
    amb = Ambient(ZZ1, 2, 2)
    basis = amb.basis()
    index = {T: i for i, T in enumerate(basis)}
    sectors = ZZ1.sectors
    y_cells = [(lb, r, s) for lb in range(ZZ1.dim) if sectors[lb] != 'a'
               for r in (1, 2) for s in (1, 2)]
    lattice = {}
    count = 0
    for e in (0, 1, 2):
        amb_a = amb.graded(2 - e)
        a_part = [T for T in amb_a.basis()
                  if all(sectors[c[0]] == 'a' for c in T)]
        for T in a_part if (2 - e) else [()]:
            base = amb_a.scaled_element(T) if (2 - e) else \
                amb.graded(0).scaled_element(())
            for cells in itertools.product(y_cells, repeat=e):
                elt = base
                for cell in cells:
                    elt = star(elt, amb.graded(1).scaled_element((cell,)))
                if not elt:
                    continue
                add_row_to_lattice(lattice,
                                   {index[K]: c for K, c in elt.coeffs.items()})
                count += 1
    divisors, rank = smith_normal_form(lattice_rows(lattice))
    assert rank == len(basis) and all(d == 1 for d in divisors)


# ---------------------------------------------------------------------------
# zigzag product identities (degree 2, two columns)

def _eta(amb, cells):
    return amb.scaled_element(tuple(cells))


def test_two_column_cycle_identity():
    # product of an up-arrow power against a down-arrow power: signed sum
    # over column permutations of cycle powers
    z = ZZ1
    amb = Ambient(z, 2, 2)
    a01, a10, c0 = (idx(z, l) for l in ("a0_1", "a1_0", "c0"))
    for t in (1, 2):
        lhs = multiply_oracle(
            _eta(amb, [(a01, 1, t), (a01, 2, t)]),
            _eta(amb, [(a10, t, 1), (a10, t, 2)]))
        plus = _eta(amb, [(c0, 1, 1), (c0, 2, 2)])
        minus = _eta(amb, [(c0, 2, 1), (c0, 1, 2)])
        rhs = plus - minus
        assert lhs == rhs or lhs == rhs.scale(-1)
        # two distinct canonical keys with opposite signs
        assert len(lhs.coeffs) == 2
        assert sorted(lhs.coeffs.values()) == [-1, 1]


def test_two_column_last_vertex_identity():
    # product of the last-vertex idempotent power against the down-arrow
    # power: plain sum over coset representatives of the row stabilizer
    z = ZZ1
    amb = Ambient(z, 2, 2)
    e1, a10 = idx(z, "e1"), idx(z, "a1_0")
    for t in (1, 2):
        for u in [(1, 1), (1, 2)]:
            lhs = multiply_oracle(
                _eta(amb, [(e1, u[0], t), (e1, u[1], t)]),
                _eta(amb, [(a10, t, 1), (a10, t, 2)]))
            terms = {(u[0], u[1])} if u[0] == u[1] else {(u[0], u[1]), (u[1], u[0])}
            rhs = amb.zero()
            for w in sorted(terms):
                rhs = rhs + _eta(amb, [(a10, w[0], 1), (a10, w[1], 2)])
            assert lhs == rhs


def test_leading_tuple_identities():
    # same identities with a repeated middle column: the signed sum runs
    # over the stabilizer of the leading tuple
    z = ZZ1
    amb = Ambient(z, 2, 2)
    a01, a10, c0, e1 = (idx(z, l) for l in ("a0_1", "a1_0", "c0", "e1"))
    # lam = (2, 0): leading word (1, 1); rows of the left factor distinct
    lhs = multiply_oracle(
        _eta(amb, [(a01, 1, 1), (a01, 2, 1)]),
        _eta(amb, [(a10, 1, 1), (a10, 1, 2)]))
    rhs = (_eta(amb, [(c0, 1, 1), (c0, 2, 2)])
           - _eta(amb, [(c0, 2, 1), (c0, 1, 2)]))
    assert lhs == rhs or lhs == rhs.scale(-1)
    assert sorted(lhs.coeffs.values()) == [-1, 1]
    # lam = (1, 1): trivial stabilizer, a single signed term
    lhs = multiply_oracle(
        _eta(amb, [(a01, 1, 1), (a01, 2, 2)]),
        _eta(amb, [(a10, 1, 2), (a10, 2, 1)]))
    assert len(lhs.coeffs) == 1
    assert sorted(abs(v) for v in lhs.coeffs.values()) == [1]
    # idempotent version at lam = (2, 0)
    lhs = multiply_oracle(
        _eta(amb, [(e1, 1, 1), (e1, 2, 1)]),
        _eta(amb, [(a10, 1, 1), (a10, 1, 2)]))
    rhs = (_eta(amb, [(a10, 1, 1), (a10, 2, 2)])
           + _eta(amb, [(a10, 2, 1), (a10, 1, 2)]))
    assert lhs == rhs


def test_mixed_product_block_identity():
    # the two-block element (up-arrow star last-idempotent) against the
    # down-arrow power splits into cycle and arrow factors
    z = ZZ1
    amb1 = Ambient(z, 2, 1)
    a01, a10, c0, e1 = (idx(z, l) for l in ("a0_1", "a1_0", "c0", "e1"))
    up = _eta(amb1, [(a01, 1, 1)])
    last = _eta(amb1, [(e1, 2, 2)])
    lhs_factor = star(up, last)      # degree 2, columns (1, 2)
    down = _eta(Ambient(z, 2, 2), [(a10, 1, 1), (a10, 2, 2)])
    lhs = multiply_oracle(lhs_factor, down)
    rhs = star(_eta(amb1, [(c0, 1, 1)]), _eta(amb1, [(a10, 2, 2)]))
    assert lhs == rhs or lhs == rhs.scale(-1)
    assert len(lhs.coeffs) == 1


def test_mixed_block_orthogonality():
    # two-sided idempotent sandwich: the mixed element is killed by the
    # wrong window split
    z = ZZ1
    amb = Ambient(z, 2, 2)
    amb1 = Ambient(z, 2, 1)
    a01, e1, e0 = idx(z, "a0_1"), idx(z, "e1"), idx(z, "e0")
    mixed = star(_eta(amb1, [(a01, 1, 1)]), _eta(amb1, [(e1, 2, 2)]))
    # left block count: kappa_2 + kappa_3 = 1 here; the (2, 0) split kills it
    e_unit = {z.index["e0"]: 1, z.index["e1"]: 1}
    sp20 = star(idempotent_sum(amb1, {z.index["e1"]: 1}),
                idempotent_sum(amb1, {z.index["e1"]: 1}))
    sp11 = star(idempotent_sum(amb1, {z.index["e1"]: 1}),
                idempotent_sum(amb1, e_unit))
    assert not multiply(sp20, mixed)
    assert multiply(sp11, mixed) == mixed


def test_identity_terms_linearly_independent():
    # the right-hand sides above consist of distinct canonical keys, hence
    # linearly independent basis elements
    z = ZZ1
    amb = Ambient(z, 2, 2)
    c0, a10 = idx(z, "c0"), idx(z, "a1_0")
    keys = [(((c0, 1, 1), (c0, 2, 2))), (((c0, 1, 2), (c0, 2, 1)))]
    elems = [amb.scaled_element(k) for k in keys]
    assert len({tuple(sorted(e.coeffs)) for e in elems}) == 2
    combo = elems[0] + elems[1].scale(-1)
    assert len(combo.coeffs) == 2


def test_separated_star_factorization_random():
    # triples whose cells fall into disjoint groups factor as star
    # products of the groups, in both scalings
    rng = random.Random(71)
    amb = Ambient(ZZ1, 2, 2)
    amb1 = amb.graded(1)
    for T in amb.basis():
        if T[0] == T[1]:
            continue  # shared cells are not separated
        whole_s = amb.scaled_element(T)
        f1 = amb1.scaled_element((T[0],))
        f2 = amb1.scaled_element((T[1],))
        assert star(f1, f2) == whole_s or star(f1, f2) == whole_s.scale(-1)
        whole_o = amb.orbit_element(T)
        st = star(f1.with_tag(ORBIT), f2.with_tag(ORBIT))
        assert st == whole_o or st == whole_o.scale(-1)
