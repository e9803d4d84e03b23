"""Acceptance suite: one test per criterion, all arithmetic exact.

Every assertion is an exact integer/rational identity (tolerance 0).  Each
test prints one PASS line on success; run with `pytest tests/test_acceptance.py -v -s`
to see them.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from genschur.superalgebra import (
    Presentation, make_extended_zigzag, make_zigzag,
    make_matrix_superalgebra, make_even_matrix,
)
from genschur import bialgebra, forms, dcp
from genschur.combinatorics import (
    bracket, pair_bracket, perm_bracket, apply_perm, is_valid_triple,
    factorial_weights, enumerate_canonical,
)
from genschur.schur import (
    Ambient, SCALED, ORBIT, multiply, multiply_oracle, to_tensor,
    from_tensor, tensor_multiply, identity, idempotent_sum,
)
from genschur.bialgebra import (
    star, check_coassociative, check_exchange_identity, generation_closure,
)
from genschur.exactlin import add_row_to_lattice, lattice_rows, smith_normal_form

SEED = 20240517


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def criterion(num, summary):
    """Print an explicit FAIL line when a criterion's assertions fail."""
    import functools

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {summary}")
                raise
        return run
    return wrap


def oracle_instances():
    for ell in (1, 2):
        z = make_extended_zigzag(ell)
        for n, d in [(1, 1), (2, 1), (2, 2)]:
            yield z, n, d
    yield make_matrix_superalgebra(1, 1), 2, 2


def _full_grid(pres, n, d):
    """fast == oracle on every ordered basis pair; returns stats for the
    integrality criterion as well."""
    amb = Ambient(pres, n, d)
    basis = amb.basis()
    elems = [amb.scaled_element(T) for T in basis]
    tensors = [to_tensor(e) for e in elems]
    non_integral = 0
    witness = None
    for i, x in enumerate(elems):
        ti = tensors[i]
        for j, y in enumerate(elems):
            fast = multiply(x, y)
            oracle = from_tensor(tensor_multiply(ti, tensors[j]), SCALED)
            assert fast == oracle, (basis[i], basis[j])
            if any(isinstance(v, Fraction) for v in fast.coeffs.values()):
                non_integral += 1
            if witness is None and fast and \
                    amb.scale_of(basis[i]) * amb.scale_of(basis[j]) > 1:
                witness = (i, j)
    return amb, basis, non_integral, witness


GRIDS = {}


@pytest.fixture(scope="module")
def grids():
    if not GRIDS:
        for pres, n, d in oracle_instances():
            GRIDS[(pres.name, n, d)] = _full_grid(pres, n, d)
    return GRIDS


@criterion(1, "fast product vs tensor oracle on full basis grids")
def test_criterion_1_oracle_equivalence(grids):
    pairs = 0
    for key, (amb, basis, _, _) in grids.items():
        pairs += len(basis) ** 2
    report(1, f"fast product equals tensor oracle on {pairs} basis pairs "
              f"across {len(grids)} instances")


@criterion(2, "integrality of scaled products and rescaling witnesses")
def test_criterion_2_integrality(grids):
    total_witnesses = 0
    for (name, n, d), (amb, basis, non_integral, witness) in grids.items():
        assert non_integral == 0, (name, n, d)
        if d >= 2:
            assert witness is not None, (name, n, d)
            i, j = witness
            # the scaled product genuinely differs from the orbit product
            # by the scaling factors: the sublattice is proper
            T, U = basis[i], basis[j]
            f = amb.scale_of(T) * amb.scale_of(U)
            assert f > 1
            xi_prod = multiply(amb.orbit_element(T), amb.orbit_element(U))
            eta_prod = multiply(amb.scaled_element(T), amb.scaled_element(U))
            assert eta_prod.orbit_coeffs() == \
                {k: f * v for k, v in xi_prod.orbit_coeffs().items()}
            total_witnesses += 1
    report(2, f"all scaled-basis products integral; {total_witnesses} "
              f"nontrivial rescaling witnesses")


@criterion(3, "corner coefficients 4/2 and unsound truncation")
def test_criterion_3_counterexample():
    m2 = make_even_matrix(2)
    amb = Ambient(m2, 2, 2)
    E12, E21, E11 = (m2.index[l] for l in ("E1_2", "E2_1", "E1_1"))
    x = amb.scaled_element(((E12, 1, 1), (E12, 1, 1)))
    y_eq = amb.scaled_element(((E21, 1, 1), (E21, 1, 1)))
    y_ne = amb.scaled_element(((E21, 1, 1), (E21, 1, 2)))
    assert multiply(x, y_eq).coeffs == {((E11, 1, 1), (E11, 1, 1)): 4}
    assert multiply(x, y_ne).coeffs == {((E11, 1, 1), (E11, 1, 2)): 2}
    rep, _ = dcp.schur_dcp(amb, {E11: 1}, SCALED)
    assert rep.sound is False
    assert 2 in rep.divisors
    assert rep.dcp is False
    report(3, "corner products give 4 (equal columns) and 2 (distinct); "
              "truncation not sound, elementary divisor 2 present")


@criterion(4, "coassociativity and the exchange identity")
def test_criterion_4_superbialgebra():
    z = make_extended_zigzag(1)
    checked = 0
    for d in (1, 2):
        amb = Ambient(z, 2, d)
        for T in amb.basis():
            assert check_coassociative(amb.scaled_element(T))
            checked += 1
    rng = random.Random(SEED)
    amb = Ambient(z, 2, 2)
    quadruples = 0
    while quadruples < 50:
        degs = [rng.randint(1, 2) for _ in range(2)]
        total = sum(degs)
        d3 = rng.randint(max(0, total - 2), min(2, total))
        d4 = total - d3

        def pick(dd):
            a = amb.graded(dd)
            if dd == 0:
                return identity(a)
            return a.scaled_element(rng.choice(a.basis()), rng.choice([1, -1, 2]))

        assert check_exchange_identity(pick(degs[0]), pick(degs[1]),
                                       pick(d3), pick(d4))
        quadruples += 1
    report(4, f"coassociativity on {checked} basis elements; exchange "
              f"identity on {quadruples} seeded quadruples")


@criterion(5, "lattice generation closure")
def test_criterion_5_generation(monkeypatch):
    # the closure's own echelon basis, kept to take its Smith form here
    lattices = {}

    def add(lattice, row):
        lattices[id(lattice)] = lattice
        return add_row_to_lattice(lattice, row)

    monkeypatch.setattr(bialgebra, "add_row_to_lattice", add)
    z = make_extended_zigzag(1)
    amb = Ambient(z, 2, 2)
    rep = generation_closure(amb)
    assert rep.reached_full
    assert rep.rank == rep.full_rank == len(amb.basis())
    (lattice,) = lattices.values()
    divisors, rank = smith_normal_form(lattice_rows(lattice))
    assert rank == rep.rank
    assert all(d == 1 for d in divisors)
    report(5, f"closure reached the full lattice: rank {rep.rank}, "
              f"all divisors 1, {rep.rounds} rounds")


@criterion(6, "signed-permutation Gram matrices")
def test_criterion_6_symmetricity():
    count = 0
    for ell in (1, 2):
        zz = make_zigzag(ell)
        t = zz.form
        frep = forms.check_pair_symmetrizing(zz, t)
        assert frep.symmetrizing, frep.issues
        for n, d in [(1, 1), (2, 1), (2, 2)]:
            amb = Ambient(zz, n, d)
            gram = forms.gram_subalgebra_trace(amb, t, frep.dual_letter)
            assert gram.signed_permutation, (ell, n, d)
            assert gram.det_abs == 1
            assert gram.partner_ok, (ell, n, d)
            count += 1
    report(6, f"Gram of the subalgebra trace is a signed permutation "
              f"matching the dual-letter pairing in {count} instances")


@criterion(7, "double-centralizer verdicts")
def test_criterion_7_double_centralizer():
    for ell in (1, 2):
        z = make_extended_zigzag(ell)
        e = {z.index[f"e{i}"]: 1 for i in range(ell)}
        amb = Ambient(z, 2, 2)
        rep, _ = dcp.schur_dcp(amb, e, SCALED)
        assert rep.dcp_over_fractions and rep.sound and rep.dcp, (ell, rep)
        rep_q, _ = dcp.schur_dcp(amb, e, ORBIT)
        assert rep_q.dcp_over_fractions, (ell, rep_q)
    report(7, "truncation idempotent is a double-centralizer idempotent for "
              "the scaled lattice at degree 2, and rationally for the full "
              "invariant algebra")


@criterion(8, "two-column zigzag product identities")
def test_criterion_8_zigzag_identities():
    z = make_extended_zigzag(1)
    amb = Ambient(z, 2, 2)
    amb1 = Ambient(z, 2, 1)
    a01, a10, c0, e0, e1 = (z.index[l] for l in ("a0_1", "a1_0", "c0", "e0", "e1"))

    def eta(a, cells):
        return a.scaled_element(tuple(cells))

    # distinct-row/column products of arrow powers: signed sum over the
    # column permutations, term for term
    for t in (1, 2):
        lhs = multiply_oracle(eta(amb, [(a01, 1, t), (a01, 2, t)]),
                              eta(amb, [(a10, t, 1), (a10, t, 2)]))
        plus = eta(amb, [(c0, 1, 1), (c0, 2, 2)])
        minus = eta(amb, [(c0, 2, 1), (c0, 1, 2)])
        assert lhs == plus - minus or lhs == minus - plus
        lhs2 = multiply_oracle(eta(amb, [(e1, 1, t), (e1, 2, t)]),
                               eta(amb, [(a10, t, 1), (a10, t, 2)]))
        assert lhs2 == (eta(amb, [(a10, 1, 1), (a10, 2, 2)])
                        + eta(amb, [(a10, 2, 1), (a10, 1, 2)]))
    # leading-tuple versions: stabilizer of the repeated column
    lhs = multiply_oracle(eta(amb, [(a01, 1, 1), (a01, 2, 1)]),
                          eta(amb, [(a10, 1, 1), (a10, 1, 2)]))
    plus = eta(amb, [(c0, 1, 1), (c0, 2, 2)])
    minus = eta(amb, [(c0, 2, 1), (c0, 1, 2)])
    assert lhs == plus - minus or lhs == minus - plus
    lhs = multiply_oracle(eta(amb, [(e1, 1, 1), (e1, 2, 1)]),
                          eta(amb, [(a10, 1, 1), (a10, 1, 2)]))
    assert lhs == (eta(amb, [(a10, 1, 1), (a10, 2, 2)])
                   + eta(amb, [(a10, 2, 1), (a10, 1, 2)]))
    # mixed two-block element against the arrow power: one cycle-arrow term
    mixed = star(eta(amb1, [(a01, 1, 1)]), eta(amb1, [(e1, 2, 2)]))
    down = eta(amb, [(a10, 1, 1), (a10, 2, 2)])
    lhs = multiply_oracle(mixed, down)
    rhs = star(eta(amb1, [(c0, 1, 1)]), eta(amb1, [(a10, 2, 2)]))
    assert lhs == rhs or lhs == rhs.scale(-1)
    # block idempotent sandwich: wrong split kills the mixed element
    sp20 = star(idempotent_sum(amb1, {e1: 1}), idempotent_sum(amb1, {e1: 1}))
    sp11 = star(idempotent_sum(amb1, {e1: 1}),
                idempotent_sum(amb1, {e0: 1, e1: 1}))
    assert not multiply(sp20, mixed)
    assert multiply(sp11, mixed) == mixed
    # linear independence of the right-hand-side terms (both statements)
    assert len((plus + minus).coeffs) == 2
    two_terms = (eta(amb, [(a10, 1, 1), (a10, 2, 2)])
                 + eta(amb, [(a10, 2, 1), (a10, 1, 2)]))
    assert len(two_terms.coeffs) == 2
    report(8, "two-column zigzag products match the tensor oracle term for "
              "term with signs; right-hand sides linearly independent")


@criterion(9, "sign-layer identities and stabilizer orders")
def test_criterion_9_sign_layer():
    z = make_extended_zigzag(1)
    odd = z.odd
    rng = random.Random(SEED)
    for _ in range(200):
        d = rng.randint(1, 5)
        trip = None
        while trip is None:
            cand = tuple((rng.randrange(z.dim), rng.randint(1, 2),
                          rng.randint(1, 2)) for _ in range(d))
            if is_valid_triple(cand, odd, 2):
                trip = cand
        sigma = tuple(rng.sample(range(d), d))
        lhs = (bracket(trip, odd) + bracket(apply_perm(trip, sigma), odd)) % 2
        assert lhs == perm_bracket(sigma, [c[0] for c in trip], odd) % 2
    checked = 0
    while checked < 200:
        d = rng.randint(2, 5)
        a_trip = None
        while a_trip is None:
            cand = tuple((rng.randrange(z.dim), rng.randint(1, 2),
                          rng.randint(1, 2)) for _ in range(d))
            if is_valid_triple(cand, odd, 2):
                a_trip = cand
        c_trip = None
        for _ in range(80):
            cand = tuple((rng.randrange(z.dim), a_trip[k][2], rng.randint(1, 2))
                         for k in range(d))
            if is_valid_triple(cand, odd, 2):
                c_trip = cand
                break
        if c_trip is None:
            continue
        k = rng.randrange(d - 1)
        pa = [z.parity[c[0]] for c in a_trip]
        pc = [z.parity[c[0]] for c in c_trip]
        if not (pa[k] == pc[k] or pa[k + 1] == pc[k + 1]):
            continue
        sk = tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, d))

        def total(at, ct):
            return (bracket(at, odd) + bracket(ct, odd)
                    + pair_bracket([c[0] for c in at], [c[0] for c in ct],
                                   odd)) % 2

        assert total(a_trip, c_trip) == total(apply_perm(a_trip, sk),
                                              apply_perm(c_trip, sk))
        checked += 1
    count = 0
    for d in (1, 2, 3, 4):
        for n in (1, 2):
            for trip in enumerate_canonical(z.dim, n, d, odd):
                brute = sum(1 for sig in itertools.permutations(range(d))
                            if apply_perm(trip, sig) == trip)
                assert brute == factorial_weights(trip, z.sectors)[0]
                count += 1
    report(9, f"permutation-sign identity and adjacent-exchange identity on "
              f"200 seeded instances each; stabilizer orders exhaustive on "
              f"{count} triples (d<=4, n<=2)")


@criterion(10, "serialization round trips")
def test_criterion_10_serialization():
    # presentation file round trip
    for pres in [make_extended_zigzag(2), make_zigzag(1),
                 make_matrix_superalgebra(1, 1), make_even_matrix(2)]:
        again = Presentation.from_json(pres.to_json())
        assert again == pres
    # structure-constant dump and reload reproduces all products exactly
    z = make_extended_zigzag(1)
    amb = Ambient(z, 1, 2)
    basis = list(amb.basis())
    index = {T: i for i, T in enumerate(basis)}
    dump = []
    for i, T in enumerate(basis):
        for j, U in enumerate(basis):
            prod = multiply(amb.scaled_element(T), amb.scaled_element(U))
            for V, c in sorted(prod.coeffs.items()):
                dump.append((i, j, index[V], int(c)))
    blob = json.dumps(dump)
    table = {}
    for i, j, k, c in json.loads(blob):
        table.setdefault((i, j), {})[k] = c
    for i, T in enumerate(basis):
        for j, U in enumerate(basis):
            live = multiply(amb.scaled_element(T), amb.scaled_element(U))
            want = {basis[k]: c for k, c in table.get((i, j), {}).items()}
            assert live.coeffs == want
    report(10, "presentation files and structure-constant dumps round-trip "
               "bit-exactly")
