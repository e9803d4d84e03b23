import itertools
import random
from math import comb, factorial

import pytest

from genschur import combinatorics as comb_mod
from genschur.combinatorics import (
    bracket, pair_bracket, perm_bracket, apply_perm,
    canonicalize, factorial_weights, arrangements,
    cells, enumerate_canonical, splits, compositions,
)
from genschur.superalgebra import builtin, make_extended_zigzag


ZZ1 = make_extended_zigzag(1)  # five letters: e0 e1 c0 a1,0 a0,1
ODD = ZZ1.odd


def multi_compositions(parts, n, d):
    """Tuples of `parts` compositions in Lambda(n, .) with total size d,
    the labels of the multi-idempotents of a family of `parts` members;
    with no parts, the empty tuple when d = 0 and nothing otherwise.
    The tests of schur, dcp and bialgebra import it from here."""
    if parts == 0:
        if d == 0:
            yield ()
        return
    for head_size in range(d + 1):
        for head in compositions(n, head_size):
            for tail in multi_compositions(parts - 1, n, d - head_size):
                yield (head,) + tail


def letters(triple):
    return tuple(c[0] for c in triple)


def random_triple(rng, num_letters, odd, n, d, max_tries=200):
    for _ in range(max_tries):
        trip = tuple((rng.randrange(num_letters), rng.randint(1, n),
                      rng.randint(1, n)) for _ in range(d))
        if comb_mod.is_valid_triple(trip, odd, n):
            return trip
    raise RuntimeError("no valid triple found")


def test_bracket_trivial_cases():
    # all letters even
    t = ((0, 1, 1), (1, 1, 1), (2, 1, 1))
    assert bracket(t, ODD) == 0
    # a single odd letter cannot produce an inversion
    t = ((3, 1, 1), (0, 1, 1))
    assert bracket(t, ODD) == 0


def test_bracket_permutation_identity():
    # (-1)^(bracket(T) + bracket(T sigma)) == (-1)^(perm_bracket(sigma, b))
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(1, 5)
        t = random_triple(rng, ZZ1.dim, ODD, 2, d)
        sigma = tuple(rng.sample(range(d), d))
        lhs = (bracket(t, ODD) + bracket(apply_perm(t, sigma), ODD)) % 2
        rhs = perm_bracket(sigma, letters(t), ODD) % 2
        assert lhs == rhs


def test_sign_cocycle():
    # <sigma tau; b> == <sigma; b> + <tau; b sigma>  (mod 2)
    rng = random.Random(9)
    for _ in range(200):
        d = rng.randint(1, 5)
        b = tuple(rng.randrange(ZZ1.dim) for _ in range(d))
        sigma = tuple(rng.sample(range(d), d))
        tau = tuple(rng.sample(range(d), d))
        sigma_tau = tuple(sigma[tau[k]] for k in range(d))
        lhs = perm_bracket(sigma_tau, b, ODD) % 2
        rhs = (perm_bracket(sigma, b, ODD)
               + perm_bracket(tau, apply_perm(b, sigma), ODD)) % 2
        assert lhs == rhs


def test_adjacent_transposition_of_two_odds():
    t = ((3, 1, 2), (4, 2, 1))  # two distinct odd letters
    swap = apply_perm(t, (1, 0))
    assert (bracket(t, ODD) + bracket(swap, ODD)) % 2 == 1


def test_sign_pair_trivial():
    assert pair_bracket((0, 1), (2, 0), ODD) == 0  # all even
    assert pair_bracket((3, 3), (3, 3), ODD) == 1  # one k>l pair


def test_sign_equation_on_samples():
    # the three-case exchange identity for adjacent transpositions
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        d = rng.randint(2, 5)
        a_trip = random_triple(rng, ZZ1.dim, ODD, 2, d)
        # share the middle word: build c-triple on the same t-word
        t_word = [cell[2] for cell in a_trip]
        c_trip = None
        for _ in range(50):
            cand = tuple((rng.randrange(ZZ1.dim), t_word[k], rng.randint(1, 2))
                         for k in range(d))
            if comb_mod.is_valid_triple(cand, ODD, 2):
                c_trip = cand
                break
        if c_trip is None:
            continue
        k = rng.randrange(d - 1)
        pa = [ZZ1.parity[x] for x in letters(a_trip)]
        pc = [ZZ1.parity[x] for x in letters(c_trip)]
        if not (pa[k] == pc[k] or pa[k + 1] == pc[k + 1]):
            continue
        sk = tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, d))
        lhs = (bracket(a_trip, ODD) + bracket(c_trip, ODD)
               + pair_bracket(letters(a_trip), letters(c_trip), ODD)) % 2
        a_sw = apply_perm(a_trip, sk)
        c_sw = apply_perm(c_trip, sk)
        rhs = (bracket(a_sw, ODD) + bracket(c_sw, ODD)
               + pair_bracket(letters(a_sw), letters(c_sw), ODD)) % 2
        assert lhs == rhs
        checked += 1


def test_canonicalize_idempotent_and_signs():
    rng = random.Random(17)
    for _ in range(100):
        d = rng.randint(1, 4)
        t = random_triple(rng, ZZ1.dim, ODD, 2, d)
        res = canonicalize(t, ODD)
        assert res is not None
        canon, sign = res
        again = canonicalize(canon, ODD)
        assert again == (canon, 1)
        assert sign in (1, -1)


def test_canonicalize_sign_is_the_bracket_sum():
    # canonicalize reads the sign off bracket(T) alone; the definition
    # adds bracket(sorted T), which is 0
    rng = random.Random(29)
    signs = set()
    checked = 0
    while checked < 200:
        n, d = rng.randint(1, 3), rng.randint(2, 5)
        t = random_triple(rng, ZZ1.dim, ODD, n, d)
        if sum(1 for c in t if c[0] in ODD) < 2:
            continue
        _, sign = canonicalize(t, ODD)
        parity = bracket(t, ODD) + bracket(tuple(sorted(t)), ODD)
        assert sign == (-1) ** parity, t
        signs.add(sign)
        checked += 1
    assert signs == {1, -1}


def test_canonicalize_odd_swap_gives_minus():
    t = ((4, 1, 1), (3, 1, 1))  # two odd letters out of order
    canon, sign = canonicalize(t, ODD)
    assert canon == tuple(sorted(t))
    assert sign == -1


def test_canonicalize_repeated_odd_is_zero():
    t = ((3, 1, 1), (3, 1, 1))
    assert canonicalize(t, ODD) is None


def test_factorial_weights():
    t = ((0, 1, 1), (1, 1, 1), (2, 1, 1))
    assert factorial_weights(t, ZZ1.sectors) == (1, 1, 1)
    # a c-sector letter repeated d times on constant words
    t = ((2, 1, 1), (2, 1, 1), (2, 1, 1))
    total, wa, wc = factorial_weights(t, ZZ1.sectors)
    assert (total, wa, wc) == (6, 1, 6)


def test_stabilizer_order_brute_force():
    # |{sigma : T sigma = T}| equals the product of cell factorials,
    # exhaustively for d <= 4, n <= 2
    for d in (1, 2, 3, 4):
        for n in (1, 2):
            count = 0
            for trip in enumerate_canonical(ZZ1.dim, n, d, ODD):
                count += 1
                brute = sum(1 for sigma in itertools.permutations(range(d))
                            if apply_perm(trip, sigma) == trip)
                assert brute == factorial_weights(trip, ZZ1.sectors)[0]
                if count > 300:
                    break


def test_enumerate_counts():
    # d=1: one triple per cell
    assert len(list(enumerate_canonical(ZZ1.dim, 1, 1, ODD))) == ZZ1.dim
    assert len(list(enumerate_canonical(ZZ1.dim, 2, 1, ODD))) == ZZ1.dim * 4
    # closed-form count for n=d=2: multisets of even cells, mixed pairs,
    # and strict pairs of odd cells
    even_cells = sum(1 for c in cells(ZZ1.dim, 2) if c[0] not in ODD)
    odd_cells = sum(1 for c in cells(ZZ1.dim, 2) if c[0] in ODD)
    expected = comb(even_cells + 1, 2) + even_cells * odd_cells + comb(odd_cells, 2)
    assert len(list(enumerate_canonical(ZZ1.dim, 2, 2, ODD))) == expected


def test_enumerate_odd_only_algebra():
    # one odd letter, n=1, d=2: repetition is forbidden, so no triples
    assert list(enumerate_canonical(1, 1, 2, frozenset({0}))) == []


def two_part_splits(t, l):
    """(T1, T2, sign, ratio) of the two-part splits of t with |T1| = l."""
    return [(t1, t2, sign, ratio)
            for (t1, t2), sign, ratio in splits(t, 2, ODD, ZZ1.sectors)
            if len(t1) == l]


def recursive_splits(triple, parts, odd, sectors):
    """The split rule as a recursion over the distinct cells, extending
    the parts in place and reading the sign and the ratio off the
    finished parts: the reference for ``splits``."""
    mult = sorted(comb_mod.cell_multiplicities(triple).items())
    bT = bracket(triple, odd)
    wT = factorial_weights(triple, sectors)[2]

    def rec(i, chosen):
        if i == len(mult):
            triples = tuple(tuple(t) for t in chosen)
            concat = sum(triples, ())
            sign = -1 if (bT + bracket(concat, odd)) % 2 else 1
            denom = 1
            for t in triples:
                denom *= factorial_weights(t, sectors)[2]
            yield triples, sign, wT // denom
            return
        cell, m = mult[i]
        for counts in compositions(parts, m):
            for t, c in zip(chosen, counts):
                t.extend([cell] * c)
            yield from rec(i + 1, chosen)
            for t, c in zip(chosen, counts):
                for _ in range(c):
                    t.pop()

    yield from rec(0, [[] for _ in range(parts)])


@pytest.mark.parametrize("spec, n, d", [
    ("zigzag:2", 2, 0), ("zigzag:2", 2, 2), ("even-matrix:2", 2, 2),
    # odd letters and repeated 'c' cells
    ("ext-zigzag:1", 2, 3), ("zigzag:1", 1, 4),
])
def test_splits_equal_the_recursion(spec, n, d):
    pres = builtin(spec)
    for t in enumerate_canonical(pres.dim, n, d, pres.odd):
        for parts in (1, 2, 3):
            assert list(splits(t, parts, pres.odd, pres.sectors)) == list(
                recursive_splits(t, parts, pres.odd, pres.sectors)), \
                (spec, t, parts)


def test_splits_trivial():
    t = ((0, 1, 1), (2, 1, 1))
    zero_splits = [s[:3] for s in two_part_splits(t, 0)]
    assert zero_splits == [((), t, 1)]
    t2 = ((0, 1, 1), (0, 1, 1))
    one = [s[:3] for s in two_part_splits(t2, 1)]
    assert one == [((t2[0],), (t2[1],), 1)]


def test_split_multiplicities_are_integers():
    rng = random.Random(19)
    for _ in range(50):
        d = rng.randint(1, 4)
        t = canonicalize(random_triple(rng, ZZ1.dim, ODD, 2, d), ODD)[0]
        _, _, wc = factorial_weights(t, ZZ1.sectors)
        for l in range(d + 1):
            for t1, t2, sign, ratio in two_part_splits(t, l):
                _, _, w1 = factorial_weights(t1, ZZ1.sectors)
                _, _, w2 = factorial_weights(t2, ZZ1.sectors)
                assert wc % (w1 * w2) == 0
                assert ratio == wc // (w1 * w2)
                assert sign in (1, -1)


def test_splits_pair_with_complement():
    rng = random.Random(29)
    for _ in range(30):
        d = rng.randint(1, 4)
        t = canonicalize(random_triple(rng, ZZ1.dim, ODD, 2, d), ODD)[0]
        for l in range(d + 1):
            left = {(t1, t2) for t1, t2, _, _ in two_part_splits(t, l)}
            right = {(t2, t1) for t1, t2, _, _ in two_part_splits(t, d - l)}
            assert left == right


def test_arrangements_match_coset_count():
    trip = ((0, 1, 1), (0, 1, 1), (2, 1, 2), (3, 2, 1))
    arr = list(arrangements(trip))
    assert len(arr) == factorial(4) // factorial_weights(trip, ZZ1.sectors)[0]
    assert len(set(arr)) == len(arr)


def test_compositions():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    for n in range(1, 7):
        for d in range(0, 7):
            assert len(list(compositions(n, d))) == comb(n + d - 1, d)


def test_multi_compositions():
    got = list(multi_compositions(2, 2, 1))
    assert len(got) == 4  # one box among (2 parts) x (2 slots)
    for tup in got:
        assert sum(sum(lam) for lam in tup) == 1


def test_multi_compositions_of_no_parts():
    # the empty family: one empty tuple at d = 0, none above
    assert list(multi_compositions(0, 2, 0)) == [()]
    assert list(multi_compositions(0, 2, 1)) == []
    assert list(multi_compositions(0, 1, 3)) == []


def test_splits_swap_carries_supercommutation_sign():
    # swapping the two halves of a split multiplies the coset sign by the
    # parity product of the halves
    rng = random.Random(37)
    parity = ZZ1.parity
    for _ in range(60):
        d = rng.randint(1, 4)
        t = canonicalize(random_triple(rng, ZZ1.dim, ODD, 2, d), ODD)[0]
        for l in range(d + 1):
            signs = {(t1, t2): s for t1, t2, s, _ in two_part_splits(t, l)}
            swapped = {(t1, t2): s for t1, t2, s, _ in two_part_splits(t, d - l)}
            for (t1, t2), s in signs.items():
                o1 = sum(parity[c[0]] for c in t1)
                o2 = sum(parity[c[0]] for c in t2)
                assert swapped[(t2, t1)] == s * (-1) ** (o1 * o2)
