"""Words, triples, orbit representatives, signs and factorial weights.

The indexing objects throughout the package are *triples* (b, r, s): a word
of basis letters b together with row and column words r, s in [1,n], all of
length d.  A triple is stored as a tuple of d cells, each cell being
(letter_index, row, col).  The symmetric group S_d permutes the d cells
diagonally; triples whose letter is odd may not repeat a cell (the
alternating sign would kill the corresponding orbit sum).

A *canonical* triple is the weakly increasing one in its S_d-orbit with
respect to the cell order (letter declaration order, then row, then col);
canonical triples index the bases of the invariant algebra and of its
integral subalgebra.

Sign conventions.  For a triple T with odd-letter positions and cells c_k:

    bracket(T)        = #{k < l : both letters odd, c_k > c_l}
    pair_bracket(b,c) = #{(k, l) : k > l, b_k odd, c_l odd}
    perm_bracket(sigma, b) = #{k < l : sigma^-1(k) > sigma^-1(l), b_k, b_l odd}

and the compatibility (checked by tests on random data)

    (-1)^(bracket(T) + bracket(T sigma)) = (-1)^(perm_bracket(sigma, b)).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod


# ---------------------------------------------------------------------------
# cells and triples

def is_valid_triple(triple, odd, n):
    """Membership test: entries in range, no repeated odd cell."""
    seen = set()
    for cell in triple:
        b, r, s = cell
        if not (1 <= r <= n and 1 <= s <= n):
            return False
        if b in odd:
            if cell in seen:
                return False
            seen.add(cell)
    return True


def bracket(triple, odd):
    """Parity count <b,r,s>: inverted pairs of odd-letter cells."""
    count = 0
    d = len(triple)
    for k in range(d):
        ck = triple[k]
        if ck[0] not in odd:
            continue
        for l in range(k + 1, d):
            cl = triple[l]
            if cl[0] in odd and ck > cl:
                count += 1
    return count


def pair_bracket(bword, cword, odd):
    """Supercommutation count <b, c>: pairs k > l with b_k, c_l odd."""
    count = 0
    d = len(bword)
    odd_c = [l for l in range(d) if cword[l] in odd]
    for k in range(d):
        if bword[k] in odd:
            count += sum(1 for l in odd_c if l < k)
    return count


def perm_bracket(sigma, bword, odd):
    """Count <sigma; b>: odd-letter inversions created by the permutation.

    sigma is a tuple with images sigma[k]; the place-permutation action is
    (x sigma)_k = x_{sigma[k]}.
    """
    d = len(sigma)
    inv = [0] * d
    for k in range(d):
        inv[sigma[k]] = k
    count = 0
    for k in range(d):
        if bword[k] not in odd:
            continue
        for l in range(k + 1, d):
            if bword[l] in odd and inv[k] > inv[l]:
                count += 1
    return count


def apply_perm(word, sigma):
    return tuple(word[sigma[k]] for k in range(len(sigma)))


def canonicalize(triple, odd):
    """Sort a triple into its canonical representative.

    Returns (canonical, sign) with sign = (-1)^(bracket(T)+bracket(sorted T)),
    or None if the triple repeats an odd cell (its orbit sum vanishes).
    A sorted triple has no inverted pair, so bracket(sorted T) is 0 and
    the sign is (-1)^bracket(T).
    """
    canon = tuple(sorted(triple))
    seen = set()
    for cell in canon:
        if cell[0] in odd:
            if cell in seen:
                return None
            seen.add(cell)
    sign = -1 if bracket(triple, odd) % 2 else 1
    return canon, sign


def cell_multiplicities(triple):
    mult = {}
    for cell in triple:
        mult[cell] = mult.get(cell, 0) + 1
    return mult


def factorial_weights(triple, sectors):
    """([T]!, [T]!_a, [T]!_c): products of cell-multiplicity factorials.

    sectors maps a letter index to 'a', 'c' or 'odd'.
    """
    total = w_a = w_c = 1
    for cell, m in cell_multiplicities(triple).items():
        f = factorial(m)
        total *= f
        sec = sectors[cell[0]]
        if sec == 'a':
            w_a *= f
        elif sec == 'c':
            w_c *= f
    return total, w_a, w_c


def arrangements(triple):
    """All distinct arrangements of the cell multiset, each exactly once."""
    return _distinct_permutations(tuple(sorted(triple)))


def _distinct_permutations(items):
    if not items:
        yield ()
        return
    seen = set()
    for i, it in enumerate(items):
        if it in seen:
            continue
        seen.add(it)
        rest = items[:i] + items[i + 1:]
        for tail in _distinct_permutations(rest):
            yield (it,) + tail


# ---------------------------------------------------------------------------
# enumeration

def cells(num_letters, n):
    """All cells (letter, row, col) in declaration/row/col order."""
    return [(b, r, s)
            for b in range(num_letters)
            for r in range(1, n + 1)
            for s in range(1, n + 1)]


def enumerate_canonical(num_letters, n, d, odd):
    """Canonical triples of length d, i.e. one per S_d-orbit, in order."""
    for combo in itertools.combinations_with_replacement(cells(num_letters, n), d):
        trip = tuple(combo)
        ok = True
        for i in range(1, d):
            if trip[i] == trip[i - 1] and trip[i][0] in odd:
                ok = False
                break
        if ok:
            yield trip


def splits(triple, parts, odd, sectors):
    """All ways to split the cell multiset of a canonical triple T into
    `parts` ordered sub-multisets, each canonical.

    Yields (triples, sign, ratio): the tuple of parts, the coset sign
    (-1)^(bracket(T) + bracket(concatenation)) and the integer ratio
    [T]!_c / prod [T_i]!_c of sector-'c' multiplicity factorials.

    A split is one composition into `parts` of each distinct cell's
    multiplicity, the cells taken in order; the splits come in the order
    of ``itertools.product`` over those compositions.  Each part is built
    from its counts, the ratio is the product over the sector-'c' cells of
    the multinomials of their compositions, and the concatenation's
    bracket is the count of pairs of odd copies x > y with x in an earlier
    part than y.
    """
    bT = bracket(triple, odd)
    # per distinct cell, its options: the runs of copies it gives each
    # part, its counts when odd (else None), its multinomial when 'c'
    options = [[(tuple((cell,) * k for k in counts),
                 counts if cell[0] in odd else None,
                 multinomial if sectors[cell[0]] == 'c' else 1)
                for counts, multinomial in _split_counts(parts, m)]
               for cell, m in sorted(cell_multiplicities(triple).items())]
    empty = ((),) * parts   # so that d = 0 still gives `parts` parts
    for choice in itertools.product(*options):
        sign = bT
        ratio = 1
        before = [0] * parts    # odd copies of smaller cells, per part
        for _, counts, multinomial in choice:
            ratio *= multinomial
            if counts is not None:
                later = 0
                for j in range(parts - 1, -1, -1):
                    sign += counts[j] * later
                    later += before[j]
                    before[j] += counts[j]
        triples = tuple(sum(runs, ()) for runs
                        in zip(empty, *[runs for runs, _, _ in choice]))
        yield triples, -1 if sign % 2 else 1, ratio


@lru_cache(maxsize=None)
def _split_counts(parts, m):
    """The compositions of m into `parts`, in ``compositions`` order, each
    with its multinomial m! / prod counts!."""
    return tuple((counts, factorial(m) // prod(map(factorial, counts)))
                 for counts in compositions(parts, m))


# ---------------------------------------------------------------------------
# compositions

def compositions(n, d):
    """All (lambda_1, ..., lambda_n) of nonnegative integers summing to d."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in compositions(n - 1, d - first):
            yield (first,) + rest


def weight(triple, owner, members, n, side):
    """Per family member, the cells of the letters it owns (owner[b] fixes
    b on that side) counted by row (side "left") or column ("right").  The
    weight idempotent of S fixes a basis element on that side when this is
    its multi-composition, and kills it otherwise (Green, LNM 830)."""
    out = [[0] * n for _ in range(members)]
    for cell in triple:
        out[owner[cell[0]]][cell[1 if side == "left" else 2] - 1] += 1
    return tuple(map(tuple, out))
