"""Invariant matrix-tensor algebras and their integral subalgebras.

For a presentation A, the algebra of interest is the subspace of
M_n(A)^(tensor d) invariant under the signed place-permutation action of
S_d.  It has two distinguished bases indexed by canonical triples T:

* the *orbit* basis: the signed sum of the elementary tensors in the
  S_d-orbit of T (one representative per distinct arrangement);
* the *scaled* basis: the orbit basis element multiplied by the product of
  the factorials of the multiplicities of its sector-'c' cells.

Integer combinations of scaled basis elements form a full-rank sublattice
closed under multiplication; that sublattice is the generalized Schur
algebra attached to the pair (A, sector-'a' subalgebra).

Two independent multiplication routes are provided.  ``multiply`` works
orbit-by-orbit with multiplicity factorials (never enumerating the
symmetric group), while ``multiply_oracle`` expands both factors into
elementary tensors, multiplies componentwise and re-expresses the result
in the canonical basis, failing loudly if the result were not invariant.
Its three steps are ``to_tensor``, ``tensor_multiply`` (which expands
only the pairs of terms that meet, by ``meet_tables``, the one meet
rule) and ``from_tensor`` (whose re-expansion check is an exact count
of the orbits' arrangements, not a second expansion).  ``multiply``
reads the ambient's memoized table of scaled constants, one read-only
mapping per distinct product (a zero one is ``_ZERO``), which the
product of two scaled basis elements shares; orbit constants are derived
from it.  The two routes must agree exactly.  Where that is checked:

* ``genschur verify ... product-oracle`` compares ``scaled_constants``
  with the tensor route on the basis pairs of its grid (sampled above
  250,000 pairs).  Exhaustively, it visits for each T the U in
  ``Ambient.partners(T)`` and the U whose elementary tensors have a pair
  of terms that ``meet_tables`` lets meet those of T: off both sets the
  fast product is 0 by the side keys and the tensor product has no
  terms.  It runs ``tensor_multiply`` only on the second set.
* ``genschur mult --oracle`` compares the two routes on the product asked
  for.
* The tests compare ``multiply`` with the tensor route on every pair of
  fixed basis grids (acceptance criterion 1), and ``scaled_constants``
  with ``multiply_oracle`` on every pair of small random presentations.

Outside the oracle, nothing uses the tensor route.  The distinguished
elements (the unit, the DCP's spread idempotent, the window and the
permutation elements, and the weight and multi idempotents, whose
factors are the divided powers of diagonal idempotents, as in Green,
LNM 830) are written in the orbit basis directly, as star products of
divided powers of even elements joined by ``concat_terms``, the one
concatenation rule (``bialgebra.star`` runs on it too); the tests keep
the tensor route as their reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod
from types import MappingProxyType

from . import combinatorics as comb
from .combinatorics import (
    bracket, canonicalize, arrangements, cell_multiplicities,
    factorial_weights, enumerate_canonical,
)

ORBIT = "orbit"
SCALED = "scaled"


_ZERO = MappingProxyType({})  # the one read-only zero product


class AmbientMismatch(ValueError):
    pass


class ReexpressionError(RuntimeError):
    """A tensor expected to be invariant failed to re-expand in the basis."""


class Ambient:
    """A presentation together with matrix size n and tensor degree d.

    Carries one memoized record per triple asked for (see ``_Triple``;
    the kernel records every output), one object per equal tuple
    (``_canon``: the basis, every product's keys and the records' small
    tuples share it), the memoized table and, from the first call of
    ``partners``, the basis grouped by left side key (``_left_key``, no
    record).  The table (``_prod_cache[T][U]``) holds the scaled
    constants of each pair asked for whose side keys meet, a zero
    product included; orbit constants are derived from them.  Each
    product is one read-only mapping per distinct value: ``_ZERO``, or
    the one kept in ``_distinct`` under its (output, coefficient) items
    in the kernel's order.  The zero element of each scaling is one
    shared object (``_zeros``, read by ``zero`` and ``multiply``).  All
    are transparent (tests compare the table with the kernel).

    The ambients of one presentation and n over all degrees form one
    graded family, reached through ``graded``: the star product and the
    coproduct move between its members, and each member keeps its tables
    for as long as the family lives.
    """

    def __init__(self, pres, n, d):
        if n < 1 or d < 0:
            raise ValueError("need n >= 1 and d >= 0")
        self.pres = pres
        self.n = n
        self.d = d
        self._prod_cache = {}
        self._distinct = {}
        self._zeros = {tag: SchurElement(self, {}, tag)
                       for tag in (ORBIT, SCALED)}
        self._triples = {}
        self._canon = {}
        self._keys = {}
        self._classes = None
        self._basis = None
        self._by_left = None
        self._family = {d: self}

    @property
    def odd(self):
        return self.pres.odd

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Ambient) and self.n == other.n
                and self.d == other.d and self.pres == other.pres)

    def __repr__(self):
        return f"Ambient({self.pres.name}, n={self.n}, d={self.d})"

    def graded(self, d):
        """The member of degree d of this ambient's graded family: one
        object per degree, shared by every member."""
        got = self._family.get(d)
        if got is None:
            got = Ambient(self.pres, self.n, d)
            got._family = self._family
            self._family[d] = got
        return got

    def basis(self):
        """All canonical triples, in the fixed enumeration order."""
        if self._basis is None:
            canon = self._canon
            self._basis = tuple(canon.setdefault(T, T) for T in
                                enumerate_canonical(self.pres.dim, self.n,
                                                    self.d, self.odd))
        return self._basis

    def _left_key(self, triple):
        """The left side key of a triple as an int (see ``_record``)."""
        if self._classes is None:
            self._classes = _letter_classes(self.pres)
        left = self._classes[0]
        key = tuple(sorted((r, left[a]) for a, r, _ in triple))
        return self._keys.setdefault(key, len(self._keys))

    def _record(self, triple):
        """The ``_Triple`` of a triple, built on first use.

        Its left key is the sorted (row, left class) of the cells, its
        right key the sorted (col, right class) (see ``_letter_classes``).
        Each key is stored as a small int, the same for equal keys of
        either side.  The record's tuples (cells, counts, rows, parity
        word) are shared through ``_canon``.  Callers read
        ``self._triples.get(T) or self._record(T)``.
        """
        lkey = self._left_key(triple)  # loads the letter classes
        right = self._classes[1]
        keys = self._keys
        rkey = tuple(sorted((s, right[a]) for a, _, s in triple))
        types = sorted(cell_multiplicities(triple).items())
        cells = tuple(c for c, _ in types)
        counts = tuple(m for _, m in types)
        by_row = [()] * self.n
        for k, (_, r, _) in enumerate(cells):
            by_row[r - 1] += (k,)
        rows = tuple(by_row)
        parity = tuple(self.pres.parity[a] for a, _, _ in triple)
        share = self._canon.setdefault
        index, _, scale = factorial_weights(triple, self.pres.sectors)
        got = self._triples[triple] = _Triple(
            scale, index, lkey, keys.setdefault(rkey, len(keys)),
            share(cells, cells), share(counts, counts), share(rows, rows),
            share(parity, parity))
        return got

    def scale_of(self, triple):
        """Multiplicity factorial over sector-'c' cells ([T]!_c)."""
        return (self._triples.get(triple) or self._record(triple)).scale

    def side_keys(self, triple):
        """(left key, right key) of a triple as ints, equal exactly when
        the keys are, within this ambient: the product of basis elements
        T, U is 0 unless the right key of T is the left key of U."""
        rec = self._triples.get(triple) or self._record(triple)
        return rec.left, rec.right

    def partners(self, triple):
        """The basis triples U, in basis order, whose left side key is the
        right side key of triple: the U for which
        ``scaled_constants(triple, U)`` can be nonzero."""
        if self._by_left is None:
            by_left = {}
            for U in self.basis():
                by_left.setdefault(self._left_key(U), []).append(U)
            self._by_left = {k: tuple(v) for k, v in by_left.items()}
        return self._by_left.get(
            (self._triples.get(triple) or self._record(triple)).right, ())

    def zero(self, tag=SCALED):
        """The zero element of a scaling: one shared object per tag, its
        ``coeffs`` the read-only ``_ZERO``."""
        got = self._zeros.get(tag)
        if got is None:
            raise ValueError(f"unknown scaling tag {tag!r}")
        return got

    def orbit_element(self, triple, coeff=1):
        """Orbit-basis element of any valid arrangement (canonicalized)."""
        return sum_terms(self, [(triple, coeff)], ORBIT)

    def scaled_element(self, triple, coeff=1):
        """Scaled-basis element of any valid arrangement (canonicalized)."""
        return sum_terms(self, [(triple, coeff)], SCALED)

    # -- structure constants -------------------------------------------------

    def structure_constants(self, T, U):
        """Orbit-basis coefficients of the product of basis elements T, U:
        a new dict, exactly g [V]!_c / ([T]!_c [U]!_c) for each scaled
        constant g (``_ZERO`` for a zero product)."""
        sc = self.scaled_constants(T, U)
        if not sc:
            return sc
        recs = self._triples
        w = recs[T].scale * recs[U].scale
        return {V: g * recs[V].scale // w for V, g in sc.items()}

    def scaled_constants(self, T, U):
        """Scaled-basis coefficients of the product of the scaled basis
        elements T, U, an exact Fraction where one is not integral: the
        stored mapping, made on the first read of a pair whose side keys
        meet (``_ZERO``, unstored, for any other pair)."""
        recs = self._triples
        t = recs.get(T) or self._record(T)
        u = recs.get(U) or self._record(U)
        if t.right != u.left:
            return _ZERO
        row = self._prod_cache.get(T)
        got = None if row is None else row.get(U)
        if got is None:
            if row is None:
                row = self._prod_cache[T] = {}
            w = t.scale * u.scale
            got = _structure_constants(self, T, U)
            for V, f in got.items():
                s = recs[V].scale  # recorded by the kernel
                got[V] = Fraction(w * f, s) if w * f % s else w * f // s
            got = row[U] = self._distinct.setdefault(
                tuple(got.items()), MappingProxyType(got)) if got else _ZERO
        return got


class _Triple:
    """What an ambient keeps per triple: its scale [T]!_c and its index
    [T]! (the product of all its multiplicity factorials), its left and
    right side keys as ints, its distinct cells in sorted order with
    their multiplicities (``cells``, ``counts``), for each row 1..n the
    positions in ``cells`` of the cells in that row (``rows``, a tuple of
    n small tuples) and the parity word of its letters (``parity``, 1 for
    an odd letter).  The triples recorded are canonical, so the parity
    word is that of the sorted cells, each repeated by its
    multiplicity."""

    __slots__ = ("scale", "index", "left", "right", "cells", "counts",
                 "rows", "parity")

    def __init__(self, scale, index, left, right, cells, counts, rows,
                 parity):
        self.scale = scale
        self.index = index
        self.left = left
        self.right = right
        self.cells = cells
        self.counts = counts
        self.rows = rows
        self.parity = parity


def _letter_classes(pres):
    """Left and right end classes of the letters, numbered 0, 1, ...

    The right end of a and the left end of c are joined for each nonzero
    product a*c in ``pres.products``, so a*c != 0 implies
    right[a] == left[c].
    """
    dim = pres.dim
    parent = list(range(2 * dim))  # i: left end of letter i; dim + i: right

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, c in pres.products:
        parent[find(dim + a)] = find(c)
    number = {}
    ends = [number.setdefault(find(x), len(number)) for x in range(2 * dim)]
    return ends[:dim], ends[dim:]


def _structure_constants(amb, T, U):
    """Product rule, grouped by orbits of matching position data.

    A single elementary term of the product chooses, for each position, a
    cell of T (giving letter a, row r, middle t), a cell of U with row
    equal to that middle (giving letter c and column s), and a basis letter
    b in the support of a*c.  Grouping the positions by the resulting
    sextuple (a, r, t, c, s, b) collapses the stabilizer orbit of the
    output into one term counted by a multinomial index, so the cost is
    polynomial in the multiplicities rather than d factorial.

    T and U are canonical (sorted), so their brackets are 0.  The options
    of a cell type (a, r, t) of T are the pairs of a cell of U in row t
    (``_Triple.rows``) and a letter b of a*c; when some type has none, the
    product is 0 before any copy is assigned.  Otherwise the positions run
    over the cell types of T in sorted order, one copy at a time.  Each
    copy takes an option of its type while fewer copies of its cell of U
    are in the c word than U has (the product is 0 when no assignment is
    left).  Within a type each copy's option is at or after the previous
    copy's, so every multiset of options is formed once; a run of equal
    options multiplies the denominator by its length, and an option whose
    output cell is odd never repeats (its orbit sum vanishes; the sign
    pass drops such a word too).  Each assignment gives a c word (U's
    cells in position order) and an output word; its sign counts, in one
    pass over T's parity word, the odd inversions of both words and the
    odd c letters ahead of each odd a letter (``bracket`` and
    ``pair_bracket``).  The multinomial index is the output's [V]! from
    its ``_Triple``, over the product of the factorials of the run
    lengths.  The output keys are the ambient's own triple objects
    (``_canon``).
    """
    if amb.d == 0:
        return {(): 1}
    odd = amb.odd
    products = amb.pres.products
    recs = amb._triples
    t = recs.get(T) or amb._record(T)
    u = recs.get(U) or amb._record(U)
    ucells = u.cells
    rows = u.rows
    counts = u.counts
    types = []
    for (a, r, mid), m in zip(t.cells, t.counts):
        opts = []
        for k in rows[mid - 1]:
            cellR = ucells[k]
            got = products.get((a, cellR[0]))
            if got:
                for b, kappa in got.items():
                    opts.append((counts[k], cellR, (b, r, cellR[2]), kappa))
        if not opts:  # a cell of T that meets no cell of U
            return {}
        types.append((opts, m))
    # the assignments of T's copies so far, in enumeration order: (word of
    # U's cells, output word, kappa product, denominator, option of the
    # last copy, length of its run)
    partial = [((), (), 1, 1, 0, 0)]
    for opts, m in types:
        width = len(opts)
        for copy in range(m):
            grown = []
            for c_word, o_word, kappa, denom, last, run in partial:
                if not copy:  # a new type: its first copy takes any option
                    last = run = 0
                for j in range(last, width):
                    cap, cellR, cellO, kap = opts[j]
                    if c_word.count(cellR) == cap:  # no copy of it free
                        continue
                    if j != last or not run:
                        length = 1
                    elif cellO[0] in odd:  # an odd output cell never repeats
                        continue
                    else:
                        length = run + 1
                    grown.append((c_word + (cellR,), o_word + (cellO,),
                                  kappa * kap, denom * length, j, length))
            if not grown:
                return {}
            partial = grown

    parity = t.parity
    intern = amb._canon.setdefault
    out = {}
    for c_word, o_word, kappa, denom, _, _ in partial:
        exp = 0
        odd_c, odd_o = [], []
        for p, c, o in zip(parity, c_word, o_word):
            if p:
                exp += len(odd_c)
            if c[0] in odd:
                for x in odd_c:
                    exp += x > c
                odd_c.append(c)
            if o[0] in odd:
                if o in odd_o:
                    break  # a repeated odd output cell: the orbit sum vanishes
                for x in odd_o:
                    exp += x > o
                odd_o.append(o)
        else:
            canon = tuple(sorted(o_word))
            canon = intern(canon, canon)
            index = (recs.get(canon) or amb._record(canon)).index
            coeff = kappa * (index // denom)
            v = out.get(canon, 0) + (-coeff if exp % 2 else coeff)
            if v:
                out[canon] = v
            elif canon in out:
                del out[canon]
    return out


def _normalize(coeffs):
    """Drop zeros; demote integral Fractions to int."""
    out = {}
    for k, v in coeffs.items():
        if isinstance(v, Fraction):
            if v == 0:
                continue
            if v.denominator == 1:
                v = int(v)
        elif v == 0:
            continue
        out[k] = v
    return out


def sum_terms(amb, terms, tag):
    """The element sum of coeff * [triple] over (triple, coeff) pairs.

    A triple may be any valid arrangement: it is canonicalized with its
    sign, and one with a repeated odd cell contributes nothing.  The sum
    is taken in one dict, so building an element term by term costs no
    intermediate elements.
    """
    acc = {}
    for triple, coeff in terms:
        triple = tuple(tuple(c) for c in triple)
        if len(triple) != amb.d:
            raise AmbientMismatch(
                f"triple has length {len(triple)}, ambient d={amb.d}")
        if any(not (1 <= r <= amb.n and 1 <= s <= amb.n)
               for _, r, s in triple):
            raise ValueError("row/col entries out of range")
        res = canonicalize(triple, amb.odd)
        if res is not None:
            canon, sign = res
            acc[canon] = acc.get(canon, 0) + sign * coeff
    return SchurElement(amb, acc, tag)


class SchurElement:
    """Sparse combination of canonical triples, in one of the two scalings.
    ``coeffs`` is never mutated, so ``_side_terms`` caches its side keys;
    empty coefficients given to the constructor become ``_ZERO``, and a
    read-only table mapping is kept as it is."""

    __slots__ = ("amb", "coeffs", "tag", "_side_terms")

    def __init__(self, amb, coeffs, tag=SCALED):
        if tag not in (ORBIT, SCALED):
            raise ValueError(f"unknown scaling tag {tag!r}")
        self.amb = amb
        self.coeffs = (coeffs if type(coeffs) is MappingProxyType
                       else _normalize(coeffs)) if coeffs else _ZERO
        self.tag = tag
        self._side_terms = None

    def _sides(self):
        """Fill ``_side_terms`` (``multiply`` reads it first): [(T, coeff,
        right key of T)] and {left key: [(U, coeff)]}, in ``amb``'s ints."""
        rights, by_left = [], {}
        for T, c in self.coeffs.items():
            left, right = self.amb.side_keys(T)
            rights.append((T, c, right))
            by_left.setdefault(left, []).append((T, c))
        self._side_terms = rights, by_left
        return self._side_terms

    # -- ring structure -------------------------------------------------------

    def _check(self, other):
        if self.amb != other.amb:
            raise AmbientMismatch(
                f"ambient mismatch: {self.amb!r} vs {other.amb!r}")

    def __add__(self, other):
        self._check(other)
        other = other.with_tag(self.tag)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SchurElement(self.amb, out, self.tag)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return SchurElement(self.amb, {k: v * c for k, v in self.coeffs.items()},
                            self.tag)

    def __mul__(self, other):
        return multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, SchurElement):
            return NotImplemented
        if self.amb != other.amb:
            return False
        return self.orbit_coeffs() == other.orbit_coeffs()

    def __bool__(self):
        return bool(self.coeffs)

    # -- scalings --------------------------------------------------------------

    def orbit_coeffs(self):
        """Coefficients with respect to the orbit basis."""
        if self.tag == ORBIT:
            return dict(self.coeffs)
        return _normalize({k: v * self.amb.scale_of(k)
                           for k, v in self.coeffs.items()})

    def with_tag(self, tag):
        if tag == self.tag:
            return self
        if tag == ORBIT:
            return SchurElement(self.amb, self.orbit_coeffs(), ORBIT)
        out = {}
        for k, v in self.coeffs.items():
            w = self.amb.scale_of(k)
            out[k] = Fraction(v, w) if v % w else v // w
        return SchurElement(self.amb, out, SCALED)

    def parity(self):
        """Common parity of the support, or None when mixed."""
        ps = {key_parity(self.amb, k) for k in self.coeffs}
        if len(ps) == 1:
            return ps.pop()
        return 0 if not ps else None

    def __repr__(self):
        return f"SchurElement({format_element(self)!r})"


def key_parity(amb, triple):
    return sum(amb.pres.parity[c[0]] for c in triple) % 2


# ---------------------------------------------------------------------------
# multiplication

def multiply(x, y):
    """Product via the orbit-grouped rule; exact in either scaling.

    With two scaled inputs the product reads ``scaled_constants`` and the
    output is scaled; a coefficient that is not integral there is kept as
    an exact Fraction (integrality is a theorem the tests check).
    Otherwise both inputs are taken to the orbit basis and
    ``structure_constants`` gives an orbit output.  Only the term pairs
    whose cached side keys meet are looked up.  When one pair contributes,
    with coefficient product 1, the output's ``coeffs`` is the table's
    mapping itself; a second pair copies it into a dict first.  A y of an
    equal but distinct ambient is re-keyed in x's.  A zero product is the
    ambient's shared zero of the output tag (``amb._zeros``).
    """
    amb = x.amb
    if y.amb is not amb:
        x._check(y)
        y = SchurElement(amb, y.coeffs, y.tag)
    tag = SCALED if x.tag == SCALED and y.tag == SCALED else ORBIT
    if tag == ORBIT:
        x, y = x.with_tag(ORBIT), y.with_tag(ORBIT)
    by_left = (y._side_terms or y._sides())[1]
    out = table = None
    for T, a, right in (x._side_terms or x._sides())[0]:
        row = by_left.get(right)
        if row is None:
            continue
        if table is None:
            table = (amb.scaled_constants if tag == SCALED
                     else amb.structure_constants)
        for U, b in row:
            c = a * b
            got = table(T, U)
            if out is None and c == 1:
                out = got  # shared until a second pair contributes
                continue
            if type(out) is not dict:
                out = dict(out or ())
            for V, f in got.items():
                v = out.get(V, 0) + c * f
                if v:
                    out[V] = v
                elif V in out:
                    del out[V]
    return SchurElement(amb, out, tag) if out else amb._zeros[tag]


# ---------------------------------------------------------------------------
# elementary-tensor route (the oracle)

class TensorElement:
    """Sparse expansion in the elementary basis of M_n(A)^(tensor d).

    Keys are arbitrary cell tuples (arrangements, not canonical triples).
    """

    __slots__ = ("amb", "coeffs")

    def __init__(self, amb, coeffs):
        self.amb = amb
        self.coeffs = _normalize(coeffs)

    def __eq__(self, other):
        return (isinstance(other, TensorElement) and self.amb == other.amb
                and self.coeffs == other.coeffs)

    def apply_place_permutation(self, sigma):
        """Signed diagonal action of a permutation on the tensor factors."""
        odd = self.amb.odd
        out = {}
        for key, c in self.coeffs.items():
            moved = comb.apply_perm(key, sigma)
            sgn = comb.perm_bracket(sigma, [cell[0] for cell in key], odd)
            out[moved] = out.get(moved, 0) + (c if sgn % 2 == 0 else -c)
        return TensorElement(self.amb, out)

    def __repr__(self):
        return f"TensorElement({len(self.coeffs)} terms)"


def to_tensor(x):
    """Expand into elementary tensors: signed sum over each orbit."""
    amb = x.amb
    odd = amb.odd
    out = {}
    for T, c in x.orbit_coeffs().items():
        bT = bracket(T, odd)
        for arr in arrangements(T):
            sgn = (bT + bracket(arr, odd)) % 2
            out[arr] = out.get(arr, 0) + (c if sgn == 0 else -c)
    return TensorElement(amb, out)


def meet_tables(pres, kx, ky):
    """The meet rule of the tensor route, in one pass over the positions
    of the elementary tensors kx, ky: at every position the column of kx
    must be the row of ky and the letters must multiply to nonzero (a
    key of ``pres.products``, which holds only nonzero products).
    Returns (tables, parity): each position's product table and the
    parity of the supersign <a, b> of the two letter words
    (``comb.pair_bracket``), or None at the first position that fails."""
    products = pres.products
    odd = pres.odd
    tables = []
    sign = odd_before = 0
    for a, b in zip(kx, ky):
        if a[2] != b[1]:
            return None
        table = products.get((a[0], b[0]))
        if table is None:
            return None
        tables.append(table)
        if a[0] in odd:
            sign += odd_before
        if b[0] in odd:
            odd_before += 1
    return tables, sign & 1


def tensor_multiply(tx, ty):
    """Componentwise product of elementary tensors with supersigns.  Only
    the pairs of terms that meet (``meet_tables``) are expanded, position
    by position over their product tables; a pair whose column and row
    words differ is skipped before ``meet_tables``."""
    if tx.amb != ty.amb:
        raise AmbientMismatch("tensor ambient mismatch")
    amb = tx.amb
    pres = amb.pres
    out = {}
    ys = []
    for ky, cy in ty.coeffs.items():
        _, word, cols = zip(*ky) if ky else ((), (), ())
        ys.append((ky, cy, word, cols))
    for kx, cx in tx.coeffs.items():
        _, rows, word = zip(*kx) if kx else ((), (), ())
        for ky, cy, word_y, cols in ys:
            if word_y != word:
                continue
            met = meet_tables(pres, kx, ky)
            if met is None:
                continue
            tables, sign = met
            coeff = -cx * cy if sign else cx * cy
            for labels in product(*tables):
                cells = tuple(zip(labels, rows, cols))
                cc = coeff
                for table, lb in zip(tables, labels):
                    cc *= table[lb]
                v = out.get(cells, 0) + cc
                if v:
                    out[cells] = v
                elif cells in out:
                    del out[cells]
    return TensorElement(amb, out)


def from_tensor(t, tag=ORBIT):
    """Re-express an invariant tensor in the canonical basis.

    Reads the coefficients c_V at canonical keys V (where each orbit-basis
    element contributes exactly 1) and checks, by an exact orbit count,
    that the input is their orbit sum; raises ReexpressionError otherwise.
    Every key must canonicalize (no repeated odd cell) to a kept V with
    coefficient sign * c_V, and the keys must number sum_V len(V)!/[V]!:
    orbits of distinct V are disjoint and every arrangement of a kept V
    has a nonzero coefficient in the orbit sum, so the count holds exactly
    when the input equals ``to_tensor`` of the result.
    """
    amb = t.amb
    odd = amb.odd
    coeffs = {}
    signed = []
    for key, c in t.coeffs.items():
        canon = canonicalize(key, odd)
        if canon is None:
            raise ReexpressionError("tensor is not in the invariant span")
        if canon[0] == key:
            coeffs[key] = c
        signed.append((canon, c))
    sectors = amb.pres.sectors
    if (any(coeffs.get(V) != sign * c for (V, sign), c in signed)
            or len(signed) != sum(factorial(len(V))
                                  // factorial_weights(V, sectors)[0]
                                  for V in coeffs)):
        raise ReexpressionError("tensor is not in the invariant span")
    elem = SchurElement(amb, coeffs, ORBIT)
    return elem.with_tag(tag) if tag != ORBIT else elem


def multiply_oracle(x, y):
    """Independent product route through the full elementary expansion."""
    x._check(y)
    tag = SCALED if (x.tag == SCALED and y.tag == SCALED) else ORBIT
    tz = tensor_multiply(to_tensor(x), to_tensor(y))
    return from_tensor(tz, tag)


# ---------------------------------------------------------------------------
# star products of divided powers

def invariant_tensor_power(amb, entries, tag=ORBIT):
    """The d-th tensor power of a single even element of M_n(A).

    entries is {(label_index, row, col): coeff} with even letters only,
    so there are no signs: the orbit coefficient at a multiset of d
    entries is the product of their coefficients.
    """
    return _star_of_divided_powers(amb, [(entries, amb.d)], tag)


def concat_terms(sectors, tag, factors):
    """(T_1 ... T_k, c_1 ... c_k * ratio) for each choice of one term from
    every coefficient dict in `factors`; the ratio is the weight of the
    concatenation over the product of the weights of its parts, [.]!_a on
    the scaled basis and [.]! on the orbit one.  The ratio telescopes, so
    concatenating k factors at once equals folding them pairwise.  This is
    the star product on basis terms, before canonicalizing."""
    w = 1 if tag == SCALED else 0
    weighted = [[(T, c, factorial_weights(T, sectors)[w]) for T, c in f.items()]
                for f in factors]
    for choice in product(*weighted):
        cat = ()
        coeff = denom = 1
        for T, c, wT in choice:
            cat += T
            coeff *= c
            denom *= wT
        yield cat, coeff * (factorial_weights(cat, sectors)[w] // denom)


def _star_of_divided_powers(amb, groups, tag):
    """The star product, in the order given, of the divided powers x^(m)
    of even degree-one elements x, one per group (x as {(b, r, s): coeff},
    m).  The orbit coefficient of x^(m) at a multiset of m cells is the
    product of their coefficients; ``sum_terms`` canonicalizes each
    concatenation.  Raises ValueError when some x has an odd letter."""
    parity = amb.pres.parity
    if any(parity[c[0]] for x, _ in groups for c in x):
        raise ValueError("divided powers are only taken of even elements")
    factors = [{M: prod(x[c] for c in M)
                for M in combinations_with_replacement(sorted(x), m)}
               for x, m in groups]
    return sum_terms(amb, concat_terms(amb.pres.sectors, ORBIT, factors),
                     ORBIT).with_tag(tag)


# ---------------------------------------------------------------------------
# idempotents and distinguished elements

def _require_unital_pair(amb, what):
    if not amb.pres.unital_good_pair():
        raise ValueError(f"{what} needs a unital pair "
                         f"(unit supported in sector 'a')")


def identity(amb, tag=SCALED):
    """Unit of the algebra (needs a unit in the presentation)."""
    if amb.pres.unit is None:
        raise ValueError("presentation has no unit")
    entries = {(lb, r, r): c for lb, c in amb.pres.unit.items()
               for r in range(1, amb.n + 1)}
    return invariant_tensor_power(amb, entries, tag)


def weight_idempotent(amb, lam, f=None, tag=SCALED):
    """Diagonal idempotent attached to a composition (and an idempotent f)."""
    if f is None:
        if amb.pres.unit is None:
            raise ValueError("presentation has no unit")
        f = dict(amb.pres.unit)
    return multi_idempotent(amb, (lam,), [f], tag)


def idempotent_sum(amb, f, tag=SCALED):
    """Sum of the weight idempotents of f over all compositions.

    Equals the d-th tensor power of the diagonal matrix with f in every
    slot.
    """
    if not amb.pres.is_idempotent(dict(f)):
        raise ValueError("f must be idempotent")
    entries = {(lb, r, r): c for lb, c in f.items()
               for r in range(1, amb.n + 1)}
    return invariant_tensor_power(amb, entries, tag)


def window_idempotent(amb, inner_n, tag=SCALED):
    """Sum of weight idempotents supported on the first inner_n rows."""
    _require_unital_pair(amb, "window idempotent")
    if not (1 <= inner_n <= amb.n):
        raise ValueError("window must satisfy 1 <= inner_n <= n")
    unit = dict(amb.pres.unit)
    entries = {(lb, r, r): c for lb, c in unit.items()
               for r in range(1, inner_n + 1)}
    return invariant_tensor_power(amb, entries, tag)


def multi_idempotent(amb, lams, family, tag=SCALED):
    """Idempotent attached to a tuple of compositions and pairwise
    orthogonal sector-'a' idempotents f_i: the star product, member by
    member and row by row, of the divided powers of f_i at cell (r, r) of
    degree lam_i[r].  Raises ValueError when the compositions do not fit
    (n parts >= 0 each, d in all), a member f_i is not idempotent or two
    members are not orthogonal."""
    if len(lams) != len(family):
        raise ValueError("need one composition per idempotent")
    if sum(sum(l) for l in lams) != amb.d:
        raise ValueError("total size must be d")
    if any(len(lam) != amb.n or min(lam, default=0) < 0 for lam in lams):
        raise ValueError("each composition needs n parts >= 0")
    pres = amb.pres
    family = [dict(f) for f in family]
    if not all(map(pres.is_idempotent, family)):
        raise ValueError("f must be idempotent")
    if any(pres.mult(f, g) for f, g in permutations(family, 2)):
        raise ValueError("family members must be orthogonal")
    return _star_of_divided_powers(
        amb, [({(b, r, r): c for b, c in f.items()}, m)
              for lam, f in zip(lams, family)
              for r, m in enumerate(lam, start=1) if m], tag)


def permutation_element(amb, sigmas, family, tag=SCALED):
    """Invariant element of a tuple of row permutations, one per idempotent.

    sigmas[i] is a permutation of [1, n] given as a tuple of images
    (1-based); the element is the d-th tensor power of the sum of the
    permutation matrices scaled by the orthogonal idempotents.
    """
    if len(sigmas) != len(family):
        raise ValueError("need one permutation per idempotent")
    entries = {}
    for sigma, f in zip(sigmas, family):
        if sorted(sigma) != list(range(1, amb.n + 1)):
            raise ValueError("permutations must be on [1, n]")
        for r in range(1, amb.n + 1):
            for lb, c in f.items():
                key = (lb, sigma[r - 1], r)
                entries[key] = entries.get(key, 0) + c
    return invariant_tensor_power(amb, entries, tag)


# ---------------------------------------------------------------------------
# anti-involution

def apply_involution(x):
    """Transpose-with-involution: letters mapped, row and col words swapped.

    Carries the tensor supersign (-1)^(o choose 2) on keys with o odd
    letters; without it the entrywise transpose is not anti-multiplicative
    on the invariants.
    """
    amb = x.amb
    pres = amb.pres
    if pres.involution is None:
        raise ValueError("presentation declares no anti-involution")
    terms = []
    for T, c in x.coeffs.items():
        sign = 1
        cells = []
        for (lb, r, s) in T:
            lb2, sg = pres.involution[lb]
            sign *= sg
            cells.append((lb2, s, r))
        o = sum(1 for cell in T if cell[0] in amb.odd)
        if (o * (o - 1) // 2) % 2:
            sign = -sign
        terms.append((cells, sign * c))
    return sum_terms(amb, terms, x.tag)


# ---------------------------------------------------------------------------
# text form

def format_triple(amb, triple):
    labels = amb.pres.labels
    return "{}|{}|{}".format(
        ",".join(labels[c[0]] for c in triple),
        ",".join(str(c[1]) for c in triple),
        ",".join(str(c[2]) for c in triple))


def parse_triple(amb, text):
    """Parse 'b1,b2|r1,r2|s1,s2' into a cell tuple."""
    parts = text.split("|")
    if len(parts) != 3:
        raise ValueError(f"triple {text!r}: expected 3 '|'-separated parts")
    if parts == ["", "", ""] and amb.d == 0:
        return ()
    names = parts[0].split(",")
    try:
        rows = [int(v) for v in parts[1].split(",")]
        cols = [int(v) for v in parts[2].split(",")]
    except ValueError as e:
        raise ValueError(f"triple {text!r}: bad row/col number ({e})")
    if not (len(names) == len(rows) == len(cols)):
        raise ValueError(f"triple {text!r}: words have unequal lengths")
    if len(names) != amb.d:
        raise ValueError(f"triple {text!r}: length {len(names)}, ambient d={amb.d}")
    cells = []
    for lab, r, s in zip(names, rows, cols):
        if lab not in amb.pres.index:
            raise ValueError(f"triple {text!r}: unknown basis label {lab!r}")
        if not (1 <= r <= amb.n and 1 <= s <= amb.n):
            raise ValueError(f"triple {text!r}: row/col outside [1,{amb.n}]")
        cells.append((amb.pres.index[lab], r, s))
    return tuple(cells)


def format_element(x):
    if not x.coeffs:
        return "0"
    parts = []
    for T in sorted(x.coeffs):
        c = x.coeffs[T]
        body = f"[{format_triple(x.amb, T)}]"
        if c == 1:
            parts.append(f"+ {body}")
        elif c == -1:
            parts.append(f"- {body}")
        else:
            sgn = "+" if c > 0 else "-"
            parts.append(f"{sgn} {abs(c)}*{body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
