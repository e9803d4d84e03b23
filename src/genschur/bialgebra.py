"""Graded structure across tensor degrees: star product and coproduct.

The direct sum of the invariant algebras over all degrees d carries a
supercommutative product (symmetrized concatenation, written ``star``) and
a deconcatenation coproduct; together with the degreewise composition
product these satisfy the superbialgebra exchange identity checked by
``check_exchange_identity``.  On scaled basis elements both operations
stay integral: star picks up a multinomial in the sector-'a' cell
multiplicities, the coproduct a multinomial in the sector-'c' ones.

``generation_closure`` verifies that the integral subalgebra is generated,
as a lattice, by its sector-'a' part together with the degree-one cells
spread across the tensor factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import schur
from .superalgebra import bilinear, owners
from .combinatorics import (
    bracket, cell_multiplicities, factorial_weights, compositions,
)
from .exactlin import add_row_to_lattice, lattice_rows, smith_normal_form
from .schur import (
    Ambient, SchurElement, ORBIT, SCALED, AmbientMismatch, key_parity,
    identity, multiply, sum_terms,
)


_AMBIENTS = {}


def graded_ambient(amb, d):
    """Ambient with the same presentation and n but degree d (cached)."""
    if d == amb.d:
        return amb
    key = (amb.pres.name, amb.n, d)
    got = _AMBIENTS.get(key)
    if got is not None and got.pres == amb.pres:
        return got
    fresh = Ambient(amb.pres, amb.n, d)
    _AMBIENTS[key] = fresh
    return fresh


# ---------------------------------------------------------------------------
# star product

def star(x, y):
    """Symmetrized concatenation; degrees add."""
    if x.amb.pres != y.amb.pres or x.amb.n != y.amb.n:
        raise AmbientMismatch("star needs the same presentation and n")
    out_amb = graded_ambient(x.amb, x.amb.d + y.amb.d)
    tag = SCALED if (x.tag == SCALED and y.tag == SCALED) else ORBIT
    # the ratio of [T]!_a weights on scaled elements, of [T]! on orbit ones
    w = 1 if tag == SCALED else 0
    sectors = out_amb.pres.sectors
    ys = y.with_tag(tag).coeffs
    terms = []
    for T, cT in x.with_tag(tag).coeffs.items():
        wT = factorial_weights(T, sectors)[w]
        for U, cU in ys.items():
            wU = factorial_weights(U, sectors)[w]
            cat = T + U
            ratio = factorial_weights(cat, sectors)[w] // (wT * wU)
            terms.append((cat, cT * cU * ratio))
    return sum_terms(out_amb, terms, tag)


def star_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = star(out, f)
    return out


# ---------------------------------------------------------------------------
# coproduct

class SplitElement:
    """Sparse combination of tuples of canonical triples (degree split)."""

    __slots__ = ("amb", "parts", "coeffs", "tag")

    def __init__(self, amb, parts, coeffs, tag):
        self.amb = amb          # ambient of the undivided element
        self.parts = parts      # number of tensor factors
        self.tag = tag
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def __add__(self, other):
        assert self.parts == other.parts and self.tag == other.tag
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return SplitElement(self.amb, self.parts, out, self.tag)

    def scale(self, c):
        return SplitElement(self.amb, self.parts,
                            {k: v * c for k, v in self.coeffs.items()}, self.tag)

    def __eq__(self, other):
        return (isinstance(other, SplitElement) and self.parts == other.parts
                and self.tag == other.tag and self.coeffs == other.coeffs)

    def project(self, degrees):
        """Restrict to the summand with the given degree vector."""
        coeffs = {k: v for k, v in self.coeffs.items()
                  if tuple(len(t) for t in k) == tuple(degrees)}
        return SplitElement(self.amb, self.parts, coeffs, self.tag)

    def __repr__(self):
        return f"SplitElement(parts={self.parts}, {len(self.coeffs)} terms)"


def _multi_splits(amb, T, parts):
    """All ways to split the cell multiset of T into `parts` ordered
    sub-multisets, with coset sign and (for the scaled basis) the
    multiplicity ratio.  Yields (tuple_of_triples, sign, ratio)."""
    sectors = amb.pres.sectors
    odd = amb.odd
    mult = sorted(cell_multiplicities(T).items())
    bT = bracket(T, odd)
    wT = factorial_weights(T, sectors)[2]

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


def coproduct(x, parts=2):
    """Deconcatenation coproduct into `parts` ordered factors.

    On scaled elements every coefficient carries the integer ratio of
    sector-'c' multiplicity factorials; integrality is asserted.
    """
    amb = x.amb
    tag = x.tag
    out = {}
    for T, c in x.coeffs.items():
        for triples, sign, ratio in _multi_splits(amb, T, parts):
            coeff = c * sign * (ratio if tag == SCALED else 1)
            v = out.get(triples, 0) + coeff
            if v:
                out[triples] = v
            elif triples in out:
                del out[triples]
    return SplitElement(amb, parts, out, tag)


def iterated_coproduct(x, degrees):
    """Coproduct into len(degrees) factors, projected onto the degree
    vector; degrees must sum to the ambient degree."""
    if sum(degrees) != x.amb.d:
        raise ValueError("degree vector must sum to d")
    return coproduct(x, parts=len(degrees)).project(degrees)


def check_coassociative(x):
    """(coproduct x id) coproduct == (id x coproduct) coproduct, exactly."""
    left = {}
    for (t1, t2), c in coproduct(x, 2).coeffs.items():
        a1 = graded_ambient(x.amb, len(t1))
        inner = coproduct(SchurElement(a1, {t1: c}, x.tag), 2)
        for (u1, u2), c2 in inner.coeffs.items():
            key = (u1, u2, t2)
            left[key] = left.get(key, 0) + c2
    right = {}
    for (t1, t2), c in coproduct(x, 2).coeffs.items():
        a2 = graded_ambient(x.amb, len(t2))
        inner = coproduct(SchurElement(a2, {t2: c}, x.tag), 2)
        for (u1, u2), c2 in inner.coeffs.items():
            key = (t1, u1, u2)
            right[key] = right.get(key, 0) + c2
    direct = coproduct(x, 3).coeffs
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right == direct


# ---------------------------------------------------------------------------
# exchange identity between the two products

def check_exchange_identity(x, y, z, u):
    """(x star y)(z star u) against the Sweedler-style expansion.

    All inputs must be parity-homogeneous, with deg x + deg y equal to
    deg z + deg u.  Returns True when both sides agree exactly.
    """
    if x.amb.d + y.amb.d != z.amb.d + u.amb.d:
        raise ValueError("total degrees must match")
    for w in (x, y, z, u):
        if w.parity() is None:
            raise ValueError("inputs must be parity-homogeneous")
    lhs = multiply(star(x, y), star(z, u))

    terms = []
    for (x1k, x2k), cx in coproduct(x, 2).coeffs.items():
        for (y1k, y2k), cy in coproduct(y, 2).coeffs.items():
            for (z1k, z2k), cz in coproduct(z, 2).coeffs.items():
                if len(z1k) != len(x1k) or len(z2k) != len(y1k):
                    continue
                for (u1k, u2k), cu in coproduct(u, 2).coeffs.items():
                    if len(u1k) != len(x2k) or len(u2k) != len(y2k):
                        continue
                    make = lambda t, tag=x.tag: SchurElement(
                        graded_ambient(x.amb, len(t)), {t: 1}, tag)
                    x1, x2 = make(x1k), make(x2k)
                    y1, y2 = make(y1k), make(y2k)
                    z1, z2 = make(z1k), make(z2k)
                    u1, u2 = make(u1k), make(u2k)
                    px2 = key_parity(x.amb, x2k)
                    py1 = key_parity(x.amb, y1k)
                    py2 = key_parity(x.amb, y2k)
                    pz = z.parity()
                    pz1 = key_parity(x.amb, z1k)
                    pu1 = key_parity(x.amb, u1k)
                    s = (px2 + py2) * pz + py1 * (px2 + pz1) + py2 * pu1
                    term = star_all([multiply(x1, z1), multiply(y1, z2),
                                     multiply(x2, u1), multiply(y2, u2)])
                    coeff = cx * cy * cz * cu * (-1 if s % 2 else 1)
                    terms.extend((T, c * coeff) for T, c in
                                 term.with_tag(lhs.tag).coeffs.items())
    return lhs == sum_terms(lhs.amb, terms, lhs.tag)


# ---------------------------------------------------------------------------
# separated embedding

def separated_embedding(factors, nu):
    """Stack elements over column windows nu = (n_1, ..., n_a).

    factor k lives in an ambient with n = nu[k]; rows and columns of its
    cells are shifted by the partial sums of nu and the results
    concatenated.  The target ambient has n = sum(nu) and d = sum of the
    degrees.  This map is an algebra homomorphism onto the corner cut by
    the window idempotent of (nu; degrees).
    """
    if not factors:
        raise ValueError("need at least one factor")
    pres = factors[0].amb.pres
    tag = factors[0].tag
    shifts = [0]
    for f in factors:
        if f.amb.pres != pres or f.tag != tag:
            raise AmbientMismatch("factors must share presentation and tag")
        shifts.append(shifts[-1] + f.amb.n)
    for f, width in zip(factors, nu):
        if f.amb.n != width:
            raise ValueError("factor width disagrees with nu")
    n_total = shifts[-1]
    d_total = sum(f.amb.d for f in factors)
    out_amb = graded_ambient(Ambient(pres, n_total, d_total), d_total)
    terms = []
    items = [list(f.coeffs.items()) for f in factors]

    def rec(i, cells, coeff):
        if i == len(factors):
            terms.append((cells, coeff))
            return
        for T, c in items[i]:
            shifted = [(lb, r + shifts[i], s + shifts[i]) for (lb, r, s) in T]
            rec(i + 1, cells + shifted, coeff * c)

    rec(0, [], 1)
    return sum_terms(out_amb, terms, tag)


def window_composition_idempotent(amb, nu, degrees, tag=SCALED):
    """Sum of the weight idempotents whose content puts degrees[k] boxes
    into the k-th column window of sizes nu."""
    schur._require_unital_pair(amb, "window idempotent")
    shifts = [0]
    for w in nu:
        shifts.append(shifts[-1] + w)
    if shifts[-1] != amb.n or sum(degrees) != amb.d:
        raise ValueError("window sizes and degrees must fill (n, d)")
    terms = []
    for lam in compositions(amb.n, amb.d):
        if all(sum(lam[shifts[k]:shifts[k + 1]]) == degrees[k]
               for k in range(len(nu))):
            terms.extend(schur.weight_idempotent(amb, lam, tag=tag).coeffs.items())
    return sum_terms(amb, terms, tag)


# ---------------------------------------------------------------------------
# generation closure

@dataclass
class GenerationReport:
    reached_full: bool
    rank: int
    full_rank: int
    divisors: list
    rounds: int
    generator_count: int


def generation_closure(amb, max_rounds=30):
    """Lattice generated by the sector-'a' part and the spread degree-one
    cells, closed under the composition product.

    Returns a GenerationReport; reached_full means the closure equals the
    whole scaled-basis lattice (full rank, all elementary divisors 1).
    """
    schur._require_unital_pair(amb, "generation closure")
    basis = amb.basis()
    index = {T: i for i, T in enumerate(basis)}
    nb = len(basis)

    def vec_of(coeffs):
        v = [0] * nb
        for T, c in coeffs.items():
            if isinstance(c, Fraction) and c.denominator != 1:
                raise AssertionError("generator is not a lattice point")
            v[index[T]] = int(c)
        return v

    # generators and lattice rows are scaled-basis coefficient dicts
    gens = []
    sectors = amb.pres.sectors
    for T in basis:
        if all(sectors[c[0]] == 'a' for c in T):
            gens.append({T: 1})
    if amb.d >= 1:  # at degree 0 there are no cells to spread
        unit_small = identity(graded_ambient(amb, amb.d - 1))
        for lb in range(amb.pres.dim):
            if sectors[lb] == 'a':
                continue
            for r in range(1, amb.n + 1):
                for s in range(1, amb.n + 1):
                    cell_elt = graded_ambient(amb, 1).scaled_element((((lb, r, s)),))
                    spread = star(unit_small, cell_elt) if amb.d > 1 else cell_elt
                    if spread:
                        gens.append(spread.coeffs)
    gen_vecs = [vec_of(g) for g in gens]

    lattice = {}
    for g in gen_vecs:
        add_row_to_lattice(lattice, list(g), nb)
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        rows = [list(r) for r in lattice_rows(lattice)]
        for row in rows:
            elem = {basis[i]: v for i, v in enumerate(row) if v}
            for g in gens:
                for prod in (bilinear(amb.scaled_constants, elem, g),
                             bilinear(amb.scaled_constants, g, elem)):
                    if add_row_to_lattice(lattice, vec_of(prod), nb):
                        changed = True
    rows = lattice_rows(lattice)
    divisors, rank = smith_normal_form(rows) if rows else ([], 0)
    reached = (rank == nb and all(d == 1 for d in divisors))
    return GenerationReport(reached, rank, nb, divisors, rounds, len(gens))


# ---------------------------------------------------------------------------
# characters of left ideals

@dataclass
class SuperRank:
    even: int = 0
    odd: int = 0


def left_ideal_character(amb, family, mu):
    """Weight-space super-ranks of the left ideal cut by the idempotent of
    the multi-composition mu (one composition per family member).

    Returns {multi-composition: SuperRank} over all left weights.
    """
    pres = amb.pres
    right_owner = owners(pres.mult, range(pres.dim), family, "right")
    left_owner = owners(pres.mult, range(pres.dim), family, "left")
    mu = tuple(tuple(lam) for lam in mu)
    table = {}
    for T in amb.basis():
        right_weight = [[0] * amb.n for _ in family]
        left_weight = [[0] * amb.n for _ in family]
        for (lb, r, s) in T:
            right_weight[right_owner[lb]][s - 1] += 1
            left_weight[left_owner[lb]][r - 1] += 1
        if tuple(tuple(w) for w in right_weight) != mu:
            continue
        lam = tuple(tuple(w) for w in left_weight)
        entry = table.setdefault(lam, SuperRank())
        if key_parity(amb, T):
            entry.odd += 1
        else:
            entry.even += 1
    return table
