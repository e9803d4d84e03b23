"""Graded structure across tensor degrees: star product and coproduct.

The direct sum of the invariant algebras over all degrees d carries a
supercommutative product (symmetrized concatenation, written ``star``) and
a deconcatenation coproduct; together with the degreewise composition
product these satisfy the superbialgebra exchange identity checked by
``check_exchange_identity``.  On scaled basis elements both operations
stay integral: star picks up a multinomial in the sector-'a' cell
multiplicities, the coproduct a multinomial in the sector-'c' ones.
``star`` runs on ``schur.concat_terms``, the one concatenation rule,
which also builds the distinguished elements of each degree.

``coproduct`` returns a plain coefficient dict {(T_1, ..., T_k): coeff}
built from the one split rule, ``combinatorics.splits``; the
coassociativity and exchange checks work on such dicts and on the basis
tables of the ambient's graded family (``Ambient.graded``), never on
per-term elements.

``generation_closure`` verifies that the integral subalgebra is generated,
as a lattice, by its sector-'a' part together with the degree-one cells
spread across the tensor factors.  It closes the generators under the
composition product as a worklist: only the elements that last grew the
lattice are multiplied, by each generator on the right through
``schur.multiply`` (which looks up only the term pairs whose side keys
meet), and only nonzero products reach the sparse echelon lattice.  This
gives the same lattice and round count as multiplying every lattice row
by every generator, on both sides, until a round adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import schur
from .combinatorics import splits
from .exactlin import add_row_to_lattice
from .schur import (
    ORBIT, SCALED, AmbientMismatch, SchurElement, concat_terms,
    key_parity, identity, multiply, sum_terms,
)


def _collect(terms):
    """Sum (key, coeff) pairs into one dict without zero entries."""
    out = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# star product

def star(x, y):
    """Symmetrized concatenation; degrees add."""
    if x.amb.pres != y.amb.pres or x.amb.n != y.amb.n:
        raise AmbientMismatch("star needs the same presentation and n")
    out_amb = x.amb.graded(x.amb.d + y.amb.d)
    tag = SCALED if (x.tag == SCALED and y.tag == SCALED) else ORBIT
    factors = (x.with_tag(tag).coeffs, y.with_tag(tag).coeffs)
    return sum_terms(out_amb, concat_terms(out_amb.pres.sectors, tag, factors),
                     tag)


# ---------------------------------------------------------------------------
# coproduct

def _split(amb, T, c, tag, parts):
    """(triples, coeff) terms of the coproduct of c times basis element T."""
    for triples, sign, ratio in splits(T, parts, amb.odd, amb.pres.sectors):
        yield triples, c * sign * (ratio if tag == SCALED else 1)


def coproduct(x, parts=2):
    """Deconcatenation coproduct into `parts` ordered factors, as a dict
    {(T_1, ..., T_parts): coeff}.

    On scaled elements every coefficient carries the integer ratio of
    sector-'c' multiplicity factorials.
    """
    return _collect(term for T, c in x.coeffs.items()
                    for term in _split(x.amb, T, c, x.tag, parts))


def check_coassociative(x):
    """(coproduct x id) coproduct == (id x coproduct) coproduct, exactly."""
    left, right = [], []
    for (t1, t2), c in coproduct(x, 2).items():
        left.extend(((u1, u2, t2), v) for (u1, u2), v
                    in _split(x.amb, t1, c, x.tag, 2))
        right.extend(((t1, u1, u2), v) for (u1, u2), v
                     in _split(x.amb, t2, c, x.tag, 2))
    return _collect(left) == _collect(right) == coproduct(x, 3)


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

    # every Sweedler piece is one basis triple with coefficient 1 in the
    # scaling of x, so a product of two pieces is one table entry
    amb = x.amb
    scaled = x.tag == SCALED

    def product(T, U):
        a = amb.graded(len(T))
        return a.scaled_constants(T, U) if scaled else a.structure_constants(T, U)

    def par(T):
        return key_parity(amb, T)

    pz = z.parity()
    ys, zs, us = coproduct(y, 2), coproduct(z, 2), coproduct(u, 2)
    terms = []
    for (x1, x2), cx in coproduct(x, 2).items():
        for (y1, y2), cy in ys.items():
            for (z1, z2), cz in zs.items():
                if len(z1) != len(x1) or len(z2) != len(y1):
                    continue
                for (u1, u2), cu in us.items():
                    if len(u1) != len(x2) or len(u2) != len(y2):
                        continue
                    s = ((par(x2) + par(y2)) * pz + par(y1) * (par(x2) + par(z1))
                         + par(y2) * par(u1))
                    coeff = cx * cy * cz * cu * (-1 if s % 2 else 1)
                    products = (product(x1, z1), product(y1, z2),
                                product(x2, u1), product(y2, u2))
                    terms.extend((T, c * coeff) for T, c in concat_terms(
                        amb.pres.sectors, x.tag, products))
    return lhs == sum_terms(lhs.amb, terms, x.tag)


# ---------------------------------------------------------------------------
# generation closure

@dataclass
class GenerationReport:
    reached_full: bool
    rank: int
    full_rank: int
    rounds: int
    generator_count: int


def closure_generators(amb):
    """The scaled-basis coefficient dicts generating the lattice: the
    sector-'a' basis elements, then each degree-one cell outside sector
    'a' starred with the unit of degree d - 1 (where nonzero)."""
    sectors = amb.pres.sectors
    gens = [{T: 1} for T in amb.basis()
            if all(sectors[c[0]] == 'a' for c in T)]
    if amb.d >= 1:  # at degree 0 there are no cells to spread
        unit_small = identity(amb.graded(amb.d - 1))
        for lb in range(amb.pres.dim):
            if sectors[lb] == 'a':
                continue
            for r in range(1, amb.n + 1):
                for s in range(1, amb.n + 1):
                    cell_elt = amb.graded(1).scaled_element((((lb, r, s)),))
                    spread = star(unit_small, cell_elt) if amb.d > 1 else cell_elt
                    if spread:
                        gens.append(spread.coeffs)
    return gens


def generation_closure(amb, max_rounds=30):
    """Lattice generated by the sector-'a' part and the spread degree-one
    cells, closed under the composition product.

    Returns a GenerationReport; reached_full means the closure equals the
    whole scaled-basis lattice (full rank, all elementary divisors 1).
    The closure is kept as an echelon basis, which is triangular with
    positive pivots, so it is the whole lattice exactly when it has one
    row per basis element and every pivot is 1.

    With G the generators, L_0 = span G and L_{k+1} = L_k + L_k G + G L_k;
    a round computes one step and rounds counts them up to the first that
    adds nothing (or max_rounds).  L_k is the span of the products of at
    most k + 1 generators, and each such product is a shorter one times a
    generator on the right, so L_{k+1} = L_k + L_k G: left products by G
    are never formed.  The closure runs as a worklist: level 0 is the
    generators whose addition grew the lattice, level k+1 the products
    x*g (``multiply``), x in level k, whose addition grew it.  L_k is
    L_{k-1} plus the span of level k, and products are bilinear, so
    processing level k gives exactly L_{k+1}: the lattice and rounds are
    those of multiplying every lattice row by every generator, on both
    sides, each round.
    """
    schur._require_unital_pair(amb, "generation closure")
    basis = amb.basis()
    index = {T: i for i, T in enumerate(basis)}
    nb = len(basis)
    gens = [SchurElement(amb, g, SCALED) for g in closure_generators(amb)]
    lattice = {}

    def grows(x):
        row = {}
        for T, c in x.coeffs.items():
            if isinstance(c, Fraction) and c.denominator != 1:
                raise ValueError("generator is not a lattice point")
            row[index[T]] = int(c)
        return add_row_to_lattice(lattice, row)

    level = [g for g in gens if grows(g)]
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        level = [p for x in level for p in (multiply(x, g) for g in gens)
                 if p and grows(p)]
        if not level:
            break
    rank = len(lattice)
    reached = rank == nb and all(row[p] == 1 for p, row in lattice.items())
    return GenerationReport(reached, rank, nb, rounds, len(gens))
