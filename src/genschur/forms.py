"""Central forms, trace forms and Gram matrices.

A central form on a presentation is an even linear functional t with
t(ab) = t(ba).  When t pairs the sector-'a' part perfectly against the
sector-'c' part (and kills 'a' x 'a'), it induces a symmetrizing trace on
the integral subalgebra in every matrix size and degree:

    trace(scaled basis element of T = (b, r, s)) = [r == s] * prod t(b_k)

The Gram matrix of that trace over the scaled basis is then a signed
permutation matrix pairing T = (b, r, s) with (dual letters of b, s, r).
``gram_subalgebra_trace`` is the one Gram routine, on sparse rows
{column: value}; the form checks read the letter Gram matrix [t(b_i b_j)]
as the trace Gram matrix of S(1, 1), whose scaled basis is the letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .combinatorics import canonicalize
from .exactlin import smith_normal_form
from .schur import Ambient, SCALED


@dataclass
class FormReport:
    issues: list = field(default_factory=list)
    dual_letter: list | None = None       # dual_letter[i] = (index, +/-1)

    @property
    def symmetrizing(self):
        return not self.issues


def check_central(pres, t, gram=None):
    """Witnesses for failures of evenness / centrality of t = {label: int},
    the latter the asymmetric entries of the letter Gram matrix (its
    rows gram, built when not given)."""
    issues = [("odd-support", lab) for lab, p in zip(pres.labels, pres.parity)
              if p and t.get(lab, 0)]
    if gram is None:
        gram = gram_subalgebra_trace(Ambient(pres, 1, 1), t).matrix
    for i in range(pres.dim):
        for j in range(pres.dim):
            if gram[i].get(j, 0) != gram[j].get(i, 0):
                issues.append(("centrality", (pres.labels[i], pres.labels[j])))
    return issues


def check_pair_symmetrizing(pres, t):
    """Full validation of a pair-adapted symmetrizing form.

    Checks, with witnesses: centrality, vanishing on 'a' x 'a', a
    unimodular Gram matrix on the whole algebra (perfect pairing) and on
    'a' x 'c'.  On success the report carries the letterwise dual map
    when every dual vector is +/- one basis element.  That map swaps 'a'
    and 'c': the unimodular 'a' x 'c' block of the symmetric Gram matrix
    leaves each 'a' row its only entry in a 'c' column.
    """
    letters = gram_subalgebra_trace(Ambient(pres, 1, 1), t)
    gram = letters.matrix
    rep = FormReport(check_central(pres, t, gram))
    a_idx = pres.sector_indices('a')
    c_idx = pres.sector_indices('c')
    for i in a_idx:
        for j in a_idx:
            if gram[i].get(j):
                rep.issues.append(("pairing-on-a", (pres.labels[i], pres.labels[j])))
    if len(a_idx) != len(c_idx):
        rep.issues.append(("sector-dimensions", (len(a_idx), len(c_idx))))
    else:
        divisors, rank = smith_normal_form(
            [{k: gram[i][j] for k, j in enumerate(c_idx) if j in gram[i]}
             for i in a_idx])
        if rank != len(a_idx) or any(d != 1 for d in divisors):
            rep.issues.append(("pairing-a-c-not-perfect", tuple(divisors)))
    if letters.det_abs != 1:
        divisors, _ = smith_normal_form(gram)
        rep.issues.append(("pairing-not-perfect", tuple(divisors)))
    if rep.issues or not letters.signed_permutation:
        return rep
    # the dual basis is the rows of the inverse Gram matrix, the transpose
    # of the signed permutation, which is itself, as t is central
    rep.dual_letter = [next(iter(row.items())) for row in gram]
    return rep


# ---------------------------------------------------------------------------
# induced traces

def _diagonal_trace(coeffs, vec):
    """Sum over the diagonal keys of coeffs of the coefficient times the
    letter values vec[label index]."""
    total = 0
    for key, c in coeffs.items():
        if any(r != s for (_, r, s) in key):
            continue
        prod = c
        for (lb, _, _) in key:
            prod *= vec[lb]
        total += prod
    return total


def subalgebra_trace(x, t):
    """Trace on the integral subalgebra: diagonal words, letterwise t."""
    vec = [t.get(lab, 0) for lab in x.amb.pres.labels]
    return _diagonal_trace(x.with_tag(SCALED).coeffs, vec)


# ---------------------------------------------------------------------------
# Gram matrix of the subalgebra trace

@dataclass
class GramReport:
    basis: list
    matrix: list              # sparse integer rows {column: value}
    signed_permutation: bool
    det_abs: int | None
    partner_ok: bool | None


def gram_subalgebra_trace(amb, t, dual_letter=None):
    """Gram matrix [trace(x_i x_j)] over the scaled basis, with verdicts.

    Row T is the sparse row {index of U: value} over ``amb.partners(T)``,
    zeros left out: off those columns the product is 0 (at n = d = 1, the
    letter Gram matrix [t(b_i b_j)]).  When the letterwise dual map is
    supplied, also checks that the unique pairing partner of each basis
    triple (b, r, s) is the canonical triple on (dual letters, s, r).
    """
    basis = list(amb.basis())
    index = {T: k for k, T in enumerate(basis)}
    vec = [t.get(lab, 0) for lab in amb.pres.labels]
    matrix = []
    for T in basis:
        row = {}
        for U in amb.partners(T):
            v = _diagonal_trace(amb.scaled_constants(T, U), vec)
            if v:
                row[index[U]] = v
        matrix.append(row)
    # partner[i]: the column of row i's only entry, when that entry is +-1
    partner = [min(row) if list(row.values()) in ([1], [-1]) else None
               for row in matrix]
    signed_perm = None not in partner and len(set(partner)) == len(basis)
    det_abs = 1
    if not signed_perm:
        divisors, rank = smith_normal_form(matrix)
        det_abs = math.prod(divisors) if rank == len(basis) else None
    partner_ok = None
    if dual_letter is not None and signed_perm:
        partner_ok = True
        for i, T in enumerate(basis):
            cells = tuple((dual_letter[lb][0], s, r) for (lb, r, s) in T)
            res = canonicalize(cells, amb.odd)
            if res is None or index.get(res[0]) != partner[i]:
                partner_ok = False
                break
    return GramReport(basis, matrix, signed_perm, det_abs, partner_ok)
