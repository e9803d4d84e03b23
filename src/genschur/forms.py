"""Central forms, trace forms and Gram matrices.

A central form on a presentation is an even linear functional t with
t(ab) = t(ba).  When t pairs the sector-'a' part perfectly against the
sector-'c' part (and kills 'a' x 'a'), it induces a symmetrizing trace on
the integral subalgebra in every matrix size and degree:

    trace(scaled basis element of T = (b, r, s)) = [r == s] * prod t(b_k)

The Gram matrix of that trace over the scaled basis is then a signed
permutation matrix pairing T = (b, r, s) with (dual letters of b, s, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exactlin import smith_normal_form
from .schur import SCALED


@dataclass
class FormReport:
    issues: list = field(default_factory=list)
    dual_letter: list | None = None       # dual_letter[i] = (index, +/-1)

    @property
    def symmetrizing(self):
        return not self.issues


def check_central(pres, t):
    """Witnesses for failures of centrality / evenness of t = {label: int}."""
    issues = []
    vec = [t.get(lab, 0) for lab in pres.labels]
    for i in range(pres.dim):
        if pres.parity[i] and vec[i]:
            issues.append(("odd-support", pres.labels[i]))
    for i in range(pres.dim):
        for j in range(pres.dim):
            tij = sum(c * vec[k] for k, c in pres.mult_basis(i, j).items())
            tji = sum(c * vec[k] for k, c in pres.mult_basis(j, i).items())
            if tij != tji:
                issues.append(("centrality", (pres.labels[i], pres.labels[j])))
    return issues


def check_pair_symmetrizing(pres, t):
    """Full validation of a pair-adapted symmetrizing form.

    Checks, with witnesses: centrality, vanishing on 'a' x 'a', a
    unimodular Gram matrix on the whole algebra (perfect pairing) and on
    'a' x 'c'.  On success the report carries the letterwise dual map
    when every dual vector is +/- one basis element.
    """
    rep = FormReport()
    rep.issues.extend(check_central(pres, t))
    vec = [t.get(lab, 0) for lab in pres.labels]
    n = pres.dim

    def pairing(i, j):
        return sum(c * vec[k] for k, c in pres.mult_basis(i, j).items())

    a_idx = pres.sector_indices('a')
    c_idx = pres.sector_indices('c')
    for i in a_idx:
        for j in a_idx:
            if pairing(i, j):
                rep.issues.append(("pairing-on-a", (pres.labels[i], pres.labels[j])))
    if len(a_idx) != len(c_idx):
        rep.issues.append(("sector-dimensions", (len(a_idx), len(c_idx))))
    else:
        gram_ac = [{k: pairing(i, j) for k, j in enumerate(c_idx)}
                   for i in a_idx]
        divisors, rank = smith_normal_form(gram_ac)
        if rank != len(a_idx) or any(d != 1 for d in divisors):
            rep.issues.append(("pairing-a-c-not-perfect", tuple(divisors)))
    gram = [[pairing(i, j) for j in range(n)] for i in range(n)]
    divisors, rank = smith_normal_form([dict(enumerate(row)) for row in gram])
    if rank != n or any(d != 1 for d in divisors):
        rep.issues.append(("pairing-not-perfect", tuple(divisors)))
        return rep
    if rep.issues:
        return rep
    # the dual basis is the rows of the inverse Gram matrix; they are
    # letterwise exactly when the (invertible) Gram matrix is a signed
    # permutation, whose inverse is its transpose
    cols = [[(j, gram[j][i]) for j in range(n) if gram[j][i]] for i in range(n)]
    if all(len(col) == 1 and col[0][1] in (1, -1) for col in cols):
        rep.dual_letter = [col[0] for col in cols]
        # sector swap of the letterwise duals
        for i in range(n):
            j, _ = rep.dual_letter[i]
            si, sj = pres.sectors[i], pres.sectors[j]
            ok = (si, sj) in (('a', 'c'), ('c', 'a'), ('odd', 'odd'))
            if not ok:
                rep.issues.append(("dual-sector-swap",
                                   (pres.labels[i], pres.labels[j])))
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
    matrix: list              # dense integer rows
    signed_permutation: bool
    det_abs: int | None
    partner_ok: bool | None


def gram_subalgebra_trace(amb, t, dual_letter=None):
    """Gram matrix [trace(x_i x_j)] over the scaled basis, with verdicts.

    Row T is 0 off the columns ``amb.partners(T)``, where the product is
    0.  When the letterwise dual map is supplied, also checks that the
    unique pairing partner of each basis triple (b, r, s) is the
    canonical triple on (dual letters, s, r).
    """
    basis = list(amb.basis())
    index = {T: k for k, T in enumerate(basis)}
    vec = [t.get(lab, 0) for lab in amb.pres.labels]
    matrix = []
    for T in basis:
        row = [0] * len(basis)
        for U in amb.partners(T):
            row[index[U]] = _diagonal_trace(amb.scaled_constants(T, U), vec)
        matrix.append(row)
    # partner[i]: the column of row i's only entry, when that entry is +-1
    partner = []
    for row in matrix:
        support = [j for j, v in enumerate(row) if v]
        unit = len(support) == 1 and row[support[0]] in (1, -1)
        partner.append(support[0] if unit else None)
    signed_perm = None not in partner and len(set(partner)) == len(basis)
    det_abs = 1
    if not signed_perm:
        divisors, rank = smith_normal_form(
            [dict(enumerate(row)) for row in matrix])
        det_abs = math.prod(divisors) if rank == len(basis) else None
    partner_ok = None
    if dual_letter is not None and signed_perm:
        partner_ok = True
        from .combinatorics import canonicalize
        for i, T in enumerate(basis):
            cells = tuple((dual_letter[lb][0], s, r) for (lb, r, s) in T)
            res = canonicalize(cells, amb.odd)
            if res is None or index.get(res[0]) != partner[i]:
                partner_ok = False
                break
    return GramReport(basis, matrix, signed_perm, det_abs, partner_ok)

