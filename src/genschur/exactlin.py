"""Exact integer and rational sparse linear algebra.

Everything here works over Python ints (arbitrary precision); no
floating point is ever used.  The lattice routines
(Smith form, echelon lattice bases, integer kernels) back the
divisibility and double-centralizer verdicts elsewhere in the package, so
their contracts are stated carefully.

One engine does the lattice work: ``add_row_to_lattice`` keeps an
echelon basis {pivot column: row} of the lattice spanned by the rows
added so far, every row a sparse dict {column: int}; the pivot is a
row's least column.  The only contract is increasing, positive pivots:
entries above a pivot are never reduced, so the basis is not a Hermite
normal form and two bases of one lattice may differ.
``row_echelon_lattice`` lists such a basis and ``solve_in_lattice``
reads it.  The kernel and the Smith form are both read off echelon
bases, after Kannan and Bachem (SIAM J. Comput. 8, 1979), who get both
from echelon steps alone; their reduction above each new pivot, which
scans the whole basis, is left out:

* ``integer_kernel(rows, ncols)`` takes sparse rows of (column,
  coefficient) pairs and returns an echelon basis, as sparse rows by
  increasing positive pivot, of the full kernel *lattice*
  {v in Z^ncols : M v = 0}; the column count is passed, since a system
  with no rows still has unknowns.  The kernel is read off one echelon
  basis of the lattice of pairs (M u, u), the residual M u in columns
  before the unknowns': the basis rows past the residual columns span
  exactly the pairs (0, u), so this lattice is saturated, i.e. every
  rational kernel vector with integer entries is an integer combination
  of the basis.
* ``smith_normal_form`` takes sparse rows and returns the nonzero
  elementary divisors d1 | d2 | ... | dr, all positive.  Echeloning the
  rows and transposing, until the echelon basis is diagonal, keeps the
  lattice's divisors; one gcd/lcm fold (``_divisor_chain``) sorts the
  diagonal into the chain.  Rows of different connected components of
  the row/column graph share no column, so no echelon step combines
  them: a round on a block-diagonal matrix costs what a round on each
  block costs, and the rounds are as many as the slowest block needs.
"""

from __future__ import annotations

from math import gcd


def _divisor_chain(values):
    """The invariant factors of the diagonal matrix with the given entries:
    the nonzero |values| sorted, prime by prime, into d1 | d2 | ... | dr.

    Folding each value x into the chain c1 | c2 | ... with
    (c_i, x) -> (gcd, lcm) is an insertion sort of the exponents of every
    prime at once, with no factoring: 2 then 3 gives 1, 6, and 4 then 6
    gives 2, 12.  A value 1 would sort first in any chain, so those are
    only counted.
    """
    ones = 0
    chain = []
    for x in values:
        x = abs(x)
        if x == 1:
            ones += 1
        elif x:
            for i, c in enumerate(chain):
                g = gcd(c, x)
                chain[i], x = g, c // g * x
            chain.append(x)
    return [1] * ones + chain


def smith_normal_form(rows):
    """Smith normal form of an integer matrix given as a list of sparse
    rows {column: int}; zero entries are dropped.

    Returns (divisors, rank) where divisors = [d1, ..., dr] are the positive
    nonzero elementary divisors with d1 | d2 | ... | dr.  The echelon basis
    of the rows' lattice (``row_echelon_lattice``) is transposed and
    echeloned again until every echelon row has a single entry: a diagonal
    matrix, whose entries ``_divisor_chain`` sorts into the chain.  Each
    round either leaves the first pivot not yet alone in its row and
    column alone there, or lowers it to a proper divisor, so the rounds
    end.
    """
    while True:
        rows = row_echelon_lattice(rows)
        if all(len(row) == 1 for row in rows):
            break
        columns = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                columns.setdefault(j, {})[i] = v
        rows = [columns[j] for j in sorted(columns)]
    divisors = _divisor_chain(v for row in rows for v in row.values())
    return divisors, len(divisors)


def integer_kernel(rows, ncols):
    """Echelon basis of the kernel lattice {v in Z^ncols : r v = 0 for all
    rows r}, as sparse rows {column: int} by increasing positive pivot.

    rows is an iterable of sparse rows, each an iterable of (column,
    coefficient) pairs; a column may repeat and its coefficients add up.
    With no rows the kernel is all of Z^ncols.

    Unknown x gives the pair row (M e_x, e_x): constraint i's coefficient
    of x in the residual column ~i (that is, -1-i, before every unknown's
    column) and a 1 in column x.  These rows are a basis of the lattice
    P = {(M u, u) : u in Z^ncols}.  An echelon basis of P spans its
    intersection with every trailing coordinate subspace, so the basis
    rows whose pivot lies past the residual columns span the (0, u) in P,
    that is every integer u with M u = 0: the kernel is read off them as
    they stand.  It is saturated, every rational kernel vector with
    integer entries in it, since P holds (M u, u) for every integer u.
    """
    pairs = [{x: 1} for x in range(ncols)]
    for i, row in enumerate(rows):
        for x, a in row:
            pair = pairs[x]
            pair[~i] = pair.get(~i, 0) + a
    return [row for row in row_echelon_lattice(pairs) if min(row) >= 0]


def row_echelon_lattice(rows):
    """Echelon basis of the lattice spanned by sparse integer rows.

    Each row is a dict {column: int}.  Returns the basis rows, as such
    dicts, in order of increasing pivot column (a row's least column);
    every pivot entry is positive.  Entries above a pivot are not kept
    reduced: this is not a Hermite normal form.  Adding rows one at a
    time keeps this usable as an incremental lattice accumulator.
    """
    basis = {}  # pivot column -> row
    for row in rows:
        add_row_to_lattice(basis, row)
    return lattice_rows(basis)


def _combine(a, u, b, v):
    """a*u + b*v for sparse rows u, v; zero entries dropped."""
    out = dict(u) if a == 1 else {j: a * x for j, x in u.items()} if a else {}
    for j, y in v.items():
        w = out.get(j, 0) + b * y
        if w:
            out[j] = w
        else:
            out.pop(j, None)
    return out


def add_row_to_lattice(basis, row):
    """Fold one sparse integer row {col: int} into an echelon basis dict
    {pivot_col: row}.  The input row is not modified.

    Returns True if the lattice grew (rank or index changed).
    """
    row = {j: v for j, v in row.items() if v}
    changed = False
    while row:
        piv = min(row)
        b = basis.get(piv)
        if b is None:
            basis[piv] = row if row[piv] > 0 else {j: -v for j, v in row.items()}
            return True
        a, p = row[piv], b[piv]
        if a % p == 0:
            row = _combine(1, row, -(a // p), b)  # keep reducing at later pivots
        else:
            # unimodular 2x2 transform: pivot row becomes the gcd combination
            g, x, y = _xgcd(p, a)
            basis[piv] = _combine(x, b, y, row)
            row = _combine(-(a // g), b, p // g, row)
            changed = True
    return changed


def lattice_rows(basis):
    """The rows of an echelon basis dict, by increasing pivot."""
    return [basis[p] for p in sorted(basis)]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def solve_in_lattice(basis, vec):
    """Express a sparse integer row {col: int} as an integer combination
    of an echelon basis.

    basis is the dict produced by add_row_to_lattice.  Returns the
    coefficient dict {pivot_col: coeff} or None if vec is not in the
    lattice.
    """
    vec = {j: v for j, v in vec.items() if v}
    coeffs = {}
    while vec:
        piv = min(vec)
        b = basis.get(piv)
        if b is None:
            return None
        q, r = divmod(vec[piv], b[piv])
        if r:
            return None
        coeffs[piv] = q
        vec = _combine(1, vec, -q, b)
    return coeffs
