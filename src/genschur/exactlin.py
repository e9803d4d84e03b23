"""Exact integer and rational sparse linear algebra.

Everything here works over Python ints (arbitrary precision); no
floating point is ever used.  The lattice routines
(Smith form, echelon lattice bases, integer kernels) back the
divisibility and double-centralizer verdicts elsewhere in the package, so
their contracts are stated carefully.  A matrix is a list of dense
integer rows unless a routine says it takes sparse rows or columns.

* ``smith_normal_form`` returns the nonzero elementary divisors
  d1 | d2 | ... | dr, all positive.  Its pivot loop leaves a diagonal
  matrix, and one gcd/lcm fold (``_divisor_chain``) sorts the diagonal
  into the chain.  ``smith_by_components`` returns the same for a sparse
  matrix given by columns: it takes the Smith form of each connected
  component of the row/column graph and folds the divisors of all
  components once.
* ``integer_kernel(rows, ncols)`` returns a basis of the full kernel
  *lattice* {v in Z^ncols : M v = 0}; the column count is passed, since
  a system with no rows still has unknowns.  This lattice is saturated, i.e.
  every rational kernel vector with integer entries is an integer
  combination of the basis.  ``presolved_kernel`` returns a basis of the
  same lattice from sparse rows, eliminating the rows x = 0 and x = +-y
  before the kernel.
* ``rational_rank`` is the rank over Q, computed fraction-free.
* ``add_row_to_lattice`` keeps an echelon basis {pivot column: row} of
  the lattice spanned by the rows added so far, every row a sparse dict
  {column: int}; the pivot is a row's least column.  The only contract
  is increasing, positive pivots: entries above a pivot may leave
  [0, pivot), so the basis is not a Hermite normal form and two bases of
  one lattice may differ.  ``solve_in_lattice`` reads that dict.
  ``add_row_mod_p`` keeps the same kind of dict over Z/p, every pivot 1,
  for ranks modulo a prime, which bound ranks over Q from below.
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
    """Smith normal form of an integer matrix given as a list of rows.

    Returns (divisors, rank) where divisors = [d1, ..., dr] are the positive
    nonzero elementary divisors with d1 | d2 | ... | dr.  Pivoting on an
    entry of least absolute value leaves a diagonal matrix, whose entries
    ``_divisor_chain`` sorts into the chain.
    """
    a = [list(r) for r in rows]
    nr, nc = len(a), (len(a[0]) if a else 0)

    def row_op(i, k, q):  # row i -= q * row k
        ai, ak = a[i], a[k]
        for j in range(nc):
            ai[j] -= q * ak[j]

    def col_op(j, k, q):  # col j -= q * col k
        for i in range(nr):
            a[i][j] -= q * a[i][k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]

    def swap_cols(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # pick pivot of least absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                v = row[j]
                if v:
                    if best is None or abs(v) < best:
                        best = abs(v)
                        piv = (i, j)
                        if best == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t below the pivot
            again = False
            for i in range(t + 1, nr):
                v = a[i][t]
                if v:
                    q = v // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:  # remainder smaller than pivot: swap up, restart
                        swap_rows(t, i)
                        again = True
            if again:
                continue
            for j in range(t + 1, nc):
                v = a[t][j]
                if v:
                    q = v // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        again = True
            if not again:
                break
        t += 1

    divisors = _divisor_chain(a[i][i] for i in range(t))
    return divisors, len(divisors)


def column_components(columns):
    """The connected components of the row/column graph of a sparse
    matrix, as dense row lists.

    columns[t] is the t-th column as (row, int) pairs; a row and a column
    are joined when the column has an entry in the row.  Empty columns
    and rows belong to no component.  Up to the order of the components,
    of the rows and of the columns, the matrix is block diagonal with
    these blocks.
    """
    parent = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for col in columns:
        if col:
            r = find(col[0][0])
            for i, _ in col[1:]:
                s = find(i)
                if s != r:
                    parent[s] = r
    by_root = {}
    for col in columns:
        if col:
            by_root.setdefault(find(col[0][0]), []).append(col)
    blocks = []
    for cols in by_root.values():
        rows = sorted({i for col in cols for i, _ in col})
        at = {i: k for k, i in enumerate(rows)}
        dense = [[0] * len(cols) for _ in rows]
        for t, col in enumerate(cols):
            for i, v in col:
                dense[at[i]][t] += v
        blocks.append(dense)
    return blocks


def smith_by_components(columns):
    """Smith normal form of a sparse matrix given by columns of (row, int)
    pairs: (divisors, rank) as ``smith_normal_form`` returns them.

    The Smith form is taken per connected component, and the divisors of
    all components are sorted into one chain by ``_divisor_chain``: they
    are not simply concatenated, as diag(2, 3) has divisors (1, 6).
    """
    divisors = []
    for block in column_components(columns):
        divisors += smith_normal_form(block)[0]
    divisors = _divisor_chain(divisors)
    return divisors, len(divisors)


def integer_kernel(rows, ncols):
    """Basis of the kernel lattice {v in Z^ncols : r v = 0 for all rows r}.

    rows are dense integer rows of length ncols; with no rows the kernel
    is all of Z^ncols.  The result is a list of integer vectors; the
    lattice they span is saturated (kernels of integer matrices always
    are), and each basis vector is primitive.
    """
    # kernel basis vectors, maintained as rows of K; invariant: K spans
    # {v : all processed rows are orthogonal to v}
    K = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row in rows:
        support = [(j, v) for j, v in enumerate(row) if v]
        if not support:
            continue
        vals = [sum(k[j] * v for j, v in support) for k in K]
        nz = [i for i, v in enumerate(vals) if v]
        if not nz:
            continue
        # gcd-chain the nonzero dot products into a single position; each
        # pass reduces every value mod the current minimum, so the minimum
        # strictly shrinks until one value remains
        while len(nz) > 1:
            i0 = min(nz, key=lambda i: abs(vals[i]))
            new_nz = [i0]
            for i in nz:
                if i == i0:
                    continue
                q = vals[i] // vals[i0]
                if q:
                    vals[i] -= q * vals[i0]
                    K[i] = [kv - q * k0 for kv, k0 in zip(K[i], K[i0])]
                if vals[i]:
                    new_nz.append(i)
            nz = new_nz
        K = [k for i, k in enumerate(K) if i != nz[0]]
    return [list(k) for k in K]


def presolved_kernel(rows, ncols):
    """Basis of the kernel lattice {v in Z^ncols : r v = 0 for all rows r}.

    rows is an iterable of sparse rows, each an iterable of (column,
    coefficient) pairs; a column may repeat and its coefficients add up.
    The contract is that of ``integer_kernel`` on the dense matrix.

    Rows that fix one unknown to 0 (a*x = 0), or tie two unknowns with
    equal magnitudes (a*x + b*y = 0 with |a| = |b|, so x = -sign(ab)*y),
    are eliminated first: zeroed unknowns are dropped and tied ones merged
    in a signed union-find, where a sign cycle x = -x zeroes the whole
    class.  Substituting into the other rows repeats to a fixed point.
    The substitution is unimodular (every unknown is a signed copy of its
    class representative), so ``integer_kernel`` on the residual system
    over the free representatives, expanded back with the signs, spans
    the same lattice.
    """
    parent = list(range(ncols))
    sign = [1] * ncols        # unknown = sign * parent
    zero = [False] * ncols    # read at class roots only

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for y in reversed(path):  # point every visited unknown at the root
            s *= sign[y]
            parent[y], sign[y] = x, s
        return x, sign[path[0]] if path else 1

    def one_pass(pending):
        """Substitute into each row, apply the rows of one entry or of two
        equal-magnitude entries, and return the other nonzero rows."""
        left = []
        for row in pending:
            acc = {}
            for j, a in row:
                r, s = find(j)
                if not zero[r]:
                    acc[r] = acc.get(r, 0) + s * a
            row = [(r, a) for r, a in acc.items() if a]
            if len(row) == 1:
                zero[row[0][0]] = True
            elif len(row) == 2 and abs(row[0][1]) == abs(row[1][1]):
                (x, a), (y, b) = row   # distinct nonzero roots: x = -sign(ab) y
                parent[x], sign[x] = y, -1 if (a > 0) == (b > 0) else 1
            elif row:
                left.append(row)
        return left

    residual = one_pass(rows)
    while True:
        left = one_pass(residual)
        if len(left) == len(residual):
            break
        residual = left
    # the last pass eliminated no row, so the rows of left are over roots
    roots = [x for x in range(ncols) if parent[x] == x and not zero[x]]
    index = {r: t for t, r in enumerate(roots)}
    dense = []
    for row in left:
        out = [0] * len(roots)
        for r, a in row:
            out[index[r]] = a
        dense.append(out)
    kernel = integer_kernel(dense, len(roots))
    expand = []
    for x in range(ncols):
        r, s = find(x)
        expand.append(None if zero[r] else (index[r], s))
    return [[0 if e is None else e[1] * u[e[0]] for e in expand] for u in kernel]


def rational_rank(rows):
    """Rank over Q of a list of integer rows, by Bareiss fraction-free
    elimination."""
    nc = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    prev = 1
    col = 0
    while rank < len(rows) and col < nc:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            if not any(ri[col:]):
                continue
            f = ri[col]
            for j in range(col, nc):
                ri[j] = (p * ri[j] - f * rows[rank][j]) // prev
        prev = p
        rank += 1
        col += 1
    return rank


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
            _reduce_above(basis, piv)
            return True
        a, p = row[piv], b[piv]
        if a % p == 0:
            row = _combine(1, row, -(a // p), b)  # keep reducing at later pivots
        else:
            # unimodular 2x2 transform: pivot row becomes the gcd combination
            g, x, y = _xgcd(p, a)
            basis[piv] = _combine(x, b, y, row)
            row = _combine(-(a // g), b, p // g, row)
            _reduce_above(basis, piv)
            changed = True
    return changed


def _reduce_above(basis, piv):
    b = basis[piv]
    for p2, r2 in basis.items():
        if p2 != piv and piv in r2:
            q = r2[piv] // b[piv]
            if q:
                basis[p2] = _combine(1, r2, -q, b)


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


def add_row_mod_p(basis, row, p):
    """Fold one sparse row {col: int} into an echelon basis dict
    {pivot_col: row} over Z/p, p prime; every basis row has pivot entry 1
    and entries in [0, p).  The input row is not modified.

    Returns True if the span grew.
    """
    row = {j: v % p for j, v in row.items() if v % p}
    while row:
        piv = min(row)
        b = basis.get(piv)
        if b is None:
            inv = pow(row[piv], -1, p)
            basis[piv] = {j: v * inv % p for j, v in row.items()}
            return True
        q = row[piv]
        for j, v in b.items():
            w = (row.get(j, 0) - q * v) % p
            if w:
                row[j] = w
            else:
                row.pop(j, None)
    return False


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
