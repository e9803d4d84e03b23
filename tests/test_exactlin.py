import random
from fractions import Fraction

import pytest

from genschur.exactlin import (
    smith_normal_form, integer_kernel, row_echelon_lattice,
    add_row_to_lattice, lattice_rows, solve_in_lattice,
)


def _sparse(row):
    """A dense integer row as the sparse row {column: int} the lattice
    routines take."""
    return {j: v for j, v in enumerate(row) if v}


def _smith(rows):
    """smith_normal_form of dense integer rows."""
    return smith_normal_form([_sparse(row) for row in rows])


def rational_rank(rows):
    """Rank over Q of a list of integer rows, by Bareiss fraction-free
    elimination: the independent reference for the library's ranks."""
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


def _determinant(rows):
    """Exact determinant of a square list of rows by cofactor expansion;
    intended for size <= 5."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        v = rows[0][j]
        if not v:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        det += (-1) ** j * v * _determinant(minor)
    return det


def _pairs(rows):
    """Dense integer rows as the sparse rows of (column, coefficient)
    pairs integer_kernel takes."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def _dense(rows, ncols):
    """Sparse rows of (column, coefficient) pairs as dense rows, the
    coefficients of a repeated column added up."""
    dense = [[0] * ncols for _ in rows]
    for out, row in zip(dense, rows):
        for j, a in row:
            out[j] += a
    return dense


def _kernel(rows, ncols):
    """integer_kernel of sparse pair rows, checked against its echelon
    contract (strictly increasing pivots at each row's least column,
    positive pivot entries, no zero entries, columns in range) and
    returned as dense rows."""
    kernel = integer_kernel(rows, ncols)
    pivots = [min(row) for row in kernel]
    assert pivots == sorted(set(pivots)), kernel
    assert all(row[p] > 0 for row, p in zip(kernel, pivots)), kernel
    assert all(v and 0 <= j < ncols for row in kernel for j, v in row.items())
    return [[row.get(j, 0) for j in range(ncols)] for row in kernel]


def _rational_kernel_dimension(rows, nc):
    """dim over Q of the kernel in Q^nc, by Gaussian elimination with
    Fractions."""
    work = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        work[rank] = [v / pv for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return nc - rank


def _dense_integer_kernel(rows, nc):
    """Kernel lattice basis of dense rows by a gcd chain over the dense
    dot products: an independent reference for integer_kernel, compared
    by the lattice it spans, since the bases differ."""
    K = [[int(i == j) for j in range(nc)] for i in range(nc)]
    for row in rows:
        if not any(row):
            continue
        vals = [sum(kv * rv for kv, rv in zip(k, row)) for k in K]
        nz = [i for i, v in enumerate(vals) if v]
        if not nz:
            continue
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


def gcd_all(vec):
    from math import gcd
    g = 0
    for v in vec:
        g = gcd(g, v)
    return g


def test_snf_identity():
    divisors, rank = _smith([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert divisors == [1, 1, 1]
    assert rank == 3


def test_snf_diagonal():
    divisors, rank = _smith([[2, 0], [0, 4]])
    assert divisors == [2, 4]
    assert rank == 2


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        divisors, rank = _smith(rows)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0 and a > 0


def test_snf_determinant_vs_divisor_product():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = _determinant(rows)
        divisors, rank = _smith(rows)
        if det == 0:
            assert rank < n
        else:
            prod = 1
            for d in divisors:
                prod *= d
            assert abs(det) == prod


def test_integer_kernel_forced():
    assert integer_kernel([[(0, 1), (1, -1)]], 2) == [{0: 1, 1: 1}]


def test_integer_kernel_saturation():
    # the kernel of [2 -2] is spanned by (1,1), not (2,2): the pair
    # echelon reads a saturated lattice, here and with three unequal entries
    assert integer_kernel([[(0, 2), (1, -2)]], 2) == [{0: 1, 1: 1}]
    assert _spans_same_lattice(_kernel([[(0, 2), (1, -4), (2, 6)]], 3),
                               [[2, 1, 0], [-3, 0, 1]])


def test_integer_kernel_random_vs_rational_oracle():
    rng = random.Random(23)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(6)]
        ker = _kernel(_pairs(rows), 9)
        # dimension agrees with a Fraction-based Gaussian elimination oracle
        assert len(ker) == _rational_kernel_dimension(rows, 9)
        assert len(ker) == 9 - rational_rank(rows)
        for v in ker:
            assert all(sum(r[j] * v[j] for j in range(9)) == 0 for r in rows)
            assert gcd_all(v) in (0, 1)


def test_rational_rank_trivial():
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rational_rank_agrees_with_snf():
    rng = random.Random(31)
    for _ in range(50):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) if rng.random() < 0.4 else 0
                 for _ in range(nc)] for _ in range(nr)]
        _, rank = _smith(rows)
        assert rational_rank(rows) == rank


def test_row_echelon_lattice_membership():
    rng = random.Random(41)
    for _ in range(20):
        nc = 6
        gens = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(4)]
        basis = {}
        for g in gens:
            add_row_to_lattice(basis, _sparse(g))
        # every generator and random combination solves exactly
        for _ in range(10):
            combo = [0] * nc
            for g in gens:
                c = rng.randint(-3, 3)
                combo = [a + c * b for a, b in zip(combo, g)]
            assert solve_in_lattice(basis, _sparse(combo)) is not None
        rows = lattice_rows(basis)
        dense = [[row.get(j, 0) for j in range(nc)] for row in rows]
        assert rational_rank(dense) == len(rows)


def test_lattice_detects_non_membership():
    basis = {}
    add_row_to_lattice(basis, {0: 2})
    assert solve_in_lattice(basis, {0: 1}) is None
    assert solve_in_lattice(basis, {0: 4}) == {0: 2}


def test_echelon_of_lattice_is_stable():
    rows = row_echelon_lattice([{0: 2, 1: 4}, {0: 3, 1: 6}])
    assert rows == [{0: 1, 1: 2}]


def test_echelon_lattice_property():
    # an echelon basis spans the lattice of its input rows, with
    # increasing positive pivots; entries above a pivot are not pinned
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def row_sets(draw):
        ncols = draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols,
                                      max_size=ncols), max_size=6))
        return rows, ncols

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(row_sets())
    @hypothesis.example(([], 3))                          # no rows
    @hypothesis.example(([[0, 0], [0, 0]], 2))            # zero rows only
    @hypothesis.example(([[2, 4], [3, 6]], 2))            # gcd step
    @hypothesis.example(([[0, 3, 1], [0, -2, 4]], 3))     # pivot not at 0
    def check(case):
        rows, ncols = case
        echelon = row_echelon_lattice(_sparse(r) for r in rows)
        pivots = [min(r) for r in echelon]
        assert pivots == sorted(set(pivots))
        assert all(r[p] > 0 for r, p in zip(echelon, pivots))
        assert all(v for r in echelon for v in r.values())
        assert len(echelon) == rational_rank(rows)
        basis = dict(zip(pivots, echelon))
        for r in rows:
            coeffs = solve_in_lattice(basis, _sparse(r))
            assert coeffs is not None
            assert [sum(c * basis[p].get(j, 0) for p, c in coeffs.items())
                    for j in range(ncols)] == r
        # every echelon row lies in a lattice built from the inputs in
        # another order
        other = {}
        for r in reversed(rows):
            add_row_to_lattice(other, _sparse(r))
        assert all(solve_in_lattice(other, r) is not None for r in echelon)
        assert smith_normal_form(echelon) == _smith(rows)

    check()


def test_lattice_row_is_not_modified():
    basis = {}
    row = {0: -2, 2: 4}
    add_row_to_lattice(basis, row)
    add_row_to_lattice(basis, {0: 3, 1: 1})
    assert row == {0: -2, 2: 4}
    assert lattice_rows(basis)[0][0] == 1


def test_integer_kernel_spans_the_dense_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        ncols = draw(st.integers(1, 9))
        entry = st.one_of(st.just(0), st.just(0), st.just(0),
                          st.integers(-6, 6))  # mostly zero
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             max_size=7))
        # rank-deficient: append integer combinations of earlier rows
        for _ in range(draw(st.integers(0, 3)) if rows else 0):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(ncols)])
        return (draw(st.permutations(rows)) if rows else rows), ncols

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(matrices())
    @hypothesis.example(([[0, 0, 0], [0, 0, 0]], 3))     # zero rows only
    @hypothesis.example(([[3], [0], [-6]], 1))           # one column
    @hypothesis.example(([[1, 2, 0], [2, 4, 0]], 3))     # rank-deficient
    @hypothesis.example(([[0, 2, 0, -2], [0, 0, 0, 0], [0, 4, 0, -4]], 4))
    def check(case):
        rows, ncols = case
        got = _kernel(_pairs(rows), ncols)
        assert _spans_same_lattice(got, _dense_integer_kernel(rows, ncols))

    check()
    # no rows at all: the kernel is the whole lattice
    assert _kernel([], 3) == _dense_integer_kernel([], 3) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _spans_same_lattice(a, b):
    """Each row list is a basis of the lattice the other spans: compared
    by membership, since echelon bases of one lattice may differ."""
    if len(a) != len(b):
        return False
    lat_a, lat_b = {}, {}
    a = [_sparse(row) for row in a]
    b = [_sparse(row) for row in b]
    for row in a:
        add_row_to_lattice(lat_a, row)
    for row in b:
        add_row_to_lattice(lat_b, row)
    return (all(solve_in_lattice(lat_b, row) is not None for row in a)
            and all(solve_in_lattice(lat_a, row) is not None for row in b))


def test_sparse_pair_rows_span_the_dense_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def systems(draw):
        ncols = draw(st.integers(1, 8))
        col = st.integers(0, ncols - 1)
        nonzero = st.integers(-4, 4).filter(bool)

        @st.composite
        def sparse_row(draw):
            kind = draw(st.sampled_from(["one", "equal", "equal", "unequal",
                                         "wide"]))
            if kind == "one":
                return [(draw(col), draw(nonzero))]
            if kind == "wide":
                return draw(st.lists(st.tuples(col, st.integers(-4, 4)),
                                     max_size=5))
            a = draw(nonzero)  # x and y may be one column: a zero or 2x row
            b = (draw(st.sampled_from([a, -a])) if kind == "equal"
                 else draw(nonzero))
            return [(draw(col), a), (draw(col), b)]

        return draw(st.lists(sparse_row(), max_size=10)), ncols

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(systems())
    @hypothesis.example(([], 3))                                 # no rows
    @hypothesis.example(([[(0, 0)], [(1, 3), (1, -3)]], 2))      # zero rows
    @hypothesis.example(([[(0, 1)], [(1, -2)], [(2, 5)]], 3))    # all zeroed
    @hypothesis.example(([[(0, 2), (1, -2)]], 2))                # 2x - 2y
    @hypothesis.example(([[(0, 2), (1, 3)]], 2))                 # |a| != |b|
    @hypothesis.example(([[(0, 1), (1, -1)], [(1, 1), (0, 1)]], 3))  # x = y = -x
    @hypothesis.example(([[(0, 1), (1, 1)], [(1, 1), (2, 1)],
                          [(2, 1), (0, 1)], [(0, 1), (3, 1), (4, -2)]], 5))
    def check(system):
        rows, ncols = system
        want = _dense_integer_kernel(_dense(rows, ncols), ncols)
        got = _kernel(rows, ncols)
        assert _spans_same_lattice(got, want), (rows, got, want)

    check()


def _sympy_smith(rows):
    """(divisors, rank) from sympy's invariant factors: the reference for
    the Smith form and its divisor chain rule."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    want = [abs(int(v)) for v in
            invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if v]
    return want, len(want)


def test_smith_and_kernel_rank_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randint(-5, 5) if rng.random() < 0.5 else 0
                 for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.3 and nr > 1:  # force a dependent row
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        divisors, rank = _smith(rows)
        assert (divisors, rank) == _sympy_smith(rows), rows
        assert smith_normal_form(_columns(rows)) == (divisors, rank), rows
        nullity = len(sympy.Matrix(rows).nullspace())
        assert len(_kernel(_pairs(rows), nc)) == nullity == nc - rank, rows


def test_smith_of_a_sparse_24_by_24_matrix_matches_sympy():
    # a dense pivot loop, pivoting on an entry of least absolute value,
    # ran for over a minute on this matrix
    rng = random.Random(0)
    rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(24)]
            for _ in range(24)]
    assert _smith(rows) == _sympy_smith(rows)


def _columns(rows):
    """The columns of dense integer rows, as sparse rows {row: int}: the
    transpose, which the DCP passes for lambda."""
    ncols = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(ncols)]


def test_smith_normal_form_matches_sympy_on_block_diagonal_matrices():
    # the rows and the columns of a permuted block-diagonal matrix go
    # through one call: no echelon step combines two blocks, and the
    # divisors of all blocks are sorted into one chain
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies

    @st.composite
    def blocks(draw):
        nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        entry = st.one_of(st.just(0), st.integers(-5, 5))
        rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                             min_size=nr, max_size=nr))
        if draw(st.booleans()):  # rank-deficient: a combination of rows
            rows.append([sum(c * r[j] for c, r in zip(
                draw(st.lists(st.integers(-2, 2), min_size=nr,
                              max_size=nr)), rows)) for j in range(nc)])
        scale = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 9]))
        return [[scale * v for v in row] for row in rows]

    @st.composite
    def block_diagonal(draw):
        """A block-diagonal matrix with its rows and columns permuted."""
        parts = draw(st.lists(blocks(), max_size=5))
        nr = sum(len(b) for b in parts)
        nc = sum(len(b[0]) for b in parts)
        rows = []
        at = 0
        for b in parts:
            for row in b:
                rows.append([0] * at + row + [0] * (nc - at - len(row)))
            at += len(b[0])
        rows = [rows[i] for i in draw(st.permutations(range(nr)))]
        order = draw(st.permutations(range(nc)))
        return [[row[j] for j in order] for row in rows]

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(block_diagonal())
    @hypothesis.example([[2, 0], [0, 3]])                  # (1, 6), not (2, 3)
    @hypothesis.example([[4, 0], [0, 6]])                  # (2, 12)
    @hypothesis.example([[-2, 0], [0, 3]])                 # a negative entry
    @hypothesis.example([[2, 0, 0], [0, 2, 0], [0, 0, 3]])  # (1, 2, 6)
    @hypothesis.example([[0, 4, 0], [6, 0, 0], [0, 0, 0]])  # a zero row
    @hypothesis.example([[2, 4, 0], [1, 2, 0], [0, 0, 10]])  # rank-deficient
    @hypothesis.example([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                         [0, 0, 0, 2]])
    def check(rows):
        want = _sympy_smith(rows)
        assert _smith(rows) == want, rows
        assert smith_normal_form(_columns(rows)) == want, rows

    check()
    for rows, want in [([[2, 0], [0, 3]], [1, 6]),
                       ([[4, 0], [0, 6]], [2, 12]),
                       ([[-2, 0], [0, 3]], [1, 6]),
                       ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 2, 6]),
                       ([[0, 4, 0], [6, 0, 0], [0, 0, 0]], [2, 12]),
                       ([[2, 4, 0], [1, 2, 0], [0, 0, 10]], [1, 10])]:
        assert _smith(rows) == (want, len(want)), rows
        assert smith_normal_form(_columns(rows)) == (want, len(want)), rows
    assert smith_normal_form([]) == ([], 0)
