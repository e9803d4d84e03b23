"""Idempotent truncations, endomorphism lattices and soundness verdicts.

For an algebra lattice S with basis {x_i} and an idempotent e, left
multiplication gives an algebra map from S into the endomorphisms of the
right e*S*e-module S*e.  Three exact verdicts are computed:

* dcp_over_fractions: the map is an isomorphism after tensoring with Q,
  i.e. it is injective and the endomorphism algebra has the same rational
  dimension as S;
* sound: the map sends indivisible lattice elements to indivisible ones,
  i.e. its image inside the endomorphism lattice has all elementary
  divisors equal to 1 (and full rank);
* dcp: both, which is equivalent to the map being an isomorphism over the
  integers.

The endomorphism lattice is the set of integer matrices on S*e commuting
with all right multiplications from e*S*e.  Commuting with a set G of
e*S*e keys that generates e*S*e (x) Q as an algebra is the same
condition, so the constraints come from G only (``spanning_keys``: a
greedy choice, fewest non-'a' cells first, certified by their exact
rank over Q).  For ext-zigzag:1 at n=d=3, 43 keys of 1,140 generate.  The
lattice is computed exactly, as the integer kernel of the commutation
constraints, block by block.  Corners and blocks are read off the cells
(``combinatorics.weight``): a key is in S*e (e*S*e) when e fixes its
letters on the right (and left), and the weight idempotent of S fixing
it on the left (right) is its weight, its cells counted by row (column)
per member of an orthogonal idempotent family of A owning their
letters.  The weights split the solution space into independent
subproblems (rows by left weight of the source and target, for the
family of the unit; columns by right weight, for the family of e),
which keeps the kernels small.  The column weights also filter the
right products: v*m vanishes unless the right weight of v is the left
weight of m.  A product of two keys is one read of the ambient's table
(``scaled_constants``; the orbit basis's ``structure_constants`` derives
from it), which gives 0, unstored, for a pair whose side keys do not
meet: s*v is 0 unless the right key of s is the left key of v.  Each block's
constraints stream as sparse rows into ``exactlin.integer_kernel``, which
returns the echelon basis of the block's kernel lattice.

Left multiplication (lambda) is block-diagonal too.  The weight
idempotents xi_i of the unit family sum to 1 (Green, LNM 830), so an S
key s of left weight i and right weight j is xi_i*s*xi_j: s*v is 0 unless
v has row weight j, and every output has row weight i, so lambda(s) lies
in the hom block (j, i).  Each s is multiplied only by its partners in
S*e (``Ambient.partners``: the keys whose left side key is the right key
of s), and its entries are solved in the echelon kernel basis of its
block.  The blocks are walked once: a block's layout and kernel are
built, lambda's columns for its keys solved in them, and both dropped
before the next block, so only each block's kernel rank and sparse
lambda columns are kept.  lambda's Smith form is that of each block's
transpose, whose rows are its columns (``exactlin.smith_normal_form``).

The hom blocks come in orbits of the symmetric group S_n relabeling the
matrix indices 1..n.  Relabeling the rows and columns of every cell of a
basis triple by sigma, then canonicalizing with the sign
``combinatorics.canonicalize`` returns, is an algebra automorphism of S
in both bases: it is conjugation by the permutation matrix of sigma
(``schur.permutation_element``), and it keeps the scale of a triple.  It
fixes e, the d-th tensor power of e_vec in every diagonal slot, so it
maps S*e and e*S*e onto themselves, the weight of a key onto its
sigma-image (Green, LNM 830: the Weyl group permutes the weight spaces),
the hom block of weights (i, j) onto the block (sigma i, sigma j), and
the left multiplication by s onto that by sigma(s), up to the signs of
the keys.  So the lambda blocks of an orbit have one rank and one set of
divisors.  The orbit of a block is read off its two weights
(``block_orbit_key``), and only the first block of each orbit is solved,
with lambda for its keys; the verdict counts the divisors and the kernel
rank of a solved block once per block of its orbit.  At n = 1 every
orbit is a single block.

The algebra is a generalized Schur algebra S = S^A(n, d) in one of its
two bases (scaled or orbit).  A presentation A is its own case n = d = 1:
the scaled table of ``Ambient(A, 1, 1)`` is the table of A.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

from . import schur, superalgebra
from .combinatorics import weight
from .exactlin import (
    _divisor_chain, add_row_to_lattice, integer_kernel, smith_normal_form,
    solve_in_lattice,
)
from .schur import SCALED


@dataclass
class HomLattice:
    generators: list   # the e*S*e keys whose commutation is imposed
    blocks: dict = field(default_factory=dict)
    # blocks[(i, j)] = the first block of the S_n orbit of (i, j), for
    # every block; a solved block is its own first
    solved: list = field(default_factory=list)
    # (block, rank of its kernel lattice, its lambda columns) for the
    # first block of each S_n orbit, in order of the weight pairs; the
    # columns are ``lambda_matrix``'s for the S keys of the block

    @property
    def rank(self):
        orbit = Counter(self.blocks.values())
        return sum(rank * orbit[b] for b, rank, _ in self.solved)


@dataclass
class TruncationSetup:
    amb: object
    tag: str
    product: object       # product(T, U) of basis keys: the ambient's table
                          # in scaling tag, raising on a non-integral entry
    se_keys: list
    ese_keys: list
    unit_family: object   # idempotents of A: row blocks by left weight
    e_family: object      # idempotents of A: column blocks by right weight

    @cached_property
    def se_set(self):     # built once, not once per solved block
        return frozenset(self.se_keys)


def truncation_setup(amb, e_vec, tag=SCALED):
    """Corner data for the spread idempotent e of an algebra-level
    idempotent e_vec ({label_index: int}) in scaling tag.

    e must be a nonzero idempotent lattice point.  S*e has the keys whose
    letters b all have b*e_vec == b (e*S*e: and e_vec*b == b; else 0, or
    ValueError naming the label of b).  The blocks are weights for the
    orthogonal idempotents of A summing to the unit (None without a unital
    pair) and to e_vec.  Products of keys are read off the ambient's table
    for tag (``scaled_constants`` or ``structure_constants``); the one
    element product is the idempotence check of e.
    """
    e_vec = dict(e_vec)
    e = schur.idempotent_sum(amb, e_vec, tag)
    if not e:
        raise ValueError("truncation element is zero")
    if any(isinstance(v, Fraction) for v in e.coeffs.values()):
        raise ValueError("truncation element is not a lattice point")
    if e * e != e:
        raise ValueError("truncation element is not idempotent")
    table = amb.scaled_constants if tag == SCALED else amb.structure_constants

    def product(T, U):
        got = table(T, U)
        if any(isinstance(v, Fraction) for v in got.values()):
            raise ValueError("non-integral product in the lattice")
        return got

    pres = amb.pres
    label = pres.labels.__getitem__
    right = superalgebra.corner_keys(pres.mult, range(pres.dim), right=e_vec,
                                     name=label)
    both = superalgebra.corner_keys(pres.mult, right, left=e_vec, name=label)
    se_keys = [k for k in amb.basis() if all(c[0] in right for c in k)]
    ese_keys = [k for k in se_keys if all(c[0] in both for c in k)]
    unit_family = ((superalgebra.corner_family(pres, pres.unit)
                    or [dict(pres.unit)]) if pres.unital_good_pair() else None)
    return TruncationSetup(amb, tag, product, se_keys, ese_keys, unit_family,
                           superalgebra.corner_family(pres, e_vec) or [e_vec])


def _weights(setup, keys, family, side):
    """{key: its weight for family on one side}, the block of each key;
    with no family every key is in block 0."""
    if family is None:
        return {k: 0 for k in keys}
    pres, n = setup.amb.pres, setup.amb.n
    letters = sorted({c[0] for k in keys for c in k})
    owner = superalgebra.owners(pres.mult, letters, family, side)
    return {k: weight(k, owner, len(family), n, side) for k in keys}


def block_orbit_key(i, j):
    """The S_n orbit of the hom block (i, j), as an invariant.

    Relabeling by sigma moves the counts at index r of both weights to
    sigma(r), so two blocks lie in one orbit exactly when their columns,
    the counts of i and j at each index, agree as multisets.  Block 0 of
    no family is its own orbit.
    """
    if i == 0:
        return i, j
    return tuple(sorted(zip(zip(*i), zip(*j))))


def spanning_keys(setup, keys):
    """The keys, taken from keys in order, that generate e*S*e (x) Q as an
    algebra; None if all of keys do not.

    A key is kept when it lies outside the rational span of C, the
    products g1*...*gk (k >= 1) of the keys kept before it.  C grows as a
    worklist: a kept key g adds itself and the old spanning vectors times
    g, and each vector that grows the span is multiplied by every kept
    key on the right.  A key inside C adds nothing, as C*g lies in C*C,
    inside C.  The span is an echelon lattice basis of C's integer
    vectors, and a vector grows it when it adds a pivot, so its size is
    the rank of C over Q: full rank certifies, exactly, that the kept
    keys generate e*S*e (x) Q.
    """
    col = {m: t for t, m in enumerate(setup.ese_keys)}
    span = {}       # echelon lattice basis of C, a column per e*S*e key

    def grows(x):
        rank = len(span)
        add_row_to_lattice(span, {col[m]: c for m, c in x.items()})
        return len(span) > rank

    spanning = []   # the vectors that grew the span; they span C
    kept = []
    for g in keys:
        unit = {g: 1}
        if not grows(unit):
            continue
        kept.append(g)
        pending = [(x, g) for x in spanning] + [(unit, h) for h in kept]
        spanning.append(unit)
        while pending:
            x, h = pending.pop()
            y = superalgebra.bilinear(setup.product, x, {h: 1})
            if y and grows(y):
                spanning.append(y)
                pending.extend((y, h2) for h2 in kept)
    return kept if len(span) == len(col) else None


def hom_lattice_from_setup(setup):
    """The endomorphism lattice of S*e over e*S*e, as the integer matrices
    commuting with right multiplication by each of some e*S*e keys.

    The keys are ``spanning_keys`` of the e*S*e keys taken with the
    fewest non-'a' cells first.  Over every key the span reaches full
    rank (each key is kept or already in it), so some keys always pass
    the certificate.  The lattice does not depend on the choice: a matrix
    commuting with each generator commutes with their products and their
    rational combinations, which span e*S*e (x) Q.

    Blocks are taken in order of their weight pairs, and a block is
    solved only when it is the first of its S_n orbit (``block_orbit_key``):
    its layout is built, its kernel taken, and lambda solved in them for
    the S keys of the block (``lambda_matrix``), before the next block
    starts.  Only the kernel's rank and lambda's columns are kept.  The S
    keys of a weight pair with no hom block are multiplied too, and must
    kill S*e.
    """
    product = setup.product
    se_keys = setup.se_keys
    sectors = setup.amb.pres.sectors
    keys = spanning_keys(setup, sorted(
        setup.ese_keys, key=lambda m: sum(sectors[c[0]] != 'a' for c in m)))
    s_keys = setup.amb.basis()
    # an S key of left weight i and right weight j for the unit family
    # sends S*e into the hom block (j, i); an S*e key's row block is i
    left = _weights(setup, s_keys, setup.unit_family, "left")
    right = _weights(setup, s_keys, setup.unit_family, "right")
    col_block = _weights(setup, se_keys, setup.e_family, "right")
    ese_left = _weights(setup, keys, setup.e_family, "left")
    by_block = {}
    for s in s_keys:
        by_block.setdefault((right[s], left[s]), []).append(s)

    se_set = setup.se_set
    se_by_col = {}
    se_by_block = {}
    for k in se_keys:
        se_by_col.setdefault(col_block[k], []).append(k)
        se_by_block.setdefault((left[k], col_block[k]), []).append(k)
    # right multiplication tables on S*e.  v*m = v*f*f'*m vanishes unless
    # the weight idempotent f fixing v on the right is the f' fixing m on
    # the left, so only the S*e keys of column block ese_left[m] are tried.
    rmul = {}   # m -> {v: v*m}
    into = {}   # m -> {row block: {w': [(w, (w*m)_w')]}}
    for m in keys:
        cols = {}
        into_m = {}
        for v in se_by_col.get(ese_left[m], []):
            prod = product(v, m)
            for k, c in prod.items():
                if k not in se_set:
                    raise AssertionError("right multiplication left the corner span")
                into_m.setdefault(left[k], {}).setdefault(k, []).append((v, c))
            if prod:
                cols[v] = prod
        rmul[m] = cols
        into[m] = into_m

    row_ids = sorted({i for i, _ in se_by_block})
    col_ids = sorted(set(col_block.values()))

    def commutation_rows(i, j, pos):
        """Sparse rows of f(v)*m == f(v*m) for f from block i to block j:
        one per S*e key v of row block i and target coordinate w'."""
        for m in keys:
            cols = rmul[m]
            into_mj = into[m].get(j, {})
            # m is an S*e key too, so col_block gives its right block
            targets = se_by_block.get((j, col_block[m]), [])
            for v in se_by_block.get((i, ese_left[m]), []):
                vm = cols.get(v)
                # with v*m = 0 only the w' reached by some w*m have a row
                for wp in (targets if vm else into_mj):
                    # f(v)*m at w': sum over w of F[w, v] * (w*m)_w'
                    row = [(pos[(w, v)], c) for w, c in into_mj.get(wp, ())]
                    # f(v*m) at w': sum over v' of (v*m)_v' * F[w', v']
                    if vm:
                        try:
                            row += [(pos[(wp, vp)], -c) for vp, c in vm.items()]
                        except KeyError:
                            raise AssertionError("layout misses a coordinate")
                    yield row

    def solve(i, j):
        """(block, kernel rank, lambda columns) of the block (i, j); its
        layout and kernel die on return."""
        pos = {}
        for cb in col_ids:
            ws = se_by_block.get((j, cb), [])
            for v in se_by_block.get((i, cb), []):
                for w in ws:
                    pos[(w, v)] = len(pos)
        kernel = integer_kernel(commutation_rows(i, j, pos), len(pos))
        return ((i, j), len(kernel),
                lambda_matrix(setup, by_block.get((i, j), []), pos, kernel))

    hl = HomLattice(list(keys))
    first = {}   # orbit key -> the orbit's first block
    for i in row_ids:
        for j in row_ids:
            b = hl.blocks[(i, j)] = first.setdefault(block_orbit_key(i, j), (i, j))
            if b == (i, j):   # its orbit's first block is solved
                hl.solved.append(solve(i, j))
    # an empty layout: the keys of no hom block must kill S*e
    lambda_matrix(setup, [s for b, ks in by_block.items()
                          if b not in hl.blocks for s in ks], {}, [])
    return hl


def lambda_matrix(setup, keys, positions, kernel):
    """Coordinates of left multiplication by the S keys of one hom block
    in the block's endomorphism lattice.

    positions {(w_key, v_key): position} numbers the block's coordinates,
    and kernel, the echelon basis of its kernel lattice, is sparse rows
    {position: int} by increasing pivot.  Returns one column per key, in
    order: the coordinate vector of the image of the key over the kernel
    basis, as (row, int) pairs by increasing row, rows numbering that
    basis, zeros left out.  For ext-zigzag:1 at n=d=3 the 556 solved
    blocks give 5,614 nonzeros in 2,770 columns, against 15,405 S keys.

    Each key is multiplied by its partners in S*e, and each column is
    solved in the kernel basis; with an empty layout the keys must kill
    S*e.  Raises if a product leaves S*e, has an entry outside the layout,
    or does not lie in the lattice (an internal inconsistency).
    """
    product = setup.product
    se_set = setup.se_set
    # the kernel is in echelon form: {pivot column: row} is the basis
    # solve_in_lattice reads, and a row's pivot is its least column
    basis = {min(row): row for row in kernel}
    slot = {p: t for t, p in enumerate(basis)}
    columns = []
    for s in keys:
        vec = {}
        for v in setup.amb.partners(s):
            if v not in se_set:
                continue
            for k, c in product(s, v).items():
                if k not in se_set:
                    raise AssertionError("left multiplication left the corner span")
                t = positions.get((k, v))
                if t is None:
                    raise AssertionError(
                        "left multiplication has an entry outside its block layout")
                vec[t] = c
        coeffs = solve_in_lattice(basis, vec)
        if coeffs is None:
            raise AssertionError(
                "left multiplication is not in the endomorphism lattice")
        # solve_in_lattice meets the pivots in increasing order
        columns.append([(slot[p], c) for p, c in coeffs.items()])
    return columns


@dataclass
class DcpReport:
    rank_q: int
    dim_s: int
    dim_end_q: int
    divisors: list
    dcp_over_fractions: bool
    sound: bool
    dcp: bool
    scaling: str

    def to_json_dict(self):
        return asdict(self)


def dcp_verdict_from_setup(setup):
    hl = hom_lattice_from_setup(setup)
    # lambda is block-diagonal, each block of an orbit with the divisors
    # of the orbit's solved block
    orbit = Counter(hl.blocks.values())
    found = []
    for b, _, columns in hl.solved:
        found += smith_normal_form([dict(col) for col in columns])[0] * orbit[b]
    divisors = _divisor_chain(found)
    rank = len(divisors)
    dim_s = len(setup.amb.basis())
    dim_end = hl.rank
    over_q = (rank == dim_s) and (dim_end == dim_s)
    sound = (rank == dim_s) and all(d == 1 for d in divisors)
    return DcpReport(rank, dim_s, dim_end, divisors, over_q, sound,
                     over_q and sound, setup.tag), hl


def schur_dcp(amb, e_algebra_idempotent, tag=SCALED):
    """Verdict for an invariant algebra lattice and the spread idempotent
    of an algebra-level idempotent (given as {label_index: int})."""
    return dcp_verdict_from_setup(
        truncation_setup(amb, e_algebra_idempotent, tag))
