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
with all right multiplications from e*S*e.  It is computed exactly, as the
integer kernel of the commutation constraints, block by block: orthogonal
idempotent families acting diagonally on the basis split the solution
space into independent subproblems (rows by left weight of the source and
target, columns by right weight), which keeps the kernels small.

Inputs are adapters: ``PresentationLattice`` treats a presentation as the
algebra, ``SchurLattice`` wraps an ambient with either basis scaling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import schur, superalgebra
from .combinatorics import compositions, multi_compositions
from .exactlin import (
    integer_kernel, row_echelon_lattice, smith_normal_form, solve_in_lattice,
)
from .schur import SCALED


class PresentationLattice:
    """A presentation viewed as an algebra lattice over its own basis."""

    def __init__(self, pres):
        self.pres = pres
        self.name = pres.name

    def keys(self):
        return list(range(self.pres.dim))

    def mult(self, x, y):
        return self.pres.mult(x, y)

    def row_family(self):
        # None without a visible family, which needs the unit
        return superalgebra.corner_family(self.pres, self.pres.unit)

    def corner_family(self, e):
        fam = superalgebra.corner_family(self.pres, e)
        return [dict(e)] if fam is None else fam


class SchurLattice:
    """An ambient with a basis scaling viewed as an algebra lattice."""

    def __init__(self, amb, tag=SCALED):
        self.amb = amb
        self.tag = tag
        self.name = f"{amb.pres.name}(n={amb.n},d={amb.d},{tag})"

    def keys(self):
        return list(self.amb.basis())

    def _elem(self, x):
        return schur.SchurElement(self.amb, x, self.tag)

    def mult(self, x, y):
        coeffs = schur.multiply(self._elem(x), self._elem(y)).with_tag(self.tag).coeffs
        if any(isinstance(v, Fraction) for v in coeffs.values()):
            raise AssertionError("non-integral product in the lattice")
        return coeffs

    def row_family(self):
        pres = self.amb.pres
        if not pres.unital_good_pair():
            return None
        return self.corner_family(pres.unit)

    def corner_family(self, e_vec):
        """Orthogonal idempotents of the corner algebra summing to the
        truncation idempotent; e_vec is the algebra-level idempotent.

        Multi-idempotents of the family members inside e_vec when they
        sum to it, else the weight idempotents of e_vec.
        """
        amb = self.amb
        fam = superalgebra.corner_family(amb.pres, e_vec)
        if fam is not None:
            els = (schur.multi_idempotent(amb, lams, fam, self.tag)
                   for lams in multi_compositions(len(fam), amb.n, amb.d))
        else:
            els = (schur.weight_idempotent(amb, lam, f=dict(e_vec), tag=self.tag)
                   for lam in compositions(amb.n, amb.d))
        return [el.coeffs for el in els if el]


# ---------------------------------------------------------------------------

@dataclass
class HomLattice:
    se_keys: list                  # basis keys of S*e
    ese_keys: list                 # basis keys of e*S*e
    row_block: dict                # key -> row block id
    col_block: dict                # key -> col block id
    blocks: dict = field(default_factory=dict)
    # blocks[(i, j)] = (unknown_layout, kernel_rows)
    # unknown_layout: list of (w_key, v_key) giving the coordinate order;
    # kernel_rows: the echelon basis of the block's kernel lattice

    @property
    def rank(self):
        return sum(len(kernel) for _, kernel in self.blocks.values())

    def basis_matrices(self):
        """Endomorphism lattice basis as sparse matrices {(w, v): int}."""
        out = []
        for (i, j), (layout, kernel) in sorted(self.blocks.items()):
            for vec in kernel:
                out.append({layout[t]: c for t, c in enumerate(vec) if c})
        return out


def _diagonal_blocks(lat, keys, family, side):
    """Partition keys by the unique family member acting as identity on the
    given side; None family puts everything in one block."""
    if family is None:
        return {k: 0 for k in keys}
    return superalgebra.owners(lat.mult, keys, family, side)


@dataclass
class TruncationSetup:
    lat: object
    e_elem: dict          # idempotent as a lattice element
    se_keys: list
    ese_keys: list
    row_family: object
    col_family: object


def truncation_setup(lat, e_elem, row_family=None, col_family=None):
    """Corner data for an idempotent acting diagonally on the basis.

    e_elem is the idempotent as a lattice coefficient vector.  Every basis
    key must satisfy k*e in {k, 0} and e*k in {k, 0} on the survivors; the
    surviving keys index S*e and e*S*e.  The optional families are
    orthogonal idempotent decompositions (of the unit of S and of e inside
    the corner) used to split the endomorphism computation into blocks.
    """
    if not e_elem:
        raise ValueError("truncation element is zero")
    if any(isinstance(v, Fraction) for v in e_elem.values()):
        raise ValueError("truncation element is not a lattice point")
    if lat.mult(e_elem, e_elem) != e_elem:
        raise ValueError("truncation element is not idempotent")
    se_keys = superalgebra.corner_keys(lat.mult, lat.keys(), right=e_elem)
    ese_keys = superalgebra.corner_keys(lat.mult, se_keys, left=e_elem)
    return TruncationSetup(lat, e_elem, se_keys, ese_keys, row_family, col_family)


def hom_lattice_from_setup(setup):
    lat = setup.lat
    se_keys = setup.se_keys
    ese_keys = setup.ese_keys
    row_block = _diagonal_blocks(lat, se_keys, setup.row_family, "left")
    col_block = _diagonal_blocks(lat, se_keys, setup.col_family, "right")
    ese_left = _diagonal_blocks(lat, ese_keys, setup.col_family, "left")
    ese_right = _diagonal_blocks(lat, ese_keys, setup.col_family, "right")

    se_index = {k: t for t, k in enumerate(se_keys)}
    # right multiplication tables on S*e, columns by source key
    rmul = {}
    for m in ese_keys:
        cols = {}
        for v in se_keys:
            prod = lat.mult({v: 1}, {m: 1})
            for k in prod:
                if k not in se_index:
                    raise AssertionError("right multiplication left the corner span")
            if prod:
                cols[v] = prod
        rmul[m] = cols

    row_ids = sorted(set(row_block.values()))
    col_ids = sorted(set(col_block.values()))
    se_by_block = {}
    for k in se_keys:
        se_by_block.setdefault((row_block[k], col_block[k]), []).append(k)

    hl = HomLattice(se_keys, ese_keys, row_block, col_block)
    for i in row_ids:
        for j in row_ids:
            layout = []
            pos = {}
            for cb in col_ids:
                vs = se_by_block.get((i, cb), [])
                ws = se_by_block.get((j, cb), [])
                for v in vs:
                    for w in ws:
                        pos[(w, v)] = len(layout)
                        layout.append((w, v))
            if not layout:
                hl.blocks[(i, j)] = ([], [])
                continue
            rows = []
            for m in ese_keys:
                cb_from = ese_left[m]
                cb_to = ese_right[m]
                cols = rmul[m]
                for v in se_by_block.get((i, cb_from), []):
                    vm = cols.get(v, {})
                    # equation per target coordinate w' in block (j, cb_to):
                    #   sum_w F[w' <- ...] ... f(v).m  ==  f(v.m)
                    for wp in se_by_block.get((j, cb_to), []):
                        row = [0] * len(layout)
                        touched = False
                        # f(v).m coordinate at wp: sum over w of F[w,v] * (w.m)_wp
                        for w in se_by_block.get((j, cb_from), []):
                            c = rmul[m].get(w, {}).get(wp, 0)
                            if c:
                                row[pos[(w, v)]] += c
                                touched = True
                        # f(v.m) coordinate at wp: sum over v' of (v.m)_v' F[wp,v']
                        for vp, c in vm.items():
                            p = pos.get((wp, vp))
                            if p is None:
                                raise AssertionError("layout misses a coordinate")
                            row[p] -= c
                            touched = True
                        if touched and any(row):
                            rows.append(row)
            if rows:
                kernel = row_echelon_lattice(integer_kernel(rows), len(layout))
            else:
                kernel = [[int(a == b) for b in range(len(layout))]
                          for a in range(len(layout))]
            hl.blocks[(i, j)] = (layout, kernel)
    return hl


def lambda_matrix(setup, hl):
    """Coordinates of left multiplication in the endomorphism lattice.

    Returns (matrix rows, key order): column t is the coordinate vector of
    the image of the t-th lattice basis element of S over the
    endomorphism-lattice basis; entries are exact integers.  Raises if
    some left multiplication fails to lie in the lattice (an internal
    inconsistency).
    """
    lat = setup.lat
    se_keys = setup.se_keys
    se_index = {k: t for t, k in enumerate(se_keys)}
    s_keys = lat.keys()
    # each block's kernel is in echelon form: {pivot column: row} is the
    # basis solve_in_lattice reads, and slot[pivot] the row's coordinate
    block_data = []
    total = 0
    for _, (layout, kernel) in sorted(hl.blocks.items()):
        pivots = [next(t for t, c in enumerate(row) if c) for row in kernel]
        slot = {p: total + t for t, p in enumerate(pivots)}
        block_data.append((layout, dict(zip(pivots, kernel)), slot))
        total += len(kernel)

    columns = []
    for s in s_keys:
        # matrix of left multiplication by s on S*e
        mat = {}
        for v in se_keys:
            prod = lat.mult({s: 1}, {v: 1})
            for k, c in prod.items():
                if k not in se_index:
                    raise AssertionError("left multiplication left the corner span")
                mat[(k, v)] = c
        col = [0] * total
        for layout, basis, slot in block_data:
            if not layout:
                continue
            vec = [mat.get(pair, 0) for pair in layout]
            if not any(vec):
                continue
            coeffs = solve_in_lattice(basis, vec, len(layout))
            if coeffs is None:
                raise AssertionError(
                    "left multiplication is not in the endomorphism lattice")
            for p, c in coeffs.items():
                col[slot[p]] = c
        columns.append(col)
    rows = [[columns[c][r] for c in range(len(columns))] for r in range(total)]
    return rows, s_keys


@dataclass
class DcpReport:
    rank_q: int
    dim_s: int
    dim_end_q: int
    divisors: list
    dcp_over_fractions: bool
    sound: bool
    dcp: bool
    scaling: str = ""

    def to_json_dict(self):
        return {
            "rank_q": self.rank_q,
            "dim_s": self.dim_s,
            "dim_end_q": self.dim_end_q,
            "divisors": list(self.divisors),
            "dcp_over_fractions": self.dcp_over_fractions,
            "sound": self.sound,
            "dcp": self.dcp,
            "scaling": self.scaling,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def dcp_verdict_from_setup(setup, scaling=""):
    hl = hom_lattice_from_setup(setup)
    lam_rows, s_keys = lambda_matrix(setup, hl)
    divisors, rank = smith_normal_form(lam_rows)
    dim_s = len(s_keys)
    dim_end = hl.rank
    over_q = (rank == dim_s) and (dim_end == dim_s)
    sound = (rank == dim_s) and all(d == 1 for d in divisors)
    return DcpReport(rank, dim_s, dim_end, divisors, over_q, sound,
                     over_q and sound, scaling), hl


def presentation_dcp(pres, e_labels):
    """Verdict for a presentation algebra and idempotent {label: int}."""
    lat = PresentationLattice(pres)
    e = pres.element(e_labels)
    setup = truncation_setup(lat, e, row_family=lat.row_family(),
                             col_family=lat.corner_family(e))
    report, hl = dcp_verdict_from_setup(setup, scaling="basis")
    return report, hl


def schur_dcp(amb, e_algebra_idempotent, tag=SCALED):
    """Verdict for an invariant algebra lattice and the spread idempotent
    of an algebra-level idempotent (given as {label_index: int})."""
    lat = SchurLattice(amb, tag)
    e_vec = dict(e_algebra_idempotent)
    e_elem = schur.idempotent_sum(amb, e_vec, tag).coeffs
    setup = truncation_setup(lat, e_elem, row_family=lat.row_family(),
                             col_family=lat.corner_family(e_vec))
    report, hl = dcp_verdict_from_setup(setup, scaling=tag)
    return report, hl
