import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from genschur import dcp, schur, superalgebra
from genschur.cli import load_algebra, standard_truncation
from genschur.exactlin import (
    _divisor_chain, add_row_to_lattice, row_echelon_lattice,
    smith_normal_form, solve_in_lattice,
)
from genschur.superalgebra import (
    Presentation, corner_family, corner_keys, make_extended_zigzag,
    make_matrix_superalgebra, make_even_matrix, owners,
)
from genschur.schur import (
    Ambient, SCALED, ORBIT, identity, idempotent_sum, multi_idempotent,
)
from genschur.dcp import (
    truncation_setup, hom_lattice_from_setup, lambda_matrix, schur_dcp,
)
from test_combinatorics import multi_compositions
from test_exactlin import _dense, _dense_integer_kernel, _spans_same_lattice


def test_extended_zigzag_algebra_dcp():
    # the vertex-sum idempotent is a double centralizer idempotent for the
    # extended zigzag algebra itself, which is S(1, 1)
    for ell in (1, 2):
        z = make_extended_zigzag(ell)
        rep, hl = schur_dcp(Ambient(z, 1, 1),
                            z.element({f"e{i}": 1 for i in range(ell)}))
        assert hl.rank == z.dim
        assert rep.dcp and rep.sound and rep.dcp_over_fractions
        assert rep.divisors == [1] * z.dim


def test_unit_truncation_is_dcp():
    z = make_extended_zigzag(1)
    rep, hl = schur_dcp(Ambient(z, 1, 1), z.element({"e0": 1, "e1": 1}))
    assert rep.dcp
    assert rep.dim_end_q == z.dim


def test_counterexample_not_sound():
    # diagonal corner of the even 2x2 matrix pair: sound fails with an
    # elementary divisor 2, even where the rational verdict holds
    m2 = make_even_matrix(2)
    e = {m2.index["E1_1"]: 1}
    amb = Ambient(m2, 2, 2)
    rep, hl = schur_dcp(amb, e, SCALED)
    assert rep.dcp_over_fractions
    assert not rep.sound and not rep.dcp
    assert 2 in rep.divisors
    assert all(d in (1, 2) for d in rep.divisors)


def test_counterexample_small_window():
    # at a single column the map is not even injective over the rationals
    m2 = make_even_matrix(2)
    e = {m2.index["E1_1"]: 1}
    amb = Ambient(m2, 1, 2)
    rep, hl = schur_dcp(amb, e, SCALED)
    assert not rep.dcp_over_fractions
    assert not rep.sound
    assert rep.rank_q < rep.dim_s
    assert 2 in rep.divisors


def test_verdict_consistency():
    # dcp is exactly (dcp over fractions) and (sound), on every instance
    cases = []
    m2 = make_even_matrix(2)
    cases.append(schur_dcp(Ambient(m2, 2, 2), {m2.index["E1_1"]: 1})[0])
    cases.append(schur_dcp(Ambient(m2, 1, 2), {m2.index["E1_1"]: 1})[0])
    z = make_extended_zigzag(1)
    cases.append(schur_dcp(Ambient(z, 2, 2),
                           {z.index["e0"]: 1})[0])
    m11 = make_matrix_superalgebra(1, 1)
    cases.append(schur_dcp(Ambient(m11, 1, 2), {m11.index["E1_1"]: 1})[0])
    for rep in cases:
        assert rep.dcp == (rep.dcp_over_fractions and rep.sound)


def test_matrix_superalgebra_small_not_sound():
    m11 = make_matrix_superalgebra(1, 1)
    rep, hl = schur_dcp(Ambient(m11, 1, 2), {m11.index["E1_1"]: 1})
    assert not rep.sound
    assert not rep.dcp


def test_zigzag_schur_dcp_small():
    # degree within the column bound: the truncation to the zigzag corner
    # is a double centralizer idempotent over the integers
    z = make_extended_zigzag(1)
    e = {z.index["e0"]: 1}
    for n, d in [(1, 1), (2, 1), (2, 2)]:
        rep, hl = schur_dcp(Ambient(z, n, d), e, SCALED)
        if d <= n:
            assert rep.dcp, (n, d, rep)


def test_zigzag_schur_rational_dcp():
    z = make_extended_zigzag(1)
    e = {z.index["e0"]: 1}
    rep, hl = schur_dcp(Ambient(z, 2, 2), e, ORBIT)
    assert rep.dcp_over_fractions


def test_lambda_matrix_unit_is_identity():
    z = make_extended_zigzag(1)
    unit = z.element({"e0": 1, "e1": 1})
    for amb in (Ambient(z, 1, 1), Ambient(z, 1, 2)):
        setup = truncation_setup(amb, unit)
        e = idempotent_sum(amb, unit).coeffs
        assert e == identity(amb).coeffs
        hl = hom_lattice_from_setup(setup)
        columns, blocks = lambda_matrix(setup, hl)
        # at n = 1 every block is solved; the unit's image decomposes over
        # each block's kernel basis with coefficients whose matrix
        # re-assembles to the identity map on the block
        assert hl.solved.keys() == hl.blocks.keys()
        ident = {}
        column = iter(columns)
        for b, size, keys in blocks:
            assert size == 1
            positions, kernel = hl.solved[b]
            pair_at = {t: pair for pair, t in positions.items()}
            for s in keys:
                for i, x in next(column):
                    for t, val in kernel[i].items():
                        pair = pair_at[t]
                        ident[pair] = ident.get(pair, 0) + e.get(s, 0) * x * val
        ident = {k: v for k, v in ident.items() if v}
        assert ident == {(k, k): 1 for k in setup.se_keys}, amb


def test_report_serialization():
    z = make_extended_zigzag(1)
    rep, _ = schur_dcp(Ambient(z, 1, 1), z.element({"e0": 1}))
    data = rep.to_json_dict()
    assert set(data) == {"rank_q", "dim_s", "dim_end_q", "divisors",
                         "dcp_over_fractions", "sound", "dcp", "scaling"}
    import json
    assert json.loads(json.dumps(data, sort_keys=True)) == data


def test_zero_idempotent_rejected():
    z = make_extended_zigzag(1)
    with pytest.raises(ValueError, match="zero"):
        schur_dcp(Ambient(z, 1, 1), {})
    with pytest.raises(ValueError, match="zero"):
        truncation_setup(Ambient(z, 1, 1), {}, ORBIT)


def test_non_idempotent_rejected():
    z = make_extended_zigzag(1)
    with pytest.raises(ValueError):
        truncation_setup(Ambient(z, 1, 1), z.element({"c0": 1}))


def test_zigzag_wider_algebra_small_instances():
    # degree within the column bound, both vertex counts
    z2 = make_extended_zigzag(2)
    e = {z2.index["e0"]: 1, z2.index["e1"]: 1}
    for n, d in [(1, 1), (2, 1)]:
        rep, _ = schur_dcp(Ambient(z2, n, d), e, SCALED)
        assert rep.dcp, (n, d, rep)


def _schur_setup(pres, e_labels, n, d, tag):
    """The truncation setup schur_dcp builds."""
    return truncation_setup(Ambient(pres, n, d), pres.element(e_labels), tag)


def _pair(sigma, w, v):
    """((sigma w, sigma v), sign of sigma w * sign of sigma v): where a
    matrix coordinate (w, v) goes under a ``Relabeling``."""
    (w2, sw), (v2, sv) = sigma.key(w), sigma.key(v)
    return (w2, v2), sw * sv


def _basis_matrices(hl):
    """The endomorphism lattice basis as sparse matrices {(w, v): int},
    block by block in sorted order: a block's basis is the sigma-image of
    its solved block's rows, with the signs of their keys."""
    out = []
    for _, (first, sigma) in sorted(hl.blocks.items()):
        positions, kernel = hl.solved[first]
        moved = {t: _pair(sigma, w, v) for (w, v), t in positions.items()}
        for row in kernel:
            out.append({moved[t][0]: c * moved[t][1] for t, c in row.items()})
    return out


def _block_bases(hl):
    """Per block, in sorted order: its coordinates {(w, v): position} and
    its basis matrices.  A block's coordinates are the sigma-images of its
    solved block's, moved forward as ``_basis_matrices`` moves the rows,
    so the matrices are echelon over the positions, up to row signs."""
    mats = iter(_basis_matrices(hl))
    out = []
    for _, (first, sigma) in sorted(hl.blocks.items()):
        positions, kernel = hl.solved[first]
        out.append(({_pair(sigma, w, v)[0]: t for (w, v), t in positions.items()},
                    [next(mats) for _ in kernel]))
    assert next(mats, None) is None
    return out


def _reference_lambda(setup, hl):
    """lambda_matrix by its definition, as (columns, blocks): the S keys
    of each block found by products with the weight idempotents of S
    (``_weights_by_products``), each key of a solved block multiplied by
    every S*e key and solved in the block's basis, and every key of no
    block checked to kill S*e.  The reference the side-key filter and the
    weights read off the cells must match."""
    amb, family = setup.amb, setup.unit_family
    mult = _element_product(amb, setup.tag)
    keys = amb.basis()
    left = _weights_by_products(amb, setup.tag, mult, keys, family, "left")
    right = _weights_by_products(amb, setup.tag, mult, keys, family, "right")
    by_block = {}
    for s in keys:
        by_block.setdefault((right[s], left[s]), []).append(s)
        if (right[s], left[s]) not in hl.blocks:
            assert not any(setup.product(s, v) for v in setup.se_keys), s
    orbit = Counter(first for first, _ in hl.blocks.values())
    columns, blocks = [], []
    for b, (positions, kernel) in hl.solved.items():
        pivots = [min(row) for row in kernel]
        basis = dict(zip(pivots, kernel))
        for s in by_block.get(b, []):
            vec = {}
            for v in setup.se_keys:
                for k, c in setup.product(s, v).items():
                    assert (k, v) in positions, "an entry outside its block"
                    vec[positions[(k, v)]] = c
            coeffs = solve_in_lattice(basis, vec)
            assert coeffs is not None
            columns.append(sorted((pivots.index(p), c) for p, c in coeffs.items()))
        blocks.append((b, orbit[b], by_block.get(b, [])))
    return columns, blocks


def _lambda_cases():
    z1, z2 = make_extended_zigzag(1), make_extended_zigzag(2)
    m2, m11 = make_even_matrix(2), make_matrix_superalgebra(1, 1)
    for tag in (SCALED, ORBIT):
        for n in (1, 2):
            yield f"ext-zigzag:1 n={n} {tag}", _schur_setup(z1, {"e0": 1}, n, 2, tag)
        yield f"even-matrix:2 {tag}", _schur_setup(m2, {"E1_1": 1}, 2, 2, tag)
        yield f"matrix:1,1 {tag}", _schur_setup(m11, {"E1_1": 1}, 2, 2, tag)
        for name, n in (("sum:zigzag:1+matrix:1,0", 2), ("trivext:zigzag:1", 1)):
            pres = load_algebra(name)
            yield f"{name} n={n} {tag}", _schur_setup(
                pres, standard_truncation(pres), n, 2, tag)
    yield "ext-zigzag:1", _schur_setup(z1, {"e0": 1}, 1, 1, SCALED)
    yield "ext-zigzag:2", _schur_setup(z2, {"e0": 1, "e1": 1}, 1, 1, SCALED)


def test_lambda_matrix_matches_every_pair_reference(monkeypatch):
    for name, setup in _lambda_cases():
        hl = hom_lattice_from_setup(setup)
        assert lambda_matrix(setup, hl) == _reference_lambda(setup, hl), name
    # the skip rule is live: lambda multiplies s only by the partners of
    # s, so with the partners whose product is not 0 dropped it no longer
    # matches the reference
    name, setup = next(_lambda_cases())
    hl = hom_lattice_from_setup(setup)
    want = _reference_lambda(setup, hl)
    partners = Ambient.partners
    monkeypatch.setattr(Ambient, "partners", lambda amb, T: tuple(
        U for U in partners(amb, T) if not amb.structure_constants(T, U)))
    assert lambda_matrix(setup, hl) != want, name


@pytest.mark.parametrize("tag", [SCALED, ORBIT])
def test_a_verdict_multiplies_one_element_pair(tag, monkeypatch):
    # every key product of the verdict is a read of the ambient's table;
    # the one element product is the idempotence check of e
    calls = []
    multiply = schur.multiply

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(schur, "multiply", counted)
    z1 = make_extended_zigzag(1)
    rep, _ = schur_dcp(Ambient(z1, 2, 2), z1.element({"e0": 1}), tag)
    assert rep.dcp
    assert len(calls) == 1
    (x, y), = calls
    assert x is y


def test_lambda_matrix_rejects_a_pair_outside_every_layout():
    setup = _schur_setup(make_extended_zigzag(1), {"e0": 1}, 2, 2, SCALED)
    row = dcp._weights(setup, setup.se_keys, setup.unit_family, "left")
    # the pair (v, v) is hit by the idempotent of S fixing v, a key of the
    # block (row weight of v, row weight of v); take v with that block solved
    hl = hom_lattice_from_setup(setup)
    v = next(v for v in setup.se_keys if (row[v], row[v]) in hl.solved)
    positions, _ = hl.solved[(row[v], row[v])]
    positions[("not a key", "not a key")] = positions.pop((v, v))
    with pytest.raises(AssertionError, match="outside its block layout"):
        lambda_matrix(setup, hl)
    # a block that is no longer kept leaves its keys with no block, and
    # they are multiplied: the idempotent fixing its v does not kill S*e
    hl = hom_lattice_from_setup(setup)
    moved = next(b for b, (first, _) in hl.blocks.items()
                 if first != b and b[0] == b[1])
    del hl.blocks[moved]
    with pytest.raises(AssertionError, match="outside its block layout"):
        lambda_matrix(setup, hl)
    # a block's kernel basis doubled: a column with an odd coefficient
    # is no longer in the lattice
    hl = hom_lattice_from_setup(setup)
    _, kernel = hl.solved[(row[v], row[v])]
    kernel[:] = [{t: 2 * c for t, c in r.items()} for r in kernel]
    with pytest.raises(AssertionError, match="not in the endomorphism lattice"):
        lambda_matrix(setup, hl)


def _lattice_in(basis_matrices, index):
    """Echelon basis dict of the span of sparse matrices {(w, v): int},
    read as rows over the coordinates in index."""
    lattice = {}
    for mat in basis_matrices:
        add_row_to_lattice(lattice, {index[pair]: c for pair, c in mat.items()})
    return lattice


@pytest.mark.parametrize("name, n, d", [
    ("ext-zigzag:1", 1, 2), ("ext-zigzag:1", 2, 2), ("zigzag:1", 2, 2),
    ("even-matrix:2", 2, 2), ("matrix:1,1", 2, 2), ("ext-zigzag:2", 1, 2),
    ("trivext:zigzag:1", 1, 2),
])
@pytest.mark.parametrize("tag", [SCALED, ORBIT])
def test_blocked_hom_lattice_equals_the_unblocked_one(name, n, d, tag):
    # without families there is one block, every right product is formed
    # and the kernel sees every constraint: the block split and the
    # owner filters must give the same lattice
    pres = load_algebra(name)
    setup = _schur_setup(pres, standard_truncation(pres), n, d, tag)
    blocked = hom_lattice_from_setup(setup)
    unblocked = hom_lattice_from_setup(
        dataclasses.replace(setup, unit_family=None, e_family=None))
    assert len(unblocked.blocks) == len(unblocked.solved) == 1
    (index, _), = unblocked.solved.values()
    want = _lattice_in(_basis_matrices(unblocked), index)
    got = _lattice_in(_basis_matrices(blocked), index)
    assert blocked.rank == unblocked.rank
    for a, b in ((want, got), (got, want)):
        for row in a.values():
            assert solve_in_lattice(b, row) is not None, (name, n, d, tag)


@pytest.mark.parametrize("name", ["ext-zigzag:1", "even-matrix:2"])
@pytest.mark.parametrize("tag", [SCALED, ORBIT])
def test_block_kernels_span_the_dense_reference(name, tag, monkeypatch):
    # every solved block's commutation rows, captured on their way into
    # the kernel, each kernel checked against an independent dense one of
    # the same rows: on ext-zigzag:1 up to 96 unknowns and 295 rows, far
    # larger systems than the property tests draw
    systems = []
    kernel = dcp.integer_kernel

    def captured(rows, ncols):
        rows = [list(row) for row in rows]
        got = kernel(rows, ncols)
        systems.append((rows, ncols, got))
        return got

    monkeypatch.setattr(dcp, "integer_kernel", captured)
    pres = load_algebra(name)
    hl = hom_lattice_from_setup(
        _schur_setup(pres, standard_truncation(pres), 2, 2, tag))
    assert len(systems) == len(hl.solved)
    for rows, ncols, got in systems:
        want = _dense_integer_kernel(_dense(rows, ncols), ncols)
        got = [[row.get(j, 0) for j in range(ncols)] for row in got]
        assert _spans_same_lattice(got, want), (name, tag, ncols)


def _apply(f_cols, vec):
    """f(vec) for a matrix given by columns {v: {w: int}}; zeros dropped."""
    out = {}
    for v, a in vec.items():
        for w, c in f_cols.get(v, {}).items():
            out[w] = out.get(w, 0) + a * c
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("name", ["ext-zigzag:1", "even-matrix:2",
                                  "matrix:1,1"])
def test_hom_basis_commutes_with_right_multiplication(name):
    # f(v*m) = f(v)*m for every basis matrix f, S*e key v and e*S*e key m,
    # with the products read from the scaled table, not the commutation rows
    pres = load_algebra(name)
    setup = _schur_setup(pres, standard_truncation(pres), 2, 2, SCALED)
    hl = hom_lattice_from_setup(setup)
    table = setup.amb.scaled_constants
    right = {m: {v: vm for v in hl.se_keys if (vm := table(v, m))}
             for m in hl.ese_keys}
    mats = _basis_matrices(hl)
    assert len(mats) == hl.rank
    for f in mats:
        cols = {}
        for (w, v), c in f.items():
            cols.setdefault(v, {})[w] = c
        for m, by_v in right.items():
            # f(v*m), and f(v)*m = sum over w of F[w, v] * (w*m)
            lhs = {v: img for v, vm in by_v.items() if (img := _apply(cols, vm))}
            rhs = {}
            for (w, v), c in f.items():
                for k, x in by_v.get(w, {}).items():
                    rhs.setdefault(v, {})
                    rhs[v][k] = rhs[v].get(k, 0) + c * x
            rhs = {v: img for v, vec in rhs.items()
                   if (img := {k: x for k, x in vec.items() if x})}
            assert lhs == rhs, (name, m)


def _differing_blocks(a, b):
    """The keys of the blocks whose basis matrices span different
    lattices, compared by mutual membership over the block's coordinate
    pairs: the bases of one block may differ."""
    assert a.blocks.keys() == b.blocks.keys()
    out = []
    for key, (layout, mats), (other_layout, other) in zip(
            sorted(a.blocks), _block_bases(a), _block_bases(b)):
        assert layout.keys() == other_layout.keys()
        index = {pair: t for t, pair in enumerate(sorted(layout))}
        lattice, moved = _lattice_in(mats, index), _lattice_in(other, index)
        for rows, against in ((lattice, moved), (moved, lattice)):
            if any(solve_in_lattice(against, row) is None for row in rows.values()):
                out.append(key)
                break
    return out


def _hom_over(setup, keys, monkeypatch):
    """The hom lattice with commutation imposed by keys alone, as if
    spanning_keys had picked them."""
    with monkeypatch.context() as m:
        m.setattr(dcp, "spanning_keys", lambda setup, order: keys)
        return hom_lattice_from_setup(setup)


@pytest.mark.parametrize("name, n, d", [
    ("ext-zigzag:1", 2, 2), ("even-matrix:2", 2, 2), ("matrix:1,1", 2, 2),
    ("ext-zigzag:1", 3, 2), ("ext-zigzag:1", 2, 3),
])
@pytest.mark.parametrize("tag", [SCALED, ORBIT])
def test_generator_lattice_equals_the_all_keys_lattice(name, n, d, tag,
                                                       monkeypatch):
    # commuting with a generating set of e*S*e is commuting with all of it
    pres = load_algebra(name)
    setup = _schur_setup(pres, standard_truncation(pres), n, d, tag)
    by_generators = hom_lattice_from_setup(setup)
    by_all_keys = _hom_over(setup, setup.ese_keys, monkeypatch)
    assert by_generators.ese_keys == by_all_keys.ese_keys == setup.ese_keys
    assert set(by_generators.generators) < set(setup.ese_keys)
    assert by_all_keys.generators == setup.ese_keys
    assert by_generators.rank == by_all_keys.rank
    assert not _differing_blocks(by_generators, by_all_keys), (name, n, d, tag)


def test_dropping_a_generator_fails_the_certificate_or_keeps_the_lattice(
        monkeypatch):
    setup = _schur_setup(make_extended_zigzag(1), {"e0": 1}, 2, 2, SCALED)
    all_keys = _hom_over(setup, setup.ese_keys, monkeypatch)
    generators = hom_lattice_from_setup(setup).generators
    assert dcp.spanning_keys(setup, generators) == generators
    outcomes = set()
    for g in generators:
        rest = [m for m in generators if m != g]
        kept = dcp.spanning_keys(setup, rest)
        if kept is not None:
            assert not _differing_blocks(
                _hom_over(setup, kept, monkeypatch), all_keys), g
            outcomes.add("kept the lattice")
        elif _differing_blocks(_hom_over(setup, rest, monkeypatch), all_keys):
            # the certificate is needed: rest alone gives a larger lattice
            outcomes.add("failed, and rest changes the lattice")
    assert outcomes == {"kept the lattice",
                        "failed, and rest changes the lattice"}


def _generated_rank(setup, keys):
    """Rank over Q of the span of all products of keys, by rounds that
    multiply every vector of an echelon basis by every key until the rank
    stops growing: the reference for the worklist of spanning_keys."""
    ese = setup.ese_keys
    col = {m: t for t, m in enumerate(ese)}
    vectors = [{g: 1} for g in keys]
    rank = -1
    while True:
        basis = row_echelon_lattice(
            {col[m]: c for m, c in x.items()} for x in vectors)
        if len(basis) == rank:
            return rank
        rank = len(basis)
        vectors = [{ese[t]: c for t, c in row.items()} for row in basis]
        vectors += [superalgebra.bilinear(setup.product, x, {g: 1})
                    for x in vectors for g in keys]


@pytest.mark.parametrize("name", ["ext-zigzag:1", "even-matrix:2",
                                  "matrix:1,1"])
def test_spanning_keys_certifies_what_the_products_span(name):
    pres = load_algebra(name)
    setup = _schur_setup(pres, standard_truncation(pres), 2, 2, SCALED)
    generators = hom_lattice_from_setup(setup).generators
    full = len(setup.ese_keys)
    assert _generated_rank(setup, generators) == full
    for g in generators:
        rest = [m for m in generators if m != g]
        certified = dcp.spanning_keys(setup, rest) is not None
        assert certified == (_generated_rank(setup, rest) == full), g


def _greedy_keys(setup, order):
    """spanning_keys by its definition: a key is kept when it raises the
    rank of what the keys kept before it generate; None short of full
    rank."""
    kept = []
    for g in order:
        if _generated_rank(setup, kept + [g]) > _generated_rank(setup, kept):
            kept.append(g)
    full = _generated_rank(setup, kept) == len(setup.ese_keys)
    return kept if full else None


def test_lambda_divisors_of_even_matrix_from_rows_and_columns():
    # even-matrix:2 at n=d=2: four divisors 2.  Each solved block's
    # divisors are the same from its sparse columns (its transpose, as the
    # verdict passes it) and from its rows, and repeated over its orbit
    # they are the divisors of the whole of lambda
    setup = _schur_setup(make_even_matrix(2), {"E1_1": 1}, 2, 2, SCALED)
    hl = hom_lattice_from_setup(setup)
    columns, blocks = lambda_matrix(setup, hl)
    column = iter(columns)
    found = []
    for b, size, keys in blocks:
        block = [next(column) for _ in keys]
        rows = [{} for _ in hl.solved[b][1]]
        for t, col in enumerate(block):
            for i, c in col:
                rows[i][t] = c
        got = smith_normal_form([dict(col) for col in block])
        assert smith_normal_form(rows) == got, b
        found += got[0] * size
    want = [1] * 132 + [2] * 4
    assert _divisor_chain(found) == want
    assert dcp.dcp_verdict_from_setup(setup)[0].divisors == want
    assert _plain_lambda(setup.amb.basis(), setup.se_keys,
                         setup.product) == (136, want)


@pytest.mark.parametrize("name, n, d, tag", [
    ("ext-zigzag:1", 2, 2, SCALED), ("ext-zigzag:1", 3, 2, SCALED),
    ("ext-zigzag:1", 2, 3, SCALED), ("ext-zigzag:2", 2, 2, SCALED),
    ("even-matrix:2", 1, 2, SCALED), ("even-matrix:2", 2, 2, SCALED),
    ("even-matrix:2", 2, 2, ORBIT), ("even-matrix:2", 3, 2, SCALED),
    ("matrix:1,1", 2, 2, SCALED), ("matrix:1,1", 1, 3, SCALED),
])
def test_divisors_equal_lambda_in_plain_matrix_coordinates(name, n, d, tag):
    # End is the kernel of an integer map on the integer matrices M on
    # S*e, so it is saturated in M and holds lambda(S): lambda has the same
    # rank and divisors in End's basis as in M's (k, v) coordinates.  The
    # columns here come from the products alone: no hom lattice, no
    # relabeling and no solve in a lattice
    pres = load_algebra(name)
    setup = _schur_setup(pres, standard_truncation(pres), n, d, tag)
    report, _ = dcp.dcp_verdict_from_setup(setup)
    assert _plain_lambda(setup.amb.basis(), setup.se_keys, setup.product) \
        == (report.rank_q, sorted(report.divisors)), (name, n, d, tag)


def _plain_lambda(s_keys, se_keys, product):
    """(rank, sorted divisors) of lambda in plain (k, v) coordinates: the
    column of s holds the coefficient of k in product(s, v) at (k, v)."""
    coordinate = {}
    columns = []
    for s in s_keys:
        column = {}
        for v in se_keys:
            for k, c in product(s, v).items():
                column[coordinate.setdefault((k, v), len(coordinate))] = c
        columns.append(column)
    divisors, rank = smith_normal_form(columns)
    return rank, sorted(divisors)


def test_divisors_equal_lambda_in_plain_matrix_coordinates_property():
    # the test above on random presentations and idempotents, with every
    # product taken by the tensor route, so it reads no fast table
    hypothesis = pytest.importorskip("hypothesis")
    checked = []

    @_settings(hypothesis, 100)
    @hypothesis.given(_random_cases(hypothesis, (1, 2), orders=True))
    def agree(case):
        pres, e_vec, n, d, tag = case
        amb = Ambient(pres, n, d)
        try:
            setup = truncation_setup(amb, e_vec, tag)
        except ValueError:
            return  # no truncation to check
        hypothesis.assume(len(amb.basis()) * len(setup.se_keys) <= 2500)
        report = _outcome(dcp.dcp_verdict_from_setup, setup)
        if report is ValueError:
            return  # a non-integral product: no verdict
        elems = {T: schur.sum_terms(amb, [(T, 1)], tag) for T in amb.basis()}
        got = _plain_lambda(
            amb.basis(), setup.se_keys,
            lambda s, v: schur.multiply_oracle(elems[s], elems[v]).coeffs)
        assert got == (report[0].rank_q, sorted(report[0].divisors)), (
            pres.to_json_dict(), e_vec, n, d, tag)
        checked.append(max(got[1], default=1) > 1)

    agree()
    # not vacuous: many verdicts are checked, some with a divisor above 1
    assert len(checked) >= 50 and any(checked), checked


def test_lambda_blocks_agree_with_plain_coordinates_on_random_presentations():
    # lambda is block-diagonal: every entry (k, v) of an S key s lies in
    # its block (right weight of s, left weight of s), in that block's
    # layout when it is solved; a key whose block is not kept kills S*e;
    # and the verdict folded over the block orbits has the rank and
    # divisors of lambda in plain (k, v) coordinates, in both bases
    hypothesis = pytest.importorskip("hypothesis")
    checked = []

    @_settings(hypothesis, 60)
    @hypothesis.given(_random_cases(hypothesis, (1, 2), orders=True))
    def agree(case):
        pres, e_vec, n, d, _ = case
        amb = Ambient(pres, n, d)
        keys = amb.basis()
        for tag in (SCALED, ORBIT):
            setup = _outcome(truncation_setup, amb, e_vec, tag)
            if setup is ValueError:
                continue
            hypothesis.assume(len(keys) * len(setup.se_keys) <= 2500)
            got = _outcome(dcp.dcp_verdict_from_setup, setup)
            if got is ValueError:
                continue   # a non-integral product: no verdict
            report, hl = got
            family = setup.unit_family
            left = dcp._weights(setup, keys, family, "left")
            right = dcp._weights(setup, keys, family, "right")
            row = dcp._weights(setup, setup.se_keys, family, "left")
            blockless = 0
            for s in keys:
                block = (right[s], left[s])
                blockless += block not in hl.blocks
                for v in setup.se_keys:
                    for k in setup.product(s, v):
                        assert block in hl.blocks, (s, v, k)
                        assert (row[v], row[k]) == block, (s, v, k)
                        if block in hl.solved:
                            assert (k, v) in hl.solved[block][0], (s, v, k)
            assert _plain_lambda(keys, setup.se_keys, setup.product) == (
                report.rank_q, sorted(report.divisors)), (
                    pres.to_json_dict(), e_vec, n, d, tag)
            checked.append((len(hl.solved) < len(hl.blocks), blockless,
                            max(report.divisors, default=1) > 1))

    agree()
    # not vacuous: verdicts with orbits of several blocks, with keys of no
    # block and with a divisor above 1
    assert len(checked) >= 50, len(checked)
    assert all(map(any, zip(*checked))), checked


def _weights_by_products(amb, tag, mult, keys, family, side):
    """{key: multi-composition of the idempotent of S fixing it on one
    side}, found by multiplying each key by every nonzero multi-idempotent
    of the family (0 for every key without a family)."""
    if family is None:
        return {k: 0 for k in keys}
    lams, els = [], []
    for lam in multi_compositions(len(family), amb.n, amb.d):
        el = multi_idempotent(amb, lam, family, tag)
        if el:
            lams.append(lam)
            els.append(el.coeffs)
    return {k: lams[j] for k, j in owners(mult, keys, els, side).items()}


def _element_product(amb, tag):
    """The product of coefficient dicts as elements of S in a basis, not
    through the DCP table; ValueError on a non-integral product."""
    def mult(x, y):
        coeffs = schur.multiply(schur.SchurElement(amb, x, tag),
                                schur.SchurElement(amb, y, tag)).coeffs
        if any(isinstance(v, Fraction) for v in coeffs.values()):
            raise ValueError("non-integral product")
        return coeffs

    return mult


def _corners_by_products(amb, e_vec, tag):
    """S*e keys, e*S*e keys, row blocks, column blocks and left blocks of
    e*S*e, by products with the multi idempotents of S, multiplied as
    elements and not through the DCP table: the
    reference for the weights truncation_setup reads off the cells."""
    pres = amb.pres
    mult = _element_product(amb, tag)
    e_elem = idempotent_sum(amb, e_vec, tag).coeffs
    if not e_elem or mult(e_elem, e_elem) != e_elem:
        raise ValueError("not a nonzero idempotent lattice point")
    se = corner_keys(mult, amb.basis(), right=e_elem)
    ese = corner_keys(mult, se, left=e_elem)
    unit_family = ((corner_family(pres, pres.unit) or [pres.unit])
                   if pres.unital_good_pair() else None)
    e_family = corner_family(pres, e_vec) or [e_vec]
    return (se, ese,
            _weights_by_products(amb, tag, mult, se, unit_family, "left"),
            _weights_by_products(amb, tag, mult, se, e_family, "right"),
            _weights_by_products(amb, tag, mult, ese, e_family, "left"))


def _corners_by_weights(amb, e_vec, tag):
    setup = truncation_setup(amb, e_vec, tag)
    return (setup.se_keys, setup.ese_keys,
            dcp._weights(setup, setup.se_keys, setup.unit_family, "left"),
            dcp._weights(setup, setup.se_keys, setup.e_family, "right"),
            dcp._weights(setup, setup.ese_keys, setup.e_family, "left"))


@pytest.mark.parametrize("name, n, d", [
    (name, n, d) for name in (
        "ext-zigzag:1", "ext-zigzag:2", "even-matrix:2", "matrix:1,1",
        "zigzag:1", "zigzag:2", "sum:zigzag:1+matrix:1,0", "trivext:zigzag:1")
    for n in (1, 2) for d in (1, 2)
] + [("ext-zigzag:1", 3, 2), ("ext-zigzag:1", 2, 3)])
@pytest.mark.parametrize("tag", [SCALED, ORBIT])
def test_weights_give_the_corners_and_blocks_of_the_idempotents(name, n, d,
                                                                 tag):
    # each key's block is the weight of the idempotent of S fixing it
    pres = load_algebra(name)
    amb = Ambient(pres, n, d)
    e_vec = pres.element(standard_truncation(pres))
    want = _corners_by_products(amb, e_vec, tag)
    assert _corners_by_weights(amb, e_vec, tag) == want, (name, n, d, tag)
    # not vacuous: with two rows the column weights take several values
    assert n == 1 or len(set(want[3].values())) > 1


def _random_letters(hypothesis):
    """Strategy of presentations of one to three letters, each in sector
    'a', 'c' or odd, with random products of coefficient +-1 (a pair of
    letters may have several outputs) and maybe a unit; not necessarily
    valid."""
    st = hypothesis.strategies

    @st.composite
    def letters(draw):
        labels = ["x0", "x1", "x2"][:draw(st.integers(1, 3))]
        letter = st.sampled_from(labels)
        basis = [{"label": lab, "parity": int(sector == "odd"),
                  "sector": sector}
                 for lab in labels
                 for sector in [draw(st.sampled_from(["a", "a", "c", "odd"]))]]
        products = draw(st.lists(st.tuples(letter, letter, letter,
                                           st.sampled_from([-1, 1, 1])),
                                 max_size=2 * len(labels) ** 2))
        data = {"name": "random", "basis": basis,
                "products": [list(p) for p in products]}
        unit = draw(st.none() | st.lists(letter, min_size=1, unique=True))
        if unit is not None:
            data["unit"] = [[lab, 1] for lab in unit]
        return Presentation.from_json_dict(data)

    return letters()


def _random_cases(hypothesis, ns, orders=False):
    """Strategy of (presentation, e_vec, n, d, tag): a valid presentation
    of one to three letters (``_random_letters``; or, with orders, also
    the incidence superalgebra of a random preorder), an idempotent sum of
    distinct letters, n in the range ns, d in 1..2 and a basis."""
    st = hypothesis.strategies
    letters = _random_letters(hypothesis).map(lambda pres: (pres, None))

    @st.composite
    def incidence(draw):
        # E_ij for i <= j in a preorder on 2 or 3 points (on 2 points both
        # ways gives a matrix algebra), E_ij*E_jk = E_ik, with parity
        # p_i + p_j: odd letters whenever two comparable points differ in
        # parity.  Even off-diagonal letters are in sector 'a' or 'c',
        # closed so that 'a' times 'a' stays in 'a'
        size = draw(st.integers(2, 3))
        pairs = {(i, j) for i in range(size) for j in range(size)
                 if i == j or (i < j or size == 2) and draw(st.booleans())}
        pairs |= {(i, k) for i, j in pairs for j2, k in pairs if j == j2}
        pairs = sorted(pairs)
        parity = [draw(st.integers(0, 1)) for _ in range(size)]
        sector = {}
        for i, j in pairs:
            odd = (parity[i] + parity[j]) % 2
            sector[i, j] = ("odd" if odd else "a" if i == j
                            else draw(st.sampled_from(["a", "c"])))
        for i, j in pairs:
            if any(sector.get((i, k)) == sector.get((k, j)) == "a"
                   for k in range(size)):
                sector[i, j] = "a"
        label = {pair: "E%d%d" % pair for pair in pairs}
        data = {"name": "incidence",
                "basis": [{"label": label[p], "sector": sector[p],
                           "parity": int(sector[p] == "odd")} for p in pairs],
                "products": [[label[i, j], label[j, k], label[i, k], 1]
                             for i, j in pairs for j2, k in pairs if j == j2],
                "unit": [[label[i, i], 1] for i in range(size)]}
        pres = Presentation.from_json_dict(data)
        # the sum of E_ii over some points: an idempotent
        points = draw(st.lists(st.integers(0, size - 1), min_size=1,
                               unique=True))
        return pres, [pres.index[label[i, i]] for i in points]

    @st.composite
    def cases(draw):
        pres, e = draw(st.one_of(letters, incidence()) if orders
                       else letters)
        hypothesis.assume(pres.validate().valid)
        if e is None:
            # a sum of distinct letters that is idempotent
            sums = [e for size in range(1, pres.dim + 1)
                    for e in itertools.combinations(range(pres.dim), size)
                    if pres.is_idempotent(dict.fromkeys(e, 1))]
            hypothesis.assume(sums)
            e = draw(st.sampled_from(sums))
        return (pres, dict.fromkeys(e, 1),
                draw(st.integers(*ns)), draw(st.integers(1, 2)),
                draw(st.sampled_from([SCALED, ORBIT])))

    return cases()


def _settings(hypothesis, examples):
    return hypothesis.settings(max_examples=examples, deadline=None,
                               derandomize=True,
                               suppress_health_check=list(hypothesis.HealthCheck))


def _outcome(f, *args):
    """f(*args), or ValueError (a usage error) if it raises one."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def test_weights_agree_with_products_on_random_presentations():
    # on any valid presentation and idempotent, reading the weights off
    # the cells gives the products' corners and blocks, or both raise
    hypothesis = pytest.importorskip("hypothesis")

    @_settings(hypothesis, 60)
    @hypothesis.given(_random_cases(hypothesis, (1, 2), orders=True))
    def agree(case):
        pres, e_vec, n, d, tag = case
        amb = Ambient(pres, n, d)
        assert (_outcome(_corners_by_weights, amb, e_vec, tag)
                == _outcome(_corners_by_products, amb, e_vec, tag))

    agree()


def _verdict(pres, e_vec, n, d, tag):
    return schur_dcp(Ambient(pres, n, d), e_vec, tag)[0]


def test_rational_verdicts_do_not_depend_on_the_basis():
    # the scaled and orbit lattices span one algebra over Q: equal rational
    # ranks and verdicts, or one usage error in both bases.  The one usage
    # error of a single basis is a spread idempotent off the scaled lattice
    # (a letter in sector 'c' scales e by 1/[T]!_c), which the orbit basis
    # always holds
    hypothesis = pytest.importorskip("hypothesis")
    off_lattice = "truncation element is not a lattice point"

    def rational(pres, e_vec, n, d, tag):
        try:
            rep = _verdict(pres, e_vec, n, d, tag)
        except ValueError as err:
            return str(err)
        return (rep.rank_q, rep.dim_s, rep.dim_end_q, rep.dcp_over_fractions)

    @_settings(hypothesis, 50)
    @hypothesis.given(_random_cases(hypothesis, (1, 3), orders=True))
    def agree(case):
        pres, e_vec, n, d, _ = case
        scaled, orbit = (rational(pres, e_vec, n, d, tag)
                         for tag in (SCALED, ORBIT))
        assert scaled == orbit or (scaled == off_lattice
                                   and isinstance(orbit, tuple)), (
            pres.to_json_dict(), e_vec, n, d, scaled, orbit)

    agree()


def test_transport_equals_the_direct_solve_on_random_presentations(
        monkeypatch):
    # in each basis the report over S_n orbits is the report of the
    # trivial group, which solves every hom block and multiplies every key
    # (at n = 1 the two groups are one)
    hypothesis = pytest.importorskip("hypothesis")

    @_settings(hypothesis, 40)
    @hypothesis.given(_random_cases(hypothesis, (2, 3), orders=True))
    def agree(case):
        pres, e_vec, n, d, _ = case
        for tag in (SCALED, ORBIT):
            got = _outcome(_verdict, pres, e_vec, n, d, tag)
            want = _direct(monkeypatch, _outcome, _verdict, pres, e_vec, n, d, tag)
            assert got == want, (pres.to_json_dict(), e_vec, n, d, tag)

    agree()


def test_spanning_keys_are_the_greedy_rank_choice_on_random_presentations():
    # the certificate is an exact rank over Q: in any order of the keys,
    # spanning_keys keeps a key exactly when it raises the rational rank
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @_settings(hypothesis, 40)
    @hypothesis.given(_random_cases(hypothesis, (1, 2), orders=True), st.data())
    def agree(case, data):
        pres, e_vec, n, d, tag = case
        setup = _outcome(truncation_setup, Ambient(pres, n, d), e_vec, tag)
        hypothesis.assume(setup is not ValueError)
        order = data.draw(st.permutations(setup.ese_keys))
        assert (_outcome(dcp.spanning_keys, setup, order)
                == _outcome(_greedy_keys, setup, order)), (
            pres.to_json_dict(), e_vec, n, d, tag, order)

    agree()


def test_a_letter_not_adapted_to_the_idempotent_raises():
    # E1_1 + E2_1 is idempotent, but E1_2*(E1_1 + E2_1) = E1_1
    m2 = make_even_matrix(2)
    e_vec = m2.element({"E1_1": 1, "E2_1": 1})
    for n, d, tag in ((1, 1, SCALED), (2, 1, SCALED), (2, 2, ORBIT)):
        amb = Ambient(m2, n, d)
        with pytest.raises(ValueError, match="not adapted.*witness E1_2$"):
            truncation_setup(amb, e_vec, tag)
        with pytest.raises(ValueError, match="not adapted"):
            _corners_by_products(amb, e_vec, tag)


# ---------------------------------------------------------------------------
# S_n orbits: relabeling the matrix indices

def _generators(n):
    """A transposition and an n-cycle, as tuples of images: they generate
    S_n (at n = 2 they are one permutation)."""
    return sorted({(2, 1) + tuple(range(3, n + 1)), tuple(range(2, n + 1)) + (1,)})


@pytest.mark.parametrize("name, n", [
    ("ext-zigzag:1", 2), ("ext-zigzag:1", 3), ("even-matrix:2", 2),
    ("matrix:1,1", 2),
])
def test_relabeling_commutes_with_the_table_on_partner_pairs(name, n):
    # sigma(T*U) = sigma(T)*sigma(U), with the canonicalize signs, in
    # both bases: the premise of the transport
    amb = Ambient(load_algebra(name), n, 2)
    signs = set()
    for s in _generators(n):
        sigma = dcp.Relabeling(s, amb.odd)
        image = {T: sigma.key(T) for T in amb.basis()}
        for table in (amb.structure_constants, amb.scaled_constants):
            for T in amb.basis():
                T2, sT = image[T]
                for U in amb.partners(T):
                    U2, sU = image[U]
                    want = {V: sT * sU * c for V, c in table(T2, U2).items()}
                    got = {}
                    for V, c in table(T, U).items():
                        V2, sV = image[V]
                        got[V2] = sV * c
                    assert got == want, (s, T, U)
                    signs.add(sT * sU)
    # not vacuous: with odd letters some signs are -1
    assert signs == ({1, -1} if amb.odd else {1})


@pytest.mark.parametrize("name, n, d, step", [
    ("zigzag:1", 2, 2, 1), ("ext-zigzag:1", 3, 2, 5),
])
def test_permutation_element_conjugates_by_the_relabeling(name, n, d, step):
    # P*x*P^-1 = sigma(x) for P the permutation element of sigma, on the
    # basis elements (every step-th one)
    pres = load_algebra(name)
    amb = Ambient(pres, n, d)
    family = corner_family(pres, pres.unit) or [pres.unit]
    for s in _generators(n):
        inverse = tuple(s.index(r) + 1 for r in range(1, n + 1))
        p = schur.permutation_element(amb, [s] * len(family), family)
        p_inv = schur.permutation_element(amb, [inverse] * len(family), family)
        assert p * p_inv == identity(amb)
        sigma = dcp.Relabeling(s, amb.odd)
        for T in amb.basis()[::step]:
            image, sign = sigma.key(T)
            assert p * amb.scaled_element(T) * p_inv == \
                amb.scaled_element(image, sign), (s, T)


def _trivial_group(amb):
    return [dcp.Relabeling(tuple(range(1, amb.n + 1)), amb.odd)]


def _direct(monkeypatch, f, *args):
    """f with the trivial group for the relabelings: every hom block is
    solved and every S key multiplied, the reference for the transport."""
    with monkeypatch.context() as m:
        m.setattr(dcp, "relabelings", _trivial_group)
        return f(*args)


def _is_echelon(kernel):
    """The contract of row_echelon_lattice: strictly increasing pivots
    (a row's least column), each pivot entry positive."""
    pivots = [min(row) for row in kernel]
    return (pivots == sorted(set(pivots))
            and all(row[p] > 0 for row, p in zip(kernel, pivots)))


def _transport_faults(setup, monkeypatch):
    """Where the transported hom lattice and the verdict differ from the
    directly solved ones: solved blocks that break the echelon contract,
    blocks whose moved bases span another lattice than the trivial
    group's, a lambda that raises or differs from its reference, and a
    report other than the trivial group's.  [] when they agree."""
    got = hom_lattice_from_setup(setup)
    want = _direct(monkeypatch, hom_lattice_from_setup, setup)
    faults = [("not echelon", key) for key, (_, kernel) in got.solved.items()
              if not _is_echelon(kernel)]
    faults += [("another lattice", key) for key in _differing_blocks(got, want)]
    if got.rank != want.rank:
        faults.append(("rank differs", None))
    try:
        lam = lambda_matrix(setup, got)
    except AssertionError as err:
        return faults + [("lambda raises", str(err))]
    try:
        reference = _reference_lambda(setup, got)
    except AssertionError:   # an entry outside its block
        reference = None
    if lam != reference:
        faults.append(("lambda differs", None))

    def report(hl):
        with monkeypatch.context() as m:
            m.setattr(dcp, "hom_lattice_from_setup", lambda setup: hl)
            return dcp.dcp_verdict_from_setup(setup)[0]

    if report(got) != report(want):
        faults.append(("report differs", None))
    return faults


_TRANSPORT_CASES = [
    ("ext-zigzag:1", 2, 2), ("ext-zigzag:1", 3, 2), ("ext-zigzag:1", 2, 3),
    ("even-matrix:2", 2, 2), ("matrix:1,1", 2, 2), ("zigzag:2", 2, 2),
    ("sum:zigzag:1+matrix:1,0", 2, 2), ("ext-zigzag:1", 1, 2),
]


@pytest.mark.parametrize("name, n, d", _TRANSPORT_CASES)
@pytest.mark.parametrize("tag", [SCALED, ORBIT])
def test_transported_blocks_equal_the_directly_solved_ones(name, n, d, tag,
                                                           monkeypatch):
    pres = load_algebra(name)
    setup = _schur_setup(pres, standard_truncation(pres), n, d, tag)
    assert _transport_faults(setup, monkeypatch) == [], (name, n, d, tag)


def test_transported_rows_keep_their_signs(monkeypatch):
    # a moved basis is not renormalized: some moved rows lead with a
    # negative entry (at the image of their pivot), and the moved bases
    # still span the lattices of the directly solved blocks
    setup = _schur_setup(make_extended_zigzag(1), {"e0": 1}, 2, 2, SCALED)
    hl = hom_lattice_from_setup(setup)
    signs = set()
    for first, sigma in hl.blocks.values():
        positions, kernel = hl.solved[first]
        pair_at = {t: pair for pair, t in positions.items()}
        for row in kernel:
            pivot = min(row)
            signs.add(_pair(sigma, *pair_at[pivot])[1] * row[pivot] > 0)
    assert signs == {True, False}
    assert _transport_faults(setup, monkeypatch) == []


@pytest.mark.parametrize("n, solved, blocks, multiplied, keys", [
    (1, 4, 4, 11, 11), (2, 52, 100, 108, 202), (3, 86, 441, 196, 1017),
])
def test_one_block_solved_per_orbit_and_only_its_keys_multiplied(
        n, solved, blocks, multiplied, keys, monkeypatch):
    # ext-zigzag:1 at d=2: integer_kernel runs once per orbit of blocks,
    # and lambda multiplies only the S keys of the solved blocks (of those
    # with some S*e key to meet: 11 of the 13 at n=1); the trivial group
    # solves every block and multiplies every such key
    setup = _schur_setup(make_extended_zigzag(1), {"e0": 1}, n, 2, SCALED)
    integer_kernel = dcp.integer_kernel
    product = setup.product

    def counts():
        kernels = []
        lefts = set()

        def counted(rows, ncols):
            kernels.append(ncols)
            return integer_kernel(rows, ncols)

        def recorded(s, v):
            lefts.add(s)
            return product(s, v)

        with monkeypatch.context() as m:
            m.setattr(dcp, "integer_kernel", counted)
            hl = hom_lattice_from_setup(setup)
        lambda_matrix(dataclasses.replace(setup, product=recorded), hl)
        assert len(hl.solved) == len(kernels)
        return len(kernels), len(hl.blocks), len(lefts)

    assert counts() == (solved, blocks, multiplied)
    assert _direct(monkeypatch, counts) == (blocks, blocks, keys)
