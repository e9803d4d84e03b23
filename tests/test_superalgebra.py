import pytest

from genschur.superalgebra import (
    Presentation, make_extended_zigzag, make_zigzag,
    make_matrix_superalgebra, make_even_matrix, make_trivial_extension,
    truncate, direct_sum, builtin, corner_keys, owners,
)


def test_extended_zigzag_basis_and_relations():
    z = make_extended_zigzag(1)
    assert z.labels == ["e0", "e1", "c0", "a1_0", "a0_1"]
    assert z.dim == 5
    # the length-two cycle at vertex 0
    assert z.mult(z.element({"a0_1": 1}), z.element({"a1_0": 1})) == z.element({"c0": 1})
    # the cycle at the last vertex vanishes
    assert z.mult(z.element({"a1_0": 1}), z.element({"a0_1": 1})) == {}
    assert z.validate().valid
    assert z.validate().unital_good_pair


def test_extended_zigzag_noncycle_paths_vanish():
    z = make_extended_zigzag(2)
    assert z.validate().valid
    assert z.mult(z.element({"a0_1": 1}), z.element({"a1_2": 1})) == {}
    # both cycles at vertex 1 agree
    assert z.mult(z.element({"a1_0": 1}), z.element({"a0_1": 1})) == z.element({"c1": 1})
    assert z.mult(z.element({"a1_2": 1}), z.element({"a2_1": 1})) == z.element({"c1": 1})


def test_unit_acts_as_identity():
    z = make_extended_zigzag(2)
    for lab in z.labels:
        b = z.element({lab: 1})
        assert z.mult(z.unit, b) == b
        assert z.mult(b, z.unit) == b


def test_zigzag_dimensions_and_socle():
    for ell in (1, 2, 3):
        zz = make_zigzag(ell)
        assert zz.dim == 4 * ell - 2
        assert zz.validate().valid
        assert zz.unit == zz.element({f"e{i}": 1 for i in range(ell)})
    zz1 = make_zigzag(1)
    assert zz1.labels == ["e0", "c0"]
    assert zz1.mult(zz1.element({"c0": 1}), zz1.element({"c0": 1})) == {}


def test_matrix_superalgebra():
    m = make_matrix_superalgebra(1, 1)
    assert m.sectors[m.index["E1_1"]] == 'a'
    assert m.sectors[m.index["E2_2"]] == 'c'
    assert m.sectors[m.index["E1_2"]] == 'odd'
    assert m.sectors[m.index["E2_1"]] == 'odd'
    assert m.mult(m.element({"E1_2": 1}), m.element({"E2_1": 1})) == m.element({"E1_1": 1})
    rep = m.validate()
    assert rep.valid
    assert not rep.unital_good_pair  # no unit declared for the pair


def test_even_matrix_counterexample_pair():
    m = make_even_matrix(2)
    rep = m.validate()
    assert rep.valid and rep.unital_good_pair
    assert m.odd == frozenset()
    assert m.sectors[m.index["E1_2"]] == 'c'
    assert m.orthogonal_idempotent_family() == [m.index["E1_1"], m.index["E2_2"]]


def test_trivial_extension_of_ground_ring():
    k = Presentation("k", ["u"], ["a"], {("u", "u"): {"u": 1}}, unit={"u": 1})
    e = make_trivial_extension(k)
    assert e.labels == ["u", "u*"]
    assert e.mult(e.element({"u": 1}), e.element({"u*": 1})) == e.element({"u*": 1})
    assert e.mult(e.element({"u*": 1}), e.element({"u*": 1})) == {}
    assert e.validate().valid


def test_trivial_extension_zigzag():
    zz = make_zigzag(1)
    e = make_trivial_extension(zz)
    assert e.dim == 2 * zz.dim
    assert e.validate().valid
    assert e.validate().unital_good_pair


def test_trivial_extension_dual_pairing():
    # <x . a, b> == <x, a b> on all basis triples
    zz = make_zigzag(2)
    e = make_trivial_extension(zz)

    def pair(x, a):
        # <x, a> for x in the dual copy, a in the plain copy
        out = 0
        for i, ci in x.items():
            lab = e.labels[i]
            if lab.endswith("*"):
                out += ci * a.get(e.index[lab[:-1]], 0)
        return out

    for la in zz.labels:
        for lb in zz.labels:
            for lx in zz.labels:
                x = e.element({lx + "*": 1})
                a = e.element({la: 1})
                b = e.element({lb: 1})
                ab = e.mult(a, b)
                assert pair(e.mult(x, a), b) == pair(x, ab)


def test_trivial_extension_requires_unit():
    m = make_matrix_superalgebra(1, 1)  # no unit declared for the good pair
    with pytest.raises(ValueError):
        make_trivial_extension(m)


def test_truncate_extended_zigzag_gives_zigzag():
    for ell in (1, 2):
        z = make_extended_zigzag(ell)
        e = z.element({f"e{i}": 1 for i in range(ell)})
        corner = truncate(z, e)
        zz = make_zigzag(ell)
        assert corner.labels == zz.labels
        assert corner.products == zz.products
        assert corner.unit == zz.unit


def test_truncate_by_unit_is_identity():
    z = make_extended_zigzag(1)
    corner = truncate(z, dict(z.unit))
    assert corner.labels == z.labels
    assert corner.products == z.products


def test_truncate_matrix_to_corner():
    m = make_matrix_superalgebra(1, 1)
    corner = truncate(m, m.element({"E1_1": 1}))
    assert corner.labels == ["E1_1"]
    assert corner.validate().valid


def test_truncate_rejects_non_idempotent():
    z = make_extended_zigzag(1)
    with pytest.raises(ValueError):
        truncate(z, z.element({"c0": 1}))


def test_truncate_rejects_non_adapted_basis():
    m = make_even_matrix(2)
    e = m.element({"E1_1": 1, "E1_2": 1})  # idempotent, basis not adapted
    assert m.is_idempotent(e)
    with pytest.raises(ValueError) as err:
        truncate(m, e)
    assert "witness" in str(err.value)


M2 = make_even_matrix(2)
E = M2.element({"E1_1": 1, "E2_1": 1})  # idempotent, basis not adapted
E11 = M2.element({"E1_1": 1})


@pytest.mark.parametrize("call, witness", [
    # e*E1_1 = E1_1 + E2_1
    (lambda: corner_keys(M2.mult, range(4), left=E), "witness 0"),
    # E1_1*e = E1_1 but E1_2*e = E1_1
    (lambda: corner_keys(M2.mult, range(4), right=E), "witness 1"),
    (lambda: corner_keys(M2.mult, range(4), E, E), "witness 0"),
    # E1_1 is fixed by the unit and by E1_1
    (lambda: owners(M2.mult, range(4), [M2.unit, E11], "right"), "witness 0"),
    # E1_1*E2_1 = 0
    (lambda: owners(M2.mult, range(4), [E11], "left"), "key 2"),
], ids=["left", "right", "both", "two owners", "no owner"])
def test_adaptation_errors_name_a_witness(call, witness):
    with pytest.raises(ValueError) as err:
        call()
    assert witness in str(err.value)


@pytest.mark.parametrize("name, e_labels", [
    ("ext-zigzag:1", {"e0": 1}),
    ("ext-zigzag:2", {"e0": 1, "e1": 1}),
    ("zigzag:2", {"e0": 1}),
    ("matrix:1,1", {"E1_1": 1}),
    ("even-matrix:2", {"E1_1": 1}),
    ("trivext:zigzag:1", {"e0": 1}),
    ("sum:zigzag:1+matrix:1,0", {"L.e0": 1}),
])
def test_corner_basis_keeps_the_letters_truncate_keeps(name, e_labels):
    pres = builtin(name)
    e = pres.element(e_labels)
    # the corner basis is the basis triples on these letters
    keep = corner_keys(pres.mult, range(pres.dim), e, e)
    assert {pres.labels[k] for k in keep} == set(truncate(pres, e).labels)


def test_direct_sum():
    a = make_zigzag(1)
    b = make_zigzag(1)
    s = direct_sum(a, b)
    assert s.dim == a.dim + b.dim
    assert s.validate().valid
    for la in a.labels:
        for lb in b.labels:
            assert s.mult(s.element({f"L.{la}": 1}), s.element({f"R.{lb}": 1})) == {}


def test_validate_reports_sector_parity_failure():
    # an odd label declared inside sector 'a'
    p = Presentation("bad", ["x"], ["a"], {}, parity=[1])
    rep = p.validate()
    assert any(i.rule == "sector-parity" for i in rep.issues)
    # the same declaration through the file format is reported, not rejected
    q = Presentation.from_json_dict({
        "name": "bad", "products": [],
        "basis": [{"label": "x", "parity": 1, "sector": "a"}]})
    assert any(i.rule == "sector-parity" for i in q.validate().issues)


def test_validate_reports_associativity_failure():
    # e0, e1 idempotent with e0*e1 = c0 breaks associativity
    p = Presentation(
        "bad2", ["e0", "e1", "c0"], ["a", "a", "c"],
        {("e0", "e0"): {"e0": 1}, ("e1", "e1"): {"e1": 1},
         ("e0", "e1"): {"c0": 1}})
    rep = p.validate()
    assert any(i.rule == "associativity" for i in rep.issues)


def test_validate_reports_a_closure_failure():
    p = Presentation(
        "bad3", ["e", "c"], ["a", "c"],
        {("e", "e"): {"c": 1}})
    rep = p.validate()
    assert any(i.rule == "a-closure" for i in rep.issues)


def test_orthogonal_idempotent_family():
    z = make_extended_zigzag(2)
    fam = z.orthogonal_idempotent_family()
    assert [z.labels[i] for i in fam] == ["e0", "e1", "e2"]
    assert make_matrix_superalgebra(1, 1).orthogonal_idempotent_family() is None


def test_involution_validates_and_swaps_arrows():
    z = make_extended_zigzag(2)
    assert z.validate().valid
    i, sg = z.involution[z.index["a1_0"]]
    assert z.labels[i] == "a0_1" and sg == 1


def test_serialization_round_trip():
    for pres in [make_extended_zigzag(2), make_zigzag(2),
                 make_matrix_superalgebra(1, 1),
                 make_trivial_extension(make_zigzag(1))]:
        again = Presentation.from_json(pres.to_json())
        assert again == pres
        assert again.products == pres.products
        assert again.unit == pres.unit


def test_builtin_names():
    assert builtin("ext-zigzag:2").dim == 9
    assert builtin("zigzag:1").dim == 2
    assert builtin("matrix:1,1").dim == 4
    assert builtin("even-matrix:2").dim == 4
    assert builtin("trivext:zigzag:1").dim == 4
    assert builtin("sum:zigzag:1+zigzag:1").dim == 4
    with pytest.raises(ValueError):
        builtin("nope:3")
