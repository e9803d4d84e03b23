import random

from genschur.superalgebra import (
    builtin, make_extended_zigzag, make_zigzag, make_trivial_extension,
)
from genschur.forms import (
    check_central, check_pair_symmetrizing, subalgebra_trace,
    gram_subalgebra_trace,
)
from genschur.bialgebra import star
from genschur.schur import Ambient, multiply


def idx(pres, lab):
    return pres.index[lab]


def test_zigzag_form_is_symmetrizing():
    for ell in (1, 2):
        zz = make_zigzag(ell)
        t = zz.form
        rep = check_pair_symmetrizing(zz, t)
        assert rep.symmetrizing, rep.issues
        # dual of each vertex idempotent is the cycle at that vertex
        for i in range(ell):
            j, sign = rep.dual_letter[zz.index[f"e{i}"]]
            assert zz.labels[j] == f"c{i}" and sign == 1


def test_extended_zigzag_rejected_with_dimension_witness():
    z = make_extended_zigzag(1)
    t = {lab: 1 for lab in z.labels if lab.startswith("c")}
    rep = check_pair_symmetrizing(z, t)
    assert not rep.symmetrizing
    assert ("sector-dimensions", (2, 1)) in rep.issues


def test_trivial_extension_form_is_symmetrizing():
    zz = make_zigzag(1)
    e = make_trivial_extension(zz)
    t = e.form
    rep = check_pair_symmetrizing(e, t)
    assert rep.symmetrizing, rep.issues


def test_non_central_form_reported():
    zz = make_zigzag(2)
    t = {"c0": 1}  # missing the other cycle breaks centrality
    issues = check_central(zz, t)
    assert any(kind == "centrality" for kind, _ in issues)


def test_subalgebra_trace_values():
    zz = make_zigzag(1)
    t = zz.form
    amb = Ambient(zz, 2, 2)
    c0, e0 = idx(zz, "c0"), idx(zz, "e0")
    assert subalgebra_trace(amb.scaled_element(((c0, 1, 1), (c0, 2, 2))), t) == 1
    # off-diagonal words vanish
    assert subalgebra_trace(amb.scaled_element(((c0, 1, 2), (c0, 2, 1))), t) == 0
    # sector-'a' letters vanish
    assert subalgebra_trace(amb.scaled_element(((e0, 1, 1), (c0, 2, 2))), t) == 0


def test_trace_is_central():
    rng = random.Random(7)
    zz = make_zigzag(1)
    t = zz.form
    amb = Ambient(zz, 2, 2)
    B = amb.basis()
    for T in B:
        for U in B:
            x, y = amb.scaled_element(T), amb.scaled_element(U)
            assert subalgebra_trace(multiply(x, y), t) == \
                subalgebra_trace(multiply(y, x), t)


def test_trace_multiplicative_under_star():
    rng = random.Random(11)
    zz = make_zigzag(2)
    t = zz.form
    amb1 = Ambient(zz, 2, 1)
    amb2 = Ambient(zz, 2, 2)
    for _ in range(60):
        a = rng.choice([amb1, amb2])
        b = rng.choice([amb1, amb2])
        x = a.scaled_element(rng.choice(a.basis()))
        y = b.scaled_element(rng.choice(b.basis()))
        assert subalgebra_trace(star(x, y), t) == \
            subalgebra_trace(x, t) * subalgebra_trace(y, t)


def test_constant_letter_pairing_pattern():
    # trace of (constant-letter power) x (dual basis element) is 0 or +-1,
    # nonzero only against the transposed dual power; exhaustive at d = 2
    zz = make_zigzag(1)
    t = zz.form
    rep = check_pair_symmetrizing(zz, t)
    dual = {i: rep.dual_letter[i][0] for i in range(zz.dim)}
    amb = Ambient(zz, 2, 2)
    B = amb.basis()
    for b in range(zz.dim):
        for r in (1, 2):
            for s in (1, 2):
                T = ((b, r, s), (b, r, s))
                x = amb.scaled_element(T)
                for U in B:
                    val = subalgebra_trace(multiply(x, amb.scaled_element(U)), t)
                    assert val in (-1, 0, 1)
                    expected_U = tuple(sorted(((dual[b], s, r), (dual[b], s, r))))
                    if val:
                        assert U == expected_U
    assert True


def test_gram_is_signed_permutation():
    for ell, n, d in [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1)]:
        zz = make_zigzag(ell)
        t = zz.form
        rep = check_pair_symmetrizing(zz, t)
        amb = Ambient(zz, n, d)
        gram = gram_subalgebra_trace(amb, t, rep.dual_letter)
        assert gram.signed_permutation
        assert gram.det_abs == 1
        assert gram.partner_ok


def test_form_pairing_on_a_is_reported_without_a_dual_map():
    zz = make_zigzag(1)  # letters e0 ('a') and c0 ('c')
    rep = check_pair_symmetrizing(zz, {"e0": 1, "c0": 1})
    assert rep.issues == [("pairing-on-a", ("e0", "e0"))]
    assert rep.dual_letter is None


def test_imperfect_pairing_reports_its_smith_divisors():
    zz = make_zigzag(1)
    rep = check_pair_symmetrizing(zz, {"c0": 2})
    assert rep.issues == [("pairing-a-c-not-perfect", (2,)),
                          ("pairing-not-perfect", (2, 2))]
    assert rep.dual_letter is None


def test_gram_determinant_off_a_signed_permutation():
    zz = make_zigzag(1)
    amb = Ambient(zz, 1, 1)
    gram = gram_subalgebra_trace(amb, {"c0": 2})
    assert (gram.signed_permutation, gram.det_abs) == (False, 4)
    gram = gram_subalgebra_trace(amb, {})
    assert (gram.signed_permutation, gram.det_abs) == (False, None)


def test_gram_flags_a_wrong_dual_map():
    zz = make_zigzag(1)
    gram = gram_subalgebra_trace(Ambient(zz, 1, 1), zz.form, [(0, 1), (1, 1)])
    assert gram.signed_permutation and gram.partner_ok is False


def test_dual_letters_swap_the_sectors_property():
    # whenever a random form is symmetrizing with a letterwise dual map,
    # the map swaps 'a' and 'c' and keeps the odd letters odd
    rng = random.Random(37)
    names = ["zigzag:1", "zigzag:2", "zigzag:3", "trivext:zigzag:1",
             "trivext:zigzag:2", "trivext:matrix:1,0", "trivext:ext-zigzag:1",
             "matrix:1,1", "sum:zigzag:1+trivext:matrix:1,0"]
    values = {"a": (0, 0, 0, 1), "c": (-1, 0, 1, 2)}
    swap = {"a": "c", "c": "a", "odd": "odd"}
    reached = 0
    for name in names:
        pres = builtin(name)
        for _ in range(300):
            t = {lab: rng.choice(values[sec])
                 for lab, sec in zip(pres.labels, pres.sectors) if sec != "odd"}
            rep = check_pair_symmetrizing(pres, t)
            if rep.dual_letter is None:
                continue
            reached += 1
            assert rep.symmetrizing, (name, t)
            for i, (j, sign) in enumerate(rep.dual_letter):
                assert pres.sectors[j] == swap[pres.sectors[i]], (name, t)
                assert sign in (1, -1)
    assert reached >= 100


def test_gram_small_antidiagonal():
    zz = make_zigzag(1)
    t = zz.form
    amb = Ambient(zz, 1, 1)
    gram = gram_subalgebra_trace(amb, t)
    assert gram.matrix == [{1: 1}, {0: 1}]
