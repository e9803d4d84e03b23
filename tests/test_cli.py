import dataclasses
import itertools
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from genschur import bialgebra, cli, combinatorics, dcp, forms, schur
from genschur.cli import SUITES, divisor_counts, main, oracle_partners
from genschur.schur import Ambient, multiply
from genschur.superalgebra import (
    Presentation, builtin, direct_sum, make_even_matrix, make_extended_zigzag,
)

# presentation files that fail their axioms: in a_not_closed, e*e = e + c
# leaves sector 'a'; in a_square_in_c, the 'a' loop x squares to c.
# fractional_constant does not parse: its product e*e = 1.5 e is not integral
INVALID = Path(__file__).resolve().parent / "invalid"
NOT_CLOSED = str(INVALID / "a_not_closed.json")
SQUARE_IN_C = str(INVALID / "a_square_in_c.json")
FRACTIONAL = INVALID / "fractional_constant.json"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mult_counterexample_prints_four(capsys):
    code, out, err = run_cli(
        ["mult", "--algebra", "even-matrix:2", "-n", "2", "-d", "2",
         "[E1_2,E1_2|1,1|1,1]", "[E2_1,E2_1|1,1|1,1]", "--oracle"], capsys)
    assert code == 0
    assert "4*[E1_1,E1_1|1,1|1,1]" in out
    assert "agree: true" in out


@pytest.mark.parametrize("factors, product", [
    (["-[e0|1|1]", "[e0|1|1]"], "- [e0|1|1]"),
    (["[e0|1|1]", "-2*[e0|1|1]"], "- 2*[e0|1|1]"),
    (["--", "-[e0|1|1]", "-[e0|1|1]"], "[e0|1|1]"),
], ids=["leading-minus", "negative-coefficient", "after-double-dash"])
def test_mult_negative_factor_is_not_an_option(factors, product, capsys):
    code, out, err = run_cli(
        ["mult", "--algebra", "zigzag:1", "-n", "1", "-d", "1", "--oracle"]
        + factors, capsys)
    assert code == 0, err
    assert out.splitlines() == [product, f"oracle: {product}", "agree: true"]


def test_mult_identity_echoes(capsys):
    code, out, err = run_cli(
        ["mult", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "1",
         "[e0|1|1] + [e1|1|1]", "[c0|1|1]"], capsys)
    assert code == 0
    assert out.strip() == "[c0|1|1]"


def test_mult_malformed_triple_exits_2(capsys):
    code, out, err = run_cli(
        ["mult", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "1",
         "oops", "[c0|1|1]"], capsys)
    assert code == 2
    assert "triple" in err


@pytest.mark.parametrize("x", ["[e0*|1|1]", "e0*|1|1", "1*[e0*|1|1]",
                               "1 * e0*|1|1", "2*[e0*|1|1] - [e0*|1|1]"])
def test_dual_labels_need_no_coefficient(x, capsys):
    code, out, err = run_cli(
        ["mult", "--algebra", "trivext:zigzag:1", "-n", "1", "-d", "1",
         x, "[e0|1|1]"], capsys)
    assert (code, out.strip(), err) == (0, "[e0*|1|1]", "")


@pytest.mark.parametrize("x", ["x*[e0|1|1]", "*[e0|1|1]", "x*e0|1|1"])
def test_bad_coefficients_exit_2(x, capsys):
    code, out, err = run_cli(
        ["mult", "--algebra", "trivext:zigzag:1", "-n", "1", "-d", "1",
         x, "[e0|1|1]"], capsys)
    assert code == 2 and not out and err.startswith("error: ")


def test_unknown_suite_exits_2(capsys):
    code, out, err = run_cli(
        ["verify", "--algebra", "ext-zigzag:1", "nope"], capsys)
    assert code == 2


@pytest.mark.parametrize("args, message", [
    (["verify", "--algebra", "ext-zigzag:1", "nope"], "unknown suite 'nope'"),
    (["dcp", "--algebra", "zigzag:1", "-n", "0"], "need n >= 1 and d >= 0"),
    (["gram", "--algebra", "zigzag:1", "-d", "-1"], "need n >= 1 and d >= 0"),
], ids=["unknown-suite", "n-below-1", "d-below-0"])
def test_usage_errors_say_error(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and not out
    assert err.startswith(f"error: {message}")


def test_dcp_text_counts_the_divisors(capsys):
    # an unsound verdict says which divisor fails it
    code, out, err = run_cli(
        ["dcp", "--algebra", "even-matrix:2", "-n", "2", "-d", "2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "rank_q: 136", "dim_s: 136", "dim_end_q: 136",
        "divisors: 1 ×132, 2 ×4", "dcp_over_fractions: True",
        "sound: False", "dcp: False"]
    assert divisor_counts([1, 1, 3, 6, 6]) == "1 ×2, 3 ×1, 6 ×2"
    assert divisor_counts([]) == "none"


BAD_ALGEBRAS = [
    ("wat:9", "'wat'"), ("matrix:2,-1", "matrix:2,-1"),
    ("matrix:-1,2", "matrix:-1,2"),
    # malformed sizes: the message names the spec, not Python's parse
    ("matrix:1", "'matrix:1'"), ("matrix:1,2,3", "'matrix:1,2,3'"),
    ("ext-zigzag:x", "'ext-zigzag:x'"), ("zigzag:", "'zigzag:'"),
    ("even-matrix:2.5", "'even-matrix:2.5'"),
]


@pytest.mark.parametrize("algebra, named", BAD_ALGEBRAS,
                         ids=[a for a, _ in BAD_ALGEBRAS])
def test_unknown_algebra_exits_2(algebra, named, capsys):
    code, out, err = run_cli(
        ["verify", "--algebra", algebra, "signs"], capsys)
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err.splitlines()[0]
    assert "unpack" not in err and "invalid literal" not in err


def test_verify_report_is_deterministic(capsys):
    args = ["verify", "--algebra", "ext-zigzag:1", "-n", "2", "-d", "1",
            "--seed", "7", "--format", "json", "signs"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("algebra, n", [
    ("matrix:1,1", 1), ("matrix:1,1", 3), ("even-matrix:2", 3),
])
def test_verify_dcp_counterexample_expected_pass(algebra, n, capsys):
    code, out, err = run_cli(
        ["verify", "--algebra", algebra, "-n", str(n), "-d", "2",
         "--format", "json", "dcp"], capsys)
    assert code == 0
    report = json.loads(out)
    (check,) = report["checks"]
    assert check["status"] == "pass"
    assert check["detail"]["sound"] is False
    assert check["detail"]["expected"] == {"sound": False}


@pytest.mark.parametrize("args", [
    ["dcp", "--algebra", "sum:zigzag:1+matrix:1,0", "-n", "1", "-d", "1"],
    ["verify", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "0", "all"],
    ["verify", "--algebra", NOT_CLOSED, "-n", "1", "-d", "2", "all"],
    ["dcp", "--algebra", NOT_CLOSED, "-n", "1", "-d", "2"],
    ["verify", "--algebra", SQUARE_IN_C, "-n", "1", "-d", "2", "all"],
    ["dcp", "--algebra", SQUARE_IN_C, "-n", "1", "-d", "2"],
])
def test_reports_without_traceback(args, capsys):
    # an exception escaping main would fail the test before the assertion;
    # dcp on an invalid file is a usage error, every other run a report
    code, out, err = run_cli(args, capsys)
    if args[0] == "dcp" and args[2] in (NOT_CLOSED, SQUARE_IN_C):
        assert code == 2 and not out and err.startswith("error: ")
    else:
        assert code in (0, 1) and out


def test_invalid_files_report_their_errors(capsys):
    # the library raises ValueError on both non-integral results ...
    not_closed = Presentation.from_json(Path(NOT_CLOSED).read_text())
    with pytest.raises(ValueError, match="generator is not a lattice point"):
        bialgebra.generation_closure(Ambient(not_closed, 1, 2))
    square_in_c = Presentation.from_json(Path(SQUARE_IN_C).read_text())
    amb = Ambient(square_in_c, 1, 2)
    with pytest.raises(ValueError, match="non-integral product"):
        dcp.schur_dcp(amb, square_in_c.element({"e0": 1}))
    # ... which verify reports as one failing check per raising suite
    for jobs in ("1", "2"):
        code, out, err = run_cli(
            ["verify", "--algebra", NOT_CLOSED, "-n", "1", "-d", "2",
             "--format", "json", "--jobs", jobs, "all"], capsys)
        assert code == 1 and err == ""
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert checks["presentation/validate"]["status"] == "fail"
        assert checks["generation/error"] == {
            "id": "generation/error", "status": "fail", "mode": "exhaustive",
            "instance": {"algebra": "a-not-closed", "n": 1, "d": 2},
            "detail": "ValueError: generator is not a lattice point"}
        assert not any(c["id"].endswith("/error") for c in checks.values()
                       if c["id"] != "generation/error")


def _rescale_witness(algebra, capsys):
    code, out, err = run_cli(["verify", "--algebra", algebra, "-n", "1",
                              "-d", "2", "--format", "json", "integrality"],
                             capsys)
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    return code, checks["integrality/rescale-witness"]


def test_rescale_witness_skips_without_a_unit(tmp_path, capsys):
    # one 'c' letter and no products: no pair can show the rescaling, and
    # without a unit none has to, so the check skips instead of failing
    path = tmp_path / "c_letter.json"
    path.write_text(json.dumps({
        "name": "c-letter", "products": [],
        "basis": [{"label": "x0", "parity": 0, "sector": "c"}]}))
    code, out, err = run_cli(["verify", "--algebra", str(path), "-n", "1",
                              "-d", "2", "presentation"], capsys)
    assert code == 0
    code, check = _rescale_witness(str(path), capsys)
    assert code == 0
    assert check["status"] == "skip"
    assert "no unit" in check["detail"]


def test_rescale_witness_fails_with_a_unit_and_no_witness(capsys,
                                                          monkeypatch):
    code, check = _rescale_witness("zigzag:1", capsys)
    assert code == 0 and check["status"] == "pass"
    assert check["detail"]["witness"]
    # with a unit, [x^2]*1 = [x^2] must show a scale above 1
    monkeypatch.setattr(Ambient, "scale_of", lambda amb, T: 1)
    code, check = _rescale_witness("zigzag:1", capsys)
    assert code == 1
    assert check["status"] == "fail" and check["detail"] == {"witness": None}


def test_random_presentation_files_exit_cleanly(tmp_path):
    # any 1-3-letter file: a report or a usage error, never an exception
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = str(tmp_path / "alg.json")

    @st.composite
    def files(draw):
        labels = ["x0", "x1", "x2"][:draw(st.integers(1, 3))]
        letter = st.sampled_from(labels)
        basis = []
        for lab in labels:
            sector = draw(st.sampled_from(["a", "a", "c", "odd"]))
            parity = int(sector == "odd") ^ draw(st.sampled_from([0] * 6 + [1]))
            basis.append({"label": lab, "parity": parity, "sector": sector})
        products = draw(st.lists(st.tuples(letter, letter, letter,
                                           st.sampled_from([-1, 1, 1, 2])),
                                 max_size=2 * len(labels) ** 2))
        data = {"name": "random", "basis": basis,
                "products": [list(p) for p in products]}
        unit = draw(st.none() | st.lists(letter, min_size=1, unique=True))
        if unit is not None:
            data["unit"] = [[lab, 1] for lab in unit]
        if draw(st.integers(0, 4)) == 0:
            data["involution"] = [[lab, draw(letter), draw(st.sampled_from(
                [-1, 1]))] for lab in labels]
        return data, draw(letter), draw(letter)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(files())
    # an even letter whose square is odd: the oracle cannot re-expand x0 x0
    @hypothesis.example(({"name": "random", "products": [["x0", "x0", "x1", 1]],
                          "basis": [{"label": "x0", "parity": 0, "sector": "c"},
                                    {"label": "x1", "parity": 1,
                                     "sector": "odd"}]},
                         "x0", "x0"))
    def exits_cleanly(case):
        data, a, b = case
        Path(path).write_text(json.dumps(data))
        common = ["--algebra", path, "-n", "1", "-d", "2"]
        for argv in (["verify"] + common + ["all"], ["dcp"] + common,
                     ["dump"] + common,
                     ["mult"] + common + ["--oracle", f"[{a},{b}|1,1|1,1]",
                                          f"[{b},{a}|1,1|1,1]"]):
            assert main(argv) in (0, 1, 2), argv

    exits_cleanly()


@pytest.mark.parametrize("algebra, n, d", [
    ("even-matrix:2", 1, 1), ("matrix:0,1", 1, 1), ("matrix:1,0", 1, 2),
])
def test_verify_dcp_sound_outside_counterexample(algebra, n, d, capsys):
    code, out, err = run_cli(
        ["verify", "--algebra", algebra, "-n", str(n), "-d", str(d),
         "--format", "json", "dcp"], capsys)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "pass"
    assert check["detail"]["sound"] is True
    assert "expected" not in check["detail"]


def test_truncation_outside_the_lattice_is_reported(capsys):
    # E1_1 lies in sector 'c' of M_{0|1}, so at d = 2 its spread idempotent
    # has a coefficient 1/2 in the scaled basis
    args = ["--algebra", "matrix:0,1", "-n", "1", "-d", "2"]
    code, out, err = run_cli(["verify"] + args + ["--format", "json", "dcp"],
                             capsys)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "skip"
    assert "not a lattice point" in check["detail"]
    code, out, err = run_cli(["dcp"] + args, capsys)
    assert code == 2 and "not a lattice point" in err
    code, out, err = run_cli(["dcp"] + args + ["--basis", "orbit"], capsys)
    assert code == 0


def test_verify_jobs_parallel_matches_serial(capsys):
    args = ["verify", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "1",
            "--format", "json", "--seed", "5", "all"]
    code1, serial, _ = run_cli(args, capsys)
    code2, parallel, _ = run_cli(args + ["--jobs", "2"], capsys)
    assert code1 == code2 == 0
    assert serial == parallel
    # a serial run shares one ambient across its suites; each suite run
    # alone gets a fresh one, and the checks must not tell the difference
    for algebra, n, d in (("zigzag:1", "2", "2"), ("ext-zigzag:1", "1", "2")):
        base = ["verify", "--algebra", algebra, "-n", n, "-d", d,
                "--format", "json", "--seed", "5"]
        code, out, _ = run_cli(base + ["all"], capsys)
        assert code == 0
        alone = []
        for suite in SUITES[:-1]:
            code, one, _ = run_cli(base + [suite], capsys)
            assert code == 0
            alone.extend(json.loads(one)["checks"])
        assert json.loads(out)["checks"] == alone


def _oracle_grid(capsys, n=1, d=1):
    code, out, _ = run_cli(
        ["verify", "--algebra", "ext-zigzag:1", "-n", str(n), "-d", str(d),
         "--format", "json", "product-oracle"], capsys)
    (check,) = json.loads(out)["checks"]
    return code, check["status"], check["detail"]


def test_oracle_grid_counts_every_fast_disagreement(monkeypatch, capsys):
    amb = Ambient(builtin("ext-zigzag:1"), 1, 1)
    basis = amb.basis()
    tensors = {T: schur.to_tensor(amb.scaled_element(T)) for T in basis}
    joined = oracle_partners(amb, tensors)
    # the pairs the grid serves; off them both routes are 0 by a rule
    served = [(T, U) for T in basis for U in basis
              if U in joined[T] or U in amb.partners(T)]
    wrong = set(served[::2][:5])
    assert len(wrong) == 5
    true_constants = Ambient.scaled_constants

    # the table the fast product reads
    def corrupted(amb, T, U):
        got = dict(true_constants(amb, T, U))
        if (T, U) in wrong:
            got[T] = got.get(T, 0) + 1
        return got

    monkeypatch.setattr(Ambient, "scaled_constants", corrupted)
    code, status, detail = _oracle_grid(capsys)
    assert (code, status) == (1, "fail")
    assert detail == {"pairs": len(basis) ** 2, "disagreements": 5}


def test_oracle_grid_catches_side_keys_that_reject_a_nonzero_product(
        monkeypatch, capsys):
    # give the right end of a0_1 a class of its own: a0_1*e1 and
    # a0_1*a1_0 are nonzero, yet the side keys of every triple with an
    # a0_1 cell now reject all its partners, and the fast product reads 0
    pres = builtin("ext-zigzag:1")
    true_classes = schur._letter_classes
    a01 = pres.index["a0_1"]

    def split(pres):
        left, right = true_classes(pres)
        right = list(right)
        right[a01] = max(left + right) + 1
        return left, right

    monkeypatch.setattr(schur, "_letter_classes", split)
    amb = Ambient(pres, 2, 1)
    basis = amb.basis()
    # the product kernel itself reads no side key
    rejected = sum(1 for T in basis for U in basis
                   if schur._structure_constants(amb, T, U)
                   and amb.side_keys(T)[1] != amb.side_keys(U)[0])
    assert rejected == 16  # a0_1 at 4 (row, col), each times 2 letters
    code, status, detail = _oracle_grid(capsys, n=2)
    assert (code, status) == (1, "fail")
    assert detail == {"pairs": len(basis) ** 2, "disagreements": rejected}


def test_oracle_grid_catches_a_wrong_tensor_product(monkeypatch, capsys):
    true_product = schur.tensor_multiply
    corrupted_calls = []

    def corrupted(tx, ty):
        t = true_product(tx, ty)
        if t.coeffs and not corrupted_calls:
            # twice an invariant tensor is invariant: it re-expands fine
            corrupted_calls.append((tx, ty))
            t = schur.TensorElement(t.amb, {k: 2 * v
                                            for k, v in t.coeffs.items()})
        return t

    monkeypatch.setattr(schur, "tensor_multiply", corrupted)
    code, status, detail = _oracle_grid(capsys)
    assert len(corrupted_calls) == 1
    assert (code, status, detail["disagreements"]) == (1, "fail", 1)


def _grid_checks(suite, capsys):
    code, out, _ = run_cli(["verify", "--algebra", "zigzag:1", "-n", "2",
                            "-d", "2", "--format", "json", suite], capsys)
    return code, {c["id"]: c for c in json.loads(out)["checks"]}


def test_sampled_grids_draw_the_pair_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "PAIR_LIMIT", 30)
    for suite, counted in (("product-oracle", "disagreements"),
                           ("integrality", "non_integral")):
        _, checks = _grid_checks(suite, capsys)
        check = checks[f"{suite}/grid"]
        assert (check["mode"], check["status"]) == ("sampled", "pass")
        assert check["detail"] == {"pairs": 30, counted: 0}
    true_constants = Ambient.scaled_constants

    # one extra unit at T on every pair the fast product reads
    def corrupted(amb, T, U):
        got = dict(true_constants(amb, T, U))
        got[T] = got.get(T, 0) + 1
        return got

    monkeypatch.setattr(Ambient, "scaled_constants", corrupted)
    code, checks = _grid_checks("product-oracle", capsys)
    check = checks["product-oracle/grid"]
    assert (code, check["status"]) == (1, "fail")
    assert check["detail"] == {"pairs": 30, "disagreements": 30}


def test_sampled_integrality_keeps_the_exhaustive_witness(monkeypatch,
                                                          capsys):
    _, checks = _grid_checks("integrality", capsys)
    exhaustive = checks["integrality/rescale-witness"]
    assert exhaustive["status"] == "pass" and exhaustive["detail"]["witness"]
    monkeypatch.setattr(cli, "PAIR_LIMIT", 30)
    code, checks = _grid_checks("integrality", capsys)
    assert code == 0
    assert checks["integrality/grid"]["mode"] == "sampled"
    assert checks["integrality/rescale-witness"] == exhaustive


def _dcp_check(monkeypatch, capsys, **changes):
    true_dcp = dcp.schur_dcp

    def altered(*args):
        rep, setup = true_dcp(*args)
        return dataclasses.replace(rep, **changes), setup

    monkeypatch.setattr(dcp, "schur_dcp", altered)
    code, out, _ = run_cli(["verify", "--algebra", "ext-zigzag:1", "-n", "2",
                            "-d", "2", "--format", "json", "dcp"], capsys)
    (check,) = json.loads(out)["checks"]
    return code, check


def test_dcp_check_fails_an_inconsistent_report(monkeypatch, capsys):
    code, check = _dcp_check(monkeypatch, capsys, sound=False)
    assert (code, check["status"]) == (1, "fail")
    assert check["detail"]["dcp"] is True  # as expected, yet not sound


def test_dcp_check_fails_against_its_expected_verdict(monkeypatch, capsys):
    code, check = _dcp_check(monkeypatch, capsys, dcp=False,
                             dcp_over_fractions=False)
    assert (code, check["status"]) == (1, "fail")
    assert check["detail"]["expected"] == {"dcp": True}


def test_timings_add_one_entry_per_suite(capsys):
    args = ["verify", "--algebra", "zigzag:1", "-n", "1", "-d", "2",
            "--format", "json", "all"]
    code, plain, _ = run_cli(args, capsys)
    assert code == 0
    code, timed, _ = run_cli(args + ["--timings"], capsys)
    assert code == 0
    report = json.loads(timed)
    assert list(report.pop("timings_s")) == sorted(SUITES[:-1])
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == plain


def test_gram_refuses_a_form_that_is_not_symmetrizing(monkeypatch, capsys):
    rep = forms.FormReport([("centrality", ("c0", "e0"))])
    monkeypatch.setattr(forms, "check_pair_symmetrizing", lambda pres, t: rep)
    code, out, err = run_cli(
        ["gram", "--algebra", "zigzag:1", "-n", "1", "-d", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("stock form is not symmetrizing")


def test_gram_zigzag_small(capsys):
    code, out, err = run_cli(
        ["gram", "--algebra", "zigzag:1", "-n", "1", "-d", "1"], capsys)
    assert code == 0
    assert "|det| = 1" in out


def test_dcp_json_schema(capsys):
    code, out, err = run_cli(
        ["dcp", "--algebra", "ext-zigzag:1", "-n", "2", "-d", "1",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    for key in ("rank_q", "dim_end_q", "divisors", "dcp_over_fractions",
                "sound", "dcp"):
        assert key in data


def test_dump_round_trip(tmp_path, capsys):
    out_file = tmp_path / "dump.json"
    code, out, err = run_cli(
        ["dump", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "2",
         "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    # reload: the dumped table must reproduce live products bit-exactly
    from genschur.superalgebra import Presentation
    pres = Presentation.from_json_dict(data["algebra"])
    amb = Ambient(pres, data["n"], data["d"])
    basis = [tuple(tuple(c) for c in T) for T in
             (tuple(__import__("genschur.schur", fromlist=["parse_triple"])
                    .parse_triple(amb, t) for t in data["basis"]),)][0]
    basis = [t for t in basis]
    table = {}
    for i, j, k, c in data["products"]:
        table.setdefault((i, j), {})[k] = c
    for i, T in enumerate(basis):
        for j, U in enumerate(basis):
            live = multiply(amb.scaled_element(T), amb.scaled_element(U))
            want = {basis[k]: c for k, c in table.get((i, j), {}).items()}
            assert live.coeffs == want


def test_spec_file_round_trip(tmp_path, capsys):
    z = make_extended_zigzag(2)
    path = tmp_path / "alg.json"
    path.write_text(z.to_json())
    code, out, err = run_cli(
        ["verify", "--algebra", str(path), "-n", "1", "-d", "1",
         "--format", "json", "presentation"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"]


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "genschur.cli", "mult",
         "--algebra", "zigzag:1", "-n", "1", "-d", "1",
         "[e0|1|1]", "[c0|1|1]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[c0|1|1]" in proc.stdout


def test_reader_closing_the_pipe_early_gives_no_traceback():
    # the report (136 kB) outgrows the pipe buffer, so the writer is still
    # printing when the reader goes away, as under `| head -2`
    proc = subprocess.Popen(
        [sys.executable, "-m", "genschur.cli", "dump",
         "--algebra", "ext-zigzag:1", "-n", "2", "-d", "2",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err and err == ""


@pytest.mark.parametrize("target", ["missing/x.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_out_is_a_usage_error(target, tmp_path, capsys):
    # an exception escaping main would fail the test before the assertions
    code, out, err = run_cli(
        ["dcp", "--algebra", "zigzag:1", "-n", "1", "-d", "1",
         "--out", str(tmp_path / target)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_dump_refuses_non_integral_constants(tmp_path, capsys):
    # off-diagonal matrix units in sector 'a' do not make a good pair:
    # E1_2^2 * E2_1^2 is half a scaled basis element
    data = make_even_matrix(2).to_json_dict()
    for b in data["basis"]:
        b["sector"] = "a" if b["label"] in ("E1_2", "E2_1") else "c"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    out_file = tmp_path / "dump.json"
    code, out, err = run_cli(
        ["dump", "--algebra", str(path), "-n", "1", "-d", "2",
         "--out", str(out_file)], capsys)
    assert code == 1
    assert not out_file.exists() and out == ""
    assert "(i, j, k, value) = (4, 7, 0, 1/2)" in err


def test_signs_skip_draws_without_a_valid_triple(tmp_path, capsys):
    # a single odd letter has no valid triple of degree 5 on two rows
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "name": "odd-line", "products": [],
        "basis": [{"label": "x", "parity": 1, "sector": "odd"}]}))
    for suite in ("signs", "all"):
        code, out, err = run_cli(
            ["verify", "--algebra", str(path), "-n", "1", "-d", "1",
             "--format", "json", suite], capsys)
        assert code == 0
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        samples = checks["signs/permutation-bracket"]["detail"]["samples"]
        assert 0 < samples < 200


def test_stabilizer_order_check_catches_a_wrong_index(monkeypatch, capsys):
    # [T]! one too large on every triple with a repeated cell: the brute
    # count of {sigma : T sigma = T} must disagree there
    true_weights = combinatorics.factorial_weights

    def wrong(triple, sectors):
        total, w_a, w_c = true_weights(triple, sectors)
        if len(set(triple)) < len(triple):
            total += 1
        return total, w_a, w_c

    monkeypatch.setattr(combinatorics, "factorial_weights", wrong)
    code, out, err = run_cli(
        ["verify", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "1",
         "--format", "json", "signs"], capsys)
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    check = checks["signs/stabilizer-order"]
    assert (code, check["status"]) == (1, "fail")
    assert 0 < check["detail"]["failures"] < check["detail"]["triples"]


def test_signs_skip_an_empty_basis(tmp_path, capsys):
    # with no basis letter there is nothing to draw a triple from
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "x", "basis": []}))
    for suite in ("signs", "all"):
        code, out, err = run_cli(
            ["verify", "--algebra", str(path), "--format", "json", suite],
            capsys)
        assert code == 0 and err == ""
        signs = [c for c in json.loads(out)["checks"]
                 if c["id"].startswith("signs/")]
        assert [c["status"] for c in signs] == ["skip"] * 3
        assert all(c["detail"] == "needs at least one basis letter"
                   for c in signs)


@pytest.mark.parametrize("algebra", ["ext-zigzag:1", "ext-zigzag:2",
                                     "ext-zigzag:3"])
def test_zigzag_identities_pass_where_they_apply(algebra, monkeypatch,
                                                  capsys):
    def statuses():
        got = []
        for n in ("2", "3"):
            code, out, _ = run_cli(
                ["verify", "--algebra", algebra, "-n", n, "-d", "2",
                 "--format", "json", "zigzag-identities"], capsys)
            (check,) = json.loads(out)["checks"]
            assert check["id"] == "zigzag-identities/two-column"
            got.append((code, check["status"]))
        return got

    assert statuses() == [(0, "pass")] * 2
    # a tensor route that returns 0 breaks every identity
    monkeypatch.setattr(schur, "multiply_oracle", lambda x, y: x.amb.zero())
    assert statuses() == [(1, "fail")] * 2


def _one_letter(parity=0, coeff=1):
    return json.dumps({
        "name": "x", "basis": [{"label": "e", "parity": parity,
                                "sector": "a"}],
        "products": [["e", "e", "e", coeff]], "unit": [["e", 1]]})


@pytest.mark.parametrize("text", [
    '{"name": "x", "basis": 5}',
    '[1, 2]',
    '{"name": "x", "basis": [], "unit": 5}',
    pytest.param(FRACTIONAL.read_text(), id="fractional-constant"),
    pytest.param(_one_letter(parity=0.5), id="parity-one-half"),
    pytest.param(_one_letter(parity=2), id="parity-two"),
    pytest.param(_one_letter(coeff=True), id="bool-coefficient"),
])
def test_malformed_algebra_file_exits_2(text, tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(text)
    code, out, err = run_cli(
        ["verify", "--algebra", str(path), "presentation"], capsys)
    assert code == 2
    assert "bad algebra file" in err


def test_sum_names_parse_back(capsys):
    for name in ("ext-zigzag:1", "zigzag:2", "matrix:1,1", "even-matrix:2",
                 "trivext:zigzag:1", "sum:zigzag:1+matrix:1,0",
                 "sum:trivext:zigzag:1+zigzag:1",
                 "trivext:sum:zigzag:1+zigzag:1"):
        pres = builtin(name)
        assert pres.name == name and builtin(pres.name) == pres
    # a sum gets no stock form from the name of its left summand
    code, out, err = run_cli(
        ["verify", "--algebra", "sum:zigzag:1+matrix:1,0", "-n", "1", "-d",
         "2", "--format", "json", "all"], capsys)
    assert code == 0
    forms = [(c["id"], c["status"]) for c in json.loads(out)["checks"]
             if c["id"].startswith("forms/")]
    assert forms == [("forms/gram", "skip")]


def test_nested_sum_names_parse_back(capsys):
    zz = builtin("zigzag:1")
    left = direct_sum(direct_sum(zz, zz), zz)
    right = direct_sum(zz, direct_sum(zz, zz))
    assert left.name == "sum:sum:zigzag:1+zigzag:1+zigzag:1"
    assert right.name == "sum:zigzag:1+sum:zigzag:1+zigzag:1"
    for pres in (left, right, direct_sum(left, right)):
        assert builtin(pres.name) == pres
    code, out, err = run_cli(
        ["verify", "--algebra", left.name, "-n", "1", "-d", "1",
         "presentation"], capsys)
    assert code == 0, err


def test_nested_trivial_extension_labels_stay_distinct(capsys):
    # un-nested duals keep one '*'; each nesting level adds stars
    assert builtin("trivext:matrix:1,0").labels == ["E1_1", "E1_1*"]
    pres = builtin("trivext:trivext:matrix:1,0")
    assert pres.labels == ["E1_1", "E1_1*", "E1_1**", "E1_1***"]
    assert pres.form == {"E1_1**": 1}
    code, out, err = run_cli(
        ["verify", "--algebra", pres.name, "-n", "1", "-d", "1",
         "presentation"], capsys)
    assert code == 0, err


def write_impostor(pres, path):
    """pres as a JSON file that keeps its builtin name but prefixes every
    label with 'x'; return the path as a string."""
    data = pres.to_json_dict()

    def x(lab):
        return "x" + lab

    data["basis"] = [dict(b, label=x(b["label"])) for b in data["basis"]]
    data["products"] = [[x(l), x(r), x(k), c] for l, r, k, c in data["products"]]
    if "unit" in data:
        data["unit"] = [[x(l), c] for l, c in data["unit"]]
    if "involution" in data:
        data["involution"] = [[x(l), x(r), sg] for l, r, sg in data["involution"]]
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name, command", [
    ("even-matrix:2", ["dcp"]),
    ("ext-zigzag:1", ["verify", "zigzag-identities"]),
    ("ext-zigzag:1", ["dcp"]),
])
def test_builtin_named_files_get_no_builtin_facts(name, command, tmp_path,
                                                   capsys):
    # a file spelling a builtin's name gets the family fallback, not the
    # builtin's labels (these raised KeyError and RecursionError)
    path = write_impostor(builtin(name), tmp_path / "alg.json")
    code, out, err = run_cli(
        command[:1] + ["--algebra", path, "-n", "2", "-d", "2"] + command[1:],
        capsys)
    assert code == 0, err


@pytest.mark.parametrize("args", [
    ["verify", "--algebra", "ext-zigzag:1", "--basis", "orbit", "presentation"],
    ["dump", "--algebra", "ext-zigzag:1", "--seed", "9", "--jobs", "4",
     "--basis", "orbit"],
    ["gram", "--algebra", "zigzag:1", "--basis", "orbit"],
    ["mult", "--algebra", "zigzag:1", "--seed", "9", "[e0|1|1]", "[e0|1|1]"],
    ["dcp", "--algebra", "zigzag:1", "--jobs", "2"],
])
def test_flags_a_subcommand_ignores_are_usage_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_a_usage_error(jobs, capsys):
    code, out, err = run_cli(
        ["verify", "--algebra", "zigzag:1", "-n", "1", "-d", "1",
         "--jobs", jobs, "all"], capsys)
    assert code == 2 and not out
    assert "--jobs: need at least 1" in err


def test_exit_codes_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    impostor = write_impostor(builtin("ext-zigzag:1"), tmp_path / "alg.json")
    algebras = ["ext-zigzag:1", "zigzag:1", "zigzag:2", "matrix:1,1",
                "matrix:0,1", "even-matrix:2", "trivext:matrix:1,0",
                "sum:zigzag:1+matrix:1,0", impostor]
    commands = [["dcp"], ["gram"], ["verify", "dcp"], ["verify", "forms"],
                ["verify", "zigzag-identities"]]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(algebras), st.sampled_from([1, 2]),
                      st.sampled_from([0, 1, 2]), st.sampled_from(commands))
    def exits_cleanly(algebra, n, d, command):
        # an exception escaping main fails the property
        code = main(command[:1] + ["--algebra", algebra, "-n", str(n),
                                   "-d", str(d)] + command[1:])
        assert code in (0, 1, 2)

    exits_cleanly()


def readme_commands():
    """Every `genschur ...` line of the README's CLI block, as argv."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("genschur ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code in (0, 1), err
