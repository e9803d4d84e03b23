"""Command-line front end.

Subcommands:

* mult   -- multiply two elements given in triple text form
* verify -- run a named verification suite, emit a machine-readable report
* gram   -- Gram matrix of the subalgebra trace, with determinant
* dcp    -- double-centralizer verdict for the standard truncation
* dump   -- scaled-basis structure constants as (i, j, k, coeff) rows;
            a non-integral constant is reported on stderr with exit 1

Algebras come from builtin names (ext-zigzag:L, zigzag:L, matrix:P,Q,
even-matrix:M, trivext:<inner>, sum:<a>+<b>) or from a JSON presentation
file.  A builtin's truncation idempotent and symmetrizing form come from
its constructor; a file carries neither, whatever its name, and gets the
orthogonal-family truncation.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage or parse error.  Reports are byte-identical for a fixed
(config, seed); wall-clock timings are added only with --timings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from . import bialgebra, combinatorics, dcp, forms, schur, superalgebra
from .schur import Ambient, ORBIT, SCALED
from .superalgebra import (
    make_even_matrix, make_extended_zigzag, make_matrix_superalgebra,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

SUITES = ("presentation", "product-oracle", "integrality", "bialgebra",
          "signs", "zigzag-identities", "forms", "dcp", "generation", "all")


class UsageError(Exception):
    pass


def load_algebra(source):
    try:
        return superalgebra.builtin(source)
    except ValueError as builtin_err:
        try:
            with open(source) as fh:
                return superalgebra.Presentation.from_json(fh.read())
        except OSError:
            raise UsageError(str(builtin_err))
        except (KeyError, TypeError, ValueError) as e:
            raise UsageError(f"bad algebra file {source!r}: {e}")


def parse_element(amb, text, tag):
    """Linear combination of triples: '2*[b|r|s] - [b|r|s]' or bare triples.

    A coefficient ends at a '*' before the opening '[', or, on a bare
    triple, at a '*' after a leading integer; any other '*' belongs to a
    label (the dual letters of a trivial extension end in one)."""
    text = text.strip()
    if not text:
        raise UsageError("empty element expression")
    # tokenize on +/- at top level
    terms = []
    sign = 1
    buf = ""
    for ch in text:
        if ch in "+-" and not buf.strip():
            sign = sign * (1 if ch == "+" else -1)
        elif ch in "+-":
            terms.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    parsed = []
    for sgn, term in terms:
        coeff = sgn
        body = term
        pre, star, rest = term.partition("*")
        if star and "[" not in pre and ("[" in rest
                                        or pre.strip().isdecimal()):
            try:
                coeff = sgn * int(pre)
            except ValueError:
                raise UsageError(f"bad coefficient in {term!r}")
            body = rest
        body = body.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            parsed.append((schur.parse_triple(amb, body), coeff))
        except ValueError as e:
            raise UsageError(str(e))
    return schur.sum_terms(amb, parsed, tag)


def standard_truncation(pres):
    """The distinguished idempotent used by the dcp command and check: the
    constructor's, else the first member of the orthogonal family."""
    if pres.truncation is not None:
        return pres.truncation
    fam = pres.orthogonal_idempotent_family()
    if not fam:
        raise UsageError(
            f"no standard truncation idempotent for algebra {pres.name!r}")
    return {pres.labels[fam[0]]: 1}


# ---------------------------------------------------------------------------
# verification checks.  Each returns a dict with id/status/detail fields.

def _check(id_, status, instance, mode, detail=None):
    out = {"id": id_, "instance": instance, "status": status, "mode": mode}
    if detail is not None:
        out["detail"] = detail
    return out


def _instance(amb):
    return {"algebra": amb.pres.name, "n": amb.n, "d": amb.d}


PAIR_LIMIT = 250000  # beyond this many basis pairs, grid checks sample


def check_presentation(amb, seed):
    rep = amb.pres.validate()
    detail = [str(i) for i in rep.issues[:10]]
    return [_check("presentation/validate", "pass" if rep.valid else "fail",
                   _instance(amb), "exhaustive",
                   detail or f"unital_pair={rep.unital_good_pair}")]


def _pair_grid(amb, seed, partners):
    """(pairs, mode, total) of a grid check.  Up to PAIR_LIMIT basis
    pairs the grid is exhaustive: it visits the pairs (T, U) with U in
    partners(T), in basis order, which must hold every pair whose product
    can be nonzero.  Above it, a seeded sample of all pairs."""
    basis = amb.basis()
    total = len(basis) ** 2
    if total <= PAIR_LIMIT:
        return ((T, U) for T in basis for U in partners(T)), \
            "exhaustive", total
    rng = random.Random(seed)
    pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(PAIR_LIMIT)]
    return iter(pairs), "sampled", PAIR_LIMIT


def oracle_partners(amb, tensors):
    """{T: the set of U} over the basis elements whose elementary tensors
    ``tensors[T]`` and ``tensors[U]`` have a pair of terms that meet
    (``schur.meet_tables``).  Found by a join on the nonzero letter
    products ``pres.products`` alone: each term of U is indexed by its
    word of (row, letter), and each term of T looks up the words of
    (column, c) with a*c != 0 at each position, a being its letter
    there.  On any other pair the tensor product has no terms."""
    right = {}
    for a, c in amb.pres.products:
        right.setdefault(a, []).append(c)
    by_word = {}
    for U, t in tensors.items():
        for ky in t.coeffs:
            by_word.setdefault(tuple((r, b) for b, r, _ in ky), set()).add(U)
    partners = {}
    for T, t in tensors.items():
        got = partners[T] = set()
        for kx in t.coeffs:
            for word in itertools.product(
                    *[[(s, c) for c in right.get(a, ())] for a, _, s in kx]):
                got.update(by_word.get(word, ()))
    return partners


def check_product_oracle(amb, seed):
    """The fast product against the tensor route on the pairs of the
    grid.  Each basis element is expanded into elementary tensors once.
    The tensor route, re-expansion check included, runs on the pairs
    ``oracle_partners`` finds; on any other pair it is exactly 0.  The
    exhaustive grid visits those pairs and ``Ambient.partners``: off
    both, both routes are 0."""
    basis = amb.basis()
    tensors = {T: schur.to_tensor(amb.scaled_element(T)) for T in basis}
    partners = oracle_partners(amb, tensors)
    order = {T: k for k, T in enumerate(basis)}
    pairs, mode, total = _pair_grid(amb, seed, lambda T: sorted(
        partners[T].union(amb.partners(T)), key=order.__getitem__))
    bad = 0
    for T, U in pairs:
        oracle = {}
        if U in partners[T]:
            oracle = schur.from_tensor(schur.tensor_multiply(
                tensors[T], tensors[U]), SCALED).coeffs
        if amb.scaled_constants(T, U) != oracle:
            bad += 1
    status = "pass" if bad == 0 else "fail"
    return [_check("product-oracle/grid", status, _instance(amb), mode,
                   {"pairs": total, "disagreements": bad})]


def check_integrality(amb, seed):
    pairs, mode, total = _pair_grid(amb, seed, amb.partners)
    bad = sum(1 for T, U in pairs
              if any(isinstance(v, Fraction)
                     for v in amb.scaled_constants(T, U).values()))
    out = [_check("integrality/grid", "pass" if bad == 0 else "fail",
                  _instance(amb), mode,
                  {"pairs": total, "non_integral": bad})]
    if any(s == 'c' for s in amb.pres.sectors):
        # at degree >= 2 a pair may show a scaling factor above 1,
        # witnessing that the scaled lattice is proper; with a unit one
        # must, as T*1 = T for T = [x^d] of a 'c' letter x.  The witness
        # is the first in the exhaustive grid's order, sampled or not
        witness = next(((schur.format_triple(amb, T),
                         schur.format_triple(amb, U))
                        for T in amb.basis() for U in amb.partners(T)
                        if (amb.scale_of(T) > 1 or amb.scale_of(U) > 1)
                        and amb.scaled_constants(T, U)), None)
        if amb.d < 2:
            status, detail = "skip", "no repeated cells at degree < 2"
        elif witness or amb.pres.unit is not None:
            status = "pass" if witness else "fail"
            detail = {"witness": witness}
        else:
            status, detail = "skip", "no rescaled product, and no unit"
        out.append(_check("integrality/rescale-witness", status,
                          _instance(amb), "exhaustive", detail))
    return out


def check_bialgebra(amb, seed):
    pres, d = amb.pres, amb.d
    out = []
    bad = sum(1 for T in amb.basis()
              if not bialgebra.check_coassociative(amb.scaled_element(T)))
    out.append(_check("bialgebra/coassociativity",
                      "pass" if bad == 0 else "fail", _instance(amb),
                      "exhaustive", {"basis": len(amb.basis()), "failures": bad}))
    if d == 0:
        out.append(_check("bialgebra/exchange-identity", "skip",
                          _instance(amb), "sampled",
                          "needs degree d >= 1"))
        return out
    rng = random.Random(seed)
    fails = 0
    count = 50
    for _ in range(count):
        degs = [rng.randint(1, max(d, 1)) for _ in range(2)]
        total = sum(degs)
        d3 = rng.randint(max(0, total - d), min(d, total))
        d4 = total - d3

        def pick(dd):
            a = amb.graded(dd)
            basis = a.basis()
            if not basis:
                return schur.identity(a) if pres.unit else a.zero()
            return a.scaled_element(rng.choice(basis), rng.choice([1, -1, 2]))

        x, y, z, u = pick(degs[0]), pick(degs[1]), pick(d3), pick(d4)
        if not bialgebra.check_exchange_identity(x, y, z, u):
            fails += 1
    out.append(_check("bialgebra/exchange-identity",
                      "pass" if fails == 0 else "fail", _instance(amb),
                      "sampled", {"samples": count, "failures": fails}))
    return out


def check_signs(amb, seed):
    pres, n = amb.pres, amb.n
    if not pres.dim:
        return [_check(f"signs/{name}", "skip", _instance(amb), mode,
                       "needs at least one basis letter")
                for name, mode in (("permutation-bracket", "sampled"),
                                   ("adjacent-exchange", "sampled"),
                                   ("stabilizer-order", "exhaustive"))]
    rng = random.Random(seed)
    odd = pres.odd

    def draw(tries, dd, bound, rows=None):
        """The first valid one of up to `tries` random triples of dd cells
        with entries in [1, bound] (and these rows, if given), or None."""
        for _ in range(tries):
            cand = tuple((rng.randrange(pres.dim),
                          rows[k] if rows else rng.randint(1, bound),
                          rng.randint(1, bound)) for k in range(dd))
            if combinatorics.is_valid_triple(cand, odd, bound):
                return cand
        return None

    out = []
    bad = checked = 0
    for _ in range(200):
        dd = rng.randint(1, 5)
        trip = draw(200, dd, max(n, 2))
        if trip is None:
            continue
        checked += 1
        sigma = tuple(rng.sample(range(dd), dd))
        lhs = (combinatorics.bracket(trip, odd)
               + combinatorics.bracket(combinatorics.apply_perm(trip, sigma), odd)) % 2
        rhs = combinatorics.perm_bracket(
            sigma, [c[0] for c in trip], odd) % 2
        bad += lhs != rhs
    out.append(_check("signs/permutation-bracket", "pass" if bad == 0 else "fail",
                      _instance(amb), "sampled",
                      {"samples": checked, "failures": bad}))
    bad = checked = 0
    while checked < 200:
        dd = rng.randint(2, 5)
        a_trip = draw(200, dd, 2)
        if a_trip is None:
            break
        c_trip = draw(100, dd, 2, rows=[c[2] for c in a_trip])
        if c_trip is None:
            continue
        k = rng.randrange(dd - 1)
        pa = [pres.parity[c[0]] for c in a_trip]
        pc = [pres.parity[c[0]] for c in c_trip]
        if not (pa[k] == pc[k] or pa[k + 1] == pc[k + 1]):
            continue
        sk = tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, dd))

        def total(at, ct):
            return (combinatorics.bracket(at, odd)
                    + combinatorics.bracket(ct, odd)
                    + combinatorics.pair_bracket(
                        [c[0] for c in at], [c[0] for c in ct], odd)) % 2

        bad += total(a_trip, c_trip) != total(
            combinatorics.apply_perm(a_trip, sk),
            combinatorics.apply_perm(c_trip, sk))
        checked += 1
    out.append(_check("signs/adjacent-exchange", "pass" if bad == 0 else "fail",
                      _instance(amb), "sampled",
                      {"samples": checked, "failures": bad}))
    # the first 4,000 canonical triples with d <= 4, n <= 2: |{sigma : T
    # sigma = T}|, T sigma running over itertools.permutations(T), against
    # the [T]! that scales the bases
    triples = list(itertools.islice(itertools.chain.from_iterable(
        combinatorics.enumerate_canonical(pres.dim, nn, dd, odd)
        for dd in range(1, 5) for nn in (1, 2)), 4000))
    bad = sum(sum(1 for moved in itertools.permutations(trip)
                  if moved == trip)
              != combinatorics.factorial_weights(trip, pres.sectors)[0]
              for trip in triples)
    out.append(_check("signs/stabilizer-order", "pass" if bad == 0 else "fail",
                      _instance(amb), "exhaustive",
                      {"triples": len(triples), "bounds": "d<=4, n<=2",
                       "failures": bad}))
    return out


def _extended_zigzag_length(pres):
    """L when pres is the constructor's ext-zigzag:L, else None."""
    ell = len(pres.truncation or ())
    return ell if ell and pres == make_extended_zigzag(ell) else None


# The two-column identities of the extended zigzag algebra of length L, in
# columns 1 and 2, with up = a(L-1)_L, down = a_L(L-1), last = e_L and
# cyc = c(L-1).  A row (x, y, t, side) says that [x,x|1,2|t,t] times
# [y,y|t,t|1,2], on the tensor route, is the named side:
#   cycles = [cyc,cyc|1,2|1,2] - [cyc,cyc|2,1|1,2], up to sign;
#   arrows = [down,down|1,2|1,2] + [down,down|2,1|1,2], exactly.
ZIGZAG_PRODUCTS = (
    ("up", "down", 1, "cycles"),
    ("up", "down", 2, "cycles"),
    ("last", "down", 1, "arrows"),
    ("last", "down", 2, "arrows"),
)


def check_zigzag_identities(amb, seed):
    pres = amb.pres
    ell = _extended_zigzag_length(pres) if amb.n >= 2 and amb.d == 2 \
        else None
    if ell is None:
        return [_check("zigzag-identities/two-column", "skip",
                       _instance(amb), "exhaustive",
                       "needs an extended zigzag algebra at n>=2, d=2")]
    instance = _instance(amb)
    amb = Ambient(pres, 2, 2)  # the identities live in columns 1 and 2
    letter = {"up": f"a{ell - 1}_{ell}", "down": f"a{ell}_{ell - 1}",
              "last": f"e{ell}", "cyc": f"c{ell - 1}"}

    def pair(x, cells):
        """[x,x|r1,r2|s1,s2] for cells ((r1, s1), (r2, s2))."""
        return amb.scaled_element(
            tuple((pres.index[letter[x]], r, s) for r, s in cells))

    cycles = pair("cyc", ((1, 1), (2, 2))) - pair("cyc", ((2, 1), (1, 2)))
    arrows = pair("down", ((1, 1), (2, 2))) + pair("down", ((2, 1), (1, 2)))
    allowed = {"cycles": (cycles, -cycles), "arrows": (arrows,)}
    # the two terms of the cycle side are independent, of opposite signs
    ok = sorted(cycles.coeffs.values()) == [-1, 1]
    for x, y, t, side in ZIGZAG_PRODUCTS:
        lhs = schur.multiply_oracle(pair(x, ((1, t), (2, t))),
                                    pair(y, ((t, 1), (t, 2))))
        ok = ok and lhs in allowed[side]
    return [_check("zigzag-identities/two-column", "pass" if ok else "fail",
                   instance, "exhaustive",
                   {"columns": [1, 2]})]


def check_forms(amb, seed):
    pres = amb.pres
    t = pres.form
    if t is None:
        return [_check("forms/gram", "skip", _instance(amb),
                       "exhaustive", "no stock symmetrizing form")]
    rep = forms.check_pair_symmetrizing(pres, t)
    out = [_check("forms/symmetrizing", "pass" if rep.symmetrizing else "fail",
                  _instance(amb), "exhaustive",
                  [str(i) for i in rep.issues[:5]] or None)]
    if rep.symmetrizing:
        gram = forms.gram_subalgebra_trace(amb, t, rep.dual_letter)
        ok = gram.signed_permutation and gram.det_abs == 1 and \
            (gram.partner_ok is not False)
        out.append(_check("forms/gram", "pass" if ok else "fail",
                          _instance(amb), "exhaustive",
                          {"basis": len(gram.basis),
                           "signed_permutation": gram.signed_permutation,
                           "det_abs": gram.det_abs}))
    return out


def check_dcp(amb, seed):
    pres, n, d = amb.pres, amb.n, amb.d
    try:
        e = standard_truncation(pres)
        rep, _ = dcp.schur_dcp(amb, pres.element(e), SCALED)
    except (UsageError, ValueError) as err:
        return [_check("dcp/verdict", "skip", _instance(amb),
                       "exhaustive", str(err))]
    detail = rep.to_json_dict()
    detail["idempotent"] = sorted(e)
    consistent = rep.dcp == (rep.dcp_over_fractions and rep.sound)
    expected = None
    if d == 2 and n in (1, 2, 3) and pres in (make_matrix_superalgebra(1, 1),
                                              make_even_matrix(2)):
        # the counterexample, where unsoundness was computed; at d=1 the
        # algebra is M_n(A) and these idempotents are sound
        expected = {"sound": False}
    elif d <= n and _extended_zigzag_length(pres):
        expected = {"dcp": True}
    status = "pass"
    if not consistent:
        status = "fail"
    if expected:
        for k, v in expected.items():
            if detail[k] != v:
                status = "fail"
        detail["expected"] = expected
    return [_check("dcp/verdict", status, _instance(amb), "exhaustive",
                   detail)]


def check_generation(amb, seed):
    if not amb.pres.unital_good_pair():
        return [_check("generation/closure", "skip", _instance(amb),
                       "exhaustive", "needs a unital pair")]
    rep = bialgebra.generation_closure(amb)
    return [_check("generation/closure",
                   "pass" if rep.reached_full else "fail",
                   _instance(amb), "exhaustive",
                   {"rank": rep.rank, "full_rank": rep.full_rank,
                    "rounds": rep.rounds, "generators": rep.generator_count})]


CHECKS = {
    "presentation": check_presentation,
    "product-oracle": check_product_oracle,
    "integrality": check_integrality,
    "bialgebra": check_bialgebra,
    "signs": check_signs,
    "zigzag-identities": check_zigzag_identities,
    "forms": check_forms,
    "dcp": check_dcp,
    "generation": check_generation,
}


def run_suites(pres, n, d, seed, suites):
    """(suite, checks, seconds) for each suite, all on one ambient, so a
    structure constant one suite computes is read by the later ones.

    A suite that raises, as on a presentation that fails its axioms, is
    reported as one failing check '<suite>/error' naming the exception."""
    amb = Ambient(pres, n, d)
    out = []
    for suite in suites:
        t0 = time.monotonic()
        try:
            results = CHECKS[suite](amb, seed)
        except Exception as err:
            results = [_check(f"{suite}/error", "fail", _instance(amb),
                              "exhaustive", f"{type(err).__name__}: {err}")]
        out.append((suite, results, time.monotonic() - t0))
    return out


def _run_one(args):
    """One suite in a worker process, on its own ambient."""
    source, n, d, seed, suite = args
    return run_suites(load_algebra(source), n, d, seed, [suite])[0]


# ---------------------------------------------------------------------------
# commands: each returns (exit code, payload, text); ``main`` emits the
# payload, or nothing when it is None

def cmd_mult(opts):
    pres = load_algebra(opts.algebra)
    amb = Ambient(pres, opts.n, opts.d)
    tag = SCALED if opts.basis == "scaled" else ORBIT
    x = parse_element(amb, opts.x, tag)
    y = parse_element(amb, opts.y, tag)
    prod = schur.multiply(x, y)
    payload = {"product": schur.format_element(prod), "basis": opts.basis}
    if opts.oracle:
        try:
            other = schur.multiply_oracle(x, y)
        except schur.ReexpressionError as err:
            # only a presentation that fails its axioms gets here
            raise UsageError(f"oracle: {err}; see `verify presentation`")
        payload["oracle"] = schur.format_element(other)
        payload["agree"] = prod == other
    code = EXIT_FAIL if opts.oracle and not payload["agree"] else EXIT_OK
    return code, payload, render_mult(payload)


def render_mult(payload):
    lines = [payload["product"]]
    if "oracle" in payload:
        lines.append(f"oracle: {payload['oracle']}")
        lines.append(f"agree: {str(payload['agree']).lower()}")
    return "\n".join(lines)


def cmd_verify(opts):
    if opts.suite not in SUITES:
        print(f"error: unknown suite {opts.suite!r} "
              f"(choose from {', '.join(SUITES)})", file=sys.stderr)
        return EXIT_USAGE, None, None
    suites = [s for s in SUITES if s != "all"] if opts.suite == "all" \
        else [opts.suite]
    pres = load_algebra(opts.algebra)  # fail early with exit 2 on bad source
    if opts.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        jobs = [(opts.algebra, opts.n, opts.d, opts.seed, s) for s in suites]
        with ProcessPoolExecutor(max_workers=opts.jobs) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = run_suites(pres, opts.n, opts.d, opts.seed, suites)
    checks = []
    timings = {}
    for suite, res, elapsed in results:
        checks.extend(res)
        timings[suite] = round(elapsed, 3)
    passed = all(c["status"] != "fail" for c in checks)
    report = {
        "config": {"algebra": opts.algebra, "n": opts.n, "d": opts.d,
                   "seed": opts.seed, "suite": opts.suite},
        "checks": checks,
        "passed": passed,
    }
    if opts.timings:
        report["timings_s"] = timings
    text_lines = []
    for c in checks:
        text_lines.append(f"[{c['status']:>4}] {c['id']} "
                          f"(algebra={c['instance']['algebra']}, "
                          f"n={c['instance']['n']}, d={c['instance']['d']}, "
                          f"{c['mode']})")
    text_lines.append("result: " + ("PASS" if passed else "FAIL"))
    return (EXIT_OK if passed else EXIT_FAIL), report, "\n".join(text_lines)


def cmd_gram(opts):
    pres = load_algebra(opts.algebra)
    t = pres.form
    if t is None:
        print(f"no stock symmetrizing form for {pres.name!r}", file=sys.stderr)
        return EXIT_USAGE, None, None
    rep = forms.check_pair_symmetrizing(pres, t)
    if not rep.symmetrizing:
        print(f"stock form is not symmetrizing: {rep.issues}", file=sys.stderr)
        return EXIT_FAIL, None, None
    amb = Ambient(pres, opts.n, opts.d)
    gram = forms.gram_subalgebra_trace(amb, t, rep.dual_letter)
    matrix = [[row.get(j, 0) for j in range(len(gram.basis))]
              for row in gram.matrix]
    payload = {
        "basis": [schur.format_triple(amb, T) for T in gram.basis],
        "matrix": matrix,
        "det_abs": gram.det_abs,
        "signed_permutation": gram.signed_permutation,
    }
    text = "\n".join(" ".join(str(v) for v in row) for row in matrix)
    text += f"\n|det| = {gram.det_abs}"
    return EXIT_OK, payload, text


def cmd_dcp(opts):
    pres = load_algebra(opts.algebra)
    e = standard_truncation(pres)
    amb = Ambient(pres, opts.n, opts.d)
    tag = SCALED if opts.basis == "scaled" else ORBIT
    try:
        rep, _ = dcp.schur_dcp(amb, pres.element(e), tag)
    except ValueError as err:
        raise UsageError(f"idempotent {sorted(e)}: {err}")
    payload = rep.to_json_dict()
    payload["idempotent"] = sorted(e)
    lines = [f"{k}: {payload[k]}" for k in ("rank_q", "dim_s", "dim_end_q")]
    lines.append(f"divisors: {divisor_counts(rep.divisors)}")
    lines += [f"{k}: {payload[k]}" for k in
              ("dcp_over_fractions", "sound", "dcp")]
    return EXIT_OK, payload, "\n".join(lines)


def divisor_counts(divisors):
    """Elementary divisors as counts by increasing value: '1 ×132, 2 ×4'."""
    counts = sorted(Counter(divisors).items())
    return ", ".join(f"{x} ×{c}" for x, c in counts) or "none"


def cmd_dump(opts):
    pres = load_algebra(opts.algebra)
    amb = Ambient(pres, opts.n, opts.d)
    basis = amb.basis()
    index = {T: k for k, T in enumerate(basis)}
    rows = []
    for i, T in enumerate(basis):
        for U in amb.partners(T):
            j = index[U]
            for V, c in sorted(amb.scaled_constants(T, U).items()):
                if isinstance(c, Fraction):
                    print(f"error: non-integral structure constant "
                          f"(i, j, k, value) = ({i}, {j}, {index[V]}, {c})",
                          file=sys.stderr)
                    return EXIT_FAIL, None, None
                rows.append([i, j, index[V], c])
    payload = {
        "algebra": pres.to_json_dict(),
        "n": amb.n,
        "d": amb.d,
        "basis": [schur.format_triple(amb, T) for T in basis],
        "products": rows,
    }
    text = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return EXIT_OK, payload, text


def _emit(opts, payload, text):
    out = json.dumps(payload, indent=2, sort_keys=True) \
        if opts.format == "json" else text
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


# ---------------------------------------------------------------------------

def positive_int(text):
    """argparse type of --jobs: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with one '-' and holds a triple ('['
    or '|') as a positional, so a negative factor such as '-[e0|1|1]' or
    '-2*[e0|1|1]' is not taken for an option; no option name holds either
    character."""

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and ("[" in arg_string or "|" in arg_string)):
            return None
        return super()._parse_optional(arg_string)


def build_parser():
    p = argparse.ArgumentParser(
        prog="genschur",
        description="Exact computations in generalized Schur superalgebras.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--algebra", required=True,
                        help=f"builtin ({superalgebra.BUILTIN_HELP}) or JSON file")
        sp.add_argument("-n", type=int, default=2, help="matrix size")
        sp.add_argument("-d", type=int, default=2, help="tensor degree")
        sp.add_argument("--out", help="write output to a file")
        sp.add_argument("--format", choices=("json", "text"), default="text")

    def basis(sp):
        sp.add_argument("--basis", choices=("scaled", "orbit"), default="scaled",
                        help="basis scaling for elements")

    sp = sub.add_parser("mult", help="multiply two elements")
    common(sp)
    basis(sp)
    sp.add_argument("x", help="left factor, e.g. '2*[e0,e0|1,1|1,1]'")
    sp.add_argument("y", help="right factor")
    sp.add_argument("--oracle", action="store_true",
                    help="also run the elementary-tensor product route")
    sp.set_defaults(func=cmd_mult)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--seed", type=int, default=2024,
                    help="seed for sampled checks")
    sp.add_argument("--jobs", type=positive_int, default=1,
                    help="parallel workers for independent checks")
    sp.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timings in the report")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gram", help="Gram matrix of the subalgebra trace")
    common(sp)
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("dcp", help="double-centralizer verdict")
    common(sp)
    basis(sp)
    sp.set_defaults(func=cmd_dcp)

    sp = sub.add_parser("dump", help="dump scaled structure constants")
    common(sp)
    sp.set_defaults(func=cmd_dump)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if getattr(opts, "n", 1) < 1 or getattr(opts, "d", 0) < 0:
        print("error: need n >= 1 and d >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, payload, text = opts.func(opts)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if payload is not None:
        try:
            _emit(opts, payload, text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): the rest of the output,
            # also what is flushed at exit, goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError as e:
            # --out names a path that cannot be written
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
