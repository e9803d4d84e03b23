"""Finite-dimensional superalgebra presentations with a chosen even subalgebra.

A presentation lists a homogeneous basis, a sector for each basis element,
and integer structure constants.  The three sectors are

    'a'   : a basis of the distinguished even subalgebra,
    'c'   : a basis of an even complement of it,
    'odd' : a basis of the odd part.

Products are given by the sparse table kappa: (left, right) -> {result:
coefficient}; omitted pairs multiply to zero.  Validation checks parity
compatibility, associativity on all basis triples, closure of the 'a'
sector, unit axioms and (when declared) that the anti-involution is
involutive, anti-multiplicative and sector-preserving.

Constructors are provided for the standard examples: matrix superalgebras
M_{p|q}, trivial extensions C + C^*, and the (extended) zigzag path
algebras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ValidationIssue:
    rule: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"{self.rule} at {self.witness}: {self.detail}"


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)
    unital_good_pair: bool = False

    @property
    def valid(self):
        return not self.issues


def bilinear(table, x, y):
    """Bilinear extension of a basis-pair table(i, j) -> {k: c} to sparse
    coefficient dicts x and y; zero coefficients are dropped."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            c = xi * yj
            if not c:
                continue
            for k, f in table(i, j).items():
                v = out.get(k, 0) + c * f
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
    return out


def _json_int(value, what):
    """value if it is a JSON integer (a bool is not one), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


class Presentation:
    """Immutable superalgebra presentation over the integers."""

    def __init__(self, name, labels, sectors, products, unit=None,
                 involution=None, parity=None, truncation=None, form=None):
        """
        labels:     ordered basis labels (strings)
        sectors:    parallel list with entries 'a' | 'c' | 'odd'
        products:   {(left_label, right_label): {result_label: int}}
        unit:       optional {label: int} coefficient vector
        involution: optional {label: (label, sign)}
        parity:     optional declared parities; default follows the sectors.
                    A declared parity clashing with its sector is kept and
                    reported by validate(), not rejected here.
        truncation: optional {label: 1}, the distinguished idempotent of a
                    builtin family (the dcp truncation)
        form:       optional {label: int}, the family's symmetrizing form

        The two facts come from the constructor that defines the algebra;
        they are neither serialized nor compared, so a presentation read
        from a file carries none, whatever its name.
        """
        self.name = name
        self.truncation = truncation
        self.form = form
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.sectors = list(sectors)
        if len(self.sectors) != len(self.labels):
            raise ValueError("sector list must match basis")
        for sec in self.sectors:
            if sec not in ('a', 'c', 'odd'):
                raise ValueError(f"unknown sector {sec!r}")
        if parity is None:
            self.parity = [1 if s == 'odd' else 0 for s in self.sectors]
        else:
            self.parity = [int(p) % 2 for p in parity]
            if len(self.parity) != len(self.labels):
                raise ValueError("parity list must match basis")
        self.odd = frozenset(i for i, p in enumerate(self.parity) if p)
        self.products = {}
        for (l, r), res in products.items():
            li, ri = self.index[l], self.index[r]
            entry = {self.index[k]: int(v) for k, v in res.items() if v}
            if entry:
                self.products[(li, ri)] = entry
        self.unit = None
        if unit is not None:
            self.unit = {self.index[k]: int(v) for k, v in unit.items() if v}
        self.involution = None
        if involution is not None:
            self.involution = {self.index[k]: (self.index[v], int(sg))
                               for k, (v, sg) in involution.items()}

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self):
        return len(self.labels)

    def sector_indices(self, sec):
        return [i for i, s in enumerate(self.sectors) if s == sec]

    def mult_basis(self, i, j):
        """Structure constants of basis product i * j as {index: int}."""
        return self.products.get((i, j), {})

    def mult(self, x, y):
        """Bilinear product of coefficient vectors {index: int}."""
        return bilinear(self.mult_basis, x, y)

    def element(self, coeffs):
        """Coefficient vector from {label: coeff}."""
        return {self.index[k]: int(v) for k, v in coeffs.items() if v}

    def is_idempotent(self, x):
        return self.mult(x, x) == x

    def unital_good_pair(self):
        """Unit present with support inside sector 'a'."""
        return self.unit is not None and all(
            self.sectors[i] == 'a' for i in self.unit)

    def orthogonal_idempotent_family(self):
        """Sector-'a' basis labels that are orthogonal idempotents summing to
        the unit, or None when no such family is visible in the basis."""
        if self.unit is None:
            return None
        support = sorted(self.unit)
        if any(self.unit[i] != 1 or self.sectors[i] != 'a' for i in support):
            return None
        for i in support:
            for j in support:
                expect = {i: 1} if i == j else {}
                if self.mult_basis(i, j) != expect:
                    return None
        return support

    # -- validation ----------------------------------------------------------

    def validate(self):
        rep = ValidationReport()
        issues = rep.issues
        for i, sec in enumerate(self.sectors):
            want = 1 if sec == 'odd' else 0
            if self.parity[i] != want:
                issues.append(ValidationIssue(
                    "sector-parity", (self.labels[i],),
                    f"sector {sec!r} entry must have parity {want}"))
        for (i, j), res in self.products.items():
            want = (self.parity[i] + self.parity[j]) % 2
            for k in res:
                if self.parity[k] != want:
                    issues.append(ValidationIssue(
                        "parity-compatibility",
                        (self.labels[i], self.labels[j], self.labels[k]),
                        f"product has parity {self.parity[k]}, expected {want}"))
            if self.sectors[i] == 'a' and self.sectors[j] == 'a':
                for k in res:
                    if self.sectors[k] != 'a':
                        issues.append(ValidationIssue(
                            "a-closure",
                            (self.labels[i], self.labels[j], self.labels[k]),
                            "product of 'a' elements leaves sector 'a'"))
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.mult(self.mult_basis(i, j), {k: 1})
                    right = self.mult({i: 1}, self.mult_basis(j, k))
                    if left != right:
                        issues.append(ValidationIssue(
                            "associativity",
                            (self.labels[i], self.labels[j], self.labels[k]),
                            f"(xy)z={left} but x(yz)={right}"))
        if self.unit is not None:
            for i in range(n):
                b = {i: 1}
                if self.mult(self.unit, b) != b or self.mult(b, self.unit) != b:
                    issues.append(ValidationIssue(
                        "unit", (self.labels[i],), "unit axiom fails"))
        rep.unital_good_pair = self.unital_good_pair()
        if self.involution is not None:
            inv = self.involution
            if set(inv) != set(range(n)):
                issues.append(ValidationIssue(
                    "involution", (), "involution must be defined on all labels"))
            else:
                for i in range(n):
                    j, sg = inv[i]
                    j2, sg2 = inv[j]
                    if j2 != i or sg * sg2 != 1:
                        issues.append(ValidationIssue(
                            "involution-squared", (self.labels[i],),
                            "tau^2 is not the identity"))
                    if self.sectors[j] != self.sectors[i]:
                        issues.append(ValidationIssue(
                            "involution-sector", (self.labels[i],),
                            "tau must preserve sectors"))

                def tau(x):  # the involution, extended linearly
                    return bilinear(lambda k, _: dict([inv[k]]), x, {0: 1})

                for i in range(n):
                    for j in range(n):
                        lhs = tau(self.mult_basis(i, j))
                        rhs = self.mult(tau({j: 1}), tau({i: 1}))
                        if lhs != rhs:
                            issues.append(ValidationIssue(
                                "involution-antimultiplicative",
                                (self.labels[i], self.labels[j]),
                                f"tau(xy)={lhs} but tau(y)tau(x)={rhs}"))
        return rep

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        data = {
            "name": self.name,
            "basis": [{"label": lab, "parity": self.parity[i],
                       "sector": self.sectors[i]}
                      for i, lab in enumerate(self.labels)],
            "products": sorted(
                [self.labels[i], self.labels[j], self.labels[k], c]
                for (i, j), res in self.products.items()
                for k, c in res.items()),
        }
        if self.unit is not None:
            data["unit"] = sorted([self.labels[i], c] for i, c in self.unit.items())
        if self.involution is not None:
            data["involution"] = sorted(
                [self.labels[i], self.labels[j], sg]
                for i, (j, sg) in self.involution.items())
        return data

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data):
        """Read `to_json_dict`'s form back; coefficients, parities and
        involution signs must be JSON integers, and a parity 0 or 1."""
        labels = [b["label"] for b in data["basis"]]
        sectors = [b["sector"] for b in data["basis"]]
        parity = [_json_int(b["parity"], "parity") for b in data["basis"]]
        if any(p not in (0, 1) for p in parity):
            raise ValueError("a parity must be 0 or 1")
        products = {}
        for l, r, k, c in data.get("products", []):
            row = products.setdefault((l, r), {})
            row[k] = row.get(k, 0) + _json_int(c, "coefficient")
        unit = None
        if "unit" in data:
            unit = {l: _json_int(c, "coefficient") for l, c in data["unit"]}
        involution = None
        if "involution" in data:
            involution = {l: (r, _json_int(sg, "involution sign"))
                          for l, r, sg in data["involution"]}
        return cls(data["name"], labels, sectors, products, unit, involution,
                   parity=parity)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Presentation)
                and self.to_json_dict() == other.to_json_dict())

    def __repr__(self):
        return f"Presentation({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# bases adapted to idempotents
#
# Each helper takes a bilinear product mult(x, y) on sparse coefficient
# dicts; callers pass a presentation's, and read the corners and blocks
# of S off the letters' owners (``combinatorics.weight``).

def corner_keys(mult, keys, left=None, right=None, name=repr):
    """The keys k with left*k*right == k, for a basis adapted to the given
    idempotents (an omitted side acts as the identity).

    Every product must be k or 0; otherwise raises ValueError naming the
    first key that is neither, as name(key), as the witness.
    """
    out = []
    for k in keys:
        b = {k: 1}
        prod = b if right is None else mult(b, right)
        if left is not None:
            prod = mult(left, prod)
        if prod == b:
            out.append(k)
        elif prod:
            raise ValueError(
                f"basis is not adapted to the idempotent: witness {name(k)}")
    return out


def owners(mult, keys, family, side):
    """{key: index of the unique family member fixing it} on one side.

    side is "left" (f*k == k) or "right" (k*f == k); keys must be a
    sequence, as it is scanned once per member.  Raises ValueError
    when the basis is not adapted to a member, or a key has two owners
    or none.
    """
    found = {}
    for j, f in enumerate(family):
        fixed = corner_keys(mult, keys, left=f if side == "left" else None,
                            right=f if side == "right" else None)
        for k in fixed:
            if k in found:
                raise ValueError(
                    f"family does not act diagonally: witness {k!r} has two owners")
            found[k] = j
    for k in keys:
        if k not in found:
            raise ValueError(f"key {k!r} has no owner in the family")
    return found


def corner_family(pres, e):
    """Members f of the visible orthogonal idempotent family with e*f*e == f,
    as coefficient vectors, when they sum to e; None otherwise."""
    fam = pres.orthogonal_idempotent_family()
    if fam is None:
        return None
    try:
        keep = corner_keys(pres.mult, fam, e, e)
    except ValueError:
        # a member with e*f*e outside {f, 0} means the members fixed by e
        # cannot sum to e
        return None
    if {i: 1 for i in keep} != e:
        return None
    return [{i: 1} for i in keep]


# ---------------------------------------------------------------------------
# derived constructions

def truncate(pres, e, name=None, **facts):
    """Corner subalgebra e*A*e for an idempotent e with an adapted basis.

    Every basis element b must satisfy ebe = b or ebe = 0; the surviving
    labels keep their sectors and structure constants, and e becomes the
    unit.  Raises ValueError with a witness otherwise.  The corner is named
    name (default <pres.name>-corner) and carries only the given facts
    (truncation, form), none of pres's.
    """
    e = dict(e)
    if not pres.is_idempotent(e):
        raise ValueError("truncation element is not idempotent")
    survivors = corner_keys(pres.mult, range(pres.dim), e, e)
    keep = set(survivors)
    labels = [pres.labels[i] for i in survivors]
    sectors = [pres.sectors[i] for i in survivors]
    products = {}
    for (i, j), res in pres.products.items():
        if i in keep and j in keep:
            sub = {pres.labels[k]: c for k, c in res.items() if k in keep}
            # products of surviving elements stay in the corner
            if sub:
                products[(pres.labels[i], pres.labels[j])] = sub
    # e = e*e*e kills the non-surviving part of its own expansion
    unit = {pres.labels[i]: c for i, c in e.items() if i in keep}
    involution = None
    if pres.involution is not None and all(
            pres.involution[i][0] in keep for i in survivors):
        involution = {pres.labels[i]: (pres.labels[pres.involution[i][0]],
                                       pres.involution[i][1])
                      for i in survivors}
    return Presentation(name or pres.name + "-corner", labels, sectors,
                        products, unit, involution, **facts)


def direct_sum(p1, p2):
    """Block-diagonal direct sum; labels are prefixed to stay distinct.

    The result is named sum:<left>+<right>, the spelling builtin parses.
    """
    labels, sectors, products = [], [], {}
    unit = {} if p1.unit is not None and p2.unit is not None else None
    involution = ({} if p1.involution is not None
                  and p2.involution is not None else None)
    for t, pres in (("L", p1), ("R", p2)):
        lab = [f"{t}.{x}" for x in pres.labels]
        labels += lab
        sectors += pres.sectors
        for (i, j), res in pres.products.items():
            products[(lab[i], lab[j])] = {lab[k]: c for k, c in res.items()}
        if unit is not None:
            unit.update({lab[i]: c for i, c in pres.unit.items()})
        if involution is not None:
            involution.update({lab[i]: (lab[j], sg)
                               for i, (j, sg) in pres.involution.items()})
    return Presentation(f"sum:{p1.name}+{p2.name}", labels, sectors, products,
                        unit, involution)


# ---------------------------------------------------------------------------
# example algebras

def make_extended_zigzag(ell):
    """Extended zigzag algebra on vertices 0..ell.

    Arrows a(i,j) run from j to i for |i-j| = 1; paths of length three
    vanish, non-cycle length-two paths vanish, all length-two cycles at a
    vertex are identified (called c_j at vertex j < ell), and the cycle at
    the last vertex is zero.  Sectors: vertex idempotents 'a', cycles 'c',
    arrows odd.
    """
    if ell < 1:
        raise ValueError("need at least two vertices")
    verts = list(range(ell + 1))
    e = [f"e{i}" for i in verts]
    c = [f"c{j}" for j in range(ell)]
    arrows = {}
    for j in range(ell):
        arrows[(j + 1, j)] = f"a{j + 1}_{j}"
        arrows[(j, j + 1)] = f"a{j}_{j + 1}"
    labels = e + c + list(arrows.values())
    sectors = (['a'] * len(e)) + (['c'] * len(c)) + (['odd'] * len(arrows))

    products = {}

    def put(x, y, z, coeff=1):
        products.setdefault((x, y), {})[z] = coeff

    for i in verts:
        put(e[i], e[i], e[i])
    for j in range(ell):
        put(e[j], c[j], c[j])
        put(c[j], e[j], c[j])
    for (tgt, src), lab in arrows.items():
        put(e[tgt], lab, lab)
        put(lab, e[src], lab)
    # length-two cycles: a(j, j+1) a(j+1, j) is the cycle at j, and
    # a(j+1, j) a(j, j+1) is the cycle at j+1 (zero when j+1 = ell)
    for j in range(ell):
        put(arrows[(j, j + 1)], arrows[(j + 1, j)], c[j])
        if j + 1 < ell:
            put(arrows[(j + 1, j)], arrows[(j, j + 1)], c[j + 1])
    unit = {lab: 1 for lab in e}
    involution = {lab: (lab, 1) for lab in e + c}
    for (tgt, src), lab in arrows.items():
        involution[lab] = (arrows[(src, tgt)], 1)
    # the corner at vertices 0..ell-1 is the zigzag algebra: the DCP
    # truncation of the paper
    truncation = {lab: 1 for lab in e[:ell]}
    return Presentation(f"ext-zigzag:{ell}", labels, sectors, products,
                        unit, involution, truncation=truncation)


def make_zigzag(ell):
    """Zigzag algebra: corner of the extended zigzag at vertices 0..ell-1.

    Its symmetrizing form is 1 on every length-two cycle; its truncation
    is the sum of the first max(ell - 1, 1) vertex idempotents.
    """
    z = make_extended_zigzag(ell)
    return truncate(z, z.element(z.truncation), name=f"zigzag:{ell}",
                    truncation={f"e{i}": 1 for i in range(max(ell - 1, 1))},
                    form={f"c{j}": 1 for j in range(ell)})


def _matrix_units(name, m, sector, unital):
    """M_m on its matrix units E(r,s), of sector sector(r, s), with the
    transpose involution and truncation E(1,1); unital or not."""
    if m < 1:
        raise ValueError("need a positive matrix size")
    idx = range(1, m + 1)
    products = {(f"E{r}_{s}", f"E{s}_{t}"): {f"E{r}_{t}": 1}
                for r in idx for s in idx for t in idx}
    unit = {f"E{r}_{r}": 1 for r in idx} if unital else None
    involution = {f"E{r}_{s}": (f"E{s}_{r}", 1) for r in idx for s in idx}
    return Presentation(name, [f"E{r}_{s}" for r in idx for s in idx],
                        [sector(r, s) for r in idx for s in idx], products,
                        unit, involution, truncation={"E1_1": 1})


def make_matrix_superalgebra(p, q):
    """Matrix superalgebra on p even and q odd rows.

    E(r,s) is even when r, s are on the same side of p, odd otherwise; the
    distinguished even subalgebra is spanned by the E(r,s) with r, s <= p,
    so the pair carries no unit (a non-unital good pair) unless q = 0.
    """
    if p < 0 or q < 0:
        raise ValueError(f"matrix:{p},{q}: row counts must be >= 0")
    def sector(r, s):
        if (r <= p) != (s <= p):
            return 'odd'
        return 'a' if r <= p else 'c'

    return _matrix_units(f"matrix:{p},{q}", p + q, sector, q == 0)


def make_even_matrix(m):
    """Full matrix algebra with trivial grading, diagonal = sector 'a'.

    The good pair is (M_m, diagonal matrices); the off-diagonal matrix
    units span the even complement.  This is the standard source of
    idempotents that are sound for the algebra itself but not for its
    Schur-type extensions.
    """
    return _matrix_units(f"even-matrix:{m}", m,
                         lambda r, s: 'a' if r == s else 'c', True)


def make_trivial_extension(c):
    """Trivial extension: C plus its dual as a square-zero bimodule.

    Basis labels of the dual copy are suffixed with '*', one more than the
    longest run of '*' in a label of C, so a trivial extension of a trivial
    extension keeps its labels distinct.  The product is
    (a, f)(b, g) = (ab, a.g + f.b) with the dual regular actions; sector
    'a' is the even part of C, sector 'c' the duals of the even part, and
    the odd part collects the odd elements of both copies.
    """
    if c.unit is None:
        raise ValueError("trivial extension needs a unital input algebra")
    n = c.dim
    star = "*"
    while any(star in lab for lab in c.labels):
        star += "*"
    dual = [lab + star for lab in c.labels]
    labels = list(c.labels) + dual
    sectors = []
    for i in range(n):
        sectors.append('a' if c.parity[i] == 0 else 'odd')
    for i in range(n):
        sectors.append('c' if c.parity[i] == 0 else 'odd')
    # b_i b_j = sum_k coeff b_k gives the dual regular actions their
    # coefficients: b_j . b_k* has coeff at b_i*, and b_k* . b_i at b_j*;
    # they are read back in basis order, the order of the rows
    products = {}
    acts = {}  # (i, j, 0): b_i . b_j*, (i, j, 1): b_j* . b_i, as {k: coeff}
    for (i, j), res in c.products.items():
        products[(c.labels[i], c.labels[j])] = {
            c.labels[k]: coeff for k, coeff in res.items()}
        for k, coeff in res.items():
            acts.setdefault((j, k, 0), {})[i] = coeff
            acts.setdefault((i, k, 1), {})[j] = coeff
    for i, j, side in sorted(acts):
        pair = (dual[j], c.labels[i]) if side else (c.labels[i], dual[j])
        products[pair] = {dual[k]: coeff
                          for k, coeff in sorted(acts[i, j, side].items())}
    unit = {c.labels[i]: v for i, v in c.unit.items()}
    # the symmetrizing form evaluates a dual label at the unit
    form = {lab + star: v for lab, v in unit.items()}
    return Presentation(f"trivext:{c.name}", labels, sectors, products, unit,
                        form=form)


BUILTIN_HELP = (
    "ext-zigzag:L | zigzag:L | matrix:P,Q | even-matrix:M | "
    "trivext:<inner> | sum:<left>+<right>"
)


# the builtin kinds with integer sizes: their number, and the constructor
_SIZED = {"ext-zigzag": (1, make_extended_zigzag), "zigzag": (1, make_zigzag),
          "matrix": (2, make_matrix_superalgebra),
          "even-matrix": (1, make_even_matrix)}


def builtin(name):
    """Resolve a builtin algebra name like 'ext-zigzag:2' or 'sum:a+b'."""
    if ":" not in name:
        raise ValueError(f"not a builtin algebra: {name!r} (use {BUILTIN_HELP})")
    kind, _, arg = name.partition(":")
    if kind in _SIZED:
        arity, make = _SIZED[kind]
        try:
            sizes = [int(s) for s in arg.split(",")]
        except ValueError:
            sizes = None
        if sizes is None or len(sizes) != arity:
            raise ValueError(f"bad sizes in builtin algebra {name!r} "
                             f"(use {BUILTIN_HELP})")
        return make(*sizes)
    if kind == "trivext":
        return make_trivial_extension(builtin(arg))
    if kind == "sum":
        # each 'sum:' nested in the left summand owns one '+', so the left
        # summand ends at the first '+' that no 'sum:' before it owns
        for k, ch in enumerate(arg):
            if ch == "+" and arg.count("sum:", 0, k) == arg.count("+", 0, k):
                return direct_sum(builtin(arg[:k]), builtin(arg[k + 1:]))
        raise ValueError(f"not a builtin algebra: {name!r} (use {BUILTIN_HELP})")
    raise ValueError(f"unknown builtin algebra kind {kind!r} (use {BUILTIN_HELP})")
