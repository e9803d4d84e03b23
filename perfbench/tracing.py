"""Per-layer tracing of genschur from outside the library.

``Tracer.install`` replaces selected public functions and methods of the
modules under ``src/genschur`` with timing wrappers, and ``uninstall``
puts the originals back.  A function is replaced under every name that
binds it in any genschur module, so names bound by ``from ... import``
(``dcp.integer_kernel``, ``forms.multiply``) are traced too.

Two kinds of wrapper:

* a *span* records each call (name, parent span, start, end, self time);
  it is used for coarse calls: verdicts, DCP stages, verify suites;
* a *hot* wrapper only adds to a count, total time and self time per
  (function, parent span); it is used for calls made hundreds of
  thousands of times.

Self time is a call's duration minus the time of the traced calls it
made.  The wrapper's own bookkeeping is charged to neither.  Everything
stays in memory until ``summary``.

``bench.unattributed_s`` is the verdict time minus the *covered* time: the
time of the outermost traced calls, each of which has a per-layer metric
for its total (``schur.multiply.s``, ``dcp.setup.s`` + ``dcp.verdict.s``,
``cli.suite.<suite>.s``, ``cli.emit.s``).  ``cli.main`` is a transparent
span: it wraps a whole ``verify`` unit and has no metric, so the calls it
makes count as outermost instead, and its own time outside them stays
unattributed.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import weakref

ROOT_SPAN = "bench.verdict"
CLI_SUITES = ("presentation", "product-oracle", "integrality", "bialgebra",
              "signs", "zigzag-identities", "forms", "dcp", "generation")

# Per-layer metrics printed by a traced run, with their units.
PER_LAYER = (
    ("combinatorics.basis.s", "s"),
    ("combinatorics.basis.size", "count"),
    ("superalgebra.eq.calls", "count"),
    ("superalgebra.eq.s", "s"),
    ("schur.multiply.calls", "count"),
    ("schur.multiply.s", "s"),
    ("schur.multiply.self_s", "s"),
    ("schur.sc.calls", "count"),
    ("schur.sc.s", "s"),
    ("schur.sc.distinct", "count"),
    ("schur.sc.hit_ratio", "ratio"),
    ("schur.sc.nonzero_ratio", "ratio"),
    ("schur.oracle.calls", "count"),
    ("schur.to_tensor.s", "s"),
    ("schur.tensor_multiply.s", "s"),
    ("schur.from_tensor.s", "s"),
    ("schur.tensor_terms", "count"),
    ("exactlin.integer_kernel.calls", "count"),
    ("exactlin.integer_kernel.s", "s"),
    ("exactlin.integer_kernel.rows", "count"),
    ("exactlin.integer_kernel.max_cols", "count"),
    ("exactlin.integer_kernel.density", "ratio"),
    ("exactlin.smith.calls", "count"),
    ("exactlin.smith.s", "s"),
    ("exactlin.smith.max_dim", "count"),
    ("exactlin.add_row.calls", "count"),
    ("exactlin.add_row.s", "s"),
    ("exactlin.add_row.grew_ratio", "ratio"),
    ("dcp.setup.s", "s"),
    ("dcp.verdict.s", "s"),
    ("dcp.hom.self_s", "s"),
    ("dcp.hom.blocks", "count"),
    ("dcp.hom.nonempty_blocks", "count"),
    ("dcp.hom.rank", "count"),
    ("dcp.lambda.self_s", "s"),
    ("dcp.lambda.nonzeros", "count"),
    ("forms.gram.s", "s"),
    ("forms.gram.self_s", "s"),
    ("bialgebra.generation.s", "s"),
    ("bialgebra.generation.rounds", "count"),
    ("bialgebra.star.calls", "count"),
    ("bialgebra.coproduct.calls", "count"),
    ("bialgebra.coproduct.s", "s"),
) + tuple((f"cli.suite.{s}.s", "s") for s in CLI_SUITES) + (
    ("cli.emit.s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.tracing_overhead_s", "s"),
)


def _genschur_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "genschur" or name.startswith("genschur.")]


class Tracer:
    """Spans and hot-call aggregates for one measured unit."""

    def __init__(self):
        self.frames = [[0.0]]        # child time of each open traced call
        self.open_spans = [0]        # indices into self.spans
        self.spans = [{"name": ROOT_SPAN, "parent": None,
                       "start": 0.0, "end": 0.0, "self": 0.0}]
        self.agg = {}                # (name, parent span name) -> [n, s, self]
        self.counts = {}             # extra counters by metric name
        self.depth = [0]             # open traced calls, transparent ones aside
        self.covered = {}            # name -> [time as an outermost call]
        self.missing = []            # hook targets absent from the library
        self._undo = []              # (owner, attribute, original)
        self._sc_seen = set()
        self._sc_ambients = {}       # id -> (weak reference, serial)
        self._sc_serial = itertools.count()

    # -- installing -----------------------------------------------------------

    def install(self):
        from genschur import cli, schur, superalgebra
        hot = self._wrap
        span = functools.partial(self._wrap, span=True)
        transparent = functools.partial(self._wrap, span=True,
                                        transparent=True)
        self._wrap_method(superalgebra, "Presentation", "__eq__",
                          hot, "superalgebra.eq")
        self._wrap_method(schur, "Ambient", "structure_constants", hot,
                          "schur.sc", after=self._after_sc)
        specs = [
            ("schur", "multiply", hot, "schur.multiply", None, None),
            ("schur", "multiply_oracle", hot, "schur.oracle", None, None),
            ("schur", "to_tensor", hot, "schur.to_tensor", None,
             self._after_to_tensor),
            ("schur", "tensor_multiply", hot, "schur.tensor_multiply",
             None, None),
            ("schur", "from_tensor", hot, "schur.from_tensor", None, None),
            ("exactlin", "integer_kernel", hot, "exactlin.integer_kernel",
             self._before_kernel, None),
            ("exactlin", "add_row_to_lattice", hot, "exactlin.add_row", None,
             self._after_add_row),
            ("exactlin", "smith_normal_form", span, "exactlin.smith",
             self._before_smith, None),
            ("dcp", "schur_dcp", span, "dcp.schur_dcp", None, None),
            ("dcp", "dcp_verdict_from_setup", span, "dcp.verdict", None, None),
            ("dcp", "hom_lattice_from_setup", span, "dcp.hom", None,
             self._after_hom),
            ("dcp", "lambda_matrix", span, "dcp.lambda", None,
             self._after_lambda),
            ("forms", "gram_subalgebra_trace", span, "forms.gram", None, None),
            ("bialgebra", "generation_closure", span, "bialgebra.generation",
             None, self._after_generation),
            ("bialgebra", "star", hot, "bialgebra.star", None, None),
            ("bialgebra", "coproduct", hot, "bialgebra.coproduct", None, None),
            ("cli", "main", transparent, "cli.main", None, None),
            ("cli", "_emit", span, "cli.emit", None, None),
        ]
        for mod, attr, kind, name, before, after in specs:
            self._wrap_function(mod, attr, kind, name, before, after)
        checks = getattr(cli, "CHECKS", None)
        if isinstance(checks, dict):
            for suite, fn in list(checks.items()):
                checks[suite] = span(f"cli.suite.{suite}", fn)
                self._undo.append((checks, suite, fn))
        else:
            self.missing.append("cli.CHECKS")

    def uninstall(self):
        """Put every original back, in reverse order of wrapping."""
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_method(self, module, cls_name, attr, kind, name, after=None):
        cls = getattr(module, cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module.__name__}.{cls_name}.{attr}")
            return
        setattr(cls, attr, kind(name, original, after=after))
        self._undo.append((cls, attr, original))

    def _wrap_function(self, mod_name, attr, kind, name, before, after):
        module = sys.modules.get(f"genschur.{mod_name}")
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"genschur.{mod_name}.{attr}")
            return
        wrapper = kind(name, original, before=before, after=after)
        for mod in _genschur_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, span=False,
              transparent=False):
        frames = self.frames
        spans = self.spans
        open_spans = self.open_spans
        agg = self.agg
        depth = self.depth
        covered = self.covered.setdefault(name, [0.0])
        counted = 0 if transparent else 1
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = clock()
            if before is not None:
                before(args)
            frame = [0.0]
            frames.append(frame)
            depth[0] += counted
            if span:
                rec = {"name": name, "parent": open_spans[-1]}
                open_spans.append(len(spans))
                spans.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                depth[0] -= counted
                if counted and not depth[0]:
                    covered[0] += t1 - t0
                if span:
                    open_spans.pop()
                    rec["start"], rec["end"] = t0, t1
                    rec["self"] = t1 - t0 - frame[0]
                else:
                    key = (name, spans[open_spans[-1]]["name"])
                    got = agg.get(key)
                    if got is None:
                        got = agg[key] = [0, 0.0, 0.0]
                    got[0] += 1
                    got[1] += t1 - t0
                    got[2] += t1 - t0 - frame[0]
            if after is not None:
                after(args, result)
            frames[-1][0] += clock() - t_in
            return result

        return wrapper

    # -- counters read from arguments and results -----------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _after_sc(self, args, result):
        amb, T, U = args[0], args[1], args[2]
        ent = self._sc_ambients.get(id(amb))
        if ent is None or ent[0]() is not amb:
            # a new ambient, possibly at the address of a collected one
            ent = (weakref.ref(amb), next(self._sc_serial))
            self._sc_ambients[id(amb)] = ent
        self._sc_seen.add(hash((ent[1], T, U)))
        if result:
            self._add("schur.sc.nonzero", 1)

    def _after_to_tensor(self, args, result):
        self._add("schur.tensor_terms", len(result.coeffs))

    def _before_kernel(self, args):
        rows = args[0]
        if not isinstance(rows, list):
            return
        ncols = len(rows[0]) if rows else 0
        self._add("exactlin.integer_kernel.rows", len(rows))
        self._add("exactlin.integer_kernel.cells", len(rows) * ncols)
        self._add("exactlin.integer_kernel.nonzero",
                  sum(1 for row in rows for v in row if v))
        self._max("exactlin.integer_kernel.max_cols", ncols)

    def _after_add_row(self, args, result):
        if result:
            self._add("exactlin.add_row.grew", 1)

    def _before_smith(self, args):
        m = args[0]
        if isinstance(m, list):
            dims = (len(m), len(m[0]) if m else 0)
        else:
            dims = (getattr(m, "nrows", 0), getattr(m, "ncols", 0))
        self._max("exactlin.smith.max_dim", max(dims))

    def _after_hom(self, args, hl):
        blocks = getattr(hl, "blocks", None)
        if isinstance(blocks, dict):
            self._add("dcp.hom.blocks", len(blocks))
            self._add("dcp.hom.nonempty_blocks",
                      sum(1 for block in blocks.values() if block[0]))
        rank = getattr(hl, "rank", None)
        if isinstance(rank, int):
            self._add("dcp.hom.rank", rank)

    def _after_lambda(self, args, result):
        rows = result[0] if isinstance(result, tuple) else result
        self._add("dcp.lambda.nonzeros",
                  sum(1 for row in rows for v in row if v))

    def _after_generation(self, args, rep):
        rounds = getattr(rep, "rounds", None)
        if isinstance(rounds, int):
            self._add("bialgebra.generation.rounds", rounds)

    # -- timing and results ---------------------------------------------------

    def start(self):
        self.spans[0]["start"] = time.perf_counter()

    def stop(self):
        root = self.spans[0]
        root["end"] = time.perf_counter()
        root["self"] = root["end"] - root["start"] - self.frames[0][0]

    def summary(self, verdict_s):
        """Spans, aggregates and the per-layer metrics derived from them."""
        calls, total, self_s = {}, {}, {}
        for (name, _), (n, s, own) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + s
            self_s[name] = self_s.get(name, 0.0) + own
        for rec in self.spans[1:]:
            name = rec["name"]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + rec["end"] - rec["start"]
            self_s[name] = self_s.get(name, 0.0) + rec["self"]
        counts = self.counts
        covered = {name: c[0] for name, c in self.covered.items() if c[0]}
        sc_calls = calls.get("schur.sc", 0)
        distinct = len(self._sc_seen)
        cells = counts.get("exactlin.integer_kernel.cells", 0)
        add_rows = calls.get("exactlin.add_row", 0)
        metrics = {
            "superalgebra.eq.calls": calls.get("superalgebra.eq", 0),
            "superalgebra.eq.s": total.get("superalgebra.eq", 0.0),
            "schur.multiply.calls": calls.get("schur.multiply", 0),
            "schur.multiply.s": total.get("schur.multiply", 0.0),
            "schur.multiply.self_s": self_s.get("schur.multiply", 0.0),
            "schur.sc.calls": sc_calls,
            "schur.sc.s": total.get("schur.sc", 0.0),
            "schur.sc.distinct": distinct,
            "schur.sc.hit_ratio": 1 - distinct / sc_calls if sc_calls else 0.0,
            "schur.sc.nonzero_ratio":
                counts.get("schur.sc.nonzero", 0) / sc_calls if sc_calls else 0.0,
            "schur.oracle.calls": calls.get("schur.oracle", 0),
            "schur.to_tensor.s": total.get("schur.to_tensor", 0.0),
            "schur.tensor_multiply.s": total.get("schur.tensor_multiply", 0.0),
            "schur.from_tensor.s": total.get("schur.from_tensor", 0.0),
            "schur.tensor_terms": counts.get("schur.tensor_terms", 0),
            "exactlin.integer_kernel.calls":
                calls.get("exactlin.integer_kernel", 0),
            "exactlin.integer_kernel.s":
                total.get("exactlin.integer_kernel", 0.0),
            "exactlin.integer_kernel.rows":
                counts.get("exactlin.integer_kernel.rows", 0),
            "exactlin.integer_kernel.max_cols":
                counts.get("exactlin.integer_kernel.max_cols", 0),
            "exactlin.integer_kernel.density":
                counts.get("exactlin.integer_kernel.nonzero", 0) / cells
                if cells else 0.0,
            "exactlin.smith.calls": calls.get("exactlin.smith", 0),
            "exactlin.smith.s": total.get("exactlin.smith", 0.0),
            "exactlin.smith.max_dim": counts.get("exactlin.smith.max_dim", 0),
            "exactlin.add_row.calls": add_rows,
            "exactlin.add_row.s": total.get("exactlin.add_row", 0.0),
            "exactlin.add_row.grew_ratio":
                counts.get("exactlin.add_row.grew", 0) / add_rows
                if add_rows else 0.0,
            "dcp.setup.s": total.get("dcp.schur_dcp", 0.0)
                - total.get("dcp.verdict", 0.0),
            "dcp.verdict.s": total.get("dcp.verdict", 0.0),
            "dcp.hom.self_s": self_s.get("dcp.hom", 0.0),
            "dcp.hom.blocks": counts.get("dcp.hom.blocks", 0),
            "dcp.hom.nonempty_blocks": counts.get("dcp.hom.nonempty_blocks", 0),
            "dcp.hom.rank": counts.get("dcp.hom.rank", 0),
            "dcp.lambda.self_s": self_s.get("dcp.lambda", 0.0),
            "dcp.lambda.nonzeros": counts.get("dcp.lambda.nonzeros", 0),
            "forms.gram.s": total.get("forms.gram", 0.0),
            "forms.gram.self_s": self_s.get("forms.gram", 0.0),
            "bialgebra.generation.s": total.get("bialgebra.generation", 0.0),
            "bialgebra.generation.rounds":
                counts.get("bialgebra.generation.rounds", 0),
            "bialgebra.star.calls": calls.get("bialgebra.star", 0),
            "bialgebra.coproduct.calls": calls.get("bialgebra.coproduct", 0),
            "bialgebra.coproduct.s": total.get("bialgebra.coproduct", 0.0),
            "cli.emit.s": total.get("cli.emit", 0.0),
            "bench.unattributed_s": verdict_s - sum(covered.values()),
        }
        for suite in CLI_SUITES:
            metrics[f"cli.suite.{suite}.s"] = total.get(f"cli.suite.{suite}", 0.0)
        return {
            "metrics": metrics,
            "spans": self.spans,
            "aggregates": [{"name": name, "parent": parent, "calls": n,
                            "s": s, "self_s": own}
                           for (name, parent), (n, s, own)
                           in sorted(self.agg.items())],
            "covered": covered,
            "missing_hooks": self.missing,
        }
