"""Span and counter tracing around the package's layer functions.

`Tracer.install()` replaces each traced function with a wrapper, at every
place a caller looks the name up (the defining module, the modules that
imported it by name, or the class for methods and operators), and
`Tracer.uninstall()` puts the originals back.  Nothing under `src/` is
edited; the program is traced from outside.

Three wrapper kinds:

* span: one record (name, start, end, span id, parent id, job id) per
  call, kept in memory; a span's self time is its duration minus the part
  its children cover.
* aggregate: the hottest kernels (LaurentPoly operators, umul, pmul) only
  count calls and sum time; a kernel called from inside another
  aggregated kernel is counted but not timed twice.
* counter: calls are counted, nothing is timed (term_codimension).
"""

from __future__ import annotations

import json
import weakref
from time import perf_counter

from motive_series import (
    blowup,
    cli,
    formulas,
    graph,
    jets,
    laurent,
    linalg,
    mseries,
    polys,
    verify,
)

FORMULA_SPANS = (
    "curve_series",
    "divisorial_series",
    "semigroup_class_series",
    "divisorial_poincare_product",
    "divisorial_poincare_product_edges",
    "hilbert_ie_series",
)
# the term-enumerating sums: their returned coefficients are the base of
# formulas.terms_per_coeff
TERM_SUMS = ("formulas.curve_series", "formulas.divisorial_series")


def check_name(fn):
    name = fn.__name__
    return name[len("check_"):] if name.startswith("check_") else name


def _clamp(v):
    return tuple(x if x > 0 else 0 for x in v)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, span id, parent id, job id)
        self.stack = []  # open frames: [name, start, child seconds, span id]
        self.job = None
        self.next_id = 1
        self.busy = False  # inside an aggregated kernel
        self.patches = []  # (owner, attribute, original)
        self.check_names = [check_name(fn) for fn in verify.ALL_CHECKS]
        self.reset()

    def reset(self):
        """Zero the per-pass totals (spans already recorded are kept)."""
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.active = {}  # name -> open frames of that name
        self.agg = {}  # name -> [calls, seconds]
        self.counts = {}  # name -> count
        self.seen = {
            "jets.hilbert": weakref.WeakKeyDictionary(),
            "blowup.div_hilbert": weakref.WeakKeyDictionary(),
        }

    # -- wrapper factories ----------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][3] if stack else 0
            frame = [name, perf_counter(), 0.0, sid]
            stack.append(frame)
            tracer.active[name] = tracer.active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth = tracer.active[name] = tracer.active[name] - 1
                dur = end - frame[1]
                tot = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                if depth == 0:
                    tot[1] += dur
                tot[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                tracer.spans.append((name, frame[1], end, sid, parent, tracer.job))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _aggregate(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stats = tracer.agg.setdefault(name, [0, 0.0])
            stats[0] += 1
            if tracer.busy:
                return fn(*args, **kwargs)
            tracer.busy = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer.busy = False
                stats[1] += dur
                if tracer.stack:
                    tracer.stack[-1][2] += dur

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _oracle_hilbert(self, name, fn):
        """Span around an oracle's hilbert; a miss is a clamped point this
        oracle has not been asked before."""
        tracer = self

        def after(args, result):
            oracle, v = args[0], args[1]
            seen = tracer.seen[name].setdefault(oracle, set())
            key = _clamp(tuple(v))
            if key not in seen:
                seen.add(key)
                tracer._count(name + "_misses")

        return self._span(name, fn, after)

    # -- patching -------------------------------------------------------------

    def _patch(self, owners, attr, make):
        original = getattr(owners[0], attr)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError("%s.%s is not the function being traced" % (owner, attr))
            self.patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        span, agg, counter = self._span, self._aggregate, self._counter
        lp = laurent.LaurentPoly

        def rows_cells(args, result):
            rows = args[0]
            self._count("linalg.rank_cells", len(rows) * (len(rows[0]) if rows else 0))

        def coeffs_out(args, result):
            self._count("mseries.coeffs_out", len(result.coeffs))

        def term_coeffs(args, result):
            self._count("formulas.coeffs_out", len(result.coeffs))

        p = self._patch
        p([cli], "main", lambda f: span("cli.main", f))
        for fname in FORMULA_SPANS:
            name = "formulas." + fname
            after = term_coeffs if name in TERM_SUMS else None
            p([formulas], fname, lambda f, n=name, a=after: span(n, f, a))
        p([formulas], "term_codimension", lambda f: counter("formulas.terms", f))
        p([lp], "__mul__", lambda f: agg("laurent.mul", f))
        p([lp], "__rmul__", lambda f: agg("laurent.mul", f))
        p([lp], "__pow__", lambda f: agg("laurent.mul", f))
        p([lp], "__add__", lambda f: agg("laurent.add", f))
        p([mseries, jets], "mseries_mul", lambda f: span("mseries.mul", f, coeffs_out))
        p(
            [mseries, formulas, jets],
            "expand_rational",
            lambda f: span("mseries.expand", f, coeffs_out),
        )
        # the jets layer's own loops, so that their time (and the tracer's
        # per-call cost around the oracle spans below) is not cli self time
        p([jets], "series", lambda f: span("jets.series", f))
        p([jets], "hilbert_ie_coeff", lambda f: span("jets.ie_coeff", f))
        p([jets.HilbertOracle], "hilbert", lambda f: self._oracle_hilbert("jets.hilbert", f))
        p(
            [blowup.DivisorialOracle],
            "hilbert",
            lambda f: self._oracle_hilbert("blowup.div_hilbert", f),
        )
        p([linalg], "rank", lambda f: span("linalg.rank", f, rows_cells))
        p([polys, jets], "umul", lambda f: agg("polys.umul", f))
        p([polys, blowup], "pmul", lambda f: agg("polys.pmul", f))
        p([polys, blowup], "poly2_compose", lambda f: span("polys.compose", f))
        p([blowup], "auto_resolve", lambda f: span("blowup.resolve", f))
        p([blowup.Modification], "blow_up_at", lambda f: span("blowup.blow_up_at", f))
        p([blowup], "run_script", lambda f: span("blowup.run_script", f))
        p([blowup.Modification], "multiplicity", lambda f: span("blowup.multiplicity", f))
        p(
            [graph, formulas, blowup],
            "build_intersection",
            lambda f: span("graph.build_intersection", f),
        )
        checks = verify.ALL_CHECKS
        self.patches.append((verify, "ALL_CHECKS", checks))
        verify.ALL_CHECKS = tuple(span("verify." + check_name(fn), fn) for fn in checks)

    def uninstall(self):
        """Restore every patched attribute, in reverse order of patching."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        restored = all(getattr(o, a) is f for o, a, f in self.patches)
        self.patches = []
        if not restored:
            raise RuntimeError("a traced attribute was not restored")

    # -- per-pass metrics -----------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        tot = self.totals

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def self_s(prefix):
            return sum(v[2] for k, v in tot.items() if k.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        kernels = ("laurent.mul", "laurent.add", "polys.umul", "polys.pmul")
        agg = {k: self.agg.get(k, (0, 0.0)) for k in kernels}
        count = self.counts.get
        terms = count("formulas.terms", 0)
        jh, jm = calls("jets.hilbert"), count("jets.hilbert_misses", 0)
        dh, dm = calls("blowup.div_hilbert"), count("blowup.div_hilbert_misses", 0)
        out = {
            "formulas.terms": (terms, "count"),
            "formulas.terms_per_coeff": (ratio(terms, count("formulas.coeffs_out", 0)), "ratio"),
            "formulas.self_s": (self_s("formulas."), "s"),
            "laurent.mul_calls": (agg["laurent.mul"][0], "count"),
            "laurent.mul_s": (agg["laurent.mul"][1], "s"),
            "laurent.add_calls": (agg["laurent.add"][0], "count"),
            "laurent.add_s": (agg["laurent.add"][1], "s"),
            "mseries.mul_calls": (calls("mseries.mul"), "count"),
            "mseries.mul_s": (incl("mseries.mul"), "s"),
            "mseries.expand_s": (incl("mseries.expand"), "s"),
            "mseries.coeffs_out": (count("mseries.coeffs_out", 0), "count"),
            "jets.hilbert_calls": (jh, "count"),
            "jets.hilbert_misses": (jm, "count"),
            "jets.hit_ratio": (ratio(jh - jm, jh), "ratio"),
            "jets.hilbert_self_s": (self_s("jets.hilbert"), "s"),
            "blowup.div_hilbert_calls": (dh, "count"),
            "blowup.div_hilbert_misses": (dm, "count"),
            "blowup.div_hilbert_self_s": (self_s("blowup.div_hilbert"), "s"),
            "linalg.rank_calls": (calls("linalg.rank"), "count"),
            "linalg.rank_s": (incl("linalg.rank"), "s"),
            "linalg.rank_cells": (count("linalg.rank_cells", 0), "count"),
            "linalg.rank_per_miss": (ratio(calls("linalg.rank"), jm + dm), "ratio"),
            "polys.umul_calls": (agg["polys.umul"][0], "count"),
            "polys.umul_s": (agg["polys.umul"][1], "s"),
            "polys.pmul_calls": (agg["polys.pmul"][0], "count"),
            "polys.pmul_s": (agg["polys.pmul"][1], "s"),
            "polys.compose_s": (incl("polys.compose"), "s"),
            "blowup.resolve_s": (incl("blowup.resolve"), "s"),
            "blowup.resolve_steps": (calls("blowup.blow_up_at"), "count"),
            "blowup.run_script_s": (incl("blowup.run_script"), "s"),
            "blowup.multiplicity_s": (incl("blowup.multiplicity"), "s"),
            "graph.build_intersection_calls": (calls("graph.build_intersection"), "count"),
            "graph.build_intersection_s": (incl("graph.build_intersection"), "s"),
            "cli.self_s": (self_s("cli.main"), "s"),
        }
        for check in self.check_names:
            out["verify.%s_s" % check] = (incl("verify." + check), "s")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, sid, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "id": sid, "parent": parent, "job": job}
                    )
                )
                fh.write("\n")
