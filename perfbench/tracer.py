"""Spans and counters attached to ncwres from outside, kept in memory.

Each target names a function or method as ``module:qualname``.
``Tracer.install`` replaces it with a wrapper and rebinds every ncwres
module attribute that held the original, because modules bind imported
names when they are imported (``parametrix.symbol_product``,
``trace.normalize_word``).  A target that no longer exists is listed in
``absent`` and skipped, so a later change that removes or renames a
function loses that metric without failing the run.

Three kinds of target:

* ``span``: records name, layer, start, end, parent span and operation id;
* ``timed``: innermost hot functions; calls and time, no span record;
* ``count``: calls only, for functions called hundreds of thousands of
  times or recursively.

A layer's self time is the time inside its spans and timed calls minus
the part covered by nested spans and timed calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

SPAN, TIMED, COUNT = "span", "timed", "count"


def _symbol_words(sym) -> int:
    return sum(len(c.terms) for c in sym.terms.values())


def _post_ncpoly_mul(counters, args, kwargs, result):
    a, b = args
    if hasattr(b, "terms"):
        counters["ncalg.NCPoly.mul.word_pairs"] += len(a.terms) * len(b.terms)


def _post_symbol_product(counters, args, kwargs, result):
    counters["symcalc.symbol_product.out_monomials"] += len(result.terms)
    counters["symcalc.symbol_product.out_words"] += _symbol_words(result)


def _degree_counts(sym) -> Counter:
    return Counter(mono.degree for mono in sym.terms)


def _post_pointwise_mul(counters, args, kwargs, result):
    a, b = args[0], args[1]
    cut = args[2] if len(args) > 2 else kwargs.get("min_degree")
    tried = len(a.terms) * len(b.terms)
    if cut is None:
        kept = tried
    else:
        db = _degree_counts(b)
        kept = sum(
            na * nb
            for da, na in _degree_counts(a).items()
            for dbk, nb in db.items()
            if da + dbk >= cut
        )
    counters["symcalc.pointwise_mul.pairs_tried"] += tried
    counters["symcalc.pointwise_mul.pairs_kept"] += kept


def _post_symbol_derive(counters, args, kwargs, result):
    counters["symcalc.derive.words_out"] += _symbol_words(result)


def _post_parametrix(counters, args, kwargs, result):
    counters["parametrix.term_words"] += sum(_symbol_words(t) for t in result.terms)


def _post_reduction_system(counters, args, kwargs, result):
    counters["trace.reduction_rows"] += len(args[0].rows)


def _post_fourier_mul(counters, args, kwargs, result):
    a, b = args
    counters["fourier_oracle.mul.mode_pairs"] += len(a.coeffs) * len(b.coeffs)


def _post_neumann(counters, args, kwargs, result):
    counters["fourier_oracle.neumann_terms"] += result.terms


# (target, metric prefix, layer, kind, post hook)
TARGETS = (
    ("ncwres.cli:main", "cli.main", "cli", SPAN, None),
    ("ncwres.ncalg:normalize_word", "ncalg.normalize_word", "ncalg", COUNT, None),
    ("ncwres.ncalg:NCPoly.__mul__", "ncalg.NCPoly.mul", "ncalg", TIMED, _post_ncpoly_mul),
    ("ncwres.ncalg:NCPoly.__add__", "ncalg.NCPoly.add", "ncalg", TIMED, None),
    ("ncwres.ncalg:NCPoly.__neg__", "ncalg.NCPoly.neg", "ncalg", TIMED, None),
    ("ncwres.ncalg:NCPoly.scale", "ncalg.NCPoly.scale", "ncalg", TIMED, None),
    ("ncwres.ncalg:NCPoly.derive", "ncalg.NCPoly.derive", "ncalg", TIMED, None),
    (
        "ncwres.ncalg:NCPoly.commutative_image",
        "ncalg.NCPoly.commutative_image",
        "ncalg",
        TIMED,
        None,
    ),
    (
        "ncwres.symcalc:symbol_product",
        "symcalc.symbol_product",
        "symcalc",
        SPAN,
        _post_symbol_product,
    ),
    (
        "ncwres.symcalc:Symbol.pointwise_mul",
        "symcalc.pointwise_mul",
        "symcalc",
        SPAN,
        _post_pointwise_mul,
    ),
    ("ncwres.symcalc:Symbol.derive", "symcalc.derive", "symcalc", SPAN, _post_symbol_derive),
    ("ncwres.symcalc:Symbol.partial_xi", "symcalc.partial_xi", "symcalc", SPAN, None),
    (
        "ncwres.parametrix:parametrix_terms",
        "parametrix.parametrix_terms",
        "parametrix",
        SPAN,
        _post_parametrix,
    ),
    ("ncwres.parametrix:laplace_symbol", "parametrix.laplace_symbol", "parametrix", SPAN, None),
    ("ncwres.parametrix:closed_form_b1", "parametrix.closed_form_b1", "parametrix", SPAN, None),
    ("ncwres.parametrix:closed_form_b2", "parametrix.closed_form_b2", "parametrix", SPAN, None),
    ("ncwres.wres:wres_inverse_power", "wres.wres_inverse_power", "wres", SPAN, None),
    ("ncwres.wres:wodzicki_residue", "wres.wodzicki_residue", "wres", SPAN, None),
    ("ncwres.wres:trace_property_probe", "wres.trace_property_probe", "wres", SPAN, None),
    ("ncwres.trace:ibp_reduce", "trace.ibp_reduce", "trace", SPAN, None),
    ("ncwres.trace:trace_equal", "trace.trace_equal", "trace", SPAN, None),
    ("ncwres.trace:express_in_span", "trace.express_in_span", "trace", SPAN, None),
    (
        "ncwres.trace:ReductionSystem.__init__",
        "trace.ReductionSystem",
        "trace",
        SPAN,
        _post_reduction_system,
    ),
    (
        "ncwres.fourier_oracle:FourierElement.__mul__",
        "fourier_oracle.mul",
        "fourier_oracle",
        TIMED,
        _post_fourier_mul,
    ),
    (
        "ncwres.fourier_oracle:nc_invert_neumann",
        "fourier_oracle.nc_invert_neumann",
        "fourier_oracle",
        SPAN,
        _post_neumann,
    ),
    (
        "ncwres.fourier_oracle:gamma_sum_evaluation",
        "fourier_oracle.gamma_sum_evaluation",
        "fourier_oracle",
        SPAN,
        None,
    ),
    (
        "ncwres.fourier_oracle:Assignment.evaluate_trace_expression",
        "fourier_oracle.evaluate_trace_expression",
        "fourier_oracle",
        SPAN,
        None,
    ),
    (
        "ncwres.fourier_oracle:Assignment.evaluate_symbol",
        "fourier_oracle.evaluate_symbol",
        "fourier_oracle",
        SPAN,
        None,
    ),
    (
        "ncwres.fourier_oracle:Assignment.evaluate_word",
        "fourier_oracle.evaluate_word",
        "fourier_oracle",
        COUNT,
        None,
    ),
    ("ncwres.randgen:random_assignment", "randgen.random_assignment", "randgen", SPAN, None),
    ("ncwres.randgen:random_probe_pair", "randgen.random_probe_pair", "randgen", SPAN, None),
    ("ncwres.randgen:random_symbol", "randgen.random_symbol", "randgen", SPAN, None),
    ("ncwres.verify:run_verification", "verify.run_verification", "verify", SPAN, None),
    (
        "ncwres.serialize:trace_expression_to_json",
        "serialize.trace_expression_to_json",
        "serialize",
        SPAN,
        None,
    ),
    ("ncwres.serialize:symbol_to_json", "serialize.symbol_to_json", "serialize", SPAN, None),
)


def _resolve(target: str):
    """(owner, attribute, original) for 'module:Qual.name', or None."""
    mod_name, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        # [name, layer, start, end, parent span index or -1, operation id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.absent: list[str] = []
        self.op = None
        self._frames: list[list[float]] = []  # child time of each open region
        self._current = -1  # index of the innermost open span
        self._patches: list[tuple[object, str, object]] = []

    # -- regions -----------------------------------------------------------

    def _call(self, fn, name: str, layer: str, record: bool, args, kwargs):
        parent = self._current
        if record:
            idx = len(self.spans)
            span = [name, layer, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._current = idx
        frame = [0.0]
        self._frames.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._frames.pop()
            dur = end - start
            self.layer_self[layer] += dur - frame[0]
            if self._frames:
                self._frames[-1][0] += dur
            if record:
                span[2], span[3] = start, end
                self._current = parent
            self.counters[name + ".calls"] += 1
            self.counters[name + ".s"] += dur

    def run(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own."""
        return self._call(fn, name, layer, True, args, kwargs)

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name, layer, kind, post):
        tracer = self
        counters = self.counters
        calls = name + ".calls"

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                counters[calls] += 1
                return fn(*args, **kwargs)
        else:
            record = kind == SPAN

            def wrapper(*args, **kwargs):
                result = tracer._call(fn, name, layer, record, args, kwargs)
                if post is not None:
                    try:
                        post(counters, args, kwargs, result)
                    except (AttributeError, TypeError, ValueError):
                        tracer._note_absent(name + " (counter hook)")
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _note_absent(self, what: str):
        if what not in self.absent:
            self.absent.append(what)

    def install(self):
        for target, name, layer, kind, post in self.targets:
            found = _resolve(target)
            if found is None:
                self._note_absent(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name, layer, kind, post)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                # rebind the name in every module that imported it
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("ncwres"):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "layer_self": dict(self.layer_self),
            "absent": list(self.absent),
        }
