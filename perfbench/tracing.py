"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of the library
modules (the layers) and replaces every reference to them inside
``latsum``, so calls between modules are traced too.  Each wrapped call
is a span.  A span's self time is its duration minus the time of the
spans it encloses, and goes to a metric key.

The wrappers cost time of their own, a few microseconds per batch call,
and the optimizer makes tens of thousands of batch calls per job.
``SpanCost`` measures that cost once per run on empty batch calls, split
into the part a span's own timer sees, the part its enclosing span sees
and the part the batch timing wrapper adds, and each span's share is
taken off the key it lands in.  The calibration runs in a hot loop, so
it reads low rather than high: part of the overhead stays in the
figures, and the benchmark reports the whole of it separately.

A span inherits the key of the nearest enclosing span of the same layer,
so work a layer does on its own behalf (``theta_shifted`` routing through
``theta_charged``, the quadrature zeta route calling
``cm_lattice_energy``) counts once, against the call that entered the
layer.  Calls and work counts are recorded only for such entering spans.

Not wrapped, so that their work is attributed where it happens:

- ``theta.functional_equation_residual`` and
  ``theta.combined_functional_tails``, which only compose two pointwise
  sums that are counted as pointwise calls;
- every ``proofcheck`` function and class except the ``check_*`` lemma
  checkers: the rest are scalar term families and helpers called inside
  the checkers' loops, millions of times per suite run.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import math
import time
from collections import defaultdict
from typing import NamedTuple

import latsum

LAYERS = ("lattice", "theta", "optimize", "applications", "proofcheck")

_TRANSPARENT = {
    "theta.functional_equation_residual",
    "theta.combined_functional_tails",
}

# qualified name -> metric key of an entering span
_ENTRY_KEYS = {
    "lattice.reduce_to_fundamental": "lattice.reduce",
    "theta.theta_shifted": "theta.pointwise",
    "theta.theta_charged": "theta.pointwise",
    "theta.lattice_gaussian_sum": "theta.pointwise",
    "theta.ShiftedSumEvaluator.__init__": "theta.evaluator_build",
    "theta.ChargedSumEvaluator.__init__": "theta.evaluator_build",
    "theta.ShiftedSumEvaluator.values_centered": "theta.batch",
    "theta.ShiftedSumEvaluator.values": "theta.batch",
    "theta.ChargedSumEvaluator.values_centered": "theta.batch",
    "theta.ChargedSumEvaluator.values": "theta.batch",
    "optimize.minimize_torus": "optimize.minimize",
    "optimize.minimize_over_cell": "optimize.minimize",
    "applications.gabor_frame_bounds": "applications.frame_bounds",
    "applications.strohmer_beaver_sweep": "applications.frame_bounds",
    "applications.heat_kernel_torus": "applications.heat",
    "applications.minimize_cm_energy": "applications.cm_minimize",
    "applications.born_energy": "applications.born",
    "applications.born_interaction_table": "applications.born",
    "applications.born_energy_from_table": "applications.born",
}

# The per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "lattice.reduce_calls": "count",
    "lattice.reduce_s": "s",
    "lattice.reduce_word_len": "count",
    "theta.pointwise_calls": "count",
    "theta.pointwise_s": "s",
    "theta.pointwise_terms": "count",
    "theta.evaluator_builds": "count",
    "theta.evaluator_build_s": "s",
    "theta.evaluator_terms": "count",
    "theta.batch_calls": "count",
    "theta.batch_points": "count",
    "theta.batch_s": "s",
    "theta.batch_overreach": "ratio",
    "theta.unconverged": "count",
    "optimize.minimize_calls": "count",
    "optimize.minimize_self_s": "s",
    "optimize.scan_s": "s",
    "optimize.polish_s": "s",
    "optimize.polish_batch_calls": "count",
    "optimize.refinement_steps": "count",
    "applications.zeta_direct_calls": "count",
    "applications.zeta_direct_s": "s",
    "applications.zeta_direct_terms": "count",
    "applications.zeta_quadrature_s": "s",
    "applications.zeta_quadrature_terms": "count",
    "applications.zeta_unconverged": "count",
    "applications.cm_minimize_s": "s",
    "applications.cm_nodes": "count",
    "applications.frame_bounds_s": "s",
    "applications.born_s": "s",
    "applications.heat_s": "s",
    "trace.spans": "count",
    "trace.span_ns": "ns",
}

# Report ids of the lemma checkers, in run_default_suite order.
LEMMA_IDS = (
    "q1_ledger", "q2_ledger", "q1_growth", "growth1",
    "derivative_bounds", "growth11", "growth2", "dominant_concavity",
    "nine_term_concavity", "charged_nine_term", "charged_concavity_small_alpha",
    "heat_inflection", "g_monotone", "tail_constants", "montgomery_sandwich",
    "alpha_thresholds",
)
for _lid in LEMMA_IDS:
    LAYER_METRICS[f"proofcheck.{_lid}_s"] = "s"
    LAYER_METRICS[f"proofcheck.{_lid}.margin"] = "margin"

# seconds key -> reported metric
_SECONDS = {
    "lattice.reduce": "lattice.reduce_s",
    "theta.pointwise": "theta.pointwise_s",
    "theta.evaluator_build": "theta.evaluator_build_s",
    "theta.batch": "theta.batch_s",
    "optimize.minimize": "optimize.minimize_self_s",
    "optimize.scan": "optimize.scan_s",
    "optimize.polish": "optimize.polish_s",
    "applications.zeta_direct": "applications.zeta_direct_s",
    "applications.zeta_quadrature": "applications.zeta_quadrature_s",
    "applications.cm_minimize": "applications.cm_minimize_s",
    "applications.frame_bounds": "applications.frame_bounds_s",
    "applications.born": "applications.born_s",
    "applications.heat": "applications.heat_s",
}


def _zeta_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        method = sig.bind(*args, **kwargs).arguments.get("method", "direct")
        return f"applications.zeta_{method}"

    return key


class _Span:
    __slots__ = ("layer", "key", "entering", "t0", "child_s", "mark")

    def __init__(self, layer, key, entering):
        self.layer = layer
        self.key = key
        self.entering = entering
        self.child_s = 0.0
        self.mark = 0.0
        self.t0 = time.perf_counter()


def _empty_batch(zs):
    return ()


class SpanCost(NamedTuple):
    """Seconds the tracer adds per span: ``inside`` is seen by the span's
    own timer, ``outside`` by the enclosing span's; ``batch`` per call of
    the timing wrapper handed to ``minimize_torus``, seen by the span
    that calls it."""

    inside: float
    outside: float
    batch: float

    @classmethod
    def calibrate(cls, calls: int = 20000, repeats: int = 5) -> "SpanCost":
        """Best of ``repeats`` timings of ``calls`` empty batch evaluations
        made the way the optimizer makes them: from inside an optimizer
        span, through the batch timing wrapper and a batch-evaluation span
        (the commonest span, with its counting hook).  The time of the same
        calls made bare is subtracted throughout."""
        inside = outside = batch = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                _empty_batch(None)
            bare = time.perf_counter() - t0

            probe = Tracer(cls(0.0, 0.0, 0.0))
            timed = probe._timed_batch(
                probe._wrap(_empty_batch, "theta", "theta.ShiftedSumEvaluator.values_centered")
            )

            def loop():
                for _ in range(calls):
                    timed(None)

            probe._wrap(loop, "optimize", "calibrate.loop")()
            window = probe.seconds["optimize.scan"] + probe.seconds["optimize.polish"] - bare
            own = probe.seconds["theta.batch"] - bare
            inside = min(inside, own)
            outside = min(outside, window - own)
            batch = min(batch, probe.seconds["optimize.other"] - bare)
        return cls(*(max(0.0, v) / calls for v in (inside, outside, batch)))


class Tracer:
    """Installs span wrappers on the library and accumulates layer metrics,
    less the calibrated cost of its own spans."""

    def __init__(self, cost: SpanCost) -> None:
        self.cost = cost
        self.spans = 0
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[_Span] = []
        self._depth = {layer: 0 for layer in LAYERS}
        self._layer_key: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(latsum, layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    if qual in _TRANSPARENT:
                        continue
                    if layer == "proofcheck" and not name.startswith("check_"):
                        continue
                    replaced[id(obj)] = self._wrap(obj, layer, qual)
                elif (
                    inspect.isclass(obj)
                    and not issubclass(obj, enum.Enum)
                    and layer != "proofcheck"
                ):
                    self._wrap_class(obj, layer)
        modules = [latsum] + [getattr(latsum, m) for m in LAYERS + ("cli",) if hasattr(latsum, m)]
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)

    def _wrap_class(self, cls, layer) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not dataclasses.is_dataclass(cls)):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                new = staticmethod(self._wrap(val.__func__, layer, qual))
            elif inspect.isfunction(val):
                new = self._wrap(val, layer, qual)
            else:
                continue
            self._undo.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        if qual == "applications.epstein_zeta_shifted":
            key_of = _zeta_key(fn)
        else:
            # a checker's time moves to its report id once it returns
            fixed = qual if layer == "proofcheck" else _ENTRY_KEYS.get(qual, f"{layer}.other")

            def key_of(args, kwargs):
                return fixed

        hook = qual.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        if layer == "proofcheck":
            after = self._checker
        else:
            after = getattr(self, "_after_" + hook, None)
        if before is not None:
            before = functools.partial(before, inspect.signature(fn))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(layer, key_of, args, kwargs)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _enter(self, layer, key_of, args, kwargs) -> _Span:
        entering = self._depth[layer] == 0
        key = key_of(args, kwargs) if entering else self._layer_key[layer]
        self._layer_key[layer] = key
        self._depth[layer] += 1
        span = _Span(layer, key, entering)
        self._stack.append(span)
        return span

    def _exit(self, span: _Span) -> None:
        duration = time.perf_counter() - span.t0
        self._stack.pop()
        self._depth[span.layer] -= 1
        self.spans += 1
        if self._stack:
            self._stack[-1].child_s += duration
            self.seconds[self._stack[-1].key] -= self.cost.outside
        self.seconds[span.key] += duration - span.child_s - self.cost.inside

    # -- per-function work counters --------------------------------------

    def _after_lattice_reduce_to_fundamental(self, span, args, kwargs, result):
        if span.entering:
            self.counts["lattice.reduce_calls"] += 1
            self.counts["lattice.reduce_word_len"] += len(result.word)

    def _pointwise(self, span, args, kwargs, result):
        if span.entering:
            self.counts["theta.pointwise_calls"] += 1
            self.counts["theta.pointwise_terms"] += result.terms_used
            self.counts["theta.unconverged"] += not result.converged

    _after_theta_theta_shifted = _pointwise
    _after_theta_theta_charged = _pointwise
    _after_theta_lattice_gaussian_sum = _pointwise

    def _build(self, span, args, kwargs, result):
        if span.entering:
            ev = args[0]
            self.counts["theta.evaluator_builds"] += 1
            self.counts["theta.evaluator_terms"] += ev.terms
            self.counts["theta.unconverged"] += not ev.converged

    _after_theta_ShiftedSumEvaluator___init__ = _build
    _after_theta_ChargedSumEvaluator___init__ = _build

    def _batch(self, span, args, kwargs, result):
        if span.entering:
            self.counts["theta.batch_calls"] += 1
            self.counts["theta.batch_points"] += len(result)

    _after_theta_ShiftedSumEvaluator_values_centered = _batch
    _after_theta_ShiftedSumEvaluator_values = _batch
    _after_theta_ChargedSumEvaluator_values_centered = _batch
    _after_theta_ChargedSumEvaluator_values = _batch

    def _timed_batch(self, batch):
        """Time a batch function: the first call is the grid scan, the
        later ones the local polish.  The spans inside a call are costed
        out of its time, and the wrapper's own cost out of the caller's."""
        calls = [0]
        span_cost = self.cost.inside + self.cost.outside

        def timed_batch(zs):
            spans = self.spans
            t0 = time.perf_counter()
            out = batch(zs)
            elapsed = time.perf_counter() - t0 - (self.spans - spans) * span_cost
            if calls[0] == 0:
                self.seconds["optimize.scan"] += elapsed
            else:
                self.seconds["optimize.polish"] += elapsed
                self.counts["optimize.polish_batch_calls"] += 1
            calls[0] += 1
            if self._stack:
                self.seconds[self._stack[-1].key] -= self.cost.batch
            return out

        return timed_batch

    def _before_optimize_minimize_torus(self, sig, span, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.arguments["batch"] = self._timed_batch(bound.arguments["batch"])
        return bound.args, bound.kwargs

    def _after_optimize_minimize_torus(self, span, args, kwargs, result):
        self.counts["optimize.refinement_steps"] += result[2]
        if span.entering:
            self.counts["optimize.minimize_calls"] += 1

    def _before_optimize_minimize_over_cell(self, sig, span, args, kwargs):
        span.mark = self.counts["theta.evaluator_terms"]
        return args, kwargs

    def _after_optimize_minimize_over_cell(self, span, args, kwargs, result):
        built = self.counts["theta.evaluator_terms"] - span.mark
        self.counts["overreach.evaluator_terms"] += built
        self.counts["overreach.final_terms"] += result.value.terms_used
        if span.entering:
            self.counts["optimize.minimize_calls"] += 1

    def _after_applications_epstein_zeta_shifted(self, span, args, kwargs, result):
        if not span.entering:
            return
        if span.key == "applications.zeta_direct":
            self.counts["applications.zeta_direct_calls"] += 1
            self.counts["applications.zeta_direct_terms"] += result.terms_used
        else:
            self.counts["applications.zeta_quadrature_terms"] += result.terms_used
        self.counts["applications.zeta_unconverged"] += not result.converged

    def _after_applications_minimize_cm_energy(self, span, args, kwargs, result):
        if span.entering:
            self.counts["applications.cm_nodes"] += len(args[0].nodes)

    def _checker(self, span, args, kwargs, result):
        lid = result.lemma_id
        self.counts[f"proofcheck.{lid}.margin"] = result.worst_margin
        self.seconds[f"proofcheck.{lid}"] += self.seconds.pop(span.key, 0.0)

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; 0 where the workload does not reach the layer."""
        out = {name: 0.0 for name in LAYER_METRICS}
        for key, name in _SECONDS.items():
            out[name] = self.seconds.get(key, 0.0)
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        for lid in LEMMA_IDS:
            out[f"proofcheck.{lid}_s"] = self.seconds.get(f"proofcheck.{lid}", 0.0)
        final = self.counts.get("overreach.final_terms", 0.0)
        if final:
            out["theta.batch_overreach"] = self.counts["overreach.evaluator_terms"] / final
        out["trace.spans"] = self.spans
        out["trace.span_ns"] = sum(self.cost) * 1e9
        return out

