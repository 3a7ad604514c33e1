"""Spans and counters recorded from outside the program, for the traced run.

A span is one call into a layer's public function: its name, its duration
and the span that was open when it started (its parent).  A span's self
time is its duration minus the durations of its direct children, so the
self times of a tree of spans add up to the duration of its root.

Nothing under ``src/`` is changed.  The traced run replaces, for the length
of one pass, the module attributes through which one layer reaches another
(for example the ``scaled_ml`` that ``kkinetics.kinetics`` holds) with
timing wrappers, and puts the originals back afterwards.  The benchmark's
own calls into the program go through :func:`entry_points`, which wraps
them the same way when a tracer is given.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span statistics and counters for one traced pass."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    # (parent span name, child span name) -> number of child spans
    edges: Counter = field(default_factory=Counter)
    refusal_types: tuple[type, ...] = ()
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn, on_result=None, on_args=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_args(args, kwargs)`` may return replacement arguments;
        ``on_result(result, args, kwargs)`` sees every successful result.
        A refusal (one of ``refusal_types``) is counted as ``<name>.refused``.
        """
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        edges = self.edges
        counts = self.counts
        refusals = self.refusal_types

        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            frame = [0.0]
            edges[(stack[-1][1] if stack else None, name)] += 1
            stack.append((frame, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusals:
                counts[name + ".refused"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0][0] += elapsed
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def root_time(self) -> float:
        """Total duration of the spans that had no parent.

        Self times telescope, so their sum over all spans is exactly that.
        """
        return sum(self.self_s(name) for name in self.spans)

    def self_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.self_s if stats else 0.0

    def busy_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.busy_s if stats else 0.0

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats else 0


@contextlib.contextmanager
def patched(target, attr: str, replacement):
    """Set ``target.attr`` to ``replacement`` for the duration of the block."""
    original = getattr(target, attr)
    setattr(target, attr, replacement)
    try:
        yield original
    finally:
        setattr(target, attr, original)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_series(tracer: Tracer):
    def on_result(res, args, kwargs):
        tracer.counts["series.terms"] += res.terms
        # The stagnation rule stops only after this many negligible terms.
        ctl = _arg(args, kwargs, 1, "ctl")
        tracer.counts["series.stagnation_terms"] += ctl.stagnation_window

    return on_result


def _count_terms(tracer: Tracer, key: str):
    def on_result(res, args, kwargs):
        tracer.counts[key] += res.terms

    return on_result


def _count_table(tracer: Tracer):
    def on_result(table, args, kwargs):
        tracer.counts["kinetics.solve_grid.points"] += len(table)
        tracer.counts["kinetics.outer_terms"] += sum(table.terms)

    return on_result


def _count_source(tracer: Tracer):
    def on_args(args, kwargs):
        args = list(args)
        source = args[1]

        def counted(t):
            tracer.counts["fracoracle.solve_volterra.source_calls"] += 1
            return source(t)

        args[1] = counted
        return tuple(args), kwargs

    return on_args


def _count_volterra_work(tracer: Tracer):
    # Row j of the O(n^2) marcher copies j+1 weights (read and write,
    # 16 (j+1) bytes) and dots j weights with j values (2 j flops,
    # 16 j bytes).  These are computed from the row sizes, not measured.
    def on_result(sol, args, kwargs):
        n = _arg(args, kwargs, 3, "grid").n_steps
        rows = n * (n + 1) // 2  # sum of j for j = 1..n
        tracer.counts["fracoracle.solve_volterra.flops_computed"] += 2 * rows
        tracer.counts["fracoracle.solve_volterra.bytes_computed"] += 16 * (rows + n) + 16 * rows

    return on_result


@contextlib.contextmanager
def layer_spans(tracer: Tracer, kk):
    """Wrap the references one kkinetics module holds to another's functions."""
    cli, kinetics, specfun, fracoracle = kk.cli, kk.kinetics, kk.specfun, kk.fracoracle
    with contextlib.ExitStack() as stack:
        series_wrapped = tracer.wrap(
            "series.sum_log_terms", kinetics.sum_log_terms, _count_series(tracer)
        )
        stack.enter_context(patched(kinetics, "sum_log_terms", series_wrapped))
        stack.enter_context(patched(specfun, "sum_log_terms", series_wrapped))
        stack.enter_context(patched(kinetics, "scaled_ml", tracer.wrap(
            "specfun.scaled_ml", kinetics.scaled_ml,
            _count_terms(tracer, "specfun.scaled_ml.terms"))))
        stack.enter_context(patched(kinetics, "gen_k_bessel", tracer.wrap(
            "specfun.gen_k_bessel", kinetics.gen_k_bessel,
            _count_terms(tracer, "specfun.gen_k_bessel.terms"))))
        stack.enter_context(patched(cli, "solve_grid", tracer.wrap(
            "kinetics.solve_grid", cli.solve_grid, _count_table(tracer))))
        stack.enter_context(patched(cli, "render_line_chart", tracer.wrap(
            "svgchart.render_line_chart", cli.render_line_chart)))
        stack.enter_context(patched(fracoracle, "QuadratureGrid", tracer.wrap(
            "fracoracle.QuadratureGrid", fracoracle.QuadratureGrid)))
        stack.enter_context(patched(fracoracle, "solve_volterra", tracer.wrap(
            "fracoracle.solve_volterra", fracoracle.solve_volterra,
            _count_volterra_work(tracer), _count_source(tracer))))
        stack.enter_context(patched(fracoracle, "residual", tracer.wrap(
            "fracoracle.residual", fracoracle.residual)))
        yield


def entry_points(kk, tracer: Tracer | None) -> SimpleNamespace:
    """The program functions the workloads call, wrapped in spans when traced."""
    api = SimpleNamespace(
        main=kk.cli.main,
        solve_point=kk.kinetics.solve_point,
        gen_k_bessel=kk.specfun.gen_k_bessel,
        mittag_leffler=kk.specfun.mittag_leffler,
        QuadratureGrid=kk.fracoracle.QuadratureGrid,
        solve_volterra=kk.fracoracle.solve_volterra,
    )
    if tracer is None:
        return api

    def point_terms(res, args, kwargs):
        tracer.counts["kinetics.outer_terms"] += res.terms

    return SimpleNamespace(
        main=tracer.wrap("cli.main", api.main),
        solve_point=tracer.wrap("kinetics.solve_point", api.solve_point, point_terms),
        gen_k_bessel=tracer.wrap(
            "specfun.gen_k_bessel", api.gen_k_bessel,
            _count_terms(tracer, "specfun.gen_k_bessel.terms")),
        mittag_leffler=tracer.wrap("specfun.mittag_leffler", api.mittag_leffler),
        QuadratureGrid=tracer.wrap("fracoracle.QuadratureGrid", api.QuadratureGrid),
        solve_volterra=tracer.wrap(
            "fracoracle.solve_volterra", api.solve_volterra,
            _count_volterra_work(tracer), _count_source(tracer)),
    )


# Per-layer metrics of the traced run as (name, unit).  Every metric not in
# seconds is a count that must repeat exactly between passes on the same
# inputs; times are medians over traced passes.
LAYER_METRICS = (
    ("kinetics.solve_grid.self_s", "s"),
    ("kinetics.solve_grid.points", "count"),
    ("kinetics.outer_terms", "count"),
    ("kinetics.solve_point.self_s", "s"),
    ("kinetics.solve_point.calls", "count"),
    ("specfun.scaled_ml.calls", "count"),
    ("specfun.scaled_ml.terms", "count"),
    ("specfun.scaled_ml.busy_s", "s"),
    ("specfun.gen_k_bessel.calls", "count"),
    ("specfun.gen_k_bessel.terms", "count"),
    ("specfun.gen_k_bessel.busy_s", "s"),
    ("specfun.mittag_leffler.calls", "count"),
    ("specfun.mittag_leffler.busy_s", "s"),
    ("series.sum_log_terms.calls", "count"),
    ("series.sum_log_terms.terms", "count"),
    ("series.sum_log_terms.self_s", "s"),
    ("series.refused", "count"),
    ("series.useful_term_frac", "ratio"),
    ("fracoracle.QuadratureGrid.busy_s", "s"),
    ("fracoracle.solve_volterra.self_s", "s"),
    ("fracoracle.solve_volterra.source_calls", "count"),
    ("fracoracle.solve_volterra.flops_computed", "flop"),
    ("fracoracle.solve_volterra.bytes_computed", "B"),
    ("fracoracle.residual.self_s", "s"),
    ("fracoracle.residual.source_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("svgchart.render_line_chart.busy_s", "s"),
)


def layer_values(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    t = tracer
    terms = t.counts["series.terms"]
    useful = 1.0 - t.counts["series.stagnation_terms"] / terms if terms else 0.0
    return {
        "kinetics.solve_grid.self_s": t.self_s("kinetics.solve_grid"),
        "kinetics.solve_grid.points": t.counts["kinetics.solve_grid.points"],
        "kinetics.outer_terms": t.counts["kinetics.outer_terms"],
        "kinetics.solve_point.self_s": t.self_s("kinetics.solve_point"),
        "kinetics.solve_point.calls": t.calls("kinetics.solve_point"),
        "specfun.scaled_ml.calls": t.calls("specfun.scaled_ml"),
        "specfun.scaled_ml.terms": t.counts["specfun.scaled_ml.terms"],
        "specfun.scaled_ml.busy_s": t.busy_s("specfun.scaled_ml"),
        "specfun.gen_k_bessel.calls": t.calls("specfun.gen_k_bessel"),
        "specfun.gen_k_bessel.terms": t.counts["specfun.gen_k_bessel.terms"],
        "specfun.gen_k_bessel.busy_s": t.busy_s("specfun.gen_k_bessel"),
        "specfun.mittag_leffler.calls": t.calls("specfun.mittag_leffler"),
        "specfun.mittag_leffler.busy_s": t.busy_s("specfun.mittag_leffler"),
        "series.sum_log_terms.calls": t.calls("series.sum_log_terms"),
        "series.sum_log_terms.terms": terms,
        "series.sum_log_terms.self_s": t.self_s("series.sum_log_terms"),
        "series.refused": t.counts["series.sum_log_terms.refused"],
        "series.useful_term_frac": useful,
        "fracoracle.QuadratureGrid.busy_s": t.busy_s("fracoracle.QuadratureGrid"),
        "fracoracle.solve_volterra.self_s": t.self_s("fracoracle.solve_volterra"),
        "fracoracle.solve_volterra.source_calls":
            t.counts["fracoracle.solve_volterra.source_calls"],
        "fracoracle.solve_volterra.flops_computed":
            t.counts["fracoracle.solve_volterra.flops_computed"],
        "fracoracle.solve_volterra.bytes_computed":
            t.counts["fracoracle.solve_volterra.bytes_computed"],
        "fracoracle.residual.self_s": t.self_s("fracoracle.residual"),
        "fracoracle.residual.source_calls":
            t.edges[("fracoracle.residual", "specfun.gen_k_bessel")],
        "cli.self_s": t.self_s("cli.main"),
        "cli.bytes_written": bytes_written,
        "svgchart.render_line_chart.busy_s": t.busy_s("svgchart.render_line_chart"),
    }
