"""Span tracing around numltl's public functions, installed from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
loaded ``numltl`` module that binds it, so calls made by ``cli`` and
``cegar`` are seen without editing the package; ``uninstall`` puts the
originals back.  A wrapper records one span (name, layer, start, end,
parent, instance) and the counts its layer's result exposes.  A call made
while a span of the same layer is open (``bounds`` recursing,
``negate_and_translate`` calling ``translate``) belongs to that span and
records none of its own.  Where the caller passed no ``SearchStats`` the
wrapper passes one, so subbox counts are seen as well.  Span times are the
process's CPU seconds, the clock the benchmark measures everything with.
``overhead`` sums the time span-recording wrappers spend outside the calls
they wrap: the cost of tracing, measured directly rather than as the
difference of a traced and an untraced run, which machine noise swamps.
"""

from __future__ import annotations

import sys
from importlib import import_module
from collections import Counter
from dataclasses import dataclass, field
from time import process_time
from typing import Any, Callable

# (defining module, function, layer)
WRAPPED = (
    ("cli", "main", "cli"),
    ("cegar", "synthesize", "cegar"),
    ("speclang", "parse_spec", "speclang.parse"),
    ("speclang", "parse_constraints", "speclang.parse"),
    ("abstraction", "abstract_spec", "abstraction.abstract"),
    ("abstraction", "reencode_outputs", "abstraction.reencode"),
    ("abstraction", "refine_with_assumption", "abstraction.refine"),
    ("abstraction", "refine_with_guarantee", "abstraction.refine"),
    ("automata", "translate", "automata.translate"),
    ("automata", "negate_and_translate", "automata.translate"),
    ("games", "build_safety_game", "games.build"),
    ("games", "build_buchi_game", "games.build"),
    ("games", "solve", "games.solve"),
    ("games", "mark_edges_absent", "games.mark"),
    ("games", "extract_controller", "games.extract"),
    ("games", "extract_counter_strategy", "games.extract"),
    ("cegar", "select_counter_inputs", "cegar.select"),
    ("bernstein", "check_feasibility", "bernstein.check"),
    ("bernstein", "check_validity", "bernstein.validity"),
    ("bernstein", "bounds", "bernstein.bounds"),
    ("controller_file", "render_realizable", "controller_file.render"),
    ("controller_file", "render_unrealizable", "controller_file.render"),
    ("controller_file", "render_dot", "controller_file.render"),
    ("controller_file", "parse_controller_file", "controller_file.parse"),
    ("simulate", "simulate", "simulate.simulate"),
)


def time_metric(layer: str) -> str:
    """Every layer reports its spans' self time; for the two layers that
    wrap others the name says so."""
    return f"{layer}.self_s" if layer in ("cli", "cegar") else f"{layer}_s"


TIME_METRICS = tuple(dict.fromkeys(time_metric(layer) for _, _, layer in WRAPPED))
COUNT_METRICS = (
    "games.env_nodes",
    "games.ctrl_nodes",
    "games.edges",
    "games.solves",
    "games.marked_edges",
    "cegar.refinements",
    "cegar.theory_checks",
    "automata.states",
    "automata.translations",
    "bernstein.calls",
    "bernstein.subboxes",
)
_STATS_ARG = 3  # position of ``stats`` in check_feasibility / check_validity


@dataclass
class Span:
    name: str
    layer: str
    instance: str
    parent: int | None
    start: float
    end: float = 0.0
    children: float = 0.0  # time covered by direct child spans
    nested: int = 0  # same-layer calls folded into this span

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, Counter] = field(default_factory=dict)  # per instance
    instance: str = ""
    overhead: float = 0.0  # CPU seconds spent recording, outside the wrapped calls
    _open: list[int] = field(default_factory=list)
    _installed: list[tuple[Any, str, Callable]] = field(default_factory=list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        defining = {name: import_module(f"numltl.{name}") for name, _, _ in WRAPPED}
        search_stats = defining["bernstein"].SearchStats
        modules = [m for n, m in sys.modules.items() if n == "numltl" or n.startswith("numltl.")]
        for module_name, func, layer in WRAPPED:
            original = getattr(defining[module_name], func)
            wrapper = self._wrap(func, layer, original, search_stats)
            for module in modules:
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)
                    self._installed.append((module, func, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._installed):
            setattr(module, func, original)
        self._installed.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, func: str, layer: str, original: Callable, search_stats) -> Callable:
        def wrapper(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].layer == layer:
                self.spans[self._open[-1]].nested += 1
                return original(*args, **kwargs)
            entered = process_time()
            stats = None
            if layer in ("bernstein.check", "bernstein.validity"):
                args, kwargs, stats = _with_stats(args, kwargs, search_stats)
                explored_before = stats.explored
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = Span(func, layer, self.instance, parent, process_time())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = process_time()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].children += span.end - span.start
            counts = self.counts.setdefault(self.instance, Counter())
            if stats is not None:
                counts["bernstein.subboxes"] += stats.explored - explored_before
            self._count(counts, span, result)
            self.overhead += process_time() - span.end + span.start - entered
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count(self, counts: Counter, span: Span, result) -> None:
        layer = span.layer
        if layer == "automata.translate":
            counts["automata.states"] += result.n_states
            counts["automata.translations"] += 1
        elif layer == "games.build":
            counts["games.env_nodes"] += result.n_env
            counts["games.ctrl_nodes"] += result.n_ctrl
            counts["games.edges"] += sum(result.edge_count())
        elif layer == "games.solve":
            counts["games.solves"] += 1
        elif layer == "games.mark":
            counts["games.marked_edges"] += result
        elif layer == "abstraction.refine":
            counts["cegar.refinements"] += 1
        elif layer.startswith("bernstein."):
            counts["bernstein.calls"] += 1
            if layer == "bernstein.bounds":
                counts["bernstein.subboxes"] += span.nested + 1
            if layer == "bernstein.check":
                counts["bernstein.feasibility_checks"] += 1
                if type(result).__name__ == "Infeasible":
                    counts["bernstein.infeasible"] += 1
                if self._inside("cegar"):
                    counts["cegar.theory_checks"] += 1

    def _inside(self, layer: str) -> bool:
        return any(self.spans[i].layer == layer for i in self._open)

    # -- summaries -------------------------------------------------------------

    def covered(self, instance: str) -> float:
        """Time covered by the instance's outermost spans."""
        return sum(
            s.end - s.start for s in self.spans if s.instance == instance and s.parent is None
        )

    def layer_times(self) -> dict[str, float]:
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for s in self.spans:
            times[time_metric(s.layer)] += s.self_time
        return times

    def total_counts(self) -> Counter:
        total = Counter()
        for counts in self.counts.values():
            total.update(counts)
        return total

    def span_records(self, run: int) -> list[dict]:
        """Spans as JSON objects; ``parent`` is the ``id`` of the enclosing
        span of the same ``run``."""
        return [
            {
                "run": run,
                "id": i,
                "instance": s.instance,
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
            }
            for i, s in enumerate(self.spans)
        ]


def _with_stats(args: tuple, kwargs: dict, search_stats) -> tuple[tuple, dict, Any]:
    if len(args) > _STATS_ARG:
        if args[_STATS_ARG] is not None:
            return args, kwargs, args[_STATS_ARG]
        stats = search_stats()
        return args[:_STATS_ARG] + (stats,) + args[_STATS_ARG + 1 :], kwargs, stats
    if kwargs.get("stats") is not None:
        return args, kwargs, kwargs["stats"]
    stats = search_stats()
    return args, {**kwargs, "stats": stats}, stats
