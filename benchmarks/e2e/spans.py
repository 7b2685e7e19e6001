"""Outside-in tracing: pass-through wrappers around the program's layer
entry points, installed from the benchmark without touching ``src/``.

A :class:`Tracer` keeps spans (run id, workload, span id, parent id, name,
start, end) and counters in memory; :func:`install` wraps each layer's
public entry points so a call records one span and returns exactly what
the original returned.  A wrapper must replace the name where it is looked
up at call time, so :class:`Patches` handles three cases:

* class methods (``IncrementalScorer.gradients``, ``Defender.fit``, ...)
  are replaced on the class;
* module functions (``repro.utils.cancellation.checkpoint``, ...) are
  replaced in their module *and* in every ``repro`` module holding its own
  binding from ``from x import name`` (``train_node_classifier`` is bound
  separately in ``core.gnat``, ``defenses.raw``, ``attacks.pgd``, ...);
* kernel objects returned by ``make_fused_kernel`` get their phase methods
  wrapped on the instance.

Spans are recorded only in the process that created the tracer: pool
workers forked from a traced parent run the wrappers as plain
pass-throughs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Union

#: Attack spans named after the module that owns the attacker.
ATTACK_SPANS = {
    "PEEGA": "core.peega.attack",
    "GRBCD": "attacks.rbcd.GRBCD.attack",
    "PRBCD": "attacks.rbcd.PRBCD.attack",
}

#: Fused-kernel methods and the phase each one is reported under (the
#: deferred validation forward is an eval forward).
KERNEL_PHASES = {
    "train_forward": "train_forward",
    "backward": "backward",
    "eval_forward": "eval_forward",
    "deferred_eval_forward": "eval_forward",
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans and counters of one traced round."""

    def __init__(self, run_id: str, workload: str) -> None:
        self.run_id = run_id
        self.workload = workload
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            start=time.perf_counter(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(
        self,
        name: Union[str, Callable[[tuple], str]],
        hook: Optional[Callable[[tuple], Optional[Callable[[Any], None]]]] = None,
    ) -> Callable[[Callable], Callable]:
        """A factory turning ``original`` into a traced pass-through.

        ``name`` may be computed from the call's positional arguments (for
        methods, ``args[0]`` is the instance).  ``hook(args)`` runs before
        the call and may return a callback that receives the result, for
        counters that need state from both sides of the call.
        """

        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if os.getpid() != self.pid:
                    return original(*args, **kwargs)
                after = hook(args) if hook is not None else None
                span = self.begin(name if isinstance(name, str) else name(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(span)
                if after is not None:
                    after(result)
                return result

            return traced

        return factory

    def records(self) -> list[dict]:
        """Every span as a JSON-ready record."""
        return [
            {"run": self.run_id, "workload": self.workload, **asdict(span)}
            for span in self.spans
        ]


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        inside = [
            (max(start, span.start), min(end, span.end))
            for start, end in children[span.id]
            if end > span.start and start < span.end
        ]
        result[span.id] = (span.end - span.start) - _covered(inside)
    return result


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Span name -> ``{"calls", "s", "self_s"}`` totals."""
    own = self_times(spans)
    summary: dict[str, dict] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own[span.id]
    return summary


def top_self(spans: list[Span], count: int = 5) -> list[tuple[str, float]]:
    """The ``count`` span names with the most self time."""
    summary = summarize(spans)
    ranked = sorted(summary.items(), key=lambda item: -item[1]["self_s"])
    return [(name, entry["self_s"]) for name, entry in ranked[:count]]


# ---------------------------------------------------------------------------
# Patching


class Patches:
    """Installed wrappers; :meth:`remove` restores every original binding."""

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def function(self, module_name: str, attr: str, factory: Callable) -> None:
        """Wrap a module function in its module and in every module of the
        package that bound the same object under any name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = factory(original)
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, original))

    def method(self, module_name: str, cls_name: str, attr: str, factory: Callable) -> None:
        """Wrap a method defined on a class (subclasses inherit the wrapper)."""
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, factory(original))
        self._undo.append((cls, attr, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point the per-layer metrics read."""
    patches = Patches("repro")
    wrap = tracer.wrap

    def count_after(counter: str, measure: Callable[[Any], float]):
        return lambda args: lambda result: tracer.count(counter, measure(result))

    def count_flips(args):
        cache, before = args[0], len(args[0].log)
        return lambda result: tracer.count(
            "surrogate.apply_batch.flips", len(cache.log) - before
        )

    def trace_kernel(args):
        def after(kernel):
            if kernel is None:
                return
            tracer.count("nn.fastpath.fused_kernels")
            model = type(kernel).__name__.removeprefix("_Fused")
            for method, phase in KERNEL_PHASES.items():
                bound = getattr(kernel, method, None)
                if bound is not None:
                    setattr(kernel, method, wrap(f"nn.fastpath.{model}.{phase}")(bound))

        return after

    def count_attempts(args):
        outcomes = args[1]
        tracer.count("experiments.supervisor.outcomes", len(outcomes))
        tracer.count(
            "experiments.supervisor.attempts",
            sum(outcome.attempts for outcome in outcomes.values()),
        )
        return None

    def attack_span(args):
        name = args[0].name
        return ATTACK_SPANS.get(name, f"attacks.{name}.attack")

    patches.function(
        "repro.datasets.registry", "load_dataset", wrap("datasets.load_dataset")
    )
    patches.function(
        "repro.graph.perturb", "apply_perturbations", wrap("graph.apply_perturbations")
    )
    patches.function(
        "repro.utils.cancellation", "checkpoint", wrap("utils.cancellation.checkpoint")
    )
    for name in ("sample_candidate_pairs", "project_onto_budget"):
        patches.function("repro.attacks.rbcd", name, wrap(f"attacks.rbcd.{name}"))
    patches.function(
        "repro.nn.trainer",
        "train_node_classifier",
        wrap(
            "nn.trainer.train_node_classifier",
            count_after(
                "nn.trainer.train_node_classifier.epochs",
                lambda result: len(result.train_losses),
            ),
        ),
    )
    patches.function(
        "repro.nn.fastpath",
        "make_fused_kernel",
        wrap("nn.fastpath.make_fused_kernel", trace_kernel),
    )
    patches.function(
        "repro.experiments.parallel",
        "assemble_table",
        wrap("experiments.parallel.assemble_table", count_attempts),
    )
    patches.method(
        "repro.core.difference",
        "IncrementalScorer",
        "gradients",
        wrap("core.difference.gradients"),
    )
    patches.method(
        "repro.core.difference",
        "IncrementalScorer",
        "pair_gradients",
        wrap(
            "core.difference.pair_gradients",
            count_after(
                "core.difference.pair_gradients.pairs",
                lambda result: len(result.grad_pairs),
            ),
        ),
    )
    patches.method(
        "repro.surrogate.cache", "PropagationCache", "__init__", wrap("surrogate.init")
    )
    patches.method(
        "repro.surrogate.cache", "PropagationCache", "apply", wrap("surrogate.apply")
    )
    patches.method(
        "repro.surrogate.cache",
        "PropagationCache",
        "apply_batch",
        wrap("surrogate.apply_batch", count_flips),
    )
    patches.method("repro.attacks.base", "Attacker", "attack", wrap(attack_span))
    patches.method(
        "repro.defenses.base",
        "Defender",
        "fit",
        wrap(lambda args: f"defenses.{args[0].name}.fit"),
    )
    patches.method("repro.core.gnat", "GNAT", "build_views", wrap("core.gnat.build_views"))
    for name in ("record_cell", "save_poison", "load_poison"):
        patches.method(
            "repro.experiments.supervisor",
            "SweepCheckpoint",
            name,
            wrap(f"experiments.supervisor.{name}"),
        )
    return patches


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer, program_stats: dict) -> dict[str, float]:
    """Per-layer metric values from one traced round.

    ``program_stats`` carries what the program itself counts (cache
    reports, ``executor.timings``) under their per-layer metric names.
    Names the round never reached are absent; callers report them as 0.
    """
    summary = summarize(tracer.spans)
    counters = tracer.counters
    values: dict[str, float] = dict(program_stats)

    def span(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    for name, entry in summary.items():
        if name.startswith("defenses.") and name.endswith(".fit"):
            values[f"{name}_s"] = entry["s"]
            values[f"{name[: -len('.fit')]}.self_s"] = entry["self_s"]
        else:
            values[f"{name}.calls"] = entry["calls"]
            values[f"{name}.s"] = entry["s"]
            values[f"{name}.self_s"] = entry["self_s"]
    for name in (
        "core.difference.pair_gradients.pairs",
        "surrogate.apply_batch.flips",
        "nn.trainer.train_node_classifier.epochs",
    ):
        values[name] = counters[name]

    fits = span("nn.trainer.train_node_classifier", "calls")
    values["nn.trainer.fused_fraction"] = (
        counters["nn.fastpath.fused_kernels"] / fits if fits else 0.0
    )
    outcomes = counters["experiments.supervisor.outcomes"]
    values["experiments.supervisor.attempts_per_trial"] = (
        counters["experiments.supervisor.attempts"] / outcomes if outcomes else 0.0
    )
    pairs = counters["core.difference.pair_gradients.pairs"]
    values["attacks.rbcd.flips_per_mpair"] = (
        program_stats.get("attacks.rbcd.flips", 0) / (pairs / 1e6) if pairs else 0.0
    )
    return values
