"""Span tracing from outside the program.

The tracer rebinds each layer's public functions in the modules whose
code looks them up at call time (``parse_file`` as imported by ``cli``,
``aggregate`` and ``obfuscate``; ``tokenize`` as imported by the parser;
and so on), records one span per call and restores the originals when
it is uninstalled. Nothing under ``src/`` is edited. A name that no
longer exists is reported as missing instead of failing the run.

Self time is attributed by a sweep over span boundaries: at each
instant the wall time is split equally among the innermost open spans
of all threads, leaving out a span whose descendant is open on another
thread. On one thread this is the usual span duration minus the time
its children cover; with a thread pool it makes the layer self times
add up to the traced wall time instead of exceeding it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = (
    "java.lexer",
    "java.parser",
    "java.bindings",
    "obfuscate",
    "pathctx",
    "model",
    "aggregate",
    "evaluate",
)


def _count_tokens(tracer: "Tracer", args, result) -> None:
    tracer.count("java.lexer.tokens", len(result))


def _count_contexts(tracer: "Tracer", args, result) -> None:
    tracer.count("pathctx.contexts_extracted", len(result))


def _count_kept(tracer: "Tracer", args, result) -> None:
    tracer.count("pathctx.contexts_kept", len(result))


def _count_file_bytes(key: str) -> Callable:
    def count_bytes(tracer: "Tracer", args, result) -> None:
        tracer.count(key, os.path.getsize(args[1]))

    return count_bytes


def _count_lbfgs(tracer: "Tracer", args, result) -> None:
    tracer.count("evaluate.lbfgs_iters", int(result.nit))
    if not result.success:
        tracer.count("evaluate.lbfgs_unconverged", 1)


@dataclass(frozen=True)
class Hook:
    """One rebinding: `module.attr` becomes a wrapper.

    With a `span` name the wrapper records a span of `layer`; without
    one it only runs `after` on the result, and its time stays with the
    enclosing span.
    """

    module: str
    attr: str
    layer: str
    span: str | None
    after: Callable | None = None


HOOKS = (
    Hook("pathvec.java.parser", "tokenize", "java.lexer", "java.lexer.tokenize", _count_tokens),
    Hook("pathvec.cli", "parse_file", "java.parser", "java.parser.parse_file"),
    Hook("pathvec.aggregate", "parse_file", "java.parser", "java.parser.parse_file"),
    Hook("pathvec.obfuscate", "parse_file", "java.parser", "java.parser.parse_file"),
    Hook("pathvec.java.bindings", "resolve_bindings", "java.bindings", "java.bindings.resolve"),
    Hook("pathvec.cli", "obfuscate_tree", "obfuscate", "obfuscate.obfuscate_tree"),
    Hook("pathvec.obfuscate", "obfuscate_unit", "obfuscate", "obfuscate.obfuscate_unit"),
    Hook("pathvec.cli", "extract_unit_samples", "pathctx", "pathctx.samples"),
    Hook("pathvec.aggregate", "extract_unit_samples", "pathctx", "pathctx.samples"),
    Hook("pathvec.pathctx", "extract_contexts", "pathctx", "pathctx.extract", _count_contexts),
    Hook("pathvec.pathctx", "cap_contexts", "pathctx", None, _count_kept),
    Hook("pathvec.cli", "write_context_dump", "pathctx", "pathctx.dump.write",
          _count_file_bytes("pathctx.dump.bytes")),
    Hook("pathvec.cli", "read_context_dump", "pathctx", "pathctx.dump.read"),
    Hook("pathvec.cli", "build_vocabulary", "pathctx", "pathctx.vocab"),
    Hook("pathvec.cli", "train", "model", "model.train"),
    Hook("pathvec.model", "loss_and_grads", "model", "model.loss_and_grads"),
    Hook("pathvec.model", "_validate", "model", "model.validate"),
    Hook("pathvec.model", "forward", "model", "model.forward"),
    Hook("pathvec.cli", "save_checkpoint", "model", "model.checkpoint.save"),
    Hook("pathvec.cli", "load_checkpoint", "model", "model.checkpoint.load"),
    Hook("pathvec.cli", "build_dataset_suite", "aggregate", "aggregate.build_dataset_suite"),
    Hook("pathvec.aggregate", "aggregate_vectors", "aggregate", "aggregate.aggregate"),
    Hook("pathvec.cli", "write_dataset_csv", "aggregate", "aggregate.csv.write",
          _count_file_bytes("aggregate.csv.bytes")),
    Hook("pathvec.cli", "read_dataset_csv", "aggregate", "aggregate.csv.read"),
    Hook("pathvec.cli", "cross_validate", "evaluate", "evaluate.cross_validate"),
    Hook("pathvec.evaluate", "train_linear", "evaluate", "evaluate.fit"),
    Hook("pathvec.evaluate", "minimize", "evaluate", None, _count_lbfgs),
)


@dataclass
class Span:
    sid: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: int


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name` of `layer`."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: its spans belong to the main thread's open span
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.count(f"{name}.raised.{type(exc).__name__}")
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, layer, name, start, end, parent, threading.get_ident(), self.run_id)
            )

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        if hook.span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook.after(tracer, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(hook.layer, hook.span, fn, *args, **kwargs)
            if hook.after is not None:
                hook.after(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for hook in HOOKS:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, thread, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.thread, s.run_id]))
                fh.write("\n")


def attribute_self_time(spans: list[Span]) -> dict[int, float]:
    """Wall seconds attributed to each span as its own work (see module doc)."""
    by_id = {s.sid: s for s in spans}
    ancestors: dict[int, frozenset] = {}

    def ancestry(sid: int) -> frozenset:
        if sid not in ancestors:
            parent = by_id[sid].parent
            ancestors[sid] = (
                frozenset() if parent is None or parent not in by_id
                else ancestry(parent) | {parent}
            )
        return ancestors[sid]

    for s in sorted(spans, key=lambda s: s.start):
        ancestry(s.sid)

    events = []
    for s in spans:
        events.append((s.start, 1, s.sid))
        events.append((s.end, 0, s.sid))
    events.sort()

    own: dict[int, float] = defaultdict(float)
    stacks: dict[int, list[int]] = defaultdict(list)
    last = events[0][0] if events else 0.0
    for t, kind, sid in events:
        dt = t - last
        if dt > 0:
            leaves = [st[-1] for st in stacks.values() if st]
            if len(leaves) > 1:
                covered = set()
                for leaf in leaves:
                    covered |= ancestors[leaf]
                leaves = [leaf for leaf in leaves if leaf not in covered]
            share = dt / len(leaves) if leaves else 0.0
            for leaf in leaves:
                own[leaf] += share
        last = t
        stack = stacks[by_id[sid].thread]
        if kind == 1:
            stack.append(sid)
        else:
            stack.remove(sid)
    return own


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass self times and counts by layer and span, from all traced passes."""
    own = attribute_self_time(tracer.spans)
    per = 1.0 / max(1, n_passes)
    self_by_layer: Counter = Counter()
    self_by_name: Counter = Counter()
    wall_by_name: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        self_by_layer[s.layer] += own.get(s.sid, 0.0)
        self_by_name[s.name] += own.get(s.sid, 0.0)
        wall_by_name[s.name] += s.end - s.start
        calls[s.name] += 1
        durations[s.name].append(s.end - s.start)
    pass_wall = sum(s.end - s.start for s in tracer.spans if s.name == "cli.pass")
    c = tracer.counts
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer] * per
    m["cli.other_s"] = self_by_layer["cli"] * per
    m["trace.wall_s"] = pass_wall * per
    m["trace.spans"] = len(tracer.spans) * per
    m["trace.missing_wrappers"] = len(tracer.missing)

    lex_self = self_by_name["java.lexer.tokenize"]
    m["java.lexer.tokens_per_s"] = c["java.lexer.tokens"] / lex_self if lex_self else 0.0
    parse = durations["java.parser.parse_file"]
    m["java.parser.calls"] = len(parse) * per
    m["java.parser.call_p50_ms"] = _quantile(parse, 0.50) * 1e3
    m["java.parser.call_p99_ms"] = _quantile(parse, 0.99) * 1e3
    m["java.parser.parse_errors"] = c["java.parser.parse_file.raised.ParseError"] * per

    m["pathctx.extract.calls"] = calls["pathctx.extract"] * per
    m["pathctx.extract.self_s"] = self_by_name["pathctx.extract"] * per
    m["pathctx.extract.contexts"] = c["pathctx.contexts_extracted"] * per
    extracted = c["pathctx.contexts_extracted"]
    m["pathctx.keep_ratio"] = c["pathctx.contexts_kept"] / extracted if extracted else 0.0
    m["pathctx.extract.call_p99_ms"] = _quantile(durations["pathctx.extract"], 0.99) * 1e3
    m["pathctx.dump.write_s"] = wall_by_name["pathctx.dump.write"] * per
    m["pathctx.dump.read_s"] = wall_by_name["pathctx.dump.read"] * per
    m["pathctx.dump.bytes"] = c["pathctx.dump.bytes"] * per
    m["pathctx.vocab.self_s"] = self_by_name["pathctx.vocab"] * per

    m["model.loss_and_grads.calls"] = calls["model.loss_and_grads"] * per
    m["model.loss_and_grads.self_s"] = self_by_name["model.loss_and_grads"] * per
    m["model.train.other_s"] = self_by_name["model.train"] * per
    m["model.validate.self_s"] = self_by_name["model.validate"] * per
    m["model.forward.calls"] = calls["model.forward"] * per
    m["model.forward.self_s"] = self_by_name["model.forward"] * per
    m["model.checkpoint.save_s"] = wall_by_name["model.checkpoint.save"] * per
    m["model.checkpoint.load_s"] = wall_by_name["model.checkpoint.load"] * per

    m["aggregate.aggregate.calls"] = calls["aggregate.aggregate"] * per
    m["aggregate.aggregate.self_s"] = self_by_name["aggregate.aggregate"] * per
    m["aggregate.csv.write_s"] = wall_by_name["aggregate.csv.write"] * per
    m["aggregate.csv.bytes"] = c["aggregate.csv.bytes"] * per
    m["aggregate.csv.read_s"] = wall_by_name["aggregate.csv.read"] * per

    m["evaluate.fit.calls"] = calls["evaluate.fit"] * per
    m["evaluate.fit.self_s"] = self_by_name["evaluate.fit"] * per
    m["evaluate.lbfgs_iters"] = c["evaluate.lbfgs_iters"] * per
    m["evaluate.lbfgs_unconverged"] = c["evaluate.lbfgs_unconverged"] * per
    return m
