"""Path-context extraction and vocabularies.

A path-context is the triplet (start leaf token, node-kind path with
direction markers, end leaf token). One context is produced per unordered
leaf pair of a method body whose path has at most max_len edges and whose
two branches leave their top node (the apex) through children at most
max_width apart, the earlier leaf in source order first. Extraction
enumerates only those pairs, apex by apex, so its work grows with the
contexts kept rather than with the square of the leaf count. A method's
pairs are recorded as plain tuples and sampled down to max_contexts
before any PathContext is built, so contexts past the cap are never
built.

Every field extraction makes is clean for the dump format: never empty,
and free of commas and whitespace. Leaf tokens are made so in
_context_pairs, where each has its commas and whitespace replaced by
'_'; none is empty, as the lexer makes no empty token and the parser
gives every leaf one. Targets are lexer identifiers
([A-Za-z_$][A-Za-z0-9_$]*); paths are parser node kinds joined by UP and
DOWN. So the dump writer only joins fields, and the dump, train, embed
and xobf see the same tokens.

Tokens and paths are interned where they are made, by extraction or by
the dump reader, so equal strings are one object however many contexts
hold them. Training reads a dump straight into id arrays and their
vocabulary (read_indexed_dump), without building a sample per line. A
Vocabulary is the token, path and target lists in id order, as the
checkpoint stores them, with lookup dicts built from them.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, TypeVar

import numpy as np

from .java.ast import MethodDecl, SourceUnit
from .util import atomic_open, derive_seed

UP = "↑"  # toward the root
DOWN = "↓"  # toward the leaves

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
UNK_ID = 0  # the id of <unk> in every vocabulary table; <pad> is 1

_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")
_SANITIZE_RE = re.compile(r"[,\s]")


class PathContext(NamedTuple):
    start_token: str
    path: str
    end_token: str


@dataclass
class MethodSample:
    target_name: str
    contexts: list[PathContext]
    line_count: int


@dataclass(frozen=True)
class ExtractionConfig:
    """A limit of 0 or None means unlimited and is kept as None. A setting that
    is not an integer, or is below its least value, raises ValueError."""

    max_len: int | None = 8  # max path edges
    max_width: int | None = 2  # max child-index spread at the apex
    max_contexts: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("max_len", 0), ("max_width", 0), ("max_contexts", 1), ("seed", None)):
            value = getattr(self, name)
            if value is None and least == 0:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}")
        object.__setattr__(self, "max_len", self.max_len or None)
        object.__setattr__(self, "max_width", self.max_width or None)

    @classmethod
    def from_settings(cls, settings: Mapping[str, object]) -> ExtractionConfig:
        """The config of settings that may hold other keys; KeyError if one is missing."""
        return cls(**{f.name: settings[f.name] for f in fields(cls)})


def split_target(name: str) -> list[str]:
    """Split an identifier into lowercase subtokens.

    Splits at camelCase boundaries, underscores and digit runs:
    "toString2JSON" -> ["to", "string", "2", "json"].
    """
    if not name:
        raise ValueError("empty name")
    parts = [m.group().lower() for m in _SUBTOKEN_RE.finditer(name)]
    return parts or [name.lower()]


def _context_pairs(
    method: MethodDecl, max_len: int | None, max_width: int | None
) -> list[tuple[str, str, str, str]]:
    """The leaf-to-leaf path-contexts of a method body within both limits,
    by (earlier leaf, later leaf) in source order, each as a plain tuple
    (start token, path from the start leaf through the apex, path down
    to the end leaf, end token) that _build_contexts turns into a
    PathContext.

    One bottom-up pass: each subtree hands its parent an entry per leaf that
    can still pair (leaf index, edges up to the subtree root, the path from
    the leaf up to that root, the path from it down to the leaf, the token
    as the dump writes it), and each internal node pairs only the entries of children at
    most ``max_width`` apart whose paths through it fit ``max_len``.
    """
    body = method.body
    order = []  # pre-order, so leaves appear in source order
    stack = [body]
    n_leaves = 0
    while stack:
        node = stack.pop()
        order.append(node)
        if node.children:
            stack.extend(reversed(node.children))
        else:
            n_leaves += 1
    if n_leaves < 2:
        return []
    # A path has at most len(order) - 1 edges, so len(order) stands in for "no limit".
    max_len = len(order) if max_len is None else max_len
    max_width = len(order) if max_width is None else max_width

    # Pairs by their earlier leaf. Apexes above a leaf are met bottom-up,
    # and each pairs it with later leaves in source order, so each list is
    # already ordered by the later leaf.
    by_first: list[list[tuple]] = [[] for _ in range(n_leaves)]
    # The walk meets every node after all of its descendants, and the last
    # child first; so a node's children's entry lists are the last
    # len(children) on `done`, the first child's on top.
    done: list[list[tuple]] = []
    leaf = n_leaves
    clean: dict[str, str] = {}  # each distinct token, sanitized and interned
    for node in reversed(order):
        children = node.children
        if not children:
            leaf -= 1
            token = clean.get(node.token)
            if token is None:
                token = clean[node.token] = sys.intern(_SANITIZE_RE.sub("_", node.token))
            done.append([(leaf, 0, node.kind, "", token)])
            continue
        k = len(children)
        below = done[: -k - 1 : -1]
        del done[-k:]
        step_up = UP + node.kind
        downs = [DOWN + child.kind for child in children]
        for p, left in enumerate(below):
            for q in range(p + 1, min(k, p + max_width + 1)):
                right = below[q]
                middle = step_up + downs[q]
                for i, depth_a, up, _, start in left:
                    room = max_len - 2 - depth_a
                    head = up + middle
                    out = by_first[i]
                    for _, depth_b, _, down, end in right:
                        if depth_b <= room:
                            out.append((start, head, down, end))
        if node is not body:
            done.append([
                (i, depth + 1, up + step_up, step_down + down, token)
                for step_down, items in zip(downs, below)
                for i, depth, up, down, token in items
                if depth + 3 <= max_len  # can still pair at an ancestor
            ])
    return [pair for pairs in by_first for pair in pairs]


def _build_contexts(pairs: list[tuple[str, str, str, str]]) -> list[PathContext]:
    intern = sys.intern
    return [PathContext(start, intern(head + down), end) for start, head, down, end in pairs]


_T = TypeVar("_T")


def cap_contexts(
    contexts: list[_T], max_contexts: int, rng: np.random.Generator | None
) -> list[_T]:
    """Uniform, order-stable sample without replacement when over the cap;
    rng is drawn from only then, and may be None when under it."""
    if max_contexts < 1:
        raise ValueError("max_contexts must be >= 1")
    if len(contexts) <= max_contexts:
        return contexts
    keep = np.sort(rng.choice(len(contexts), size=max_contexts, replace=False))
    return [contexts[i] for i in keep]


def extract_unit_samples(unit: SourceUnit, cfg: ExtractionConfig) -> list[MethodSample]:
    """Extract a capped sample per method; methods with <2 body leaves are skipped."""
    samples: list[MethodSample] = []
    ordinal = 0
    for cls in unit.classes:
        for method in cls.methods:
            ordinal += 1
            pairs = _context_pairs(method, cfg.max_len, cfg.max_width)
            if not pairs:
                continue
            # Only a method over the cap draws, so only it needs its stream.
            rng = (
                np.random.default_rng(derive_seed(cfg.seed, unit.path, ordinal, method.name))
                if len(pairs) > cfg.max_contexts
                else None
            )
            samples.append(
                MethodSample(
                    target_name=method.name,
                    contexts=_build_contexts(cap_contexts(pairs, cfg.max_contexts, rng)),
                    line_count=method.line_count,
                )
            )
    return samples


# --- vocabularies ------------------------------------------------------------


@dataclass
class Vocabulary:
    """The tokens, paths and target names a model has rows for, each list
    in id order and starting with <unk> (UNK_ID) and <pad>, as the
    checkpoint stores them. A string not listed maps to <unk>."""

    tokens: list[str]
    paths: list[str]
    targets: list[str]
    min_count: int

    def __post_init__(self) -> None:
        for name in ("tokens", "paths", "targets"):
            listed = getattr(self, name)
            if listed[:2] != [UNK_TOKEN, PAD_TOKEN] or len(set(listed)) != len(listed):
                raise ValueError(f"vocabulary {name} must be distinct and start with <unk>, <pad>")
        self.token_to_id = {s: i for i, s in enumerate(self.tokens)}
        self.path_to_id = {s: i for i, s in enumerate(self.paths)}
        self.target_to_id = {s: i for i, s in enumerate(self.targets)}

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def index_sample(self, sample: MethodSample) -> "IndexedSample":
        token, path = self.token_to_id.get, self.path_to_id.get
        contexts = sample.contexts
        return IndexedSample(
            target_id=self.target_to_id.get(sample.target_name, UNK_ID),
            starts=np.array([token(c.start_token, UNK_ID) for c in contexts], dtype=np.int64),
            paths=np.array([path(c.path, UNK_ID) for c in contexts], dtype=np.int64),
            ends=np.array([token(c.end_token, UNK_ID) for c in contexts], dtype=np.int64),
            target_name=sample.target_name,
        )


@dataclass
class IndexedSample:
    target_id: int
    starts: np.ndarray
    paths: np.ndarray
    ends: np.ndarray
    target_name: str = ""

    def __len__(self) -> int:
        return len(self.starts)


def vocabulary_from_counts(
    token_counts: Mapping[str, int],
    path_counts: Mapping[str, int],
    target_counts: Mapping[str, int],
    min_count: int,
) -> Vocabulary:
    """The vocabulary of the counted strings: <unk> and <pad>, then every
    string counted at least min_count times by count descending, ties by
    string. The rest map to <unk>."""

    def id_order(counts: Mapping[str, int]) -> list[str]:
        kept = (s for s, c in counts.items() if c >= min_count and s not in (UNK_TOKEN, PAD_TOKEN))
        return [UNK_TOKEN, PAD_TOKEN, *sorted(kept, key=lambda s: (-counts[s], s))]

    return Vocabulary(id_order(token_counts), id_order(path_counts), id_order(target_counts), min_count)


# --- dump interchange format -------------------------------------------------
#
# One method per line: "targetName ctx ctx ..." with ctx =
# "startToken,pathString,endToken". No field is empty or holds a comma or
# whitespace: extraction makes every field so (see the module docstring),
# so the writer joins the fields as they are.


def write_context_dump(samples: Iterable[MethodSample], path: str | Path) -> None:
    """Write the samples, one line each, as they are produced: `samples` may
    be a generator, and an exception it raises leaves the previous file."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sample in samples:
            fh.write(" ".join([sample.target_name, *map(",".join, sample.contexts)]))
            fh.write("\n")


def _dump_records(path: str | Path) -> Iterator[tuple[int, str, list[list[str]]]]:
    """(line number, target, [start, path, end] of each context) per
    non-blank line of a dump. A malformed line or non-UTF-8 bytes raise a
    ValueError naming the dump."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                target, *chunks = line.split(" ")
                contexts = [chunk.split(",") for chunk in chunks]
                for chunk, fields in zip(chunks, contexts):
                    if len(fields) != 3:
                        raise ValueError(f"{path}:{lineno}: malformed context {chunk!r}")
                if not contexts:
                    raise ValueError(f"{path}:{lineno}: method with no contexts")
                yield lineno, target, contexts
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_context_dump(path: str | Path) -> list[MethodSample]:
    intern = sys.intern
    return [
        MethodSample(
            target_name=target,
            contexts=[PathContext(*map(intern, fields)) for fields in contexts],
            line_count=1,
        )
        for _, target, contexts in _dump_records(path)
    ]


def read_indexed_dump(
    path: str | Path, min_count: int = 1
) -> tuple[list[IndexedSample], Vocabulary]:
    """The samples of a dump as id arrays, and the vocabulary of the dump at
    min_count: what index_sample gives for each sample of
    read_context_dump(path) under the vocabulary of all of them, read in one
    pass that keeps no string per context.

    Each token, path and target gets a provisional id where it first
    appears; the counts of those ids give the vocabulary, and one index per
    table maps them to vocabulary ids.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    tokens: dict[str, int] = {}
    paths: dict[str, int] = {}
    targets: dict[str, int] = {}
    token_id, path_id = tokens.setdefault, paths.setdefault
    ids = array("q")  # start, path and end of every context, in dump order
    names: list[str] = []
    target_ids = array("q")
    bounds = [0]  # each sample's first context, and the end of the last
    for _, target, contexts in _dump_records(path):
        names.append(target)
        target_ids.append(targets.setdefault(target, len(targets)))
        for start, mid, end in contexts:
            ids.append(token_id(start, len(tokens)))
            ids.append(path_id(mid, len(paths)))
            ids.append(token_id(end, len(tokens)))
        bounds.append(len(ids) // 3)
    if not names:
        raise ValueError(f"{path}: cannot build a vocabulary from zero samples")

    table = np.frombuffer(ids, dtype=np.int64).reshape(-1, 3)
    provisional_targets = np.frombuffer(target_ids, dtype=np.int64)
    token_counts = np.bincount(table[:, 0], minlength=len(tokens))
    token_counts += np.bincount(table[:, 2], minlength=len(tokens))
    vocab = vocabulary_from_counts(
        dict(zip(tokens, token_counts.tolist())),
        dict(zip(paths, np.bincount(table[:, 1], minlength=len(paths)).tolist())),
        dict(zip(targets, np.bincount(provisional_targets, minlength=len(targets)).tolist())),
        min_count,
    )

    def remap(provisional: dict[str, int], final: dict[str, int]) -> np.ndarray:
        return np.array([final.get(s, UNK_ID) for s in provisional], dtype=np.int64)

    token_map = remap(tokens, vocab.token_to_id)
    starts = token_map[table[:, 0]]
    mids = remap(paths, vocab.path_to_id)[table[:, 1]]
    ends = token_map[table[:, 2]]
    sample_targets = remap(targets, vocab.target_to_id)[provisional_targets].tolist()
    return [
        IndexedSample(
            target_id=target_id,
            starts=starts[lo:hi],
            paths=mids[lo:hi],
            ends=ends[lo:hi],
            target_name=name,
        )
        for target_id, name, lo, hi in zip(sample_targets, names, bounds, bounds[1:])
    ], vocab
