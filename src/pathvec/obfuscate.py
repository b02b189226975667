"""Variable-name obfuscation.

Two schemes: ``type`` renames each variable to scope_type_counter
(param_string_1, field_int_1, ...) and ``random`` to a fresh uppercase
letter string. Renames are applied by splicing replacement text at the
identifier token offsets, so everything except the renamed occurrences
(formatting, comments, literals, method names) survives byte-for-byte.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .java import SourceUnit, VariableBinding, java_files, read_sources
from .java.ast import UNK_TYPE
from .java.lexer import KEYWORDS
from .util import atomic_open, derive_seed

logger = logging.getLogger(__name__)

MODES = ("type", "random")


class ObfuscationError(ValueError):
    """A rename that cannot be applied. obfuscate_tree skips the file."""


@dataclass(frozen=True)
class ObfuscationScheme:
    mode: str
    random_length: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "random" and self.random_length < 4:
            raise ValueError("random_length must be >= 4")


def render_type(declared_type: str) -> str:
    """Lowercase a declared type, folding array/qualifier punctuation to '_'."""
    if declared_type == UNK_TYPE:
        return UNK_TYPE
    text = re.sub(r"[^0-9a-z]+", "_", declared_type.lower())
    return text.strip("_") or UNK_TYPE


def type_name_for(binding: VariableBinding, counter: int) -> str:
    if counter < 1:
        raise ValueError("counter starts at 1")
    return f"{binding.scope}_{render_type(binding.declared_type)}_{counter}"


def random_name(rng: np.random.Generator, length: int) -> str:
    if length < 1:
        raise ValueError("length must be >= 1")
    return "".join(chr(65 + int(v)) for v in rng.integers(0, 26, size=length))


def build_rename_map(unit: SourceUnit, scheme: ObfuscationScheme) -> dict[VariableBinding, str]:
    """A fresh, non-colliding replacement for every binding, assigned in
    declaration order."""
    taken = {tok.text for tok in unit.tokens if tok.kind == "ident"}
    taken |= KEYWORDS
    rename: dict[VariableBinding, str] = {}

    if scheme.mode == "type":
        counters: dict[tuple[str, str], int] = {}
        for binding in unit.bindings:
            key = (binding.scope, render_type(binding.declared_type))
            counter = counters.get(key, 0) + 1
            name = type_name_for(binding, counter)
            while name in taken:
                counter += 1
                name = type_name_for(binding, counter)
            counters[key] = counter
            taken.add(name)
            rename[binding] = name
        return rename

    rng = np.random.default_rng(derive_seed(scheme.seed, unit.path))
    for binding in unit.bindings:
        for _ in range(10_000):
            name = random_name(rng, scheme.random_length)
            if name not in taken:
                break
        else:
            raise ObfuscationError(
                f"could not find a fresh random name for {binding.name!r}"
            )
        taken.add(name)
        rename[binding] = name
    return rename


def obfuscate_unit(
    unit: SourceUnit, scheme: ObfuscationScheme
) -> tuple[str, dict[VariableBinding, str]]:
    """Rewrite all variable occurrences in a parsed unit, and return the
    text with the rename map.

    Method names, class names, invoked-method names, literals and types
    are untouched; the output re-parses to an AST isomorphic to the input
    up to the renamed leaf tokens.
    """
    rename = build_rename_map(unit, scheme)
    splices: list[tuple[int, int, str]] = []
    for binding, new_name in rename.items():
        for occurrence in binding.occurrences:
            idx = occurrence.token_index
            if idx is None:
                raise ObfuscationError(f"occurrence of {binding.name!r} lost its token")
            tok = unit.tokens[idx]
            if tok.text != binding.name:
                raise ObfuscationError(
                    f"token mismatch for {binding.name!r} at line {tok.line}"
                )
            splices.append((tok.start, tok.end, new_name))
    splices.sort()
    for (_, end_a, _), (start_b, _, _) in zip(splices, splices[1:]):
        if start_b < end_a:
            raise ObfuscationError("overlapping renames")

    out: list[str] = []
    cursor = 0
    for start, end, new_name in splices:
        out.append(unit.text[cursor:start])
        out.append(new_name)
        cursor = end
    out.append(unit.text[cursor:])
    return "".join(out), rename


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def obfuscate_tree(
    input_dir: str | Path, output_dir: str | Path, scheme: ObfuscationScheme
) -> dict:
    """Obfuscate every .java file under input_dir into a mirrored tree.

    Java files are read through read_sources, as every command reads them,
    and rewritten without newline translation, so a rewritten file keeps
    every byte outside the renamed identifiers, line endings included. A
    file that read_sources skips, or whose names cannot be replaced
    ("obfuscation_error"), is counted under its reason and copied byte for
    byte if it can be read at all; other files are copied untouched. Every
    output file replaces its path whole or not at all. An output_dir
    strictly inside input_dir raises ValueError before anything is
    written; output_dir may be input_dir itself.
    """
    input_dir = Path(input_dir)
    output_dir = Path(output_dir)
    if not input_dir.is_dir():
        raise FileNotFoundError(f"input directory not found: {input_dir}")
    # The copy walk over input_dir would meet the files written below it.
    if input_dir.resolve() in output_dir.resolve().parents:
        raise ValueError(f"output directory {output_dir} lies inside input directory {input_dir}")
    rels = java_files(input_dir)
    skipped: Counter = Counter()
    processed = 0
    for rel, unit in read_sources(input_dir, rels, skipped):
        data = None
        if unit is not None:
            try:
                data = obfuscate_unit(unit, scheme)[0].encode("utf-8")
                processed += 1
            except ObfuscationError as exc:
                logger.warning("skipping %s: %s", rel, exc)
                skipped["obfuscation_error"] += 1
        if data is None:
            try:
                data = (input_dir / rel).read_bytes()
            except OSError:
                continue  # counted as unreadable; there is nothing to copy
        _write(output_dir / rel, data)

    java = set(rels)
    for src in sorted(p for p in input_dir.rglob("*") if p.is_file()):
        rel = src.relative_to(input_dir).as_posix()
        if rel not in java:
            _write(output_dir / rel, src.read_bytes())
    return {"processed": processed, "skipped": skipped.total(), "skip_reasons": dict(skipped)}
