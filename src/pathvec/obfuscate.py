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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .java import ParseError, SourceUnit, VariableBinding, parse_file
from .java.ast import UNK_TYPE
from .java.lexer import KEYWORDS
from .util import atomic_open, derive_seed

logger = logging.getLogger(__name__)

MODES = ("type", "random")


class ObfuscationError(Exception):
    pass


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


@dataclass
class RenameMap:
    entries: dict[VariableBinding, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


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


def build_rename_map(unit: SourceUnit, scheme: ObfuscationScheme) -> RenameMap:
    """Assign a fresh, non-colliding replacement to every binding."""
    taken = {tok.text for tok in unit.tokens if tok.kind == "ident"}
    taken |= KEYWORDS
    rename = RenameMap()
    bindings = sorted(unit.bindings, key=lambda b: b.decl_index)

    if scheme.mode == "type":
        counters: dict[tuple[str, str], int] = {}
        for binding in bindings:
            key = (binding.scope, render_type(binding.declared_type))
            counter = counters.get(key, 0) + 1
            name = type_name_for(binding, counter)
            while name in taken:
                counter += 1
                name = type_name_for(binding, counter)
            counters[key] = counter
            taken.add(name)
            rename.entries[binding] = name
        return rename

    rng = np.random.default_rng(derive_seed(scheme.seed, unit.path))
    for binding in bindings:
        for _ in range(10_000):
            name = random_name(rng, scheme.random_length)
            if name not in taken:
                break
        else:
            raise ObfuscationError(
                f"could not find a fresh random name for {binding.name!r}"
            )
        taken.add(name)
        rename.entries[binding] = name
    return rename


def obfuscate_unit(
    unit: SourceUnit, scheme: ObfuscationScheme
) -> tuple[str, RenameMap]:
    """Rewrite all variable occurrences in a parsed unit.

    Method names, class names, invoked-method names, literals and types
    are untouched; the output re-parses to an AST isomorphic to the input
    up to the renamed leaf tokens.
    """
    rename = build_rename_map(unit, scheme)
    splices: list[tuple[int, int, str]] = []
    for binding, new_name in rename.entries.items():
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


def _copy_bytes(src: Path, dst: Path) -> None:
    with atomic_open(dst, "wb") as fh:
        fh.write(src.read_bytes())


def obfuscate_tree(
    input_dir: str | Path, output_dir: str | Path, scheme: ObfuscationScheme
) -> dict:
    """Obfuscate every .java file under input_dir into a mirrored tree.

    Files are read and written without newline translation, so a rewritten
    file keeps every byte outside the renamed identifiers, line endings
    included. Unparseable files are copied byte for byte and counted as
    skipped; other files are copied untouched. Every output file, rewritten
    or copied, replaces its path whole or not at all. Per-file IO problems
    land in the report instead of aborting the batch.
    """
    input_dir = Path(input_dir)
    output_dir = Path(output_dir)
    if not input_dir.is_dir():
        raise FileNotFoundError(f"input directory not found: {input_dir}")
    report = {"processed": 0, "skipped": 0, "errors": []}

    for src in sorted(p for p in input_dir.rglob("*") if p.is_file()):
        rel = src.relative_to(input_dir)
        dst = output_dir / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.suffix != ".java":
            _copy_bytes(src, dst)
            continue
        try:
            with open(src, encoding="utf-8", newline="") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            report["errors"].append(f"{rel}: {exc}")
            report["skipped"] += 1
            try:
                _copy_bytes(src, dst)
            except OSError:
                pass
            continue
        try:
            unit = parse_file(text, path=rel.as_posix())
            rewritten, _ = obfuscate_unit(unit, scheme)
        except (ParseError, ObfuscationError) as exc:
            logger.warning("skipping %s: %s", rel, exc)
            report["skipped"] += 1
            _copy_bytes(src, dst)
            continue
        with atomic_open(dst, "w", encoding="utf-8", newline="") as fh:
            fh.write(rewritten)
        report["processed"] += 1
    return report
