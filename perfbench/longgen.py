"""Generator for the long-methods corpus and the robustness probe corpora.

Every method body is a run of flat statements (declarations, compound
assignments, short if/while/for blocks, calls) drawn from the supported
Java subset, sized so a body has about 250 leaves. Extraction then visits
about 31k leaf pairs per method, keeps about 1700 of them under the
default length and width limits, and samples 200 of those, so the
quadratic pair loop of path-context extraction dominates the stage.

A fixed share of files uses syntax outside the subset (generics, a
constructor or an annotation); the parser rejects them and batch stages
count them as skipped.
"""

from __future__ import annotations

import random
from pathlib import Path

LABEL = "long"
UNSUPPORTED_SHARE = 0.05
TARGET_LEAVES = 250

_OPS = ("+", "-", "*", "%")
_CMP = ("<", ">", "<=", ">=", "==", "!=")
_VERBS = ("scan", "fold", "mix", "sum", "count", "merge", "shift", "trim")
_NOUNS = ("Buffer", "Ledger", "Window", "Table", "Queue", "Range", "Grid", "Stack")


def _expr(rng: random.Random, names: list[str], terms: int) -> tuple[str, int]:
    parts = []
    leaves = 0
    for i in range(terms):
        if i:
            parts.append(rng.choice(_OPS))
        if rng.random() < 0.6:
            parts.append(rng.choice(names))
        else:
            parts.append(str(rng.randint(1, 99)))
        leaves += 1
    return " ".join(parts), leaves


def _method(rng: random.Random, name: str, indent: str) -> str:
    names = ["seed", "limit"]
    lines = [f"{indent}int {name}(int seed, int limit) {{"]
    body = indent + "    "
    leaves = 0
    counter = 0
    while leaves < TARGET_LEAVES:
        kind = rng.random()
        if kind < 0.35:
            counter += 1
            var = f"v{counter}"
            expr, n = _expr(rng, names, rng.randint(2, 4))
            lines.append(f"{body}int {var} = {expr};")
            names.append(var)
            leaves += n + 2  # type and declared name
        elif kind < 0.55:
            expr, n = _expr(rng, names, rng.randint(1, 3))
            lines.append(f"{body}{rng.choice(names)} += {expr};")
            leaves += n + 1
        elif kind < 0.70:
            target = rng.choice(names)
            cond = f"{rng.choice(names)} {rng.choice(_CMP)} {rng.randint(1, 50)}"
            lines.append(f"{body}if ({cond}) {{")
            lines.append(f"{body}    {target} = {target} - {rng.randint(1, 9)};")
            lines.append(f"{body}}} else {{")
            lines.append(f"{body}    {target}++;")
            lines.append(f"{body}}}")
            leaves += 7
        elif kind < 0.80:
            target = rng.choice(names)
            lines.append(f"{body}while ({target} > {rng.randint(50, 90)}) {{")
            lines.append(f"{body}    {target} = {target} / 2;")
            lines.append(f"{body}}}")
            leaves += 5
        elif kind < 0.90:
            target = rng.choice(names)
            lines.append(f"{body}for (int i = 0; i < {rng.randint(2, 9)}; i++) {{")
            lines.append(f"{body}    {target} += i * {rng.randint(1, 9)};")
            lines.append(f"{body}}}")
            leaves += 10
        else:
            expr, n = _expr(rng, names, 2)
            lines.append(f"{body}this.total = helper({expr}, {rng.choice(names)});")
            leaves += n + 3
    lines.append(f"{body}return {rng.choice(names)};")
    lines.append(f"{indent}}}")
    return "\n".join(lines)


def _unsupported_member(rng: random.Random, cls: str, indent: str) -> str:
    pick = rng.randrange(3)
    if pick == 0:
        return f"{indent}java.util.List<Integer> cache;"
    if pick == 1:
        return f"{indent}{cls}(int start) {{\n{indent}    this.total = start;\n{indent}}}"
    return f"{indent}@Override\n{indent}public String toString() {{\n{indent}    return \"{cls}\";\n{indent}}}"


def generate_long_corpus(
    root: Path, files: int, methods_per_file: int, seed: int
) -> list[Path]:
    """Write `files` files under root/long/; the same seed gives the same bytes."""
    rng = random.Random(seed)
    directory = Path(root) / LABEL
    directory.mkdir(parents=True, exist_ok=True)
    n_bad = max(1, round(files * UNSUPPORTED_SHARE))
    bad = set(rng.sample(range(files), n_bad))
    written = []
    for index in range(files):
        cls = f"Long{index:03d}"
        members = ["    int total;", "", "    int helper(int a, int b) {", "        return a + b;", "    }"]
        for m in range(methods_per_file):
            name = rng.choice(_VERBS) + rng.choice(_NOUNS) + str(m)
            members.append("")
            members.append(_method(rng, name, "    "))
        if index in bad:
            members.append("")
            members.append(_unsupported_member(rng, cls, "    "))
        text = f"class {cls} {{\n" + "\n".join(members) + "\n}\n"
        path = directory / f"{cls}.java"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


_GOOD_FILE = """\
class Good {
    int total;

    int addUp(int a, int b) {
        int c = a + b;
        this.total = c;
        return c;
    }
}
"""


def _probe_sources() -> dict[str, bytes]:
    non_utf8 = (
        "class Bytes {\n    int readByte(int a) {\n        int b = a + 1;\n"
        "        return b; // caf\xe9\n    }\n}\n"
    ).encode("latin-1")
    nested = (
        "class Nest {\n    int deep(int a) {\n        return "
        + "(" * 200 + "a" + ")" * 200 + ";\n    }\n}\n"
    ).encode("utf-8")
    long_sum = (
        "class Sum {\n    int wide(int a) {\n        return "
        + " + ".join(["a"] * 1200) + ";\n    }\n}\n"
    ).encode("utf-8")
    return {"non_utf8": non_utf8, "deep_parens": nested, "long_sum": long_sum}


PROBES = tuple(_probe_sources())


def generate_probe_corpora(root: Path) -> dict[str, Path]:
    """One corpus per probe: the probe file plus one valid file.

    The valid companion keeps a program that skips the probe file with a
    counted reason from failing on an empty corpus instead.
    """
    corpora = {}
    for name, data in _probe_sources().items():
        directory = Path(root) / name
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "Probe.java").write_bytes(data)
        (directory / "Good.java").write_text(_GOOD_FILE, encoding="utf-8")
        corpora[name] = directory
    return corpora
