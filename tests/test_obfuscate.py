import importlib.util
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fixtures_java as fx
import synth
from conftest import call_at_depth
from oracles import isomorphic_up_to_leaf_tokens
from pathvec.java import ParseError, java_files, parse_file, read_sources, tokenize
from pathvec.java.ast import UNK_TYPE, VariableBinding
from pathvec.obfuscate import (
    ObfuscationScheme,
    build_rename_map,
    obfuscate_tree,
    obfuscate_unit,
    random_name,
    render_type,
    type_name_for,
)

RANDOM8 = re.compile(r"^[A-Z]{8}$")


def _load_longgen():
    """perfbench/longgen.py, the generator of the long-methods corpus."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "longgen.py"
    spec = importlib.util.spec_from_file_location("pathvec_longgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tokens(text):
    return [t.text for t in tokenize(text)[:-1]]


def test_fig4_type_golden(fig4_unit):
    rewritten, rename = obfuscate_unit(fig4_unit, ObfuscationScheme("type"))
    names = {b.name: n for b, n in rename.items()}
    assert names == {
        "input": "param_string_1",
        "count": "local_int_1",
        "objCount": "field_int_1",
    }
    # token-for-token reproduction of the obfuscated method
    method_tokens = fx.FIG4_TYPE_OBFUSCATED_METHOD.split()
    out_tokens = _tokens(rewritten)
    start = out_tokens.index("public")
    assert out_tokens[start : start + len(method_tokens)] == method_tokens


def test_nothing_to_rename_is_identity():
    unit = parse_file("class A { int f() { return 1; } }")
    rewritten, rename = obfuscate_unit(unit, ObfuscationScheme("type"))
    assert len(rename) == 0
    assert rewritten == unit.text


def test_fig4_random_shape_and_consistency(fig4_unit):
    rewritten, rename = obfuscate_unit(
        fig4_unit, ObfuscationScheme("random", random_length=8, seed=3)
    )
    assert len(rename) == 3
    new_names = list(rename.values())
    assert len(set(new_names)) == 3
    for name in new_names:
        assert RANDOM8.match(name)
    # renames applied consistently at every occurrence
    for binding, new_name in rename.items():
        assert binding.name not in _tokens(rewritten)
        assert _tokens(rewritten).count(new_name) == len(binding.occurrences)


@pytest.mark.parametrize(
    "scope,dtype,counter,expected",
    [
        ("param", "String", 1, "param_string_1"),
        ("field", "int", 1, "field_int_1"),
        ("local", UNK_TYPE, 2, "local_unk_2"),
        ("local", "java.util.Date", 1, "local_java_util_date_1"),
        ("param", "int[]", 3, "param_int_3"),
    ],
)
def test_type_name_for(scope, dtype, counter, expected):
    binding = VariableBinding(name="x", scope=scope, declared_type=dtype)
    assert type_name_for(binding, counter) == expected


def test_render_type_unk_sentinel():
    assert render_type(UNK_TYPE) == "unk"


def test_random_name_shape_and_reproducibility():
    rng = np.random.default_rng(9)
    name = random_name(rng, 8)
    assert RANDOM8.match(name)
    assert re.match(r"^[A-Z]$", random_name(rng, 1))
    seq_a = [random_name(np.random.default_rng(4), 8) for _ in range(5)]
    seq_b = [random_name(np.random.default_rng(4), 8) for _ in range(5)]
    # successive draws from one seeded state replay identically
    rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
    assert [random_name(rng1, 8) for _ in range(5)] == [
        random_name(rng2, 8) for _ in range(5)
    ]
    assert seq_a == seq_b


def test_counter_collision_bumps():
    source = "class A { void m() { int param_string_1 = 0; String s = t; } }"
    unit = parse_file(source)
    # force a collision: the file already contains local_int_1 as a name
    source2 = "class A { void m(int local_int_1) { int x = local_int_1; } }"
    unit2 = parse_file(source2)
    _, rename = obfuscate_unit(unit2, ObfuscationScheme("type"))
    x_binding = next(b for b in rename if b.name == "x")
    # local_int_1 is taken by the parameter occurrence, counters skip ahead
    assert rename[x_binding] != "local_int_1"
    assert rename[x_binding].startswith("local_int_")
    names = set(rename.values())
    assert len(names) == len(rename)  # injective
    _, rename1 = obfuscate_unit(unit, ObfuscationScheme("type"))
    assert "param_string_1" not in rename1.values()


def test_token_stream_differs_only_at_occurrences(fig4_unit):
    rewritten, rename = obfuscate_unit(fig4_unit, ObfuscationScheme("random", seed=1))
    original_tokens = fig4_unit.tokens
    new_tokens = tokenize(rewritten)[:-1]
    assert len(original_tokens) == len(new_tokens)
    occurrence_positions = {
        occ.token_index for b in rename for occ in b.occurrences
    }
    for idx, (old, new) in enumerate(zip(original_tokens, new_tokens)):
        if idx in occurrence_positions:
            assert old.text != new.text
        else:
            assert old.text == new.text


def test_output_reparses_isomorphic(fig4_unit):
    rewritten, _ = obfuscate_unit(fig4_unit, ObfuscationScheme("random", seed=2))
    new_unit = parse_file(rewritten, "Holder.java")
    assert isomorphic_up_to_leaf_tokens(fig4_unit.root, new_unit.root)


def test_method_and_class_names_untouched(fig4_unit):
    rewritten, _ = obfuscate_unit(fig4_unit, ObfuscationScheme("random", seed=2))
    tokens = _tokens(rewritten)
    for kept in ("Holder", "getResult", "Integer", "toString", "String"):
        assert kept in tokens


def test_distinct_seeds_differ(fig4_unit):
    a, rename_a = obfuscate_unit(fig4_unit, ObfuscationScheme("random", seed=1))
    b, rename_b = obfuscate_unit(fig4_unit, ObfuscationScheme("random", seed=2))
    assert a != b
    assert list(rename_a.values()) != list(rename_b.values())


def test_scheme_validation():
    with pytest.raises(ValueError):
        ObfuscationScheme("scramble")
    with pytest.raises(ValueError):
        ObfuscationScheme("random", random_length=2)


def test_build_rename_map_injective_on_fixture(fixture_unit):
    rename = build_rename_map(fixture_unit, ObfuscationScheme("type"))
    values = list(rename.values())
    assert len(values) == len(set(values))


# --- the occurrence invariant obfuscate_unit and xobf rely on ------------------


def _assert_occurrences_own_their_tokens(unit):
    """Every occurrence of a binding is a NameExpr leaf whose token, and the
    token it indexes, are the binding's name; no token is two occurrences."""
    seen = set()
    for binding in unit.bindings:
        for leaf in binding.occurrences:
            assert leaf.kind == "NameExpr" and leaf.is_leaf(), unit.path
            assert leaf.token == unit.tokens[leaf.token_index].text == binding.name, unit.path
            assert leaf.token_index not in seen, unit.path
            seen.add(leaf.token_index)


def _fixture_texts():
    return [text for name, text in vars(fx).items() if name.isupper() and isinstance(text, str)]


def _parsed(texts):
    units = []
    for i, text in enumerate(texts):
        try:
            units.append(parse_file(text, path=f"text{i}"))
        except ParseError:
            pass
    return units


def _mutants(texts, count, seed):
    """Copies of texts with one token deleted, duplicated, or (an
    identifier) swapped for another identifier of the text, so that names
    shadow, go undeclared or move between scopes."""
    rng = random.Random(seed)
    sources = [(text, tokenize(text)[:-1]) for text in texts]
    sources = [(text, toks) for text, toks in sources if toks]
    out = []
    for _ in range(count):
        text, toks = rng.choice(sources)
        tok = rng.choice(toks)
        idents = [t.text for t in toks if t.kind == "ident"]
        op = rng.randrange(3)
        if op == 0:
            new = ""
        elif op == 1:
            new = f"{tok.text} {tok.text}"
        else:
            new = rng.choice(idents) if tok.kind == "ident" else tok.text
        out.append(text[: tok.start] + new + text[tok.end :])
    return out


def test_each_occurrence_owns_one_token_named_as_its_binding(tmp_path):
    synth.generate_corpus(tmp_path / "synth", files_per_class=400, seed=5, typo_fraction=0.5)
    longgen = _load_longgen()
    longgen.generate_long_corpus(tmp_path / "long", files=60, methods_per_file=1, seed=1)
    units = _parsed(_fixture_texts())
    for root in (tmp_path / "synth", tmp_path / "long"):
        skipped = Counter()
        units += [u for _, u in read_sources(root, java_files(root), skipped) if u is not None]
    # the two depth fixtures are left unmutated: their mutants take seconds to parse
    shallow = [text for text in _fixture_texts() if text not in (fx.LONG_SUM, fx.DEEP_PARENS)]
    mutants = _parsed(_mutants(shallow, 2000, seed=0))
    assert len(units) > 850 and len(mutants) > 300
    for unit in units + mutants:
        _assert_occurrences_own_their_tokens(unit)


# --- directory walking -------------------------------------------------------


def _make_tree(root):
    (root / "pkg").mkdir(parents=True)
    (root / "a.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    (root / "pkg" / "b.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
    (root / "pkg" / "c.java").write_text(fx.FIG3_DONE, encoding="utf-8")
    (root / "pkg" / "broken.java").write_text("class X { void m( }", encoding="utf-8")
    (root / "notes.txt").write_text("not java", encoding="utf-8")


def test_obfuscate_tree_counts(tmp_path):
    src = tmp_path / "in"
    dst = tmp_path / "out"
    _make_tree(src)
    report = obfuscate_tree(src, dst, ObfuscationScheme("type"))
    assert report["processed"] == 3
    assert report["skipped"] == 1
    assert (dst / "pkg" / "b.java").exists()
    # malformed file copied verbatim
    assert (dst / "pkg" / "broken.java").read_text() == "class X { void m( }"
    assert (dst / "notes.txt").read_text() == "not java"
    assert "param_string_1" in (dst / "a.java").read_text()


def test_obfuscate_tree_skips_too_deeply_nested_file(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "Nest.java").write_text(fx.DEEP_PARENS, encoding="utf-8")
    (src / "Sum.java").write_text(fx.LONG_SUM, encoding="utf-8")
    (src / "Holder.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    for depth in (0, 20, 60):
        out = tmp_path / f"out{depth}"
        report = call_at_depth(depth, obfuscate_tree, src, out, ObfuscationScheme("random", seed=1))
        assert report["processed"] == 2
        assert report["skipped"] == 1
        # an unparseable file is mirrored byte for byte
        assert (out / "Nest.java").read_text(encoding="utf-8") == fx.DEEP_PARENS
        [param] = parse_file((out / "Sum.java").read_text(encoding="utf-8")).bindings
        assert param.name != "a" and len(param.occurrences) == 1 + 1200


def test_obfuscate_tree_empty(tmp_path):
    src = tmp_path / "empty"
    src.mkdir()
    report = obfuscate_tree(src, tmp_path / "out", ObfuscationScheme("type"))
    assert report == {"processed": 0, "skipped": 0, "skip_reasons": {}}


def test_obfuscate_tree_missing_input(tmp_path):
    with pytest.raises(FileNotFoundError):
        obfuscate_tree(tmp_path / "nope", tmp_path / "out", ObfuscationScheme("type"))


def test_type_obfuscation_idempotent_shape(tmp_path):
    src = tmp_path / "in"
    _make_tree(src)
    once = tmp_path / "once"
    twice = tmp_path / "twice"
    obfuscate_tree(src, once, ObfuscationScheme("type"))
    obfuscate_tree(once, twice, ObfuscationScheme("type"))
    text = (twice / "a.java").read_text()
    pattern = re.compile(r"\b(param|local|field)_[a-z0-9_]+_\d+\b")
    unit = parse_file(text)
    for binding in unit.bindings:
        assert pattern.match(binding.name), binding.name


def test_random_tree_rerun_identical(tmp_path):
    src = tmp_path / "in"
    _make_tree(src)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    obfuscate_tree(src, out_a, ObfuscationScheme("random", seed=7))
    obfuscate_tree(src, out_b, ObfuscationScheme("random", seed=7))
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.java"))
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.java"))
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_obfuscate_tree_keeps_crlf_line_endings(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    parses = fx.FIG4_ORIGINAL.replace("\n", "\r\n").encode()
    unsupported = "class T {\n  void m() {\n    try { x = 1; } finally { }\n  }\n}\n"
    unsupported = unsupported.replace("\n", "\r\n").encode()
    (src / "Holder.java").write_bytes(parses)
    (src / "Try.java").write_bytes(unsupported)
    report = obfuscate_tree(src, tmp_path / "out", ObfuscationScheme("type"))
    assert (report["processed"], report["skipped"]) == (1, 1)
    # the skipped file is mirrored byte for byte
    assert (tmp_path / "out" / "Try.java").read_bytes() == unsupported
    # the rewritten file differs from its input only at the renamed names
    renames = {b"objCount": b"field_int_1", b"input": b"param_string_1", b"count": b"local_int_1"}
    expected = re.sub(rb"\b(objCount|input|count)\b", lambda m: renames[m.group()], parses)
    assert (tmp_path / "out" / "Holder.java").read_bytes() == expected
    assert expected.count(b"\r\n") == parses.count(b"\n") > 0
