import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures_java as fx
import synth
from conftest import call_at_depth
from oracles import (
    brute_force_contexts,
    build_vocabulary,
    count_distinct,
    extract_contexts,
    leaves,
    unit_methods,
)
from pathvec.java import parse_file, read_sources
from pathvec.java.ast import AstNode, MethodDecl
from pathvec.java.lexer import KEYWORDS, tokenize
from pathvec.pathctx import (
    DOWN,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    UP,
    ExtractionConfig,
    MethodSample,
    PathContext,
    cap_contexts,
    extract_unit_samples,
    read_context_dump,
    read_indexed_dump,
    split_target,
    write_context_dump,
)
from pathvec.obfuscate import ObfuscationScheme, obfuscate_unit
from pathvec.util import derive_seed


def _first_method(source):
    return next(unit_methods(parse_file(source)))


def test_assign_example_golden_triplet():
    method = _first_method(fx.ASSIGN_X7)
    contexts = extract_contexts(method, None, None)
    assert contexts == [
        PathContext("x", f"NameExpr{UP}AssignExpr{DOWN}IntegerLiteralExpr", "7")
    ]


def test_two_leaves_give_one_context():
    method = _first_method("class A { void m() { x = 7; } }")
    assert len(extract_contexts(method, None, None)) == 1


def test_empty_method_has_no_contexts():
    method = _first_method("class A { void m() { } }")
    assert extract_contexts(method, None, None) == []


def test_count_law_and_oracle_agreement_on_fixture_methods():
    unit = parse_file(fx.FIXTURE_METHODS)
    methods = [m for m in unit_methods(unit) if sum(1 for _ in leaves(m.body)) >= 2]
    assert len(methods) >= 20
    for method in methods:
        n_leaves = sum(1 for _ in leaves(method.body))
        contexts = extract_contexts(method, None, None)
        assert len(contexts) == n_leaves * (n_leaves - 1) // 2
        expected = brute_force_contexts(method.body)
        got = [(c.start_token, c.path, c.end_token) for c in contexts]
        assert got == expected


@pytest.mark.parametrize("max_len,max_width", [(2, 1), (4, 2), (6, 3), (8, 2)])
def test_filtered_extraction_matches_oracle(max_len, max_width):
    unit = parse_file(fx.FIXTURE_METHODS)
    for method in unit_methods(unit):
        contexts = extract_contexts(method, max_len, max_width)  # [] for < 2 leaves, as the oracle
        expected = brute_force_contexts(method.body, max_len, max_width)
        got = [(c.start_token, c.path, c.end_token) for c in contexts]
        assert got == expected


FLAT_BLOCK = """\
class F {
    int flat(int a, int b) {
        int c = a + b;
        a = c * 2;
        b = a - c;
        c = b % 3;
        a = f(b, c);
        return a + b + c;
    }
}
"""


@pytest.mark.parametrize("max_len,max_width", [(None, 0), (None, 1), (None, 2), (8, 2), (6, 3)])
def test_flat_block_width_pruning_at_the_body_apex(max_len, max_width):
    method = _first_method(FLAT_BLOCK)
    assert len(method.body.children) > 3
    got = [(c.start_token, c.path, c.end_token) for c in extract_contexts(method, max_len, max_width)]
    assert got == brute_force_contexts(method.body, max_len, max_width)
    # the limit drops pairs of statements too far apart in the body
    assert len(got) < len(extract_contexts(method, max_len, None))


_KINDS = ("BlockStmt", "ExpressionStmt", "BinaryExpr", "AssignExpr")
_LEAF_TOKENS = ("a", "b", "7", '"x, y"', "c d")


def _build_tree(shape):
    """A fresh AstNode tree from (kind, token) leaves and (kind, [shapes])."""
    kind, rest = shape
    if isinstance(rest, str):
        return AstNode(kind, rest)
    return AstNode(kind, None, [_build_tree(child) for child in rest])


_trees = st.recursive(
    st.tuples(
        st.sampled_from(("NameExpr", "IntegerLiteralExpr", "StringLiteralExpr")),
        st.sampled_from(_LEAF_TOKENS),
    ),
    lambda children: st.tuples(st.sampled_from(_KINDS), st.lists(children, min_size=1, max_size=5)),
    max_leaves=24,
).map(_build_tree)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_extraction_equals_oracle_in_order_on_random_trees(body):
    method = MethodDecl("m", body, (1, 1), body)
    n_leaves = sum(1 for _ in leaves(body))
    for max_len, max_width in product((None, 0, 1, 2, 3, 8), (None, 0, 1, 2, 3)):
        expected = brute_force_contexts(body, max_len, max_width)
        if n_leaves < 2:
            assert extract_contexts(method, max_len, max_width) == [] == expected
            continue
        got = extract_contexts(method, max_len, max_width)
        assert [(c.start_token, c.path, c.end_token) for c in got] == expected


def _reverse_path(path: str) -> str:
    parts = []
    current = ""
    for ch in path:
        if ch in (UP, DOWN):
            parts.append(current)
            parts.append(ch)
            current = ""
        else:
            current += ch
    parts.append(current)
    flipped = [UP if p == DOWN else DOWN if p == UP else p for p in reversed(parts)]
    return "".join(flipped)


def test_path_symmetry_via_reversal():
    method = _first_method(fx.ASSIGN_X7)
    ctx = extract_contexts(method, None, None)[0]
    assert _reverse_path(ctx.path) == f"IntegerLiteralExpr{UP}AssignExpr{DOWN}NameExpr"
    assert _reverse_path(_reverse_path(ctx.path)) == ctx.path


def test_source_order_canonicalization():
    method = _first_method(fx.FIG1_FACTORIAL)
    leaf_tokens = [leaf.token for leaf in leaves(method.body)]
    positions = {}
    for idx, token in enumerate(leaf_tokens):
        positions.setdefault(token, []).append(idx)
    contexts = extract_contexts(method, None, None)
    # start token's first possible position never after end token's last
    for ctx in contexts:
        assert min(positions[ctx.start_token]) <= max(positions[ctx.end_token])


def test_extraction_deterministic():
    a = extract_contexts(_first_method(fx.FIG1_FACTORIAL), None, None)
    b = extract_contexts(_first_method(fx.FIG1_FACTORIAL), None, None)
    assert a == b


# --- capping -----------------------------------------------------------------


def _fake_contexts(n):
    return [PathContext(f"s{i}", f"p{i}", f"e{i}") for i in range(n)]


def test_cap_under_limit_unchanged():
    contexts = _fake_contexts(5)
    assert cap_contexts(contexts, 10, np.random.default_rng(0)) == contexts


def test_cap_is_subset_and_order_stable():
    contexts = _fake_contexts(300)
    kept = cap_contexts(contexts, 200, np.random.default_rng(1))
    assert len(kept) == 200
    assert len(set(kept)) == 200
    assert set(kept) <= set(contexts)
    order = {ctx: i for i, ctx in enumerate(contexts)}
    indices = [order[c] for c in kept]
    assert indices == sorted(indices)


def test_cap_seeded_rerun_identical():
    contexts = _fake_contexts(300)
    a = cap_contexts(contexts, 50, np.random.default_rng(42))
    b = cap_contexts(contexts, 50, np.random.default_rng(42))
    assert a == b


def test_cap_rejects_nonpositive():
    with pytest.raises(ValueError):
        cap_contexts(_fake_contexts(3), 0, np.random.default_rng(0))


def _long_method_source(n_statements=50):
    """A short method, then a flat method of about 250 body leaves, the
    shape of the perfbench long-methods corpus."""
    body = ["int v0 = seed + 1;"]
    for k in range(1, n_statements):
        if k % 3 == 0:
            v = f"v{k - 1}"
            body.append(f"if ({v} > {k}) {{ {v} = {v} - 2; }} else {{ {v}++; }}")
            body.append(f"int v{k} = v{k - 1} * limit;")
        else:
            body.append(f"int v{k} = v{k - 1} % {k} + seed;")
    body.append(f"return v{n_statements - 1};")
    lines = "".join(f"        {line}\n" for line in body)
    return (
        "class Long {\n"
        "    int small(int x) { return x + 1; }\n"
        f"    int mix(int seed, int limit) {{\n{lines}    }}\n"
        "}\n"
    )


def test_capped_samples_equal_cap_of_the_uncapped_contexts():
    unit = parse_file(_long_method_source(), "long/Long0.java")
    methods = list(unit_methods(unit))
    assert sum(1 for _ in leaves(methods[1].body)) >= 250
    cfg = ExtractionConfig(max_len=8, max_width=2, max_contexts=200, seed=17)
    samples = extract_unit_samples(unit, cfg)
    assert [s.target_name for s in samples] == ["small", "mix"]
    for ordinal, (method, sample) in enumerate(zip(methods, samples), start=1):
        contexts = extract_contexts(method, cfg.max_len, cfg.max_width)
        rng = np.random.default_rng(derive_seed(cfg.seed, unit.path, ordinal, method.name))
        assert sample.contexts == cap_contexts(contexts, cfg.max_contexts, rng)
    assert len(extract_contexts(methods[1], cfg.max_len, cfg.max_width)) > 5 * cfg.max_contexts
    assert len(samples[1].contexts) == cfg.max_contexts


def test_only_methods_over_the_cap_build_a_random_stream(monkeypatch):
    unit = parse_file(_long_method_source(), "long/Long0.java")
    sizes = [len(extract_contexts(m, 8, 2)) for m in unit_methods(unit)]
    real_rng = np.random.default_rng
    calls = []

    def counting_rng(*args, **kwargs):
        calls.append(args)
        return real_rng(*args, **kwargs)

    for max_contexts in (1, sizes[0], sizes[0] + 1, max(sizes), max(sizes) + 1):
        cfg = ExtractionConfig(max_contexts=max_contexts, seed=17)
        monkeypatch.undo()
        expected = extract_unit_samples(unit, cfg)
        calls.clear()
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        assert extract_unit_samples(unit, cfg) == expected
        assert len(calls) == sum(size > max_contexts for size in sizes)


def test_token_and_path_context_are_immutable():
    token = tokenize("x")[0]
    ctx = PathContext("a", "p", "b")
    with pytest.raises(AttributeError):
        token.text = "y"
    with pytest.raises(AttributeError):
        ctx.path = "q"


def test_token_and_path_context_hash_and_compare_by_value():
    a, b = tokenize("x x")[:2]
    assert (a.kind, a.text, a.line) == (b.kind, b.text, b.line) and a != b  # columns differ
    again = tokenize("x x")[0]
    assert again == a and hash(again) == hash(a)
    assert len({a, b, again}) == 2
    ctx = PathContext("a", "p", "b")
    assert ctx == PathContext("a", "p", "b") and hash(ctx) == hash(PathContext("a", "p", "b"))
    assert ctx != PathContext("a", "p", "c")
    assert len({ctx, PathContext("a", "p", "b"), PathContext("b", "p", "a")}) == 2


# --- target splitting ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("getResult", ["get", "result"]),
        ("f", ["f"]),
        ("toString2JSON", ["to", "string", "2", "json"]),
        ("snake_case_name", ["snake", "case", "name"]),
        ("HTMLParser", ["html", "parser"]),
        ("value42x", ["value", "42", "x"]),
    ],
)
def test_split_target(name, expected):
    assert split_target(name) == expected


def test_split_target_rejects_empty():
    with pytest.raises(ValueError):
        split_target("")


@given(st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,20}", fullmatch=True))
def test_split_target_lowercase_nonempty(name):
    parts = split_target(name)
    assert parts
    for part in parts:
        assert part == part.lower()


# --- vocabulary ----------------------------------------------------------------


def _samples_from(source, path="mem.java", **cfg):
    unit = parse_file(source, path)
    return extract_unit_samples(unit, ExtractionConfig(**cfg))


def test_vocab_contains_everything_at_min_count_one():
    samples = _samples_from(fx.FIG1_FACTORIAL, max_len=None, max_width=None)
    vocab = build_vocabulary(samples, min_count=1)
    assert UNK_ID == 0 and vocab.tokens[:2] == vocab.paths[:2] == [UNK_TOKEN, PAD_TOKEN]
    for ctx in samples[0].contexts:
        assert vocab.token_to_id[ctx.start_token] >= 2
        assert vocab.path_to_id[ctx.path] >= 2
    assert vocab.target_to_id["f"] >= 2
    ids = sorted(vocab.token_to_id.values())
    assert ids == list(range(len(ids)))  # dense, 0-based


def test_vocab_threshold_excludes_rare():
    samples = [
        MethodSample("one", [PathContext("a", "p", "b")], 1),
        MethodSample("two", [PathContext("a", "p", "c")], 1),
    ]
    vocab = build_vocabulary(samples, min_count=2)
    assert vocab.token_to_id["a"] >= 2  # appears twice
    assert vocab.token_to_id.get("b", UNK_ID) == UNK_ID
    assert vocab.token_to_id.get("c", UNK_ID) == UNK_ID
    assert vocab.path_to_id["p"] >= 2


def test_vocab_requires_samples():
    with pytest.raises(ValueError):
        build_vocabulary([], 1)


def test_fig3_pair_vocabularies_identical_under_random_obfuscation():
    def obfuscated_corpus(source, tag):
        samples = []
        for i in range(6):
            unit = parse_file(source, f"{tag}{i}.java")
            rewritten, _ = obfuscate_unit(unit, ObfuscationScheme("random", seed=i))
            new_unit = parse_file(rewritten, f"{tag}{i}.java")
            samples.extend(
                extract_unit_samples(new_unit, ExtractionConfig(None, None, 500))
            )
        return samples

    done = obfuscated_corpus(fx.FIG3_DONE, "done")
    don = obfuscated_corpus(fx.FIG3_DON, "don")
    # shared structural tokens appear in all 6 files; per-file random names
    # cannot reach the threshold
    vocab_done = build_vocabulary(done, min_count=30)
    vocab_don = build_vocabulary(don, min_count=30)
    assert vocab_done.token_to_id == vocab_don.token_to_id
    assert vocab_done.path_to_id == vocab_don.path_to_id
    assert len(vocab_done.token_to_id) > 2  # non-trivial: structure survived


def test_rename_invariance_at_id_level():
    vocab = build_vocabulary(
        _samples_from(fx.FIG1_FACTORIAL, max_len=None, max_width=None), min_count=1
    )
    done = _samples_from(fx.FIG3_DONE, "a.java", max_len=None, max_width=None)[0]
    don = _samples_from(fx.FIG3_DON, "a.java", max_len=None, max_width=None)[0]
    a = vocab.index_sample(done)
    b = vocab.index_sample(don)
    assert np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.ends, b.ends)


def test_count_distinct_matches_vocabulary_sizes():
    rng = np.random.default_rng(4)
    for _ in range(5):
        samples = [
            MethodSample(
                str(rng.choice(["get", "set", "<unk>", "<pad>"])),
                [
                    PathContext(*rng.choice(["a", "b", "<unk>", "<pad>", "c"], 3))
                    for _ in range(int(rng.integers(1, 6)))
                ],
                1,
            )
            for _ in range(int(rng.integers(1, 8)))
        ]
        vocab = build_vocabulary(samples, min_count=1)
        assert count_distinct(samples) == (vocab.n_tokens - 2, vocab.n_paths - 2, vocab.n_targets - 2)


# --- dump interchange -----------------------------------------------------------


def test_dump_format_and_round_trip(tmp_path):
    samples = _samples_from(fx.ASSIGN_X7, max_len=None, max_width=None)
    out = tmp_path / "dump.txt"
    write_context_dump(samples, out)
    assert out.read_bytes() == f"m x,NameExpr{UP}AssignExpr{DOWN}IntegerLiteralExpr,7\n".encode()
    loaded = read_context_dump(out)
    assert len(loaded) == 1
    assert loaded[0].target_name == "m"
    assert loaded[0].contexts == samples[0].contexts


def test_dump_sanitizes_commas_and_spaces(tmp_path):
    source = 'class A { String m() { return "a, b c" + tail; } }'
    samples = _samples_from(source, max_len=None, max_width=None)
    out = tmp_path / "dump.txt"
    write_context_dump(samples, out)
    (line,) = out.read_text(encoding="utf-8").splitlines()
    assert '"a__b_c"' in line
    assert line.count(" ") == len(samples[0].contexts)
    loaded = read_context_dump(out)
    assert len(loaded[0].contexts) == len(samples[0].contexts)


_LITERAL_TEXT = st.text(alphabet=st.sampled_from("a_, \t\xa0\u2028"), max_size=4)
_JAVA_NAME = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True).filter(
    lambda name: name not in KEYWORDS
)
_STATEMENTS = (
    'String s{i} = "{text}";',
    'put("{text}", s{i});',
    'char c{i} = \'{char}\';',
    'tail = "{text}" + tail;',
)
_METHODS = st.lists(
    st.tuples(
        _JAVA_NAME,
        st.lists(st.tuples(st.sampled_from(_STATEMENTS), _LITERAL_TEXT), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(_METHODS)
def test_every_extracted_field_is_clean_and_the_dump_reads_back_as_extracted(
    tmp_path_factory, methods
):
    """Extraction is where dump fields are made clean: string and char literals
    holding commas, spaces, tabs, no-break or line separators, or nothing, give
    fields that are never empty and hold no comma or whitespace, so the joined
    dump reads back as the samples it was written from."""
    body = []
    for name, statements in methods:
        lines = [
            template.format(i=i, text=text, char=text[:1])
            for i, (template, text) in enumerate(statements)
        ]
        body.append(f"String {name}(String tail) {{ {' '.join(lines)} return tail; }}")
    unit = parse_file(f"class A {{ {' '.join(body)} }}", "A.java")
    samples = extract_unit_samples(unit, ExtractionConfig(max_len=None, max_width=None))
    assert [s.target_name for s in samples] == [name for name, _ in methods]
    for sample in samples:
        for field in [sample.target_name, *(f for ctx in sample.contexts for f in ctx)]:
            assert field and "," not in field and not any(ch.isspace() for ch in field), field
    out = tmp_path_factory.mktemp("dump") / "dump.txt"
    write_context_dump(samples, out)
    loaded = read_context_dump(out)
    assert [(s.target_name, s.contexts) for s in loaded] == [
        (s.target_name, s.contexts) for s in samples
    ]


def test_dump_tokens_equal_in_memory_tokens(tmp_path):
    source = 'class A { String m() { String s = "x, y"; return s + tail; } }'
    samples = _samples_from(source, max_len=None, max_width=None)
    out = tmp_path / "dump.txt"
    write_context_dump(samples, out)
    loaded = read_context_dump(out)
    assert loaded[0].contexts == samples[0].contexts
    tokens = {c.start_token for c in samples[0].contexts} | {c.end_token for c in samples[0].contexts}
    assert '"x__y"' in tokens
    vocab = build_vocabulary(loaded, min_count=1)  # what train sees
    seen_at_embed = vocab.index_sample(samples[0])  # what embed and xobf see
    seen_at_train = vocab.index_sample(loaded[0])
    assert np.array_equal(seen_at_embed.starts, seen_at_train.starts)
    assert np.array_equal(seen_at_embed.ends, seen_at_train.ends)
    assert vocab.token_to_id.get('"x__y"', UNK_ID) != UNK_ID


def test_files_of_one_shape_share_their_path_and_token_strings():
    shape = "class {0} {{ int {1}(int total) {{ int {2} = total + 40; return {2}; }} }}"
    one = _samples_from(shape.format("A", "first", "count"), path="A.java")[0].contexts
    two = _samples_from(shape.format("B", "second", "amount"), path="B.java")[0].contexts
    assert [c.path for c in one] == [c.path for c in two]
    assert all(a.path is b.path for a, b in zip(one, two))
    totals = [t for c in one + two for t in (c.start_token, c.end_token) if t == "total"]
    assert len(totals) >= 2 and all(t is totals[0] for t in totals)


def test_dump_lines_that_share_a_token_and_a_path_read_back_as_one_object(tmp_path):
    path = f"NameExpr{UP}AssignExpr{DOWN}IntegerLiteralExpr"
    out = tmp_path / "dump.txt"
    out.write_text(f"m count,{path},17\nn count,{path},42 total,{path},17\n", encoding="utf-8")
    contexts = [c for sample in read_context_dump(out) for c in sample.contexts]
    assert len(contexts) == 3
    assert all(c.path is contexts[0].path for c in contexts)
    assert contexts[1].start_token is contexts[0].start_token  # "count"
    assert contexts[2].end_token is contexts[0].end_token  # "17"


def test_a_read_dump_holds_well_under_half_its_unshared_bytes_per_context(tmp_path):
    # Each context holding its own three strings cost about 437 B here
    # (80 files, 8,360 contexts); shared strings bring that near 110 B.
    synth.generate_corpus(tmp_path / "corpus", files_per_class=40, seed=1)
    files = sorted(p.relative_to(tmp_path / "corpus").as_posix()
                   for p in (tmp_path / "corpus").rglob("*.java"))
    cfg = ExtractionConfig(seed=3)
    samples = [s for _, unit in read_sources(tmp_path / "corpus", files, Counter())
               for s in extract_unit_samples(unit, cfg)]
    write_context_dump(samples, tmp_path / "dump.txt")
    del samples
    tracemalloc.start()
    try:
        loaded = read_context_dump(tmp_path / "dump.txt")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    contexts = sum(len(s.contexts) for s in loaded)
    assert contexts > 8000
    assert held / contexts < 160


def test_the_one_pass_reader_holds_a_fraction_of_a_read_dump(tmp_path):
    # read_context_dump holds about 108 B per context here (80 files, 8,360
    # contexts); three int64 ids are 24 B, and the samples and vocabulary
    # of the one-pass reader come to about 41 B.
    synth.generate_corpus(tmp_path / "corpus", files_per_class=40, seed=1)
    files = sorted(p.relative_to(tmp_path / "corpus").as_posix()
                   for p in (tmp_path / "corpus").rglob("*.java"))
    cfg = ExtractionConfig(seed=3)
    samples = [s for _, unit in read_sources(tmp_path / "corpus", files, Counter())
               for s in extract_unit_samples(unit, cfg)]
    write_context_dump(samples, tmp_path / "dump.txt")
    del samples
    tracemalloc.start()
    try:
        indexed, vocab = read_indexed_dump(tmp_path / "dump.txt")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    contexts = sum(len(s) for s in indexed)
    assert contexts > 8000 and vocab.n_tokens > 2
    assert held / contexts < 56
    assert peak / contexts < 100


_dump_string = st.sampled_from(["a", "b", "ab", "<unk>", "<pad>", "x_1", "é"])
_dump_context = st.tuples(_dump_string, _dump_string, _dump_string).map(",".join)
_dump_method = st.tuples(_dump_string, st.lists(_dump_context, min_size=1, max_size=4)).map(
    lambda method: " ".join([method[0], *method[1]])
)
_bad_dump_line = st.sampled_from(
    ["m", "m a,b", "m a,b,c,d", "m a,b,c ", "m  a,b,c", " a,b,c", "m a,b,c a,,b,"]
)


def _parse_then_index(path, min_count):
    samples = read_context_dump(path)
    if not samples:  # read_indexed_dump names the dump
        raise ValueError(f"{path}: cannot build a vocabulary from zero samples")
    vocab = build_vocabulary(samples, min_count)
    return [vocab.index_sample(s) for s in samples], vocab


def _outcome(read, path, min_count):
    try:
        return read(path, min_count), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(_dump_method, st.just("")), max_size=8),
    st.one_of(st.none(), st.tuples(st.integers(0, 8), _bad_dump_line)),
    st.integers(1, 3),
)
def test_one_pass_reader_equals_parse_then_index(tmp_path_factory, lines, bad, min_count):
    if bad is not None:
        lines = lines[: bad[0]] + [bad[1]] + lines[bad[0] :]
    path = tmp_path_factory.getbasetemp() / "one_pass_dump.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want, want_error = _outcome(_parse_then_index, path, min_count)
    got, got_error = _outcome(read_indexed_dump, path, min_count)
    assert got_error == want_error
    if want is None:
        assert bad is not None or not any(lines)
        return
    (got_samples, got_vocab), (want_samples, want_vocab) = got, want
    assert got_vocab == want_vocab
    assert len(got_samples) == len(want_samples)
    for a, b in zip(got_samples, want_samples):
        assert (a.target_id, a.target_name) == (b.target_id, b.target_name)
        for field in ("starts", "paths", "ends"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_extraction_of_a_long_sum_runs_deep_in_the_callers_stack(tmp_path):
    (tmp_path / "Sum.java").write_text(fx.LONG_SUM, encoding="utf-8")

    def parse_and_extract():
        [(_, unit)] = list(read_sources(tmp_path, ["Sum.java"], Counter()))
        return extract_unit_samples(unit, ExtractionConfig())

    for depth in (0, 20, 60):
        samples = call_at_depth(depth, parse_and_extract)
        assert len(samples) == 1
        assert len(samples[0].contexts) == 200


def test_extract_unit_samples_caps_and_skips():
    source = """\
class A {
    void empty() { }
    int big(int a, int b, int c) {
        int d = a + b * c - a % b;
        int e = d * d + a - b + c * 2;
        return d + e * a - b + c;
    }
}
"""
    samples = _samples_from(source, max_len=None, max_width=None, max_contexts=10)
    assert len(samples) == 1  # empty() skipped
    assert len(samples[0].contexts) == 10
    assert samples[0].line_count == 5
    again = _samples_from(source, max_len=None, max_width=None, max_contexts=10)
    assert samples[0].contexts == again[0].contexts  # seeded cap is stable
