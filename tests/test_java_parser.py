import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import fixtures_java as fx
import synth
from conftest import call_at_depth
from oracles import (
    isomorphic_up_to_leaf_tokens,
    leaves,
    node_tokens,
    resolve_bindings_reference,
    startswith_punct,
    startswith_tokens,
    structurally_equal,
    walk,
)
from pathvec.java import ParseError, SourceUnit, parse_file, resolve_bindings, tokenize
from pathvec.java.lexer import PUNCTUATION
from pathvec.java.parser import MAX_NESTING
from pathvec.java.ast import UNK_TYPE
from pathvec.obfuscate import ObfuscationScheme, obfuscate_unit


def token_texts(source: str) -> list[str]:
    return [t.text for t in tokenize(source)[:-1]]


def test_assign_example_ast_shape():
    unit = parse_file(fx.ASSIGN_X7)
    method = next(unit.methods())
    stmt = method.body.children[0]
    assert stmt.kind == "ExpressionStmt"
    assign = stmt.children[0]
    assert assign.kind == "AssignExpr"
    left, right = assign.children
    assert (left.kind, left.token) == ("NameExpr", "x")
    assert (right.kind, right.token) == ("IntegerLiteralExpr", "7")


def test_factorial_structure():
    unit = parse_file(fx.FIG1_FACTORIAL)
    method = next(unit.methods())
    leaf_tokens = [leaf.token for leaf in leaves(method.body)]
    assert {"n", "0", "1"} <= set(leaf_tokens)
    if_stmt = method.body.children[0]
    assert if_stmt.kind == "IfStmt"
    assert len(if_stmt.children) == 3  # cond, then, else
    calls = [n for n in walk(method.body) if n.kind == "MethodCallExpr"]
    assert len(calls) == 1
    assert calls[0].children[0].token == "f"  # recursive call


def test_empty_class():
    unit = parse_file("class A {}")
    assert len(unit.classes) == 1
    assert unit.classes[0].name == "A"
    assert list(unit.methods()) == []


def test_fig4_bindings(fig4_unit):
    bindings = {(b.name, b.scope, b.declared_type) for b in fig4_unit.bindings}
    assert bindings == {
        ("input", "param", "String"),
        ("count", "local", "int"),
        ("objCount", "field", "int"),
    }
    method = next(fig4_unit.methods())
    assert [p.name for p in method.params] == ["input"]
    assert method.params[0].scope == "param"


def test_fig4_spans_and_line_count(fig4_unit):
    method = next(fig4_unit.methods())
    assert method.span == (3, 7)
    assert method.line_count == 5


def test_shadowing_distinct_bindings():
    unit = parse_file("class A { void m() { int x; { int x; } } }")
    xs = [b for b in unit.bindings if b.name == "x"]
    assert len(xs) == 2
    assert all(b.scope == "local" for b in xs)
    assert xs[0] is not xs[1]


def test_for_loop_occurrences_match_grep_oracle():
    source = """\
class A {
    int m(int n) {
        int sum = 0;
        for (int i = 0; i < n; i++) {
            sum = sum + i;
        }
        return sum;
    }
}
"""
    unit = parse_file(source)
    binding = next(b for b in unit.bindings if b.name == "i")
    assert binding.scope == "local"
    assert binding.declared_type == "int"
    grep_count = sum(
        1 for t in tokenize(source) if t.kind == "ident" and t.text == "i"
    )
    assert len(binding.occurrences) == grep_count == 4


def test_this_access_to_undeclared_field_gets_unk():
    unit = parse_file("class A { void m() { this.ghost = 1; } }")
    ghost = next(b for b in unit.bindings if b.name == "ghost")
    assert ghost.scope == "field"
    assert ghost.declared_type == UNK_TYPE


def test_name_multiset_invariant(fixture_unit):
    name_leaves = Counter(
        n.token for n in walk(fixture_unit.root) if n.kind == "NameExpr"
    )
    attributed = Counter()
    for binding in fixture_unit.bindings:
        for occ in binding.occurrences:
            attributed[occ.token] += 1
    for leaf in fixture_unit.unbound:
        attributed[leaf.token] += 1
    assert name_leaves == attributed


def test_every_leaf_iff_token(fixture_unit):
    for node in walk(fixture_unit.root):
        assert (not node.children) == (node.token is not None)


def test_child_spans_within_parent(fixture_unit):
    for node in walk(fixture_unit.root):
        for child in node.children:
            assert node.span[0] <= child.span[0] <= child.span[1] <= node.span[1]


def test_occurrences_are_name_leaves(fixture_unit):
    for binding in fixture_unit.bindings:
        for occ in binding.occurrences:
            assert occ.kind == "NameExpr"
            assert occ.token == binding.name


def test_parse_is_deterministic(fixture_unit):
    again = parse_file(fx.FIXTURE_METHODS, "Mixed.java")
    assert structurally_equal(fixture_unit.root, again.root)


def test_resolve_bindings_recompute_is_stable(fig4_unit):
    first = [(b.name, b.scope, len(b.occurrences)) for b in fig4_unit.bindings]
    resolve_bindings(fig4_unit)
    second = [(b.name, b.scope, len(b.occurrences)) for b in fig4_unit.bindings]
    assert first == second


def test_round_trip_token_equivalence():
    for source in (fx.FIG1_FACTORIAL, fx.FIG3_DONE, fx.FIG4_ORIGINAL, fx.FIXTURE_METHODS):
        unit = parse_file(source)
        assert node_tokens(unit.root) == token_texts(source)


def test_serializer_fixed_point(fixture_unit):
    first = " ".join(node_tokens(fixture_unit.root))
    reparsed = parse_file(first)
    assert structurally_equal(fixture_unit.root, reparsed.root)
    assert " ".join(node_tokens(reparsed.root)) == first


def test_package_and_imports_round_trip():
    source = "package com.example.app;\nimport java.util.Date;\nclass A { }\n"
    unit = parse_file(source)
    assert node_tokens(unit.root) == token_texts(source)


@pytest.mark.parametrize(
    "source",
    [
        fx.GENERIC_REJECT,
        fx.LAMBDA_REJECT,
        fx.INNER_CLASS_REJECT,
        fx.ANNOTATION_REJECT,
        fx.MALFORMED_REJECT,
        "class C { C() { } }",  # constructor
        "class D { void m() { int[] a; a[0] = 1; } }",  # array subscript
        "class E { void m() { Object o = new Object(); } }",  # object creation
        "class F extends Base { }",
        "interface I { }",
        "class T { void m() { try { x = 1; } finally { } } }",
        "class S { void m() { for (String s : items) { } } }",
    ],
)
def test_unsupported_constructs_raise(source):
    with pytest.raises(ParseError) as err:
        parse_file(source)
    assert err.value.line >= 1


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_file("class A {\n  void m() {\n    int x = ;\n  }\n}")
    assert err.value.line == 3


def test_unterminated_string_is_parse_error():
    with pytest.raises(ParseError):
        parse_file('class A { void m() { s = "oops; } }')


def test_array_and_qualified_types():
    unit = parse_file("class A { int[] xs; java.util.Date when; void m() { } }")
    types = {b.name: b.declared_type for b in unit.bindings}
    assert types == {"xs": "int[]", "when": "java.util.Date"}


# --- punctuation lexing ----------------------------------------------------


def _token_tuples(text):
    return [(t.kind, t.text, t.line, t.col, t.start, t.end) for t in tokenize(text)]


@pytest.mark.parametrize(
    "source",
    [fx.FIG1_FACTORIAL, fx.FIG4_ORIGINAL, fx.FIXTURE_METHODS, fx.ASSIGN_X7,
     fx.GENERIC_REJECT, fx.LAMBDA_REJECT, fx.ANNOTATION_REJECT],
)
def test_punctuation_tokens_match_startswith_oracle_on_fixtures(source):
    tokens = tokenize(source)
    puncts = [t for t in tokens if t.kind == "punct"]
    assert puncts
    for tok in puncts:
        assert tok.text == startswith_punct(source, tok.start)
        assert tok.end == tok.start + len(tok.text)


def test_punctuation_stream_matches_startswith_oracle():
    text = "a>>>=b>>>c<<=d>>=e...f->g==h!=i<=j>=k&&l||m++n--o\n+=-=*=/=%=&=|=^=<<>>@x?y:z;"
    assert _token_tuples(text) == startswith_tokens(text)
    assert [t.text for t in tokenize(">>>>==")[:-1]] == [">>>", ">=", "="]


@pytest.mark.parametrize("ch", ["#", "`", "\\"])
def test_character_outside_punctuation_is_parse_error(ch):
    with pytest.raises(ParseError):
        tokenize(f"x {ch} y")


_PUNCT_CHARS = "".join(sorted(set("".join(PUNCTUATION))))

_punct_heavy_text = st.lists(
    st.one_of(
        st.text(alphabet=_PUNCT_CHARS, min_size=1, max_size=8),
        st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,4}", fullmatch=True),
        st.sampled_from(["int", "return", "this"]),
        st.from_regex(r"[0-9]{1,3}", fullmatch=True).map(lambda s: f" {s} "),
        st.sampled_from([" ", "\n", "  \n ", "// note\n", "/* a\n b */"]),
    ),
    max_size=40,
).map("".join)


@given(_punct_heavy_text)
def test_punctuation_heavy_text_matches_startswith_oracle(text):
    try:
        expected = startswith_tokens(text)
    except ValueError:
        with pytest.raises(ParseError):
            tokenize(text)
        return
    assert _token_tuples(text) == expected


# --- nesting limit ----------------------------------------------------------------


def _method(body):
    return "class N { int f(int a) { " + body + " } }"


# Each recursive shape of the grammar, nested n levels deep.
NESTED_SHAPES = {
    "parentheses": lambda n: _method("return " + "(" * n + "a" + ")" * n + ";"),
    "call arguments": lambda n: _method("return " + "f(" * n + "a" + ")" * n + ";"),
    "scoped call arguments": lambda n: _method("return " + "a.f(" * n + "a" + ")" * n + ";"),
    "else if": lambda n: _method("if (a) a++; else " * n + "a++;"),
    "while": lambda n: _method("while (a) " * n + "a++;"),
    "blocks": lambda n: _method("{ " * n + "a++;" + " }" * n),
    "prefix unary": lambda n: _method("return " + "- " * n + "a;"),
    "assignment": lambda n: _method("a" + " = a" * n + ";"),
    "ternary else": lambda n: _method("return " + "a ? a : " * n + "a;"),
    "ternary then": lambda n: _method("return " + "a ? " * n + "a" + " : a" * n + ";"),
    # a * (a * (a * a)): a right operand and a parenthesis per repetition
    "binary right operands": lambda n: _method(
        "return a" + " * (a" * (n // 2) + " * a" * (n % 2) + ")" * (n // 2) + ";"
    ),
}


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_every_shape_parses_at_the_nesting_limit_deep_in_the_callers_stack(shape):
    make = NESTED_SHAPES[shape]
    unit = call_at_depth(200, parse_file, make(MAX_NESTING))
    assert [m.name for m in unit.methods()] == ["f"]
    for depth in (0, 200):
        with pytest.raises(ParseError, match="nesting too deep"):
            call_at_depth(depth, parse_file, make(MAX_NESTING + 1))


def test_deep_parens_are_rejected_and_a_long_sum_is_not_nesting():
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_file(fx.DEEP_PARENS)
    unit = call_at_depth(200, parse_file, fx.LONG_SUM)
    assert len(unit.bindings[0].occurrences) == 1 + 1200


_NESTED_TEXT = st.builds(
    lambda shape, n: NESTED_SHAPES[shape](n),
    st.sampled_from(sorted(NESTED_SHAPES)),
    st.integers(0, MAX_NESTING + 50),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(), _NESTED_TEXT, st.sampled_from([fx.DEEP_PARENS, fx.LONG_SUM])),
    st.sampled_from([0, 200]),
)
def test_parse_file_returns_a_unit_or_raises_parse_error(text, depth):
    try:
        unit = call_at_depth(depth, parse_file, text)
    except ParseError:
        return
    assert isinstance(unit, SourceUnit)


# --- iterative scope resolution -------------------------------------------------


def _assert_resolution_matches_reference(unit):
    bindings, unbound = list(unit.bindings), list(unit.unbound)
    occurrences = [list(b.occurrences) for b in bindings]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 3000)  # the recursive reference follows LONG_SUM's 1200 levels
    try:
        ref_bindings, ref_unbound = resolve_bindings_reference(unit)
    finally:
        sys.setrecursionlimit(limit)
    assert [(b.name, b.scope, b.declared_type, b.decl_index) for b in bindings] == [
        (b.name, b.scope, b.declared_type, b.decl_index) for b in ref_bindings
    ]
    for ours, ref in zip(occurrences, ref_bindings):
        assert [id(n) for n in ours] == [id(n) for n in ref.occurrences]
    assert [id(n) for n in unbound] == [id(n) for n in ref_unbound]


_FIXTURE_SOURCES = {
    name: value for name, value in vars(fx).items()
    if isinstance(value, str) and name.isupper() and value.startswith("class")
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_SOURCES))
def test_iterative_resolver_matches_the_recursive_one_on_fixtures(name):
    try:
        unit = parse_file(_FIXTURE_SOURCES[name])
    except ParseError:
        return  # a rejected fixture has nothing to resolve
    _assert_resolution_matches_reference(unit)


def test_iterative_resolver_matches_the_recursive_one_on_a_synth_corpus(tmp_path):
    synth.generate_corpus(tmp_path, files_per_class=20, seed=7, typo_fraction=0.3)
    paths = sorted(tmp_path.rglob("*.java"))
    assert len(paths) == 40
    for path in paths:
        _assert_resolution_matches_reference(parse_file(path.read_text(encoding="utf-8")))


# --- frontend edge cases ----------------------------------------------------------


@pytest.fixture(scope="module")
def edges_unit():
    return parse_file(fx.EDGE_CASES, "Edges.java")


def test_escaped_quotes_stay_inside_their_literals():
    tokens = tokenize(fx.EDGE_CASES)
    assert [(t.kind, t.text) for t in tokens if t.kind in ("string", "char")] == [
        ("string", '"x\\"y"'), ("char", "'\\''"),
    ]
    assert [(t.kind, t.text) for t in tokenize("""c = '\\\\' + "\\\\";""")[:-1]] == [
        ("ident", "c"), ("punct", "="), ("char", "'\\\\'"), ("punct", "+"),
        ("string", '"\\\\"'), ("punct", ";"),
    ]


def test_wildcard_import_is_recorded(edges_unit):
    assert edges_unit.root.meta["imports"] == ["java.util.*"]
    assert token_texts("import java.util.*;") == ["import", "java", ".", "util", ".", "*", ";"]


def test_edge_case_bindings(edges_unit):
    found = {
        (b.name, b.scope, b.declared_type): [o.span[0] for o in b.occurrences]
        for b in edges_unit.bindings
    }
    assert found == {
        ("a", "field", "int"): [4, 4],  # read by the initializer of c
        ("c", "field", "int"): [4, 16],
        ("s", "param", "String"): [6, 7],
        ("n", "param", "int"): [10, 13],
        ("i", "local", "int"): [11, 13, 13, 13, 16],  # both for-init assignments bind
        ("j", "local", "int"): [12, 13, 13, 14],
    }
    assert edges_unit.unbound == []
    [field_list] = [m for m in edges_unit.classes[0].node.children if m.kind == "FieldDeclaration"]
    assert len(field_list.children) == 3  # the type and two declarators
    [loop] = [n for n in walk(edges_unit.root) if n.kind == "ForStmt"]
    assert loop.meta["n_init"] == 2
    _assert_resolution_matches_reference(edges_unit)


def test_edge_cases_round_trip_through_type_obfuscation(edges_unit):
    rewritten, rename = obfuscate_unit(edges_unit, ObfuscationScheme("type"))
    assert sorted(rename.entries.values()) == [
        "field_int_1", "field_int_2", "local_int_1", "local_int_2",
        "param_int_1", "param_string_1",
    ]
    assert "int field_int_1 = 1, field_int_2 = field_int_1 + 2;" in rewritten
    assert "for (local_int_1 = 0, local_int_2 = param_int_1;" in rewritten
    assert 'param_string_1 + "x\\"y" + \'\\\'\';' in rewritten
    again = parse_file(rewritten, "Edges.java")
    assert isomorphic_up_to_leaf_tokens(edges_unit.root, again.root)
    assert again.root.meta["imports"] == ["java.util.*"]
    assert [len(b.occurrences) for b in again.bindings] == [
        len(b.occurrences) for b in edges_unit.bindings
    ]
