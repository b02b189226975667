"""LF, CRLF and a lone CR each end exactly one line, in every command."""

import json

import pytest

from oracles import unit_methods
from pathvec.cli import main
from pathvec.java import ParseError, parse_file
from pathvec.java.lexer import tokenize

TALLY = """\
// Counts things.
class Tally {
    int total; // running sum
    /* a block comment
       over two lines */
    int add(int step) {
        int next = total + step; // the new sum
        total = next;
        return next;
    }
    String label(String name) {
        String text = "n: " + name; /* one line */ return text;
    }
}
"""

LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def _variant(end):
    return TALLY.replace("\n", end)


def _token_rows(text):
    return [(t.kind, t.text, t.line) for t in tokenize(text)]


@pytest.mark.parametrize("name", ["crlf", "cr"])
def test_tokens_agree_across_line_ends(name):
    expected = _token_rows(TALLY)
    assert expected[-1][2] == TALLY.count("\n") + 1  # eof on the line after the last end
    assert _token_rows(_variant(LINE_ENDS[name])) == expected


def test_lone_cr_ends_a_line():
    assert [t.line for t in tokenize("int a;\r\rint b;")] == [1, 1, 1, 3, 3, 3, 3]
    # a CRLF counts once inside a block comment, a lone CR once more
    x = tokenize("/*\r\n\r*/x")[0]
    assert (x.text, x.line) == ("x", 3)


@pytest.mark.parametrize("end", list(LINE_ENDS.values()))
@pytest.mark.parametrize("literal", ['"abc', "'a", '"ab\\'])
def test_literal_ends_at_any_line_end(end, literal):
    with pytest.raises(ParseError, match="unterminated literal"):
        tokenize(f"class A {{ String s = {literal}{end}x\"; }}")


@pytest.mark.parametrize("name", ["crlf", "cr"])
def test_methods_parse_alike_across_line_ends(name):
    def shape(unit):
        return [(m.name, m.span, m.line_count) for m in unit_methods(unit)]

    assert shape(parse_file(_variant(LINE_ENDS[name]))) == shape(parse_file(TALLY))


def _corpora(tmp_path):
    roots = {}
    for name, end in LINE_ENDS.items():
        roots[name] = tmp_path / name
        roots[name].mkdir()
        (roots[name] / "Tally.java").write_bytes(_variant(end).encode())
    return roots


def test_extract_dump_rows_agree_across_line_ends(tmp_path, capsys):
    dumps = {}
    for name, root in _corpora(tmp_path).items():
        out = tmp_path / f"{name}.txt"
        assert main(["extract", "--corpus", str(root), "--out", str(out), "--seed", "3"]) == 0
        dumps[name] = out.read_bytes()
    assert dumps["lf"].count(b"\n") == 2  # both methods
    assert dumps["crlf"] == dumps["lf"] and dumps["cr"] == dumps["lf"]


def test_obfuscate_type_names_agree_across_line_ends(tmp_path, capsys):
    outputs = {}
    for name, root in _corpora(tmp_path).items():
        out = tmp_path / f"{name}-out"
        capsys.readouterr()
        assert main(["obfuscate", "--in", str(root), "--out", str(out), "--mode", "type"]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert (report["processed"], report["skipped"]) == (1, 0)
        outputs[name] = (out / "Tally.java").read_bytes().decode()
    assert "param_int_1" in outputs["lf"] and "step" not in outputs["lf"]
    for name, end in LINE_ENDS.items():
        # each copy keeps its own line ends and gets the same names
        assert outputs[name] == outputs["lf"].replace("\n", end)
