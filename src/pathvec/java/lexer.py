"""Tokenizer for the supported Java subset.

Whitespace and comments are dropped here; every surviving token keeps its
character offsets so later stages can splice renamed identifiers back into
the original text without disturbing formatting.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class ParseError(Exception):
    """Unsupported or malformed syntax. Batch callers skip the file."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null""".split()
)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "double", "float", "int", "long", "short"}
)

# Binary operators by precedence, loosest first; assignment, the ternary,
# unary and postfix operators bind outside this range.
BINARY_PRECEDENCE = {
    "||": 3, "&&": 4, "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8, "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10, ">>>": 10,
    "+": 11, "-": 11, "*": 12, "/": 12, "%": 12,
}

# Longest first so e.g. ">>>=" wins over ">": the alternation below tries
# them in this order.
PUNCTUATION = (
    ">>>=",
    ">>>", "<<=", ">>=", "...",
    "->", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
)

_PUNCT_RE = re.compile("|".join(map(re.escape, PUNCTUATION)))
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F_]+[lL]?")
_FLOAT_RE = re.compile(
    r"(?:\d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?[fFdD]?"
    r"|\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?"
    r"|\d[\d_]*[eE][+-]?\d+[fFdD]?"
    r"|\d[\d_]*[fFdD])"
)
_INT_RE = re.compile(r"\d[\d_]*[lL]?")
# Java ends a line with LF, CRLF or a lone CR.
_LINE_END_RE = re.compile(r"\r\n?|\n")


class Token(NamedTuple):
    kind: str  # ident | keyword | int | float | string | char | punct | eof
    text: str
    line: int
    col: int
    start: int  # char offset in source, inclusive
    end: int  # char offset, exclusive


def tokenize(text: str) -> list[Token]:
    """Lex Java source into tokens, raising ParseError on malformed input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def err(msg: str) -> ParseError:
        return ParseError(line, msg)

    while i < n:
        ch = text[i]
        if ch == "\n" or ch == "\r":
            line += 1
            i += 2 if text.startswith("\r\n", i) else 1
            line_start = i
            continue
        if ch in " \t\f":
            i += 1
            continue
        if text.startswith("//", i):
            m = _LINE_END_RE.search(text, i)
            i = n if m is None else m.start()
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                raise err("unterminated block comment")
            ends = _LINE_END_RE.findall(text, i, j)
            if ends:  # line_start only matters for columns
                line += len(ends)
                line_start = max(text.rfind("\n", i, j), text.rfind("\r", i, j)) + 1
            i = j + 2
            continue

        col = i - line_start + 1

        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\" and text[j + 1 : j + 2] not in ("\n", "\r"):
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] in "\r\n":
                    raise err("unterminated literal")
                j += 1
            if j >= n:
                raise err("unterminated literal")
            kind = "string" if quote == '"' else "char"
            tokens.append(Token(kind, text[i : j + 1], line, col, i, j + 1))
            i = j + 1
            continue

        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group()
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col, i, m.end()))
            i = m.end()
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _HEX_RE.match(text, i) or _FLOAT_RE.match(text, i) or _INT_RE.match(text, i)
            if not m:
                raise err(f"malformed number near {text[i:i+8]!r}")
            kind = "float" if _FLOAT_RE.fullmatch(m.group()) else "int"
            tokens.append(Token(kind, m.group(), line, col, i, m.end()))
            i = m.end()
            continue

        m = _PUNCT_RE.match(text, i)
        if not m:
            raise err(f"unexpected character {ch!r}")
        tokens.append(Token("punct", m.group(), line, col, i, m.end()))
        i = m.end()

    tokens.append(Token("eof", "", line, 1, n, n))
    return tokens
