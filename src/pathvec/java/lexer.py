"""Tokenizer for the supported Java subset: one compiled token pattern.

Whitespace and comments are dropped here; every surviving token keeps its
character offsets so later stages can splice renamed identifiers back into
the original text without disturbing formatting.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class ParseError(ValueError):
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

# Java's token grammar, tried in this order at each position; the group
# that matches names the token kind. A float goes before an int, which
# would stop "1.5" at "1"; a hex int ("0x...") never matches a float.
# `open` (a block comment with no end) and `bad` (any other character)
# match only where no token does, and raise.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\f\r\n]+)"
    r"|(?P<comment>//[^\r\n]*|/\*.*?\*/)"
    r"|(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<float>\d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?[fFdD]?|\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?"
    r"|\d[\d_]*[eE][+-]?\d+[fFdD]?|\d[\d_]*[fFdD])"
    r"|(?P<int>0[xX][0-9a-fA-F_]+[lL]?|\d[\d_]*[lL]?)"
    r"|(?P<string>\"(?:[^\"\\\r\n]|\\[^\r\n])*\")"
    r"|(?P<char>'(?:[^'\\\r\n]|\\[^\r\n])*')"
    r"|(?P<open>/\*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # ident | keyword | int | float | string | char | punct | eof
    text: str
    line: int
    start: int  # char offset in source, inclusive
    end: int  # char offset, exclusive


def _error(line: int, text: str, start: int) -> ParseError:
    """The error for an `open` or `bad` match at text[start]."""
    ch = text[start]
    if ch == "/":
        return ParseError(line, "unterminated block comment")
    if ch == '"' or ch == "'":
        return ParseError(line, "unterminated literal")
    if ch.isdigit():
        return ParseError(line, f"malformed number near {text[start:start + 8]!r}")
    return ParseError(line, f"unexpected character {ch!r}")


def tokenize(text: str) -> list[Token]:
    """Lex Java source into tokens, raising ParseError on malformed input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without NamedTuple's keyword handling
    line = 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m.group()
        if kind == "space" or kind == "comment":
            if "\n" in word or "\r" in word:
                # Java ends a line with LF, CRLF or a lone CR.
                line += word.count("\n") + word.count("\r") - word.count("\r\n")
            continue
        start = m.start()
        if kind == "ident":
            if word in KEYWORDS:
                kind = "keyword"
        elif kind == "open" or kind == "bad":
            raise _error(line, text, start)
        append(new(Token, (kind, word, line, start, start + len(word))))
    tokens.append(Token("eof", "", line, len(text), len(text)))
    return tokens
