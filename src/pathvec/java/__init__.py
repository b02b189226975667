"""Java frontend: lexer, recursive-descent parser and scope resolution
for the supported Java subset."""

from .lexer import ParseError, Token, tokenize
from .ast import (
    AstNode,
    ClassDecl,
    MethodDecl,
    SourceUnit,
    VariableBinding,
    UNK_TYPE,
)
from .parser import parse_file
from .bindings import resolve_bindings

__all__ = [
    "AstNode",
    "ClassDecl",
    "MethodDecl",
    "ParseError",
    "SourceUnit",
    "Token",
    "UNK_TYPE",
    "VariableBinding",
    "parse_file",
    "resolve_bindings",
    "tokenize",
]
