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
from .parser import java_files, parse_file, read_sources
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
    "java_files",
    "parse_file",
    "read_sources",
    "resolve_bindings",
    "tokenize",
]
