"""AST node model, declaration wrappers and the token-level serializer.

Node kinds follow JavaParser-style names (NameExpr, AssignExpr,
IntegerLiteralExpr, ...). Leaves carry their source token verbatim; the
few statement kinds that can end up childless (a bare ``return;``, an
empty block) carry a placeholder token so that "leaf iff token present"
holds for every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .lexer import BINARY_PRECEDENCE

UNK_TYPE = "unk"

# Closed node-kind vocabulary of the supported subset.
NODE_KINDS = frozenset(
    {
        "CompilationUnit",
        "ClassOrInterfaceDeclaration",
        "FieldDeclaration",
        "MethodDeclaration",
        "Parameter",
        "VariableDeclarator",
        "VariableDeclarationExpr",
        "BlockStmt",
        "ExpressionStmt",
        "IfStmt",
        "WhileStmt",
        "ForStmt",
        "ReturnStmt",
        "AssignExpr",
        "BinaryExpr",
        "UnaryExpr",
        "ConditionalExpr",
        "MethodCallExpr",
        "FieldAccessExpr",
        "NameExpr",
        "ThisExpr",
        "PrimitiveType",
        "ClassOrInterfaceType",
        "ArrayType",
        "IntegerLiteralExpr",
        "DoubleLiteralExpr",
        "StringLiteralExpr",
        "CharLiteralExpr",
        "BooleanLiteralExpr",
        "NullLiteralExpr",
    }
)

TYPE_KINDS = frozenset({"PrimitiveType", "ClassOrInterfaceType", "ArrayType"})


@dataclass
class AstNode:
    kind: str
    token: str | None = None
    children: list["AstNode"] = field(default_factory=list)
    span: tuple[int, int] = (1, 1)  # (startLine, endLine), 1-based inclusive
    token_index: int | None = None  # leaf position in the unit's token stream
    meta: dict | None = None  # operators / declared names / shape counts

    def is_leaf(self) -> bool:
        return not self.children

    def op(self) -> str:
        return (self.meta or {})["op"]

    def __repr__(self) -> str:  # keep pytest diffs readable
        if self.is_leaf():
            return f"{self.kind}({self.token!r})"
        return f"{self.kind}[{len(self.children)}]"


@dataclass(eq=False)
class VariableBinding:
    """One declared (or this-implied) variable and all its identifier leaves."""

    name: str
    scope: str  # param | local | field
    declared_type: str  # rendered type text, or UNK_TYPE
    occurrences: list[AstNode] = field(default_factory=list)
    decl_index: int = 0  # file-wide declaration order


@dataclass
class MethodDecl:
    name: str
    params: list[VariableBinding]
    body: AstNode
    line_count: int
    node: AstNode  # the MethodDeclaration node
    return_type: str = "void"

    @property
    def span(self) -> tuple[int, int]:
        return self.node.span


@dataclass
class ClassDecl:
    name: str
    node: AstNode
    methods: list[MethodDecl] = field(default_factory=list)


@dataclass
class SourceUnit:
    path: str
    text: str
    classes: list[ClassDecl]
    root: AstNode
    tokens: list  # lexer Tokens, EOF excluded
    bindings: list[VariableBinding] = field(default_factory=list)
    unbound: list[AstNode] = field(default_factory=list)  # NameExpr leaves with no binding

    def methods(self) -> Iterator[MethodDecl]:
        for cls in self.classes:
            yield from cls.methods


def structurally_equal(a: AstNode, b: AstNode) -> bool:
    if a.kind != b.kind or a.token != b.token or len(a.children) != len(b.children):
        return False
    if (a.meta or {}).get("op") != (b.meta or {}).get("op"):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


def isomorphic_up_to_leaf_tokens(a: AstNode, b: AstNode) -> bool:
    if a.kind != b.kind or len(a.children) != len(b.children):
        return False
    return all(
        isomorphic_up_to_leaf_tokens(x, y) for x, y in zip(a.children, b.children)
    )


# --- serialization back to tokens -------------------------------------------
#
# Parentheses are lexical trivia dropped by the parser, so the serializer
# re-inserts the minimum set required by precedence. Sources without
# redundant parentheses round-trip token-for-token.

_PREC_ASSIGN = 1
_PREC_TERNARY = 2
_PREC_UNARY = 13
_PREC_POSTFIX = 14
_PREC_PRIMARY = 15


def _prec(node: AstNode) -> int:
    kind = node.kind
    if kind == "AssignExpr":
        return _PREC_ASSIGN
    if kind == "ConditionalExpr":
        return _PREC_TERNARY
    if kind == "BinaryExpr":
        return BINARY_PRECEDENCE[node.op()]
    if kind == "UnaryExpr":
        return _PREC_POSTFIX if (node.meta or {}).get("postfix") else _PREC_UNARY
    if kind in ("MethodCallExpr", "FieldAccessExpr"):
        return _PREC_POSTFIX
    return _PREC_PRIMARY


def _type_tokens(text: str) -> list[str]:
    out: list[str] = []
    word = ""
    for ch in text:
        if ch in ".[]":
            if word:
                out.append(word)
                word = ""
            out.append(ch)
        else:
            word += ch
    if word:
        out.append(word)
    return out


def node_tokens(node: AstNode) -> list[str]:
    """Serialize a node back into a flat token-text list."""
    out: list[str] = []
    _emit(node, out)
    return out


def to_source(node: AstNode) -> str:
    return " ".join(node_tokens(node))


def _emit_expr(node: AstNode, out: list[str], min_prec: int) -> None:
    if _prec(node) < min_prec:
        out.append("(")
        _emit(node, out)
        out.append(")")
    else:
        _emit(node, out)


def _emit(node: AstNode, out: list[str]) -> None:
    kind = node.kind
    meta = node.meta or {}

    if kind in TYPE_KINDS:
        out.extend(_type_tokens(node.token or ""))
        return
    if kind in ("NameExpr", "ThisExpr") or kind.endswith("LiteralExpr"):
        out.append(node.token or "")
        return

    if kind == "CompilationUnit":
        if meta.get("package"):
            out.extend(["package", *_type_tokens(meta["package"]), ";"])
        for imp in meta.get("imports", ()):
            out.extend(["import", *_type_tokens(imp), ";"])
        for child in node.children:
            _emit(child, out)
        return
    if kind == "ClassOrInterfaceDeclaration":
        out.extend(meta.get("modifiers", ()))
        out.extend(["class", meta["name"], "{"])
        for child in node.children:
            _emit(child, out)
        out.append("}")
        return
    if kind == "FieldDeclaration":
        out.extend(meta.get("modifiers", ()))
        _emit(node.children[0], out)
        for i, decl in enumerate(node.children[1:]):
            if i:
                out.append(",")
            _emit(decl, out)
        out.append(";")
        return
    if kind == "MethodDeclaration":
        out.extend(meta.get("modifiers", ()))
        _emit(node.children[0], out)
        out.append(meta["name"])
        out.append("(")
        params = node.children[1:-1]
        for i, param in enumerate(params):
            if i:
                out.append(",")
            _emit(param, out)
        out.append(")")
        _emit(node.children[-1], out)
        return
    if kind == "Parameter":
        _emit(node.children[0], out)
        _emit(node.children[1], out)
        return
    if kind == "VariableDeclarator":
        _emit(node.children[0], out)
        if len(node.children) > 1:
            out.append("=")
            _emit_expr(node.children[1], out, _PREC_ASSIGN)
        return
    if kind == "VariableDeclarationExpr":
        _emit(node.children[0], out)
        for i, decl in enumerate(node.children[1:]):
            if i:
                out.append(",")
            _emit(decl, out)
        return
    if kind == "BlockStmt":
        if node.is_leaf():
            out.extend(["{", "}"])
            return
        out.append("{")
        for child in node.children:
            _emit(child, out)
        out.append("}")
        return
    if kind == "ExpressionStmt":
        _emit(node.children[0], out)
        out.append(";")
        return
    if kind == "IfStmt":
        out.extend(["if", "("])
        _emit(node.children[0], out)
        out.append(")")
        _emit(node.children[1], out)
        if len(node.children) > 2:
            out.append("else")
            _emit(node.children[2], out)
        return
    if kind == "WhileStmt":
        out.extend(["while", "("])
        _emit(node.children[0], out)
        out.append(")")
        _emit(node.children[1], out)
        return
    if kind == "ForStmt":
        n_init = meta["n_init"]
        has_cond = meta["has_cond"]
        n_update = meta["n_update"]
        idx = 0
        out.extend(["for", "("])
        for i in range(n_init):
            if i:
                out.append(",")
            _emit(node.children[idx], out)
            idx += 1
        out.append(";")
        if has_cond:
            _emit(node.children[idx], out)
            idx += 1
        out.append(";")
        for i in range(n_update):
            if i:
                out.append(",")
            _emit(node.children[idx], out)
            idx += 1
        out.append(")")
        _emit(node.children[idx], out)
        return
    if kind == "ReturnStmt":
        out.append("return")
        if node.children:
            _emit(node.children[0], out)
        out.append(";")
        return

    if kind == "AssignExpr":
        _emit_expr(node.children[0], out, _PREC_POSTFIX)
        out.append(node.op())
        _emit_expr(node.children[1], out, _PREC_ASSIGN)
        return
    if kind == "ConditionalExpr":
        _emit_expr(node.children[0], out, _PREC_TERNARY + 1)
        out.append("?")
        _emit_expr(node.children[1], out, _PREC_TERNARY)
        out.append(":")
        _emit_expr(node.children[2], out, _PREC_TERNARY)
        return
    if kind == "BinaryExpr":
        prec = BINARY_PRECEDENCE[node.op()]
        _emit_expr(node.children[0], out, prec)
        out.append(node.op())
        _emit_expr(node.children[1], out, prec + 1)
        return
    if kind == "UnaryExpr":
        if meta.get("postfix"):
            _emit_expr(node.children[0], out, _PREC_POSTFIX)
            out.append(node.op())
        else:
            out.append(node.op())
            _emit_expr(node.children[0], out, _PREC_UNARY)
        return
    if kind == "MethodCallExpr":
        args = node.children[1:]
        if meta.get("has_scope"):
            _emit_expr(node.children[0], out, _PREC_POSTFIX)
            out.append(".")
            args = node.children[2:]
            out.append(node.children[1].token or "")
        else:
            out.append(node.children[0].token or "")
        out.append("(")
        for i, arg in enumerate(args):
            if i:
                out.append(",")
            _emit_expr(arg, out, _PREC_ASSIGN)
        out.append(")")
        return
    if kind == "FieldAccessExpr":
        _emit_expr(node.children[0], out, _PREC_POSTFIX)
        out.append(".")
        out.append(node.children[1].token or "")
        return

    raise ValueError(f"cannot serialize node kind {kind}")
