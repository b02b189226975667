"""AST node model and declaration wrappers.

Node kinds follow JavaParser-style names (NameExpr, AssignExpr,
IntegerLiteralExpr, ...). Leaves carry their source token verbatim; the
few statement kinds that can end up childless (a bare ``return;``, an
empty block) carry a placeholder token so that "leaf iff token present"
holds for every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

UNK_TYPE = "unk"


@dataclass(slots=True)
class AstNode:
    kind: str
    token: str | None = None
    children: list["AstNode"] = field(default_factory=list)
    token_index: int | None = None  # leaf position in the unit's token stream
    meta: dict | None = None  # operators / declared names / shape counts

    def is_leaf(self) -> bool:
        return not self.children

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


@dataclass
class MethodDecl:
    name: str
    body: AstNode
    span: tuple[int, int]  # (first line, last line), 1-based inclusive
    node: AstNode  # the MethodDeclaration node

    @property
    def line_count(self) -> int:
        return self.span[1] - self.span[0] + 1


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
    bindings: list[VariableBinding] = field(default_factory=list)  # in declaration order
