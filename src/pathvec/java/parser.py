"""Recursive-descent parser for the supported Java subset.

Supported: class declarations, fields, methods with typed parameters,
local variable declarations, assignment (plain and compound), if/else,
while, for, return, unary/binary/ternary expressions, method invocation,
field access, literals, increment/decrement, plus package/import headers.

Everything else (generics, lambdas, inner classes, annotations,
constructors, object creation, arrays subscripts, try/switch/do, ...)
raises ParseError; batch commands log and skip the file. So does a file
that nests deeper than MAX_NESTING.

read_sources is the one reader of corpus files: every command lists,
decodes and parses Java files through it, and skips a file for the same
counted reason.
"""

from __future__ import annotations

import logging
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from .ast import AstNode, ClassDecl, MethodDecl, SourceUnit
from .lexer import BINARY_PRECEDENCE, PRIMITIVE_TYPES, ParseError, Token, tokenize

logger = logging.getLogger(__name__)

_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "abstract",
     "native", "synchronized", "transient", "volatile", "strictfp"}
)
_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)
_UNSUPPORTED_STMT = frozenset(
    {"try", "switch", "do", "throw", "break", "continue", "synchronized",
     "assert", "super"}
)
# How deeply the parser's recursive entries may nest. One level each:
# a parenthesis, an argument list, a prefix operator, a binary operator's
# right operand (so operators of rising precedence, as in `a || b && c`,
# nest), an assignment's right-hand side, a conditional's branch, a block
# nested in a block and an if/else/while/for body. A level costs at most 8
# interpreter frames (an argument list), so a file at the limit needs
# about 530, whoever calls the parser.
MAX_NESTING = 64

# The texts that continue a postfix expression; `[` and `->` only to refuse it.
_POSTFIX = frozenset({".", "++", "--", "[", "->"})
_PREFIX = frozenset({"+", "-", "!", "~", "++", "--"})

_LITERAL_KINDS = {
    "int": "IntegerLiteralExpr",
    "float": "DoubleLiteralExpr",
    "string": "StringLiteralExpr",
    "char": "CharLiteralExpr",
}
_KEYWORD_LITERALS = {"true": "BooleanLiteralExpr", "false": "BooleanLiteralExpr",
                     "null": "NullLiteralExpr", "this": "ThisExpr"}


def parse_file(text: str, path: str = "<memory>") -> SourceUnit:
    """Parse Java source into a SourceUnit with resolved bindings."""
    tokens = tokenize(text)
    unit = _Parser(tokens, text, path).parse_unit()
    from .bindings import resolve_bindings

    resolve_bindings(unit)
    return unit


def java_files(root: Path, sub: str = "") -> list[str]:
    """Paths, relative to root, of the .java files under root/sub, sorted.
    A directory named *.java is not one; a dangling link is, and reads as
    unreadable."""
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    found = (root / sub).rglob("*.java")
    return sorted(p.relative_to(root).as_posix() for p in found if not p.is_dir())


def read_sources(
    root: Path, rels: Iterable[str], skipped: Counter
) -> Iterator[tuple[str, SourceUnit | None]]:
    """Read, decode and parse root/rel for each rel, one at a time on the
    caller's thread, yielding (rel, unit) in input order.

    Files are decoded as UTF-8 without newline translation, so unit.text
    is the file's exact text. A file that is skipped yields None, logs a
    warning and counts one in `skipped` under its reason: "unreadable",
    "not_utf8", "nesting_too_deep" (past MAX_NESTING) or "parse_error".
    """
    for rel in rels:
        try:
            with open(root / rel, encoding="utf-8", newline="") as fh:
                unit = parse_file(fh.read(), path=rel)
        except OSError as exc:
            unit = _skip(rel, exc, "unreadable", skipped)
        except UnicodeDecodeError as exc:
            unit = _skip(rel, exc, "not_utf8", skipped)
        except ParseError as exc:
            deep = exc.message == "nesting too deep"
            unit = _skip(rel, exc, "nesting_too_deep" if deep else "parse_error", skipped)
        yield rel, unit


def _skip(rel: str, exc: Exception, reason: str, skipped: Counter) -> None:
    logger.warning("skipping %s: %s", rel, exc)
    skipped[reason] += 1


class _Parser:
    def __init__(self, tokens: list[Token], text: str, path: str):
        self.tokens = tokens
        # Every decision reads token texts, so they are kept apart. Only punct
        # tokens spell operators, and no caller asks for the eof token's "",
        # so a token that at(), accept() or expect() matches is never eof.
        self.texts = [tok.text for tok in tokens]
        self.text = text
        self.path = path
        self.pos = 0
        self.depth = 0

    # -- token plumbing --------------------------------------------------

    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, what: str = "") -> None:
        if self.texts[self.pos] != text:
            want = what or f"'{text}'"
            raise self.error(f"expected {want}, found {self._describe()}")
        self.pos += 1

    def _nested(self, parse, *args):
        """parse(*args) one nesting level deeper; past MAX_NESTING the
        file is rejected before the interpreter's stack can run out."""
        if self.depth == MAX_NESTING:
            raise self.error("nesting too deep")
        self.depth += 1
        node = parse(*args)
        self.depth -= 1
        return node

    def error(self, message: str) -> ParseError:
        return ParseError(self.cur().line, message)

    def _describe(self) -> str:
        tok = self.cur()
        return "end of file" if tok.kind == "eof" else f"'{tok.text}'"

    def _leaf(self, kind: str, idx: int) -> AstNode:
        return AstNode(kind, token=self.texts[idx], token_index=idx)

    # -- compilation unit ------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        meta: dict = {"package": None, "imports": []}
        if self.accept("package"):
            meta["package"] = self._qualified_name()
            self.expect(";")
        while self.accept("import"):
            name = self._qualified_name()
            if self.accept("."):
                self.expect("*")
                name += ".*"
            meta["imports"].append(name)
            self.expect(";")

        classes: list[ClassDecl] = []
        while not self.at_kind("eof"):
            classes.append(self._class_decl())
        root = AstNode("CompilationUnit", children=[c.node for c in classes], meta=meta)
        if not classes:
            root.token = "<empty>"
        return SourceUnit(
            path=self.path,
            text=self.text,
            classes=classes,
            root=root,
            tokens=self.tokens[:-1],
        )

    def _qualified_name(self) -> str:
        parts = [self._expect_ident("name")]
        while self.at(".") and self.peek().kind == "ident":
            self.advance()
            parts.append(self.advance().text)
        return ".".join(parts)

    def _expect_ident(self, what: str) -> str:
        if not self.at_kind("ident"):
            raise self.error(f"expected {what}, found {self._describe()}")
        return self.advance().text

    def _modifiers(self) -> list[str]:
        mods: list[str] = []
        while self.cur().kind == "keyword" and self.cur().text in _MODIFIERS:
            mods.append(self.advance().text)
        return mods

    # -- declarations ----------------------------------------------------

    def _class_decl(self) -> ClassDecl:
        mods = self._modifiers()
        if self.at("@"):
            raise self.error("annotations are not supported")
        if self.at("interface") or self.at("enum"):
            raise self.error(f"'{self.cur().text}' declarations are not supported")
        self.expect("class")
        name = self._expect_ident("class name")
        if self.at("<"):
            raise self.error("generic type parameters are not supported")
        if self.at("extends") or self.at("implements"):
            raise self.error(f"'{self.cur().text}' clauses are not supported")
        self.expect("{")

        members: list[AstNode] = []
        methods: list[MethodDecl] = []
        while not self.at("}"):
            if self.at_kind("eof"):
                raise self.error("unterminated class body")
            member = self._member(methods)
            members.append(member)
        self.expect("}")

        node = AstNode(
            "ClassOrInterfaceDeclaration", children=members, meta={"name": name, "modifiers": mods}
        )
        if not members:
            node.token = name  # childless declarations still carry a token
        return ClassDecl(name=name, node=node, methods=methods)

    def _member(self, methods: list[MethodDecl]) -> AstNode:
        start = self.pos
        mods = self._modifiers()
        if self.at("@"):
            raise self.error("annotations are not supported")
        if self.texts[self.pos] in ("class", "interface", "enum"):
            raise self.error("inner classes are not supported")
        type_text, type_leaf = self._type(allow_void=True)
        if self.at("("):
            raise self.error("constructors are not supported")
        name_idx = self.pos
        name = self._expect_ident("member name")
        if self.at("("):
            return self._method_rest(start, mods, type_leaf, name, methods)
        if type_text == "void":
            raise self.error("fields cannot have type void")
        return self._field_rest(mods, type_leaf, name_idx)

    def _method_rest(
        self,
        start: int,
        mods: list[str],
        type_leaf: AstNode,
        name: str,
        methods: list[MethodDecl],
    ) -> AstNode:
        self.expect("(")
        params: list[AstNode] = []
        if not self.at(")"):
            while True:
                params.append(self._parameter())
                if not self.accept(","):
                    break
        self.expect(")")
        if self.at("throws"):
            raise self.error("'throws' clauses are not supported")
        if not self.at("{"):
            raise self.error("method body required")
        body = self._block()
        node = AstNode(
            "MethodDeclaration",
            children=[type_leaf, *params, body],
            meta={"name": name, "modifiers": mods},
        )
        span = (self.tokens[start].line, self.tokens[self.pos - 1].line)  # through the '}'
        methods.append(MethodDecl(name=name, body=body, span=span, node=node))
        return node

    def _field_rest(self, mods: list[str], type_leaf: AstNode, first_name_idx: int) -> AstNode:
        declarators = [self._declarator_rest(first_name_idx)]
        while self.accept(","):
            name_idx = self.pos
            self._expect_ident("field name")
            declarators.append(self._declarator_rest(name_idx))
        self.expect(";")
        return AstNode(
            "FieldDeclaration", children=[type_leaf, *declarators], meta={"modifiers": mods}
        )

    def _declarator_rest(self, name_idx: int) -> AstNode:
        children = [self._leaf("NameExpr", name_idx)]
        if self.at(":"):
            raise self.error("enhanced for loops are not supported")
        if self.accept("="):
            children.append(self._expression())
        return AstNode("VariableDeclarator", children=children)

    def _parameter(self) -> AstNode:
        self._modifiers()  # permit 'final' on parameters
        _, type_leaf = self._type(allow_void=False)
        name_idx = self.pos
        self._expect_ident("parameter name")
        name_leaf = self._leaf("NameExpr", name_idx)
        return AstNode("Parameter", children=[type_leaf, name_leaf])

    def _type(self, allow_void: bool) -> tuple[str, AstNode]:
        start = self.pos
        tok = self.cur()
        if tok.kind == "keyword" and tok.text in PRIMITIVE_TYPES:
            base = self.advance().text
            primitive = True
        elif tok.kind == "keyword" and tok.text == "void":
            if not allow_void:
                raise self.error("'void' is only valid as a return type")
            self.advance()
            return "void", AstNode("PrimitiveType", token="void", token_index=start)
        elif tok.kind == "ident":
            base = self._qualified_name()
            primitive = False
        else:
            raise self.error(f"expected a type, found {self._describe()}")
        if self.at("<"):
            raise self.error("generic types are not supported")
        dims = 0
        while self.at("["):
            self.advance()
            self.expect("]")
            dims += 1
        text = base + "[]" * dims
        kind = "ArrayType" if dims else ("PrimitiveType" if primitive else "ClassOrInterfaceType")
        return text, AstNode(kind, token=text, token_index=start)

    # -- statements ------------------------------------------------------

    def _block(self) -> AstNode:
        self.expect("{")
        stmts: list[AstNode] = []
        while not self.at("}"):
            if self.at_kind("eof"):
                raise self.error("unterminated block")
            stmt = self._statement()
            if stmt is not None:
                stmts.append(stmt)
        self.expect("}")
        node = AstNode("BlockStmt", children=stmts)
        if not stmts:
            node.token = "{}"
        return node

    def _statement(self) -> AstNode | None:
        """Parse one statement; empty statements (bare ';') yield None."""
        if self.accept(";"):
            return None
        word = self.texts[self.pos]
        if word == "{":
            return self._nested(self._block)
        if self._at_local_decl():
            return self._local_decl_stmt()
        if self.cur().kind == "keyword":
            if word == "if":
                return self._if_stmt()
            if word == "while":
                return self._while_stmt()
            if word == "for":
                return self._for_stmt()
            if word == "return":
                return self._return_stmt()
            if word in _UNSUPPORTED_STMT:
                raise self.error(f"'{word}' statements are not supported")
            if word == "class":
                raise self.error("local classes are not supported")
            if word in ("this", "true", "false", "null", "new"):
                return self._expression_stmt()
            raise self.error(f"unsupported statement starting with '{word}'")
        if word == "@":
            raise self.error("annotations are not supported")
        return self._expression_stmt()

    def _required_statement(self, context: str) -> AstNode:
        stmt = self._nested(self._statement)
        if stmt is None:
            raise self.error(f"empty statement not allowed as {context}")
        return stmt

    def _at_local_decl(self) -> bool:
        """Whether a local variable declaration starts here: a primitive
        type or 'final', or a type name (qualified or not, with array
        brackets) followed by the variable name. The subset refuses a type
        name with type arguments, as in `java.util.List<List<T>> xs`, so it
        also refuses `a < b > c`, which is written the same way."""
        toks = self.tokens
        i = self.pos
        if toks[i].kind == "keyword":
            return toks[i].text in PRIMITIVE_TYPES or toks[i].text == "final"
        if toks[i].kind != "ident":
            return False
        i += 1
        while toks[i].text == "." and toks[i + 1].kind == "ident":
            i += 2
        generic = toks[i].text == "<"
        if generic:
            i = self._type_arguments_end(i)
            if i is None:
                return False
        while toks[i].text == "[" and toks[i + 1].text == "]":
            i += 2
        if generic and toks[i].kind == "ident":
            raise self.error("generic types are not supported")
        return toks[i].kind == "ident"

    def _type_arguments_end(self, i: int) -> int | None:
        """The index after the type argument list that opens at tokens[i]
        ('<'), or None if the tokens from there cannot be one. A '>>' or
        '>>>' closes two or three lists at once."""
        toks = self.tokens
        depth = 0
        while True:
            text = toks[i].text
            if text == "<":
                depth += 1
            elif text in (">", ">>", ">>>"):
                depth -= len(text)
                if depth <= 0:
                    return i + 1 if depth == 0 else None
            elif text not in (",", ".", "[", "]") and toks[i].kind not in ("ident", "keyword"):
                return None
            i += 1

    def _local_decl_stmt(self) -> AstNode:
        decl = self._var_decl_expr()
        self.expect(";")
        return AstNode("ExpressionStmt", children=[decl])

    def _var_decl_expr(self) -> AstNode:
        mods = self._modifiers()
        _, type_leaf = self._type(allow_void=False)
        declarators = []
        while True:
            name_idx = self.pos
            self._expect_ident("variable name")
            declarators.append(self._declarator_rest(name_idx))
            if not self.accept(","):
                break
        return AstNode(
            "VariableDeclarationExpr",
            children=[type_leaf, *declarators],
            meta={"modifiers": mods} if mods else None,
        )

    def _if_stmt(self) -> AstNode:
        self.expect("if")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        then = self._required_statement("an if branch")
        children = [cond, then]
        if self.accept("else"):
            children.append(self._required_statement("an else branch"))
        return AstNode("IfStmt", children=children)

    def _while_stmt(self) -> AstNode:
        self.expect("while")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        body = self._required_statement("a loop body")
        return AstNode("WhileStmt", children=[cond, body])

    def _for_stmt(self) -> AstNode:
        self.expect("for")
        self.expect("(")
        init: list[AstNode] = []
        if not self.at(";"):
            if self._at_local_decl():
                init.append(self._var_decl_expr())
            else:
                init.append(self._expression())
                while self.accept(","):
                    init.append(self._expression())
        self.expect(";")
        cond = None
        if not self.at(";"):
            cond = self._expression()
        self.expect(";")
        update: list[AstNode] = []
        if not self.at(")"):
            update.append(self._expression())
            while self.accept(","):
                update.append(self._expression())
        self.expect(")")
        body = self._required_statement("a loop body")
        children = [*init, *([cond] if cond is not None else []), *update, body]
        return AstNode(
            "ForStmt",
            children=children,
            meta={"n_init": len(init), "has_cond": cond is not None, "n_update": len(update)},
        )

    def _return_stmt(self) -> AstNode:
        self.expect("return")
        children: list[AstNode] = []
        if not self.at(";"):
            children.append(self._expression())
        self.expect(";")
        node = AstNode("ReturnStmt", children=children)
        if not children:
            node.token = "return"
        return node

    def _expression_stmt(self) -> AstNode:
        expr = self._expression()
        self.expect(";", "';' after expression")
        return AstNode("ExpressionStmt", children=[expr])

    # -- expressions -----------------------------------------------------

    def _expression(self) -> AstNode:
        left = self._ternary()
        if self.texts[self.pos] in _ASSIGN_OPS:
            op = self.advance().text
            right = self._nested(self._expression)
            return AstNode("AssignExpr", children=[left, right], meta={"op": op})
        return left

    def _ternary(self) -> AstNode:
        cond = self._binary(0)
        if not self.accept("?"):
            return cond
        then = self._nested(self._expression)
        self.expect(":")
        other = self._nested(self._ternary)
        return AstNode("ConditionalExpr", children=[cond, then, other])

    def _binary(self, min_prec: int) -> AstNode:
        left = self._unary()
        while True:
            op = self.texts[self.pos]
            prec = BINARY_PRECEDENCE.get(op, -1)
            if prec < min_prec:  # min_prec >= 0, so also when op is no operator
                return left
            self.pos += 1
            right = self._nested(self._binary, prec + 1)
            left = AstNode("BinaryExpr", children=[left, right], meta={"op": op})

    def _unary(self) -> AstNode:
        if self.texts[self.pos] in _PREFIX:
            op = self.advance().text
            operand = self._nested(self._unary)
            return AstNode("UnaryExpr", children=[operand], meta={"op": op, "postfix": False})
        return self._postfix()

    def _postfix(self) -> AstNode:
        node = self._primary()
        while True:
            text = self.texts[self.pos]
            if text not in _POSTFIX:
                return node
            if text == ".":
                if self.peek().kind != "ident":
                    raise self.error("expected member name after '.'")
                self.advance()
                name_leaf = self._leaf("NameExpr", self.pos)
                self.advance()
                if self.at("("):
                    args = self._arguments()
                    node = AstNode(
                        "MethodCallExpr",
                        children=[node, name_leaf, *args],
                        meta={"has_scope": True},
                    )
                else:
                    node = AstNode("FieldAccessExpr", children=[node, name_leaf])
            elif text == "[":
                raise self.error("array access expressions are not supported")
            elif text == "->":
                raise self.error("lambda expressions are not supported")
            else:
                self.advance()
                node = AstNode("UnaryExpr", children=[node], meta={"op": text, "postfix": True})

    def _arguments(self) -> list[AstNode]:
        self.expect("(")
        args: list[AstNode] = []
        if not self.at(")"):
            while True:
                args.append(self._nested(self._expression))
                if not self.accept(","):
                    break
        self.expect(")")
        return args

    def _primary(self) -> AstNode:
        pos = self.pos
        tok = self.tokens[pos]
        kind = tok.kind
        if kind == "ident":
            self.pos = pos + 1
            name_leaf = AstNode("NameExpr", token=tok.text, token_index=pos)
            following = self.texts[pos + 1]
            if following == "(":
                args = self._arguments()
                return AstNode(
                    "MethodCallExpr", children=[name_leaf, *args], meta={"has_scope": False}
                )
            if following == "->":
                raise self.error("lambda expressions are not supported")
            return name_leaf
        if kind == "keyword":
            if tok.text == "new":
                raise self.error("object creation expressions are not supported")
            leaf_kind = _KEYWORD_LITERALS.get(tok.text)
            if leaf_kind is None:
                raise self.error(f"unexpected keyword '{tok.text}' in expression")
        else:
            leaf_kind = _LITERAL_KINDS.get(kind)
        if leaf_kind is not None:
            self.pos = pos + 1
            return AstNode(leaf_kind, token=tok.text, token_index=pos)
        if tok.text == "(":
            if self.texts[pos + 1] == ")":
                raise self.error("lambda expressions are not supported")
            self.pos = pos + 1
            expr = self._nested(self._expression)
            self.expect(")")
            return expr
        raise self.error(f"unexpected token {self._describe()} in expression")
