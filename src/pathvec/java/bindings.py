"""Scope resolution: attribute every identifier leaf to its declaration.

Scope rules of the subset: fields live at class scope, parameters at
method scope, locals from their declaration point to the end of the
enclosing block (for-init declarations cover the whole loop). ``this.x``
always refers to a field; a use of an undeclared field yields an implicit
binding typed with the unk sentinel. Bare names that resolve to nothing
(callee names, class references) stay unbound.
"""

from __future__ import annotations

from .ast import UNK_TYPE, AstNode, ClassDecl, MethodDecl, SourceUnit, VariableBinding

# Steps the iterative walker runs after a node's children (see visit).
_CLOSE_SCOPE, _DECLARE_LOCAL, _UNBOUND, _FIELD_NAME = range(4)


def resolve_bindings(unit: SourceUnit) -> list[VariableBinding]:
    """(Re)compute all variable bindings for a parsed unit.

    Populates unit.bindings and unit.unbound, and returns the binding
    list in file declaration order.
    """
    resolver = _Resolver()
    for cls in unit.classes:
        resolver.resolve_class(cls)
    unit.bindings = resolver.bindings
    unit.unbound = resolver.unbound
    return resolver.bindings


class _Resolver:
    def __init__(self) -> None:
        self.bindings: list[VariableBinding] = []
        self.unbound: list[AstNode] = []
        self.fields: dict[str, VariableBinding] = {}
        self.scopes: list[dict[str, VariableBinding]] = []

    def _new_binding(self, name: str, scope: str, declared_type: str) -> VariableBinding:
        binding = VariableBinding(
            name=name,
            scope=scope,
            declared_type=declared_type or UNK_TYPE,
            decl_index=len(self.bindings),
        )
        self.bindings.append(binding)
        return binding

    def _lookup(self, name: str) -> VariableBinding | None:
        for env in reversed(self.scopes):
            if name in env:
                return env[name]
        return self.fields.get(name)

    def resolve_class(self, cls: ClassDecl) -> None:
        self.fields = {}
        # Fields first: they are visible throughout the class body.
        for member in cls.node.children:
            if member.kind != "FieldDeclaration":
                continue
            type_text = member.children[0].token or UNK_TYPE
            for declarator in member.children[1:]:
                name_leaf = declarator.children[0]
                binding = self._new_binding(name_leaf.token or "", "field", type_text)
                binding.occurrences.append(name_leaf)
                self.fields[binding.name] = binding
        # Field initializers may reference other fields.
        for member in cls.node.children:
            if member.kind != "FieldDeclaration":
                continue
            for declarator in member.children[1:]:
                if len(declarator.children) > 1:
                    self.visit(declarator.children[1])
        for method in cls.methods:
            self.resolve_method(method)

    def resolve_method(self, method: MethodDecl) -> None:
        params: dict[str, VariableBinding] = {}
        for param_node in method.node.children[1:-1]:
            type_leaf, name_leaf = param_node.children
            binding = self._new_binding(name_leaf.token or "", "param", type_leaf.token or "")
            binding.occurrences.append(name_leaf)
            params[binding.name] = binding
        self.scopes = [params]
        self.visit(method.body)
        self.scopes = []

    # -- walker ----------------------------------------------------------

    def visit(self, root: AstNode) -> None:
        """Bind or record every name leaf under root, in source order.

        Iterative, so a deep tree (a 1200-term `a + a + ...` is 1200
        levels deep) cannot exhaust the interpreter's stack. The stack
        holds nodes still to visit and, as tuples, the steps that must
        run after a node's children: closing a scope, declaring a local
        after its initializer, recording a callee name after the call's
        scope and a field name after its qualifier.
        """
        stack: list = [root]
        while stack:
            node = stack.pop()
            if node.__class__ is tuple:
                self._finish(*node)
                continue
            kind = node.kind
            children = node.children
            if kind == "NameExpr":
                binding = self._lookup(node.token or "")
                if binding is not None:
                    binding.occurrences.append(node)
                else:
                    self.unbound.append(node)
            elif kind == "BlockStmt" or kind == "ForStmt":
                self.scopes.append({})
                stack.append((_CLOSE_SCOPE, None, None))
                stack.extend(reversed(children))
            elif kind == "VariableDeclarationExpr":
                type_text = children[0].token or UNK_TYPE
                for declarator in reversed(children[1:]):
                    stack.append((_DECLARE_LOCAL, declarator.children[0], type_text))
                    if len(declarator.children) > 1:
                        stack.append(declarator.children[1])  # init sees the outer name
            elif kind == "MethodCallExpr":
                if (node.meta or {}).get("has_scope"):
                    stack.extend(reversed(children[2:]))
                    stack.append((_UNBOUND, children[1], None))  # callee name, never a variable
                    stack.append(children[0])
                else:
                    self.unbound.append(children[0])
                    stack.extend(reversed(children[1:]))
            elif kind == "FieldAccessExpr":
                scope, name_leaf = children
                stack.append((_FIELD_NAME, name_leaf, scope.kind == "ThisExpr"))
                stack.append(scope)
            else:
                stack.extend(reversed(children))

    def _finish(self, step: int, leaf: AstNode | None, extra) -> None:
        if step == _CLOSE_SCOPE:
            self.scopes.pop()
        elif step == _DECLARE_LOCAL:
            binding = self._new_binding(leaf.token or "", "local", extra)
            binding.occurrences.append(leaf)
            self.scopes[-1][binding.name] = binding
        elif step == _UNBOUND or not extra:  # or the name in other.name
            self.unbound.append(leaf)
        else:  # the name in this.name: always a field
            name = leaf.token or ""
            binding = self.fields.get(name)
            if binding is None:
                binding = self._new_binding(name, "field", UNK_TYPE)
                self.fields[name] = binding
            binding.occurrences.append(leaf)
