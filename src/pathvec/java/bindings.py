"""Scope resolution: attribute every variable's name leaves to its declaration.

Scope rules of the subset: fields live at class scope, parameters at
method scope, locals from their declaration point to the end of the
enclosing block (for-init declarations cover the whole loop). ``this.x``
always refers to a field; a use of an undeclared field yields an implicit
binding typed with the unk sentinel. Names that resolve to nothing
(callee names, the name in `other.name`, class references) belong to no
binding.
"""

from __future__ import annotations

from .ast import UNK_TYPE, AstNode, ClassDecl, MethodDecl, SourceUnit, VariableBinding

# Pushed on the walker's stack to close the scope it opened (see visit).
_CLOSE_SCOPE = object()


def resolve_bindings(unit: SourceUnit) -> list[VariableBinding]:
    """(Re)compute all variable bindings for a parsed unit.

    Sets unit.bindings to the bindings in file declaration order, and
    returns them.
    """
    resolver = _Resolver()
    for cls in unit.classes:
        resolver.resolve_class(cls)
    unit.bindings = resolver.bindings
    return resolver.bindings


class _Resolver:
    def __init__(self) -> None:
        self.bindings: list[VariableBinding] = []
        self.fields: dict[str, VariableBinding] = {}
        self.scopes: list[dict[str, VariableBinding]] = []

    def _new_binding(self, name: str, scope: str, declared_type: str) -> VariableBinding:
        binding = VariableBinding(name, scope, declared_type or UNK_TYPE)
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
        """Bind every name leaf under root that names a variable, in
        source order.

        Iterative, so a deep tree (a 1200-term `a + a + ...` is 1200
        levels deep) cannot exhaust the interpreter's stack. The stack
        holds nodes still to visit, the marks that close a scope, and as
        (name leaf, declared type) pairs the locals to declare after their
        initializers.
        """
        stack: list = [root]
        while stack:
            node = stack.pop()
            if node is _CLOSE_SCOPE:
                self.scopes.pop()
                continue
            if node.__class__ is tuple:  # a local, declared after its initializer
                leaf, type_text = node
                binding = self._new_binding(leaf.token or "", "local", type_text)
                binding.occurrences.append(leaf)
                self.scopes[-1][binding.name] = binding
                continue
            kind = node.kind
            children = node.children
            if kind == "NameExpr":
                binding = self._lookup(node.token or "")
                if binding is not None:
                    binding.occurrences.append(node)
            elif kind == "BlockStmt" or kind == "ForStmt":
                self.scopes.append({})
                stack.append(_CLOSE_SCOPE)
                stack.extend(reversed(children))
            elif kind == "VariableDeclarationExpr":
                type_text = children[0].token or UNK_TYPE
                for declarator in reversed(children[1:]):
                    stack.append((declarator.children[0], type_text))
                    if len(declarator.children) > 1:
                        stack.append(declarator.children[1])  # init sees the outer name
            elif kind == "MethodCallExpr":  # the callee name is never a variable
                if (node.meta or {}).get("has_scope"):
                    stack.extend(reversed(children[2:]))
                    stack.append(children[0])
                else:
                    stack.extend(reversed(children[1:]))
            elif kind == "FieldAccessExpr":
                scope, name_leaf = children
                if scope.kind != "ThisExpr":
                    stack.append(scope)  # the name in other.name is never a variable
                    continue
                name = name_leaf.token or ""  # the name in this.name is always a field
                binding = self.fields.get(name)
                if binding is None:
                    binding = self._new_binding(name, "field", UNK_TYPE)
                    self.fields[name] = binding
                binding.occurrences.append(name_leaf)
            else:
                stack.extend(reversed(children))
