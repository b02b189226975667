"""Independent brute-force oracles the implementation is checked against."""

from __future__ import annotations

import csv
import io
import re
from collections import Counter

import numpy as np

from pathvec.java.ast import UNK_TYPE, AstNode
from pathvec.java.bindings import _Resolver
from pathvec.java.lexer import BINARY_PRECEDENCE, KEYWORDS, PUNCTUATION, ParseError, Token
from pathvec.model import (
    EpochStats,
    ModelParams,
    TrainResult,
    _validate,
    init_params,
    loss_and_grads,
)
from pathvec.pathctx import (
    PAD_TOKEN,
    UNK_TOKEN,
    _build_contexts,
    _context_pairs,
    vocabulary_from_counts,
)

UP = "↑"
DOWN = "↓"


def walk(node):
    """Every node of a tree in pre-order, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def leaves(node):
    """The leaves of a tree in source order."""
    return (n for n in walk(node) if not n.children)


def unit_methods(unit):
    """Every MethodDecl of a parsed unit, class by class in source order."""
    for cls in unit.classes:
        yield from cls.methods


class RecursiveResolver(_Resolver):
    """The scope resolver with the recursive walker that the iterative
    `_Resolver.visit` replaced: the reference for its visit order. It also
    lists, in visit order, the name leaves it binds to no variable."""

    def __init__(self) -> None:
        super().__init__()
        self.unbound: list[AstNode] = []

    def visit(self, node: AstNode) -> None:
        kind = node.kind
        if kind == "NameExpr":
            binding = self._lookup(node.token or "")
            if binding is not None:
                binding.occurrences.append(node)
            else:
                self.unbound.append(node)
            return
        if kind == "BlockStmt" or kind == "ForStmt":
            self.scopes.append({})
            for child in node.children:
                self.visit(child)
            self.scopes.pop()
            return
        if kind == "VariableDeclarationExpr":
            type_text = node.children[0].token or UNK_TYPE
            for declarator in node.children[1:]:
                name_leaf = declarator.children[0]
                if len(declarator.children) > 1:
                    self.visit(declarator.children[1])  # init sees the outer name
                binding = self._new_binding(name_leaf.token or "", "local", type_text)
                binding.occurrences.append(name_leaf)
                self.scopes[-1][binding.name] = binding
            return
        if kind == "MethodCallExpr":
            children = node.children
            if (node.meta or {}).get("has_scope"):
                self.visit(children[0])
                self.unbound.append(children[1])  # callee name, never a variable
                rest = children[2:]
            else:
                self.unbound.append(children[0])
                rest = children[1:]
            for arg in rest:
                self.visit(arg)
            return
        if kind == "FieldAccessExpr":
            scope, name_leaf = node.children
            self.visit(scope)
            if scope.kind == "ThisExpr":
                name = name_leaf.token or ""
                binding = self.fields.get(name)
                if binding is None:
                    binding = self._new_binding(name, "field", UNK_TYPE)
                    self.fields[name] = binding
                binding.occurrences.append(name_leaf)
            else:
                self.unbound.append(name_leaf)
            return
        for child in node.children:
            self.visit(child)


def resolve_bindings_reference(unit):
    """(bindings, unbound) of a parsed unit by the recursive resolver. It
    leaves unit.bindings as they are."""
    resolver = RecursiveResolver()
    for cls in unit.classes:
        resolver.resolve_class(cls)
    return resolver.bindings, resolver.unbound


def dump_token(token):
    """A leaf token as the dump writes it: commas and whitespace become '_'."""
    return "".join("_" if ch == "," or ch.isspace() else ch for ch in token) or "_"


def root_to_leaf_paths(node, prefix=()):
    """Every root-to-leaf node chain of a tree, left to right."""
    chain = prefix + (node,)
    if not node.children:
        yield chain
        return
    for child in node.children:
        yield from root_to_leaf_paths(child, chain)


def brute_force_contexts(body, max_len=None, max_width=None):
    """Enumerate leaf-pair path triplets via root-to-leaf chain prefixes.

    Deliberately a different algorithm from the production extractor:
    computes the lowest common ancestor as the longest common chain prefix.
    Triplets come in source order of (earlier leaf, later leaf).
    """
    chains = list(root_to_leaf_paths(body))
    triplets = []
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            a, b = chains[i], chains[j]
            k = 0
            while k < len(a) and k < len(b) and a[k] is b[k]:
                k += 1
            lca = a[k - 1]
            up_nodes = list(reversed(a[k:]))  # leaf .. child-of-lca
            down_nodes = list(b[k:])  # child-of-lca .. leaf
            length = len(up_nodes) + len(down_nodes)
            if max_len is not None and length > max_len:
                continue
            # by identity: equal-looking siblings (two `a` leaves) are distinct
            pos = {id(child): p for p, child in enumerate(lca.children)}
            width = abs(pos[id(a[k])] - pos[id(b[k])])
            if max_width is not None and width > max_width:
                continue
            path = up_nodes[0].kind
            for node in up_nodes[1:] + [lca]:
                path += UP + node.kind
            for node in down_nodes:
                path += DOWN + node.kind
            triplets.append((dump_token(a[-1].token), path, dump_token(b[-1].token)))
    return triplets


def scalar_aggregate(vectors, functions):
    """Column-by-column scalar recomputation of an aggregation output."""
    out = []
    for fn in functions:
        for col in range(len(vectors[0])):
            column = [float(v[col]) for v in vectors]
            if fn == "min":
                out.append(min(column))
            elif fn == "max":
                out.append(max(column))
            elif fn == "sum":
                out.append(float(np.sum(column)))
            elif fn == "mean":
                out.append(float(np.sum(column)) / len(column))
            elif fn == "median":
                ordered = sorted(column)
                n = len(ordered)
                mid = n // 2
                out.append(
                    ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
                )
            elif fn == "stddev":
                mean = float(np.sum(column)) / len(column)
                out.append(
                    float(np.sqrt(sum((x - mean) ** 2 for x in column) / len(column)))
                )
            else:
                raise ValueError(fn)
    return np.array(out)


# --- the linear classifier ---------------------------------------------------


def squared_hinge_objective(X, ybin, c, w):
    """(objective, gradient) of 0.5 |w|^2 + (C/n) sum max(0, 1 - y w.x)^2."""
    n = X.shape[0]
    viol = np.maximum(0.0, 1.0 - ybin * (X @ w))
    return 0.5 * float(w @ w) + (c / n) * float(viol @ viol), w - (2.0 * c / n) * (X.T @ (ybin * viol))


def fit_squared_hinge_lbfgs(X, ybin, config, gram=None):
    """The L-BFGS-B fit that evaluate ran before its finite Newton solver:
    (w, iterations, whether it stopped at its iteration or evaluation
    limit). It takes and ignores `gram`, so it can stand in for
    evaluate._fit_squared_hinge."""
    from scipy.optimize import minimize

    res = minimize(
        lambda w: squared_hinge_objective(X, ybin, config.c, w),
        np.zeros(X.shape[1]),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": config.max_iterations, "ftol": config.tol * 1e-6, "gtol": 1e-9},
    )
    return res.x, int(res.nit), res.status == 1


def numeric_gradients(params, batch, loss_fn, h=1e-6):
    """Central finite differences of loss_fn over every entry of params."""
    grads = {}
    for key, arr in params.as_dict().items():
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_fn(params, batch)
            arr[idx] = orig - h
            down = loss_fn(params, batch)
            arr[idx] = orig
            num[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads[key] = num
    return grads


def extract_contexts(method, max_len=8, max_width=2):
    """Every path-context of a method body within both limits, uncapped,
    by (earlier leaf, later leaf) in source order."""
    return _build_contexts(_context_pairs(method, max_len, max_width))


# --- vocabularies ---------------------------------------------------------


def build_vocabulary(samples, min_count=1):
    """The vocabulary of in-memory samples, counted string by string, as
    train built it before it read dumps straight into ids."""
    if not samples:
        raise ValueError("cannot build a vocabulary from zero samples")
    token_counts, path_counts, target_counts = Counter(), Counter(), Counter()
    for sample in samples:
        target_counts[sample.target_name] += 1
        for ctx in sample.contexts:
            token_counts[ctx.start_token] += 1
            token_counts[ctx.end_token] += 1
            path_counts[ctx.path] += 1
    return vocabulary_from_counts(token_counts, path_counts, target_counts, min_count)


def count_distinct(samples):
    """Distinct tokens, paths and targets of the samples, leaving out the
    reserved <unk> and <pad>: the entries build_vocabulary(samples, 1)
    would add after them."""
    reserved = {UNK_TOKEN, PAD_TOKEN}
    tokens = {ctx.start_token for sample in samples for ctx in sample.contexts}
    tokens.update(ctx.end_token for sample in samples for ctx in sample.contexts)
    paths = {ctx.path for sample in samples for ctx in sample.contexts}
    targets = {sample.target_name for sample in samples}
    return len(tokens - reserved), len(paths - reserved), len(targets - reserved)


def csv_module_embedding_bytes(rows):
    """A per-method embedding CSV written row by row through csv.writer:
    header sourcePath,methodName,v0..v{d-1}, then the path, the name and
    repr(float) of every value."""
    table = [[path, name, *[repr(float(x)) for x in vec]] for path, name, vec in rows]
    if rows:
        table.insert(0, ["sourcePath", "methodName", *[f"v{i}" for i in range(len(rows[0][2]))]])
    return _csv_module_bytes(table)


def csv_module_dataset_bytes(dataset):
    """A dataset written row by row through csv.writer: header
    f0..f{w-1},label, repr(float) of every value, then the label."""
    table = [[f"f{i}" for i in range(dataset.X.shape[1])] + ["label"]]
    for values, label in zip(dataset.X, dataset.y):
        table.append([repr(float(x)) for x in values] + [label])
    return _csv_module_bytes(table)


def _csv_module_bytes(rows):
    """Rows as csv.writer writes them with the RFC-4180 CRLF terminator,
    which quotes every field holding a CR or LF, each row then ended by LF."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def startswith_punct(text, i):
    """The punctuation token at text[i], found by trying every PUNCTUATION
    string with str.startswith in table order (longest first), or None."""
    for punct in PUNCTUATION:
        if text.startswith(punct, i):
            return punct
    return None


def startswith_tokens(text):
    """(kind, text, line, start, end) of every token of a text made of
    spaces, newlines, comments, identifiers, decimal integers and
    punctuation, ending with the eof token. Punctuation is found with
    startswith_punct. Raises ValueError on an unterminated block comment
    or a character outside that alphabet."""
    out = []
    i, line, n = 0, 1, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            continue
        if ch == " ":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if text.startswith("/*", i):
            close = text.find("*/", i + 2)
            if close < 0:
                raise ValueError("unterminated block comment")
            line += text.count("\n", i, close)
            i = close + 2
            continue
        j = i + 1
        if ch.isascii() and (ch.isalpha() or ch in "_$"):
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            kind = "keyword" if text[i:j] in KEYWORDS else "ident"
        elif ch in "0123456789":
            while j < n and text[j] in "0123456789":
                j += 1
            kind = "int"
        else:
            punct = startswith_punct(text, i)
            if punct is None:
                raise ValueError(f"unexpected character {ch!r}")
            j = i + len(punct)
            kind = "punct"
        out.append((kind, text[i:j], line, i, j))
        i = j
    out.append(("eof", "", line, n, n))
    return out


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
_LINE_END_RE = re.compile(r"\r\n?|\n")


def hand_tokenize(text):
    """lexer.tokenize as a character loop: blanks, line ends, comments and
    literals scanned by hand, the other kinds matched one regex each. The
    loop the one token pattern replaced. It raises the same ParseErrors,
    except that a "." before a character str.isdigit accepts and \\d
    rejects (such as "²") is part of the malformed-number snippet here."""
    tokens = []
    i = 0
    line = 1
    n = len(text)

    def err(msg):
        return ParseError(line, msg)

    while i < n:
        ch = text[i]
        if ch == "\n" or ch == "\r":
            line += 1
            i += 2 if text.startswith("\r\n", i) else 1
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
            line += len(_LINE_END_RE.findall(text, i, j))
            i = j + 2
            continue

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
            tokens.append(Token(kind, text[i : j + 1], line, i, j + 1))
            i = j + 1
            continue

        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group()
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, i, m.end()))
            i = m.end()
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _HEX_RE.match(text, i) or _FLOAT_RE.match(text, i) or _INT_RE.match(text, i)
            if not m:
                raise err(f"malformed number near {text[i:i+8]!r}")
            kind = "float" if _FLOAT_RE.fullmatch(m.group()) else "int"
            tokens.append(Token(kind, m.group(), line, i, m.end()))
            i = m.end()
            continue

        m = _PUNCT_RE.match(text, i)
        if not m:
            raise err(f"unexpected character {ch!r}")
        tokens.append(Token("punct", m.group(), line, i, m.end()))
        i = m.end()

    tokens.append(Token("eof", "", line, n, n))
    return tokens


def _softmax(x):
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / e.sum()


def forward_reference(params, sample):
    """(code vector, attention, target probabilities) of one sample computed
    alone: the single-sample forward pass that model.forward's stacked runs
    replaced."""
    if len(sample) == 0:
        raise ValueError("sample has no contexts")
    E = np.concatenate(
        [
            params.token_emb[sample.starts],
            params.path_emb[sample.paths],
            params.token_emb[sample.ends],
        ],
        axis=1,
    )
    H = np.tanh(E @ params.transform.T)
    alpha = _softmax(H @ params.attention)
    v = alpha @ H
    return v, alpha, _softmax(params.target_emb @ v)


def loss_and_grads_reference(params, batch, dropout_rate=0.0, rng=None):
    """Mean cross-entropy over the batch plus exact gradients, one sample at
    a time: the per-sample loop the stacked model.loss_and_grads replaced.
    Dropout draws one mask per sample, in batch order."""
    if not batch:
        raise ValueError("empty batch")
    d = params.token_emb.shape[1]
    grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    total_loss = 0.0
    scale = 1.0 / len(batch)

    for sample in batch:
        if len(sample) == 0:
            raise ValueError("sample has no contexts")
        E = np.concatenate(
            [
                params.token_emb[sample.starts],
                params.path_emb[sample.paths],
                params.token_emb[sample.ends],
            ],
            axis=1,
        )
        H_raw = np.tanh(E @ params.transform.T)
        if dropout_rate > 0.0:
            if rng is None:
                raise ValueError("dropout requires an rng")
            mask = (rng.random(H_raw.shape) >= dropout_rate) / (1.0 - dropout_rate)
            H = H_raw * mask
        else:
            mask = None
            H = H_raw

        e = H @ params.attention
        alpha = _softmax(e)
        v = alpha @ H
        scores = params.target_emb @ v
        shifted = scores - np.max(scores)
        logsumexp = float(np.log(np.sum(np.exp(shifted))) + np.max(scores))
        total_loss += (logsumexp - float(scores[sample.target_id])) * scale

        probs = np.exp(shifted) / np.sum(np.exp(shifted))
        ds = probs.copy()
        ds[sample.target_id] -= 1.0
        ds *= scale

        grads["target_emb"] += np.outer(ds, v)
        g = params.target_emb.T @ ds  # dL/dv

        q = H @ g
        de = alpha * (q - float(alpha @ q))
        dH = alpha[:, None] * g[None, :] + de[:, None] * params.attention[None, :]
        grads["attention"] += H.T @ de
        if mask is not None:
            dH = dH * mask
        dU = dH * (1.0 - H_raw * H_raw)
        grads["transform"] += dU.T @ E
        dE = dU @ params.transform
        np.add.at(grads["token_emb"], sample.starts, dE[:, :d])
        np.add.at(grads["path_emb"], sample.paths, dE[:, d : 2 * d])
        np.add.at(grads["token_emb"], sample.ends, dE[:, 2 * d :])

    return total_loss, grads


class ZeroVector(Exception):
    """Cosine similarity is undefined for the zero vector."""


def vector_similarity(u, v):
    """(cosine similarity, Euclidean distance) between two equal-length
    vectors. The cosine is u.v / sqrt((u.u)(v.v)) on the vectors scaled to a
    largest entry of 1, which is exactly 1.0 for u == v: sqrt(x * x) == x in
    floating point, while |u| * |u| need not round back to u.u."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ValueError("vectors must have equal lengths")
    su, sv = np.max(np.abs(u)), np.max(np.abs(v))
    if su == 0.0 or sv == 0.0:
        raise ZeroVector("cosine similarity is undefined for a zero vector")
    a, b = u / su, v / sv  # scale-free cosine; keeps a.a in [1, n]
    cosine = float(a @ b) / float(np.sqrt((a @ a) * (b @ b)))
    euclidean = float(np.linalg.norm(u - v))
    return cosine, euclidean


def adam_update_reference(p, g, m, v, step, lr, b1, b2, eps=1e-8):
    """One Adam step written with fresh arrays, as train did before its update
    ran in place. Returns the new (p, m, v)."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1**step)
    v_hat = v / (1 - b2**step)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def train_allocating(config, indexed, vocab):
    """model.train with fresh arrays everywhere: gradients and work arrays
    per step, each Adam step a new array, a new copy of the best params at
    each better epoch and validation with its own work arrays. Every array
    takes the dtype of init_params' float32 params."""
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(indexed))
    n_val = 0
    if config.val_fraction > 0:
        n_val = min(len(indexed) - 1, max(1, round(len(indexed) * config.val_fraction)))
    val = [indexed[i] for i in order[:n_val]]
    tr = [indexed[i] for i in order[n_val:]]
    if not val:
        val = tr
    params = init_params(config, vocab)
    moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.as_dict().items()}
    best_params, best_f1, best_epoch, stale, history, step = params.copy(), -1.0, 0, 0, [], 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(tr))
        losses = []
        for lo in range(0, len(tr), config.batch_size):
            batch = [tr[i] for i in perm[lo : lo + config.batch_size]]
            loss, grads = loss_and_grads(params, batch, config.dropout_rate, rng)
            losses.append(loss)
            step += 1
            updated = {}
            for key, p in params.as_dict().items():
                m, v = moments[key]
                updated[key], m, v = adam_update_reference(
                    p, grads[key], m, v, step, config.learning_rate,
                    config.adam_beta1, config.adam_beta2,
                )
                moments[key] = (m, v)
            params = ModelParams(**updated)
        val_loss, val_top1, val_f1 = _validate(params, val, vocab)
        history.append(EpochStats(epoch, float(np.mean(losses)), val_loss, val_top1, val_f1))
        if val_f1 > best_f1:
            best_params, best_f1, best_epoch, stale = params.copy(), val_f1, epoch, 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return TrainResult(params=best_params, history=history, best_epoch=best_epoch)


# --- AST comparison, for parser and obfuscator tests ------------------------


def structurally_equal(a: AstNode, b: AstNode) -> bool:
    """Same kinds, tokens, operators and shape, node by node."""
    if a.kind != b.kind or a.token != b.token or len(a.children) != len(b.children):
        return False
    if (a.meta or {}).get("op") != (b.meta or {}).get("op"):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


def isomorphic_up_to_leaf_tokens(a: AstNode, b: AstNode) -> bool:
    """Same kinds and shape, node by node; tokens may differ."""
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

TYPE_KINDS = frozenset({"PrimitiveType", "ClassOrInterfaceType", "ArrayType"})

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
        return BINARY_PRECEDENCE[node.meta["op"]]
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
        out.append(meta["op"])
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
        prec = BINARY_PRECEDENCE[meta["op"]]
        _emit_expr(node.children[0], out, prec)
        out.append(meta["op"])
        _emit_expr(node.children[1], out, prec + 1)
        return
    if kind == "UnaryExpr":
        if meta.get("postfix"):
            _emit_expr(node.children[0], out, _PREC_POSTFIX)
            out.append(meta["op"])
        else:
            out.append(meta["op"])
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
