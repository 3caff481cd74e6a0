"""Proof trees over one-sided sequents, their checker, and serialization.

Sequents are ordered tuples of formulas; rules carry explicit 1-based
positions instead of an exchange rule. The six rules:

    ax      |- ~A, A
    cut     |- G, A    |- D, ~A   =>  |- G, D
    par     |- G, A, B            =>  |- G, (A % B)
    tensor  |- G, A    |- D, B    =>  |- G, D, (A * B)
    q_n     |- A, B  with U on n qubits  =>  |- <>^n A, []^n B

A quantum rule requires its two premise formulas to be both modal or both
non-modal. Its conclusion always lists the diamond formula first; the
`flip` flag says which premise position the diamonds landed on (normally
the first). Flipped instances only arise from cut elimination. Each rule is
an immutable `Rule` class whose constructor tests the rule's side conditions
and builds its conclusion; `check` runs the same tests again.

File format:

    P ::= (ax F) | (cut i j P P) | (par i j P) | (tensor i j P P)
        | (q n GATE P) | (qflip n GATE P)
    GATE ::= I{n} | H | X | Y | Z | S | T | CNOT | SWAP | (mat ROW ...)

where ROW is a bracket list of [re,im] pairs, row-major. `parse_proof`
reads the tokens of one compiled scan (`tokens`, which gives each token its
offset) by index, in one pass on an explicit stack, and builds each rule with
its checking constructor as the rule's `)` closes, so a proof of any depth
that `print_proof` writes reads back. Each distinct gate spelling is read once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tokens as tk
from .errors import CheckFailure, PreconditionError, ProofError, ProofSyntaxError, QmllError
from .formulas import (Atom, Formula, Par, Tensor, is_modal, parse_formula_stream, print_formula,
                       wrap_modal)
from .matrices import UnitaryMatrix, check_qubits, gate_by_name, render_rows
from .trees import fold, post_order, refold, unfold

Sequent = tuple[Formula, ...]
Path = tuple[int, ...]
OccurrenceId = tuple[Path, int]  # (node path from root, 1-based position)


def print_sequent(s: Sequent) -> str:
    return ", ".join(print_formula(f) for f in s)


def path_str(p: Path) -> str:
    return ".".join(str(i) for i in p) if p else "root"


# ---------------------------------------------------------------------------
# parsing / printing


def _parse_gate(ts: tk.TokenStream) -> UnitaryMatrix:
    """A gate name or `(mat ROW ...)` literal; a stream reads each distinct spelling once."""
    t = ts.next()
    if t.kind == tk.IDENT:
        key = t.text
    elif t.kind == tk.LP:
        kw = ts.expect(tk.IDENT, ProofSyntaxError)
        if kw.text != "mat":
            raise ProofSyntaxError(f"expected 'mat', found {kw.text!r}", kw.pos)
        start = ts.idx
        while ts.peek().kind == tk.ROW:
            ts.idx += 1
        key = tuple(r.text for r in ts.toks[start:ts.idx])
        ts.expect(tk.RP, ProofSyntaxError)
    else:
        raise ProofSyntaxError(f"expected a gate, found {t.text!r}", t.pos)
    if key not in ts.memo:
        ts.memo[key] = _read_gate(key, t.pos)
    return ts.memo[key]


def _read_gate(key: str | tuple[str, ...], pos: int) -> UnitaryMatrix:
    """The gate that a name, or the rows of a literal at offset `pos`, spell."""
    try:
        if type(key) is str:
            return gate_by_name(key)
        if not key:
            raise ProofSyntaxError("empty matrix literal", pos)
        check_qubits((len(key) - 1).bit_length())
        return UnitaryMatrix(_literal_data(list(key), pos))
    except (PreconditionError, ProofSyntaxError):  # over the qubit cap, or refused above
        raise
    except QmllError as e:
        raise ProofSyntaxError(("" if type(key) is str else "bad matrix literal: ") + str(e),
                               pos) from e


_ROW_PUNCT = str.maketrans("[],", "   ")


def _literal_data(rows: list[str], pos: int) -> np.ndarray:
    """The matrix spelled by ROW token texts; entries are bit for bit `complex(re, im)`.

    The tokenizer has checked each row's shape, so a row holds one entry per `[`
    but its first, and its numbers are the words left when brackets and commas
    are read as spaces. Each distinct word is read by float() once.
    """
    widths = [row.count("[") - 1 for row in rows]
    for k, width in enumerate(widths[1:], start=2):
        if width != widths[0]:
            raise ProofSyntaxError(f"ragged matrix literal: row {k} has {width} "
                                   f"entries, row 1 has {widths[0]}", pos)
    words = " ".join(rows).translate(_ROW_PUNCT).split()
    value = {w: float(w) for w in set(words)}
    flat = np.fromiter(map(value.__getitem__, words), float, len(words))
    return flat.view(complex).reshape(len(rows), widths[0])


def _parse_position(ts: tk.TokenStream) -> int:
    t = ts.expect(tk.NUMBER, ProofSyntaxError)
    try:
        return int(t.text)
    except ValueError:
        raise ProofSyntaxError(f"expected an integer position, found {t.text!r}", t.pos)


def print_gate(g: UnitaryMatrix) -> str:
    if g.name is not None:
        return g.name
    return "(mat " + " ".join(render_rows(g.data)) + ")"


def parse_proof(text: str) -> Proof:
    """Parse and check a proof; raises on syntax errors or rule violations.

    One left-to-right pass over the tokens by index, on an explicit stack of
    open rules: a rule's head is read when its `(` opens, and its checking
    constructor builds it when its `)` closes. A rule that fails its check is
    recorded with its path, and no rule above it is built; the violations
    come out in post-order, after the whole text has parsed.
    """
    ts = tk.TokenStream(tk.tokenize(text))
    violations: list[tuple[str, str]] = []
    stack: list[tuple] = []  # open ancestors: (constructor, arguments read, count, head length)
    while True:
        ts.expect(tk.LP, ProofSyntaxError)
        kw = ts.expect(tk.IDENT, ProofSyntaxError)
        if kw.text not in _KEYWORDS:
            raise ProofSyntaxError(f"unknown rule {kw.text!r}", kw.pos)
        ctor, readers, count = _KEYWORDS[kw.text]
        rule = (ctor, [], count, len(readers))
        for read in readers:
            rule[1].append(read(ts))
        while len(rule[1]) == rule[2]:
            ts.expect(tk.RP, ProofSyntaxError)
            node = None
            if not violations or None not in rule[1]:  # a premise is None only after a violation
                try:
                    node = rule[0](*rule[1])
                except ProofError as e:
                    # each ancestor's premises read so far index the child below it
                    path = tuple(len(r[1]) - r[3] for r in stack)
                    violations.append((path_str(path), str(e)))
            if not stack:
                end = ts.peek()
                if end.kind != tk.EOF:
                    raise ProofSyntaxError(f"trailing input {end.text!r}", end.pos)
                if violations:
                    raise CheckFailure(CheckReport(False, tuple(violations)))
                return node
            rule = stack.pop()
            rule[1].append(node)
        stack.append(rule)


def print_proof(p: Proof) -> str:
    """The file syntax of p, written out in pre-order from an explicit stack."""
    out: list[str] = []
    stack: list[Proof | str] = [p]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        stack.append(")")
        for c in reversed(children(item)):
            stack.append(c)
            stack.append(" ")
        out.append(item._head())
    return "".join(out)


# ---------------------------------------------------------------------------
# rule nodes


class Rule:
    """A rule instance, immutable once its constructor has checked it.

    A subclass declares its rule once: its arguments (`__match_args__`, the
    constructor's, file arguments first), which are premises, the readers of
    the file arguments, its file keywords (a flipped quantum rule's is the
    second), the premise that argument `j` indexes, its side conditions, which
    the constructor and `check` both run, and its conclusion. The defaults
    are for rules on positions `i` and `j`.
    """

    __slots__ = ("conclusion", "summary")  # summary: None until `cutelim.summary` fills it
    premises: tuple[str, ...] = ()
    readers = (_parse_position, _parse_position)
    keywords: tuple[str, ...]
    j_premise = 0

    def __init_subclass__(cls):
        """Derive each argument's slot setter, and which arguments are not premises."""
        cls._setters = tuple((a, getattr(cls, a).__set__) for a in cls.__match_args__)
        cls._args = tuple(a for a in cls.__match_args__ if a not in cls.premises)

    def __init__(self, *args):
        fields = self._setters
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} arguments, got {len(args)}")
        for k, (_, put) in enumerate(fields):
            put(self, args[k])
        msgs = self._violations()
        if msgs:
            raise ProofError("; ".join(msgs))
        _set_conclusion(self, self._conclude())
        _set_summary(self, None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        """Each rule's class and other arguments, in a flat `unfold` list: a copy or an
        unpickled proof is built again, premises first, by the checking constructors."""
        return refold, ([((type(r), tuple(getattr(r, a) for a in r._args)), n)
                         for r, n in unfold(self, children)], _rebuild)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} |- {print_sequent(self.conclusion)}>"

    def _violations(self) -> list[str]:
        return []

    def _head(self) -> str:  # the rule's text up to its premises
        return f"({self.keywords[0]} {self.i} {self.j}"


def _out_of_range(rule: CutRule | TensorRule) -> list[str]:
    """A cut's or tensor's positions that lie outside the premise they index."""
    kw, lc, rc = rule.keywords[0], rule.left.conclusion, rule.right.conclusion
    return [f"{kw} position {pos} out of range for {side} premise of length {len(c)}"
            for pos, side, c in ((rule.i, "left", lc), (rule.j, "right", rc))
            if not 1 <= pos <= len(c)]


class AxiomRule(Rule):
    __slots__ = __match_args__ = ("formula",)
    readers = (parse_formula_stream,)
    keywords = ("ax",)

    def _conclude(self) -> Sequent:
        return (self.formula.dual, self.formula)

    def _head(self) -> str:
        return f"({self.keywords[0]} {print_formula(self.formula)}"


class CutRule(Rule):
    __slots__ = __match_args__ = ("i", "j", "left", "right")
    premises = ("left", "right")
    keywords = ("cut",)
    j_premise = 1

    def _violations(self) -> list[str]:
        out = _out_of_range(self)
        lc, rc = self.left.conclusion, self.right.conclusion
        if not out and lc[self.i - 1].dual is not rc[self.j - 1]:
            out.append(f"cut formulas are not dual: {print_formula(lc[self.i - 1])}"
                       f" vs {print_formula(rc[self.j - 1])}")
        elif not out and len(lc) + len(rc) == 2:
            out.append("cut would conclude the empty sequent")
        return out

    def _conclude(self) -> Sequent:
        lc, rc, i, j = self.left.conclusion, self.right.conclusion, self.i, self.j
        return lc[:i - 1] + lc[i:] + rc[:j - 1] + rc[j:]

    @property
    def cut_formula(self) -> Formula:
        return self.left.conclusion[self.i - 1]


class ParRule(Rule):
    __slots__ = __match_args__ = ("i", "j", "sub")
    premises = ("sub",)
    keywords = ("par",)

    def _violations(self) -> list[str]:
        n = len(self.sub.conclusion)
        out = [f"par position {pos} out of range for premise of length {n}"
               for pos in (self.i, self.j) if not 1 <= pos <= n]
        if self.i == self.j:
            out.append("par positions must be distinct")
        return out

    def _conclude(self) -> Sequent:
        prem, i, j = self.sub.conclusion, self.i, self.j
        rest = tuple(f for k, f in enumerate(prem, start=1) if k != i and k != j)
        return rest + (Par(prem[i - 1], prem[j - 1]),)


class TensorRule(Rule):
    __slots__ = __match_args__ = ("i", "j", "left", "right")
    premises = ("left", "right")
    keywords = ("tensor",)
    j_premise = 1
    _violations = _out_of_range

    def _conclude(self) -> Sequent:
        lc, rc, i, j = self.left.conclusion, self.right.conclusion, self.i, self.j
        return lc[:i - 1] + lc[i:] + rc[:j - 1] + rc[j:] + (Tensor(lc[i - 1], rc[j - 1]),)


class QRule(Rule):
    __slots__ = __match_args__ = ("arity", "gate", "sub", "flip")
    premises = ("sub",)
    readers = (_parse_position, _parse_gate)
    keywords = ("q", "qflip")

    def __init__(self, arity: int, gate: UnitaryMatrix, sub: Proof, flip: bool = False):
        Rule.__init__(self, arity, gate, sub, flip)

    def _violations(self) -> list[str]:
        arity, prem = self.arity, self.sub.conclusion
        out = []
        if arity < 1:
            out.append(f"quantum rule arity must be positive, got {arity}")
        if len(prem) != 2:
            out.append(f"quantum rule premise must have exactly 2 formulas, got {len(prem)}")
            return out
        if self.gate.dim_qubits != arity:
            out.append(f"gate acts on {self.gate.dim_qubits} qubits but the declared arity "
                       f"is {arity}")
        a, b = prem
        if is_modal(a) != is_modal(b):
            out.append("quantum rule premise mixes a modal and a non-modal formula: "
                       f"{print_formula(a)}, {print_formula(b)}")
        return out

    def _conclude(self) -> Sequent:
        a, b = self.sub.conclusion
        d_src, b_src = (b, a) if self.flip else (a, b)
        return (wrap_modal("dia", self.arity, d_src), wrap_modal("box", self.arity, b_src))

    def _head(self) -> str:
        return f"({self.keywords[bool(self.flip)]} {self.arity} {print_gate(self.gate)}"

    @property
    def diamond_source(self) -> int:
        """Premise position whose formula receives the diamonds."""
        return 2 if self.flip else 1

    @property
    def box_source(self) -> int:
        return 1 if self.flip else 2


Proof = AxiomRule | CutRule | ParRule | TensorRule | QRule
_KEYWORDS = {kw: (partial(rule, flip=True) if flip else rule, rule.readers,
                  len(rule.readers) + len(rule.premises))
             for rule in Rule.__subclasses__() for flip, kw in enumerate(rule.keywords)}
_set_conclusion, _set_summary = Rule.conclusion.__set__, Rule.summary.__set__


# ---------------------------------------------------------------------------
# traversal helpers


def children(p: Proof) -> tuple[Proof, ...]:
    t = type(p)
    if t is CutRule or t is TensorRule:
        return (p.left, p.right)
    if t is ParRule or t is QRule:
        return (p.sub,)
    if t is AxiomRule:
        return ()
    raise QmllError(f"not a proof node: {p!r}")


def with_child(node: Proof, k: int, child: Proof) -> Proof:
    """`node` with its child k replaced and its position arguments kept.

    A rule's side conditions and conclusion read only its arguments and its
    premises' conclusions, so when `child` concludes what the child it
    replaces did, a copy keeps `node`'s conclusion (not its summary, which
    describes the old subtree). Otherwise the constructor checks and derives it.
    """
    if not node.premises:
        raise ProofError(f"node has no children: {node!r}")
    name = node.premises[k]
    if child.conclusion == getattr(node, name).conclusion:  # formulas are interned
        copy = object.__new__(type(node))
        for a, put in node._setters:
            put(copy, child if a == name else getattr(node, a))
        _set_conclusion(copy, node.conclusion)
        _set_summary(copy, None)
        return copy
    return type(node)(*(child if a == name else getattr(node, a) for a in node.__match_args__))


def _rebuild(head: tuple, premises: list[Proof]) -> Proof:
    """The rule of class head[0] on the other arguments head[1] and these premises."""
    cls, args = head[0], iter(head[1])
    subs = iter(premises)
    return cls(*(next(subs if a in cls.premises else args) for a in cls.__match_args__))


def node_at(p: Proof, path: Path) -> Proof:
    cur = p
    for k in path:
        kids = children(cur)
        if k >= len(kids):
            raise PreconditionError(f"no node at path {path_str(path)}")
        cur = kids[k]
    return cur


def iter_nodes(p: Proof) -> list[tuple[Path, Proof]]:
    """Post-order (children first, left to right)."""
    return post_order(p, children)


def rule_count(p: Proof) -> int:
    """Rule instances in p, counted on an explicit stack."""
    return len(unfold(p, children))


def proofs_equal(p: Proof, q: Proof, gate_tol: float = 1e-9) -> bool:
    """Structural equality; gate matrices compared entry-wise within gate_tol."""
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b) or not _same_rule(a, b, gate_tol):
            return False
        stack.extend(zip(children(a), children(b)))
    return True


def _same_rule(p: Proof, q: Proof, gate_tol: float) -> bool:
    """Whether two nodes of one type carry the same arguments, their premises aside."""
    for name in p._args:
        a, b = getattr(p, name), getattr(q, name)
        if type(a) is UnitaryMatrix:
            g, h = a.data, b.data
            if g.shape != h.shape or np.max(np.abs(g - h)) > gate_tol:
                return False
        elif a != b:  # formulas are interned: equal is identical
            return False
    return True


# ---------------------------------------------------------------------------
# occurrence linkage: where each conclusion occurrence comes from


# Besides the rule constructors, which build each conclusion, these two
# functions are the only code that knows where a premise occurrence lands in
# it: cut elimination derives every step permutation from them, and the token
# machine every move through a rule that does not introduce its formula.


def premise_source(p: Proof, pos: int) -> tuple[int, int] | None:
    """Map a non-principal conclusion position to (child index, premise position).

    Returns None for principal occurrences (introduced by the rule itself).
    A cut or tensor lists the survivors of its left premise, then those of
    its right; a par lists those of its one premise; a par or tensor then
    puts its principal formula last.
    """
    t = type(p)
    if t is CutRule or t is TensorRule:
        if t is TensorRule and pos == len(p.conclusion):
            return None
        nl = len(p.left.conclusion) - 1
        if pos <= nl:
            return (0, pos + (pos >= p.i))
        pos -= nl
        return (1, pos + (pos >= p.j))
    if t is ParRule:
        if pos == len(p.conclusion):
            return None
        lo, hi = (p.i, p.j) if p.i < p.j else (p.j, p.i)
        pos += pos >= lo
        return (0, pos + (pos >= hi))
    if t is AxiomRule or t is QRule:
        return None
    raise QmllError(f"not a proof node: {p!r}")


def conclusion_position(p: Proof, k: int, prem: int) -> int | None:
    """Where position `prem` of child k's conclusion lands in p's conclusion.

    The inverse of `premise_source`. Returns None when the rule consumes the
    occurrence: a cut formula, a par or tensor component, or a quantum
    rule's premise, which becomes a modal formula of the conclusion.
    """
    t = type(p)
    if t is CutRule or t is TensorRule:
        if k == 0:
            return None if prem == p.i else prem - (prem > p.i)
        j = p.j
        return None if prem == j else len(p.left.conclusion) - 1 + prem - (prem > j)
    if t is ParRule:
        i, j = p.i, p.j
        return None if prem == i or prem == j else prem - (prem > i) - (prem > j)
    if t is QRule:
        return None
    raise QmllError(f"not a rule with premises: {p!r}")


def principal_positions(p: Proof) -> tuple[int, ...]:
    """Conclusion positions the rule introduces, those without a premise source."""
    return tuple(pos for pos in range(1, len(p.conclusion) + 1) if premise_source(p, pos) is None)


def principal_formulas(p: Proof, path: Path) -> set[OccurrenceId]:
    """Occurrences introduced (or cut) by the rule at `path`."""
    node = node_at(p, path)
    if isinstance(node, CutRule):
        return {(path + (0,), node.i), (path + (1,), node.j)}
    return {(path, pos) for pos in principal_positions(node)}


# ---------------------------------------------------------------------------
# checker


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[tuple[str, str], ...] = ()  # (node path, message)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"at {p}: {m}" for p, m in self.violations)


def check(p: Proof) -> CheckReport:
    """Re-run every rule instance's side conditions; reports the first violation in post-order.
    The walk keeps no paths, so it costs O(nodes) at any depth; only the node reported gets one."""
    order, stack = [], [(p, -1, 0)]  # pre-order, right to left: (node, parent's index, k)
    while stack:
        item = stack.pop()
        for k, c in enumerate(children(item[0])):
            stack.append((c, len(order), k))
        order.append(item)
    for node, up, k in reversed(order):  # conclusions are the constructors', not derived again
        msgs = node._violations()
        if msgs:
            path = []
            while up >= 0:
                path.append(k)
                _, up, k = order[up]
            return CheckReport(False, ((path_str(tuple(reversed(path))), msgs[0]),))
    return CheckReport(True)


# ---------------------------------------------------------------------------
# the permutation-matrix reading of cut-free multiplicative proofs


def mll_axiom_link_matrix(p: Proof) -> np.ndarray:
    """Adjacency matrix of the axiom links over the conclusion's atoms.

    Requires a cut-free, quantum-rule-free proof with atomic axioms; the
    first node in pre-order that breaks this is reported. Atom occurrences
    are numbered left to right across the conclusion sequent.
    """
    links = itertools.count()

    def leaves(node: Proof, subs: list) -> list[list[int]]:
        """The links of each conclusion formula's atoms, left to right."""
        if type(node) is AxiomRule:
            link = next(links)
            return [[link], [link]]
        srcs = [premise_source(node, t) for t in range(1, len(node.conclusion))]
        principal = subs[0][node.i - 1] + subs[node.j_premise][node.j - 1]
        return [subs[c][q - 1] for c, q in srcs] + [principal]

    flat: list[int] = [link for lv in fold(p, _mll_premises, leaves) for link in lv]
    n = len(flat)
    m = np.zeros((n, n), dtype=int)
    by_link: dict[int, list[int]] = {}
    for idx, link in enumerate(flat):
        by_link.setdefault(link, []).append(idx)
    for pair in by_link.values():
        a, b = pair
        m[a, b] = m[b, a] = 1
    return m


def _mll_premises(node: Proof) -> tuple[Proof, ...]:
    """The children of a node of a cut-free, quantum-rule-free proof with atomic axioms."""
    t = type(node)
    if t is AxiomRule and not isinstance(node.formula, Atom):
        raise PreconditionError(f"non-atomic axiom on {print_formula(node.formula)}")
    if t is CutRule:
        raise PreconditionError("proof contains a cut")
    if t is QRule:
        raise PreconditionError("proof contains a quantum rule")
    return children(node)
