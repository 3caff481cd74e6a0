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
the first). Flipped instances only arise from cut elimination.

File format:

    P ::= (ax F) | (cut i j P P) | (par i j P) | (tensor i j P P)
        | (q n GATE P) | (qflip n GATE P)
    GATE ::= I{n} | H | X | Y | Z | S | T | CNOT | SWAP | (mat ROW ...)

where ROW is a bracket list of [re,im] pairs, row-major. `parse_proof`
reads a file in one pass on an explicit stack and builds each rule with its
checking constructor as the rule's `)` closes, so a proof of any depth that
`print_proof` writes reads back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import tokens as tk
from .errors import CheckFailure, PreconditionError, ProofError, ProofSyntaxError, QmllError
from .formulas import (Atom, Formula, Par, Tensor, is_modal, parse_formula_stream, print_formula,
                       wrap_modal)
from .matrices import UnitaryMatrix, check_qubits, gate_by_name, render_rows
from .trees import fold, post_order

Sequent = tuple[Formula, ...]
Path = tuple[int, ...]
OccurrenceId = tuple[Path, int]  # (node path from root, 1-based position)


def print_sequent(s: Sequent) -> str:
    return ", ".join(print_formula(f) for f in s)


def path_str(p: Path) -> str:
    return ".".join(str(i) for i in p) if p else "root"


def _minus(seq: Sequent, *positions: int) -> Sequent:
    drop = set(positions)
    return tuple(f for k, f in enumerate(seq, start=1) if k not in drop)


# ---------------------------------------------------------------------------
# rule nodes


@dataclass(frozen=True, eq=False)
class AxiomRule:
    formula: Formula
    conclusion: Sequent = field(init=False)
    summary: object = field(init=False, repr=False, compare=False)  # see cutelim.summary

    def __post_init__(self):
        object.__setattr__(self, "conclusion", (self.formula.dual, self.formula))


@dataclass(frozen=True, eq=False)
class CutRule:
    i: int
    j: int
    left: "Proof"
    right: "Proof"
    conclusion: Sequent = field(init=False)
    summary: object = field(init=False, repr=False, compare=False)  # see cutelim.summary

    def __post_init__(self):
        msgs = _cut_violations(self.i, self.j, self.left.conclusion, self.right.conclusion)
        if msgs:
            raise ProofError("; ".join(msgs))
        concl = _minus(self.left.conclusion, self.i) + _minus(self.right.conclusion, self.j)
        object.__setattr__(self, "conclusion", concl)

    @property
    def cut_formula(self) -> Formula:
        return self.left.conclusion[self.i - 1]


@dataclass(frozen=True, eq=False)
class ParRule:
    i: int
    j: int
    sub: "Proof"
    conclusion: Sequent = field(init=False)
    summary: object = field(init=False, repr=False, compare=False)  # see cutelim.summary

    def __post_init__(self):
        msgs = _par_violations(self.i, self.j, self.sub.conclusion)
        if msgs:
            raise ProofError("; ".join(msgs))
        prem = self.sub.conclusion
        concl = _minus(prem, self.i, self.j) + (Par(prem[self.i - 1], prem[self.j - 1]),)
        object.__setattr__(self, "conclusion", concl)


@dataclass(frozen=True, eq=False)
class TensorRule:
    i: int
    j: int
    left: "Proof"
    right: "Proof"
    conclusion: Sequent = field(init=False)
    summary: object = field(init=False, repr=False, compare=False)  # see cutelim.summary

    def __post_init__(self):
        msgs = _tensor_violations(self.i, self.j, self.left.conclusion, self.right.conclusion)
        if msgs:
            raise ProofError("; ".join(msgs))
        principal = Tensor(self.left.conclusion[self.i - 1], self.right.conclusion[self.j - 1])
        concl = (_minus(self.left.conclusion, self.i)
                 + _minus(self.right.conclusion, self.j) + (principal,))
        object.__setattr__(self, "conclusion", concl)


@dataclass(frozen=True, eq=False)
class QRule:
    arity: int
    gate: UnitaryMatrix
    sub: "Proof"
    flip: bool = False
    conclusion: Sequent = field(init=False)
    summary: object = field(init=False, repr=False, compare=False)  # see cutelim.summary

    def __post_init__(self):
        msgs = _qrule_violations(self.arity, self.gate, self.sub.conclusion)
        if msgs:
            raise ProofError("; ".join(msgs))
        a, b = self.sub.conclusion
        d_src, b_src = (b, a) if self.flip else (a, b)
        concl = (wrap_modal("dia", self.arity, d_src), wrap_modal("box", self.arity, b_src))
        object.__setattr__(self, "conclusion", concl)

    @property
    def diamond_source(self) -> int:
        """Premise position whose formula receives the diamonds."""
        return 2 if self.flip else 1

    @property
    def box_source(self) -> int:
        return 1 if self.flip else 2


Proof = AxiomRule | CutRule | ParRule | TensorRule | QRule


def _cut_violations(i: int, j: int, lc: Sequent, rc: Sequent) -> list[str]:
    out = []
    if not 1 <= i <= len(lc):
        out.append(f"cut position {i} out of range for left premise of length {len(lc)}")
    if not 1 <= j <= len(rc):
        out.append(f"cut position {j} out of range for right premise of length {len(rc)}")
    if not out and lc[i - 1].dual is not rc[j - 1]:
        out.append(f"cut formulas are not dual: {print_formula(lc[i - 1])}"
                   f" vs {print_formula(rc[j - 1])}")
    if not out and len(lc) + len(rc) == 2:
        out.append("cut would conclude the empty sequent")
    return out


def _par_violations(i: int, j: int, prem: Sequent) -> list[str]:
    out = []
    for pos in (i, j):
        if not 1 <= pos <= len(prem):
            out.append(f"par position {pos} out of range for premise of length {len(prem)}")
    if i == j:
        out.append("par positions must be distinct")
    return out


def _tensor_violations(i: int, j: int, lc: Sequent, rc: Sequent) -> list[str]:
    out = []
    if not 1 <= i <= len(lc):
        out.append(f"tensor position {i} out of range for left premise of length {len(lc)}")
    if not 1 <= j <= len(rc):
        out.append(f"tensor position {j} out of range for right premise of length {len(rc)}")
    return out


def _qrule_violations(arity: int, gate: UnitaryMatrix, prem: Sequent) -> list[str]:
    out = []
    if arity < 1:
        out.append(f"quantum rule arity must be positive, got {arity}")
    if len(prem) != 2:
        out.append(f"quantum rule premise must have exactly 2 formulas, got {len(prem)}")
        return out
    if gate.dim_qubits != arity:
        out.append(f"gate acts on {gate.dim_qubits} qubits but the declared arity is {arity}")
    a, b = prem
    if is_modal(a) != is_modal(b):
        out.append("quantum rule premise mixes a modal and a non-modal formula: "
                   f"{print_formula(a)}, {print_formula(b)}")
    return out


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


_CHILD_FIELDS = {CutRule: ("left", "right"), TensorRule: ("left", "right"),
                 ParRule: ("sub",), QRule: ("sub",)}


def with_child(node: Proof, k: int, child: Proof) -> Proof:
    """`node` with its child k replaced and its position arguments kept.

    A rule's side conditions and conclusion read only its arguments and its
    premises' conclusions. When `child` concludes the same formulas as the
    child it replaces, the copy therefore keeps `node`'s validated
    conclusion. Otherwise the constructor checks and derives it.
    """
    if type(node) not in _CHILD_FIELDS:
        raise ProofError(f"node has no children: {node!r}")
    name = _CHILD_FIELDS[type(node)][k]
    old = getattr(node, name).conclusion
    new = child.conclusion
    if new == old:  # formulas are interned: equal is identical
        copy = object.__new__(type(node))
        state = copy.__dict__
        state.update(node.__dict__)
        state.pop("summary", None)  # it describes the old subtree
        state[name] = child
        return copy
    return replace(node, **{name: child})


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
    """Rule instances in p; subtrees that carry a summary give their memoized count."""
    total, stack = 0, [p]
    while stack:
        node = stack.pop()
        memo = getattr(node, "summary", None)
        if memo is not None:
            total += memo.rules
        else:
            total += 1
            stack.extend(children(node))
    return total


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
    t = type(p)
    if t is AxiomRule:
        return p.formula is q.formula
    if t is QRule:
        g, h = p.gate.data, q.gate.data
        if p.arity != q.arity or p.flip != q.flip or g.shape != h.shape:
            return False
        return not np.max(np.abs(g - h)) > gate_tol
    return (t is CutRule or t is ParRule or t is TensorRule) and (p.i, p.j) == (q.i, q.j)


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
    """Re-validate every rule instance; reports the first violation found."""
    for path, node in iter_nodes(p):
        msgs: list[str] = []
        match node:
            case AxiomRule():
                if node.conclusion != (node.formula.dual, node.formula):
                    msgs.append("axiom conclusion is not (dual, formula)")
            case CutRule(i, j, l, r):
                msgs = _cut_violations(i, j, l.conclusion, r.conclusion)
            case ParRule(i, j, s):
                msgs = _par_violations(i, j, s.conclusion)
            case TensorRule(i, j, l, r):
                msgs = _tensor_violations(i, j, l.conclusion, r.conclusion)
            case QRule(n, g, s, _):
                msgs = _qrule_violations(n, g, s.conclusion)
        if not msgs and not node.conclusion:
            msgs.append("empty conclusion")
        if msgs:
            return CheckReport(False, ((path_str(path), msgs[0]),))
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
        other = 0 if type(node) is ParRule else 1  # the premise holding position j
        srcs = [premise_source(node, t) for t in range(1, len(node.conclusion))]
        return [subs[c][q - 1] for c, q in srcs] + [subs[0][node.i - 1] + subs[other][node.j - 1]]

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


# ---------------------------------------------------------------------------
# parsing / printing


def _parse_gate(ts: tk.TokenStream) -> UnitaryMatrix:
    t = ts.peek()
    if t.kind == tk.IDENT:
        ts.next()
        try:
            return gate_by_name(t.text)
        except PreconditionError:  # a well-formed name over the qubit cap
            raise
        except QmllError as e:
            raise ProofSyntaxError(str(e), t.pos) from e
    if t.kind == tk.LP:
        ts.next()
        kw = ts.expect(tk.IDENT, ProofSyntaxError)
        if kw.text != "mat":
            raise ProofSyntaxError(f"expected 'mat', found {kw.text!r}", kw.pos)
        rows = []
        while ts.peek().kind == tk.ROW:
            rows.append(ts.next().text)
        ts.expect(tk.RP, ProofSyntaxError)
        if not rows:
            raise ProofSyntaxError("empty matrix literal", t.pos)
        check_qubits((len(rows) - 1).bit_length())
        data = _literal_data(rows, t.pos)
        try:
            return UnitaryMatrix(data)
        except QmllError as e:
            raise ProofSyntaxError(f"bad matrix literal: {e}", t.pos) from e
    raise ProofSyntaxError(f"expected a gate, found {t.text!r}", t.pos)


_ROW_PUNCT = str.maketrans("[],", "   ")


def _literal_data(rows: list[str], pos: int) -> np.ndarray:
    """The matrix spelled by ROW token texts; entries are bit for bit `complex(re, im)`.

    The tokenizer has checked each row's shape, so its numbers are the words
    left when brackets and commas are read as spaces.
    """
    nums = [row.translate(_ROW_PUNCT).split() for row in rows]
    width = len(nums[0])
    for k, row in enumerate(nums[1:], start=2):
        if len(row) != width:
            raise ProofSyntaxError(f"ragged matrix literal: row {k} has {len(row) // 2} "
                                   f"entries, row 1 has {width // 2}", pos)
    flat = np.array([float(x) for row in nums for x in row])
    return flat.view(complex).reshape(len(rows), width // 2)


def _parse_position(ts: tk.TokenStream) -> int:
    t = ts.expect(tk.NUMBER, ProofSyntaxError)
    try:
        return int(t.text)
    except ValueError:
        raise ProofSyntaxError(f"expected an integer position, found {t.text!r}", t.pos)


_RULES = {"cut": (CutRule, 2), "tensor": (TensorRule, 2), "par": (ParRule, 1),
          "q": (QRule, 1), "qflip": (partial(QRule, flip=True), 1)}


def _open_rule(ts: tk.TokenStream) -> tuple:
    """Read a rule's `(`, keyword and head: (constructor, head, premises read, premise count)."""
    ts.expect(tk.LP, ProofSyntaxError)
    kw = ts.expect(tk.IDENT, ProofSyntaxError)
    if kw.text == "ax":
        return (AxiomRule, (parse_formula_stream(ts),), [], 0)
    if kw.text not in _RULES:
        raise ProofSyntaxError(f"unknown rule {kw.text!r}", kw.pos)
    ctor, arity = _RULES[kw.text]
    if kw.text in ("q", "qflip"):
        head = (_parse_position(ts), _parse_gate(ts))
    else:
        head = (_parse_position(ts), _parse_position(ts))
    return (ctor, head, [], arity)


def parse_proof(text: str) -> Proof:
    """Parse and check a proof; raises on syntax errors or rule violations.

    One left-to-right pass over the tokens, on an explicit stack of open
    rules: a rule's head is read when its `(` opens, and its checking
    constructor builds it when its `)` closes. A rule that fails its check is
    recorded with its path, and no rule above it is built; the violations
    come out in post-order, after the whole text has parsed.
    """
    ts = tk.TokenStream(tk.tokenize(text))
    violations: list[tuple[str, str]] = []
    stack: list[tuple] = []  # the open ancestors of the rule being read
    while True:
        rule = _open_rule(ts)
        while len(rule[2]) == rule[3]:
            ts.expect(tk.RP, ProofSyntaxError)
            ctor, head, premises, _ = rule
            node = None
            if None not in premises:
                try:
                    node = ctor(*head, *premises)
                except ProofError as e:
                    # each ancestor's premises read so far index the child below it
                    path = tuple(len(r[2]) for r in stack)
                    violations.append((path_str(path), str(e)))
            if not stack:
                end = ts.peek()
                if end.kind != tk.EOF:
                    raise ProofSyntaxError(f"trailing input {end.text!r}", end.pos)
                if violations:
                    raise CheckFailure(CheckReport(False, tuple(violations)))
                return node
            rule = stack.pop()
            rule[2].append(node)
        stack.append(rule)


def print_gate(g: UnitaryMatrix) -> str:
    if g.name is not None:
        return g.name
    return "(mat " + " ".join(render_rows(g.data)) + ")"


def print_proof(p: Proof) -> str:
    """The file syntax of p, written out in pre-order from an explicit stack."""
    out: list[str] = []
    stack: list[Proof | str] = [p]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        out.append(_rule_head(item))
        stack.append(")")
        for c in reversed(children(item)):
            stack.append(c)
            stack.append(" ")
    return "".join(out)


def _rule_head(node: Proof) -> str:
    """A rule's text up to its premises."""
    t = type(node)
    if t is AxiomRule:
        return f"(ax {print_formula(node.formula)}"
    if t is QRule:
        return f"({'qflip' if node.flip else 'q'} {node.arity} {print_gate(node.gate)}"
    if t is CutRule:
        return f"(cut {node.i} {node.j}"
    if t is ParRule:
        return f"(par {node.i} {node.j}"
    if t is TensorRule:
        return f"(tensor {node.i} {node.j}"
    raise QmllError(f"not a proof node: {node!r}")
