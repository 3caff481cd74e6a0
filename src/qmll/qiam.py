"""Token machine interpreting proofs as unitary actions on a register.

A machine state is (occurrence, context, stack, register). The token walks
the proof: with a negative context it climbs from a conclusion occurrence
into the rule above, with a positive context it descends through the rule
below; axioms and cut formulas bounce it to the dual occurrence. Crossing a
quantum rule moves modal steps between context and stack; the register is
touched only when the token exits through the port opposite to the one it
entered, applying the rule's gate (forward) or its adjoint (backward) on
the qubit block between the context and stack qubits. An identity event is
skipped wherever applying it would give the register back byte for byte.

Register layout: qubit 1 (most significant) is the modality nearest the
hole atom; context qubits come first, innermost outward, then the stack,
top first. depth(context) + len(stack) is invariant along a run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import MachineError, PreconditionError
from .formulas import (BOX_S, DIA_S, STEPS, Context, Formula, atoms, contexts_for, depth,
                       dual_context, hole_atom, print_context, print_formula)
from .matrices import (StateVector, UnitaryMatrix, adjoint, apply_gate, check_qubits,
                       identity_keeps, zero_signs_exact)
from .proofs import (AxiomRule, CutRule, Path, Proof, QRule, children, conclusion_position,
                     path_str, premise_source)


@dataclass(frozen=True)
class GateEvent:
    gate: UnitaryMatrix
    offset: int
    forward: bool

    def applied(self) -> UnitaryMatrix:
        return self.gate if self.forward else adjoint(self.gate)


@dataclass(frozen=True)
class MachineState:
    """A token position as `run` takes and returns it: its node is named by a path."""

    path: Path
    pos: int
    ctx: Context
    positive: bool
    stack: tuple[str, ...]  # step kinds BOX_S / DIA_S, rightmost is the top
    register: StateVector | None = None

    def stack_str(self) -> str:
        return "".join(STEPS[s][0].symbol for s in self.stack)


class OccurrenceGraph:
    """Immutable routing data for a checked proof, compiled into flat tables.

    Nodes are numbered breadth first from the root, 0, so siblings have consecutive
    ids. Per id the tables hold the node, its parent, its first child and its
    nesting: the modal symbols pushed by the enclosing boxes, one per arity unit.
    `run` walks ids; it converts a path only at its start, its final state and each
    traced state.
    """

    def __init__(self, proof: Proof):
        self.proof = proof
        self.node_by_id: list[Proof] = [proof]
        self.parent, self.first_child, self.nest = [-1], [], [0]
        for i, node in enumerate(self.node_by_id):  # also visits the nodes it appends
            kids = children(node)
            self.first_child.append(len(self.node_by_id))
            self.node_by_id += kids
            self.parent += [i] * len(kids)
            self.nest += [self.nest[i] + (node.arity if isinstance(node, QRule) else 0)] * len(kids)
        # the atoms in each node's conclusion, children first: a rule keeps its premises'
        # atoms, an axiom holds its formula's twice, a cut drops its cut formula's twice
        held = [0] * len(self.node_by_id)
        for i in reversed(range(len(held))):
            node = self.node_by_id[i]
            if isinstance(node, AxiomRule):
                held[i] = 2 * len(atoms(node.formula))
            elif isinstance(node, CutRule):
                held[i] -= 2 * len(atoms(node.cut_formula))
            if i:
                held[self.parent[i]] += held[i]
        self._bound = sum(n << nest for n, nest in zip(held, self.nest))

    def path_of(self, i: int) -> Path:
        """The path of node i: its child slots, read from the root."""
        out = []
        while i > 0:
            up = self.parent[i]
            out.append(i - self.first_child[up])
            i = up
        return tuple(reversed(out))

    def node_id(self, path: Path) -> int:
        """The id of the node at `path`; a path that leaves the proof is refused."""
        i = 0
        for k in path:
            if not 0 <= k < len(children(self.node_by_id[i])):
                raise PreconditionError(f"no node at path {path_str(path)}")
            i = self.first_child[i] + k
        return i

    def legal_state_bound(self) -> int:
        """Σ over conclusion occurrences of atom count · 2^nesting, which bounds a run's steps."""
        return self._bound


def _move(graph: OccurrenceGraph, i: int, pos: int, ctx: Context, positive: bool,
          stack: tuple[str, ...]) -> tuple | str | None:
    """One move of the token: the next (node id, pos, ctx, positive, stack, gate event),
    None when the state is final, or why it is stuck. Through a rule that does not
    introduce the token's formula, it climbs along `premise_source` and descends along
    `conclusion_position`; only principal formulas, cut formulas and box ports are handled here.
    """
    if positive and i == 0:
        return "positive at the conclusion with a nonempty stack" if stack else None

    if not positive:
        node = graph.node_by_id[i]
        if isinstance(node, AxiomRule):
            return i, 2 if pos == 1 else 1, dual_context(ctx), True, stack, None
        if isinstance(node, QRule):  # enter the box, moving modal steps from context to stack
            m = node.arity
            want = (DIA_S if pos == 1 else BOX_S,) * m
            if ctx.steps[:m] != want:
                return "context does not carry the modal prefix of the formula"
            prem = node.diamond_source if pos == 1 else node.box_source
            return graph.first_child[i], prem, Context(ctx.steps[m:]), False, stack + want, None
        src = premise_source(node, pos)
        if src is not None:
            return graph.first_child[i] + src[0], src[1], ctx, False, stack, None
        # the principal formula of a par or tensor: the context picks the component
        left, right = node.conclusion[-1].steps
        name = node.keywords[0]
        if not ctx.steps:
            return f"empty context at a {name} principal formula"
        kind = ctx.steps[0]
        inner = Context(ctx.steps[1:])
        if kind == left:
            return graph.first_child[i], node.i, inner, False, stack, None
        if kind == right:
            return graph.first_child[i] + node.j_premise, node.j, inner, False, stack, None
        return f"context does not enter the {name} formula"

    # positive: descend through the rule below
    up = graph.parent[i]
    k = i - graph.first_child[up]
    q = graph.node_by_id[up]
    if isinstance(q, QRule):
        m = q.arity
        top, rest = stack[-m:], stack[:-m]
        if len(top) < m or any(s != top[0] for s in top):
            return "stack does not carry a uniform block for the box exit"
        sym, offset = top[0], depth(ctx)
        if pos == q.diamond_source:
            event = GateEvent(q.gate, offset, forward=False) if sym == BOX_S else None
            return up, 1, Context((DIA_S,) * m + ctx.steps), True, rest, event
        if pos == q.box_source:
            event = GateEvent(q.gate, offset, forward=True) if sym == DIA_S else None
            return up, 2, Context((BOX_S,) * m + ctx.steps), True, rest, event
        return "box exit from an unknown premise position"
    to = conclusion_position(q, k, pos)
    if to is not None:
        return up, to, ctx, True, stack, None
    if isinstance(q, CutRule):  # bounce off the cut to the dual occurrence
        k2, pos2 = (1, q.j) if k == 0 else (0, q.i)
        return graph.first_child[up] + k2, pos2, dual_context(ctx), False, stack, None
    # a component of a par or tensor: the context records the side it entered
    entered = q.conclusion[-1].steps[0 if k == 0 and pos == q.i else 1]
    return up, len(q.conclusion), Context((entered,) + ctx.steps), True, stack, None


@dataclass(frozen=True)
class RunResult:
    final: MachineState
    events: tuple[GateEvent, ...]
    steps: int
    trace: tuple[str, ...] = ()


def initial_state(graph: OccurrenceGraph, entry_pos: int, ctx: Context,
                  register: StateVector | None = None) -> MachineState:
    concl = graph.proof.conclusion
    if not 1 <= entry_pos <= len(concl):
        raise PreconditionError(f"entry position {entry_pos} out of range")
    atom = hole_atom(ctx, concl[entry_pos - 1])
    if atom.positive:
        raise PreconditionError("entry context must be negative (hole at a co-atom)")
    n = depth(ctx)
    check_qubits(n)
    if register is not None:
        if register.n_qubits != n:
            raise PreconditionError(
                f"register has {register.n_qubits} qubits, the context needs {n}")
        with np.errstate(all="ignore"):  # an overflowing norm is refused below
            norm = register.norm()
        if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise PreconditionError("register is not normalized")
    return MachineState((), entry_pos, ctx, False, (), register)


def run(graph: OccurrenceGraph, start: MachineState,
        collect_trace: bool = False) -> RunResult:
    """Move the token from `start` until it is final, on node ids; a path is built for
    the final state and each traced state. A start naming no occurrence, or whose context
    does not fit that occurrence's formula, is refused.
    Routing never reads the register; its gate events are applied once the run is final."""
    bound = graph.legal_state_bound() + 2
    i, pos, ctx, positive, stack = (graph.node_id(start.path), start.pos, start.ctx,
                                    start.positive, start.stack)
    concl = graph.node_by_id[i].conclusion
    if not 1 <= pos <= len(concl):
        raise PreconditionError(f"no position {pos} at path {path_str(start.path)}")
    hole_atom(ctx, concl[pos - 1])
    events: list[GateEvent] = []
    trace: list[str] = []
    steps = 0
    while True:
        if len(stack) != graph.nest[i]:
            raise MachineError("illegal stack length; unreachable from initial states")
        if collect_trace:
            s = MachineState(graph.path_of(i), pos, ctx, positive, stack)
            trace.append(_trace_line(s, graph.node_by_id[i].conclusion[pos - 1]))
        res = _move(graph, i, pos, ctx, positive, stack)
        if res is None:
            register = start.register
            if register is not None and events:
                register = StateVector(register.n_qubits, _apply(events, register.amplitudes))
            final = MachineState(graph.path_of(i), pos, ctx, positive, stack, register)
            return RunResult(final, tuple(events), steps, tuple(trace))
        if isinstance(res, str):
            raise MachineError(f"machine stuck: {res}")
        i, pos, ctx, positive, stack, event = res
        if event is not None:
            events.append(event)
            if collect_trace:
                arrow = "" if event.forward else " (adjoint)"
                trace.append(f"  apply {event.gate.name or 'gate'}{arrow} at offset {event.offset}")
        steps += 1
        if steps > bound:
            raise MachineError("run exceeded the legal-state bound")


def _apply(events: Sequence[GateEvent], a: np.ndarray) -> np.ndarray:
    """`a` after each event's gate in run order; its trailing axis may hold a batch of columns.
    An identity event is skipped where `zero_signs_exact` and `identity_keeps(a)` hold, so its
    dense product would give `a` back byte for byte; `identity_keeps` is asked once for a run
    of identity events and again after a gate has been applied."""
    keeps = None  # identity_keeps(a), once asked since a last changed
    for ev in events:
        if ev.gate.is_identity and zero_signs_exact(a, ev.offset, ev.gate.dim_qubits):
            if keeps is None:
                keeps = identity_keeps(a)
            if keeps:
                continue
        a = apply_gate(ev.applied().data, a, ev.offset)
        keeps = None
    return a


def _trace_line(s: MachineState, f: Formula) -> str:
    pol = "P" if s.positive else "N"
    return (f"{path_str(s.path)}#{s.pos} {print_formula(f)} | {print_context(s.ctx, f)} "
            f"| {s.stack_str() or 'e'} | {pol}")


@dataclass(frozen=True)
class SemanticsResult:
    entry_pos: int
    entry_ctx: Context
    exit_pos: int
    exit_ctx: Context
    unitary: UnitaryMatrix
    events: tuple[GateEvent, ...]
    steps: int


def semantics_relative(proof: Proof, entry_pos: int, ctx: Context) -> SemanticsResult:
    """The unitary the proof denotes at the given entry.

    Gate events are register-independent, so the run is executed once
    without a register; each event's gate is then applied, in run order, to
    every column of the identity, which leaves the unitary in its place. An
    identity event is skipped where `_apply` finds its dense product exact:
    on 2 or more qubits, wherever the unitary so far has no -0 part.
    """
    graph = OccurrenceGraph(proof)
    start = initial_state(graph, entry_pos, ctx)
    res = run(graph, start)
    u = _apply(res.events, np.eye(2 ** depth(ctx), dtype=complex))
    return SemanticsResult(entry_pos, ctx, res.final.pos, res.final.ctx,
                           UnitaryMatrix.composed(u), res.events, res.steps)


def extract_gate_sequence(proof: Proof, entry_pos: int,
                          ctx: Context) -> list[tuple[UnitaryMatrix, int]]:
    """Ordered (gate, offset) pairs whose in-order application equals the semantics."""
    graph = OccurrenceGraph(proof)
    res = run(graph, initial_state(graph, entry_pos, ctx))
    return [(ev.applied(), ev.offset) for ev in res.events]


def negative_entries(proof: Proof) -> list[tuple[int, Context]]:
    """All (conclusion position, negative context) pairs usable as entries."""
    out = []
    for k, f in enumerate(proof.conclusion, start=1):
        for ctx, positive in contexts_for(f):
            if not positive:
                out.append((k, ctx))
    return out
