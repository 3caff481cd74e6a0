"""Token machine interpreting proofs as unitary actions on a register.

A machine state is (occurrence, context, stack, register). The token walks
the proof: with a negative context it climbs from a conclusion occurrence
into the rule above, with a positive context it descends through the rule
below; axioms and cut formulas bounce it to the dual occurrence. Crossing a
quantum rule moves modal steps between context and stack; the register is
touched only when the token exits through the port opposite to the one it
entered, applying the rule's gate (forward) or its adjoint (backward) on
the qubit block between the context and stack qubits.

Register layout: qubit 1 (most significant) is the modality nearest the
hole atom; context qubits come first, innermost outward, then the stack,
top first. depth(context) + len(stack) is invariant along a run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MachineError, PreconditionError
from .formulas import (BOX_S, DIA_S, PAR_L, PAR_R, TENS_L, TENS_R, Context, Formula,
                       atoms, contexts_for, depth, dual_context, hole_atom, print_context,
                       print_formula)
from .matrices import StateVector, UnitaryMatrix, adjoint, apply_at, apply_gate, check_qubits
from .proofs import (AxiomRule, CutRule, ParRule, Path, Proof, QRule, conclusion_position,
                     iter_nodes, path_str, premise_source)


@dataclass(frozen=True)
class GateEvent:
    gate: UnitaryMatrix
    offset: int
    forward: bool

    def applied(self) -> UnitaryMatrix:
        return self.gate if self.forward else adjoint(self.gate)


@dataclass(frozen=True)
class MachineState:
    path: Path
    pos: int
    ctx: Context
    positive: bool
    stack: tuple[str, ...]  # 'd' / 'b', rightmost is the top
    register: StateVector | None = None

    def stack_str(self) -> str:
        return "".join("<>" if s == "d" else "[]" for s in self.stack)


@dataclass(frozen=True)
class Next:
    state: MachineState
    event: GateEvent | None = None


@dataclass(frozen=True)
class Final:
    state: MachineState


@dataclass(frozen=True)
class Stuck:
    state: MachineState
    reason: str


class OccurrenceGraph:
    """Immutable routing data for a checked proof."""

    def __init__(self, proof: Proof):
        self.proof = proof
        order = iter_nodes(proof)
        self.nodes: dict[Path, Proof] = dict(order)
        # modal symbols pushed by the enclosing boxes: one per arity unit,
        # so each node adds its parent's arity to its parent's nesting
        self.nesting: dict[Path, int] = {(): 0}
        for path, _ in reversed(order[:-1]):  # parents first; the root is last in post-order
            parent = path[:-1]
            above = self.nodes[parent]
            self.nesting[path] = self.nesting[parent] + (
                above.arity if isinstance(above, QRule) else 0)

    def node(self, path: Path) -> Proof:
        return self.nodes[path]

    def formula(self, path: Path, pos: int) -> Formula:
        return self.nodes[path].conclusion[pos - 1]

    def legal_state_bound(self) -> int:
        total = 0
        for path, node in self.nodes.items():
            for f in node.conclusion:
                total += len(atoms(f)) * (2 ** self.nesting[path])
        return total


def _pop_uniform(stack: tuple[str, ...], m: int) -> tuple[str | None, tuple[str, ...]]:
    if len(stack) < m:
        return None, stack
    top, rest = stack[-m:], stack[:-m]
    if all(s == top[0] for s in top):
        return top[0], rest
    return None, stack


def step_machine(graph: OccurrenceGraph, s: MachineState) -> Next | Final | Stuck:
    """One move of the token.

    Through a rule that does not introduce the token's formula, it climbs
    along `premise_source` and descends along `conclusion_position`; only
    principal formulas, cut formulas and box ports are handled here.
    """
    if s.positive and s.path == ():
        if not s.stack:
            return Final(s)
        return Stuck(s, "positive at the conclusion with a nonempty stack")

    if not s.positive:
        node = graph.node(s.path)
        if isinstance(node, AxiomRule):
            other = 2 if s.pos == 1 else 1
            return Next(replace(s, pos=other, ctx=dual_context(s.ctx), positive=True))
        if isinstance(node, QRule):  # enter the box, moving modal steps from context to stack
            m = node.arity
            want = DIA_S if s.pos == 1 else BOX_S
            head = s.ctx.steps[:m]
            if len(head) < m or any(k != want for k, _ in head):
                return Stuck(s, "context does not carry the modal prefix of the formula")
            sym = "d" if s.pos == 1 else "b"
            prem = node.diamond_source if s.pos == 1 else node.box_source
            return Next(replace(s, path=s.path + (0,), pos=prem,
                                ctx=Context(s.ctx.steps[m:]), stack=s.stack + (sym,) * m))
        src = premise_source(node, s.pos)
        if src is not None:
            return Next(replace(s, path=s.path + (src[0],), pos=src[1]))
        # the principal formula of a par or tensor: the context picks the component
        name, left, right = (("par", PAR_L, PAR_R) if isinstance(node, ParRule)
                             else ("tensor", TENS_L, TENS_R))
        if not s.ctx.steps:
            return Stuck(s, f"empty context at a {name} principal formula")
        kind, _ = s.ctx.steps[0]
        inner = Context(s.ctx.steps[1:])
        if kind == left:
            return Next(replace(s, path=s.path + (0,), pos=node.i, ctx=inner))
        if kind == right:
            k = 0 if name == "par" else 1
            return Next(replace(s, path=s.path + (k,), pos=node.j, ctx=inner))
        return Stuck(s, f"context does not enter the {name} formula")

    # positive: descend through the rule below
    parent_path, k = s.path[:-1], s.path[-1]
    q = graph.node(parent_path)
    if isinstance(q, QRule):
        m = q.arity
        sym, rest = _pop_uniform(s.stack, m)
        if sym is None:
            return Stuck(s, "stack does not carry a uniform block for the box exit")
        offset = depth(s.ctx)
        event: GateEvent | None = None
        if s.pos == q.diamond_source:
            ctx = Context(((DIA_S, None),) * m + s.ctx.steps)
            if sym == "b":
                event = GateEvent(q.gate, offset, forward=False)
            nxt = replace(s, path=parent_path, pos=1, ctx=ctx, stack=rest)
        elif s.pos == q.box_source:
            ctx = Context(((BOX_S, None),) * m + s.ctx.steps)
            if sym == "d":
                event = GateEvent(q.gate, offset, forward=True)
            nxt = replace(s, path=parent_path, pos=2, ctx=ctx, stack=rest)
        else:
            return Stuck(s, "box exit from an unknown premise position")
        if event is not None and nxt.register is not None:
            nxt = replace(nxt, register=apply_at(event.applied(), nxt.register, event.offset))
        return Next(nxt, event)
    pos = conclusion_position(q, k, s.pos)
    if pos is not None:
        return Next(replace(s, path=parent_path, pos=pos))
    if isinstance(q, CutRule):  # bounce off the cut to the dual occurrence
        k2, pos2 = (1, q.j) if k == 0 else (0, q.i)
        return Next(replace(s, path=parent_path + (k2,), pos=pos2,
                            ctx=dual_context(s.ctx), positive=False))
    # a component of a par or tensor: the context records its side and the other component
    left, right = (PAR_L, PAR_R) if isinstance(q, ParRule) else (TENS_L, TENS_R)
    principal = q.conclusion[-1]
    entered = (left, principal.right) if k == 0 and s.pos == q.i else (right, principal.left)
    return Next(replace(s, path=parent_path, pos=len(q.conclusion),
                        ctx=Context((entered,) + s.ctx.steps)))


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
        if abs(register.norm() - 1.0) > 1e-9:
            raise PreconditionError("register is not normalized")
    return MachineState((), entry_pos, ctx, False, (), register)


def run(graph: OccurrenceGraph, start: MachineState,
        collect_trace: bool = False) -> RunResult:
    bound = graph.legal_state_bound() + 2
    cur = start
    events: list[GateEvent] = []
    trace: list[str] = []
    steps = 0
    while True:
        if len(cur.stack) != graph.nesting[cur.path]:
            raise MachineError("illegal stack length; unreachable from initial states")
        if collect_trace:
            trace.append(_trace_line(graph, cur))
        res = step_machine(graph, cur)
        if isinstance(res, Final):
            return RunResult(cur, tuple(events), steps, tuple(trace))
        if isinstance(res, Stuck):
            raise MachineError(f"machine stuck: {res.reason}")
        if res.event is not None:
            events.append(res.event)
            if collect_trace:
                ev = res.event
                arrow = "" if ev.forward else " (adjoint)"
                trace.append(f"  apply {ev.gate.name or 'gate'}{arrow} at offset {ev.offset}")
        cur = res.state
        steps += 1
        if steps > bound:
            raise MachineError("run exceeded the legal-state bound")


def _trace_line(graph: OccurrenceGraph, s: MachineState) -> str:
    f = graph.formula(s.path, s.pos)
    pol = "P" if s.positive else "N"
    return (f"{path_str(s.path)}#{s.pos} {print_formula(f)} | {print_context(s.ctx)} "
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
    every column of the identity, which leaves the unitary in its place.
    """
    graph = OccurrenceGraph(proof)
    start = initial_state(graph, entry_pos, ctx)
    res = run(graph, start)
    u = np.eye(2 ** depth(ctx), dtype=complex)
    for ev in res.events:
        u = apply_gate(ev.applied().data, u, ev.offset)
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
