"""The token machine's router against the path-based machine it replaced.

The reference below is the machine as it was before routing was compiled
to node ids: a state carried its path, every step looked its node and
nesting up by that path, and the legal-state bound was summed over a
path-keyed walk. The router must agree with it move for move. Like `_move`, a
reference step gives None when the state is final, the reason when it is stuck,
or the next state with its gate event.
"""

import random
from dataclasses import replace

import pytest

from qmll import MachineError, PreconditionError, parse_proof
from qmll.formulas import (BOX_S, DIA_S, PAR_L, PAR_R, TENS_L, TENS_R, Atom, Context, atoms,
                           depth, dual_context, print_context, print_formula)
from qmll.matrices import StateVector, apply_gate, identity_gate, zero_state
from qmll.proofs import (AxiomRule, CutRule, ParRule, QRule, conclusion_position, iter_nodes,
                         path_str, premise_source)
from qmll.qiam import (GateEvent, MachineState, OccurrenceGraph, RunResult, initial_state,
                       negative_entries, run)

from gen import random_corpus
from test_qiam import entry_of, golden_proofs, rand_register


class RefGraph:
    def __init__(self, proof):
        self.proof = proof
        order = iter_nodes(proof)
        self.nodes = dict(order)
        self.nesting = {(): 0}
        for path, _ in reversed(order[:-1]):
            parent = path[:-1]
            above = self.nodes[parent]
            self.nesting[path] = self.nesting[parent] + (
                above.arity if isinstance(above, QRule) else 0)

    def node(self, path):
        return self.nodes[path]

    def formula(self, path, pos):
        return self.nodes[path].conclusion[pos - 1]

    def legal_state_bound(self):
        total = 0
        for path, node in self.nodes.items():
            for f in node.conclusion:
                total += len(atoms(f)) * (2 ** self.nesting[path])
        return total


def ref_pop_uniform(stack, m):
    if len(stack) < m:
        return None, stack
    top, rest = stack[-m:], stack[:-m]
    if all(s == top[0] for s in top):
        return top[0], rest
    return None, stack


def ref_step(graph, s):
    if s.positive and s.path == ():
        return "positive at the conclusion with a nonempty stack" if s.stack else None

    if not s.positive:
        node = graph.node(s.path)
        if isinstance(node, AxiomRule):
            other = 2 if s.pos == 1 else 1
            return replace(s, pos=other, ctx=dual_context(s.ctx), positive=True), None
        if isinstance(node, QRule):
            m = node.arity
            want = DIA_S if s.pos == 1 else BOX_S
            head = s.ctx.steps[:m]
            if len(head) < m or any(k != want for k in head):
                return "context does not carry the modal prefix of the formula"
            prem = node.diamond_source if s.pos == 1 else node.box_source
            return replace(s, path=s.path + (0,), pos=prem,
                           ctx=Context(s.ctx.steps[m:]), stack=s.stack + (want,) * m), None
        src = premise_source(node, s.pos)
        if src is not None:
            return replace(s, path=s.path + (src[0],), pos=src[1]), None
        name, left, right = (("par", PAR_L, PAR_R) if isinstance(node, ParRule)
                             else ("tensor", TENS_L, TENS_R))
        if not s.ctx.steps:
            return f"empty context at a {name} principal formula"
        kind = s.ctx.steps[0]
        inner = Context(s.ctx.steps[1:])
        if kind == left:
            return replace(s, path=s.path + (0,), pos=node.i, ctx=inner), None
        if kind == right:
            k = 0 if name == "par" else 1
            return replace(s, path=s.path + (k,), pos=node.j, ctx=inner), None
        return f"context does not enter the {name} formula"

    parent_path, k = s.path[:-1], s.path[-1]
    q = graph.node(parent_path)
    if isinstance(q, QRule):
        m = q.arity
        sym, rest = ref_pop_uniform(s.stack, m)
        if sym is None:
            return "stack does not carry a uniform block for the box exit"
        offset = depth(s.ctx)
        event = None
        if s.pos == q.diamond_source:
            ctx = Context((DIA_S,) * m + s.ctx.steps)
            if sym == BOX_S:
                event = GateEvent(q.gate, offset, forward=False)
            nxt = replace(s, path=parent_path, pos=1, ctx=ctx, stack=rest)
        elif s.pos == q.box_source:
            ctx = Context((BOX_S,) * m + s.ctx.steps)
            if sym == DIA_S:
                event = GateEvent(q.gate, offset, forward=True)
            nxt = replace(s, path=parent_path, pos=2, ctx=ctx, stack=rest)
        else:
            return "box exit from an unknown premise position"
        if event is not None and nxt.register is not None:
            reg = nxt.register
            amps = apply_gate(event.applied().data, reg.amplitudes, event.offset)
            nxt = replace(nxt, register=StateVector(reg.n_qubits, amps))
        return nxt, event
    pos = conclusion_position(q, k, s.pos)
    if pos is not None:
        return replace(s, path=parent_path, pos=pos), None
    if isinstance(q, CutRule):
        k2, pos2 = (1, q.j) if k == 0 else (0, q.i)
        return replace(s, path=parent_path + (k2,), pos=pos2,
                       ctx=dual_context(s.ctx), positive=False), None
    left, right = (PAR_L, PAR_R) if isinstance(q, ParRule) else (TENS_L, TENS_R)
    entered = left if k == 0 and s.pos == q.i else right
    return replace(s, path=parent_path, pos=len(q.conclusion),
                   ctx=Context((entered,) + s.ctx.steps)), None


def ref_trace_line(graph, s):
    f = graph.formula(s.path, s.pos)
    pol = "P" if s.positive else "N"
    return (f"{path_str(s.path)}#{s.pos} {print_formula(f)} | {print_context(s.ctx, f)} "
            f"| {s.stack_str() or 'e'} | {pol}")


def ref_run(graph, start, collect_trace=False):
    bound = graph.legal_state_bound() + 2
    cur = start
    events = []
    trace = []
    steps = 0
    while True:
        if len(cur.stack) != graph.nesting[cur.path]:
            raise MachineError("illegal stack length; unreachable from initial states")
        if collect_trace:
            trace.append(ref_trace_line(graph, cur))
        res = ref_step(graph, cur)
        if res is None:
            return RunResult(cur, tuple(events), steps, tuple(trace))
        if isinstance(res, str):
            raise MachineError(f"machine stuck: {res}")
        cur, ev = res
        if ev is not None:
            events.append(ev)
            if collect_trace:
                arrow = "" if ev.forward else " (adjoint)"
                trace.append(f"  apply {ev.gate.name or 'gate'}{arrow} at offset {ev.offset}")
        steps += 1
        if steps > bound:
            raise MachineError("run exceeded the legal-state bound")


# ---------------------------------------------------------------------------


def same_state(a, b):
    """Equal fields, with registers equal bit for bit."""
    if (a.path, a.pos, a.ctx, a.positive, a.stack) != (b.path, b.pos, b.ctx, b.positive, b.stack):
        return False
    if a.register is None or b.register is None:
        return a.register is b.register
    return a.register.amplitudes.tobytes() == b.register.amplitudes.tobytes()


def same_events(got, want):
    return len(got) == len(want) and all(
        a.gate is b.gate and a.offset == b.offset and a.forward == b.forward
        for a, b in zip(got, want))


def test_run_matches_the_path_based_run():
    """Every entry of the acceptance corpus and of both golden circuits, run once
    without a register or trace, once with a random register and a trace, and once on
    |0…0>, whose zero amplitudes keep the sign each applied gate gives them."""
    rng = random.Random(13)
    runs = 0
    for p in random_corpus(20260811, 1000) + golden_proofs():
        graph, ref = OccurrenceGraph(p), RefGraph(p)
        for k, ctx in negative_entries(p):
            for reg, traced in ((None, False), (rand_register(rng, depth(ctx)), True),
                                (zero_state(depth(ctx)), False)):
                start = initial_state(graph, k, ctx, reg)
                got = run(graph, start, collect_trace=traced)
                want = ref_run(ref, start, collect_trace=traced)
                assert got.steps == want.steps
                assert same_events(got.events, want.events)
                assert same_state(got.final, want.final)
                assert got.trace == want.trace
                runs += 1
    assert runs > 3000


def test_legal_state_bound_equals_the_path_keyed_sum():
    chain = AxiomRule(Atom("a"))
    for d in range(600):
        chain = QRule(1 + d % 2, identity_gate(1 + d % 2), chain)
    for p in random_corpus(20260811, 1000) + golden_proofs() + [chain]:
        assert OccurrenceGraph(p).legal_state_bound() == RefGraph(p).legal_state_bound()


def test_a_run_without_a_trace_converts_only_its_ends(monkeypatch):
    calls = []
    for name in ("path_of", "node_id"):
        method = getattr(OccurrenceGraph, name)
        monkeypatch.setattr(OccurrenceGraph, name,
                            lambda self, arg, method=method: calls.append(arg) or method(self, arg))
    p = golden_proofs()[0]
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    res = run(graph, initial_state(graph, k, ctx, zero_state(depth(ctx))))
    assert res.steps > 500
    assert calls == [(), 0]  # the start's path to an id, the final id to a path
    calls.clear()
    traced = run(graph, initial_state(graph, k, ctx), collect_trace=True)
    assert len(calls) > traced.steps  # each traced state is shown with its path


def test_paths_and_node_ids_round_trip():
    for p in random_corpus(20260811, 200) + golden_proofs():
        graph = OccurrenceGraph(p)
        paths = [graph.path_of(i) for i in range(len(graph.node_by_id))]
        assert dict(zip(paths, graph.node_by_id)) == dict(iter_nodes(p))
        assert dict(zip(paths, graph.nest)) == RefGraph(p).nesting
        for i, path in enumerate(paths):
            assert graph.node_id(path) == i
    graph = OccurrenceGraph(parse_proof("(cut 2 1 (q 1 H (ax a)) (q 1 H (ax a)))"))
    for path in [(0, 1), (2,), (0, 0, 0), (-1,)]:
        with pytest.raises(PreconditionError, match=f"no node at path {path_str(path)}$"):
            graph.node_id(path)


def test_every_step_checks_the_stack_length_and_the_bound(monkeypatch):
    graph = OccurrenceGraph(parse_proof("(q 1 H (ax a))"))
    with pytest.raises(MachineError, match="illegal stack length"):
        run(graph, MachineState((), 1, Context((DIA_S,)), False, (DIA_S,)))
    p = golden_proofs()[0]
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    start = initial_state(graph, k, ctx)
    steps = run(graph, start).steps
    monkeypatch.setattr(OccurrenceGraph, "legal_state_bound", lambda self: steps - 3)
    with pytest.raises(MachineError, match="run exceeded the legal-state bound"):
        run(graph, start)
