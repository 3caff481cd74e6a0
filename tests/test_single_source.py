"""Functions that now read their facts from one place, against the copies they replaced.

The references below are the code as it was before:
- `mll_axiom_link_matrix` did its own par/tensor position arithmetic, recursively;
- `canonical_form` walked a path-keyed post-order;
- `print_context` spelled the formula syntax a second time, recursively;
- `run` applied each gate event to the register while it routed.
Each must give the same matrix or error, canonical proof, string, register bits and trace.
"""

import random

import numpy as np
import pytest

from qmll import PreconditionError, QmllError, parse_proof
from qmll.cli import main
from qmll.cutelim import (Redex, _identity, _rebuild, canonical_form, find_redexes, normalize,
                          step)
from qmll.errors import MachineError, StaleRedexError
from qmll.formulas import (BOX_S, PAR_L, PAR_R, TENS_L, TENS_R, Atom, contexts_for, depth,
                           dual, print_context, print_formula)
from qmll.matrices import StateVector, apply_gate
from qmll.proofs import (AxiomRule, CutRule, ParRule, QRule, TensorRule, children, iter_nodes,
                         mll_axiom_link_matrix, path_str, print_proof)
from qmll.qiam import (MachineState, OccurrenceGraph, RunResult, _move, initial_state,
                       negative_entries, run)

from gen import random_corpus
from test_qiam import golden_proofs, rand_register
from test_router import same_events, same_state


def ref_mll_axiom_link_matrix(p):
    next_link = 0

    def go(node):
        nonlocal next_link
        match node:
            case AxiomRule(f):
                if not isinstance(f, Atom):
                    raise PreconditionError(f"non-atomic axiom on {print_formula(f)}")
                link = next_link
                next_link += 1
                return [[link], [link]]
            case CutRule():
                raise PreconditionError("proof contains a cut")
            case QRule():
                raise PreconditionError("proof contains a quantum rule")
            case ParRule(i, j, s):
                leaves = go(s)
                merged = leaves[i - 1] + leaves[j - 1]
                rest = [lv for k, lv in enumerate(leaves, start=1) if k not in (i, j)]
                return rest + [merged]
            case TensorRule(i, j, l, r):
                ll, rl = go(l), go(r)
                merged = ll[i - 1] + rl[j - 1]
                rest = [lv for k, lv in enumerate(ll, start=1) if k != i]
                rest += [lv for k, lv in enumerate(rl, start=1) if k != j]
                return rest + [merged]
        raise QmllError(f"not a proof node: {node!r}")

    flat = [link for leaves in go(p) for link in leaves]
    m = np.zeros((len(flat), len(flat)), dtype=int)
    by_link = {}
    for idx, link in enumerate(flat):
        by_link.setdefault(link, []).append(idx)
    for a, b in by_link.values():
        m[a, b] = m[b, a] = 1
    return m


def ref_canonical_form(p):
    done = {}
    for path, node in iter_nodes(p):
        if isinstance(node, AxiomRule):
            other = dual(node.formula)
            if print_formula(other) < print_formula(node.formula):
                done[path] = AxiomRule(other), (2, 1)
            else:
                done[path] = node, (1, 2)
            continue
        cur, sigma = node, _identity(len(node.conclusion))
        for k in range(len(children(node))):
            child, sig = done.pop(path + (k,))
            cur, sig_out = _rebuild(cur, k, child, sig)
            sigma = tuple(sig_out[x - 1] for x in sigma)
        done[path] = cur, sigma
    return done[()][0]


def ref_print_context(c, f):
    def render(i, g):
        if i == len(c.steps):
            return "[.]"
        kind = c.steps[i]
        if kind == PAR_L:
            return f"({render(i + 1, g.left)} % {print_formula(g.right)})"
        if kind == PAR_R:
            return f"({print_formula(g.left)} % {render(i + 1, g.right)})"
        if kind == TENS_L:
            return f"({render(i + 1, g.left)} * {print_formula(g.right)})"
        if kind == TENS_R:
            return f"({print_formula(g.left)} * {render(i + 1, g.right)})"
        if kind == BOX_S:
            return f"[] {render(i + 1, g.body)}"
        return f"<> {render(i + 1, g.body)}"

    return render(0, f)


def ref_trace_line(s, f):
    pol = "P" if s.positive else "N"
    return (f"{path_str(s.path)}#{s.pos} {print_formula(f)} | {ref_print_context(s.ctx, f)} "
            f"| {s.stack_str() or 'e'} | {pol}")


def ref_run(graph, start, collect_trace=False):
    bound = graph.legal_state_bound() + 2
    i, pos, ctx, positive, stack, register = (graph.node_id(start.path), start.pos, start.ctx,
                                              start.positive, start.stack, start.register)
    events, trace, steps = [], [], 0
    while True:
        if len(stack) != graph.nest[i]:
            raise MachineError("illegal stack length; unreachable from initial states")
        if collect_trace:
            s = MachineState(graph.path_of(i), pos, ctx, positive, stack)
            trace.append(ref_trace_line(s, graph.node_by_id[i].conclusion[pos - 1]))
        res = _move(graph, i, pos, ctx, positive, stack)
        if res is None:
            final = MachineState(graph.path_of(i), pos, ctx, positive, stack, register)
            return RunResult(final, tuple(events), steps, tuple(trace))
        if isinstance(res, str):
            raise MachineError(f"machine stuck: {res}")
        i, pos, ctx, positive, stack, event = res
        if event is not None:
            events.append(event)
            if register is not None:
                amps = apply_gate(event.applied().data, register.amplitudes, event.offset)
                register = StateVector(register.n_qubits, amps)
            if collect_trace:
                arrow = "" if event.forward else " (adjoint)"
                trace.append(f"  apply {event.gate.name or 'gate'}{arrow} at offset {event.offset}")
        steps += 1
        if steps > bound:
            raise MachineError("run exceeded the legal-state bound")


def outcome(f, p):
    """f(p), or the type and message of the error it raises."""
    try:
        return f(p)
    except QmllError as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------


CORPUS = random_corpus(20260811, 1000)


def test_step_fires_only_the_nodes_own_redex():
    p = parse_proof("(cut 2 1 (ax a) (ax a))")
    assert find_redexes(p) == [Redex("AxiomRed", (), ("right",))]
    with pytest.raises(StaleRedexError, match="not the node's own redex"):
        step(p, Redex("AxiomRed", (), ("left",)))


def test_link_matrix_matches_the_recursive_reading():
    proofs = CORPUS + golden_proofs()
    proofs += [normalize(p).final for p in CORPUS[:300]]
    matrices = 0
    for p in proofs:
        got, want = outcome(mll_axiom_link_matrix, p), outcome(ref_mll_axiom_link_matrix, p)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)
            matrices += 1
    assert matrices > 50


def test_link_matrix_of_a_shared_axiom_equals_the_unshared_one():
    ax = AxiomRule(Atom("a"))
    shared = ParRule(1, 3, TensorRule(2, 2, ax, ax))
    unshared = ParRule(1, 3, TensorRule(2, 2, AxiomRule(Atom("a")), AxiomRule(Atom("a"))))
    assert np.array_equal(mll_axiom_link_matrix(shared), mll_axiom_link_matrix(unshared))
    assert np.array_equal(mll_axiom_link_matrix(shared), ref_mll_axiom_link_matrix(unshared))


def test_canonical_form_matches_the_path_keyed_walk():
    for p in CORPUS + golden_proofs():
        assert print_proof(canonical_form(p)) == print_proof(ref_canonical_form(p))


def test_print_context_matches_the_recursive_renderer():
    seen = 0
    for p in CORPUS + golden_proofs():
        for f in p.conclusion:
            for ctx, _ in contexts_for(f):
                assert print_context(ctx, f) == ref_print_context(ctx, f)
                seen += 1
    assert seen > 3000


def test_run_matches_the_run_that_applied_events_while_routing():
    """Registers bit for bit, events, steps and trace lines: the trace shows every
    context the token passes through."""
    rng = random.Random(15)
    runs = 0
    for p in CORPUS + golden_proofs():
        graph = OccurrenceGraph(p)
        for k, ctx in negative_entries(p):
            for reg, traced in ((None, False), (rand_register(rng, depth(ctx)), True)):
                start = initial_state(graph, k, ctx, reg)
                got = run(graph, start, collect_trace=traced)
                want = ref_run(graph, start, collect_trace=traced)
                assert got.steps == want.steps and got.trace == want.trace
                assert same_events(got.events, want.events)
                assert same_state(got.final, want.final)
                runs += 1
    assert runs > 2000


def test_a_run_without_events_returns_the_start_register():
    p = parse_proof("(ax a)")
    graph = OccurrenceGraph(p)
    ((k, ctx),) = negative_entries(p)
    start = initial_state(graph, k, ctx, rand_register(random.Random(3), depth(ctx)))
    res = run(graph, start)
    assert res.events == () and res.final.register is start.register


def test_link_matrix_and_traced_run_on_a_1200_deep_tensor_chain(tmp_path):
    p = AxiomRule(Atom("a"))
    for _ in range(1200):
        p = TensorRule(len(p.conclusion), 2, p, AxiomRule(Atom("a")))
    f = tmp_path / "chain.proof"
    f.write_text(print_proof(p))
    out = tmp_path / "out.txt"
    assert main(["mll-matrix", str(f), "-o", str(out)]) == 0
    assert out.read_text().startswith('{"size":2402,')
    assert main(["run", str(f), "--context", "1", "--trace-machine", "-o", str(out)]) == 0
    assert out.read_text().startswith('{"exit":')
