import random
from pathlib import Path

import numpy as np
import pytest

from qmll import (AxiomRule, MachineError, PreconditionError, QmllError, QRule, StateVector,
                  basis_state, circuit_from_json, encode, identity_gate, normalize, parse_proof,
                  semantics_relative, zero_state)
from qmll.cutelim import compose_perms, find_redexes, step
from qmll.formulas import (BOX_S, DIA_S, HOLE, PAR_L, TENS_L, Atom, Context, depth, hole_atom,
                           print_context)
from qmll.matrices import approx_equal, gate_by_name
from qmll.proofs import iter_nodes
from qmll.qiam import (MachineState, OccurrenceGraph, _move, extract_gate_sequence,
                       initial_state, negative_entries, run, semantics_relative)

from gen import random_circuit, random_corpus

FIG4 = ("(cut 2 1 (cut 2 1 (q 1 I1 (q 1 H (ax a))) (q 1 X (q 1 Z (ax a)))) "
        "(q 2 CNOT (ax a)))")

H = gate_by_name("H").data
Z = gate_by_name("Z").data
X = gate_by_name("X").data
CNOT = gate_by_name("CNOT").data
FIG4_ORACLE = CNOT @ np.kron(Z, X) @ np.kron(H, np.eye(2))


def entry_of(p):
    entries = negative_entries(p)
    assert len(entries) == 1
    return entries[0]


def rand_register(rng, n):
    rs = np.random.RandomState(rng.randrange(2**31))
    v = rs.normal(size=2**n) + 1j * rs.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def test_axiom_turnaround():
    p = parse_proof("(ax a)")
    graph = OccurrenceGraph(p)
    start = initial_state(graph, 1, Context(()))
    res = run(graph, start)
    assert res.final.pos == 2 and res.final.positive and res.final.stack == ()
    assert res.events == () and res.steps == 1


def test_single_quantum_rule_flow():
    # entry pushes a diamond, axiom turns around, exit applies H at offset 0
    p = parse_proof("(q 1 H (ax a))")
    k, ctx = entry_of(p)
    res = semantics_relative(p, k, ctx)
    assert approx_equal(res.unitary.data, H, 1e-12)
    assert len(res.events) == 1
    ev = res.events[0]
    assert ev.offset == 0 and ev.forward


def test_identity_proof_preserves_any_register():
    p = parse_proof("(q 3 I3 (ax a))")
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    rng = random.Random(1)
    for _ in range(5):
        reg = rand_register(rng, 3)
        res = run(graph, initial_state(graph, k, ctx, reg))
        assert np.max(np.abs(res.final.register.amplitudes - reg.amplitudes)) <= 1e-12


def test_hadamard_on_second_qubit():
    p = parse_proof("(q 1 I1 (q 1 H (q 1 I1 (ax a))))")
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    res = run(graph, initial_state(graph, k, ctx, basis_state("000")))
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b010] = 1 / np.sqrt(2)
    assert np.max(np.abs(res.final.register.amplitudes - want)) <= 1e-12


def test_hadamard_then_cnot():
    p = parse_proof("(q 2 CNOT (q 1 H (ax a)))")
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    res = run(graph, initial_state(graph, k, ctx, basis_state("000")))
    # H on qubit 1, then CNOT on qubits 2,3 with control qubit 2 still |0>
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b100] = 1 / np.sqrt(2)
    assert np.max(np.abs(res.final.register.amplitudes - want)) <= 1e-12


def test_fig4_semantics_matches_oracle():
    p = parse_proof(FIG4)
    k, ctx = entry_of(p)
    res = semantics_relative(p, k, ctx)
    assert approx_equal(res.unitary.data, FIG4_ORACLE, 1e-8)
    assert res.exit_pos == 2
    assert print_context(res.exit_ctx, p.conclusion[1]) == "[] [] [.]"


def test_identity_semantics():
    p = parse_proof("(q 3 I3 (ax a))")
    k, ctx = entry_of(p)
    res = semantics_relative(p, k, ctx)
    assert approx_equal(res.unitary.data, np.eye(8), 1e-12)


def test_extract_gate_sequence_examples():
    p = parse_proof("(q 1 I1 (q 1 H (q 1 I1 (ax a))))")
    k, ctx = entry_of(p)
    seq = extract_gate_sequence(p, k, ctx)
    non_identity = [(u, off) for u, off in seq
                    if not approx_equal(u.data, np.eye(2 ** u.dim_qubits), 1e-12)]
    assert len(non_identity) == 1
    u, off = non_identity[0]
    assert off == 1 and approx_equal(u.data, H, 1e-12)

    p4 = parse_proof(FIG4)
    k4, ctx4 = entry_of(p4)
    seq4 = extract_gate_sequence(p4, k4, ctx4)
    names = [(u.name, off) for u, off in seq4]
    assert names == [("H", 0), ("I1", 1), ("Z", 0), ("X", 1), ("CNOT", 0)]


def test_entry_must_be_negative():
    p = parse_proof("(q 1 H (ax a))")
    graph = OccurrenceGraph(p)
    pos_ctx = Context((BOX_S,))  # hole at the positive atom of [] a
    with pytest.raises(PreconditionError):
        initial_state(graph, 2, pos_ctx)


def test_register_must_match_context_depth():
    p = parse_proof("(q 1 H (ax a))")
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    with pytest.raises(PreconditionError):
        initial_state(graph, k, ctx, zero_state(2))


def test_norm_preserved_along_runs():
    rng = random.Random(8)
    for p in random_corpus(51, 60):
        graph = OccurrenceGraph(p)
        for k, ctx in negative_entries(p):
            reg = rand_register(rng, depth(ctx))
            res = run(graph, initial_state(graph, k, ctx, reg))
            assert abs(res.final.register.norm() - 1.0) <= 1e-8


def test_totality_all_entries():
    for p in random_corpus(52, 80):
        graph = OccurrenceGraph(p)
        for k, ctx in negative_entries(p):
            res = run(graph, initial_state(graph, k, ctx))
            assert res.final.positive and res.final.stack == ()
            assert res.steps <= graph.legal_state_bound()


def test_step_machine_deterministic_and_injective():
    """The machine's moves on node ids are reversible: no two states share a successor."""
    seen: dict = {}
    graphs = []  # keep alive so id() keys stay unique
    for p in random_corpus(53, 50):
        graph = OccurrenceGraph(p)
        graphs.append(graph)
        for k, ctx in negative_entries(p):
            start = initial_state(graph, k, ctx)
            cur = (graph.node_id(start.path), start.pos, start.ctx, start.positive, start.stack)
            while True:
                res = _move(graph, *cur)
                if res is None or isinstance(res, str):
                    break
                key = (id(graph),) + res[:5]
                if key in seen:
                    assert seen[key] == cur, "two states map to the same successor"
                seen[key] = cur
                cur = res[:5]


def test_uniformity_register_independent_routing():
    rng = random.Random(9)
    for p in random_corpus(54, 25):
        entries = negative_entries(p)
        if not entries:
            continue
        k, ctx = entries[0]
        graph = OccurrenceGraph(p)
        sem = semantics_relative(p, k, ctx)
        base_trace = None
        for _ in range(3):
            reg = rand_register(rng, depth(ctx))
            res = run(graph, initial_state(graph, k, ctx, reg), collect_trace=True)
            routing = tuple(res.trace)
            if base_trace is None:
                base_trace = routing
            else:
                assert routing == base_trace
            want = sem.unitary.data @ reg.amplitudes
            assert np.max(np.abs(res.final.register.amplitudes - want)) <= 1e-8


def test_semantics_invariant_under_reduction_steps():
    corpus = [p for p in random_corpus(55, 120)
              if len(p.conclusion) == 2 and negative_entries(p)]
    checked = 0
    for p in corpus[:40]:
        cur = p
        while True:
            rs = find_redexes(cur)
            if not rs:
                break
            new, sigma = step(cur, rs[0])
            for k, ctx in negative_entries(cur):
                before = semantics_relative(cur, k, ctx)
                after = semantics_relative(new, sigma[k - 1], ctx)
                assert approx_equal(before.unitary.data, after.unitary.data, 1e-8)
                checked += 1
            cur = new
    assert checked > 0


def test_semantics_agrees_with_normal_form():
    for p in random_corpus(56, 40):
        entries = negative_entries(p)
        if not entries:
            continue
        tr = normalize(p)
        sigma = compose_perms(tr.perms, len(p.conclusion))
        for k, ctx in entries:
            before = semantics_relative(p, k, ctx)
            after = semantics_relative(tr.final, sigma[k - 1], ctx)
            assert approx_equal(before.unitary.data, after.unitary.data, 1e-8)


def test_reverse_composition_gives_identity():
    # cutting a proof against the encoding of its inverse circuit composes
    # the unitary with its adjoint
    from qmll import CutRule, adjoint, encode, extract
    for text in ["(q 1 H (ax a))", "(q 2 CNOT (q 1 H (ax a)))", FIG4]:
        p = parse_proof(text)
        k, ctx = entry_of(p)
        circ = extract(p, k, ctx)
        inverse = type(circ)(circ.n_qubits,
                             tuple((adjoint(u), t) for u, t in reversed(circ.gates)))
        composed = CutRule(2, 1, p, encode(inverse))
        res = semantics_relative(composed, 1, ctx)
        assert approx_equal(res.unitary.data, np.eye(2 ** depth(ctx)), 1e-8)


def test_illegal_stack_never_reached_but_guarded():
    p = parse_proof("(q 1 H (ax a))")
    graph = OccurrenceGraph(p)
    k, ctx = entry_of(p)
    from qmll.qiam import MachineState
    bad = MachineState((0,), 1, Context(()), False, ())  # stack too short
    with pytest.raises(MachineError):
        run(graph, bad)


@pytest.mark.parametrize("start, traced, message", [
    (MachineState((5,), 1, HOLE, False, ()), False, "no node at path 5$"),
    (MachineState((), 7, HOLE, False, ()), False, "no position 7 at path root$"),
    (MachineState((), 7, HOLE, False, ()), True, "no position 7 at path root$"),
    (MachineState((), 0, HOLE, False, ()), True, "no position 0 at path root$"),
])
def test_run_refuses_a_start_that_names_no_occurrence(start, traced, message):
    graph = OccurrenceGraph(parse_proof("(par 1 2 (ax a))"))
    with pytest.raises(PreconditionError, match=message):
        run(graph, start, collect_trace=traced)


@pytest.mark.parametrize("traced", [False, True])
def test_run_refuses_a_start_context_that_does_not_fit_its_formula(traced):
    graph = OccurrenceGraph(parse_proof("(ax a)"))
    start = MachineState((), 1, Context((PAR_L,)), False, ())
    with pytest.raises(QmllError, match="^context does not match formula$"):
        run(graph, start, collect_trace=traced)


def test_every_state_fits_its_formula_with_the_hole_atom_in_its_direction():
    """A context holds only step kinds: the formula it belongs to holds everything else.
    Along every run from every negative entry, each state's context fits the formula of
    its occurrence, and the atom at its hole is positive exactly when the token is."""
    states = 0
    for p in random_corpus(20260811, 1000) + golden_proofs():
        graph = OccurrenceGraph(p)
        for k, ctx in negative_entries(p):
            start = initial_state(graph, k, ctx)
            cur = (graph.node_id(start.path), start.pos, start.ctx, start.positive, start.stack)
            while cur is not None:
                i, pos, ctx, positive, stack = cur
                assert all(type(kind) is str for kind in ctx.steps + stack)
                atom = hole_atom(ctx, graph.node_by_id[i].conclusion[pos - 1])
                assert atom.positive == positive
                states += 1
                res = _move(graph, *cur)
                assert not isinstance(res, str), res
                cur = None if res is None else res[:5]
    assert states > 15000


# ---------------------------------------------------------------------------
# every way the machine can get stuck, on hand-built states

STUCK_CASES = {
    "positive at the conclusion with a nonempty stack":
        ("(ax a)", MachineState((), 2, HOLE, True, (DIA_S,))),
    "empty context at a par principal formula":
        ("(par 1 2 (ax a))", MachineState((), 1, HOLE, False, ())),
    "context does not enter the par formula":
        ("(par 1 2 (ax a))", MachineState((), 1, Context((TENS_L,)), False, ())),
    "empty context at a tensor principal formula":
        ("(tensor 1 1 (ax a) (ax b))", MachineState((), 3, HOLE, False, ())),
    "context does not enter the tensor formula":
        ("(tensor 1 1 (ax a) (ax b))", MachineState((), 3, Context((PAR_L,)), False, ())),
    "context does not carry the modal prefix of the formula":
        ("(q 1 H (ax a))", MachineState((), 1, Context((BOX_S,)), False, ())),
    "stack does not carry a uniform block for the box exit":
        ("(q 2 CNOT (ax a))", MachineState((0,), 2, HOLE, True, (DIA_S, BOX_S))),
    "box exit from an unknown premise position":
        ("(q 1 H (ax a))", MachineState((0,), 3, HOLE, True, (DIA_S,))),
}


@pytest.mark.parametrize("reason", sorted(STUCK_CASES))
def test_step_machine_stuck_reasons(reason):
    text, s = STUCK_CASES[reason]
    graph = OccurrenceGraph(parse_proof(text))
    assert _move(graph, graph.node_id(s.path), s.pos, s.ctx, s.positive, s.stack) == reason


# ---------------------------------------------------------------------------
# the gate kernel against the code it replaced, kept here as the reference:
# semantics multiplied a dense Kronecker embedding per event, and run
# applied each gate to the register with tensordot

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {"deep-3q-120g": (7001, 3, 120), "wide-7q-30g": (7002, 7, 30)}  # as test_golden


def golden_proofs():
    """Both golden circuits, as encoded and as their recorded normal forms."""
    out = []
    for name, case in sorted(GOLDEN_CASES.items()):
        out.append(encode(circuit_from_json(random_circuit(*case))))
        out.append(parse_proof((GOLDEN / f"{name}.nf").read_text()))
    return out


def ref_embed_semantics(proof, entry_pos, ctx):
    graph = OccurrenceGraph(proof)
    res = run(graph, initial_state(graph, entry_pos, ctx))
    n = depth(ctx)
    u = np.eye(2 ** n, dtype=complex)
    for ev in res.events:
        k = ev.gate.dim_qubits
        left = np.eye(2 ** ev.offset, dtype=complex)
        right = np.eye(2 ** (n - ev.offset - k), dtype=complex)
        u = np.kron(np.kron(left, ev.applied().data), right) @ u
    return u


def ref_tensordot_apply(u, k, state, n, offset):
    t = state.reshape((2,) * n)
    axes = list(range(offset, offset + k))
    moved = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    moved = np.moveaxis(moved, list(range(k)), axes)
    return np.ascontiguousarray(moved).reshape(-1)


def test_semantics_equals_the_dense_embedding_composition():
    """Every entry of the acceptance corpus and of both golden circuits.

    The sums are the same, term for term, so the values are equal exactly.
    Only the sign of an exact zero may differ: the dense product also added
    the embedding's structural zeros, and `np.kron` multiplied every gate
    entry by 1+0j (in the corpus one entry of one proof reads -0 there, +0
    here). The golden circuits agree byte for byte.
    """
    entries = 0
    for p in random_corpus(20260811, 1000):
        for k, ctx in negative_entries(p):
            got = semantics_relative(p, k, ctx).unitary.data
            assert np.array_equal(got, ref_embed_semantics(p, k, ctx))
            entries += 1
    assert entries > 1000
    for p in golden_proofs():
        k, ctx = entry_of(p)
        got = semantics_relative(p, k, ctx).unitary.data
        assert got.tobytes() == ref_embed_semantics(p, k, ctx).tobytes()


def test_run_matches_the_tensordot_path():
    rng = random.Random(12)
    proofs = random_corpus(20260811, 300) + golden_proofs()
    for p in proofs:
        graph = OccurrenceGraph(p)
        for k, ctx in negative_entries(p):
            n = depth(ctx)
            reg = rand_register(rng, n)
            res = run(graph, initial_state(graph, k, ctx, reg))
            want = reg.amplitudes
            for ev in res.events:
                want = ref_tensordot_apply(ev.applied().data, ev.gate.dim_qubits, want, n,
                                           ev.offset)
            assert np.max(np.abs(res.final.register.amplitudes - want), initial=0) <= 1e-12


# ---------------------------------------------------------------------------
# OccurrenceGraph nesting against the sum over ancestors it replaced

def ref_nesting(graph):
    """Per node id, the arities summed over the quantum rules on the node's path."""
    nodes = dict(iter_nodes(graph.proof))
    paths = map(graph.path_of, range(len(graph.node_by_id)))
    return [sum(node.arity for node in (nodes[path[:k]] for k in range(len(path)))
                if isinstance(node, QRule))
            for path in paths]


def test_nesting_equals_the_sum_over_ancestors():
    for p in random_corpus(20260811, 1000) + golden_proofs():
        graph = OccurrenceGraph(p)
        assert graph.nest == ref_nesting(graph)


def test_nesting_on_a_deep_chain():
    p = AxiomRule(Atom("a"))
    for depth_now in range(800):
        p = QRule(1 + depth_now % 2, identity_gate(1 + depth_now % 2), p)
    graph = OccurrenceGraph(p)
    assert graph.nest == ref_nesting(graph)
    assert graph.nest[graph.node_id((0,) * 800)] == 1200
