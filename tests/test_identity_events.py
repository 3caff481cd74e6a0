"""The token machine skips an identity event wherever its dense product would give the
array back byte for byte, and applies it densely elsewhere (`matrices.identity_keeps` and
`matrices.zero_signs_exact`)."""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from qmll import circuit_from_json, encode, identity_gate, parse_proof, semantics_relative
from qmll import qiam
from qmll.formulas import depth
from qmll.matrices import (apply_gate, basis_state, identity_keeps, zero_signs_exact,
                           zero_state)
from qmll.qiam import GateEvent, OccurrenceGraph, initial_state, negative_entries, run

from gen import random_circuit
from test_qiam import entry_of, golden_proofs

# exact zeros, subnormals on both sides of zero, the smallest normal and extremes
POOL = np.array([0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 2.2250738585072014e-308, 1.0,
                 -1.0, 0.5, -3.0e300, 1e-300])


def signed_zeros(a):
    """How many real or imaginary parts of a are -0.0, counted by sign bit, not by bit pattern."""
    parts = np.stack([a.real, a.imag])
    return int(np.count_nonzero((parts == 0) & np.signbit(parts)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), cols=st.sampled_from([None, 1, 3, "square"]),
       seed=st.integers(0, 2**32 - 1))
def test_an_identity_gives_back_every_array_without_a_negative_zero(n, cols, seed):
    """Every k and offset whose product `zero_signs_exact` admits, with the eye as float and
    as the identity gate's complex data."""
    rng = np.random.default_rng(seed)
    shape = (2**n,) if cols is None else (2**n, 2**n if cols == "square" else cols)
    parts = np.where(rng.random(shape + (2,)) < 0.6, rng.choice(POOL, shape + (2,)),
                     rng.standard_normal(shape + (2,)))
    a = np.ascontiguousarray((parts + 0.0).view(complex)[..., 0])  # + 0.0 makes -0 into +0
    assert signed_zeros(a) == 0 and identity_keeps(a)
    for k in range(1, n + 1):
        for offset in filter(lambda o: zero_signs_exact(a, o, k), range(n - k + 1)):
            for eye in (np.eye(2**k), identity_gate(k).data):
                assert apply_gate(eye, a, offset).tobytes() == a.tobytes()
    flat = a.reshape(-1).view(float)
    flat[rng.integers(flat.size)] = -0.0
    assert not identity_keeps(a)


def test_identity_keeps_reads_a_strided_array():
    a = np.zeros((4, 4), dtype=complex)
    a[1, 2] = complex(-0.0, 1.0)
    assert identity_keeps(a[:, 1::2]) and identity_keeps(a[::2])
    assert not identity_keeps(a[:, 2]) and not identity_keeps(a.T)


def test_an_array_with_a_negative_zero_gets_the_dense_product(monkeypatch):
    """The dense product makes the -0 +0, so the first identity is applied and the second,
    which meets no -0, is skipped."""
    a = np.array([[-0.0, 0.6], [0.8, 0.0]]).view(complex).ravel()
    dense = apply_gate(identity_gate(1).data, a, 0)
    assert signed_zeros(a) == 1 and signed_zeros(dense) == 0
    calls = []
    monkeypatch.setattr(qiam, "apply_gate", lambda u, b, k: calls.append(u) or apply_gate(u, b, k))
    events = [GateEvent(identity_gate(1), 0, True), GateEvent(identity_gate(1), 0, False)]
    assert qiam._apply(events, a).tobytes() == dense.tobytes() != a.tobytes()
    assert len(calls) == 1


def test_a_product_with_two_trailing_columns_stays_dense(monkeypatch):
    """A 2x2 array has 2 columns behind a 1-qubit gate: the identity is applied though no part
    is -0, as OpenBLAS's kernel for those columns may sign a zero otherwise."""
    a = np.array([[0.0, 1.0], [-1.0, 1.0]], dtype=complex)
    assert identity_keeps(a) and not zero_signs_exact(a, 0, 1)
    calls = []
    monkeypatch.setattr(qiam, "apply_gate", lambda u, b, k: calls.append(u) or apply_gate(u, b, k))
    got = qiam._apply([GateEvent(identity_gate(1), 0, True)], a)
    assert len(calls) == 1
    assert got.tobytes() == apply_gate(identity_gate(1).data, a, 0).tobytes()


def test_identity_calls_are_the_events_that_meet_a_negative_zero(monkeypatch):
    """On the golden `wide` circuit's semantics and its runs on |0…0> and |1…1>: the identity
    gates `_apply` hands to `apply_gate` are as many as the identity events whose array,
    replayed densely, holds a -0 part, or whose product has 2 trailing columns."""
    p = golden_proofs()[2]
    k, ctx = entry_of(p)
    n = depth(ctx)
    identity_calls = []
    monkeypatch.setattr(qiam, "apply_gate", lambda u, a, offset: identity_calls.append(
        np.array_equal(u, np.eye(len(u)))) or apply_gate(u, a, offset))
    graph = OccurrenceGraph(p)
    identity_events = unskippable = 0
    for start in (None, zero_state(n), basis_state("1" * n)):
        identity_calls.clear()
        if start is None:
            res, a = semantics_relative(p, k, ctx), np.eye(2**n, dtype=complex)
        else:
            res, a = run(graph, initial_state(graph, k, ctx, start)), start.amplitudes
        meets = 0
        for ev in res.events:
            if ev.gate.is_identity:
                identity_events += 1
                meets += signed_zeros(a) > 0 or a.size >> (ev.offset + ev.gate.dim_qubits) == 2
            a = apply_gate(ev.applied().data, a, ev.offset)
        assert sum(identity_calls) == meets
        unskippable += meets
    assert identity_events > 100 and 0 < unskippable < identity_events


def test_the_ten_qubit_unitary_keeps_its_bytes():
    """`random_circuit(7, 10, 30)` meets `I9` events; its unitary's sha256 was recorded when
    every identity event was applied densely."""
    p = encode(circuit_from_json(random_circuit(7, 10, 30)))
    res = semantics_relative(p, *entry_of(p))
    assert max(ev.gate.dim_qubits for ev in res.events if ev.gate.is_identity) == 9
    assert hashlib.sha256(res.unitary.data.tobytes()).hexdigest() == (
        "8ab6f2d6973f6d8a41f1cdee8b786b84da863a2af32fe3a2db7b40bd7ea03037")


def test_a_one_qubit_unitary_keeps_the_zero_sign_its_dense_product_gives():
    """Each of these unitaries meets its `I1` as a 2x2 array with 2 trailing columns and no -0
    part. OpenBLAS's kernel for those columns writes `[-0,0]` at the top left there, which
    skipping the identity on the strength of `identity_keeps` alone would print as `[0,0]`."""
    for text in ("(cut 2 1 (cut 2 1 (q 1 Y (ax a)) (q 1 S (ax a))) (q 1 I1 (ax a)))",
                 "(cut 2 1 (q 1 Y (ax a)) (cut 2 1 (q 1 T (ax a)) (q 1 I1 (ax a))))"):
        p = parse_proof(text)
        for k, ctx in negative_entries(p):
            res = semantics_relative(p, k, ctx)
            assert any(ev.gate.is_identity for ev in res.events)
            want = np.eye(2, dtype=complex)
            for ev in res.events:
                want = apply_gate(ev.applied().data, want, ev.offset)
            assert res.unitary.data.tobytes() == want.tobytes()
