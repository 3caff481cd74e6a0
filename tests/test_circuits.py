import json
import random

import numpy as np
import pytest

from qmll import (Circuit, DimensionError, PreconditionError, StateVector, UnitaryMatrix,
                  basis_state, check, circuit_from_json, circuit_to_json, circuit_unitary,
                  embed_gate, encode, extract, gate_by_name, normalize, parse_proof,
                  print_proof, semantics_relative, simulate, zero_state)
from qmll.circuits import _apply_on_targets
from qmll.formulas import Box, Diamond, Par, Tensor
from qmll.matrices import approx_equal
from qmll.proofs import QRule, iter_nodes
from qmll.qiam import negative_entries

H = gate_by_name("H")
Z = gate_by_name("Z")
X = gate_by_name("X")
CNOT = gate_by_name("CNOT")

FIG4_JSON = ('{"qubits": 2, "gates": ['
             '{"gate": "H", "targets": [1]}, {"gate": "Z", "targets": [1]},'
             '{"gate": "X", "targets": [2]}, {"gate": "CNOT", "targets": [1, 2]}]}')

GOLDEN = {
    '{"qubits": 3, "gates": []}':
        "(q 3 I3 (ax a))",
    '{"qubits": 3, "gates": [{"gate": "H", "targets": [2]}]}':
        "(q 1 I1 (q 1 H (q 1 I1 (ax a))))",
    '{"qubits": 3, "gates": [{"gate": "H", "targets": [1]}, '
    '{"gate": "CNOT", "targets": [2, 3]}]}':
        "(q 2 CNOT (q 1 H (ax a)))",
    FIG4_JSON:
        "(cut 2 1 (cut 2 1 (q 1 I1 (q 1 H (ax a))) (q 1 X (q 1 Z (ax a)))) "
        "(q 2 CNOT (ax a)))",
}


def rand_unitary(rng, n):
    rs = np.random.RandomState(rng.randrange(2**31))
    dim = 2**n
    q, _ = np.linalg.qr(rs.normal(size=(dim, dim)) + 1j * rs.normal(size=(dim, dim)))
    return UnitaryMatrix(q)


def random_circuit(rng, m, depth):
    gates = []
    for _ in range(depth):
        k = rng.randint(1, min(2, m))
        targets = tuple(sorted(rng.sample(range(1, m + 1), k)))
        gates.append((rand_unitary(rng, k), targets))
    return Circuit(m, tuple(gates))


# --- simulate: the independent oracle ------------------------------------

def test_circuit_unitary_is_column_by_column_simulate_bit_for_bit():
    rng = random.Random(61)
    noncontiguous = 0
    for _ in range(120):
        m = rng.randint(1, 6)
        gates = []
        for _ in range(rng.randint(0, 10)):
            k = rng.randint(1, min(3, m))
            targets = tuple(sorted(rng.sample(range(1, m + 1), k)))
            noncontiguous += targets[-1] - targets[0] + 1 > k
            gates.append((rand_unitary(rng, k), targets))
        c = Circuit(m, tuple(gates))
        dim = 2**m
        columns = [simulate(c, StateVector(m, np.eye(dim)[:, j])).amplitudes
                   for j in range(dim)]
        assert circuit_unitary(c).data.tobytes() == np.stack(columns, axis=1).tobytes()
    assert noncontiguous > 50


def test_circuit_unitary_respects_the_qubit_cap(monkeypatch):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    with pytest.raises(PreconditionError):
        circuit_unitary(Circuit(4, ()))


def test_simulate_empty_circuit():
    c = Circuit(2, ())
    v = basis_state("10")
    assert np.array_equal(simulate(c, v).amplitudes, v.amplitudes)


def test_simulate_h_on_single_qubit():
    c = Circuit(1, ((H, (1,)),))
    got = simulate(c, zero_state(1)).amplitudes
    assert np.max(np.abs(got - np.array([1, 1]) / np.sqrt(2))) <= 1e-12


def test_simulate_fig4_on_00():
    c = circuit_from_json(FIG4_JSON)
    got = simulate(c, zero_state(2)).amplitudes
    # CNOT (Z(x)X) (H(x)I) |00> worked out with 4x4 matrices
    oracle = (CNOT.data @ np.kron(Z.data, X.data)
              @ np.kron(H.data, np.eye(2)) @ np.array([1, 0, 0, 0], dtype=complex))
    assert np.max(np.abs(got - oracle)) <= 1e-12


def test_simulate_noncontiguous_against_dense_kron():
    # CNOT on qubits (1, 3) of 3, checked against an explicitly permuted kron
    c = Circuit(3, ((CNOT, (1, 3)),))
    got = circuit_unitary(c).data
    want = np.zeros((8, 8), dtype=complex)
    for src in range(8):
        b1, b2, b3 = (src >> 2) & 1, (src >> 1) & 1, src & 1
        dst = (b1 << 2) | (b2 << 1) | (b3 ^ b1)
        want[dst, src] = 1.0
    assert np.array_equal(got, want)


def test_simulate_dimension_check():
    with pytest.raises(DimensionError):
        simulate(Circuit(2, ()), zero_state(1))


def test_simulate_norm_preserving():
    rng = random.Random(4)
    for _ in range(10):
        m = rng.randint(1, 4)
        c = random_circuit(rng, m, rng.randint(1, 4))
        rs = np.random.RandomState(rng.randrange(2**31))
        v = rs.normal(size=2**m) + 1j * rs.normal(size=2**m)
        v = StateVector(m, v / np.linalg.norm(v))
        assert abs(simulate(c, v).norm() - 1.0) <= 1e-10


# --- gate embedding -------------------------------------------------------

def test_embed_contiguous_passthrough():
    eg = embed_gate(H, (2,), 3)
    assert eg.offset == 1 and eg.unitary is H
    eg = embed_gate(CNOT, (2, 3), 3)
    assert eg.offset == 1 and eg.unitary is CNOT


def test_embed_noncontiguous_matches_oracle():
    eg = embed_gate(CNOT, (1, 3), 3)
    assert eg.offset == 0 and eg.unitary.dim_qubits == 3
    via_embed = circuit_unitary(Circuit(3, ((eg.unitary, (1, 2, 3)),))).data
    direct = circuit_unitary(Circuit(3, ((CNOT, (1, 3)),))).data
    assert approx_equal(via_embed, direct, 1e-12)


def test_embed_random_gates_brute_force():
    rng = random.Random(6)
    for _ in range(12):
        m = rng.randint(2, 4)
        k = rng.randint(1, m)
        targets = tuple(sorted(rng.sample(range(1, m + 1), k)))
        u = rand_unitary(rng, k)
        eg = embed_gate(u, targets, m)
        block = tuple(range(eg.offset + 1, eg.offset + 1 + eg.unitary.dim_qubits))
        via = circuit_unitary(Circuit(m, ((eg.unitary, block),))).data
        direct = circuit_unitary(Circuit(m, ((u, targets),))).data
        assert approx_equal(via, direct, 1e-9)


def ref_dense_embedding(u, targets):
    """The block gate as a dense conjugation: P^dagger (u (x) I) P for the target-moving P."""
    lo, hi = targets[0], targets[-1]
    w = hi - lo + 1
    local = [t - lo + 1 for t in targets]
    order = local + [x for x in range(1, w + 1) if x not in local]
    p = np.zeros((2 ** w, 2 ** w), dtype=complex)
    for src in range(2 ** w):
        dst = 0
        for r, q in enumerate(order):
            dst |= ((src >> (w - q)) & 1) << (w - 1 - r)
        p[dst, src] = 1.0
    padded = np.kron(u.data, np.eye(2 ** (w - u.dim_qubits), dtype=complex))
    return p.conj().T @ padded @ p


def test_embedding_reindexes_named_gates_bit_for_bit():
    from gen import random_circuit as json_circuit
    from test_golden import CASES
    circuits = [circuit_from_json(json_circuit(seed, 7, 30)) for seed in range(20)]
    circuits += [circuit_from_json(json_circuit(*case)) for case in CASES.values()]
    circuits.append(Circuit(7, tuple((gate_by_name(g), (a, b)) for g in ("CNOT", "SWAP")
                                     for a in range(1, 8) for b in range(a + 2, 8))))
    seen = 0
    for c in circuits:
        for u, targets in c.gates:
            if targets[-1] - targets[0] + 1 == len(targets):
                continue
            seen += 1
            got = embed_gate(u, targets, c.n_qubits).unitary.data
            assert got.tobytes() == ref_dense_embedding(u, targets).tobytes()
    assert seen > 100


def test_embedding_reindexes_random_unitaries():
    rng = random.Random(17)
    for k, m in [(2, 3), (2, 5), (3, 4), (3, 6)] * 5:
        targets = tuple(sorted(rng.sample(range(1, m + 1), k)))
        while targets[-1] - targets[0] + 1 == k:
            targets = tuple(sorted(rng.sample(range(1, m + 1), k)))
        u = rand_unitary(rng, k)
        got = embed_gate(u, targets, m)
        assert got.offset == targets[0] - 1
        assert np.array_equal(got.unitary.data, ref_dense_embedding(u, targets))


def test_embed_rejects_bad_targets():
    with pytest.raises(PreconditionError):
        embed_gate(CNOT, (3, 1), 3)
    with pytest.raises(PreconditionError):
        embed_gate(H, (4,), 3)


# --- encoding -------------------------------------------------------------

def test_golden_encodings_byte_for_byte():
    for circuit_json, golden in GOLDEN.items():
        proof = encode(circuit_from_json(circuit_json))
        assert print_proof(proof) == golden
        assert check(proof).ok


def test_encode_conclusion_shape():
    rng = random.Random(12)
    for _ in range(10):
        m = rng.randint(1, 4)
        c = random_circuit(rng, m, rng.randint(0, 4))
        p = encode(c)
        assert check(p).ok
        d, b = p.conclusion
        for _ in range(m):
            assert isinstance(d, Diamond) and isinstance(b, Box)
            d, b = d.body, b.body
        # no multiplicative connectives anywhere in the encoding
        for _, node in iter_nodes(p):
            for f in node.conclusion:
                assert not _has_multiplicative(f)


def _has_multiplicative(f):
    match f:
        case Par(_, _) | Tensor(_, _):
            return True
        case Box(b) | Diamond(b):
            return _has_multiplicative(b)
    return False


def test_encode_round_trip_unitaries():
    rng = random.Random(13)
    for _ in range(8):
        m = rng.randint(1, 3)
        c = random_circuit(rng, m, rng.randint(0, 4))
        p = encode(c)
        (k, ctx), = negative_entries(p)
        sem = semantics_relative(p, k, ctx)
        assert approx_equal(sem.unitary.data, circuit_unitary(c).data, 1e-8)


def test_extract_of_encode_preserves_gate_multiset():
    p = encode(circuit_from_json(FIG4_JSON))
    (k, ctx), = negative_entries(p)
    circ = extract(p, k, ctx, prune_identity=True)
    names = sorted(u.name for u, _ in circ.gates)
    assert names == ["CNOT", "H", "X", "Z"]
    assert approx_equal(circuit_unitary(circ).data,
                        circuit_unitary(circuit_from_json(FIG4_JSON)).data, 1e-8)


def test_extract_identity_proof():
    p = parse_proof("(q 3 I3 (ax a))")
    (k, ctx), = negative_entries(p)
    circ = extract(p, k, ctx)
    assert [t for _, t in circ.gates] == [(1, 2, 3)]
    pruned = extract(p, k, ctx, prune_identity=True)
    assert pruned.gates == ()


def test_extract_matches_semantics():
    rng = random.Random(14)
    for _ in range(8):
        c = random_circuit(rng, rng.randint(1, 3), rng.randint(0, 3))
        p = encode(c)
        (k, ctx), = negative_entries(p)
        circ = extract(p, k, ctx)
        sem = semantics_relative(p, k, ctx)
        assert approx_equal(circuit_unitary(circ).data, sem.unitary.data, 1e-8)


def test_normalize_encoding_fuses_gates():
    c = circuit_from_json(FIG4_JSON)
    p = encode(c)
    nf = normalize(p).final
    qrules = [n for _, n in iter_nodes(nf) if isinstance(n, QRule)]
    assert len(qrules) == 1
    assert approx_equal(qrules[0].gate.data, circuit_unitary(c).data, 1e-8)


# --- JSON -----------------------------------------------------------------

def test_circuit_json_round_trip():
    c = circuit_from_json(FIG4_JSON)
    text = circuit_to_json(c)
    again = circuit_from_json(text)
    assert circuit_to_json(again) == text
    assert json.loads(text)["qubits"] == 2


def test_circuit_json_matrix_gates():
    rng = random.Random(15)
    u = rand_unitary(rng, 1)
    text = circuit_to_json(Circuit(1, ((u, (1,)),)))
    c = circuit_from_json(text)
    assert approx_equal(c.gates[0][0].data, u.data, 0)
    assert circuit_to_json(c) == text


def test_circuit_json_errors():
    from qmll import QmllError
    with pytest.raises(QmllError):
        circuit_from_json("[1,2]")
    with pytest.raises(QmllError):
        circuit_from_json('{"qubits": 1, "gates": [{"targets": [1]}]}')
