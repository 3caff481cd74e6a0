"""Certifying unitarity: leaves in full, composed gates by a one-vector probe.

A leaf (a direct `UnitaryMatrix`, a `(mat …)` literal, a circuit-JSON
matrix, a named gate) must pass ||U^†U - I||_F <= UNITARY_EPS. A gate built
by `matmul`, `tensor`, `adjoint`, `embed_gate` or `semantics_relative`, and a
Kronecker pair's dense form when it is first read, goes through
`UnitaryMatrix.composed`, which checks ||U^†(Ux) - x|| <= UNITARY_EPS for a
fixed unit x. An identity (`identity_gate`) is certified by construction: its
dense form is the exact eye, and its adjoint is itself.
"""

import json

import numpy as np
import pytest

from qmll import (DimensionError, UnitaryMatrix, circuit_from_json, embed_gate, encode,
                  gate_by_name, matmul, negative_entries, normalize, parse_proof, print_proof,
                  semantics_relative, tensor)
from qmll import matrices, qiam
from qmll.cli import main
from qmll.matrices import _probe, f17
from qmll.proofs import QRule, iter_nodes

from gen import random_circuit, random_corpus
from test_golden import CASES

NAMES = ["H", "X", "Y", "Z", "S", "T", "CNOT", "SWAP"]


def rand_unitary(rs, n):
    dim = 2 ** n
    q, _ = np.linalg.qr(rs.normal(size=(dim, dim)) + 1j * rs.normal(size=(dim, dim)))
    return q


def corrupt(a):
    """A copy of a with its largest entry scaled by 1.001."""
    out = np.array(a, dtype=complex)
    out[np.unravel_index(np.argmax(np.abs(out)), out.shape)] *= 1.001
    return out


def blind_to_probe(dim, delta=1e-6):
    """I + delta·vv^† with v orthogonal to the probe: the probe passes it, the full check not."""
    x = _probe(dim)
    v = np.zeros(dim, dtype=complex)
    v[0], v[1] = -np.conj(x[1]), np.conj(x[0])
    m = np.eye(dim, dtype=complex) + delta * np.outer(v, v.conj())
    UnitaryMatrix.composed(m)  # the probe cannot see the defect ...
    return m


# ---------------------------------------------------------------------------
# leaves keep the full check


def test_a_leaf_the_probe_passes_is_still_refused_directly():
    for dim in (2, 4, 8):
        with pytest.raises(DimensionError, match="not unitary"):
            UnitaryMatrix(blind_to_probe(dim))


def mat_literal(m):
    rows = " ".join("[" + ",".join(f"[{f17(z.real)},{f17(z.imag)}]" for z in row) + "]"
                    for row in m)
    return f"(mat {rows})"


@pytest.mark.parametrize("m", [np.array([[1, 0], [0, 2]], dtype=complex), blind_to_probe(2)])
def test_a_non_unitary_mat_literal_exits_2(tmp_path, capsys, m):
    f = tmp_path / "p.proof"
    f.write_text(f"(q 1 {mat_literal(m)} (ax a))")
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad matrix literal" in err and "not unitary" in err


@pytest.mark.parametrize("m", [np.array([[1, 0], [0, 2]], dtype=complex), blind_to_probe(2)])
def test_a_non_unitary_circuit_json_matrix_exits_1(tmp_path, capsys, m):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"qubits": 1, "gates": [
        {"matrix": [[[z.real, z.imag] for z in row] for row in m], "targets": [1]}]}))
    assert main(["encode", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "not unitary" in err


def test_named_gates_are_shared_read_only_leaves():
    for name in NAMES:
        u = gate_by_name(name)
        assert u is gate_by_name(name)
        assert u.name == name and not u.data.flags.writeable
        with pytest.raises(ValueError):
            u.data[0, 0] = 2


# ---------------------------------------------------------------------------
# composed gates: a corrupted result is caught in O(4^n)


def test_a_corrupted_product_is_refused(monkeypatch):
    rs = np.random.RandomState(5)
    a, b = UnitaryMatrix(rand_unitary(rs, 3)), UnitaryMatrix(rand_unitary(rs, 3))
    matmul(a, b)
    real = matrices.mat_mul
    monkeypatch.setattr(matrices, "mat_mul", lambda x, y: corrupt(real(x, y)))
    with pytest.raises(DimensionError, match="not unitary"):
        matmul(a, b)
    with pytest.raises(DimensionError, match="not unitary"):
        matmul(gate_by_name("H"), gate_by_name("T"))


def test_a_corrupted_tensor_is_refused(monkeypatch):
    tensor(gate_by_name("H"), gate_by_name("CNOT"))
    real = np.kron
    monkeypatch.setattr(np, "kron", lambda x, y: corrupt(real(x, y)))
    with pytest.raises(DimensionError, match="not unitary"):
        tensor(gate_by_name("H"), gate_by_name("CNOT"))


def test_a_corrupted_lazy_tensor_is_refused_when_formed(monkeypatch):
    p = parse_proof("(q 1 T (q 1 H (ax a)))")
    print_proof(normalize(p).final)
    real = np.kron
    monkeypatch.setattr(np, "kron", lambda x, y: corrupt(real(x, y)))
    nf = normalize(p).final  # contraction keeps the factors: no Kronecker product yet
    with pytest.raises(DimensionError, match="not unitary"):
        print_proof(nf)


def test_a_corrupted_embedding_is_refused(monkeypatch):
    cnot = gate_by_name("CNOT")
    embed_gate(cnot, (1, 4), 5)
    real = np.kron
    monkeypatch.setattr(np, "kron", lambda x, y: corrupt(real(x, y)))
    with pytest.raises(DimensionError, match="not unitary"):
        embed_gate(cnot, (1, 4), 5)


def test_a_corrupted_semantics_is_refused(monkeypatch):
    p = encode(circuit_from_json(random_circuit(7002, 7, 30)))
    [(k, ctx)] = negative_entries(p)
    semantics_relative(p, k, ctx)
    real = qiam.apply_gate
    monkeypatch.setattr(qiam, "apply_gate", lambda u, a, offset: corrupt(real(u, a, offset)))
    with pytest.raises(DimensionError, match="not unitary"):
        semantics_relative(p, k, ctx)


def test_the_probe_accepts_whatever_the_full_check_accepts():
    """Random unitaries, and each perturbed by a random matrix of norm 10^-12 .. 10^-8."""
    rs = np.random.RandomState(20261018)
    accepted = refused = 0
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(12):
            q = rand_unitary(rs, n)
            UnitaryMatrix(q)
            UnitaryMatrix.composed(q)
            for eps in 10.0 ** np.arange(-12, -7.75, 0.25):
                e = rs.normal(size=q.shape) + 1j * rs.normal(size=q.shape)
                m = q + eps * e / np.linalg.norm(e)
                try:
                    UnitaryMatrix(m)
                except DimensionError:
                    refused += 1
                    continue
                accepted += 1
                UnitaryMatrix.composed(m)
    assert accepted > 600 and refused > 300


def test_the_probe_is_a_unit_vector_made_once_per_dimension():
    for dim in (1, 2, 64, 1024):
        x = _probe(dim)
        assert x is _probe(dim) and x.shape == (dim,)
        assert abs(np.linalg.norm(x) - 1) <= 1e-15


# ---------------------------------------------------------------------------
# the composed path changes no bit of any gate


def old_path(monkeypatch):
    """Route every composed gate through the full check, as all gates went before."""
    monkeypatch.setattr(UnitaryMatrix, "composed",
                        classmethod(lambda cls, data, name=None: cls(data, name=name)))


def gate_bytes(p):
    return [(node.gate.name, node.gate.data.tobytes()) for _, node in iter_nodes(p)
            if isinstance(node, QRule)]


def composed_outputs(proofs):
    out = []
    for p in proofs:
        out.append(gate_bytes(normalize(p).final))
        out.append([semantics_relative(p, k, ctx).unitary.data.tobytes()
                    for k, ctx in negative_entries(p)])
    return out


def test_composed_gates_equal_the_old_path_bit_for_bit_on_the_corpus(monkeypatch):
    corpus = random_corpus(20260811, 1000)
    new = composed_outputs(corpus)
    old_path(monkeypatch)
    assert composed_outputs(corpus) == new


def test_composed_gates_equal_the_old_path_bit_for_bit_on_golden_circuits(monkeypatch):
    def outputs():
        proofs = [encode(circuit_from_json(random_circuit(*case))) for case in CASES.values()]
        return [gate_bytes(p) for p in proofs] + composed_outputs(proofs)

    new = outputs()
    assert sum(len(g) for g in new[:2]) > 100
    old_path(monkeypatch)
    assert outputs() == new
