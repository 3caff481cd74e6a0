"""Structured gates: contraction keeps Kronecker factors, a product applies a lone factor,
and an identity is structure.

QContract builds a Kronecker pair (`kron_pair`) whose dense form is made when
its `data` is first read. QuantumPrincipal's `matmul` applies a pair's one
non-identity factor to the other side instead of forming the pair and
multiplying densely. The references below are the dense operations that ran
before; the printed normal forms must agree with them bit for bit. An
identity (`identity_gate`) holds no array until its `data` is read, so a
16-qubit `I16` can be parsed, checked, encoded, normalized and extracted.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest

from qmll import (DimensionError, PreconditionError, UnitaryMatrix, adjoint, check,
                  circuit_from_json, circuit_to_json, encode, extract, gate_by_name, identity_gate,
                  matmul, negative_entries, normalize, parse_proof, print_proof, tensor)
from qmll import cutelim, matrices
from qmll.cli import main
from qmll.matrices import check_qubits, kron_pair

from gen import random_circuit, random_corpus, random_unitary
from test_golden import CASES

H, T, X, CNOT = (gate_by_name(n) for n in ("H", "T", "X", "CNOT"))
I1, I2 = identity_gate(1), identity_gate(2)


def dense_tensor(a, b):
    check_qubits(a.dim_qubits + b.dim_qubits)
    return UnitaryMatrix.composed(np.kron(a.data, b.data))


def dense_matmul(a, b):
    return UnitaryMatrix.composed(matrices.mat_mul(a.data, b.data))


def normal_forms(proofs):
    return [print_proof(normalize(p).final) for p in proofs]


def dense_normal_forms(monkeypatch, proofs):
    with monkeypatch.context() as m:
        m.setattr(cutelim, "kron_pair", dense_tensor)
        m.setattr(cutelim, "matmul", dense_matmul)
        return normal_forms(proofs)


def encoded(*case):
    return encode(circuit_from_json(random_circuit(*case)))


# ---------------------------------------------------------------------------
# the factored path prints the dense path's bytes


@pytest.mark.parametrize("cases", [sorted(CASES.values()),
                                   [(3, 8, 30), (4, 8, 60), (5, 9, 30), (7, 10, 20)]],
                         ids=["golden", "8-10 qubits"])
def test_circuit_normal_forms_equal_the_dense_path_bit_for_bit(monkeypatch, cases):
    proofs = [encoded(*case) for case in cases]
    assert normal_forms(proofs) == dense_normal_forms(monkeypatch, proofs)


def test_corpus_normal_forms_equal_the_dense_path_bit_for_bit(monkeypatch):
    corpus = random_corpus(20260811, 1000)
    assert normal_forms(corpus) == dense_normal_forms(monkeypatch, corpus)


# ---------------------------------------------------------------------------
# the work, not the time


@pytest.mark.parametrize("name, krons, products", [("wide-7q-30g", 31, 9),
                                                   ("deep-3q-120g", 48, 34)])
def test_golden_normalization_forms_few_dense_gates(monkeypatch, name, krons, products):
    p = encoded(*CASES[name])
    calls = {"kron": 0, "mat_mul": 0}
    real_kron, real_mat_mul = np.kron, matrices.mat_mul

    def counting_kron(a, b):
        calls["kron"] += 1
        return real_kron(a, b)

    def counting_mat_mul(a, b):
        calls["mat_mul"] += 1
        return real_mat_mul(a, b)

    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(matrices, "mat_mul", counting_mat_mul)
    print_proof(normalize(p).final)
    assert calls["kron"] <= krons and calls["mat_mul"] <= products


@pytest.mark.parametrize("case", [(3, 8, 30), (4, 8, 60), (5, 9, 30)])
def test_normalization_holds_a_few_dense_gates_at_a_time(case):
    # the running product, one formed operand and the result; contracting each
    # column into a dense gate first held 22 to 42 of them
    p = encoded(*case)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        normalize(p)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * 4 ** case[1]


# ---------------------------------------------------------------------------
# Kronecker pairs and the lone-factor product


def test_a_pair_forms_its_dense_form_on_first_read(monkeypatch):
    calls = []
    real = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or real(a, b))
    u = kron_pair(kron_pair(H, I1), CNOT)
    assert u.dim_qubits == 4 and u.name is None and not calls
    assert u.data is u.data and len(calls) == 2
    assert np.array_equal(u.data, real(real(H.data, I1.data), CNOT.data))
    assert not u.data.flags.writeable


def test_a_pair_over_the_qubit_cap_is_refused_when_built(monkeypatch):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    with pytest.raises(PreconditionError, match="4 qubits exceeds"):
        kron_pair(I2, CNOT)


def test_tensor_stays_eager_and_keeps_its_factors():
    u = tensor(H, CNOT)
    assert u.factors == (H, CNOT) and "data" in vars(u)
    assert np.array_equal(u.data, np.kron(H.data, CNOT.data))


@pytest.mark.parametrize("pair", [
    kron_pair(kron_pair(I1, H), I2),  # lone factor inside
    kron_pair(I2, kron_pair(I1, T)),  # lone factor last
    kron_pair(I1, I2),  # identities only
    kron_pair(kron_pair(H, I1), X),  # two factors: the dense path
], ids=["inside", "last", "identities", "two"])
def test_products_with_a_pair_equal_the_dense_product(pair):
    v = random_unitary(random.Random(pair.dim_qubits), pair.dim_qubits)
    for a, b in ((pair, v), (v, pair), (pair, pair)):
        got = matmul(a, b)
        assert type(got) is UnitaryMatrix and got.factors is None
        assert got.data.flags.c_contiguous
        assert np.allclose(got.data, a.data @ b.data, rtol=0, atol=1e-12)


def test_a_product_keeps_no_dense_form_of_its_pairs():
    # a consumed operand may stay referenced, from a zipper frame's older subtree
    two, lone = kron_pair(kron_pair(H, I1), X), kron_pair(I1, I2)
    v = random_unitary(random.Random(5), 3)
    for a, b in ((two, v), (v, two), (lone, two), (two, lone)):
        matmul(a, b)
    assert "data" not in vars(two) and "data" not in vars(two.factors[0])


def test_a_product_of_unequal_dimensions_is_refused():
    with pytest.raises(DimensionError, match="cannot multiply"):
        matmul(kron_pair(I1, H), H)
    with pytest.raises(DimensionError, match="cannot multiply"):
        matmul(H, kron_pair(I1, H))


def test_contraction_builds_a_pair_that_prints_its_dense_form():
    nf = normalize(parse_proof("(q 1 T (q 1 H (ax a)))")).final
    assert nf.gate.factors == (H, T) and "data" not in vars(nf.gate)
    assert print_proof(nf) == print_proof(parse_proof("(q 2 (mat {}) (ax a))".format(
        " ".join(matrices.render_rows(np.kron(H.data, T.data))))))


# ---------------------------------------------------------------------------
# an identity is structure


def test_an_identity_forms_the_exact_eye_on_first_read(monkeypatch):
    monkeypatch.setattr(UnitaryMatrix, "composed", None)  # neither built nor read by a product
    u = identity_gate(3)
    assert (u.dim_qubits, u.name, u.is_identity, u.factors) == (3, "I3", True, None)
    assert "data" not in vars(u) and adjoint(u) is u
    assert u.data is u.data and not u.data.flags.writeable
    assert u.data.dtype == complex and np.array_equal(u.data, np.eye(8))


def test_only_identity_gate_builds_an_identity():
    named = UnitaryMatrix(np.eye(2, dtype=complex), name="I1")
    assert not named.is_identity and adjoint(named).name is None
    assert not any(g.is_identity for g in (H, kron_pair(I1, I1), tensor(I1, I1), matmul(I1, I1)))
    assert gate_by_name("I2").is_identity


def test_prune_identity_drops_identities_by_structure_and_other_gates_by_value():
    p = encode(circuit_from_json('{"qubits":2,"gates":[{"gate":"H","targets":[2]},'
                                 '{"gate":"H","targets":[2]}]}'))
    nf = normalize(p).final  # H·H on qubit 2, fused into one dense gate near the identity
    [(k, ctx)] = negative_entries(p)
    gates = [u for u, _ in extract(p, k, ctx).gates]
    assert [u.name for u in gates] == ["I1", "H", "I1", "H"]
    assert [u.is_identity for u in gates] == [True, False, True, False]
    assert [u for u, _ in extract(p, k, ctx, prune_identity=True).gates] == [H, H]
    [(fused, _)] = extract(nf, k, ctx).gates
    assert not fused.is_identity and extract(nf, k, ctx, prune_identity=True).gates == ()


BIG = 2 ** 16
I16_PROOF = "(q 16 I16 (ax a))"
BOXES_16 = "(ax " + "[] " * 16 + "a)"
I16_CIRCUIT = json.dumps({"qubits": 16, "gates": [{"gate": "I16", "targets": list(range(1, 17))}]},
                         separators=(",", ":"))  # also what `extract` prints for I16_PROOF
NO_GATES = '{"qubits":16,"gates":[]}'


@pytest.fixture
def eye_calls(monkeypatch):
    """`np.eye`, recording each size it is asked for and refusing 2^16 before allocating it."""
    monkeypatch.delenv("QMLL_MAX_QUBITS", raising=False)  # the default cap admits 16 qubits
    calls, real = [], np.eye

    def eye(n, *args, **kwargs):
        calls.append(n)
        if n >= BIG:
            raise AssertionError(f"np.eye({n}) would allocate {16 * n * n} bytes")
        return real(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", eye)
    return calls


def test_a_16_qubit_identity_allocates_no_array_in_the_library(eye_calls):
    p = parse_proof(I16_PROOF)
    assert check(p).ok and print_proof(p) == I16_PROOF
    assert print_proof(encode(circuit_from_json(I16_CIRCUIT))) == I16_PROOF
    assert print_proof(normalize(parse_proof(BOXES_16)).final) == I16_PROOF
    [(k, ctx)] = negative_entries(p)
    assert circuit_to_json(extract(p, k, ctx, prune_identity=True)) == NO_GATES
    assert circuit_to_json(extract(p, k, ctx)) == I16_CIRCUIT
    assert eye_calls == []


def test_a_16_qubit_identity_allocates_no_array_in_the_cli(eye_calls, tmp_path, capsys):
    files = {"i16.proof": I16_PROOF, "boxes.proof": BOXES_16, "i16.json": I16_CIRCUIT}
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    proof, boxes, circuit = (str(tmp_path / name) for name in files)
    for argv, out in ((["check", proof], "ok: |- " + "<> " * 16 + "~a, " + "[] " * 16 + "a"),
                      (["encode", circuit], I16_PROOF),
                      (["normalize", boxes], I16_PROOF),
                      (["extract", proof, "--prune-identity"], NO_GATES),
                      (["extract", proof], I16_CIRCUIT)):
        assert main(argv) == 0
        assert capsys.readouterr() == (out + "\n", "")
    assert eye_calls == []


def test_repr_forms_no_dense_array(monkeypatch):
    from qmll.qiam import GateEvent

    def no_eye(*args, **kwargs):
        raise AssertionError("repr formed an identity's dense array")

    monkeypatch.setattr(np, "eye", no_eye)
    monkeypatch.setattr(np, "kron", no_eye)
    big, pair = identity_gate(16), kron_pair(H, identity_gate(3))
    for u in (big, pair):
        for text in (repr(u), repr(GateEvent(u, 0, True))):
            assert "data" not in vars(u) and "qubits=" in text
    assert "data" not in vars(pair.factors[1])
    assert repr(big) == "UnitaryMatrix(name='I16', qubits=16, identity)"
    assert repr(pair) == "UnitaryMatrix(name=None, qubits=4, pair)"
    assert repr(H) == "UnitaryMatrix(name='H', qubits=1, leaf)"
