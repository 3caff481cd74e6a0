import random

import numpy as np
import pytest

from qmll import (DimensionError, PreconditionError, StateVector, UnitaryMatrix, adjoint,
                  approx_equal, basis_state, gate_by_name, identity_gate, matmul, tensor,
                  zero_state)
from qmll.matrices import apply_gate, f17, max_qubits, render_rows

H = gate_by_name("H")
X = gate_by_name("X")
Z = gate_by_name("Z")
S = gate_by_name("S")
CNOT = gate_by_name("CNOT")
I1 = identity_gate(1)


def rand_unitary(rng, n):
    dim = 2**n
    rs = np.random.RandomState(rng.randrange(2**31))
    q, _ = np.linalg.qr(rs.normal(size=(dim, dim)) + 1j * rs.normal(size=(dim, dim)))
    return UnitaryMatrix(q)


def rand_state(rng, n):
    rs = np.random.RandomState(rng.randrange(2**31))
    v = rs.normal(size=2**n) + 1j * rs.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def test_matmul_identity_law():
    assert approx_equal(matmul(I1, H).data, H.data, 0)


def test_matmul_hadamard_squares_to_identity():
    # (1/sqrt2)^2 * [[2,0],[0,2]] = I, by hand
    assert approx_equal(matmul(H, H).data, np.eye(2), 1e-12)


def test_matmul_pauli_product():
    # Z X = [[0,1],[-1,0]] by hand multiplication
    assert approx_equal(matmul(Z, X).data, np.array([[0, 1], [-1, 0]]), 0)


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionError):
        from qmll.matrices import mat_mul
        mat_mul(np.eye(2), np.eye(4))


def test_tensor_identities():
    assert approx_equal(tensor(I1, I1).data, np.eye(4), 0)
    assert tensor(I1, I1).dim_qubits == 2


def test_tensor_hadamard_on_first_qubit():
    got = tensor(H, I1).data @ np.array([1, 0, 0, 0], dtype=complex)
    want = np.array([1, 0, 1, 0]) / np.sqrt(2)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_tensor_associative():
    rng = random.Random(5)
    for _ in range(10):
        a, b, c = (rand_unitary(rng, 1) for _ in range(3))
        assert approx_equal(tensor(tensor(a, b), c).data, tensor(a, tensor(b, c)).data, 1e-12)


def test_adjoint_examples():
    assert approx_equal(adjoint(H).data, H.data, 0)
    assert approx_equal(adjoint(S).data, np.diag([1, -1j]), 0)
    rng = random.Random(9)
    u = rand_unitary(rng, 2)
    assert approx_equal(matmul(u, adjoint(u)).data, np.eye(4), 1e-9)
    assert approx_equal(adjoint(adjoint(u)).data, u.data, 0)


def test_unitarity_closed_under_ops():
    rng = random.Random(3)
    for _ in range(10):
        u, v = rand_unitary(rng, 1), rand_unitary(rng, 1)
        matmul(u, v)
        tensor(u, v)
        adjoint(u)  # constructors re-check unitarity


def test_constructor_rejects_non_unitary():
    with pytest.raises(DimensionError):
        UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(DimensionError):
        UnitaryMatrix(np.eye(3, dtype=complex))


def test_apply_at_identity():
    v = basis_state("010")
    for k in range(3):
        assert np.array_equal(apply_gate(I1.data, v.amplitudes, k), v.amplitudes)


def test_apply_at_hadamard_second_of_three():
    got = apply_gate(H.data, basis_state("000").amplitudes, 1)
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b010] = 1 / np.sqrt(2)
    assert np.max(np.abs(got - want)) <= 1e-12


def brute_force_embed(u, n, offset):
    """Independent oracle: materialize I (x) u (x) I with numpy kron."""
    k = u.shape[0].bit_length() - 1
    return np.kron(np.kron(np.eye(2**offset), u), np.eye(2 ** (n - offset - k)))


def test_apply_at_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        offset = rng.randint(0, n - k)
        u = rand_unitary(rng, k)
        v = rand_state(rng, n)
        got = apply_gate(u.data, v.amplitudes, offset)
        want = brute_force_embed(u.data, n, offset) @ v.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_at_inverse_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        offset = rng.randint(0, n - k)
        u = rand_unitary(rng, k)
        v = rand_state(rng, n)
        back = apply_gate(u.data, apply_gate(adjoint(u).data, v.amplitudes, offset), offset)
        assert np.max(np.abs(back - v.amplitudes)) <= 1e-8


def test_tensor_equals_sequential_apply_at():
    rng = random.Random(31)
    for _ in range(15):
        ka, kb = rng.randint(1, 2), rng.randint(1, 2)
        u, w = rand_unitary(rng, ka), rand_unitary(rng, kb)
        n = ka + kb
        v = rand_state(rng, n)
        via_tensor = apply_gate(tensor(u, w).data, v.amplitudes, 0)
        via_steps = apply_gate(w.data, apply_gate(u.data, v.amplitudes, 0), ka)
        assert np.max(np.abs(via_tensor - via_steps)) <= 1e-12


def test_approx_equal():
    m = H.data
    assert approx_equal(m, m, 0.0)
    assert approx_equal(matmul(H, H).data, np.eye(2), 1e-12)
    assert not approx_equal(H.data, np.eye(2), 1e-12)
    with pytest.raises(DimensionError):
        approx_equal(np.eye(2), np.eye(4), 1e-9)


def test_state_vector_validation():
    with pytest.raises(DimensionError):
        StateVector(2, np.zeros(3, dtype=complex))


def test_register_cap(monkeypatch):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "2")
    with pytest.raises(PreconditionError):
        zero_state(3)


def test_named_gates():
    assert gate_by_name("I3").dim_qubits == 3
    assert gate_by_name("SWAP").dim_qubits == 2
    with pytest.raises(Exception):
        gate_by_name("FOO")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_gate_matches_brute_force_at_every_offset_and_batch_width(n):
    rng = random.Random(40 + n)
    rs = np.random.RandomState(n)
    for k in range(1, n + 1):
        for offset in range(n - k + 1):
            u = rand_unitary(rng, k).data
            dense = brute_force_embed(u, n, offset)
            for width in (1, 3, 2**n):
                a = rs.normal(size=(2**n, width)) + 1j * rs.normal(size=(2**n, width))
                got = apply_gate(u, a, offset)
                assert got.shape == a.shape
                assert np.max(np.abs(got - dense @ a)) <= 1e-12
            v = a[:, 0].copy()  # a bare vector is a batch of one
            assert np.max(np.abs(apply_gate(u, v, offset) - dense @ v)) <= 1e-12


def test_apply_gate_on_the_identity_is_the_embedding():
    rng = random.Random(44)
    u = rand_unitary(rng, 2).data
    for offset in range(3):
        got = apply_gate(u, np.eye(16, dtype=complex), offset)
        assert np.max(np.abs(got - brute_force_embed(u, 4, offset))) <= 1e-12


def test_gates_over_the_cap_are_refused_before_allocation(monkeypatch):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    assert identity_gate(3).dim_qubits == 3
    with pytest.raises(PreconditionError, match="4 qubits exceeds the configured cap of 3"):
        identity_gate(4)
    with pytest.raises(PreconditionError):
        gate_by_name("I4")
    assert tensor(I1, identity_gate(2)).dim_qubits == 3
    with pytest.raises(PreconditionError):
        tensor(CNOT, CNOT)


def render_rows_per_entry(a):
    """`render_rows` as one f17 call per double, the reference for its formatting table."""
    rows = [a] if a.ndim == 1 else list(a)
    return ["[" + ",".join(f"[{f17(z.real)},{f17(z.imag)}]" for z in row) + "]" for row in rows]


def test_render_rows_matches_per_entry_formatting_and_keeps_signed_zeros():
    rng = np.random.default_rng(5)
    signed = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 1e-300, -1e-300])
    for shape in [(1, 1), (2, 2), (4, 4), (8, 8), (3,), (16,)]:
        a = rng.choice(signed, size=shape + (2,)).view(complex)[..., 0]
        assert render_rows(a) == render_rows_per_entry(a)
    assert np.signbit(a.real).any() and np.signbit(a.imag).any()
    text = "".join(render_rows(a))
    assert "[-0," in text and "[0," in text
    z = np.array([[0.0, -0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]])
    assert render_rows(z) == ["[[0,0],[-0,0]]", "[[-0,0],[0,-0]]"]
    h = np.kron(H.data, np.eye(8))
    assert render_rows(h) == render_rows_per_entry(h)
    u = rand_unitary(random.Random(3), 3).data
    assert render_rows(u) == render_rows_per_entry(u)
    assert render_rows(u[2]) == render_rows_per_entry(u[2])


def test_render_rows_keeps_apart_every_16_byte_entry():
    nul_tailed = [0j, 5e-324, 5e-324j, complex(-0.0, 0.0), complex(0.0, -0.0),
                  complex(5e-324, -0.0)]
    one_part_apart = [complex(0.5, 0.25), complex(0.5, -0.25), complex(0.5, 0.0),
                      complex(0.5, -0.0), complex(-0.0, 0.5), complex(0.0, 0.5)]
    for entries in (nul_tailed, one_part_apart):
        v = np.array(entries)
        [text] = render_rows(v)
        assert text == render_rows_per_entry(v)[0]
        assert len(set(text[2:-2].split("],["))) == len(entries)
        m = np.array([entries, entries[::-1]])
        assert render_rows(m) == render_rows_per_entry(m)
    u = rand_unitary(random.Random(4), 3).data
    for a in (u.T, np.asfortranarray(u), u[::2, 1::3], u[:, 5], np.zeros(0, complex)):
        assert render_rows(a) == render_rows_per_entry(a)
    big = rand_unitary(random.Random(6), 7).data
    assert render_rows(big) == render_rows_per_entry(big)


def test_registers_over_the_cap_are_refused_before_allocation(monkeypatch):
    sizes = []
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape, *a, **k: sizes.append(shape) or zeros(shape, *a,
                                                                                        **k))
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    for build in (lambda: zero_state(20), lambda: basis_state("0" * 20)):
        with pytest.raises(PreconditionError, match="20 qubits exceeds the configured cap of 3"):
            build()
    assert sizes == []
    assert zero_state(3).n_qubits == basis_state("101").n_qubits == 3
    assert sizes == [8, 8]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_certification_refuses_nan_and_inf_in_full_and_by_probe(bad):
    m = np.eye(2, dtype=complex)
    m[0, 0] = bad
    with pytest.raises(DimensionError, match="NaN or infinite"):
        UnitaryMatrix(m)
    with np.errstate(invalid="ignore"), pytest.raises(DimensionError, match="not unitary"):
        UnitaryMatrix.composed(m)  # the probe's deviation is NaN, which used to pass


def test_the_qubit_cap_follows_the_variable_from_call_to_call(monkeypatch):
    """Each value is parsed once, but the variable is read on every call."""
    for raw, cap in (("3", 3), ("12", 12), ("twelve", 16), (" 5 ", 5), ("3", 3)):
        monkeypatch.setenv("QMLL_MAX_QUBITS", raw)
        assert max_qubits() == cap
    with pytest.raises(PreconditionError, match="cap of 3"):
        identity_gate(4)
    monkeypatch.delenv("QMLL_MAX_QUBITS")
    assert max_qubits() == 16 and identity_gate(4).dim_qubits == 4
