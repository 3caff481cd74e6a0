"""Circuits, their proof encoding, extraction back out, and a direct simulator.

A circuit is an ordered gate list over m qubits; targets are 1-based and
strictly increasing (qubit 1 = most significant basis bit). `simulate` is an
independent evaluation path used as the oracle for the machine semantics: it
works by basis-index arithmetic and shares no code with the token machine or
its gate kernel `matrices.apply_gate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, QmllError
from .formulas import Atom, Context, depth
from .matrices import (StateVector, UnitaryMatrix, approx_equal, check_qubits, gate_by_name,
                       identity_gate, render_rows)
from .proofs import AxiomRule, CutRule, Proof, QRule
from .qiam import extract_gate_sequence

ENCODE_ATOM = Atom("a")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[tuple[UnitaryMatrix, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.n_qubits < 0:
            raise PreconditionError("negative qubit count")
        for u, targets in self.gates:
            if len(targets) != u.dim_qubits:
                raise DimensionError(
                    f"gate on {u.dim_qubits} qubits given {len(targets)} targets")
            if any(not 1 <= t <= self.n_qubits for t in targets):
                raise PreconditionError(f"targets {targets} out of range")
            if any(a >= b for a, b in zip(targets, targets[1:])):
                raise PreconditionError(f"targets {targets} must be strictly increasing")


@dataclass(frozen=True)
class EmbeddedGate:
    unitary: UnitaryMatrix
    offset: int  # acts on qubits offset+1 .. offset+k


def _apply_on_targets(state: np.ndarray, u: np.ndarray, targets: tuple[int, ...],
                      m: int) -> np.ndarray:
    """Apply u on the given qubits by gathering amplitudes over basis indices.

    The last axis of `state` indexes basis states; leading axes hold a batch
    of states. Each state meets u in a product of the very shape it meets
    alone, so a batch gives bit for bit the states one at a time.
    """
    k = len(targets)
    bitpos = [m - t for t in targets]  # LSB-based bit of each target qubit
    mask = 0
    for b in bitpos:
        mask |= 1 << b
    idx = np.arange(2 ** m)
    bases = idx[(idx & mask) == 0]
    offsets = []
    for pattern in range(2 ** k):
        off = 0
        for t_i in range(k):
            if (pattern >> (k - 1 - t_i)) & 1:
                off |= 1 << bitpos[t_i]
        offsets.append(off)
    gathered = np.stack([state[..., bases + off] for off in offsets], axis=-2)
    transformed = u @ gathered
    out = np.array(state, dtype=complex, copy=True)
    for row, off in enumerate(offsets):
        out[..., bases + off] = transformed[..., row, :]
    return out


def simulate(circuit: Circuit, input_state: StateVector) -> StateVector:
    """Run the circuit gate by gate on a state vector."""
    if input_state.n_qubits != circuit.n_qubits:
        raise DimensionError(
            f"state has {input_state.n_qubits} qubits, circuit needs {circuit.n_qubits}")
    state = np.array(input_state.amplitudes, dtype=complex, copy=True)
    for u, targets in circuit.gates:
        state = _apply_on_targets(state, u.data, targets, circuit.n_qubits)
    return StateVector(circuit.n_qubits, state)


def circuit_unitary(circuit: Circuit) -> UnitaryMatrix:
    """Full matrix of the circuit, every column simulated at once.

    Row j of the batch starts as basis state j and ends as column j.
    """
    m = circuit.n_qubits
    check_qubits(m)
    states = np.eye(2 ** m, dtype=complex)
    for u, targets in circuit.gates:
        states = _apply_on_targets(states, u.data, targets, m)
    return UnitaryMatrix(np.ascontiguousarray(states.T))


def embed_gate(u: UnitaryMatrix, targets: tuple[int, ...], m: int) -> EmbeddedGate:
    """Express a gate with arbitrary targets as a contiguous-block gate.

    Contiguous targets pass through unchanged; otherwise the gate is
    conjugated by the qubit permutation pi of the minimal covering block
    that moves the targets to its leading slots: entry (i, j) of the result
    is entry (pi(i), pi(j)) of the gate padded with the identity.
    """
    Circuit(m, ((u, targets),))  # reuse target validation
    k = u.dim_qubits
    lo, hi = targets[0], targets[-1]
    if hi - lo + 1 == k:
        return EmbeddedGate(u, lo - 1)
    w = hi - lo + 1
    check_qubits(w)
    local = [t - lo for t in targets]
    order = local + [q for q in range(w) if q not in local]
    src = np.arange(2 ** w)
    pi = np.zeros_like(src)
    for r, q in enumerate(order):
        pi |= ((src >> (w - 1 - q)) & 1) << (w - 1 - r)
    padded = np.kron(u.data, np.eye(2 ** (w - k), dtype=complex))
    return EmbeddedGate(UnitaryMatrix.composed(padded[np.ix_(pi, pi)]), lo - 1)


# ---------------------------------------------------------------------------
# encoding circuits as proofs


def encode(circuit: Circuit) -> Proof:
    """Encode a circuit as a proof concluding |- <>^m ~a, []^m a.

    Gates stack into a single quantum-rule column while their offsets keep
    climbing; identity rules pad the gaps below a gate and the top of each
    column. A gate that returns to lower qubits closes the column, and
    columns are chained with cuts, earliest leftmost.
    """
    m = circuit.n_qubits
    check_qubits(m)
    embedded = [embed_gate(u, targets, m) for u, targets in circuit.gates]

    columns: list[list[UnitaryMatrix]] = []
    col: list[UnitaryMatrix] = []
    depth_now = 0
    for eg in embedded:
        if eg.offset < depth_now:
            _pad(col, m - depth_now)
            columns.append(col)
            col, depth_now = [], 0
        _pad(col, eg.offset - depth_now)
        col.append(eg.unitary)
        depth_now = eg.offset + eg.unitary.dim_qubits
    _pad(col, m - depth_now)
    columns.append(col)

    def build_column(gates: list[UnitaryMatrix]) -> Proof:
        p: Proof = AxiomRule(ENCODE_ATOM)
        for gate in gates:
            p = QRule(gate.dim_qubits, gate, p)
        return p

    proof = build_column(columns[0])
    for extra in columns[1:]:
        proof = CutRule(2, 1, proof, build_column(extra))
    return proof


def _pad(col: list[UnitaryMatrix], n: int) -> None:
    """Append an identity rule on n qubits to the column, if n is positive."""
    if n > 0:
        col.append(identity_gate(n))


def extract(proof: Proof, entry_pos: int, ctx: Context,
            prune_identity: bool = False) -> Circuit:
    """Read the circuit a proof denotes at the given entry.

    The gate sequence comes from a machine run; targets are the contiguous
    block each event acted on. Identity gates are kept unless pruning is
    requested.
    """
    seq = extract_gate_sequence(proof, entry_pos, ctx)
    m = depth(ctx)
    gates = []
    for u, offset in seq:
        if prune_identity and (u.is_identity or approx_equal(u.data, np.eye(len(u.data)), 1e-9)):
            continue
        gates.append((u, tuple(range(offset + 1, offset + 1 + u.dim_qubits))))
    return Circuit(m, tuple(gates))


# ---------------------------------------------------------------------------
# JSON interchange


def circuit_from_json(text: str) -> Circuit:
    try:  # malformed or too deeply nested JSON and wrongly typed values fail where read
        obj = json.loads(text)
        if not isinstance(obj, dict) or "qubits" not in obj:
            raise QmllError("circuit JSON must be an object with a 'qubits' field")
        gates = []
        for g in obj.get("gates", []):
            if "targets" not in g:
                raise QmllError("every gate needs a 'targets' list")
            targets = tuple(map(_json_int, g["targets"]))
            if isinstance(g.get("gate"), str):
                u = gate_by_name(g["gate"])
            elif "matrix" in g:
                rows = [[json_complex(e) for e in row] for row in g["matrix"]]
                u = UnitaryMatrix(np.array(rows, dtype=complex))
            else:
                raise QmllError("gate entries need either a 'gate' name or a 'matrix'")
            gates.append((u, targets))
        return Circuit(_json_int(obj["qubits"]), tuple(gates))
    except (TypeError, ValueError, IndexError, OverflowError, RecursionError) as e:
        raise QmllError(f"bad circuit JSON: {e}") from e


def _json_int(v: object) -> int:
    if type(v) is not int:  # a float, a string, or a bool, which Python counts as an int
        raise TypeError(f"expected a JSON integer, found {json.dumps(v)}")
    return v


def json_complex(v: object) -> complex:
    """A JSON entry [re,im] of two numbers, not bools, as a complex; else a TypeError."""
    if type(v) is not list or len(v) != 2 or any(type(x) not in (int, float) for x in v):
        raise TypeError(f"expected an entry [re,im] of two JSON numbers, found {json.dumps(v)}")
    return complex(*v)


def circuit_to_json(circuit: Circuit) -> str:
    parts = []
    for u, targets in circuit.gates:
        tgt = "[" + ",".join(str(t) for t in targets) + "]"
        if u.name is not None:
            parts.append(f'{{"gate":"{u.name}","targets":{tgt}}}')
        else:
            rows = ",".join(render_rows(u.data))
            parts.append(f'{{"matrix":[{rows}],"targets":{tgt}}}')
    return f'{{"qubits":{circuit.n_qubits},"gates":[{",".join(parts)}]}}'
