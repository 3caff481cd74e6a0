"""Dense complex linear algebra for gates and registers.

Conventions: gates act on 2^n dimensional spaces; basis index bit order is
most-significant-first, so qubit 1 is the first Kronecker factor. Gates from
outside are certified unitary to UNITARY_EPS in full, gates composed of them by
an O(4^n) probe; end-to-end equalities in callers use a looser 1e-8.

A Kronecker pair (`kron_pair`, which contraction builds) keeps its two factors,
and an identity (`identity_gate`, which eta expansion and `encode` build) is
structure that `is_identity` alone names. Neither has `data` until it is read:
printed, compared or applied by the token machine, which skips an identity
wherever `identity_keeps` and `zero_signs_exact` say its product is exact. Then a
pair's is certified by the probe, an identity's is the exact eye, and either is kept.
Both pickle unformed, through `identity_gate` and `kron_pair`. A product with a
pair that has one factor other than an identity applies that factor to the other
side (`apply_gate`, after Van Loan, "The ubiquitous Kronecker product", 2000);
any other product forms its operands by `dense`, which keeps nothing.

`render_rows` writes every matrix and register the tools print. It formats each
distinct entry once, keyed by the entry's 16 bytes, since by value -0.0 == 0.0.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError, QmllError

UNITARY_EPS = 1e-9

_SQ2 = 1.0 / math.sqrt(2.0)


# os.environ's backing dict, which its setters and deleters update, and the cap's key there:
# for an unset name, `os.environ.get` raises and catches a KeyError, 30 times this read's cost
_ENVIRON, _CAP_KEY = os.environ._data, os.environ.encodekey("QMLL_MAX_QUBITS")


def max_qubits() -> int:
    """Register size cap, configurable via QMLL_MAX_QUBITS (16 if unset or not an integer).
    The variable is read on every call, so a change counts at once; each value is parsed once."""
    return _parse_cap(_ENVIRON.get(_CAP_KEY))


@functools.lru_cache(maxsize=16)
def _parse_cap(raw: bytes | str | None) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        return 16


def check_qubits(n: int) -> None:
    """Refuse, before anything is allocated, a gate or register over the qubit cap."""
    if n > max_qubits():
        raise PreconditionError(f"{n} qubits exceeds the configured cap of {max_qubits()}")


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def approx_equal(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True iff max entry-wise modulus difference is within tol."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A read-only 2^n by 2^n unitary; built directly, a leaf certified in full in O(8^n).
    A pair (`kron_pair`) or an identity (`identity_gate`) forms `data` when it is first read."""

    data: np.ndarray
    dim_qubits: int = field(init=False)
    name: str | None = None
    factors: tuple[UnitaryMatrix, UnitaryMatrix] | None = field(default=None, init=False,
                                                                repr=False)
    is_identity: bool = field(default=False, init=False, repr=False)
    _composed: InitVar[bool] = False  # set by `composed` alone

    def __post_init__(self, _composed: bool):
        m = np.asarray(self.data, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"gate must be square, got {m.shape}")
        n = m.shape[0].bit_length() - 1
        if 2**n != m.shape[0] or m.shape[0] < 1:
            raise DimensionError(f"gate dimension {m.shape[0]} is not a power of two")
        if _composed:  # U^†y = conj(conj(y) U) reads U in place
            x = _probe(m.shape[0])
            err = np.linalg.norm(np.conj(np.conj(m @ x) @ m) - x)
        elif not np.isfinite(m).all():
            raise DimensionError("matrix has a NaN or infinite entry")
        else:
            with np.errstate(all="ignore"):  # a product that overflows is refused below
                err = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
        if not err <= UNITARY_EPS:  # a NaN deviation fails too
            raise DimensionError(f"matrix is not unitary (deviation {err:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "data", m)
        object.__setattr__(self, "dim_qubits", n)

    def __getattr__(self, attr: str):
        """Only a Kronecker pair or an identity lacks `data`: form it and keep it."""
        if attr != "data" or (self.factors is None and not self.is_identity):
            raise AttributeError(attr)
        m = self.dense()
        object.__setattr__(self, "data", m)
        return m

    def __reduce__(self):
        """Its constructor and arguments: a pair or an identity comes back unformed, and any
        other gate with its `data` certified by the probe and read-only."""
        if self.is_identity:
            return identity_gate, (self.dim_qubits,)
        if self.factors is not None:
            return kron_pair, self.factors
        return UnitaryMatrix.composed, (self.data, self.name)

    def __repr__(self) -> str:  # reads no `data`, which a pair or an identity would form
        kind = "pair" if self.factors else "identity" if self.is_identity else "leaf"
        return f"UnitaryMatrix(name={self.name!r}, qubits={self.dim_qubits}, {kind})"

    def dense(self) -> np.ndarray:
        """`data`, except that a form made now (a pair's certified, an identity's exact) is not
        kept: an operand of a product may stay referenced after the product has consumed it."""
        m = self.__dict__.get("data")
        if m is None and self.is_identity:
            m = np.eye(2**self.dim_qubits, dtype=complex)
            m.setflags(write=False)
        elif m is None:
            a, b = self.factors
            m = UnitaryMatrix.composed(np.kron(a.dense(), b.dense())).data
        return m

    @classmethod
    def composed(cls, data: np.ndarray, name: str | None = None) -> UnitaryMatrix:
        """A product, tensor or adjoint of certified gates, checked in O(4^n): for a fixed unit
        probe x, ||U^†(Ux) - x|| <= UNITARY_EPS, true if ||U^†U - I||_F is (Freivalds 1977)."""
        return cls(data, name, True)


@functools.cache
def _probe(dim: int) -> np.ndarray:
    """A seeded random unit vector of length dim, made once per dimension."""
    x = np.random.default_rng(dim).standard_normal(2 * dim).view(complex)
    return x / np.linalg.norm(x)


def matmul(a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    """The product ab. If a Kronecker pair has at most one factor that is not an identity,
    that factor is applied to the other side by `apply_gate` (through transposes
    when the pair is b); otherwise both sides are formed and multiplied densely."""
    if a.dim_qubits == b.dim_qubits:
        if (lone := _lone_factor(a)) is not None:
            u, offset = lone
            return UnitaryMatrix.composed(apply_gate(u.data, b.dense(), offset))
        if (lone := _lone_factor(b)) is not None:
            u, offset = lone
            at = apply_gate(u.data.T, a.dense().T, offset)
            return UnitaryMatrix.composed(np.ascontiguousarray(at.T))
    return UnitaryMatrix.composed(mat_mul(a.dense(), b.dense()))


def _lone_factor(u: UnitaryMatrix) -> tuple[UnitaryMatrix, int] | None:
    """The one leaf factor of pair u that is not an identity (its first leaf if none is), with
    its qubit offset; None if u is no pair or has two such leaves."""
    if u.factors is None:
        return None
    leaves = list(_leaves(u, 0))
    moving = [(v, k) for v, k in leaves if not v.is_identity]
    return None if len(moving) > 1 else (moving or leaves)[0]


def _leaves(u: UnitaryMatrix, offset: int):
    """The leaf factors of u, left to right, each with its qubit offset."""
    if u.factors is None:
        yield u, offset
    else:
        a, b = u.factors
        yield from _leaves(a, offset)
        yield from _leaves(b, offset + a.dim_qubits)


def _unformed(n: int, **attrs) -> UnitaryMatrix:
    """A gate on n qubits, within the cap, that forms its `data` when it is first read."""
    check_qubits(n)
    u = object.__new__(UnitaryMatrix)
    u.__dict__.update(dim_qubits=n, **attrs)  # bypasses the frozen __setattr__
    return u


def kron_pair(a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    """a (x) b as a pair of factors, formed when first read; the first takes the lower qubits."""
    return _unformed(a.dim_qubits + b.dim_qubits, factors=(a, b))


def tensor(a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    """a (x) b, formed and certified now; the first factor takes the lower-numbered qubits."""
    u = kron_pair(a, b)
    u.data
    return u


def adjoint(u: UnitaryMatrix) -> UnitaryMatrix:
    return u if u.is_identity else UnitaryMatrix.composed(
        u.data.conj().T, name=u.name if u.name in _HERMITIAN else None)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes over 2^n basis states, most-significant bit = qubit 1."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_qubits(self.n_qubits)
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.shape[0] != 2**self.n_qubits:
            raise DimensionError(
                f"expected {2**self.n_qubits} amplitudes, got {v.shape[0]}")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n: int) -> StateVector:
    check_qubits(n)
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return StateVector(n, v)


def is_basis_label(bits: str) -> bool:
    """Whether bits names a basis state: one or more 0/1 digits."""
    return bits != "" and set(bits) <= {"0", "1"}


def basis_state(bits: str) -> StateVector:
    """Build |bits> from a 0/1 string, leftmost bit = qubit 1."""
    if not is_basis_label(bits):
        raise PreconditionError(f"bad basis label {bits!r}")
    check_qubits(len(bits))
    v = np.zeros(2**len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return StateVector(len(bits), v)


def apply_gate(u: np.ndarray, a: np.ndarray, offset: int) -> np.ndarray:
    """Apply a k-qubit gate at qubits offset+1..offset+k of an n-qubit array.

    The first axis of `a` indexes the 2^n basis states; any trailing axes
    are a batch (the columns of a matrix), and each batch entry is
    transformed alike. Seen as (2^offset, 2^k, rest), the gate acts on the
    middle axis, so one matmul applies it without materializing
    I_offset (x) u (x) I_rest.
    """
    return np.matmul(u, a.reshape(2**offset, u.shape[0], -1)).reshape(a.shape)


_NEG_ZERO = np.float64(-0.0).view(np.int64)


def identity_keeps(a: np.ndarray) -> bool:
    """Whether `apply_gate` of an identity, at an offset where `zero_signs_exact` holds, gives
    a finite `a` back byte for byte: true iff no real or imaginary part of `a` is -0.0.

    Under IEEE 754 round-to-nearest (Goldberg, "What every computer scientist should know
    about floating-point arithmetic", 1991), each part of I·a is one term, the part times
    exactly 1, plus exact zeros from the other entries, so a nonzero part comes out unchanged.
    A zero part is a sum of zeros that includes the diagonal term's +0, and such a sum is +0
    in any order. Only a -0 part can change. One comparison of `a`, read as int64, against
    the bit pattern of -0.0 tells, in O(size of a).
    """
    return not (np.ascontiguousarray(a).view(np.int64) == _NEG_ZERO).any()


def zero_signs_exact(a: np.ndarray, offset: int, k: int) -> bool:
    """Whether `apply_gate`'s product for a k-qubit gate at `offset` sums each zero part as
    `identity_keeps` assumes: true if it has 1 trailing column or a multiple of 4.

    OpenBLAS (0.3.31, Haswell kernels) multiplies the columns left over from groups of 4 with
    kernels of their own, and those can write -0 for a +0 real part (seen when the other rows
    of its column had negative real parts). In a property test over n <= 8, every identity
    product that changed a byte had such columns; 1 column (a matrix-vector product) and
    multiples of 4 never did. In `_apply` the count is a power of two, so only 2 is refused:
    where offset + k is one qubit short of the array's.
    """
    columns = a.size >> (offset + k)
    return columns == 1 or columns % 4 == 0


# ---------------------------------------------------------------------------
# named gate library

_GATES = {name: UnitaryMatrix(np.array(rows, dtype=complex), name=name) for name, rows in {
    "H": [[_SQ2, _SQ2], [_SQ2, -_SQ2]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "T": [[1, 0], [0, np.exp(1j * math.pi / 4)]],
    "CNOT": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
}.items()}  # leaves certified once, at import; gate_by_name hands out these instances
_HERMITIAN = {"H", "X", "Y", "Z", "CNOT", "SWAP"}  # an identity is its own adjoint by structure


def identity_gate(n: int) -> UnitaryMatrix:
    """The identity on n qubits, named `I{n}`: structure, with no `data` until it is read."""
    return _unformed(n, name=f"I{n}", is_identity=True)


def gate_by_name(name: str) -> UnitaryMatrix:
    if name.startswith("I") and name[1:].isdecimal() and int(name[1:]) > 0:
        return identity_gate(int(name[1:]))
    if name in _GATES:
        return _GATES[name]
    raise QmllError(f"unknown gate name {name!r}")


def f17(x: float) -> str:
    """Render a double with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def render_rows(a: np.ndarray) -> list[str]:
    """Each row of a complex matrix, or a vector as one row, as `[[re,im],...]` in f17.

    A circuit's matrix holds a few distinct entries many times over, so each
    distinct entry is formatted once, keyed by its 16 bytes: keyed by value,
    -0.0 would merge with 0.0. An `S16` key drops trailing NUL bytes, which
    still leaves one key per 16-byte pattern.
    """
    c = np.ascontiguousarray(a, dtype=complex).reshape(-1)
    keys = c.view("S16").tolist()
    words = dict(zip(keys, c.tolist()))
    for k, z in words.items():
        words[k] = "[%.17g,%.17g]" % (z.real, z.imag)  # f17 of each part
    entries = list(map(words.__getitem__, keys))
    if a.ndim == 1:
        return ["[" + ",".join(entries) + "]"]
    w = a.shape[1]
    return ["[" + ",".join(entries[r * w:(r + 1) * w]) + "]" for r in range(a.shape[0])]
