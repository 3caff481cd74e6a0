"""Toolchain for the modal linear logic QMLL.

Parse and check proofs, normalize them by cut elimination, encode unitary
circuits as proofs, and run proofs on a simulated quantum register via a
token machine, extracting the circuit a proof denotes.
"""

from .circuits import (Circuit, EmbeddedGate, circuit_from_json, circuit_to_json,
                       circuit_unitary, embed_gate, encode, extract, simulate)
from .cutelim import Redex, ReductionTrace, find_redexes, normalize, step, weight
from .errors import (CheckFailure, DimensionError, FormulaSyntaxError, MachineError,
                     PreconditionError, ProofError, ProofSyntaxError, QmllError,
                     StaleRedexError)
from .formulas import (Atom, Box, Context, Diamond, Formula, Par, Tensor, contexts_for,
                       depth, dual, parse_formula, print_formula)
from .matrices import (StateVector, UnitaryMatrix, adjoint, apply_gate, approx_equal,
                       basis_state, gate_by_name, identity_gate, matmul, tensor, zero_state)
from .proofs import (AxiomRule, CheckReport, CutRule, ParRule, Proof, QRule, TensorRule,
                     check, mll_axiom_link_matrix, parse_proof, principal_formulas,
                     print_proof, proofs_equal)
from .qiam import (GateEvent, MachineState, OccurrenceGraph, SemanticsResult,
                   extract_gate_sequence, initial_state, negative_entries, run,
                   semantics_relative)

__all__ = [name for name in dir() if not name.startswith("_")]
