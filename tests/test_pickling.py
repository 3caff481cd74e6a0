"""Formulas, rule nodes and gates copy and pickle through their constructors."""

import copy
import pickle

import numpy as np
import pytest

from qmll import ProofError, identity_gate, parse_formula, parse_proof
from qmll.formulas import Atom, Box, Diamond, Par, Tensor
from qmll.matrices import UnitaryMatrix, gate_by_name, kron_pair
from qmll.proofs import AxiomRule, CutRule, QRule, proofs_equal

from gen import random_corpus
from test_qiam import golden_proofs


def round_trip(x):
    return pickle.loads(pickle.dumps(x))


def test_a_formula_copies_and_unpickles_as_itself():
    for f in (Box(Atom("a")), parse_formula("((~a * [] b) % <> <> (a % ~b))"), Atom("b", False)):
        assert copy.copy(f) is f and copy.deepcopy(f) is f and round_trip(f) is f


def test_a_formula_unpickled_in_a_fresh_table_is_interned_there():
    """The pickle holds each subformula's class and an atom's name and polarity, not an object
    of the table: loading it after the formula died builds it again, interned."""
    data = pickle.dumps(Par(Diamond(Atom("fresh")), Tensor(Atom("fresh", False), Atom("c"))))
    f = pickle.loads(data)
    assert f is parse_formula("(<> fresh % (~fresh * c))") and f.dual is f.dual.dual.dual


def test_a_deep_formula_and_a_deep_proof_pickle_without_recursion():
    f = Atom("a")
    for _ in range(3000):
        f = Box(f)
    assert round_trip(f) is f and copy.deepcopy(f) is f
    p = AxiomRule(Atom("a"))
    for _ in range(3000):
        p = QRule(1, identity_gate(1), p, flip=True)
    for q in (round_trip(p), copy.deepcopy(p)):
        assert q is not p and q.conclusion == p.conclusion and proofs_equal(p, q, gate_tol=0)


def test_the_corpus_round_trips():
    """The 1000-proof corpus and both golden circuits, pickled as one list: every proof comes
    back equal with its gates bit for bit, and every conclusion formula is the same object."""
    proofs = random_corpus(20260811, 1000) + golden_proofs()
    back = round_trip(proofs)
    assert len(back) == len(proofs)
    for p, q in zip(proofs, back):
        assert proofs_equal(p, q, gate_tol=0)
        assert all(f is g for f, g in zip(p.conclusion, q.conclusion))


def test_a_rule_copies_through_its_checking_constructor():
    p = parse_proof("(cut 2 1 (q 1 H (ax a)) (q 1 X (ax a)))")
    for q in (copy.copy(p), copy.deepcopy(p), round_trip(p)):
        assert type(q) is CutRule and q is not p and proofs_equal(p, q, gate_tol=0)
    fn, args = p.__reduce__()
    (head, count), *rest = args[0]
    with pytest.raises(ProofError, match="out of range"):
        fn([((head[0], (5, 1)), count)] + rest, *args[1:])


def test_a_gate_unpickles_read_only_and_unformed_where_it_was():
    h = gate_by_name("H")
    for g in (h, UnitaryMatrix(np.array([[0, 1j], [1j, 0]])),
              UnitaryMatrix.composed(np.kron(h.data, h.data))):
        for u in (round_trip(g), copy.deepcopy(g), copy.copy(g)):
            assert u.name == g.name and u.data.tobytes() == g.data.tobytes()
            assert not u.data.flags.writeable
    pair = kron_pair(h, identity_gate(3))
    for u in (round_trip(pair), copy.deepcopy(pair)):
        assert "data" not in u.__dict__ and u.dim_qubits == 4
        assert [f.name for f in u.factors] == ["H", "I3"] and u.factors[1].is_identity
        assert u.data.tobytes() == pair.data.tobytes()


def test_unpickling_i16_forms_no_array(monkeypatch):
    monkeypatch.delenv("QMLL_MAX_QUBITS", raising=False)  # the default cap admits 16 qubits
    proof = QRule(16, identity_gate(16), AxiomRule(Atom("a")))
    data = pickle.dumps(proof)
    assert len(data) < 1000
    for fn in ("eye", "kron", "identity"):
        monkeypatch.setattr(np, fn, lambda *a, **k: pytest.fail("an array was formed"))
    back = pickle.loads(data)
    gate = back.gate
    assert gate.is_identity and gate.name == "I16" and "data" not in gate.__dict__
    assert back.conclusion == proof.conclusion
