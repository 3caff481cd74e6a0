import random

import numpy as np
import pytest

from qmll import (CheckFailure, PreconditionError, check, mll_axiom_link_matrix, parse_formula,
                  parse_proof, principal_formulas, print_proof, proofs_equal)
from qmll.errors import ProofError, ProofSyntaxError
from qmll.proofs import (AxiomRule, CutRule, ParRule, QRule, TensorRule, iter_nodes,
                         premise_source, principal_positions, print_sequent, with_child)

from gen import random_corpus

FIG4 = ("(cut 2 1 (cut 2 1 (q 1 I1 (q 1 H (ax a))) (q 1 X (q 1 Z (ax a)))) "
        "(q 2 CNOT (ax a)))")


def test_axiom_conclusion_order():
    p = parse_proof("(ax (a * [] b))")
    assert print_sequent(p.conclusion) == "(~a % <> ~b), (a * [] b)"


def test_qrule_conclusion():
    p = parse_proof("(q 1 H (ax a))")
    assert print_sequent(p.conclusion) == "<> ~a, [] a"


def test_cut_of_axioms():
    p = parse_proof("(cut 2 1 (ax a) (ax a))")
    assert print_sequent(p.conclusion) == "~a, a"


def test_fig4_derivation_checks():
    p = parse_proof(FIG4)
    assert check(p).ok
    assert print_sequent(p.conclusion) == "<> <> ~a, [] [] a"


def test_three_qubit_identity_checks():
    p = parse_proof("(q 3 I3 (ax a))")
    assert check(p).ok
    assert print_sequent(p.conclusion) == "<> <> <> ~a, [] [] [] a"


def test_arity_mismatch_rejected():
    with pytest.raises(CheckFailure) as e:
        parse_proof("(q 1 CNOT (ax a))")
    assert "arity" in str(e.value)


def test_mixed_modality_premise_rejected():
    # premise |- []b, (a % (~a * <>~b)) mixes a modal and a non-modal formula
    text = "(q 1 H (par 1 3 (tensor 1 1 (ax a) (ax [] b))))"
    with pytest.raises(CheckFailure) as e:
        parse_proof(text)
    assert "modal" in str(e.value)
    assert "root" in str(e.value)  # node path of the offending rule


def test_cut_requires_duals():
    with pytest.raises(CheckFailure):
        parse_proof("(cut 2 2 (ax a) (ax a))")


def test_positions_out_of_range():
    with pytest.raises(CheckFailure):
        parse_proof("(par 1 3 (ax a))")


def test_syntax_error_position():
    with pytest.raises(ProofSyntaxError):
        parse_proof("(ax a")
    with pytest.raises(ProofSyntaxError):
        parse_proof("(frob 1 2 (ax a))")


def test_round_trip_examples():
    for text in ["(ax a)", "(q 1 H (ax a))", "(qflip 2 SWAP (ax (<> a * <> b)))",
                 "(par 2 1 (tensor 1 1 (ax a) (ax b)))", FIG4]:
        p = parse_proof(text)
        assert print_proof(p) == text
        assert proofs_equal(parse_proof(print_proof(p)), p)


def test_matrix_literal_gate_round_trip():
    text = "(q 1 (mat [[0,0],[1,0]] [[1,0],[0,0]]) (ax a))"
    p = parse_proof(text)
    assert np.array_equal(p.gate.data, np.array([[0, 1], [1, 0]], dtype=complex))
    assert print_proof(parse_proof(print_proof(p))) == print_proof(p)


def test_generated_proofs_round_trip():
    for p in random_corpus(3, 60):
        text = print_proof(p)
        assert proofs_equal(parse_proof(text), p, gate_tol=1e-15)
        assert print_proof(parse_proof(text)) == text


def test_check_accepts_generated():
    for p in random_corpus(4, 80):
        assert check(p).ok


def test_principal_formulas():
    p = parse_proof("(par 1 2 (q 1 H (ax a)))")
    # axiom: both conclusion occurrences
    assert principal_formulas(p, (0, 0)) == {((0, 0), 1), ((0, 0), 2)}
    # quantum rule: both conclusion occurrences
    assert principal_formulas(p, (0,)) == {((0,), 1), ((0,), 2)}
    # par: the single bundled occurrence, appended last
    assert principal_formulas(p, ()) == {((), 1)}
    cut = parse_proof("(cut 2 1 (ax a) (ax a))")
    assert principal_formulas(cut, ()) == {((0,), 2), ((1,), 1)}
    with pytest.raises(PreconditionError):
        principal_formulas(p, (5,))


def test_linkage_is_a_bijection():
    for p in random_corpus(5, 40):
        for path, node in iter_nodes(p):
            principal = set(principal_positions(node))
            seen = set()
            for pos in range(1, len(node.conclusion) + 1):
                src = premise_source(node, pos)
                if pos in principal:
                    assert src is None
                else:
                    assert src is not None and src not in seen
                    child, prem = src
                    kids = [c.conclusion for c in _children(node)]
                    assert node.conclusion[pos - 1] == kids[child][prem - 1]
                    seen.add(src)


def _children(node):
    from qmll.proofs import children
    return children(node)


# --- axiom-link permutation matrices ------------------------------------

PI = "(par 2 1 (par 1 2 (tensor 2 2 (ax a) (ax a))))"
RHO = "(par 2 1 (par 2 1 (tensor 2 2 (ax a) (ax a))))"

M_EXPECTED = np.array([[0, 0, 1, 0],
                       [0, 0, 0, 1],
                       [1, 0, 0, 0],
                       [0, 1, 0, 0]])
N_EXPECTED = np.array([[0, 0, 0, 1],
                       [0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [1, 0, 0, 0]])


def test_two_proofs_of_b_give_m_and_n():
    pi = parse_proof(PI)
    rho = parse_proof(RHO)
    b = parse_formula("((~a % ~a) % (a * a))")
    assert pi.conclusion == (b,)
    assert rho.conclusion == (b,)
    assert np.array_equal(mll_axiom_link_matrix(pi), M_EXPECTED)
    assert np.array_equal(mll_axiom_link_matrix(rho), N_EXPECTED)


def test_single_axiom_link_matrix():
    assert np.array_equal(mll_axiom_link_matrix(parse_proof("(ax a)")),
                          np.array([[0, 1], [1, 0]]))


def test_link_matrix_is_symmetric_permutation():
    rng = random.Random(2)
    for _ in range(20):
        # random cut-free multiplicative proofs over atomic axioms
        p = _random_mll(rng, rng.randint(1, 4))
        m = mll_axiom_link_matrix(p)
        assert np.array_equal(m, m.T)
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
        assert (np.diag(m) == 0).all()


def _random_mll(rng, budget):
    if budget <= 1:
        return AxiomRule(parse_formula(rng.choice(["a", "b"])))
    if rng.random() < 0.5:
        l = _random_mll(rng, budget - 1)
        r = _random_mll(rng, max(1, budget - 2))
        return TensorRule(rng.randint(1, len(l.conclusion)),
                          rng.randint(1, len(r.conclusion)), l, r)
    sub = _random_mll(rng, budget - 1)
    n = len(sub.conclusion)
    if n < 2:
        return sub
    i = rng.randint(1, n)
    j = rng.choice([x for x in range(1, n + 1) if x != i])
    return ParRule(i, j, sub)


def test_link_matrix_preconditions():
    with pytest.raises(PreconditionError):
        mll_axiom_link_matrix(parse_proof("(cut 2 1 (ax a) (ax a))"))
    with pytest.raises(PreconditionError):
        mll_axiom_link_matrix(parse_proof("(q 1 H (ax a))"))
    with pytest.raises(PreconditionError):
        mll_axiom_link_matrix(parse_proof("(ax (a % b))"))


def test_with_child_copies_only_above_identical_premise_formulas():
    p = parse_proof("(par 1 2 (tensor 1 1 (ax a) (ax b)))")
    same = with_child(p.sub, 0, p.sub.left)  # a copy concluding the very same objects
    assert same is not p.sub and same.conclusion is p.sub.conclusion
    q = with_child(p, 0, same)
    assert q.sub is same and q.conclusion is p.conclusion
    # equal formulas in other objects: rebuilt and checked, then the old objects kept
    r = with_child(p, 0, parse_proof("(tensor 1 1 (ax a) (ax b))"))
    assert r.conclusion is p.conclusion
    other = with_child(p, 0, parse_proof("(tensor 1 1 (ax b) (ax a))"))
    assert print_sequent(other.conclusion) == "(~b * ~a), (b % a)"


def test_with_child_checks_a_changed_premise():
    p = parse_proof("(cut 2 1 (ax a) (ax a))")
    with pytest.raises(ProofError):
        with_child(p, 1, AxiomRule(parse_formula("b")))
    assert isinstance(with_child(p, 1, AxiomRule(parse_formula("a"))), CutRule)
