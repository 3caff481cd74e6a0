"""Seeded random generators for proofs, formulas, and gates.

Used by the property tests and the acceptance suite. Everything is driven
by a random.Random instance so corpora are reproducible.
"""

from __future__ import annotations

import json
import random

import numpy as np

from qmll import (AxiomRule, CutRule, ParRule, Proof, QRule, TensorRule, UnitaryMatrix,
                  dual, gate_by_name, identity_gate)
from qmll.errors import ProofError
from qmll.formulas import Atom, Box, Diamond, Formula, Par, Tensor, is_modal, leading_run

MAX_ARITY = 3
MAX_NESTING = 6  # cap on stacked modalities so contracted gates stay small
ATOM_NAMES = ["a", "b"]


def random_unitary(rng: random.Random, n: int) -> UnitaryMatrix:
    rs = np.random.RandomState(rng.randrange(2**31))
    dim = 2**n
    m = rs.normal(size=(dim, dim)) + 1j * rs.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return UnitaryMatrix(q)


def random_circuit(seed: int, qubits: int, gates: int) -> str:
    """Circuit JSON: 70% one-qubit gates from H/X/Y/Z/S/T, 30% CNOT on a pair a<b."""
    rng = random.Random(seed)
    out = []
    for _ in range(gates):
        if rng.random() < 0.7:
            out.append({"gate": rng.choice(["H", "X", "Y", "Z", "S", "T"]),
                        "targets": [rng.randint(1, qubits)]})
        else:
            a, b = sorted(rng.sample(range(1, qubits + 1), 2))
            out.append({"gate": "CNOT", "targets": [a, b]})
    return json.dumps({"qubits": qubits, "gates": out})


def random_gate(rng: random.Random, n: int) -> UnitaryMatrix:
    if n == 1 and rng.random() < 0.8:
        return gate_by_name(rng.choice(["H", "X", "Y", "Z", "S", "T", "I1"]))
    if n == 2 and rng.random() < 0.6:
        return gate_by_name(rng.choice(["CNOT", "SWAP", "I2"]))
    if rng.random() < 0.5:
        return identity_gate(n)
    return random_unitary(rng, n)


def random_formula(rng: random.Random, budget: int = 4) -> Formula:
    if budget <= 1 or rng.random() < 0.4:
        return Atom(rng.choice(ATOM_NAMES), rng.random() < 0.5)
    kind = rng.choice(["par", "tensor", "box", "dia", "box", "dia"])
    if kind == "par":
        split = rng.randint(1, budget - 1)
        return Par(random_formula(rng, split), random_formula(rng, budget - 1 - split))
    if kind == "tensor":
        split = rng.randint(1, budget - 1)
        return Tensor(random_formula(rng, split), random_formula(rng, budget - 1 - split))
    if kind == "box":
        return Box(random_formula(rng, budget - 1))
    return Diamond(random_formula(rng, budget - 1))


def _proof_with(rng: random.Random, g: Formula, budget: int) -> tuple[Proof, int]:
    """A proof whose conclusion contains `g`; returns it with g's position."""
    kind, run, _ = leading_run(g)
    roll = rng.random()
    if budget >= 2 and kind and roll < 0.45:
        n = rng.randint(1, min(run, MAX_ARITY))
        if kind == "dia":
            core = g
            for _ in range(n):
                core = core.body
            return QRule(n, random_gate(rng, n), AxiomRule(dual(core))), 1
        core = g
        for _ in range(n):
            core = core.body
        return QRule(n, random_gate(rng, n), AxiomRule(core)), 2
    if budget >= 3 and isinstance(g, Par) and roll < 0.35:
        inner = TensorRule(1, 1, AxiomRule(g.left), AxiomRule(g.right))
        return ParRule(1, 2, inner), 2
    if budget >= 3 and isinstance(g, Tensor) and roll < 0.35:
        return TensorRule(2, 2, AxiomRule(g.left), AxiomRule(g.right)), 3
    if budget >= 4 and roll < 0.5:
        # g as a plain passenger of a par, to exercise commuting past it
        extra = Atom(rng.choice(ATOM_NAMES))
        inner = TensorRule(1, 1, AxiomRule(extra), AxiomRule(g))
        return ParRule(1, 3, inner), 1
    if budget >= 2 and roll < 0.6:
        sub, pos = _proof_with(rng, g, budget - 1)
        extra = AxiomRule(Atom(rng.choice(ATOM_NAMES)))
        others = [p for p in range(1, len(sub.conclusion) + 1) if p != pos]
        if others:
            take = rng.choice(others)
            return TensorRule(take, rng.randint(1, 2), sub, extra), pos - (pos > take)
    return AxiomRule(g), 2


def random_proof(rng: random.Random, budget: int = 10) -> Proof:
    """A well-formed proof with at most `budget` rule instances."""
    p = _grow(rng, budget)
    return p


def _grow(rng: random.Random, budget: int) -> Proof:
    if budget <= 1:
        return AxiomRule(random_formula(rng, rng.randint(1, 4)))
    kind = rng.choices(["axiom", "par", "tensor", "qrule", "cut"],
                       weights=[15, 15, 15, 30, 25])[0]
    if kind == "axiom":
        return AxiomRule(random_formula(rng, rng.randint(1, 4)))
    if kind == "par":
        sub = _grow(rng, budget - 1)
        n = len(sub.conclusion)
        if n < 2:
            return sub
        i = rng.randint(1, n)
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        return ParRule(i, j, sub)
    if kind == "tensor":
        bl = rng.randint(1, max(1, budget - 2))
        l = _grow(rng, bl)
        r = _grow(rng, budget - 1 - bl)
        return TensorRule(rng.randint(1, len(l.conclusion)),
                          rng.randint(1, len(r.conclusion)), l, r)
    if kind == "qrule":
        sub = _grow(rng, budget - 1)
        prem = sub.conclusion
        if len(prem) == 2 and is_modal(prem[0]) == is_modal(prem[1]):
            from qmll.formulas import modal_chain
            room = MAX_NESTING - max(modal_chain(prem[0]), modal_chain(prem[1]))
            if room >= 1:
                n = rng.randint(1, min(MAX_ARITY, room))
                return QRule(n, random_gate(rng, n), sub)
        return sub
    # cut
    bl = rng.randint(1, max(1, budget - 3))
    l = _grow(rng, bl)
    i = rng.randint(1, len(l.conclusion))
    cut_f = l.conclusion[i - 1]
    r, j = _proof_with(rng, dual(cut_f), budget - 1 - bl)
    try:
        return CutRule(i, j, l, r)
    except ProofError:
        return l


def random_corpus(seed: int, count: int, budget: int = 12) -> list[Proof]:
    from qmll.proofs import rule_count
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = _grow(rng, rng.randint(3, budget))
        if rule_count(p) <= budget:
            out.append(p)
    return out
