"""Seeded inputs for the three workloads, and the fixed robustness probes.

`wide` and `deep` are circuit JSON files that the CLI reads, all of one
shape per workload (qubits, gates). The CNOT spans of every circuit are the
quantiles of the span of a uniform random pair a<b, so every input carries
the typical mix of literal sizes. The seed draws everything else: gate
order, CNOT positions, the single-qubit gates and the basis label given to
`run --input`.

`corpus` is a file of small proofs, one per line, made by a copy of the
acceptance suite's generator recipe (tests/gen.py). The copy is kept here so
that editing the tests cannot move the workload. With the same seed, the
first 1000 proofs are the acceptance corpus (seed 20260811). Proof text is
written by this module's own printer, so the parse/print round trip is
checked against text that did not come from `print_proof`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from qmll import (AxiomRule, CutRule, ParRule, QRule, TensorRule, UnitaryMatrix, dual,
                  gate_by_name, identity_gate)
from qmll.errors import ProofError
from qmll.formulas import Atom, Box, Diamond, Par, Tensor, is_modal, leading_run, modal_chain
from qmll.proofs import rule_count

# (qubits, gates) of every circuit of the workload. One shape per workload
# gives each operation's median many comparable samples; see README.md.
SHAPES = {"wide": (7, 30), "deep": (3, 120)}
CIRCUIT_SLOTS = 120  # more than a run gets through; the loop wraps around
CNOT_SHARE = 0.3
ONE_QUBIT_GATES = ("H", "X", "Y", "Z", "S", "T")

CORPUS_SIZE = 6000
CORPUS_BUDGET = 12


def cnot_spans(m: int, count: int) -> list[int]:
    """`count` quantiles of b-a+1 for a pair a<b drawn uniformly from m qubits."""
    spans = range(2, m + 1)
    weights = [m - s + 1 for s in spans]  # pairs with span s
    total = sum(weights)
    out = []
    for i in range(count):
        q, acc = (i + 0.5) / count * total, 0
        for s, w in zip(spans, weights):
            acc += w
            if q < acc:
                out.append(s)
                break
    return out


def random_circuit(rng: random.Random, m: int, g: int) -> dict:
    n_cnot = round(CNOT_SHARE * g)
    spans = cnot_spans(m, n_cnot)
    rng.shuffle(spans)
    kinds = ["cnot"] * n_cnot + ["one"] * (g - n_cnot)
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "cnot":
            s = spans.pop()
            a = rng.randint(1, m - s + 1)
            gates.append({"gate": "CNOT", "targets": [a, a + s - 1]})
        else:
            gates.append({"gate": rng.choice(ONE_QUBIT_GATES), "targets": [rng.randint(1, m)]})
    return {"qubits": m, "gates": gates}


def write_circuits(workload: str, seed: int, out: Path) -> None:
    m, g = SHAPES[workload]
    (out / "in").mkdir(parents=True, exist_ok=True)
    items = []
    for slot in range(CIRCUIT_SLOTS):
        rng = random.Random(f"{workload}:{seed}:{slot}")
        circ = random_circuit(rng, m, g)
        label = "".join(rng.choice("01") for _ in range(m))
        path = out / "in" / f"{slot:04d}.json"
        path.write_text(json.dumps(circ, separators=(",", ":")) + "\n")
        spans = [t[1] - t[0] + 1 for t in (x["targets"] for x in circ["gates"]) if len(t) == 2]
        items.append({"id": slot, "circuit": str(path.relative_to(out)), "qubits": m,
                      "gates": g, "cnot_span": max(spans, default=0), "label": label})
    (out / "inputs.json").write_text(json.dumps(items, indent=0) + "\n")


# ---------------------------------------------------------------------------
# corpus: copy of the acceptance suite's generator recipe

MAX_ARITY = 3
MAX_NESTING = 6
ATOM_NAMES = ["a", "b"]


def random_unitary(rng, n):
    rs = np.random.RandomState(rng.randrange(2**31))
    dim = 2**n
    m = rs.normal(size=(dim, dim)) + 1j * rs.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return UnitaryMatrix(q)


def random_gate(rng, n):
    if n == 1 and rng.random() < 0.8:
        return gate_by_name(rng.choice(["H", "X", "Y", "Z", "S", "T", "I1"]))
    if n == 2 and rng.random() < 0.6:
        return gate_by_name(rng.choice(["CNOT", "SWAP", "I2"]))
    if rng.random() < 0.5:
        return identity_gate(n)
    return random_unitary(rng, n)


def random_formula(rng, budget=4):
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


def _proof_with(rng, g, budget):
    kind, run, _ = leading_run(g)
    roll = rng.random()
    if budget >= 2 and kind and roll < 0.45:
        n = rng.randint(1, min(run, MAX_ARITY))
        core = g
        for _ in range(n):
            core = core.body
        if kind == "dia":
            return QRule(n, random_gate(rng, n), AxiomRule(dual(core))), 1
        return QRule(n, random_gate(rng, n), AxiomRule(core)), 2
    if budget >= 3 and isinstance(g, Par) and roll < 0.35:
        inner = TensorRule(1, 1, AxiomRule(g.left), AxiomRule(g.right))
        return ParRule(1, 2, inner), 2
    if budget >= 3 and isinstance(g, Tensor) and roll < 0.35:
        return TensorRule(2, 2, AxiomRule(g.left), AxiomRule(g.right)), 3
    if budget >= 4 and roll < 0.5:
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


def _grow(rng, budget):
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
        left = _grow(rng, bl)
        right = _grow(rng, budget - 1 - bl)
        return TensorRule(rng.randint(1, len(left.conclusion)),
                          rng.randint(1, len(right.conclusion)), left, right)
    if kind == "qrule":
        sub = _grow(rng, budget - 1)
        prem = sub.conclusion
        if len(prem) == 2 and is_modal(prem[0]) == is_modal(prem[1]):
            room = MAX_NESTING - max(modal_chain(prem[0]), modal_chain(prem[1]))
            if room >= 1:
                n = rng.randint(1, min(MAX_ARITY, room))
                return QRule(n, random_gate(rng, n), sub)
        return sub
    bl = rng.randint(1, max(1, budget - 3))
    left = _grow(rng, bl)
    i = rng.randint(1, len(left.conclusion))
    right, j = _proof_with(rng, dual(left.conclusion[i - 1]), budget - 1 - bl)
    try:
        return CutRule(i, j, left, right)
    except ProofError:
        return left


def random_corpus(seed: int, count: int, budget: int = CORPUS_BUDGET) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = _grow(rng, rng.randint(3, budget))
        if rule_count(p) <= budget:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# the benchmark's own printer for the proof file format


def formula_text(f) -> str:
    if isinstance(f, Atom):
        return f.name if f.positive else "~" + f.name
    if isinstance(f, (Par, Tensor)):
        op = "%" if isinstance(f, Par) else "*"
        return f"({formula_text(f.left)} {op} {formula_text(f.right)})"
    return ("[] " if isinstance(f, Box) else "<> ") + formula_text(f.body)


def _number(x: float) -> str:
    return format(float(x), ".17g")


def proof_text(p) -> str:
    if isinstance(p, AxiomRule):
        return f"(ax {formula_text(p.formula)})"
    if isinstance(p, (CutRule, TensorRule)):
        kw = "cut" if isinstance(p, CutRule) else "tensor"
        return f"({kw} {p.i} {p.j} {proof_text(p.left)} {proof_text(p.right)})"
    if isinstance(p, ParRule):
        return f"(par {p.i} {p.j} {proof_text(p.sub)})"
    gate = p.gate.name or "(mat " + " ".join(
        "[" + ",".join(f"[{_number(z.real)},{_number(z.imag)}]" for z in row) + "]"
        for row in p.gate.data) + ")"
    return f"({'qflip' if p.flip else 'q'} {p.arity} {gate} {proof_text(p.sub)})"


def write_corpus(seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = [proof_text(p) for p in random_corpus(seed, CORPUS_SIZE)]
    (out / "corpus.txt").write_text("\n".join(lines) + "\n")


def write_inputs(workload: str, seed: int, out: Path) -> None:
    if workload == "corpus":
        write_corpus(seed, out)
    else:
        write_circuits(workload, seed, out)


# ---------------------------------------------------------------------------
# fixed probes: inputs that show known defects. `expect` is the outcome a
# correct program gives; `defect` is the exception class seen when the
# defect shows.

PROBES = {
    "deep": (
        # check recurses once per modality level; 331 is the depth at which a
        # fresh `qmll check` process first fails, so one probe sits each side
        {"name": "check-box-chain-300", "command": "check", "text": "(ax " + "[] " * 300 + "a)",
         "expect": "exit0", "defect": None},
        {"name": "check-box-chain-400", "command": "check", "text": "(ax " + "[] " * 400 + "a)",
         "expect": "exit0", "defect": "RecursionError"},
        # eta expansion builds a 2^64 identity without checking QMLL_MAX_QUBITS
        {"name": "normalize-box-chain-64", "command": "normalize",
         "text": "(ax " + "[] " * 64 + "a)", "expect": "exit1", "defect": "ValueError"},
    ),
    "corpus": (
        # the step bound 2**rule_count is too small: these need 3 and 10 steps
        {"name": "normalize-step-bound-ax", "command": "normalize", "text": "(ax <> [] <> b)",
         "expect": "steps3", "defect": "MachineError"},
        {"name": "normalize-step-bound-cut", "command": "normalize",
         "text": "(cut 2 2 (ax [] <> [] ~a) (ax <> [] <> a))",
         "expect": "steps10", "defect": "MachineError"},
    ),
    "wide": (),
}
