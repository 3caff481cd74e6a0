import functools
import random
from collections import Counter

import numpy as np
import pytest

from qmll import (circuit_from_json, check, encode, find_redexes, normalize, parse_proof,
                  print_proof, proofs_equal, step, weight)
from qmll import cutelim
from qmll.cutelim import (Redex, TraceStep, _axiom_elim_perm, canonical_form,
                          equal_modulo_representation, summary)
from qmll.errors import MachineError, StaleRedexError
from qmll.formulas import Atom, leading_run, modal_chain
from qmll.matrices import approx_equal, gate_by_name, identity_gate
from qmll.proofs import (AxiomRule, CutRule, ParRule, QRule, TensorRule, children, iter_nodes,
                         print_sequent, rule_count, with_child)

from gen import random_circuit, random_corpus

FIG4 = ("(cut 2 1 (cut 2 1 (q 1 I1 (q 1 H (ax a))) (q 1 X (q 1 Z (ax a)))) "
        "(q 2 CNOT (ax a)))")


def kinds(p):
    return [r.kind for r in find_redexes(p)]


def test_normal_proof_has_no_redexes():
    assert find_redexes(parse_proof("(par 2 1 (tensor 1 1 (ax a) (ax b)))")) == []


def test_modal_axiom_offers_eta():
    p = parse_proof("(ax []a)")
    assert kinds(p) == ["EtaExpand"]


def test_nested_quantum_rules_offer_contraction():
    p = parse_proof("(q 1 I1 (q 1 H (ax a)))")
    assert kinds(p) == ["QContract"]


def test_axiom_reduction_drops_the_cut():
    # cut against an axiom vanishes, leaving the other premise
    p = parse_proof("(cut 1 1 (tensor 1 1 (ax a) (ax b)) (ax a))")
    (r,) = find_redexes(p)
    assert r.kind == "AxiomRed"
    new, sigma = step(p, r)
    assert proofs_equal(new, parse_proof("(tensor 1 1 (ax a) (ax b))"))
    assert Counter(new.conclusion) == Counter(p.conclusion)
    for old_pos, new_pos in enumerate(sigma, start=1):
        assert new.conclusion[new_pos - 1] == p.conclusion[old_pos - 1]


def test_modal_axiom_under_cut_eta_expands_first():
    # the eta family outranks axiom reduction; the cut fires afterwards
    p = parse_proof("(cut 1 2 (q 1 H (ax a)) (ax []a))")
    (r,) = find_redexes(p)
    assert r.kind == "EtaExpand"
    tr = normalize(p)
    assert isinstance(tr.final, QRule)
    assert approx_equal(tr.final.gate.data, gate_by_name("H").data, 1e-12)


def test_quantum_principal_composes_gates():
    p = parse_proof("(cut 2 1 (q 1 H (ax a)) (q 1 H (ax a)))")
    (r,) = find_redexes(p)
    assert r.kind == "QuantumPrincipal"
    new, _ = step(p, r)
    assert isinstance(new, QRule)
    # H then H is the identity, computed by hand
    assert approx_equal(new.gate.data, np.eye(2), 1e-12)
    assert new.conclusion == p.conclusion


def test_contraction_keeps_inner_gate_on_inner_qubits():
    p = parse_proof("(q 1 I1 (q 1 H (ax a)))")
    new, _ = step(p, find_redexes(p)[0])
    assert isinstance(new, QRule) and new.arity == 2
    # inner rule's gate takes the first qubit block: H (x) I
    want = np.kron(gate_by_name("H").data, np.eye(2))
    assert approx_equal(new.gate.data, want, 1e-12)
    assert new.conclusion == p.conclusion


def test_eta_expansion_box_side():
    p = parse_proof("(ax []a)")
    new, sigma = step(p, find_redexes(p)[0])
    assert proofs_equal(new, parse_proof("(q 1 I1 (ax a))"))
    assert sigma == (1, 2)


def test_eta_expansion_diamond_side_swaps():
    p = parse_proof("(ax <>a)")
    new, sigma = step(p, find_redexes(p)[0])
    assert proofs_equal(new, parse_proof("(q 1 I1 (ax ~a))"))
    assert sigma == (2, 1)
    assert Counter(new.conclusion) == Counter(p.conclusion)


def test_eta_strips_maximal_run():
    p = parse_proof("(ax [][]<>a)")
    (r,) = find_redexes(p)
    assert r.data == ("box", 2)
    new, _ = step(p, r)
    assert proofs_equal(new, parse_proof("(q 2 I2 (ax <>a))"))


def test_stale_redex_detected():
    p = parse_proof("(cut 2 1 (q 1 H (ax a)) (q 1 H (ax a)))")
    (r,) = find_redexes(p)
    other = parse_proof("(ax a)")
    with pytest.raises(StaleRedexError):
        step(other, r)


def test_normalize_already_normal():
    p = parse_proof("(ax a)")
    tr = normalize(p)
    assert tr.steps == [] and proofs_equal(tr.final, p)


def test_normalize_fig4_to_single_rule():
    tr = normalize(parse_proof(FIG4))
    nf = tr.final
    assert isinstance(nf, QRule) and nf.arity == 2
    h, z, x = (gate_by_name(g).data for g in "HZX")
    cnot = gate_by_name("CNOT").data
    oracle = cnot @ np.kron(z, x) @ np.kron(h, np.eye(2))
    assert approx_equal(nf.gate.data, oracle, 1e-8)
    assert nf.conclusion == parse_proof(FIG4).conclusion


def test_mirrored_quantum_principal():
    # diamond side on the left premise: conclusion order swaps, flip absorbs it
    p = parse_proof("(q 1 Z (cut 1 2 (q 1 H (ax a)) (q 1 X (ax a))))")
    tr = normalize(p)
    assert check(tr.final).ok
    assert tr.final.conclusion == p.conclusion


def test_subject_reduction_on_corpus():
    corpus = random_corpus(21, 150)
    for p in corpus:
        cur = p
        while True:
            rs = find_redexes(cur)
            if not rs:
                break
            new, sigma = step(cur, rs[0])
            assert check(new).ok
            assert Counter(new.conclusion) == Counter(cur.conclusion)
            for old_pos, new_pos in enumerate(sigma, start=1):
                assert new.conclusion[new_pos - 1] == cur.conclusion[old_pos - 1]
            cur = new


def test_weight_decreases_under_each_schema():
    samples = [
        "(cut 1 2 (q 1 H (ax a)) (ax []a))",          # AxiomRed
        "(cut 2 1 (q 1 H (ax a)) (q 1 H (ax a)))",    # QuantumPrincipal
        "(q 1 I1 (q 1 H (ax a)))",                    # QContract
        "(ax []a)",                                   # EtaExpand box
        "(ax <>a)",                                   # EtaExpand diamond
        "(cut 3 2 (tensor 2 2 (ax a) (ax b)) (par 1 2 (tensor 1 1 (ax ~a) (ax ~b))))",
    ]
    for text in samples:
        p = parse_proof(text)
        for r in find_redexes(p):
            new, _ = step(p, r)
            assert weight(new) < weight(p), text


def test_normal_forms_are_cut_free():
    for p in random_corpus(33, 120):
        nf = normalize(p).final
        assert find_redexes(nf) == []
        assert not any(isinstance(n, CutRule) for _, n in iter_nodes(nf))


def test_confluence_small():
    for p in random_corpus(13, 80):
        base = normalize(p).final
        for seed in (0, 1, 2):
            alt = normalize(p, strategy="random", seed=seed).final
            assert equal_modulo_representation(base, alt)


def test_canonical_form_identifies_axiom_orientations():
    a = parse_proof("(tensor 1 2 (ax ~a) (ax b))")
    b = parse_proof("(tensor 2 2 (ax a) (ax b))")
    assert not proofs_equal(a, b)
    assert equal_modulo_representation(a, b)
    assert a.conclusion == b.conclusion


def test_trace_reports_weights():
    from qmll.cutelim import trace_lines
    tr = normalize(parse_proof(FIG4))
    lines = trace_lines(tr)
    assert len(lines) == len(tr.steps)
    assert all("->" in ln for ln in lines)


# ---------------------------------------------------------------------------
# the default step bound, deep proofs, and the memoized summaries


def test_default_bound_is_the_weight():
    # 2**rule_count allowed 2 and 8 steps here; the weight allows enough
    assert len(normalize(parse_proof("(ax <> [] <> b)")).steps) == 3
    p = parse_proof("(cut 2 2 (ax [] <> [] ~a) (ax <> [] <> a))")
    assert len(normalize(p).steps) == 10


def test_walks_do_not_recurse_on_a_deep_proof():
    a = Atom("a")
    p = CutRule(2, 1, AxiomRule(a), AxiomRule(a))
    for _ in range(3000):
        p = QRule(1, identity_gate(1), p, flip=True)
    assert rule_count(p) == 3003
    assert weight(p) == 3000 + (1 + 1 + 3)
    (r,) = find_redexes(p)
    assert (r.kind, r.path, r.data) == ("AxiomRed", (0,) * 3000, ("right",))
    new, sigma = step(p, r)
    assert sigma == (1, 2)
    assert rule_count(new) == 3001 and weight(new) == 3001
    assert find_redexes(new) == []


def test_proof_walks_do_not_recurse_on_a_deep_normal_form():
    p = CutRule(2, 1, AxiomRule(Atom("a")), AxiomRule(Atom("a")))
    for _ in range(3000):
        p = QRule(1, identity_gate(1), p, flip=True)
    nf = normalize(p).final
    nodes = iter_nodes(nf)
    assert len(nodes) == 3001 and nodes[-1] == ((), nf) and nodes[0][0] == (0,) * 3000
    assert check(nf).ok
    assert print_proof(nf) == "(qflip 1 I1 " * 3000 + "(ax a)" + ")" * 3000
    assert proofs_equal(nf, nf) and not proofs_equal(nf, nf.sub)
    assert proofs_equal(canonical_form(nf), nf, gate_tol=0)


def test_a_deep_normal_form_reads_back_from_its_text():
    p = CutRule(2, 1, AxiomRule(Atom("a")), AxiomRule(Atom("a")))
    for _ in range(3000):
        p = QRule(1, identity_gate(1), p, flip=True)
    nf = normalize(p).final
    text = print_proof(nf)
    back = parse_proof(text)
    assert proofs_equal(back, nf, gate_tol=0) and print_proof(back) == text
    assert print_sequent(back.conclusion) == "<> [] " * 1500 + "~a, " + "[] <> " * 1500 + "a"


# The recursive walks normalize made before the summaries were memoized,
# kept as the reference the memoized ones must agree with.

def ref_rule_count(p):
    return 1 + sum(ref_rule_count(c) for c in children(p))


def ref_weight(p):
    def go(node):
        match node:
            case AxiomRule(f):
                return 2 * modal_chain(f) + 1, 0
            case ParRule(_, _, s):
                w, m = go(s)
                return w + 1, m + 1
            case TensorRule(_, _, l, r):
                wl, ml = go(l)
                wr, mr = go(r)
                return wl + wr + 1, ml + mr + 1
            case QRule(_, _, s, _):
                w, m = go(s)
                return w + 1, m
            case CutRule(_, _, l, r):
                wl, ml = go(l)
                wr, mr = go(r)
                return wl + wr + 3 ** ref_size(node.cut_formula) * (1 + ml + mr), ml + mr

    return go(p)[0]


def ref_size(f):
    return 1 + sum(ref_size(g) for g in (getattr(f, k, None) for k in ("left", "right", "body"))
                   if g is not None)


def ref_cut_redex(node, path):
    L, R, i, j = node.left, node.right, node.i, node.j
    sides = [s for s, prem in (("right", R), ("left", L)) if isinstance(prem, AxiomRule)]
    if sides:
        for s in sides:
            if _axiom_elim_perm(node, s) == tuple(range(1, len(node.conclusion) + 1)):
                return Redex("AxiomRed", path, (s,))
        return Redex("AxiomRed", path, (sides[0],))
    li, lj = len(L.conclusion), len(R.conclusion)
    if isinstance(L, TensorRule) and i == li and isinstance(R, ParRule) and j == lj:
        return Redex("MultPrincipal", path, ("tensor_left",))
    if isinstance(L, ParRule) and i == li and isinstance(R, TensorRule) and j == lj:
        return Redex("MultPrincipal", path, ("par_left",))
    if isinstance(L, QRule) and isinstance(R, QRule):
        if L.arity == R.arity:
            return Redex("QuantumPrincipal", path, ("A" if (i, j) == (2, 1) else "B",))
        return None
    if isinstance(R, ParRule) and j != lj:
        return Redex("CommutePar", path, ("R",))
    if isinstance(R, TensorRule) and j != lj:
        part = "CommuteTensorLeft" if j <= len(R.left.conclusion) - 1 else "CommuteTensorRight"
        return Redex(part, path, ("R",))
    if isinstance(L, ParRule) and i != li:
        return Redex("CommutePar", path, ("L",))
    if isinstance(L, TensorRule) and i != li:
        part = "CommuteTensorLeft" if i <= len(L.left.conclusion) - 1 else "CommuteTensorRight"
        return Redex(part, path, ("L",))
    return None


REF_FAMILY = {"EtaExpand": 0, "AxiomRed": 1, "QContract": 2, "MultPrincipal": 3,
              "QuantumPrincipal": 4, "CommutePar": 5, "CommuteTensorLeft": 5,
              "CommuteTensorRight": 5}


def ref_find_redexes(p):
    families = [[] for _ in range(6)]

    def walk(node, path):
        for k, c in enumerate(children(node)):
            walk(c, path + (k,))
        if isinstance(node, AxiomRule):
            kind, n, _ = leading_run(node.formula)
            if n >= 1:
                families[0].append(Redex("EtaExpand", path, (kind, n)))
        elif isinstance(node, QRule) and not node.flip and isinstance(node.sub, QRule):
            families[2].append(Redex("QContract", path))
        elif isinstance(node, CutRule):
            r = ref_cut_redex(node, path)
            if r is not None:
                families[REF_FAMILY[r.kind]].append(r)

    walk(p, ())
    for idx, fam in enumerate(families):
        if fam:
            return fam[:1] if idx >= 3 else fam
    return []


def assert_summaries_match_fresh_walks(p, strategy, seed=0):
    """Along normalize's own reduction, every proof's memoized values equal fresh walks."""
    rng = random.Random(seed)
    cur, fired = p, []
    while True:
        assert rule_count(cur) == ref_rule_count(cur)
        assert weight(cur) == ref_weight(cur)
        redexes = find_redexes(cur)
        assert redexes == ref_find_redexes(cur)
        if not redexes:
            break
        r = redexes[0] if strategy == "leftmost-innermost" else rng.choice(redexes)
        fired.append(r)
        cur, _ = step(cur, r)
    trace = normalize(p, strategy=strategy, seed=seed)
    assert [s.redex for s in trace.steps] == fired
    assert print_proof(trace.final) == print_proof(cur)


def test_memoized_summaries_match_fresh_walks_on_corpus():
    for idx, p in enumerate(random_corpus(20260811, 300)):
        assert_summaries_match_fresh_walks(p, "leftmost-innermost")
        assert_summaries_match_fresh_walks(p, "random", seed=idx)


@pytest.mark.parametrize("seed", [11, 12])
def test_memoized_summaries_match_fresh_walks_on_circuits(seed):
    p = encode(circuit_from_json(random_circuit(seed, 3, 120)))
    assert_summaries_match_fresh_walks(p, "leftmost-innermost")
    assert_summaries_match_fresh_walks(p, "random", seed=seed)


# ---------------------------------------------------------------------------
# The hand-written position arithmetic that step permutations were computed
# with before they were derived from premise_source/conclusion_position,
# kept as the reference the derived ones must agree with exactly.


def ref_skip(p, removed):
    return p - 1 if p > removed else p


def ref_unskip(t, removed):
    return t + 1 if t >= removed else t


def ref_skip2(p, r1, r2):
    return p - (p > r1) - (p > r2)


def ref_unskip2(t, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    p = t
    if p >= lo:
        p += 1
    if p >= hi:
        p += 1
    return p


def ref_identity(n):
    return tuple(range(1, n + 1))


def ref_axiom_elim_perm(node, side):
    if side == "right":
        nl = len(node.left.conclusion) - 1
        return tuple(ref_unskip(t, node.i) for t in range(1, nl + 1)) + (node.i,)
    nr = len(node.right.conclusion) - 1
    return (node.j,) + tuple(ref_unskip(t, node.j) for t in range(1, nr + 1))


def ref_fire(node, redex):
    if redex.kind == "AxiomRed":
        (side,) = redex.data
        survivor = node.left if side == "right" else node.right
        return survivor, ref_axiom_elim_perm(node, side)
    if redex.kind == "MultPrincipal":
        L, R = node.left, node.right
        if redex.data == ("tensor_left",):
            a, b, c, d = L.i, L.j, R.i, R.j
            inner = CutRule(b, d, L.right, R.sub)
            outer = CutRule(a, (len(L.right.conclusion) - 1) + ref_skip(c, d), L.left, inner)
            return outer, ref_identity(len(node.conclusion))
        c, d, a, b = L.i, L.j, R.i, R.j
        inner = CutRule(c, a, L.sub, R.left)
        outer = CutRule(ref_skip(d, c), b, inner, R.right)
        return outer, ref_identity(len(node.conclusion))
    if redex.kind.startswith("Commute"):
        return ref_fire_commute(node, redex)
    return cutelim._fire(node, redex)  # the schemas whose positions are fixed


def ref_fire_commute(node, redex):
    (side,) = redex.data
    L, R, i, j = node.left, node.right, node.i, node.j
    total = len(node.conclusion)
    nl = len(L.conclusion) - 1
    if redex.kind == "CommutePar":
        if side == "R":
            c, d = R.i, R.j
            j2 = ref_unskip2(j, c, d)
            inner = CutRule(i, j2, L, R.sub)
            return ParRule(nl + ref_skip(c, j2), nl + ref_skip(d, j2), inner), ref_identity(total)
        c, d = L.i, L.j
        i2 = ref_unskip2(i, c, d)
        inner = CutRule(i2, j, L.sub, R)
        repl = ParRule(ref_skip(c, i2), ref_skip(d, i2), inner)
        ntheta = len(L.conclusion) - 1 - 1
        nr = len(R.conclusion) - 1
        perm = []
        for t in range(1, total + 1):
            if t <= ntheta:
                perm.append(t)
            elif t == ntheta + 1:
                perm.append(ntheta + nr + 1)
            else:
                perm.append(t - 1)
        return repl, tuple(perm)
    if redex.kind == "CommuteTensorLeft":
        if side == "R":
            a, b = R.i, R.j
            p1 = ref_unskip(j, a)
            inner = CutRule(i, p1, L, R.left)
            return TensorRule(nl + ref_skip(a, p1), b, inner, R.right), ref_identity(total)
        a, b = L.i, L.j
        p1 = ref_unskip(i, a)
        inner = CutRule(p1, j, L.left, R)
        repl = TensorRule(ref_skip(a, p1), b, inner, L.right)
        m1 = len(L.left.conclusion) - 2
        m2 = len(L.right.conclusion) - 1
        nr = len(R.conclusion) - 1
        perm = []
        for t in range(1, total + 1):
            if t <= m1:
                perm.append(t)
            elif t <= m1 + m2:
                perm.append(t + nr)
            elif t == m1 + m2 + 1:
                perm.append(m1 + nr + m2 + 1)
            else:
                perm.append(t - m2 - 1)
        return repl, tuple(perm)
    if side == "R":
        a, b = R.i, R.j
        n1 = len(R.left.conclusion) - 1
        p2 = ref_unskip(j - n1, b)
        inner = CutRule(i, p2, L, R.right)
        repl = TensorRule(a, nl + ref_skip(b, p2), R.left, inner)
        perm = []
        for t in range(1, total + 1):
            if t <= nl:
                perm.append(t + n1)
            elif t <= nl + n1:
                perm.append(t - nl)
            else:
                perm.append(t)
        return repl, tuple(perm)
    a, b = L.i, L.j
    n1 = len(L.left.conclusion) - 1
    p2 = ref_unskip(i - n1, b)
    inner = CutRule(p2, j, L.right, R)
    repl = TensorRule(a, ref_skip(b, p2), L.left, inner)
    m1, m2, nr = n1, len(L.right.conclusion) - 2, len(R.conclusion) - 1
    perm = []
    for t in range(1, total + 1):
        if t <= m1 + m2:
            perm.append(t)
        elif t == m1 + m2 + 1:
            perm.append(m1 + m2 + nr + 1)
        else:
            perm.append(t - 1)
    return repl, tuple(perm)


def ref_rebuild(node, k, new_child, sig):
    total = len(node.conclusion)
    if sig == ref_identity(len(sig)):
        return with_child(node, k, new_child), ref_identity(total)
    if isinstance(node, CutRule):
        nl = len(node.left.conclusion) - 1
        if k == 0:
            i2 = sig[node.i - 1]
            repl = CutRule(i2, node.j, new_child, node.right)
            perm = [ref_skip(sig[ref_unskip(t, node.i) - 1], i2) if t <= nl else t
                    for t in range(1, total + 1)]
            return repl, tuple(perm)
        j2 = sig[node.j - 1]
        repl = CutRule(node.i, j2, node.left, new_child)
        perm = [t if t <= nl else nl + ref_skip(sig[ref_unskip(t - nl, node.j) - 1], j2)
                for t in range(1, total + 1)]
        return repl, tuple(perm)
    if isinstance(node, ParRule):
        i2, j2 = sig[node.i - 1], sig[node.j - 1]
        repl = ParRule(i2, j2, new_child)
        perm = [t if t == total else ref_skip2(sig[ref_unskip2(t, node.i, node.j) - 1], i2, j2)
                for t in range(1, total + 1)]
        return repl, tuple(perm)
    if isinstance(node, TensorRule):
        nl = len(node.left.conclusion) - 1
        if k == 0:
            i2 = sig[node.i - 1]
            repl = TensorRule(i2, node.j, new_child, node.right)
            perm = [ref_skip(sig[ref_unskip(t, node.i) - 1], i2) if t <= nl else t
                    for t in range(1, total + 1)]
            return repl, tuple(perm)
        j2 = sig[node.j - 1]
        repl = TensorRule(node.i, j2, node.left, new_child)
        perm = [nl + ref_skip(sig[ref_unskip(t - nl, node.j) - 1], j2) if nl < t < total else t
                for t in range(1, total + 1)]
        return repl, tuple(perm)
    return QRule(node.arity, node.gate, new_child, flip=not node.flip), ref_identity(total)


def ref_step(proof, redex):
    spine, node = [], proof
    for k in redex.path:
        spine.append(node)
        node = children(node)[k]
    new, sigma = ref_fire(node, redex)
    for parent, k in zip(reversed(spine), reversed(redex.path)):
        new, sigma = ref_rebuild(parent, k, new, sigma)
    return new, sigma


def assert_steps_match_reference(p, strategy, seed=0):
    """Along a normalization, every step gives the reference's proof and permutation."""
    rng = random.Random(seed)
    cur = p
    while redexes := find_redexes(cur):
        r = redexes[0] if strategy == "leftmost-innermost" else rng.choice(redexes)
        new, sigma = step(cur, r)
        ref_new, ref_sigma = ref_step(cur, r)
        assert proofs_equal(new, ref_new, gate_tol=0), r
        assert sigma == ref_sigma, r
        cur = new


def test_step_permutations_match_hand_written_reference_on_corpus():
    for p in random_corpus(20260811, 300):
        assert_steps_match_reference(p, "leftmost-innermost")
        assert_steps_match_reference(p, "random", seed=1)
        assert_steps_match_reference(p, "random", seed=2)


@pytest.mark.parametrize("seed,qubits,gates", [(7001, 3, 120), (7002, 7, 30)])
def test_step_permutations_match_hand_written_reference_on_golden_circuits(seed, qubits, gates):
    p = encode(circuit_from_json(random_circuit(seed, qubits, gates)))
    assert_steps_match_reference(p, "leftmost-innermost")
    assert_steps_match_reference(p, "random", seed=1)
    assert_steps_match_reference(p, "random", seed=2)


# ---------------------------------------------------------------------------
# the zipper loop against the loop it replaced: find_redexes, then step


GOLDEN_CIRCUITS = [(7001, 3, 120), (7002, 7, 30)]  # as in test_golden.py


@functools.cache
def differential_corpus():
    return random_corpus(20260811, 1000)


def leftmost_by_step(p):
    """normalize's leftmost loop as it ran on whole proofs: its trace steps, perms and proofs."""
    cur, w = p, weight(p)
    steps, perms, proofs = [], [], [p]
    while redexes := find_redexes(cur):
        cur_next, sigma = step(cur, redexes[0])
        steps.append(TraceStep(redexes[0], rule_count(cur), w))
        perms.append(sigma)
        cur, w = cur_next, weight(cur_next)
        proofs.append(cur)
    return steps, perms, proofs, w


def assert_zipper_matches_step_loop(p):
    trace = normalize(p)
    steps, perms, proofs, w = leftmost_by_step(p)
    assert trace.steps == steps
    assert trace.perms == perms
    assert trace.final_weight == w
    assert proofs_equal(trace.final, proofs[-1], gate_tol=0)


def test_zipper_matches_step_loop_on_corpus():
    for p in differential_corpus():
        assert_zipper_matches_step_loop(p)


@pytest.mark.parametrize("seed,qubits,gates", GOLDEN_CIRCUITS)
def test_zipper_matches_step_loop_on_golden_circuits(seed, qubits, gates):
    assert_zipper_matches_step_loop(encode(circuit_from_json(random_circuit(seed, qubits, gates))))


def summaries_per_step(monkeypatch, seed, gates, strategy="leftmost-innermost"):
    """Summaries computed per step of `strategy` (seed 0), the input's own aside."""
    p = encode(circuit_from_json(random_circuit(seed, 3, gates)))
    summary(p)
    calls = 0
    real = cutelim._summarize

    def counting(node, subs):
        nonlocal calls
        calls += 1
        return real(node, subs)

    with monkeypatch.context() as m:
        m.setattr(cutelim, "_summarize", counting)
        steps = len(normalize(p, strategy=strategy).steps)
    return calls / steps


@pytest.mark.parametrize("seed", [1, 2])
def test_leftmost_step_work_does_not_grow_with_depth(monkeypatch, seed):
    # redexes of a 480-gate column sit four times as deep as those of a
    # 120-gate one; rebuilding the path above each would cost four times as much
    assert summaries_per_step(monkeypatch, seed, 480) <= 1.5 * summaries_per_step(
        monkeypatch, seed, 120)


def test_a_tracked_weight_that_drifts_is_caught(monkeypatch):
    # the multiplicative principal step under the par drops two multiplicative
    # rules; a scale that counted the par as a cut would track a weight the
    # built normal form does not have
    p = parse_proof("(par 1 2 (cut 1 3 (par 2 1 (ax a)) (tensor 2 2 (ax ~a) (ax a))))")
    assert normalize(p).final_weight == 2
    real = cutelim._Frame.__init__

    def skewed(self, node, k, above):
        real(self, node, k, above)
        self.scale += 1

    monkeypatch.setattr(cutelim._Frame, "__init__", skewed)
    with pytest.raises(MachineError, match="tracked weight"):
        normalize(p)


def test_tracked_redex_counts_that_drift_are_caught(monkeypatch):
    # contracting the left premise's quantum rules leaves the inner cut over
    # arities 2 and 1, which ends its quantum principal redex; a frame that
    # forgot that redex would track counts the built proof does not have
    p = parse_proof(FIG4)
    r = Redex("QContract", (0, 0))
    assert summary(p.left).own[1] == "QuantumPrincipal"
    assert summary(step(p, r)[0].left).own is None
    real = cutelim._Frame.__init__

    def forgetful(self, node, k, above):
        real(self, node, k, above)
        self.own = None

    monkeypatch.setattr(cutelim._Frame, "__init__", forgetful)
    with pytest.raises(MachineError, match="tracked weight .* redex counts"):
        step(p, r)


def test_scales_filled_on_one_path_are_not_read_on_another():
    # a multiplicative principal redex in each premise of the root cut: the
    # second is reached after the focus leaves the first's path up to the root,
    # so the frames whose scale the first step filled are gone
    mult = "(cut 1 3 (par 2 1 (ax {0})) (tensor 2 2 (ax {1}) (ax {0})))"
    p = parse_proof(f"(cut 2 2 {mult.format('a', '~a')} {mult.format('~a', 'a')})")
    trace = normalize(p)
    assert [s.redex.kind for s in trace.steps].count("MultPrincipal") == 2
    cur = p
    for s in trace.steps:
        assert s.weight_before == weight(cur)
        cur = step(cur, s.redex)[0]
    assert trace.final_weight == weight(cur) == 1


# ---------------------------------------------------------------------------
# the random strategy against the loop it ran on before the zipper:
# find_redexes, a seeded choice, then step


def random_by_step(p, seed):
    """The random strategy's trace steps, perms, final proof and weight, from whole proofs."""
    rng = random.Random(seed)
    cur, w = p, weight(p)
    steps, perms = [], []
    while redexes := ref_find_redexes(cur):
        r = rng.choice(redexes)
        nxt, sigma = ref_step(cur, r)
        w_next = weight(nxt)
        assert w_next < w, r
        steps.append(TraceStep(r, rule_count(cur), w))
        perms.append(sigma)
        cur, w = nxt, w_next
    return steps, perms, cur, w


def assert_random_matches_step_loop(p, seed):
    trace = normalize(p, strategy="random", seed=seed)
    steps, perms, final, w = random_by_step(p, seed)
    assert trace.steps == steps
    assert trace.perms == perms
    assert trace.final_weight == w
    assert proofs_equal(trace.final, final, gate_tol=0)


def test_random_strategy_matches_step_loop_on_corpus():
    for p in differential_corpus():
        for seed in range(20):
            assert_random_matches_step_loop(p, seed)


@pytest.mark.parametrize("seed,qubits,gates", GOLDEN_CIRCUITS)
def test_random_strategy_matches_step_loop_on_golden_circuits(seed, qubits, gates):
    p = encode(circuit_from_json(random_circuit(seed, qubits, gates)))
    for s in range(20):
        assert_random_matches_step_loop(p, s)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_step_work_is_a_fraction_of_the_redex_depth(monkeypatch, seed):
    # rebuilding the path above each fired redex would cost one summary per
    # frame of its depth; the zipper moves only between consecutive picks
    p = encode(circuit_from_json(random_circuit(seed, 3, 480)))
    trace = normalize(p, strategy="random")
    depth = sum(len(s.redex.path) for s in trace.steps) / len(trace.steps)
    assert summaries_per_step(monkeypatch, seed, 480, strategy="random") <= depth / 3
