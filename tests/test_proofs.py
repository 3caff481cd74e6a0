import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmll import (CheckFailure, PreconditionError, check, mll_axiom_link_matrix, parse_formula,
                  parse_proof, principal_formulas, print_proof, proofs_equal)
from qmll.cli import main
from qmll.errors import ProofError, ProofSyntaxError, SyntaxLocationError
from qmll.matrices import f17
from qmll.proofs import (AxiomRule, CutRule, ParRule, QRule, TensorRule, _literal_data,
                         iter_nodes, premise_source, principal_positions, print_sequent,
                         with_child)
from qmll.tokens import ROW, Token, tokenize

from gen import random_circuit, random_corpus

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


# --- matrix-literal rows: one ROW token per row ---------------------------
#
# `_old_tokenize` and `_old_parse_row` are copies of the character-loop
# tokenizer and the entry parser that read literals one bracket, number and
# comma at a time before rows became single tokens. They are the reference
# the ROW path must agree with.


def _old_tokenize(text):
    punct = {"(": "(", ")": ")", "]": "]", ",": ",", "~": "~", "%": "%", "*": "*"}
    toks, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in punct:
            toks.append(Token(punct[c], c, i))
            i += 1
        elif c == "[":
            if i + 1 < n and text[i + 1] == "]":
                toks.append(Token("[]", "[]", i))
                i += 2
            else:
                toks.append(Token("[", "[", i))
                i += 1
        elif c == "<":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(Token("<>", "<>", i))
                i += 2
            else:
                raise SyntaxLocationError("expected '>' after '<'", i)
        elif c.isdigit() or (c in "+-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")) or c == ".":
            j = i
            if text[j] in "+-":
                j += 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(Token("number", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], i))
            i = j
        else:
            raise SyntaxLocationError(f"unexpected character {c!r}", i)
    toks.append(Token("eof", "", n))
    return toks


def _old_parse_row(toks, k):
    """One row starting at toks[k]: its entries and the index after it."""
    def expect(kind):
        nonlocal k
        t = toks[k]
        if t.kind != kind:
            raise SyntaxLocationError(f"expected {kind!r}, found {t.text!r}", t.pos)
        k += 1
        return t

    expect("[")
    row = []
    while True:
        expect("[")
        re_part = float(expect("number").text)
        expect(",")
        im_part = float(expect("number").text)
        expect("]")
        row.append(complex(re_part, im_part))
        t = toks[k]
        k += 1
        if t.kind == "]":
            return row, k
        if t.kind != ",":
            raise SyntaxLocationError(f"expected ',' or ']', found {t.text!r}", t.pos)


def _old_scan(text):
    """Old tokens outside rows, the offsets of rows, and each literal's matrix."""
    toks = _old_tokenize(text)
    rest, row_offsets, literals, after_mat, k = [], [], [], False, 0
    while k < len(toks):
        t = toks[k]
        if t.kind == "[":
            if after_mat or not literals:
                literals.append([])
            row_offsets.append(t.pos)
            row, k = _old_parse_row(toks, k)
            literals[-1].append(row)
            after_mat = False
        else:
            rest.append((t.kind, t.text, t.pos))
            after_mat = t.text == "mat"
            k += 1
    return rest, row_offsets, [np.array(rows, dtype=complex) for rows in literals]


def _literal_gates(p):
    """The `(mat ...)` gates of p in text order (pre-order, left to right)."""
    out, stack = [], [p]
    while stack:
        node = stack.pop()
        if isinstance(node, QRule) and node.gate.name is None:
            out.append(node.gate.data)
        stack.extend(reversed(_children(node)))
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


SPELLED = [  # literals whose spellings print_proof never writes
    "(q 1 (mat [[-0,0],[1,-0.0]] [[1e0,+0],[-0e5,0.]]) (ax a))",
    "(q 1 (mat [[.6,.8],[0,0]] [[0,0],[6E-1,+8.0e-1]]) (ax b))",
    "(q 1 (mat [ [ 0 , 0 ] ,\n\t[ 1 , 0 ] ] [[1,0] ,[0,0]]) (ax a))",
]


def _literal_texts():
    from test_golden import CASES, GOLDEN
    from qmll.circuits import circuit_from_json, encode
    texts = [print_proof(p) for p in random_corpus(20260811, 1000)]
    texts += [print_proof(encode(circuit_from_json(random_circuit(*CASES[name]))))
              for name in sorted(CASES)]
    texts += [(GOLDEN / f"{name}.nf").read_text().strip() for name in sorted(CASES)]
    return texts


def test_row_tokens_match_the_character_loop():
    texts = _literal_texts()
    assert sum("(mat" in t for t in texts) > 50
    # the same literals with whitespace wherever the grammar allows it
    spaced = [t.replace(",", " ,\n ").replace("[[", "[ \t[") for t in texts if "(mat" in t]
    for text in texts + spaced + SPELLED:
        rest, row_offsets, literals = _old_scan(text)
        toks = tokenize(text)
        assert [(t.kind, t.text, t.pos) for t in toks if t.kind != ROW] == rest
        assert [t.pos for t in toks if t.kind == ROW] == row_offsets
        p = parse_proof(text)
        gates = _literal_gates(p)
        assert len(gates) == len(literals)
        assert all(_same_bits(g, old) for g, old in zip(gates, literals))
    for text in texts:
        assert print_proof(parse_proof(text)) == text


_DIGITS = "0123456789٣７"  # with an Arabic-Indic and a full-width digit
_spellings = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(f17),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda sign, whole, frac, exp: sign + whole + frac + exp,
              st.sampled_from(["", "+", "-"]),
              st.text(_DIGITS, max_size=5),
              st.one_of(st.just(""), st.just("."), st.text(_DIGITS, min_size=1, max_size=5)
                        .map(lambda d: "." + d)),
              st.one_of(st.just(""), st.builds(lambda e, s, d: e + s + d,
                                                st.sampled_from("eE"),
                                                st.sampled_from(["", "+", "-"]),
                                                st.text(_DIGITS, min_size=1, max_size=3)))),
).filter(lambda s: any(c.isdigit() for c in s.split("e")[0].split("E")[0]))


@settings(max_examples=300, deadline=None)
@given(_spellings, _spellings)
def test_row_numbers_are_the_bits_of_float(re_text, im_text):
    toks = tokenize(f"[[{re_text},{im_text}]]")
    assert [t.kind for t in toks] == [ROW, "eof"]
    z = _literal_data([toks[0].text], 0)[0, 0]
    assert _same_bits(np.array([z.real, z.imag]), np.array([float(re_text), float(im_text)]))


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789.eE+-٣", min_size=1, max_size=10))
def test_rows_accept_exactly_what_the_character_loop_parsed(entry):
    text = f"[[{entry},0]]"
    try:
        [old] = _old_scan(text)[2]
    except (SyntaxLocationError, ValueError):
        old = None
    try:
        new = _literal_data([tokenize(text)[0].text], 0)
    except SyntaxLocationError as e:
        assert e.pos == 0
        new = None
    assert (old is None) == (new is None)
    if new is not None:
        assert _same_bits(new, old)


def test_ragged_literal_is_a_syntax_error_at_the_literal():
    with pytest.raises(ProofSyntaxError) as e:
        parse_proof("(q 1 (mat [[1,0],[0,0]] [[0,0],[1,0],[0,0]]) (ax a))")
    assert e.value.pos == 5 and "ragged" in str(e.value)


@pytest.mark.parametrize("literal, offset", [
    ("[[1.2.3,0],[1,0]] [[1,0],[0,0]]", 10),  # a number float() cannot read
    ("[[.,0],[1,0]] [[1,0],[0,0]]", 10),
    ("[[1,0],[0,0]] [[0,0],[1,0],[0,0]]", 5),  # ragged rows
    ("[[1,0] [0,0]] [[0,0],[1,0]]", 10),  # no comma between entries
    ("[ ] [[0,0],[1,0]]", 10),
    ("[[1,0],] [[0,0],[1,0]]", 10),
    ("[[1,0,0]]", 10),
    ("[[0,0],[1,0]] [[1,0],[0,0]", 24),  # unclosed row
])
def test_malformed_literal_exits_2(tmp_path, capsys, literal, offset):
    proof = tmp_path / "bad.proof"
    proof.write_text(f"(q 1 (mat {literal}) (ax a))")
    assert main(["check", str(proof)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("syntax error: ") and err.count("\n") == 1
    assert err.endswith(f"(at offset {offset})\n")


# ---------------------------------------------------------------------------
# parse_proof against the two-pass reader it replaced: `_ref_parse_raw` read
# the text into tuples, and `_ref_build` walked them calling the constructors.

def _ref_parse_raw(ts):
    from qmll import tokens as tk
    from qmll.formulas import parse_formula_stream
    from qmll.proofs import _parse_gate, _parse_position
    start = ts.expect(tk.LP, ProofSyntaxError)
    kw = ts.expect(tk.IDENT, ProofSyntaxError)
    if kw.text == "ax":
        f = parse_formula_stream(ts)
        ts.expect(tk.RP, ProofSyntaxError)
        return ("ax", f, start.pos)
    if kw.text in ("cut", "tensor"):
        i, j = _parse_position(ts), _parse_position(ts)
        l, r = _ref_parse_raw(ts), _ref_parse_raw(ts)
        ts.expect(tk.RP, ProofSyntaxError)
        return (kw.text, i, j, l, r, start.pos)
    if kw.text == "par":
        i, j = _parse_position(ts), _parse_position(ts)
        s = _ref_parse_raw(ts)
        ts.expect(tk.RP, ProofSyntaxError)
        return ("par", i, j, s, start.pos)
    if kw.text in ("q", "qflip"):
        n = _parse_position(ts)
        gate = _parse_gate(ts)
        s = _ref_parse_raw(ts)
        ts.expect(tk.RP, ProofSyntaxError)
        return (kw.text, n, gate, s, start.pos)
    raise ProofSyntaxError(f"unknown rule {kw.text!r}", kw.pos)


def _ref_build(raw, path, violations):
    from qmll.proofs import path_str

    def attempt(ctor, *args):
        try:
            return ctor(*args)
        except ProofError as e:
            violations.append((path_str(path), str(e)))
            return None

    kind = raw[0]
    if kind == "ax":
        return attempt(AxiomRule, raw[1])
    if kind == "cut":
        l = _ref_build(raw[3], path + (0,), violations)
        r = _ref_build(raw[4], path + (1,), violations)
        return attempt(CutRule, raw[1], raw[2], l, r) if l and r else None
    if kind == "par":
        s = _ref_build(raw[3], path + (0,), violations)
        return attempt(ParRule, raw[1], raw[2], s) if s else None
    if kind == "tensor":
        l = _ref_build(raw[3], path + (0,), violations)
        r = _ref_build(raw[4], path + (1,), violations)
        return attempt(TensorRule, raw[1], raw[2], l, r) if l and r else None
    s = _ref_build(raw[3], path + (0,), violations)
    return attempt(QRule, raw[1], raw[2], s, kind == "qflip") if s else None


def _ref_parse_proof(text):
    from qmll import tokens as tk
    from qmll.proofs import CheckReport
    ts = tk.TokenStream(tk.tokenize(text))
    raw = _ref_parse_raw(ts)
    end = ts.peek()
    if end.kind != tk.EOF:
        raise ProofSyntaxError(f"trailing input {end.text!r}", end.pos)
    violations = []
    p = _ref_build(raw, (), violations)
    if violations or p is None:
        raise CheckFailure(CheckReport(False, tuple(violations)))
    return p


def _outcome(read, text):
    """What `read` makes of `text`: the proof, or the exception's class, message, offset and violations."""
    try:
        return read(text)
    except Exception as e:
        report = getattr(e, "report", None)
        return (type(e), str(e), getattr(e, "pos", None), report and report.violations)


def _assert_same_reading(text):
    new, old = _outcome(parse_proof, text), _outcome(_ref_parse_proof, text)
    if isinstance(old, tuple):
        assert new == old, text
    else:
        assert proofs_equal(new, old, gate_tol=0), text
        assert print_proof(new) == print_proof(old)


def _broken_variants(text, rng):
    """A truncation, trailing input, one position argument bumped (alone and with
    trailing input), and an unknown keyword."""
    numbers = [t for t in tokenize(text) if t.kind == "number"]
    out = [text[:len(text) // 2], text + " (ax a)"]
    if numbers:
        t = rng.choice(numbers)
        bumped = text[:t.pos] + str(int(t.text) + 1) + text[t.pos + len(t.text):]
        out += [bumped, bumped + " (ax a)"]
    kw = rng.choice(list(re.finditer(r"\((?:ax|cut|par|tensor|q|qflip) ", text)))
    out.append(f"{text[:kw.start() + 1]}frob {text[kw.end():]}")
    return out


def test_one_pass_reader_matches_the_two_pass_reader_on_the_corpus():
    rng = random.Random(5)
    texts = [print_proof(p) for p in random_corpus(20260811, 1000)]
    kinds = Counter()
    for text in texts:
        _assert_same_reading(text)
        for broken in _broken_variants(text, rng):
            _assert_same_reading(broken)
            outcome = _outcome(parse_proof, broken)
            kinds[outcome[0].__name__ if isinstance(outcome, tuple) else "ok"] += 1
    # the variants reach both the syntax errors and the rule violations
    assert kinds["ProofSyntaxError"] > 2000 and kinds["CheckFailure"] > 500, kinds


def test_one_pass_reader_matches_the_two_pass_reader_on_golden_proofs():
    from test_golden import CASES, GOLDEN
    from qmll.circuits import circuit_from_json, encode
    for name in sorted(CASES):
        encoded = print_proof(encode(circuit_from_json(random_circuit(*CASES[name]))))
        _assert_same_reading(encoded)
        _assert_same_reading((GOLDEN / f"{name}.nf").read_text())


def test_violations_keep_their_post_order_paths():
    text = "(cut 2 1 (par 1 1 (ax a)) (tensor 1 1 (q 1 CNOT (ax b)) (cut 1 1 (ax c) (ax c))))"
    with pytest.raises(CheckFailure) as e:
        parse_proof(text)
    assert e.value.report.violations == (
        ("0", "par positions must be distinct"),
        ("1.0", "gate acts on 2 qubits but the declared arity is 1"),
        ("1.1", "cut formulas are not dual: ~c vs ~c"))
    _assert_same_reading(text)


def test_repr_and_str_of_a_3000_deep_chain_return():
    from qmll.formulas import Atom
    from qmll.matrices import identity_gate
    p = CutRule(2, 1, AxiomRule(Atom("a")), AxiomRule(Atom("a")))
    for _ in range(3000):
        p = QRule(1, identity_gate(1), p, flip=True)
    assert repr(p) == str(p) == f"<QRule |- {print_sequent(p.conclusion)}>"
    assert repr(parse_proof("(par 1 2 (ax a))")) == "<ParRule |- (~a % a)>"


@pytest.mark.parametrize("text, message", [
    ("(cut 3 1 (ax a) (ax a))", "cut position 3 out of range for left premise of length 2"),
    ("(cut 2 5 (ax a) (ax a))", "cut position 5 out of range for right premise of length 2"),
    ("(cut 2 1 (ax a) (ax b))", "cut formulas are not dual: a vs ~b"),
    ("(par 1 3 (ax a))", "par position 3 out of range for premise of length 2"),
    ("(par 2 2 (ax a))", "par positions must be distinct"),
    ("(tensor 3 1 (ax a) (ax b))", "tensor position 3 out of range for left premise of length 2"),
    ("(tensor 1 0 (ax a) (ax b))", "tensor position 0 out of range for right premise of length 2"),
    ("(q 0 H (ax a))", "quantum rule arity must be positive, got 0; "
                       "gate acts on 1 qubits but the declared arity is 0"),
    ("(q 2 H (ax a))", "gate acts on 1 qubits but the declared arity is 2"),
    ("(q 1 H (tensor 2 2 (ax a) (ax b)))",
     "quantum rule premise must have exactly 2 formulas, got 3"),
    ("(q 1 H (par 1 3 (tensor 2 1 (ax a) (ax [] b))))",
     "quantum rule premise mixes a modal and a non-modal formula: [] b, (~a % (a * <> ~b))"),
])
def test_each_side_condition_reports_its_message(text, message):
    with pytest.raises(CheckFailure) as e:
        parse_proof(text)
    assert str(e.value) == f"at root: {message}"


def test_a_cut_of_two_one_formula_premises_would_conclude_nothing():
    """No two proofs conclude one formula and its dual alone, so stand-ins play the premises."""
    from types import SimpleNamespace
    from qmll.formulas import Atom
    left, right = (SimpleNamespace(conclusion=(f,)) for f in (Atom("a", False), Atom("a")))
    with pytest.raises(ProofError, match=r"^cut would conclude the empty sequent$"):
        CutRule(1, 1, left, right)


def test_assigning_or_deleting_a_rule_node_attribute_raises():
    texts = ["(cut 2 1 (q 1 H (ax a)) (q 1 X (ax a)))", "(par 1 3 (tensor 2 1 (ax a) (ax a)))"]
    p, q = map(parse_proof, texts)
    for node, name in ((p, "i"), (p, "conclusion"), (p, "summary"), (p.left, "gate"),
                       (p.left, "flip"), (p.left.sub, "formula"), (q, "sub"), (q.sub, "j")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert [print_proof(p), print_proof(q)] == texts


def _chain(depth):
    """A cut under `depth` flipped quantum rules, as CI's 3000-deep chain is built."""
    from qmll.formulas import Atom
    from qmll.matrices import identity_gate
    p = CutRule(2, 1, AxiomRule(Atom("a")), AxiomRule(Atom("a")))
    for _ in range(depth):
        p = QRule(1, identity_gate(1), p, flip=True)
    return p


def test_check_of_a_3000_deep_chain_keeps_no_paths():
    import tracemalloc
    p = _chain(3000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert check(p).ok
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak  # a path per node held 36 MB


def test_check_reports_the_first_injected_violation_in_post_order(monkeypatch):
    from qmll.proofs import path_str
    rng = random.Random(9)
    proofs = random_corpus(20260811, 300) + [_chain(50)]
    for p in proofs:
        nodes = [node for _, node in iter_nodes(p)]
        chosen = {id(rng.choice(nodes)) for _ in range(2)}
        with monkeypatch.context() as m:
            for cls in {type(node) for node in nodes}:
                real = cls._violations
                m.setattr(cls, "_violations", lambda self, real=real: (
                    [f"injected at {type(self).__name__}"] if id(self) in chosen else real(self)))
            want = next((path_str(path), msgs[0]) for path, node in iter_nodes(p)
                        if (msgs := node._violations()))
            assert check(p).violations == (want,)
