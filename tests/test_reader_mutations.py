"""`parse_proof` and `parse_formula` against a frozen copy of the reader they replaced.

The `ref_*` functions below are a copy of the character-loop reader that read
proofs before the tokenizer became one compiled scan: its tokenizer, token
stream, formula, position, gate and literal readers, and its one-pass
`parse_proof`. They share no code with `qmll.tokens` or the readers in
`qmll.proofs` and `qmll.formulas`; they call only the rule constructors, the
formula constructors and the gate library. Each text below is a mutation of
a well-formed proof or formula, and both readers must make the same of it:
the same proof, byte for byte, or the same exception class, message, offset
and violations.
"""

from __future__ import annotations

import random
import re
from collections import Counter, namedtuple
from functools import partial

import numpy as np

from qmll import parse_formula, parse_proof, print_proof, proofs_equal
from qmll.circuits import circuit_from_json, encode
from qmll.errors import (CheckFailure, FormulaSyntaxError, PreconditionError, ProofError,
                         ProofSyntaxError, QmllError, SyntaxLocationError)
from qmll.formulas import Atom, Box, Diamond, Par, Tensor, print_formula
from qmll.matrices import UnitaryMatrix, check_qubits, gate_by_name
from qmll.proofs import AxiomRule, CheckReport, CutRule, ParRule, QRule, TensorRule, path_str

from gen import random_circuit, random_corpus
from test_golden import CASES, GOLDEN

# ---------------------------------------------------------------------------
# the reference reader

RefToken = namedtuple("RefToken", "kind text pos")
_R_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_R_ENTRY = rf"\[\s*{_R_NUMBER.pattern}\s*,\s*{_R_NUMBER.pattern}\s*\]"
_R_ROW = re.compile(rf"\[\s*{_R_ENTRY}(?:\s*,\s*{_R_ENTRY})*\s*\]")
_R_PUNCT = {"(": "(", ")": ")", "]": "]", ",": ",", "~": "~", "%": "%", "*": "*"}


def ref_tokenize(text):
    toks, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _R_PUNCT:
            toks.append(RefToken(_R_PUNCT[c], c, i))
            i += 1
        elif c == "[":
            if i + 1 < n and text[i + 1] == "]":
                toks.append(RefToken("[]", "[]", i))
                i += 2
            else:
                m = _R_ROW.match(text, i)
                if m is None:
                    raise SyntaxLocationError(
                        "malformed matrix row: expected [[re,im],...,[re,im]]", i)
                toks.append(RefToken("row", m.group(), i))
                i = m.end()
        elif c == "<":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(RefToken("<>", "<>", i))
                i += 2
            else:
                raise SyntaxLocationError("expected '>' after '<'", i)
        elif (c.isdigit() or c in "+-.") and (m := _R_NUMBER.match(text, i)):
            toks.append(RefToken("number", m.group(), i))
            i = m.end()
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(RefToken("ident", text[i:j], i))
            i = j
        else:
            raise SyntaxLocationError(f"unexpected character {c!r}", i)
    toks.append(RefToken("eof", "", n))
    return toks


class RefStream:
    def __init__(self, toks):
        self.toks = toks
        self.idx = 0

    def peek(self):
        return self.toks[self.idx]

    def next(self):
        t = self.toks[self.idx]
        if t.kind != "eof":
            self.idx += 1
        return t

    def expect(self, kind, err=SyntaxLocationError):
        t = self.next()
        if t.kind != kind:
            raise err(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        return t


_R_OPENS = {"[]": Box, "<>": Diamond, "(": None}


def ref_formula_stream(ts):
    stack = []
    while True:
        t = ts.next()
        if t.kind in _R_OPENS:
            stack.append(_R_OPENS[t.kind])
            continue
        if t.kind == "ident":
            f = Atom(t.text, True)
        elif t.kind == "~":
            f = Atom(ts.expect("ident", FormulaSyntaxError).text, False)
        else:
            raise FormulaSyntaxError(f"unexpected {t.text or 'end of input'!r} in formula", t.pos)
        while stack:
            top = stack.pop()
            if top is None:
                op = ts.next()
                if op.kind not in ("%", "*"):
                    raise FormulaSyntaxError(f"expected '%' or '*', found {op.text!r}", op.pos)
                stack.append((Par if op.kind == "%" else Tensor, f))
                break
            if type(top) is tuple:
                ts.expect(")", FormulaSyntaxError)
                f = top[0](top[1], f)
            else:
                f = top(f)
        else:
            return f


def ref_parse_formula(text):
    try:
        ts = RefStream(ref_tokenize(text))
    except SyntaxLocationError as e:
        raise FormulaSyntaxError(e.message, e.pos) from e
    f = ref_formula_stream(ts)
    end = ts.peek()
    if end.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {end.text!r}", end.pos)
    return f


def ref_position(ts):
    t = ts.expect("number", ProofSyntaxError)
    try:
        return int(t.text)
    except ValueError:
        raise ProofSyntaxError(f"expected an integer position, found {t.text!r}", t.pos)


_R_ROW_PUNCT = str.maketrans("[],", "   ")


def ref_literal_data(rows, pos):
    nums = [row.translate(_R_ROW_PUNCT).split() for row in rows]
    width = len(nums[0])
    for k, row in enumerate(nums[1:], start=2):
        if len(row) != width:
            raise ProofSyntaxError(f"ragged matrix literal: row {k} has {len(row) // 2} "
                                   f"entries, row 1 has {width // 2}", pos)
    flat = np.array([float(x) for row in nums for x in row])
    return flat.view(complex).reshape(len(rows), width // 2)


def ref_gate(ts):
    t = ts.peek()
    if t.kind == "ident":
        ts.next()
        try:
            return gate_by_name(t.text)
        except PreconditionError:
            raise
        except QmllError as e:
            raise ProofSyntaxError(str(e), t.pos) from e
    if t.kind == "(":
        ts.next()
        kw = ts.expect("ident", ProofSyntaxError)
        if kw.text != "mat":
            raise ProofSyntaxError(f"expected 'mat', found {kw.text!r}", kw.pos)
        rows = []
        while ts.peek().kind == "row":
            rows.append(ts.next().text)
        ts.expect(")", ProofSyntaxError)
        if not rows:
            raise ProofSyntaxError("empty matrix literal", t.pos)
        check_qubits((len(rows) - 1).bit_length())
        data = ref_literal_data(rows, t.pos)
        try:
            return UnitaryMatrix(data)
        except QmllError as e:
            raise ProofSyntaxError(f"bad matrix literal: {e}", t.pos) from e
    raise ProofSyntaxError(f"expected a gate, found {t.text!r}", t.pos)


_R_RULES = {  # keyword -> (constructor, readers, premise count)
    "ax": (AxiomRule, (ref_formula_stream,), 0),
    "cut": (CutRule, (ref_position, ref_position), 2),
    "par": (ParRule, (ref_position, ref_position), 1),
    "tensor": (TensorRule, (ref_position, ref_position), 2),
    "q": (QRule, (ref_position, ref_gate), 1),
    "qflip": (partial(QRule, flip=True), (ref_position, ref_gate), 1),
}


def ref_open_rule(ts):
    ts.expect("(", ProofSyntaxError)
    kw = ts.expect("ident", ProofSyntaxError)
    if kw.text not in _R_RULES:
        raise ProofSyntaxError(f"unknown rule {kw.text!r}", kw.pos)
    ctor, readers, premises = _R_RULES[kw.text]
    return (ctor, [read(ts) for read in readers], [], premises)


def ref_parse_proof(text):
    ts = RefStream(ref_tokenize(text))
    violations = []
    stack = []
    while True:
        rule = ref_open_rule(ts)
        while len(rule[2]) == rule[3]:
            ts.expect(")", ProofSyntaxError)
            ctor, head, premises, _ = rule
            node = None
            if None not in premises:
                try:
                    node = ctor(*head, *premises)
                except ProofError as e:
                    path = tuple(len(r[2]) for r in stack)
                    violations.append((path_str(path), str(e)))
            if not stack:
                end = ts.peek()
                if end.kind != "eof":
                    raise ProofSyntaxError(f"trailing input {end.text!r}", end.pos)
                if violations:
                    raise CheckFailure(CheckReport(False, tuple(violations)))
                return node
            rule = stack.pop()
            rule[2].append(node)
        stack.append(rule)


# ---------------------------------------------------------------------------
# mutations

SPLICES = ["²", "½", "٣", "７", "+.", "\r\n", "\t\t"]
RESPELLED = ["1.2.3", ".5", "5.", "1e", "1e3", "+1", "-0", "٣", "1²"]  # a position's spelling
ENTRIES = ["-0", "0.", "-0.0e0", ".0", "1e0", "+1", "-1", "٣", "1.2.3", "."]  # a row entry's
NAMES = ["ax", "cut", "par", "tensor", "q", "qflip", "mat", "frob", "H", "T", "CNOT", "SWAP",
         "I1", "I2", "I3", "I0", "I99", "a", "b", "_x"]


def mutants(text, rng):
    """Mutations of a text the reference reads: a token deleted, duplicated or swapped with
    the next, a position bumped or respelled, a name replaced, a row with a comma or
    bracket dropped, one entry longer or a number respelled, a character sequence spliced
    in, and a truncation."""
    toks = ref_tokenize(text)[:-1]

    def swap(t, new):
        return text[:t.pos] + new + text[t.pos + len(t.text):]

    def splice(k):
        return text[:k] + rng.choice(SPLICES) + text[k:]

    t = rng.choice(toks)
    out = [swap(t, ""), swap(t, f"{t.text} {t.text}")]
    if len(toks) > 1:
        k = rng.randrange(len(toks) - 1)
        a, b = toks[k], toks[k + 1]
        out.append(text[:a.pos] + b.text + text[a.pos + len(a.text):b.pos] + a.text
                   + text[b.pos + len(b.text):])
    numbers = [t for t in toks if t.kind == "number"]
    if numbers:
        out.append(swap(t := rng.choice(numbers), str(int(t.text) + 1)))
        out.append(swap(rng.choice(numbers), rng.choice(RESPELLED)))
    idents = [t for t in toks if t.kind == "ident"]
    if idents:
        out.append(swap(rng.choice(idents), rng.choice(NAMES)))
    rows = [t for t in toks if t.kind == "row"]
    if rows:
        t = rng.choice(rows)
        k = rng.choice([k for k, c in enumerate(t.text) if c in ",[]"])
        out.append(swap(t, t.text[:k] + t.text[k + 1:]))
        t = rng.choice(rows)
        out.append(swap(t, t.text[:-1] + ",[0,0]]"))
        t = rng.choice(rows)
        out.append(splice(t.pos + rng.randrange(len(t.text))))
        t = rng.choice(rows)
        word = rng.choice(list(re.finditer(r"[^\[\],\s]+", t.text)))
        out.append(swap(t, t.text[:word.start()] + rng.choice(ENTRIES) + t.text[word.end():]))
    out.append(splice(rng.choice(toks).pos))
    out.append(splice(rng.randrange(len(text) + 1)))
    out.append(text[:rng.randrange(len(text))])
    return out


def _outcome(read, text):
    try:
        return read(text)
    except QmllError as e:
        report = getattr(e, "report", None)
        return (type(e), str(e), getattr(e, "pos", None), report and report.violations)


def _same_proof_reading(text, seen):
    new, old = _outcome(parse_proof, text), _outcome(ref_parse_proof, text)
    if isinstance(old, tuple):
        assert new == old, text[:200]
        seen[old[0].__name__] += 1
    else:
        assert proofs_equal(new, old, gate_tol=0), text[:200]
        assert print_proof(new) == print_proof(old)
        seen["ok"] += 1


def _base_proofs():
    texts = [print_proof(p) for p in random_corpus(20260811, 1000)]
    for name in sorted(CASES):
        texts.append(print_proof(encode(circuit_from_json(random_circuit(*CASES[name])))))
        texts.append((GOLDEN / f"{name}.nf").read_text().strip())
    for seed in range(20):
        for qubits, gates in ((7, 30), (3, 120)):  # the shapes of the `wide` and `deep` proofs
            texts.append(print_proof(encode(circuit_from_json(
                random_circuit(9000 + seed, qubits, gates)))))
    return texts


def test_mutated_proofs_read_as_the_reference_reads_them():
    rng = random.Random(22)
    seen = Counter()
    for text in _base_proofs():
        _same_proof_reading(text, seen)
        for mutant in mutants(text, rng):
            _same_proof_reading(mutant, seen)
    assert sum(seen.values()) >= 5000, seen
    # the mutations reach well-formed proofs, tokenizer and parser errors and rule violations
    assert seen["ok"] > 1000 and seen["ProofSyntaxError"] > 2000, seen
    assert seen["SyntaxLocationError"] > 500 and seen["CheckFailure"] > 500, seen


def test_mutated_formulas_read_as_the_reference_reads_them():
    rng = random.Random(23)
    formulas = {f for p in random_corpus(20260811, 1000) for f in p.conclusion}
    seen = Counter()
    for text in sorted(map(print_formula, formulas)):
        for variant in [text] + mutants(text, rng):
            new, old = _outcome(parse_formula, variant), _outcome(ref_parse_formula, variant)
            assert new == old if isinstance(old, tuple) else new is old, variant
            seen[old[0].__name__ if isinstance(old, tuple) else "ok"] += 1
    assert sum(seen.values()) >= 5000 and seen["ok"] > 500, seen
    assert seen["FormulaSyntaxError"] > 2000, seen


def test_an_identity_name_is_decimal_digits():
    # `²` is a digit to str.isdigit but not to int(): a syntax error, not a ValueError
    text = "(q 1 I1² (ax a))"
    assert _outcome(parse_proof, text) == _outcome(ref_parse_proof, text) == (
        ProofSyntaxError, "unknown gate name 'I1²' (at offset 5)", 5, None)
    assert gate_by_name("I٣").name == "I3"  # an Arabic-Indic 3 is a decimal digit
