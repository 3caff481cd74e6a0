"""Tokenizer shared by the formula and proof parsers.

Single-character punctuation plus the two-character modal markers `[]`
and `<>`. Any other `[` must start a whole matrix-literal row
`[[re,im],...,[re,im]]`, which is one ROW token; a `[` that does not is a
syntax error at its offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SyntaxLocationError

LP, RP, RB, COMMA = "(", ")", "]", ","
BOX, DIAMOND, TILDE, PERCENT, STAR = "[]", "<>", "~", "%", "*"
IDENT, NUMBER, ROW, EOF = "ident", "number", "row", "eof"

# A NUMBER token, and a number inside a row: exactly the spellings float() reads.
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_ENTRY = rf"\[\s*{_NUMBER.pattern}\s*,\s*{_NUMBER.pattern}\s*\]"
_ROW = re.compile(rf"\[\s*{_ENTRY}(?:\s*,\s*{_ENTRY})*\s*\]")

_PUNCT = {"(": LP, ")": RP, "]": RB, ",": COMMA, "~": TILDE, "%": PERCENT, "*": STAR}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(Token(_PUNCT[c], c, i))
            i += 1
        elif c == "[":
            if i + 1 < n and text[i + 1] == "]":
                toks.append(Token(BOX, "[]", i))
                i += 2
            else:
                m = _ROW.match(text, i)
                if m is None:
                    raise SyntaxLocationError(
                        "malformed matrix row: expected [[re,im],...,[re,im]]", i)
                toks.append(Token(ROW, m.group(), i))
                i = m.end()
        elif c == "<":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(Token(DIAMOND, "<>", i))
                i += 2
            else:
                raise SyntaxLocationError("expected '>' after '<'", i)
        elif (c.isdigit() or c in "+-.") and (m := _NUMBER.match(text, i)):
            toks.append(Token(NUMBER, m.group(), i))
            i = m.end()
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token(IDENT, text[i:j], i))
            i = j
        else:
            raise SyntaxLocationError(f"unexpected character {c!r}", i)
    toks.append(Token(EOF, "", n))
    return toks


class TokenStream:
    """Cursor over a token list with one-token lookahead."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.idx = 0

    def peek(self) -> Token:
        return self.toks[self.idx]

    def next(self) -> Token:
        t = self.toks[self.idx]
        if t.kind != EOF:
            self.idx += 1
        return t

    def expect(self, kind: str, err=SyntaxLocationError) -> Token:
        t = self.next()
        if t.kind != kind:
            raise err(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        return t
