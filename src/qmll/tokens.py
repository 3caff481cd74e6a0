"""Tokenizer shared by the formula and proof parsers.

Single-character punctuation plus the two-character modal markers `[]`
and `<>`. Any other `[` must start a whole matrix-literal row
`[[re,im],...,[re,im]]`, which is one ROW token; a `[` that does not is a
syntax error at its offset.

`tokenize` is one compiled scan: each match is a token and the whitespace
after it, so on well-formed text the matches tile the text and a token's
offset is the length of the matches before it. A row matches by its bracket
shape, and each distinct entry is then checked once against the entry
grammar. Only text that fails is scanned again, match by match, for the
offset of the first gap between matches or of the first token refused.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .errors import SyntaxLocationError

LP, RP, RB, COMMA = "(", ")", "]", ","
BOX, DIAMOND, TILDE, PERCENT, STAR = "[]", "<>", "~", "%", "*"
IDENT, NUMBER, ROW, EOF = "ident", "number", "row", "eof"

# A NUMBER token, and a number inside a row: exactly the spellings float() reads.
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_ENTRY = re.compile(rf"\s*{_NUMBER.pattern}\s*,\s*{_NUMBER.pattern}\s*")  # inside [ ]
# One token and the whitespace after it. A match cannot start on whitespace, so
# where one fails, the scan tries again only at the next character.
_TOKEN = re.compile(rf"""(?:
    [()\],~%*] | \[\] | <>
  | \[\s*\[[^\[\]]*\](?:\s*,\s*\[[^\[\]]*\])*\s*\]   # a row, by its bracket shape
  | {_NUMBER.pattern}
  | [^\W\d]\w*   # an identifier, if its first character is a letter or _
)\s*""", re.VERBOSE)

_FIXED = {c: c for c in (LP, RP, RB, COMMA, TILDE, PERCENT, STAR, BOX, DIAMOND)}


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


_token = partial(tuple.__new__, Token)  # a Token from a (kind, text, pos) triple


def tokenize(text: str) -> list[Token]:
    start = len(text) - len(text.lstrip())
    spans = _TOKEN.findall(text, start)
    texts = list(map(str.rstrip, spans))
    kinds = dict.fromkeys(texts)  # each distinct spelling is classified once
    bad = set()
    for s in kinds:
        c = s[0]
        kind = kinds[s] = _FIXED.get(s) or (
            ROW if c == "[" else NUMBER if c in "+-." or c.isdecimal() else IDENT)
        if kind == IDENT and not (c.isalpha() or c == "_"):
            bad.add(s)
    rows = [s for s in kinds if kinds[s] == ROW]
    if not _entries_read("".join(rows)):
        bad.update(filter(lambda s: not _entries_read(s), rows))
    if bad or start + sum(map(len, spans)) != len(text):
        _refuse(text, start, bad)
    pos = accumulate(map(len, spans), initial=start)
    toks = list(map(_token, zip(map(kinds.__getitem__, texts), texts, pos)))
    toks.append(Token(EOF, "", len(text)))
    return toks


def _entries_read(rows: str) -> bool:
    """Whether each entry of rows the scan matched holds two numbers and a comma: cut at
    every `]`, a piece holding a `[` ends in one entry, after its last `[`."""
    return all(_ENTRY.fullmatch(p.rpartition("[")[2]) for p in set(rows.split("]")) if "[" in p)


def _refuse(text: str, end: int, bad: set[str]) -> None:
    """Raise at the first token in `bad`, or at the first text no token matches."""
    for m in _TOKEN.finditer(text, end):
        if m.start() != end or m.group().rstrip() in bad:
            break
        end = m.end()
    c = text[end]
    message = {"[": "malformed matrix row: expected [[re,im],...,[re,im]]",
               "<": "expected '>' after '<'"}.get(c, f"unexpected character {c!r}")
    raise SyntaxLocationError(message, end)


class TokenStream:
    """Cursor over a token list with one-token lookahead."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.idx = 0
        self.memo: dict = {}  # what a reader made of a spelling, for it to share

    def peek(self) -> Token:
        return self.toks[self.idx]

    def next(self) -> Token:
        t = self.toks[self.idx]
        if t.kind != EOF:
            self.idx += 1
        return t

    def expect(self, kind: str, err=SyntaxLocationError) -> Token:
        t = self.toks[self.idx]
        if t.kind != kind:
            raise err(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        self.idx += kind != EOF  # never past the EOF token, as in `next`
        return t
