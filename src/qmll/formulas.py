"""Formula syntax: atoms, multiplicatives, box/diamond modalities, contexts.

Concrete grammar (whitespace insignificant):

    F ::= ident | "~" ident | "(" F "%" F ")" | "(" F "*" F ")" | "[]" F | "<>" F

`%` is par, `*` is tensor, `[]` the box modality, `<>` the diamond modality.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from . import tokens as tk
from .errors import FormulaSyntaxError, QmllError, SyntaxLocationError


class Formula:
    """A formula, interned: building one that exists returns the existing object.

    So `==` and `hash` are identity. `_table` holds formulas weakly, keying a
    connective by its children's identities and an atom by name and polarity.
    A formula is built with its De Morgan dual, each the other's `dual`, so
    the cyclic collector frees the pair. `size` counts atoms and connectives.
    """

    __slots__ = ("size", "dual", "__weakref__")
    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {print_formula(self)}>"


def _interned(key: tuple, args: tuple, dual_cls: type, dual_args: tuple, size: int):
    """The formula `key` names, built with its dual unless it exists."""
    f = Formula._table.get(key)
    if f is None:
        dual_key = (dual_cls, *(dual_args if dual_cls is Atom else map(id, dual_args)))
        f, d = object.__new__(key[0]), object.__new__(dual_cls)
        Formula._table[key], Formula._table[dual_key] = f, d
        for g, vals, other in ((f, args, d), (d, dual_args, f)):
            for name, v in zip(g.__match_args__ + ("size", "dual"), vals + (size, other)):
                object.__setattr__(g, name, v)
    return f


class Atom(Formula):
    __slots__ = __match_args__ = ("name", "positive")

    def __new__(cls, name: str, positive: bool = True):
        return _interned((Atom, name, positive), (name, positive), Atom, (name, not positive), 1)


class Par(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _interned((Par, id(left), id(right)), (left, right),
                         Tensor, (left.dual, right.dual), 1 + left.size + right.size)


class Tensor(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _interned((Tensor, id(left), id(right)), (left, right),
                         Par, (left.dual, right.dual), 1 + left.size + right.size)


class Box(Formula):
    __slots__ = __match_args__ = ("body",)

    def __new__(cls, body: Formula):
        return _interned((Box, id(body)), (body,), Diamond, (body.dual,), 1 + body.size)


class Diamond(Formula):
    __slots__ = __match_args__ = ("body",)

    def __new__(cls, body: Formula):
        return _interned((Diamond, id(body)), (body,), Box, (body.dual,), 1 + body.size)


def dual(f: Formula) -> Formula:
    """De Morgan dual; an involution. Box and diamond are dual to each other."""
    return f.dual


def is_modal(f: Formula) -> bool:
    """True iff the outermost connective is box or diamond."""
    return isinstance(f, (Box, Diamond))


def modal_chain(f: Formula) -> int:
    """Length of the leading run of modal operators, boxes and diamonds mixed."""
    n = 0
    while isinstance(f, (Box, Diamond)):
        n += 1
        f = f.body
    return n


def leading_run(f: Formula) -> tuple[str, int, Formula]:
    """Maximal same-connective modal prefix: ('box'|'dia'|'', count, core)."""
    t, n = type(f), 0
    if t is not Box and t is not Diamond:
        return "", 0, f
    while type(f) is t:
        n, f = n + 1, f.body
    return "box" if t is Box else "dia", n, f


def wrap_modal(kind: str, n: int, f: Formula) -> Formula:
    ctor = Box if kind == "box" else Diamond
    for _ in range(n):
        f = ctor(f)
    return f


def atoms(f: Formula) -> list[Atom]:
    """Atom occurrences in left-to-right leaf order, collected from an explicit stack."""
    out: list[Atom] = []
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Atom:
            out.append(g)
        elif t is Par or t is Tensor:
            stack += (g.right, g.left)
        else:
            stack.append(g.body)
    return out


# ---------------------------------------------------------------------------
# printing / parsing


def print_formula(f: Formula) -> str:
    """The concrete syntax of f, written out in pre-order from an explicit stack."""
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        item = stack.pop()
        t = type(item)
        if t is str:
            out.append(item)
        elif t is Atom:
            out.append(item.name if item.positive else "~" + item.name)
        elif t is Par or t is Tensor:
            out.append("(")
            stack += (")", item.right, " % " if t is Par else " * ", item.left)
        elif t is Box or t is Diamond:
            out.append("[] " if t is Box else "<> ")
            stack.append(item.body)
        else:
            raise QmllError(f"not a formula: {item!r}")
    return "".join(out)


_OPENS = {tk.BOX: Box, tk.DIAMOND: Diamond, tk.LP: None}


def parse_formula_stream(ts: tk.TokenStream) -> Formula:
    """Read one formula on an explicit stack of the connectives open above it.

    The stack holds `Box` or `Diamond` for a modality awaiting its body, None
    for a `(` awaiting its left side, and (Par or Tensor, left) for one
    awaiting its right side and `)`.
    """
    stack: list = []
    while True:
        t = ts.next()
        if t.kind in _OPENS:
            stack.append(_OPENS[t.kind])
            continue
        if t.kind == tk.IDENT:
            f = Atom(t.text, True)
        elif t.kind == tk.TILDE:
            f = Atom(ts.expect(tk.IDENT, FormulaSyntaxError).text, False)
        else:
            raise FormulaSyntaxError(f"unexpected {t.text or 'end of input'!r} in formula", t.pos)
        while stack:  # f is complete: close every connective it completes
            top = stack.pop()
            if top is None:
                op = ts.next()
                if op.kind not in (tk.PERCENT, tk.STAR):
                    raise FormulaSyntaxError(f"expected '%' or '*', found {op.text!r}", op.pos)
                stack.append((Par if op.kind == tk.PERCENT else Tensor, f))
                break
            if type(top) is tuple:
                ts.expect(tk.RP, FormulaSyntaxError)
                f = top[0](top[1], f)
            else:
                f = top(f)
        else:
            return f


def parse_formula(text: str) -> Formula:
    try:
        ts = tk.TokenStream(tk.tokenize(text))
    except SyntaxLocationError as e:  # a tokenizer error, reported as a formula error
        raise FormulaSyntaxError(e.message, e.pos) from e
    f = parse_formula_stream(ts)
    end = ts.peek()
    if end.kind != tk.EOF:
        raise FormulaSyntaxError(f"trailing input {end.text!r}", end.pos)
    return f


# ---------------------------------------------------------------------------
# contexts: a formula with a single hole sitting at an atom occurrence.
#
# Represented as the path from the formula root down to the hole. Each step
# records the connective passed through and, for binary connectives, the
# subformula on the other side.

PAR_L, PAR_R, TENS_L, TENS_R, BOX_S, DIA_S = "parL", "parR", "tensL", "tensR", "box", "dia"

Step = tuple[str, Formula | None]


@dataclass(frozen=True)
class Context:
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)


HOLE = Context(())


def depth(c: Context) -> int:
    """Number of modal operators the hole is nested inside."""
    return sum(1 for k, _ in c.steps if k in (BOX_S, DIA_S))


def subst(c: Context, filler: Formula) -> Formula:
    """Plug `filler` into the hole."""
    f = filler
    for kind, other in reversed(c.steps):
        if kind == PAR_L:
            f = Par(f, other)
        elif kind == PAR_R:
            f = Par(other, f)
        elif kind == TENS_L:
            f = Tensor(f, other)
        elif kind == TENS_R:
            f = Tensor(other, f)
        elif kind == BOX_S:
            f = Box(f)
        else:
            f = Diamond(f)
    return f


_DUAL_STEP = {PAR_L: TENS_L, PAR_R: TENS_R, TENS_L: PAR_L, TENS_R: PAR_R,
              BOX_S: DIA_S, DIA_S: BOX_S}


def dual_context(c: Context) -> Context:
    return Context(tuple((_DUAL_STEP[kind], None if other is None else other.dual)
                         for kind, other in c.steps))


def hole_atom(c: Context, f: Formula) -> Atom:
    """The atom sitting at the hole, reading `f` along the context path."""
    cur = f
    for kind, _ in c.steps:
        match kind, cur:
            case ("parL", Par(l, _)) | ("tensL", Tensor(l, _)):
                cur = l
            case ("parR", Par(_, r)) | ("tensR", Tensor(_, r)):
                cur = r
            case ("box", Box(b)) | ("dia", Diamond(b)):
                cur = b
            case _:
                raise QmllError("context does not match formula")
    if not isinstance(cur, Atom):
        raise QmllError("context hole is not at an atom")
    return cur


def context_along(f: Formula, segments: list[str]) -> Context:
    """The context reached from the root of `f` by a path of `L`/`R` segments.

    `L` enters the left side of a par or tensor, or the body of a box or
    diamond; `R` enters the right side of a par or tensor. The path must end
    at an atom.
    """
    steps: list[Step] = []
    for seg in segments:
        match seg, f:
            case "L", Par(l, r) | Tensor(l, r):
                steps.append((PAR_L if isinstance(f, Par) else TENS_L, r))
                f = l
            case "R", Par(l, r) | Tensor(l, r):
                steps.append((PAR_R if isinstance(f, Par) else TENS_R, l))
                f = r
            case "L", Box(b) | Diamond(b):
                steps.append((BOX_S if isinstance(f, Box) else DIA_S, None))
                f = b
            case "L", _:
                raise QmllError("context path descends below an atom")
            case "R", _:
                raise QmllError("'R' only descends binary connectives")
            case _:
                raise QmllError(f"bad context path segment {seg!r} (use L or R)")
    if not isinstance(f, Atom):
        raise QmllError("context path must end at an atom")
    return Context(tuple(steps))


def contexts_for(f: Formula) -> list[tuple[Context, bool]]:
    """One (context, polarity) per atom occurrence of `f`, in leaf order, on an explicit stack."""
    out: list[tuple[Context, bool]] = []
    stack: list[tuple[Formula, tuple[Step, ...]]] = [(f, ())]
    while stack:
        g, steps = stack.pop()
        t = type(g)
        if t is Atom:
            out.append((Context(steps), g.positive))
        elif t is Par or t is Tensor:
            left, right = (PAR_L, PAR_R) if t is Par else (TENS_L, TENS_R)
            stack += ((g.right, steps + ((right, g.left),)), (g.left, steps + ((left, g.right),)))
        elif t is Box or t is Diamond:
            stack.append((g.body, steps + ((BOX_S if t is Box else DIA_S, None),)))
    return out


def print_context(c: Context) -> str:
    return print_formula(subst(c, Atom("[.]")))
