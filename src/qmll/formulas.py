"""Formula syntax: atoms, multiplicatives, box/diamond modalities, contexts.

Concrete grammar (whitespace insignificant):

    F ::= ident | "~" ident | "(" F "%" F ")" | "(" F "*" F ")" | "[]" F | "<>" F

`%` is par, `*` is tensor, `[]` the box modality, `<>` the diamond modality.
A connective's class declares its symbol, its dual and the context step into each part.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from . import tokens as tk
from .errors import FormulaSyntaxError, QmllError, SyntaxLocationError
from .trees import refold, unfold

PAR_L, PAR_R, TENS_L, TENS_R, BOX_S, DIA_S = "parL", "parR", "tensL", "tensR", "box", "dia"


class Formula:
    """A formula, interned: building one that exists returns the existing object.

    So `==` and `hash` are identity. `_table` holds formulas weakly, keying a
    connective by its children's identities and an atom by name and polarity.
    A formula is built with its De Morgan dual, each the other's `dual`, so
    the cyclic collector frees the pair. `size` counts atoms and connectives.

    A connective class declares its `symbol`, its dual connective `dual_class`, and
    `steps`: the context step kind into each of its parts, which are its `__match_args__`.
    """

    __slots__ = ("size", "dual", "__weakref__")
    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    steps: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {print_formula(self)}>"

    def __reduce__(self):
        """Each subformula's class, with an atom's name and polarity, in a flat `unfold` list:
        unpickled, it is built again by the constructors, interned as the equal formula."""
        return refold, ([((type(g), g.name, g.positive) if type(g) is Atom else (type(g),), n)
                         for g, n in unfold(self, _parts)], _rebuild)

    def __copy__(self):  # interned: the one formula equal to it is itself
        return self

    def __deepcopy__(self, memo):
        return self


def _parts(f: Formula) -> tuple[Formula, ...]:
    return () if type(f) is Atom else tuple(getattr(f, a) for a in f.__match_args__)


def _rebuild(head: tuple, parts: list[Formula]) -> Formula:
    return head[0](*head[1:], *parts)


def _build(key: tuple, args: tuple, dual_key: tuple, dual_args: tuple, size: int) -> Formula:
    """The formula `key` names, which the table misses, built and interned with its dual."""
    f, d = object.__new__(key[0]), object.__new__(dual_key[0])
    Formula._table[key], Formula._table[dual_key] = f, d
    for g, vals, other in ((f, args, d), (d, dual_args, f)):
        for name, v in zip(g.__match_args__ + ("size", "dual"), vals + (size, other)):
            object.__setattr__(g, name, v)
    return f


class Atom(Formula):
    __slots__ = __match_args__ = ("name", "positive")

    def __new__(cls, name: str, positive: bool = True):
        key = (Atom, name, positive)  # a formula is never falsy
        return Formula._table.get(key) or _build(key, key[1:], (Atom, name, not positive),
                                                 (name, not positive), 1)


class _Connective(Formula):
    __slots__ = ()

    def __new__(cls, *parts: Formula):
        """The connective over `parts`; its dual and size are built only when it is new."""
        if len(parts) != len(cls.steps):
            raise TypeError(f"{cls.__name__} takes {len(cls.steps)} arguments")
        key = (cls, id(parts[0]), id(parts[-1]))  # a modality's key names its body twice
        f = Formula._table.get(key)
        if f is None:
            d = tuple(p.dual for p in parts)
            f = _build(key, parts, (cls.dual_class, id(d[0]), id(d[-1])), d,
                       1 + sum(p.size for p in parts))
        return f


class Par(_Connective):
    __slots__ = __match_args__ = ("left", "right")
    symbol, steps = "%", (PAR_L, PAR_R)


class Tensor(_Connective):
    __slots__ = __match_args__ = ("left", "right")
    symbol, steps, dual_class = "*", (TENS_L, TENS_R), Par


class Box(_Connective):
    __slots__ = __match_args__ = ("body",)
    symbol, steps = "[]", (BOX_S,)


class Diamond(_Connective):
    __slots__ = __match_args__ = ("body",)
    symbol, steps, dual_class = "<>", (DIA_S,), Box


class _StepTable(dict):  # keyed by context step kind; refuses an unknown kind
    def __missing__(self, kind):
        raise QmllError(f"unknown context step kind {kind!r}")


Par.dual_class, Box.dual_class = Tensor, Diamond
# each context step kind: the connective it passes through and the part it enters
STEPS: dict[str, tuple[type, int]] = _StepTable(
    (kind, (c, part)) for c in (Par, Tensor, Box, Diamond) for part, kind in enumerate(c.steps))


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
    return t.steps[0], n, f


def wrap_modal(kind: str, n: int, f: Formula) -> Formula:
    ctor = STEPS[kind][0]
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
    return _print([f])


def _print(stack: list[Formula | str]) -> str:
    """Pop `stack` empty, writing a string as it is and a formula in pre-order."""
    out: list[str] = []
    while stack:
        item = stack.pop()
        t = type(item)
        if t is str:
            out.append(item)
        elif t is Atom:
            out.append(item.name if item.positive else "~" + item.name)
        elif t is Par or t is Tensor:
            out.append("(")
            stack += (")", item.right, f" {t.symbol} ", item.left)
        elif t is Box or t is Diamond:
            out.append(t.symbol + " ")
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
# Represented as the path from the root of the formula it belongs to down to
# the hole: the kind of each step (see `STEPS`). That formula holds the rest.


@dataclass(frozen=True)
class Context:
    steps: tuple[str, ...]


HOLE = Context(())


def depth(c: Context) -> int:
    """Number of modal operators the hole is nested inside."""
    return sum(1 for k in c.steps if k in (BOX_S, DIA_S))


_DUAL_STEP = _StepTable((kind, c.dual_class.steps[part]) for kind, (c, part) in STEPS.items())


def dual_context(c: Context) -> Context:
    """The context at the same place in the dual formula."""
    return Context(tuple(_DUAL_STEP[kind] for kind in c.steps))


def hole_atom(c: Context, f: Formula) -> Atom:
    """The atom sitting at the hole, reading `f` along the context path."""
    for kind in c.steps:
        cls, part = STEPS[kind]
        if type(f) is not cls:
            raise QmllError("context does not match formula")
        f = getattr(f, cls.__match_args__[part])
    if not isinstance(f, Atom):
        raise QmllError("context hole is not at an atom")
    return f


def context_along(f: Formula, segments: list[str]) -> Context:
    """The context reached from the root of `f` by a path of `L`/`R` segments.

    `L` enters the left side of a par or tensor, or the body of a box or
    diamond; `R` enters the right side of a par or tensor. The path must end
    at an atom.
    """
    steps: list[str] = []
    for seg in segments:
        if seg not in ("L", "R"):
            raise QmllError(f"bad context path segment {seg!r} (use L or R)")
        part = int(seg == "R")
        if part >= len(f.steps):
            raise QmllError("'R' only descends binary connectives" if part
                            else "context path descends below an atom")
        steps.append(f.steps[part])
        f = getattr(f, f.__match_args__[part])
    if not isinstance(f, Atom):
        raise QmllError("context path must end at an atom")
    return Context(tuple(steps))


def contexts_for(f: Formula) -> list[tuple[Context, bool]]:
    """One (context, polarity) per atom occurrence of `f`, in leaf order, on an explicit stack."""
    out: list[tuple[Context, bool]] = []
    stack: list[tuple[Formula, tuple[str, ...]]] = [(f, ())]
    while stack:
        g, steps = stack.pop()
        if type(g) is Atom:
            out.append((Context(steps), g.positive))
        for part in reversed(range(len(g.steps))):
            stack.append((getattr(g, g.__match_args__[part]), steps + (g.steps[part],)))
    return out


def print_context(c: Context, f: Formula) -> str:
    """`f` with the hole of `c` as `[.]`, stacked in one walk; refused as `hole_atom` refuses."""
    hole_atom(c, f)
    head, tail = [], []  # written before the hole, in order; after it, outermost step first
    for kind in c.steps:
        part = STEPS[kind][1]
        if len(f.steps) == 1:
            head.append(f.symbol + " ")
        else:
            other = getattr(f, f.__match_args__[1 - part])
            head += ("(", other, f" {f.symbol} ") if part else ("(",)
            tail += (")",) if part else (")", other, f" {f.symbol} ")
        f = getattr(f, f.__match_args__[part])
    return _print(tail + ["[.]"] + head[::-1])
