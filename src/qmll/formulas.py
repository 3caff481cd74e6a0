"""Formula syntax: atoms, multiplicatives, box/diamond modalities, contexts.

Concrete grammar (whitespace insignificant):

    F ::= ident | "~" ident | "(" F "%" F ")" | "(" F "*" F ")" | "[]" F | "<>" F

`%` is par, `*` is tensor, `[]` the box modality, `<>` the diamond modality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tokens as tk
from .errors import FormulaSyntaxError, QmllError, SyntaxLocationError
from .trees import memo_fold


@dataclass(frozen=True)
class Atom:
    name: str
    positive: bool = True
    size_memo: int = field(init=False, repr=False, compare=False)  # see `size`


@dataclass(frozen=True)
class Par:
    left: "Formula"
    right: "Formula"
    size_memo: int = field(init=False, repr=False, compare=False)  # see `size`


@dataclass(frozen=True)
class Tensor:
    left: "Formula"
    right: "Formula"
    size_memo: int = field(init=False, repr=False, compare=False)  # see `size`


@dataclass(frozen=True)
class Box:
    body: "Formula"
    size_memo: int = field(init=False, repr=False, compare=False)  # see `size`


@dataclass(frozen=True)
class Diamond:
    body: "Formula"
    size_memo: int = field(init=False, repr=False, compare=False)  # see `size`


Formula = Atom | Par | Tensor | Box | Diamond


def dual(f: Formula) -> Formula:
    """De Morgan dual; an involution. Box and diamond are dual to each other."""
    match f:
        case Atom(name, pos):
            return Atom(name, not pos)
        case Par(l, r):
            return Tensor(dual(l), dual(r))
        case Tensor(l, r):
            return Par(dual(l), dual(r))
        case Box(b):
            return Diamond(dual(b))
        case Diamond(b):
            return Box(dual(b))
    raise QmllError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> tuple[Formula, ...]:
    t = type(f)
    if t is Atom:
        return ()
    if t is Par or t is Tensor:
        return (f.left, f.right)
    if t is Box or t is Diamond:
        return (f.body,)
    raise QmllError(f"not a formula: {f!r}")


def size(f: Formula) -> int:
    """Atoms and connectives in f, memoized on every subformula.

    Cut formulas are shared between a proof and its reducts, so the weight
    of a rebuilt cut reads its formula's size instead of walking it.
    """
    return memo_fold(f, "size_memo", subformulas, lambda _, sizes: 1 + sum(sizes))


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
    if isinstance(f, Box):
        n, core = 0, f
        while isinstance(core, Box):
            n += 1
            core = core.body
        return "box", n, core
    if isinstance(f, Diamond):
        n, core = 0, f
        while isinstance(core, Diamond):
            n += 1
            core = core.body
        return "dia", n, core
    return "", 0, f


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
        if type(g) is Atom:
            out.append(g)
        else:
            stack.extend(reversed(subformulas(g)))
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


def parse_formula_stream(ts: tk.TokenStream) -> Formula:
    t = ts.next()
    if t.kind == tk.IDENT:
        return Atom(t.text, True)
    if t.kind == tk.TILDE:
        name = ts.expect(tk.IDENT, FormulaSyntaxError)
        return Atom(name.text, False)
    if t.kind == tk.BOX:
        return Box(parse_formula_stream(ts))
    if t.kind == tk.DIAMOND:
        return Diamond(parse_formula_stream(ts))
    if t.kind == tk.LP:
        left = parse_formula_stream(ts)
        op = ts.next()
        if op.kind not in (tk.PERCENT, tk.STAR):
            raise FormulaSyntaxError(f"expected '%' or '*', found {op.text!r}", op.pos)
        right = parse_formula_stream(ts)
        ts.expect(tk.RP, FormulaSyntaxError)
        return Par(left, right) if op.kind == tk.PERCENT else Tensor(left, right)
    raise FormulaSyntaxError(f"unexpected {t.text or 'end of input'!r} in formula", t.pos)


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


def dual_context(c: Context) -> Context:
    out = []
    for kind, other in c.steps:
        od = dual(other) if other is not None else None
        out.append({PAR_L: (TENS_L, od), PAR_R: (TENS_R, od), TENS_L: (PAR_L, od),
                    TENS_R: (PAR_R, od), BOX_S: (DIA_S, None), DIA_S: (BOX_S, None)}[kind])
    return Context(tuple(out))


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
