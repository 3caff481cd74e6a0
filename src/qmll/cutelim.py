"""The reduction relation on proofs: redexes, rewrite steps, normalization.

Seven schemas: axiom reduction, multiplicative principal reduction, quantum
principal reduction, eta expansion of modal axioms, contraction of nested
quantum rules, and the three commuting reductions (par, tensor-left,
tensor-right), each usable on either cut premise.

Sequents are ordered, so a step may permute the rewritten node's conclusion
(the multiset never changes). `step` returns the permutation of the root
conclusion; ancestors absorb child permutations by remapping their position
arguments, and a quantum rule absorbs a swapped premise by toggling its
`flip` orientation, which leaves its own conclusion untouched. Every
permutation and every remapped argument is derived by following occurrences
through `proofs.premise_source` and `proofs.conclusion_position`.

Redex enumeration is deliberately narrow where overlapping choices would
break one-step confluence. Redexes are grouped into families with a fixed
priority (eta expansion, axiom reduction, contraction, multiplicative
principal, quantum principal, commuting) and only the highest nonempty
family is offered, so families never race. Eta, axiom reduction, and
contraction may offer several disjoint instances at once; firing one never
suspends another, so divergent picks rejoin in one step. The remaining
families can spawn higher-priority work when they fire, so they are
offered one instance at a time.

Each node carries a `Summary` (rule count, weight, how many redexes of each
family its subtree holds, its own redex), computed the first time it is
asked for and stored on the immutable node, so summarizing a new proof visits
only the nodes built since. `weight` and the default step bound read the
root's summary, and `find_redexes` enters only the subtrees that hold the
offered family. Summaries stay lazy because parsing and encoding build many
proofs that are never normalized, and would pay for them at construction.

One engine fires redexes: a zipper (`_Zipper`) that holds the proof as a
focus subtree under a stack of parent frames. The zipper tracks the proof's
redex counts by delta, like its weight, so the offered family and its
number of instances are known in O(1); the frames keep the counts to the
left of the path. Each step picks the index of an offered redex in
post-order (0 for the leftmost strategy, a draw of the seeded generator for
the random one), moves the focus up only while that index lies outside it,
then down by counts, and fires there. A step thus costs the distance
between consecutive redexes, not their depth. The step's permutation is
pushed into the frames only until it becomes the identity; a parent is
rebuilt only when the focus leaves it upwards, and the root once, when the
zipper closes. The weight is checked to fall on every step, and the root's
summary must agree with the tracked totals at the end. `find_redexes`
seeks each offered redex on the same engine, and `step` fires one: it
opens a zipper along the redex path, fires, and closes. It fires only a
node's own redex, as the node's summary names it, so each schema's shape
is recognized in `_cut_redex` and `_summarize` alone.

Contraction tensors the two gates as a Kronecker pair (`matrices.kron_pair`),
which makes no dense gate. Quantum principal reduction multiplies the two
gates with `matrices.matmul`; when one is a pair with a single non-identity
factor, that factor is applied to the other gate, and a dense pair is made
only otherwise. Both give the bytes of the dense operations they replace.

A rebuilt node whose new premise concludes the same formulas keeps its
conclusion; any other is built by its checking constructor (`proofs.with_child`).
Formulas are interned in a table that holds them weakly: equal is identical,
and the cyclic collector frees a formula together with its dual.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import MachineError, StaleRedexError
from .formulas import BOX_S, leading_run, modal_chain, print_formula
from .matrices import identity_gate, kron_pair, matmul
from .proofs import (AxiomRule, CutRule, ParRule, Path, Proof, QRule, TensorRule,
                     children, conclusion_position, path_str, premise_source, proofs_equal,
                     rule_count, with_child)
from .trees import fold

Perm = tuple[int, ...]  # perm[old_pos - 1] = new_pos, 1-based


@functools.cache
def _identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def _args_into(node: Proof, k: int, remap) -> tuple[int, int]:
    """A cut's, par's or tensor's (i, j), each argument into child k passed through `remap`."""
    i = remap(node.i) if k == 0 else node.i
    j = remap(node.j) if k == node.j_premise else node.j
    return i, j


def _lands(node: Proof, where) -> Perm:
    """Where each occurrence of `node`'s conclusion lands: one from position q of
    premise c at `where(c, q)`, found with `premise_source`; a principal one stays."""
    out = []
    for t in range(1, len(node.conclusion) + 1):
        src = premise_source(node, t)
        out.append(t if src is None else where(*src))
    return tuple(out)


@dataclass(frozen=True)
class Redex:
    kind: str
    path: Path
    data: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}@{path_str(self.path)}{self.data if self.data else ''}"


@dataclass(frozen=True)
class TraceStep:
    redex: Redex
    size_before: int
    weight_before: int


@dataclass
class ReductionTrace:
    steps: list[TraceStep]
    final: Proof
    final_weight: int
    perms: list[Perm] = field(default_factory=list)


# ---------------------------------------------------------------------------
# redex enumeration


def _axiom_elim_perm(node: CutRule, side: str) -> Perm:
    """Where each occurrence goes when the axiom on `side` and the cut vanish.

    The surviving premise's occurrences keep their positions in it; the
    axiom's other occurrence takes the place of the survivor's cut formula.
    """
    keep, cut_pos = (0, node.i) if side == "right" else (1, node.j)
    return _lands(node, lambda c, q: q if c == keep else cut_pos)


def _cut_redex(i: int, j: int, L: Proof, R: Proof) -> tuple | None:
    """The own redex of a cut at (i, j) over L and R, as (family, kind, data), or None."""
    right_ax, left_ax = isinstance(R, AxiomRule), isinstance(L, AxiomRule)
    if right_ax or left_ax:
        # an axiom on the right, unless only the left one's elimination keeps
        # every position (`_axiom_elim_perm` is the identity exactly when
        # i is last on the left, or j first on the right)
        if right_ax and not (left_ax and j == 1 and i != len(L.conclusion)):
            return 1, "AxiomRed", ("right",)
        return 1, "AxiomRed", ("left",)
    li, lj = len(L.conclusion), len(R.conclusion)
    if isinstance(L, TensorRule) and i == li and isinstance(R, ParRule) and j == lj:
        return 3, "MultPrincipal", ("tensor_left",)
    if isinstance(L, ParRule) and i == li and isinstance(R, TensorRule) and j == lj:
        return 3, "MultPrincipal", ("par_left",)
    if isinstance(L, QRule) and isinstance(R, QRule):
        if L.arity == R.arity:
            case = "A" if (i, j) == (2, 1) else "B"
            return 4, "QuantumPrincipal", (case,)
        return None
    # a par or tensor that does not introduce the cut formula commutes below the cut
    for x, pos, side in ((R, j, "R"), (L, i, "L")):
        src = premise_source(x, pos) if type(x) in (ParRule, TensorRule) else None
        if src is not None:
            if type(x) is ParRule:
                return 5, "CommutePar", (side,)
            return 5, ("CommuteTensorLeft", "CommuteTensorRight")[src[0]], (side,)
    return None


_SINGLE = {3, 4, 5}  # families whose firing can spawn higher-priority redexes
_WIDTH = 32  # bits per family in `Summary.counts`
_FIELD = (1 << _WIDTH) - 1


class Summary(NamedTuple):
    """What normalization needs to know of a subtree, memoized on its root node."""
    rules: int  # rule instances
    weight: int  # the termination measure, see `weight`
    mult: int  # multiplicative rules
    counts: int  # bits 32f to 32f + 31 count the subtree's redexes of family f
    own: tuple | None  # the node's own redex as (family, kind, data)


_QCONTRACT = (2, "QContract", ())


def _one(own: tuple | None) -> int:
    """The counts of a lone redex `own`: one in its family's bits."""
    return 0 if own is None else 1 << _WIDTH * own[0]


def _own_over(node: Proof, k: int, child: Proof) -> tuple | None:
    """The own redex of a quantum rule or cut `node` with `child` as its premise k.

    Returned as (family, kind, data), or None.
    """
    if type(node) is QRule:
        return _QCONTRACT if not node.flip and type(child) is QRule else None
    if type(node) is CutRule:
        L, R = (child, node.right) if k == 0 else (node.left, child)
        return _cut_redex(node.i, node.j, L, R)
    return None


def _summarize(node: Proof, subs: list[Summary]) -> Summary:
    t = type(node)
    if t is AxiomRule:
        kind, n, _ = leading_run(node.formula)
        own = (0, "EtaExpand", (kind, n)) if n else None
        return Summary(1, 2 * modal_chain(node.formula) + 1, 0, _one(own), own)
    if t is QRule:
        (s,) = subs
        own = _own_over(node, 0, node.sub)
        return Summary(s.rules + 1, s.weight + 1, s.mult, s.counts + _one(own), own)
    if t is ParRule:
        (s,) = subs
        return Summary(s.rules + 1, s.weight + 1, s.mult + 1, s.counts, None)
    l, r = subs
    if t is TensorRule:
        return Summary(l.rules + r.rules + 1, l.weight + r.weight + 1, l.mult + r.mult + 1,
                       l.counts + r.counts, None)
    # a cut weighs its formula's size, scaled by the multiplicative rules above it
    m = l.mult + r.mult
    w = l.weight + r.weight + 3 ** node.cut_formula.size * (1 + m)
    own = _own_over(node, 0, node.left)
    return Summary(l.rules + r.rules + 1, w, m, l.counts + r.counts + _one(own), own)


def summary(p: Proof) -> Summary:
    """The memoized summary of p, filled in bottom-up, on an explicit stack, where missing."""
    if p.summary is not None:
        return p.summary
    stack = [p]
    while stack:
        node = stack[-1]
        kids = children(node)
        subs = [c.summary for c in kids]
        if None in subs:
            stack.extend(c for c, s in zip(kids, subs) if s is None)
            continue
        stack.pop()
        if node.summary is None:  # else a shared subtree, finished earlier
            object.__setattr__(node, "summary", _summarize(node, subs))
    return p.summary


def find_redexes(p: Proof) -> list[Redex]:
    """Offered redexes of the highest-priority nonempty family, in post-order.

    A zipper seeks each in turn, entering only the subtrees that hold it.
    """
    z = _Zipper(p)
    fam, n = z.offered()
    return [z.seek(fam, i) for i in range(n)]


# ---------------------------------------------------------------------------
# firing a redex at its node


def _stale(msg: str):
    raise StaleRedexError(f"redex does not match the proof: {msg}")


def _fire(node: Proof, redex: Redex) -> tuple[Proof, Perm]:
    """Fire `redex`, which must be `node`'s own redex: its kind and data, see `Summary.own`."""
    own = summary(node).own
    if own is None or own[1:] != (redex.kind, redex.data):
        _stale(f"{redex.kind}{redex.data} is not the node's own redex")
    kind = redex.kind
    if kind == "AxiomRed":
        (side,) = redex.data
        survivor = node.left if side == "right" else node.right
        return survivor, _axiom_elim_perm(node, side)

    if kind == "MultPrincipal":
        L, R = node.left, node.right
        if redex.data == ("tensor_left",):
            a, b, c, d = L.i, L.j, R.i, R.j
            inner = CutRule(b, d, L.right, R.sub)
            outer = CutRule(a, conclusion_position(inner, 1, c), L.left, inner)
        else:
            c, d, a, b = L.i, L.j, R.i, R.j
            inner = CutRule(c, a, L.sub, R.left)
            outer = CutRule(conclusion_position(inner, 0, d), b, inner, R.right)
        return outer, _identity(len(node.conclusion))

    if kind == "QuantumPrincipal":
        L, R = node.left, node.right
        if redex.data == ("A",):
            # left rule contributes the boxed cut formula; its gate fires first
            inner = CutRule(L.box_source, R.diamond_source, L.sub, R.sub)
            return QRule(L.arity, matmul(R.gate, L.gate), inner), _identity(2)
        inner = CutRule(L.diamond_source, R.box_source, L.sub, R.sub)
        return QRule(L.arity, matmul(L.gate, R.gate), inner, flip=True), (2, 1)

    if kind == "EtaExpand":
        run_kind, n = redex.data
        core = leading_run(node.formula)[2]
        if run_kind == BOX_S:
            return QRule(n, identity_gate(n), AxiomRule(core)), _identity(2)
        return QRule(n, identity_gate(n), AxiomRule(core.dual)), (2, 1)

    if kind == "QContract":
        inner = node.sub
        merged = QRule(inner.arity + node.arity, kron_pair(inner.gate, node.gate),
                       inner.sub, flip=inner.flip)
        return merged, _identity(2)

    return _fire_commute(node, 0 if redex.data == ("L",) else 1)


def _fire_commute(node: Proof, s: int) -> tuple[Proof, Perm]:
    """Move the par or tensor x on cut premise s below the cut.

    Above x's premise c that holds the cut formula, an inner cut takes x's
    place; x's arguments into c follow that premise into the inner cut.
    Each old occurrence is traced down through the cut and x with
    `premise_source`, then back up through the reduct with
    `conclusion_position`; x's principal formula stays last.
    """
    x = children(node)[s]
    c, q = premise_source(x, (node.i, node.j)[s])
    cut, kids = [node.i, node.j], [node.left, node.right]
    cut[s], kids[s] = q, children(x)[c]
    inner = CutRule(*cut, *kids)
    xkids = list(children(x))
    xkids[c] = inner
    repl = type(x)(*_args_into(x, c, lambda a: conclusion_position(inner, s, a)), *xkids)

    def traced(side: int, q: int) -> int:
        k = c  # the reduct's child that ends up holding the occurrence
        if side == s:
            src = premise_source(x, q)
            if src is None:  # x's principal formula
                return len(repl.conclusion)
            k, q = src
        return conclusion_position(repl, k, conclusion_position(inner, side, q) if k == c else q)

    return repl, _lands(node, traced)


# ---------------------------------------------------------------------------
# rebuilding the spine above a fired redex


def _rebuild(node: Proof, k: int, new_child: Proof, sig: Perm) -> tuple[Proof, Perm]:
    """`node` over a new child k whose conclusion is the old one permuted by `sig`.

    Arguments into child k follow `sig`; each old occurrence is traced to its
    premise with `premise_source` and back with `conclusion_position`.
    """
    total = len(node.conclusion)
    if sig == _identity(len(sig)):
        return with_child(node, k, new_child), _identity(total)

    if isinstance(node, QRule):
        # a swapped premise is absorbed by flipping the modal orientation,
        # which reproduces the identical conclusion
        repl = QRule(node.arity, node.gate, new_child, flip=not node.flip)
        return repl, _identity(total)

    kids = list(children(node))
    kids[k] = new_child
    repl = type(node)(*_args_into(node, k, lambda a: sig[a - 1]), *kids)
    return repl, _lands(node, lambda c, q: conclusion_position(repl, c,
                                                              sig[q - 1] if c == k else q))


# ---------------------------------------------------------------------------
# termination measure and the entry points onto the engine


def weight(p: Proof) -> int:
    """Strictly decreases under every reduction step.

    Axioms weigh by their modal prefix (eta expansion peels it), quantum and
    multiplicative rules weigh one, and each cut weighs an exponential in its
    cut formula's size scaled by the multiplicative rules above it (commuting
    steps pull one of those below the cut).
    """
    return summary(p).weight


def normalize(p: Proof, strategy: str = "leftmost-innermost", seed: int = 0,
              bound: int | None = None) -> ReductionTrace:
    """Reduce to normal form; the result is cut-free and strategy-independent.

    Every step must strictly lower the weight, which is checked on each
    one, so the weight of `p` bounds the number of steps; it is the default
    `bound`. Exceeding the bound raises `MachineError`. Both strategies run
    one zipper loop (`_Zipper.normalize`) that seeks each redex by its index
    among the offered ones, in post-order: the leftmost strategy takes index
    0, and the random one draws it with `random.Random(seed).choice`, the
    draw it made when it picked from the `find_redexes` list.
    """
    if strategy not in ("leftmost-innermost", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    limit = bound if bound is not None else weight(p)
    rng = random.Random(seed) if strategy == "random" else None
    return _Zipper(p).normalize(limit, rng)


def step(proof: Proof, redex: Redex) -> tuple[Proof, Perm]:
    """Fire `redex`; returns the new proof and the root conclusion permutation.

    Opens a zipper along the redex path, fires at its end and closes the
    zipper to the root. Every subtree off the path is shared with `proof`,
    so summarizing the result costs only the nodes this step built.
    """
    z = _Zipper(proof)
    for d, k in enumerate(redex.path):
        if k >= len(children(z.focus)):
            _stale(f"no child {k} at {path_str(redex.path[:d])}")
        z.down(k)
    sigma = z.fire(redex)
    return z.close(), sigma


# ---------------------------------------------------------------------------
# the one engine: a zipper


class _Frame:
    """A parent on the zipper's path, and the redex counts left of the path down to it.

    `node` may still hold an earlier version of child k: it is brought up to
    date only when the focus leaves it upwards. Its position arguments are
    always current, because a step's permutation is pushed into them, and
    `own` is its own redex over the current child. `left` sums the redex
    counts of everything left of the path at this frame and above, which is
    everything before the focus in post-order. `scale` sums 3^size(cut
    formula) over the cuts among this frame and those above it.
    """

    __slots__ = ("node", "k", "own", "left", "scale")

    def __init__(self, node: Proof, k: int, above: _Frame | None):
        self.node, self.k, self.own = node, k, node.summary.own
        self.left = children(node)[0].summary.counts if k else 0
        self.scale = 3 ** node.cut_formula.size if type(node) is CutRule else 0
        if above is not None:
            self.left += above.left
            self.scale += above.scale


class _Zipper:
    """A proof held as a focus subtree under a stack of frames (Huet, "The Zipper", 1997).

    Normalization seeks an offered redex, fires at the focus and seeks
    again, so a step costs the way between consecutive redexes rather than
    the depth of the redex. The frames' counts say whether a redex lies
    left of the focus, inside it, or after it; the weight, the rule count
    and the whole proof's redex counts are tracked by delta.
    """

    def __init__(self, p: Proof):
        s = summary(p)
        self.focus, self.frames, self.path = p, [], []
        self.weight, self.rules, self.counts = s.weight, s.rules, s.counts
        self.width = len(p.conclusion)

    def down(self, k: int) -> None:
        """Move the focus to its child k."""
        frames = self.frames
        frames.append(_Frame(self.focus, k, frames[-1] if frames else None))
        self.path.append(k)
        self.focus = children(self.focus)[k]

    def up(self) -> None:
        """Move the focus to its parent, which gets the focus as child k."""
        fr = self.frames.pop()
        self.path.pop()
        node = fr.node
        if children(node)[fr.k] is not self.focus:
            node = with_child(node, fr.k, self.focus)
            summary(node)
        self.focus = node

    def offered(self) -> tuple[int, int]:
        """The offered family and how many of its redexes are offered (0 when none is)."""
        counts = self.counts
        if not counts:
            return 0, 0
        fam = ((counts & -counts).bit_length() - 1) // _WIDTH  # the field of the lowest bit
        return fam, 1 if fam in _SINGLE else counts >> _WIDTH * fam & _FIELD

    def seek(self, fam: int, i: int) -> Redex:
        """Move the focus to offered redex number i of family `fam`, in post-order, and return it.

        The focus moves up while redex i lies outside it, then down into the
        child holding it, skipping the children whose redexes come before it.
        At i = 0 each level enters the first child holding the family at all.
        Counts and i are compared scaled, as they sit in the family's bits.
        """
        field = _FIELD << _WIDTH * fam
        i <<= _WIDTH * fam
        frames = self.frames
        while frames:
            before = frames[-1].left & field
            if before <= i < before + (self.focus.summary.counts & field):
                i -= before
                break
            self.up()
        while True:
            for k, c in enumerate(children(self.focus)):
                n = c.summary.counts & field
                if i < n:
                    self.down(k)
                    break
                i -= n
            else:
                _, kind, data = self.focus.summary.own
                return Redex(kind, tuple(self.path), data)

    def fire(self, r: Redex) -> Perm:
        """Fire `r` at the focus; returns the root conclusion permutation.

        The permutation is pushed into the frames only until it becomes the
        identity. The root weight changes by the focus's change in weight
        plus its change in multiplicative rules times the sum of its cut
        ancestors' 3^size, which is the top frame's `scale` (only
        MultPrincipal changes that count). The root's redex counts change by
        the focus's change in counts and by the own redex of each frame
        rebuilt, or else of the parent, whose premise changed.
        """
        old = self.focus.summary
        new, sigma = _fire(self.focus, r)
        s = summary(new)
        frames = self.frames
        d = len(frames)
        w = self.weight + s.weight - old.weight
        if s.mult != old.mult and frames:
            w += (s.mult - old.mult) * frames[-1].scale
        if w >= self.weight:
            raise MachineError(f"weight failed to decrease on {r}: {self.weight} -> {w}")
        self.weight, self.rules, self.focus = w, self.rules + s.rules - old.rules, new
        counts = self.counts + s.counts - old.counts
        child = new
        while d and sigma != _identity(len(sigma)):
            d -= 1
            fr = frames[d]
            child, sigma = _rebuild(fr.node, fr.k, child, sigma)
            own = summary(child).own
            counts += _one(own) - _one(fr.own)
            fr.node, fr.own = child, own
        if d == len(frames) and d:  # nothing rebuilt: only the parent's premise changed
            fr = frames[-1]
            own = _own_over(fr.node, fr.k, new)
            counts += _one(own) - _one(fr.own)
            fr.own = own
        self.counts = counts
        return sigma if d == 0 else _identity(self.width)

    def close(self) -> Proof:
        """Move the focus up to the root and return it.

        The tracked weight, rule count and redex counts must equal the root's summary.
        """
        while self.frames:
            self.up()
        s = summary(self.focus)
        if (s.weight, s.rules, s.counts) != (self.weight, self.rules, self.counts):
            raise MachineError(f"tracked weight {self.weight}, rule count {self.rules} and "
                               f"redex counts {self.counts:#x} differ from the root's "
                               f"{s.weight}, {s.rules} and {s.counts:#x}")
        return self.focus

    def normalize(self, limit: int, rng: random.Random | None) -> ReductionTrace:
        """Fire offered redexes until none is left, then close.

        Each step takes the leftmost offered redex, or with `rng` the one
        `rng.choice` picks among all offered, which for a family offered one
        at a time is still a draw.
        """
        steps: list[TraceStep] = []
        perms: list[Perm] = []
        while True:
            fam, n = self.offered()
            if not n:
                return ReductionTrace(steps, self.close(), self.weight, perms)
            r = self.seek(fam, 0 if rng is None else rng.choice(range(n)))
            w, rules = self.weight, self.rules
            perms.append(self.fire(r))
            steps.append(TraceStep(r, rules, w))
            if len(steps) > limit:
                raise MachineError("normalization exceeded its step bound")


def canonical_form(p: Proof) -> Proof:
    """Normalize the representation freedoms of a proof, for equality checks.

    An axiom on f and an axiom on dual(f) are the same rule instance written
    in the two possible conclusion orders; likewise a flipped quantum rule
    over a swapped premise matches its unflipped mirror. This picks the
    lexicographically smaller axiom formula everywhere and lets the usual
    rebuild machinery absorb the induced position swaps.
    """
    return fold(p, children, _canonical)[0]


def _canonical(node: Proof, subs: list[tuple[Proof, Perm]]) -> tuple[Proof, Perm]:
    """A node's canonical form and how its conclusion moved, given its children's."""
    if type(node) is AxiomRule:
        other = node.formula.dual
        if print_formula(other) < print_formula(node.formula):
            return AxiomRule(other), (2, 1)
        return node, (1, 2)
    cur, sigma = node, _identity(len(node.conclusion))
    for k, (child, sig) in enumerate(subs):
        cur, sig_out = _rebuild(cur, k, child, sig)
        sigma = tuple(sig_out[x - 1] for x in sigma)
    return cur, sigma


def equal_modulo_representation(p: Proof, q: Proof, gate_tol: float = 1e-9) -> bool:
    return proofs_equal(canonical_form(p), canonical_form(q), gate_tol)


def compose_perms(perms: list[Perm], n: int) -> Perm:
    """Overall root-position mapping across a trace (old position -> new)."""
    cur = list(range(1, n + 1))
    for sigma in perms:
        cur = [sigma[x - 1] for x in cur]
    return tuple(cur)


def trace_lines(trace: ReductionTrace) -> list[str]:
    lines = []
    weights = [s.weight_before for s in trace.steps] + [trace.final_weight]
    for idx, s in enumerate(trace.steps):
        lines.append(f"{idx} {s.redex.kind} {path_str(s.redex.path)} "
                     f"{weights[idx]} -> {weights[idx + 1]}")
    return lines
