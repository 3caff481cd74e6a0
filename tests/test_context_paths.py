"""Context paths read from the connectives' declarations, against the code they replaced.

Each connective class declares its symbol, its dual connective and the context
step into each of its parts. The references below are the functions as they
were when each spelled that correspondence out for itself, with a context
holding only its step kinds: `ref_plug` reads every other side from the
formula the context belongs to. On every `L`/`R` path of length up to 4
(malformed segments included) through generated formulas, the current
functions must give the same context, atom, string, or error class and message.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given

from qmll import QmllError, parse_proof
from qmll.cli import main
from qmll.formulas import (BOX_S, DIA_S, PAR_L, PAR_R, STEPS, TENS_L, TENS_R, Atom, Box, Context,
                           Diamond, Par, Tensor, context_along, contexts_for, depth,
                           dual_context, hole_atom, print_context, print_formula)
from qmll.matrices import zero_state
from qmll.qiam import OccurrenceGraph, initial_state, negative_entries, run, semantics_relative

from test_formulas import formulas


def ref_print_formula(f):
    out = []
    stack = [f]
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


def ref_plug(c, f, filler):
    """`f` with the atom at the hole of `c` replaced by `filler`; `c` must fit `f`."""
    above = []  # (kind, the formula the step leaves), outermost first
    for kind in c.steps:
        above.append((kind, f))
        f = f.body if kind in (BOX_S, DIA_S) else f.right if kind in (PAR_R, TENS_R) else f.left
    g = filler
    for kind, f in reversed(above):
        if kind == PAR_L:
            g = Par(g, f.right)
        elif kind == PAR_R:
            g = Par(f.left, g)
        elif kind == TENS_L:
            g = Tensor(g, f.right)
        elif kind == TENS_R:
            g = Tensor(f.left, g)
        elif kind == BOX_S:
            g = Box(g)
        else:
            g = Diamond(g)
    return g


def ref_print_context(c, f):
    ref_hole_atom(c, f)
    return ref_print_formula(ref_plug(c, f, Atom("[.]")))


REF_DUAL_STEP = {PAR_L: TENS_L, PAR_R: TENS_R, TENS_L: PAR_L, TENS_R: PAR_R,
                 BOX_S: DIA_S, DIA_S: BOX_S}


def ref_dual_context(c):
    return Context(tuple(REF_DUAL_STEP[kind] for kind in c.steps))


def ref_hole_atom(c, f):
    cur = f
    for kind in c.steps:
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


def ref_context_along(f, segments):
    steps = []
    for seg in segments:
        match seg, f:
            case "L", Par(l, _) | Tensor(l, _):
                steps.append(PAR_L if isinstance(f, Par) else TENS_L)
                f = l
            case "R", Par(_, r) | Tensor(_, r):
                steps.append(PAR_R if isinstance(f, Par) else TENS_R)
                f = r
            case "L", Box(b) | Diamond(b):
                steps.append(BOX_S if isinstance(f, Box) else DIA_S)
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


def ref_contexts_for(f):
    out = []
    stack = [(f, ())]
    while stack:
        g, steps = stack.pop()
        t = type(g)
        if t is Atom:
            out.append((Context(steps), g.positive))
        elif t is Par or t is Tensor:
            left, right = (PAR_L, PAR_R) if t is Par else (TENS_L, TENS_R)
            stack += ((g.right, steps + (right,)), (g.left, steps + (left,)))
        elif t is Box or t is Diamond:
            stack.append((g.body, steps + (BOX_S if t is Box else DIA_S,)))
    return out


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except QmllError as e:
        return type(e), str(e)


SEGMENTS = ("L", "R", "", "l")  # the last two are malformed
PATHS = [path for n in range(5) for path in itertools.product(SEGMENTS, repeat=n)]


@given(formulas, formulas)
def test_context_paths_match_the_per_connective_code(f, g):
    assert print_formula(f) == ref_print_formula(f)
    assert contexts_for(f) == ref_contexts_for(f)
    for path in PATHS:
        ctx = outcome(context_along, f, list(path))
        assert ctx == outcome(ref_context_along, f, list(path))
        if isinstance(ctx, tuple):
            continue
        assert all(type(kind) is str for kind in ctx.steps)
        atom = hole_atom(ctx, f)
        assert atom is ref_hole_atom(ctx, f) and ref_plug(ctx, f, atom) is f
        assert print_context(ctx, f) == ref_print_context(ctx, f)
        assert dual_context(ctx) == ref_dual_context(ctx)
        assert hole_atom(dual_context(ctx), f.dual) is atom.dual
        for use, ref in ((hole_atom, ref_hole_atom), (print_context, ref_print_context)):
            assert outcome(use, ctx, g) == outcome(ref, ctx, g)


def test_every_step_kind_round_trips_through_its_connective():
    for kind, (cls, part) in STEPS.items():
        assert cls.steps[part] == kind
        assert STEPS[REF_DUAL_STEP[kind]] == (cls.dual_class, part)
    assert sorted(STEPS) == sorted(REF_DUAL_STEP)


def test_an_unknown_step_kind_is_refused_alike():
    bogus = Context(("bogus",))
    for use in (lambda c: print_context(c, Atom("a")), dual_context,
                lambda c: hole_atom(c, Atom("a"))):
        with pytest.raises(QmllError, match="^unknown context step kind 'bogus'$"):
            use(bogus)


@pytest.mark.parametrize("kind", [PAR_L, PAR_R, TENS_L, TENS_R])
def test_a_binary_step_with_no_other_side_is_refused(kind):
    """A par or tensor step reads its other side from the formula, so a step that
    lands on an atom, a box or a diamond, outermost or inside modal steps, is
    refused before anything is printed."""
    a = Atom("a")
    uses = (print_context, hole_atom, lambda c, f: print_context(dual_context(c), f.dual))
    for c, f in ((Context((kind,)), a), (Context((kind,)), Box(a)), (Context((kind,)), Diamond(a)),
                 (Context((BOX_S, kind, DIA_S)), Box(Diamond(Diamond(a)))),
                 (Context((BOX_S, kind, DIA_S)), Box(a))):
        for use in uses:
            with pytest.raises(QmllError, match="^context does not match formula$"):
                use(c, f)
    # the same path fits once the step meets its own connective, with its other side
    other = Par if kind in (PAR_L, PAR_R) else Tensor
    fit = Box(other(Diamond(a), Atom("b")) if kind in (PAR_L, TENS_L)
              else other(Atom("b"), Diamond(a)))
    assert hole_atom(Context((BOX_S, kind, DIA_S)), fit) is a
    assert print_context(Context((BOX_S, kind, DIA_S)), fit) == print_formula(fit).replace("a", "[.]")


def test_connectives_keep_their_arity():
    a = Atom("a")
    for bad in (lambda: Par(a), lambda: Tensor(a, a, a), lambda: Box(), lambda: Diamond(a, a)):
        with pytest.raises(TypeError):
            bad()


PROOFS = [
    "(par 3 1 (tensor 2 1 (ax a) (ax b)))",  # |- b, ((a * ~b) % ~a)
    "(tensor 2 2 (ax c) (par 3 1 (tensor 2 1 (ax a) (ax b))))",  # ... (c * ((a * ~b) % ~a))
    "(q 2 CNOT (tensor 1 1 (par 1 2 (q 1 H (ax a))) (ax b)))",  # modalities around both
]


def test_cli_context_paths_through_par_and_tensor(tmp_path, capsys):
    """Every negative leaf, named by its `K.L.R…` path: `run` and `semantics`
    answer as the library does for that leaf's `negative_entries` entry."""
    paths = []
    for n, text in enumerate(PROOFS):
        proof = parse_proof(text)
        f = tmp_path / f"p{n}.proof"
        f.write_text(text)
        for k, ctx in negative_entries(proof):
            segs = ["LR"[STEPS[kind][1]] for kind in ctx.steps]
            assert context_along(proof.conclusion[k - 1], segs) == ctx
            path = ".".join([str(k)] + segs)
            paths.append(path)
            want = semantics_relative(proof, k, ctx)

            assert main(["semantics", str(f), "--context", path]) == 0
            got = json.loads(capsys.readouterr().out)
            assert (got["entry"], got["exit"]) == (k, want.exit_pos)
            matrix = np.array(got["matrix"], dtype=float).view(complex)[..., 0]
            assert np.array_equal(matrix, want.unitary.data)

            graph = OccurrenceGraph(proof)
            final = run(graph, initial_state(graph, k, ctx, zero_state(depth(ctx)))).final
            assert main(["run", str(f), "--context", path]) == 0
            got = json.loads(capsys.readouterr().out)
            state = np.array(got["state"], dtype=float).view(complex)[..., 0]
            assert got["exit"] == final.pos == want.exit_pos
            assert np.array_equal(state, final.register.amplitudes)
    assert "2.L.R" in paths and "3.R.L.R" in paths and "2.L.L.L.L.L" in paths
