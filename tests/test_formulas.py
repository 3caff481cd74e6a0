import pytest
from hypothesis import given, strategies as st

from qmll import FormulaSyntaxError, dual, parse_formula, print_formula, subst
from qmll.formulas import (Atom, Box, Context, Diamond, Par, Tensor, atoms, contexts_for,
                           depth, dual_context, hole_atom, is_modal, leading_run,
                           modal_chain, print_context)


def test_dual_atom_flip():
    assert dual(parse_formula("a")) == Atom("a", False)
    assert print_formula(dual(parse_formula("a"))) == "~a"


def test_dual_box_par():
    # box over par dualizes to diamond over tensor
    assert dual(parse_formula("[] (a % b)")) == parse_formula("<> (~a * ~b)")


def test_dual_involution():
    f = parse_formula("(a * [] b)")
    assert dual(dual(f)) == f


formulas = st.recursive(
    st.builds(Atom, st.sampled_from(["a", "b", "c"]), st.booleans()),
    lambda sub: st.one_of(
        st.builds(Par, sub, sub),
        st.builds(Tensor, sub, sub),
        st.builds(Box, sub),
        st.builds(Diamond, sub),
    ),
    max_leaves=8,
)


@given(formulas)
def test_dual_involution_property(f):
    assert dual(dual(f)) == f


@given(formulas)
def test_parse_print_round_trip(f):
    text = print_formula(f)
    assert parse_formula(text) == f
    assert print_formula(parse_formula(text)) == text


def test_parse_examples():
    assert parse_formula("(~a % ~a)") == Par(Atom("a", False), Atom("a", False))
    b = parse_formula("((~a % ~a) % (a * a))")
    assert b == Par(Par(Atom("a", False), Atom("a", False)),
                    Tensor(Atom("a"), Atom("a")))


def test_parse_whitespace_insensitive():
    assert parse_formula("[]a") == parse_formula("[]  a")
    assert parse_formula("<><>~a") == Diamond(Diamond(Atom("a", False)))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(a %")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a b")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(a & b)")


@pytest.mark.parametrize("text, message", [
    ("a & b", "unexpected character '&' (at offset 2)"),
    ("<a", "expected '>' after '<' (at offset 0)"),
])
def test_tokenizer_errors_name_their_offset_once(text, message):
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula(text)
    assert str(e.value) == message


def test_depth_examples():
    assert depth(Context(())) == 0
    ctx3 = contexts_for(parse_formula("<> <> <> ~a"))[0][0]
    assert depth(ctx3) == 3
    # only modal ancestors on the hole path count
    ctx = contexts_for(parse_formula("([] a * a)"))[0][0]
    assert depth(ctx) == 1


def test_contexts_for_atom():
    [(ctx, pos)] = contexts_for(parse_formula("a"))
    assert ctx == Context(()) and pos is True


def test_contexts_for_par():
    entries = contexts_for(parse_formula("(~a % a)"))
    assert [pos for _, pos in entries] == [False, True]


def test_contexts_for_modal_co_atom():
    entries = contexts_for(parse_formula("<> <> <> ~a"))
    assert len(entries) == 1
    ctx, pos = entries[0]
    assert pos is False and depth(ctx) == 3


@given(formulas)
def test_contexts_reconstruct(f):
    leaves = atoms(f)
    entries = contexts_for(f)
    assert len(entries) == len(leaves)
    for (ctx, pos), atom in zip(entries, leaves):
        assert pos == atom.positive
        assert subst(ctx, atom) == f
        assert hole_atom(ctx, f) == atom


@given(formulas)
def test_dual_context_matches_dual_formula(f):
    for ctx, _ in contexts_for(f):
        a = hole_atom(ctx, f)
        assert subst(dual_context(ctx), dual(a)) == dual(f)


def test_modal_helpers():
    assert is_modal(parse_formula("[] a")) and is_modal(parse_formula("<> a"))
    assert not is_modal(parse_formula("(a % [] b)"))
    assert modal_chain(parse_formula("[] <> [] a")) == 3
    assert leading_run(parse_formula("[] [] <> a")) == ("box", 2, parse_formula("<> a"))
    assert leading_run(parse_formula("a")) == ("", 0, parse_formula("a"))


def test_print_context():
    ctx = contexts_for(parse_formula("([] a * b)"))[0][0]
    assert print_context(ctx) == "([] [.] * b)"


def test_leaves_of_a_deep_formula_without_recursion():
    """3000 levels of box, par, diamond and tensor, an atom hung off each binary level."""
    f = Atom("a", False)
    for d in range(3000):
        if d % 2 == 0:
            f = Box(f) if d % 4 == 0 else Diamond(f)
        else:
            leaf = Atom(f"b{d}", d % 3 == 0)
            f = Par(f, leaf) if d % 4 == 1 else Tensor(leaf, f)
    leaves = atoms(f)
    # tensor leaves sit left of the core, outermost first; par leaves right, innermost first
    want = [f"b{d}" for d in range(2999, 0, -4)] + ["a"] + [f"b{d}" for d in range(1, 3000, 4)]
    assert [a.name for a in leaves] == want
    entries = contexts_for(f)
    assert [pos for _, pos in entries] == [a.positive for a in leaves]
    for i in (0, 1, 750, 1499, 1500):
        assert hole_atom(entries[i][0], f) is leaves[i]
    assert depth(entries[750][0]) == 1500

