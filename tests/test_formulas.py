import pytest
from hypothesis import given, strategies as st

from qmll import FormulaSyntaxError, QmllError, dual, parse_formula, print_formula
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
        assert hole_atom(ctx, f) is atom


@given(formulas)
def test_dual_context_matches_dual_formula(f):
    for ctx, _ in contexts_for(f):
        a = hole_atom(ctx, f)
        assert hole_atom(dual_context(ctx), f.dual) is a.dual


def test_modal_helpers():
    assert is_modal(parse_formula("[] a")) and is_modal(parse_formula("<> a"))
    assert not is_modal(parse_formula("(a % [] b)"))
    assert modal_chain(parse_formula("[] <> [] a")) == 3
    assert leading_run(parse_formula("[] [] <> a")) == ("box", 2, parse_formula("<> a"))
    assert leading_run(parse_formula("a")) == ("", 0, parse_formula("a"))


def test_print_context():
    f = parse_formula("([] a * b)")
    assert print_context(contexts_for(f)[0][0], f) == "([] [.] * b)"
    # the hole is one occurrence, not every occurrence of its atom
    f = parse_formula("(<> a % (a * a))")
    assert [print_context(ctx, f) for ctx, _ in contexts_for(f)] == [
        "(<> [.] % (a * a))", "(<> a % ([.] * a))", "(<> a % (a * [.]))"]
    # a context belongs to one formula: another is refused as `hole_atom` refuses it
    with pytest.raises(QmllError, match="^context does not match formula$"):
        print_context(Context(("parL",)), parse_formula("(a * b)"))
    with pytest.raises(QmllError, match="^context hole is not at an atom$"):
        print_context(Context(("parL",)), parse_formula("([] a % b)"))


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



def chain(n, body=None):
    """`[]` n times over `body` (the atom a by default), built one constructor call at a time."""
    f = Atom("a") if body is None else body
    for _ in range(n):
        f = Box(f)
    return f


def test_each_formula_is_one_object():
    assert parse_formula("(a % b)") is Par(Atom("a"), Atom("b"))
    # an atom read from text is keyed by its name's value, not by the string object
    assert parse_formula("[] (~a * <> b)") is Box(Tensor(Atom("a", False), Diamond(Atom("b"))))
    assert Atom("".join(["a", "b"])) is Atom("ab")
    assert Atom("a") is not Atom("a", False) and Par(Atom("a"), Atom("a")) is not Tensor(
        Atom("a"), Atom("a"))
    f = parse_formula("(a * [] b)")
    assert f.dual is dual(f) is parse_formula("(~a % <> ~b)")
    assert f.dual.dual is f and Atom("a").dual is Atom("a", False)
    assert (f.size, f.dual.size, Atom("a").size) == (4, 4, 1)
    assert hash(f) == hash(parse_formula("(a * [] b)")) and f == Tensor(Atom("a"), Box(Atom("b")))
    assert {f: 1}[Tensor(Atom("a"), Box(Atom("b")))] == 1


def test_formulas_are_immutable_and_still_match_by_position():
    f = parse_formula("([] a % ~b)")
    with pytest.raises(AttributeError):
        f.left = Atom("c")
    with pytest.raises(AttributeError):
        f.size = 0
    match f:
        case Par(Box(Atom(name, positive)), Atom(other, False)):
            assert (name, positive, other) == ("a", True, "b")
        case _:
            pytest.fail("positional match failed")
    assert repr(f) == "<Par ([] a % ~b)>"


def test_hash_eq_dual_and_cut_on_two_5000_deep_chains():
    """Two chains built apart are one object; nothing here walks them recursively."""
    from qmll.proofs import AxiomRule, CutRule, check
    a, b = chain(5000), chain(5000)
    assert a is b and a == b and hash(a) == hash(b)
    assert dual(a) is b.dual and dual(dual(a)) is a and a.size == b.dual.size == 5001
    cut = CutRule(2, 1, AxiomRule(a), AxiomRule(b))
    assert cut.conclusion == (a.dual, b) and check(cut).ok
    assert parse_formula("[] " * 5000 + "a") is a
    assert print_formula(dual(a)) == "<> " * 5000 + "~a"


def test_the_weak_table_drops_unreferenced_formulas():
    import gc
    import weakref
    from qmll.formulas import Formula
    gc.collect()
    before = len(Formula._table)
    f = chain(50, Atom("only_in_this_test"))
    refs = [weakref.ref(f), weakref.ref(f.dual), weakref.ref(f.body.body)]
    assert len(Formula._table) == before + 2 * 51
    del f
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(Formula._table) == before


def test_formula_errors_keep_their_messages_and_offsets():
    cases = {
        "(a %": "unexpected 'end of input' in formula (at offset 4)",
        "(": "unexpected 'end of input' in formula (at offset 1)",
        "((a % b) c)": "expected '%' or '*', found 'c' (at offset 9)",
        "[] [] (a * ~)": "expected 'ident', found ')' (at offset 12)",
        "<> (a % b": "expected ')', found 'end of input' (at offset 9)",
        "(a * b % c)": "expected ')', found '%' (at offset 7)",
        ")": "unexpected ')' in formula (at offset 0)",
        "((a % b) % (c % d)) e": "trailing input 'e' (at offset 20)",
    }
    for text, message in cases.items():
        with pytest.raises(FormulaSyntaxError) as e:
            parse_formula(text)
        assert str(e.value) == message


@given(st.lists(st.sampled_from(["[] ", "<> "]), min_size=1, max_size=40),
       st.integers(1, 80), st.booleans())
def test_deep_modal_formulas_read_back_as_the_formula_built(prefix, repeat, positive):
    ops = prefix * repeat
    f = Atom("a", positive)
    for op in reversed(ops):
        f = Box(f) if op == "[] " else Diamond(f)
    text = "".join(ops) + ("a" if positive else "~a")
    assert parse_formula(text) is f and print_formula(f) == text
    assert f.size == len(ops) + 1 and modal_chain(f) == len(ops)
