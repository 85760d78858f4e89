import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import dmbl
from dmbl.terms import (
    Identity,
    IdentityClass,
    Meet,
    Join,
    Neg,
    ParseError,
    Var,
    classify,
    dualise,
    dualise_identity,
    parse,
    parse_identity,
    parse_term,
    polarities,
    print_identity,
    print_term,
    term_size,
    variables,
)

x, y, z = Var("x"), Var("y"), Var("z")


def terms_strategy(max_leaves=6):
    vars_ = st.sampled_from([x, y, z])
    return st.recursive(
        vars_,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.tuples(kids, kids).map(lambda p: Meet(*p)),
            st.tuples(kids, kids).map(lambda p: Join(*p)),
        ),
        max_leaves=max_leaves,
    )


# -- parsing ----------------------------------------------------------------

def test_parse_de_morgan_identity():
    e = parse("~(x /\\ y) = ~x \\/ ~y")
    assert e == Identity(Neg(Meet(x, y)), Join(Neg(x), Neg(y)))


def test_parse_term_vs_identity_dispatch():
    assert parse("x /\\ y") == Meet(x, y)
    assert isinstance(parse("x = y"), Identity)


def test_parse_left_associative():
    assert parse_term("x /\\ y /\\ z") == Meet(Meet(x, y), z)
    assert parse_term("x \\/ y \\/ z") == Join(Join(x, y), z)


def test_mixed_chain_rejected():
    with pytest.raises(ParseError):
        parse_term("x /\\ y \\/ z")
    # parenthesised forms are fine
    assert parse_term("(x /\\ y) \\/ z") == Join(Meet(x, y), z)
    assert parse_term("x /\\ (y \\/ z)") == Meet(x, Join(y, z))


def test_neg_binds_tightest():
    assert parse_term("~x /\\ y") == Meet(Neg(x), y)
    assert parse_term("~~x") == Neg(Neg(x))


def test_unicode_spellings():
    assert parse("¬(x ∧ y) ≈ ¬x ∨ ¬y") == parse("~(x /\\ y) = ~x \\/ ~y")


def test_up_dn_sugar():
    assert parse_term("up(x)") == Join(x, Neg(x))
    assert parse_term("dn(x)") == Meet(x, Neg(x))
    assert parse_term("up(x /\\ y)") == Join(Meet(x, y), Neg(Meet(x, y)))


def test_reserved_names():
    with pytest.raises(ParseError):
        parse_term("up")
    with pytest.raises(ParseError):
        parse_term("dn /\\ x")


def test_error_position():
    with pytest.raises(ParseError) as exc:
        parse("x /\\ (")
    assert exc.value.position == 6
    with pytest.raises(ParseError) as exc:
        parse("x /\\ y \\/ z")
    assert exc.value.position == 7


def test_error_on_garbage():
    for bad in ["", "x y", "x /\\", "= x", "x = ", "x = y = z", "(x", "x)"]:
        with pytest.raises(ParseError):
            parse(bad)


# -- printing ---------------------------------------------------------------

def test_print_round_trip_examples():
    for text in [
        "x",
        "~~x",
        "x /\\ y /\\ z",
        "x /\\ (y /\\ z)",
        "(x \\/ y) /\\ ~z",
        "~(x \\/ y)",
    ]:
        t = parse_term(text)
        assert parse_term(print_term(t)) == t


@given(terms_strategy())
def test_print_round_trip(t):
    assert parse_term(print_term(t)) == t


@given(terms_strategy(), terms_strategy())
def test_identity_print_round_trip(lhs, rhs):
    e = Identity(lhs, rhs)
    assert parse_identity(print_identity(e)) == e


# -- polarities -------------------------------------------------------------

def test_polarities_split():
    p = polarities(parse_term("x /\\ ~y"))
    assert p.plain == {"x", "y"}
    assert p.positive == {"x"}
    assert p.negative == {"y"}

    p = polarities(parse_term("dn(x)"))
    assert p.positive == p.negative == {"x"}


@given(terms_strategy())
def test_polarities_union(t):
    p = polarities(t)
    assert p.plain == p.positive | p.negative
    assert p.plain == variables(t)


@given(terms_strategy())
def test_double_negation_keeps_polarities(t):
    assert polarities(Neg(Neg(t))) == polarities(t)


# -- classification ---------------------------------------------------------

R = IdentityClass.REGULAR
BR = IdentityClass.BALANCED_REGULAR
BIP = IdentityClass.BIPOLAR
BB = IdentityClass.BIPOLARLY_BALANCED
RBB = IdentityClass.REGULAR_BIPOLARLY_BALANCED


def cls(text):
    return classify(parse(text))


def test_classify_spec_examples():
    assert cls("x /\\ (x \\/ y) = x") == frozenset()
    assert cls("x /\\ (x \\/ y) = x /\\ (x \\/ ~y)") == {R}
    assert cls("x /\\ ~x = y \\/ ~y") == {BIP, BB}
    assert cls("~(x /\\ y) = ~x \\/ ~y") == {R, BR, BB, RBB}


def test_classify_more():
    # balanced regular but not bipolar
    assert cls("x /\\ y = y /\\ x") == {R, BR, BB, RBB}
    # bipolar and regular but not balanced
    assert cls("x /\\ ~x /\\ y = x /\\ ~x /\\ ~y") == {R, BIP, BB, RBB}
    # bipolar, not regular
    assert cls("x /\\ ~x = x /\\ ~x /\\ (y \\/ ~y)") == {BIP, BB}


@given(terms_strategy(), terms_strategy())
def test_classify_symmetric(lhs, rhs):
    assert classify(Identity(lhs, rhs)) == classify(Identity(rhs, lhs))


@given(terms_strategy(), terms_strategy())
def test_classify_implications(lhs, rhs):
    got = classify(Identity(lhs, rhs))
    if BR in got:
        assert R in got and BB in got and RBB in got
    if BIP in got:
        assert BB in got
    if BB in got:
        assert BIP in got or BR in got
    if RBB in got:
        assert BB in got
    if BIP in got and R in got:
        assert RBB in got


# -- dualisation ------------------------------------------------------------

def test_dualise_swaps_ops():
    assert dualise(parse_term("x /\\ (y \\/ ~z)")) == parse_term("x \\/ (y /\\ ~z)")


@given(terms_strategy())
def test_dualise_involutive(t):
    assert dualise(dualise(t)) == t
    assert polarities(dualise(t)) == polarities(t)


@given(terms_strategy(), terms_strategy())
def test_dualise_preserves_classes(lhs, rhs):
    e = Identity(lhs, rhs)
    assert classify(dualise_identity(e)) == classify(e)


def test_term_size():
    assert term_size(x) == 1
    assert term_size(parse_term("~(x /\\ y)")) == 4


def test_expanded_size_bound():
    from dmbl.terms import MAX_NODES

    # up^k(x) and dn^k(x) expand to 3 * 2^k - 2 nodes
    for sugar in ("up", "dn"):
        t = parse_term(f"{sugar}(" * 15 + "x" + ")" * 15)
        assert term_size(t) == 98302 <= MAX_NODES
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes") as info:
            parse_term(f"{sugar}(" * 16 + "x" + ")" * 16)
        assert info.value.position == 0
    # the bound counts both operands of a chain and the negations on top
    half = "up(" * 14 + "x" + ")" * 14
    assert term_size(parse_term(f"{half} /\\ {half}")) == 2 * 49150 + 1
    with pytest.raises(ParseError, match="nodes"):
        parse_term(f"{half} /\\ {half} /\\ {half}")
    # 98302 + 1534 + 1 nodes in the chain, then one per negation
    chain = "(" + "up(" * 15 + "x" + ")" * 15 + " \\/ " + "up(" * 9 + "y" + ")" * 9 + ")"
    assert term_size(parse_identity("x = " + "~" * 163 + chain).rhs) == MAX_NODES
    with pytest.raises(ParseError, match="nodes") as info:
        parse_identity("x = " + "~" * 164 + chain)
    assert info.value.position == 4


# -- hashing ----------------------------------------------------------------

def test_each_term_node_keeps_its_hash():
    # a node's hash is computed once, from its children's kept hashes, when
    # it is built, so hashing a term never walks it: a chain of negations
    # far deeper than the recursion limit hashes at once, and so does a
    # shared DAG of 60 levels whose tree has more than 3^60 nodes
    deep = x
    for _ in range(5 * sys.getrecursionlimit()):
        deep = Neg(deep)
    assert hash(deep) == hash((deep.child,))
    up = x
    for _ in range(60):
        up = Join(up, Neg(Meet(Neg(up), Neg(up))))
    assert hash(up) == hash((up.left, up.right))
    # the hashes are the dataclass hashes of the fields, so equal terms
    # built apart hash alike
    t = parse_term("~(x /\\ y) \\/ (z /\\ x)")
    assert hash(t) == hash(parse_term("~(x /\\ y) \\/ (z /\\ x)")) == hash((t.left, t.right))
    assert hash(x) == hash(("x",))
    e = Identity(t, dualise(t))
    assert {e: 1}[parse_identity(str(e))] == 1


def test_a_pickled_term_hashes_in_the_loading_process():
    # a str hash differs between processes, so the kept hash is not
    # pickled: a term pickled under another hash seed is equal to, and
    # hashes like, the same term built here
    text = "~(x /\\ y) \\/ (up(z) /\\ x) = x"
    code = (
        "import pickle, sys\n"
        "from dmbl.terms import parse_identity\n"
        f"sys.stdout.buffer.write(pickle.dumps(parse_identity({text!r})))\n"
    )
    src = os.path.dirname(os.path.dirname(dmbl.__file__))
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr
    loaded, built = pickle.loads(out.stdout), parse_identity(text)
    assert loaded == built and hash(loaded) == hash(built)
    assert hash(loaded.lhs) == hash(built.lhs) and str(loaded) == str(built)

