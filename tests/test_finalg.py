"""Tests for finite-algebra machinery: evaluation, satisfaction, congruences,
quotients, isomorphism, duals, class predicates, JSON round trips.

The congruence enumerator is checked against a from-scratch oracle that walks
every set partition and keeps the compatible ones.
"""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmbl import finalg
from dmbl.catalog import build_basics, catalog_entries, get_algebra
from dmbl.finalg import (
    ALGEBRA_CLASSES,
    Congruence,
    FiniteAlgebra,
    ValidationError,
    algebra_from_json,
    algebra_to_json,
    congruences,
    dual,
    eval_term,
    homomorphism_failure,
    is_class,
    is_congruence,
    is_isomorphic,
    is_subdirectly_irreducible,
    load_algebra,
    monolith,
    power,
    product,
    quotient,
    satisfies,
    save_algebra,
    subalgebra_generated,
)
from dmbl.sums import bilateralise
from dmbl.sweep import (
    enumerate_terms,
    partition_ids,
    random_identity,
    refines,
    same_partition,
    value_matrix,
)
from dmbl.terms import dualise_identity, parse, parse_term


BASICS = build_basics()
D1, D2 = BASICS["D1"], BASICS["D2"]
B2, K3, DM4 = BASICS["B2"], BASICS["K3"], BASICS["DM4"]
IS1, IS2, IS3, IS4 = BASICS["IS1"], BASICS["IS2"], BASICS["IS3"], BASICS["IS4"]
U = get_algebra("U")


# ---------------------------------------------------------------- construction


def test_construction_rejects_bad_tables():
    with pytest.raises(ValidationError):
        FiniteAlgebra("x", ("a", "b"), ((0,),), ((0, 1), (1, 1)))  # ragged meet
    with pytest.raises(ValidationError):
        FiniteAlgebra("x", ("a", "b"), ((0, 2), (1, 1)), ((0, 1), (1, 1)))  # range
    with pytest.raises(ValidationError):
        FiniteAlgebra(
            "x", ("a", "b"), ((0, 0), (0, 1)), ((0, 1), (1, 1)), neg=(0, 0)
        )  # neg not a bijection
    with pytest.raises(ValidationError):
        FiniteAlgebra("x", ("a", "a"), ((0, 0), (0, 1)), ((0, 1), (1, 1)))  # dup names
    for bad_meet in (((0.7, 0), (0, 1)), ((0, "a"), (0, 1)), (0, (0, 1))):
        with pytest.raises(ValidationError, match="integer entries"):
            FiniteAlgebra("x", ("a", "b"), bad_meet, ((0, 1), (1, 1)))
    with pytest.raises(ValidationError, match="integer entries"):
        FiniteAlgebra("x", ("a", "b"), ((0, 0), (0, 1)), ((0, 1), (1, 1)), neg=(1.2, 0.3))


def test_element_name_index_lookup():
    assert DM4.index("T") == 2
    assert DM4.index(3) == 3
    with pytest.raises(ValidationError):
        DM4.index("nope")


# ------------------------------------------------------------------ evaluation


def test_eval_examples():
    assert eval_term(DM4, parse_term("x /\\ ~x"), {"x": "t"}) == "f"
    assert eval_term(IS3, parse_term("x \\/ ~x"), {"x": "i"}) == "j"
    assert eval_term(D2, parse_term("x /\\ y"), {"x": "1", "y": "0"}) == "0"


def test_eval_errors():
    with pytest.raises(ValueError, match="no assignment"):
        eval_term(DM4, parse_term("x /\\ y"), {"x": "t"})
    with pytest.raises(ValueError, match="no negation"):
        eval_term(D2, parse_term("~x"), {"x": "1"})


def test_satisfies_examples():
    assert satisfies(DM4, parse("x = x /\\ (x \\/ y)"))
    assert satisfies(IS3, parse("x \\/ ~x = (x \\/ ~x) \\/ y"))
    res = satisfies(get_algebra("A5"), parse("x /\\ y = x \\/ y"))
    assert not res
    assert res.counterexample == {"x": "a", "y": "b"}
    res = satisfies(IS2, parse("x = x /\\ (x \\/ y)"))
    assert not res
    assert res.counterexample == {"x": "i", "y": "j"}


def test_satisfies_counterexample_is_lex_least():
    # scan by hand in index order and compare
    e = parse("x /\\ y = x \\/ y")
    lhs, rhs = e.lhs, e.rhs
    found = None
    for x in DM4.elements:
        for y in DM4.elements:
            asg = {"x": x, "y": y}
            if eval_term(DM4, lhs, asg) != eval_term(DM4, rhs, asg):
                found = asg
                break
        if found:
            break
    res = satisfies(DM4, e)
    assert not res and res.counterexample == found


def _least_counterexample(a, e):
    names = sorted(_vars_of(e))
    for combo in itertools.product(a.elements, repeat=len(names)):
        asg = dict(zip(names, combo))
        if eval_term(a, e.lhs, asg) != eval_term(a, e.rhs, asg):
            return asg
    return None


def test_satisfies_blocks_match_brute_force(monkeypatch):
    cases = [
        (DM4, "x /\\ y = x \\/ y"),
        (IS4, "~(x /\\ y) = ~x \\/ ~y"),
        (get_algebra("A5"), "x /\\ ~x = y \\/ ~y"),
        (U, "~(v /\\ w) \\/ (x /\\ (y \\/ z)) = ~(v /\\ w) \\/ ((x /\\ y) \\/ (x /\\ z))"),
        (U, "(v \\/ w) /\\ up(x) /\\ dn(y) = (w \\/ v) /\\ dn(y) /\\ up(z)"),
        (U, "~~v \\/ (w \\/ x \\/ y \\/ z) = (~v /\\ v) \\/ (w \\/ x \\/ y \\/ z)"),
    ]
    expected = [_least_counterexample(a, parse(s)) for a, s in cases]
    # some hold, and the last one's least counterexample moves v off U's
    # first element, so the scan must reach a later block to find it
    assert None in expected and expected[-1]["v"] != U.elements[0]
    # blocks of one assignment, and blocks that fix all but one or two of
    # the five variables over U's nine elements
    for block in (1, 10, 100):
        monkeypatch.setattr(finalg, "_BLOCK", block)
        for (a, s), cex in zip(cases, expected):
            r = satisfies(a, parse(s))
            assert (bool(r), r.counterexample) == (cex is None, cex), (block, s)


def test_satisfies_memory_is_bounded_by_block():
    uu = product(U, U)
    e = parse("~(w /\\ x) \\/ (y /\\ z) = (~w \\/ ~x) \\/ (z /\\ y)")
    tracemalloc.start()
    try:
        assert satisfies(uu, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole 81^4 grid would take 86 MB per int16 array
    assert peak < 64 * 2**20


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_satisfies_matches_pointwise_eval(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    e = random_identity(rng, max_depth=3, num_vars=2)
    a = data.draw(st.sampled_from([B2, K3, DM4, IS2, IS3]))
    res = satisfies(a, e)
    names = sorted({v for v in _vars_of(e)})
    brute = True
    for combo in itertools.product(a.elements, repeat=len(names)):
        asg = dict(zip(names, combo))
        if eval_term(a, e.lhs, asg) != eval_term(a, e.rhs, asg):
            brute = False
            break
    assert bool(res) == brute


def _vars_of(e):
    from dmbl.terms import variables

    return variables(e.lhs) | variables(e.rhs)


# ------------------------------------------------------- product / subalgebras


def test_product_size_and_mismatch():
    p = product(IS2, IS3)
    assert p.size == 6
    assert p.elements[0] == "(i,i)"
    with pytest.raises(ValidationError):
        product(D2, IS2)  # D2 has no neg, IS2 does


def test_product_satisfies_iff_both_factors(seeded_rng=random.Random(20250814)):
    for _ in range(40):
        e = random_identity(seeded_rng, max_depth=3, num_vars=2)
        both = bool(satisfies(IS2, e)) and bool(satisfies(IS3, e))
        assert bool(satisfies(product(IS2, IS3), e)) == both


def test_product_d2_d2_is_u_bottom_fibre_lattice():
    sq = product(D2, D2)
    assert sq.size == 4 and sq.neg is None
    # it is the distributive lattice reduct of DM4
    assert is_isomorphic(sq, FiniteAlgebra("m", DM4.elements, DM4.meet, DM4.join))


def test_power_names_are_flat():
    cube = power(IS2, 3)
    assert cube.size == 8
    assert cube.elements[0] == "(i,i,i)"


def test_subalgebra_examples():
    sub, inc = subalgebra_generated(DM4, ["t", "f"])
    assert sorted(sub.elements) == ["f", "t"]
    assert is_isomorphic(sub, B2)
    assert [DM4.elements[i] for i in inc] == list(sub.elements)

    whole, _ = subalgebra_generated(DM4, DM4.elements)
    assert is_isomorphic(whole, DM4)

    # a negation fixpoint generates only itself...
    just_t, _ = subalgebra_generated(DM4, ["T"])
    assert just_t.elements == ("T",)
    # ...and the K3 copy on {t, f, T} needs a second generator
    k3copy, _ = subalgebra_generated(DM4, ["T", "f"])
    assert sorted(k3copy.elements) == ["T", "f", "t"]
    assert is_isomorphic(k3copy, K3)


def test_subalgebra_closed_under_ops():
    rng = random.Random(99)
    a5 = get_algebra("A5")
    for _ in range(10):
        seed = rng.sample(a5.elements, rng.randint(1, 3))
        sub, inc = subalgebra_generated(a5, seed)
        members = set(inc)
        for x in members:
            assert a5.neg[x] in members
            for y in members:
                assert a5.meet[x][y] in members
                assert a5.join[x][y] in members


# ------------------------------------------------------------------ congruences


def _set_partitions(universe):
    if not universe:
        yield []
        return
    first, rest = universe[0], universe[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1 :]
        yield [[first]] + smaller


def _labels(n, part):
    label = [0] * n
    for b, block in enumerate(part):
        for x in block:
            label[x] = b
    return label


def _compatible(algebra: FiniteAlgebra, label) -> bool:
    """The definition: related elements stay related under every operation."""
    n = algebra.size
    for t in (algebra.meet, algebra.join):
        for a in range(n):
            for b in range(n):
                if label[a] != label[b]:
                    continue
                for c in range(n):
                    if label[t[a][c]] != label[t[b][c]] or label[t[c][a]] != label[t[c][b]]:
                        return False
    op1 = algebra.neg
    if op1 is not None:
        for a in range(n):
            for b in range(n):
                if label[a] == label[b] and label[op1[a]] != label[op1[b]]:
                    return False
    return True


def _oracle_congruences(algebra: FiniteAlgebra) -> set[tuple[tuple[int, ...], ...]]:
    """All compatible partitions, by brute force over every set partition."""
    n = algebra.size
    return {
        tuple(sorted(tuple(sorted(b)) for b in part))
        for part in _set_partitions(list(range(n)))
        if _compatible(algebra, _labels(n, part))
    }


def _subuniverses(algebra, max_generators, max_size):
    out = set()
    for k in range(1, max_generators + 1):
        for seed in itertools.combinations(range(algebra.size), k):
            _, incl = subalgebra_generated(algebra, seed)
            if len(incl) <= max_size:
                out.add(incl)
    return [subalgebra_generated(algebra, s)[0] for s in sorted(out)]


def _non_isomorphic(algebras):
    reps = []
    for a in algebras:
        if not any(is_isomorphic(a, r) for r in reps):
            reps.append(a)
    return reps


CATALOG = [e.algebra for e in catalog_entries()]
SMALL_U_SUBALGEBRAS = _subuniverses(U, U.size, 8)


@pytest.mark.parametrize(
    "algebra",
    CATALOG + SMALL_U_SUBALGEBRAS,
    ids=[e.name for e in catalog_entries()]
    + [f"U-sub{i}-{a.size}" for i, a in enumerate(SMALL_U_SUBALGEBRAS)],
)
def test_congruences_match_set_partition_oracle(algebra):
    got = [tuple(sorted(c.blocks)) for c in congruences(algebra)]
    assert len(got) == len(set(got))
    assert set(got) == _oracle_congruences(algebra)




def test_congruences_of_product_match_oracle():
    p = product(IS2, IS3)
    got = {tuple(sorted(c.blocks)) for c in congruences(p)}
    oracle = _oracle_congruences(p)
    assert got == oracle
    assert len(got) == 7


def test_congruences_identity_first_total_last():
    cs = congruences(product(IS2, IS3))
    assert cs[0].is_identity()
    assert cs[-1].is_total()


def test_congruence_lattice_closure():
    from dmbl.finalg import join_partitions, meet_partitions

    a = get_algebra("A5")
    cs = congruences(a)
    known = {c.block_of for c in cs}
    for c1 in cs:
        for c2 in cs:
            assert meet_partitions(c1, c2).block_of in known
            assert join_partitions(c1, c2).block_of in known


def test_si_flags_follow_from_upper_covers():
    from dmbl.finalg import si_quotient_flags

    # the 1- and 2-generated subalgebras of U^2 with at most 12 elements
    u2_representatives = _non_isomorphic(_subuniverses(product(U, U), 2, 12))
    assert len(u2_representatives) > 50
    for a in CATALOG + u2_representatives:
        cs = congruences(a)
        flags = si_quotient_flags(cs)
        assert flags == [is_subdirectly_irreducible(quotient(a, c)) for c in cs], a
    # a non-SI algebra: the identity has two upper covers
    assert si_quotient_flags(congruences(product(IS2, IS3)))[0] is False


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_congruences_commute_with_relabelling(data):
    a = data.draw(st.sampled_from(CATALOG + [product(IS2, IS3), product(B2, K3), U]))
    order = data.draw(st.permutations(range(a.size)))
    permuted = a.permute(order)
    # element i of the permuted algebra is element order[i] of a
    image = {
        Congruence.from_blocks(a.size, [[order.index(x) for x in b] for b in c.blocks])
        for c in congruences(a)
    }
    assert set(congruences(permuted)) == image


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_congruences_of_arbitrary_tables_match_oracle(data):
    # no laws at all: tables need be neither commutative nor idempotent, so
    # rows and columns of a table give different constraints
    n = data.draw(st.integers(1, 5))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    neg = data.draw(st.one_of(st.none(), st.permutations(range(n))))
    a = FiniteAlgebra("T", [str(i) for i in range(n)], data.draw(table), data.draw(table), neg)
    got = [tuple(sorted(c.blocks)) for c in congruences(a)]
    assert len(got) == len(set(got))
    assert set(got) == _oracle_congruences(a)
    for part in _set_partitions(list(range(n))):
        label = _labels(n, part)
        assert is_congruence(a, Congruence.from_blocks(n, part)) == _compatible(a, label)


@pytest.mark.parametrize(
    "algebra",
    [a for a in CATALOG if a.size <= 6] + [product(IS2, IS3), product(B2, K3)],
    ids=lambda a: a.name,
)
def test_is_congruence_matches_definition_on_every_partition(algebra):
    n = algebra.size
    for part in _set_partitions(list(range(n))):
        label = _labels(n, part)
        assert is_congruence(algebra, Congruence.from_blocks(n, part)) == _compatible(
            algebra, label
        ), part
        # labels need not be numbered by first occurrence
        assert is_congruence(algebra, Congruence(tuple(label))) == _compatible(
            algebra, label
        )


def test_congruence_size_guard():
    big = power(IS2, 6)  # 64 elements
    with pytest.raises(ValidationError):
        congruences(big)


def test_quotient_collapses_blocks():
    a = get_algebra("U")
    cs = congruences(a)
    for c in cs:
        q = quotient(a, c)
        assert q.size == c.num_blocks
        # quotient map is a homomorphism
        for x in range(a.size):
            for y in range(a.size):
                assert c.block_of[a.meet[x][y]] == q.meet[c.block_of[x]][c.block_of[y]]
                assert c.block_of[a.join[x][y]] == q.join[c.block_of[x]][c.block_of[y]]
            assert c.block_of[a.neg[x]] == q.neg[c.block_of[x]]


def test_subdirect_irreducibility_examples():
    assert is_subdirectly_irreducible(DM4)
    assert is_subdirectly_irreducible(IS4)
    assert is_subdirectly_irreducible(IS1)  # trivial algebra, by convention
    assert not is_subdirectly_irreducible(product(IS2, IS3))
    assert not is_subdirectly_irreducible(product(B2, B2))


def test_monolith_of_si_algebra_is_least_nontrivial():
    m = monolith(DM4)
    assert m is not None and not m.is_identity()
    for c in congruences(DM4):
        if not c.is_identity():
            assert m.refines(c)
    assert monolith(product(IS2, IS3)) is None


def test_congruence_from_blocks_roundtrip():
    c = Congruence.from_blocks(5, [[0, 1], [2], [3, 4]])
    assert c.blocks == ((0, 1), (2,), (3, 4))
    assert c.related(0, 1) and not c.related(1, 2)


# ------------------------------------------------------------------ isomorphism


def test_isomorphism_examples():
    sub, _ = subalgebra_generated(DM4, ["t", "f"])
    w = is_isomorphic(B2, sub)
    assert w is not None
    assert is_isomorphic(D2, D1) is None
    w = is_isomorphic(bilateralise(D2), DM4)
    assert w is not None


def test_isomorphism_witness_is_a_homomorphism():
    a = bilateralise(D2)
    w = is_isomorphic(a, DM4)
    ai, bi = a.index, DM4.index
    for x in a.elements:
        for y in a.elements:
            assert w[a.elements[a.meet[ai(x)][ai(y)]]] == DM4.elements[
                DM4.meet[bi(w[x])][bi(w[y])]
            ]
            assert w[a.elements[a.join[ai(x)][ai(y)]]] == DM4.elements[
                DM4.join[bi(w[x])][bi(w[y])]
            ]
        assert w[a.elements[a.neg[ai(x)]]] == DM4.elements[DM4.neg[bi(w[x])]]


def _first_hom_failure(A, B, f):
    # reference: pairs row by row, meet before join, then neg
    for a in range(A.size):
        for b in range(A.size):
            if f[A.meet[a][b]] != B.meet[f[a]][f[b]]:
                return "meet", (a, b)
            if f[A.join[a][b]] != B.join[f[a]][f[b]]:
                return "join", (a, b)
    if A.neg is not None and B.neg is not None:
        for a in range(A.size):
            if f[A.neg[a]] != B.neg[f[a]]:
                return "neg", (a,)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_homomorphism_failure_matches_loop(data):
    # law-free tables, or the left projection x /\ y = x, under which every
    # map preserves the binary operations and only neg can fail
    with_neg = data.draw(st.booleans())

    def algebra(name):
        n = data.draw(st.integers(1, 5))
        cell = st.integers(0, n - 1)
        table = st.one_of(
            st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n),
            st.just([[x] * n for x in range(n)]),
        )
        neg = data.draw(st.permutations(range(n))) if with_neg else None
        return FiniteAlgebra(name, [str(i) for i in range(n)], data.draw(table), data.draw(table), neg)

    A = algebra("A")
    B = A if data.draw(st.booleans()) else algebra("B")
    if B is A and data.draw(st.booleans()):
        f = data.draw(st.permutations(range(A.size)))
    else:
        f = data.draw(st.lists(st.integers(0, B.size - 1), min_size=A.size, max_size=A.size))
    assert homomorphism_failure(A, B, f) == _first_hom_failure(A, B, f)


def test_homomorphism_failure_rejects_non_maps():
    for f in ((0, 1, 2), (0, 1, 2, 4), (0, 1, 2, -1)):
        with pytest.raises(ValidationError):
            homomorphism_failure(DM4, DM4, f)
    assert homomorphism_failure(DM4, DM4, range(4)) is None


def test_isomorphism_reflexive_on_catalog():
    for e in catalog_entries():
        w = is_isomorphic(e.algebra, e.algebra)
        assert w is not None


def test_catalog_pairwise_non_isomorphic():
    entries = catalog_entries()
    for i, e1 in enumerate(entries):
        for e2 in entries[i + 1 :]:
            assert is_isomorphic(e1.algebra, e2.algebra) is None, (e1.name, e2.name)


def test_isomorphism_witnesses_compose():
    # A ~ B via renaming, B ~ C via another renaming; composed map must work
    a = DM4
    b = a.rename_elements({"f": "0", "B": "1", "T": "2", "t": "3"})
    c = b.permute(["3", "2", "1", "0"])
    w_ab = is_isomorphic(a, b)
    w_bc = is_isomorphic(b, c)
    composed = {x: w_bc[w_ab[x]] for x in a.elements}
    ci = c.index
    for x in a.elements:
        for y in a.elements:
            assert composed[a.elements[a.meet[a.index(x)][a.index(y)]]] == c.elements[
                c.meet[ci(composed[x])][ci(composed[y])]
            ]


def _assert_isomorphism(a, b, w):
    assert w is not None
    assert sorted(w) == sorted(a.elements) and sorted(w.values()) == sorted(b.elements)
    f = [b.index(w[x]) for x in a.elements]
    for x in range(a.size):
        assert f[a.neg[x]] == b.neg[f[x]]
        for y in range(a.size):
            assert f[a.meet[x][y]] == b.meet[f[x]][f[y]]
            assert f[a.join[x][y]] == b.join[f[x]][f[y]]


def test_colors_separate_a_sum_without_neg_fixpoints():
    # neg has no fixpoint here; refinement alone left one colour class, and
    # is_isomorphic backtracked over every generator image for seconds
    from dmbl.catalog import _chain
    from dmbl.decomp import decompose
    from dmbl.finalg import _colors
    from dmbl.sums import dpl_sum, random_system

    d3 = _chain(3, ["0", "1", "2"], None).rename("D3")
    d4 = _chain(4, ["0", "1", "2", "3"], None).rename("D4")
    rng = random.Random(7)
    pools = ([IS3, IS4, product(IS3, IS2), product(IS4, IS2)], [D2, d3, product(D2, D2), d4])
    for _ in range(7):
        system = random_system(rng, *pools)
    a = dpl_sum(system)
    assert a.size == 22 and all(a.neg[x] != x for x in range(a.size))
    s = dpl_sum(decompose(a))
    assert len(set(_colors(s))) > 1
    _assert_isomorphism(s, a, is_isomorphic(s, a))
    order = list(range(a.size))
    random.Random(1).shuffle(order)
    assert sorted(_colors(a)) == sorted(_colors(a.permute(order)))


# ------------------------------------------------------------------------ dual


def test_dual_examples():
    dd = dual(dual(DM4))
    assert dd.meet == DM4.meet and dd.join == DM4.join and dd.neg == DM4.neg
    w = is_isomorphic(dual(D2), D2)
    assert w == {"0": "1", "1": "0"}


def test_dual_satisfaction_flip():
    rng = random.Random(4711)
    for _ in range(40):
        e = random_identity(rng, max_depth=3, num_vars=2)
        for a in (DM4, K3, get_algebra("A5")):
            assert bool(satisfies(dual(a), e)) == bool(
                satisfies(a, dualise_identity(e))
            )


# ------------------------------------------------------------- class predicates


def test_is_class_examples():
    assert is_class(DM4, "De Morgan lattice")
    assert is_class(IS4, "involutive semilattice")
    assert not is_class(get_algebra("A5"), "De Morgan lattice")
    assert is_class(D2, "distributive lattice")
    assert is_class(K3, "Kleene lattice")
    assert is_class(B2, "Boolean-algebra-reduct")
    assert not is_class(DM4, "Kleene lattice")
    assert not is_class(K3, "Boolean-algebra-reduct")
    with pytest.raises(ValidationError):
        is_class(DM4, "frobnicator")


def test_class_matrix_on_catalog():
    expected = {
        "IS1": {"distributive lattice", "distributive bisemilattice",
                "De Morgan bisemilattice", "De Morgan lattice",
                "involutive semilattice", "Kleene lattice",
                "Boolean-algebra-reduct"},
        "B2": {"distributive lattice", "distributive bisemilattice",
               "De Morgan bisemilattice", "De Morgan lattice",
               "Kleene lattice", "Boolean-algebra-reduct"},
        "K3": {"distributive lattice", "distributive bisemilattice",
               "De Morgan bisemilattice", "De Morgan lattice",
               "Kleene lattice"},
        "DM4": {"distributive lattice", "distributive bisemilattice",
                "De Morgan bisemilattice", "De Morgan lattice"},
        "IS2": {"distributive bisemilattice", "De Morgan bisemilattice",
                "involutive semilattice"},
        "B2+": {"distributive bisemilattice", "De Morgan bisemilattice"},
        "K3+": {"distributive bisemilattice", "De Morgan bisemilattice"},
        "DM4+": {"distributive bisemilattice", "De Morgan bisemilattice"},
        "IS3": {"distributive bisemilattice", "De Morgan bisemilattice",
                "involutive semilattice"},
        "A5": {"distributive bisemilattice", "De Morgan bisemilattice"},
        "IS4": {"distributive bisemilattice", "De Morgan bisemilattice",
                "involutive semilattice"},
    }
    for e in catalog_entries():
        got = {c for c in ALGEBRA_CLASSES if is_class(e.algebra, c)}
        assert got == expected[e.name], e.name


# ------------------------------------------------------------------------ JSON


def test_json_round_trip_exact():
    for e in catalog_entries():
        blob = algebra_to_json(e.algebra)
        back = algebra_from_json(blob)
        assert back.name == e.algebra.name
        assert back.elements == e.algebra.elements
        assert back.meet == e.algebra.meet
        assert back.join == e.algebra.join
        assert back.neg == e.algebra.neg
        assert algebra_to_json(back) == blob


def test_json_file_round_trip(tmp_path):
    path = tmp_path / "dm4.json"
    save_algebra(DM4, path)
    back = load_algebra(path)
    assert back.meet == DM4.meet and back.elements == DM4.elements
    # file is plain JSON with the documented keys
    raw = json.loads(path.read_text())
    assert set(raw) == {"name", "elements", "meet", "join", "neg"}


def test_json_rejects_garbage():
    with pytest.raises((ValidationError, KeyError, TypeError)):
        algebra_from_json({"name": "x", "elements": ["a"]})


# ----------------------------------------------- H/S/P preserve identities


def _theory_partition(a):
    return partition_ids(value_matrix(a, enumerate_terms()))


@pytest.mark.parametrize("name", ["B2", "K3", "DM4", "IS2", "IS3", "IS4", "A5", "U"])
def test_quotients_preserve_theory_exhaustively(name):
    a = get_algebra(name)
    p_a = _theory_partition(a)
    for c in congruences(a):
        if c.is_total():
            continue
        assert refines(p_a, _theory_partition(quotient(a, c)))


@pytest.mark.parametrize("name", ["B2", "K3", "DM4", "IS2", "IS3", "IS4", "A5", "U"])
def test_subalgebras_preserve_theory_exhaustively(name):
    a = get_algebra(name)
    p_a = _theory_partition(a)
    seen = set()
    for seed in itertools.combinations(a.elements, 2):
        sub, inc = subalgebra_generated(a, seed)
        if inc in seen:
            continue
        seen.add(inc)
        assert refines(p_a, _theory_partition(sub))


def test_products_have_intersection_theory_exhaustively():
    pairs = [(B2, IS3), (K3, IS2), (DM4, IS4), (IS2, IS3)]
    for a, b in pairs:
        p_ab = _theory_partition(product(a, b))
        combined = partition_ids(
            list(zip(_theory_partition(a).tolist(), _theory_partition(b).tolist()))
        )
        assert same_partition(p_ab, combined)
