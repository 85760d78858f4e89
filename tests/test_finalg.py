"""Tests for finite-algebra machinery: evaluation, satisfaction, congruences,
quotients, isomorphism, duals, class predicates, JSON round trips.

The congruence enumerator is checked against a from-scratch oracle that walks
every set partition and keeps the compatible ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmbl import finalg, sweep, varieties
from dmbl.catalog import build_basics, catalog_entries, get_algebra, known_algebra_names
from dmbl.finalg import (
    ALGEBRA_CLASSES,
    Congruence,
    FiniteAlgebra,
    ValidationError,
    algebra_from_json,
    algebra_to_json,
    congruences,
    congruences_ops,
    dual,
    eval_term,
    homomorphism_failure,
    is_class,
    is_congruence,
    is_isomorphic,
    is_subdirectly_irreducible,
    join_partitions,
    load_algebra,
    meet_partitions,
    monolith,
    power,
    principal_congruence,
    product,
    quotient,
    satisfies,
    save_algebra,
    si_quotient_flags,
    subalgebra_generated,
)
from dmbl.sums import bilateralise
from dmbl.sweep import (
    MEET,
    NEG,
    JOIN,
    VAR,
    _walk,
    enumerate_terms,
    first_violation,
    partition_ids,
    random_identity,
    refines,
    same_partition,
    signatures,
    term_index,
    theory_partition,
    value_matrix,
)
from dmbl.terms import (
    Identity,
    Join,
    Meet,
    Neg,
    Var,
    dualise_identity,
    parse,
    parse_term,
    polarities,
)


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
    v, w, x, y, z = (Var(c) for c in "vwxyz")
    shared = x & ~y  # one object under two parents
    late = y | ~z  # reads only the last variables
    rest = (shared | late) & (shared | w)
    cases = [
        (DM4, parse("x /\\ y = x \\/ y")),
        (IS4, parse("~(x /\\ y) = ~x \\/ ~y")),
        (get_algebra("A5"), parse("x /\\ ~x = y \\/ ~y")),
        (U, parse("~(v /\\ w) \\/ (x /\\ (y \\/ z)) = ~(v /\\ w) \\/ ((x /\\ y) \\/ (x /\\ z))")),
        (U, parse("(v \\/ w) /\\ up(x) /\\ dn(y) = (w \\/ v) /\\ dn(y) /\\ up(z)")),
        (U, Identity((shared | v) & (shared | (w & z)), shared | (v & (w & z)))),
        (U, Identity(~~v | rest, (~v & v) | rest)),
        (U, parse("~~v \\/ (w \\/ x \\/ y \\/ z) = (~v /\\ v) \\/ (w \\/ x \\/ y \\/ z)")),
    ]
    expected = [_least_counterexample(a, e) for a, e in cases]
    # some hold, and the last two's least counterexamples move v off U's
    # first element, so the scan must reach a later block to find them
    assert None in expected
    assert expected[-2]["v"] != U.elements[0] and expected[-1]["v"] != U.elements[0]
    # blocks of one assignment, and blocks that fix all but one or two of
    # the five variables over U's nine elements; every node of a block over
    # more than one assignment gathers one entry at a time, or none does
    for chunk, block in itertools.product((1, 2**40), (1, 10, 100)):
        monkeypatch.setattr(finalg, "_CHUNK", chunk)
        monkeypatch.setattr(finalg, "_BLOCK", block)
        for (a, e), cex in zip(cases, expected):
            r = satisfies(a, e)
            assert (bool(r), r.counterexample) == (cex is None, cex), (chunk, block, e)


def test_satisfies_reads_243_elements_through_int32_codes(monkeypatch):
    # 243^2 table entries overflow int16 codes
    p = product(product(U, U), IS3)
    cases = [
        parse("~(x /\\ y) = ~x \\/ ~y"),
        parse("x /\\ (x \\/ y) = x"),
        parse("~~x \\/ (y /\\ ~y) = (~x /\\ x) \\/ (y /\\ ~y)"),
    ]
    expected = []
    for e in cases:
        if all(satisfies(f, e) for f in (U, IS3)):
            expected.append(None)
        else:
            expected.append(_least_counterexample(p, e))
    assert expected[0] is None
    assert expected[1]["y"] != p.elements[0] and expected[2]["x"] != p.elements[0]
    # one block of 243^2 assignments, and blocks of 243 with x fixed
    for chunk, block in itertools.product((1, 2**40, finalg._CHUNK), (1 << 20, 243)):
        monkeypatch.setattr(finalg, "_CHUNK", chunk)
        monkeypatch.setattr(finalg, "_BLOCK", block)
        for e, cex in zip(cases, expected):
            r = satisfies(p, e)
            assert (bool(r), r.counterexample) == (cex is None, cex), (chunk, block, e)


def test_value_matrix_does_not_depend_on_the_gather(monkeypatch):
    # U's rows of 9^3 values gather only at chunk 1; the int16 rows of
    # 243^2 values of the product gather at the default chunk too
    p = product(product(U, U), IS3)
    spaces = [(U, enumerate_terms(5, 3), 3), (p, enumerate_terms(4, 2), 2)]
    default = finalg._CHUNK
    for a, terms, k in spaces:
        mats = []
        for chunk in (1, 2**40, default):
            monkeypatch.setattr(finalg, "_CHUNK", chunk)
            m = value_matrix(a, terms, k)
            mats.append((m.dtype, m.shape, m.tobytes()))
        assert mats[0] == mats[1] == mats[2], a.name


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


@pytest.mark.parametrize("a", [U, IS3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_is_the_iterated_product_with_flat_names(a, k):
    nested = a
    for _ in range(k - 1):
        nested = product(nested, a)
    p = power(a, k)
    assert (p.meet, p.join, p.neg) == (nested.meet, nested.join, nested.neg)
    if k == 1:
        assert p is a
    else:
        assert p.name == f"{a.name}^{k}"
        assert list(p.elements) == [
            "(" + e.replace("(", "").replace(")", "") + ")" for e in nested.elements
        ]


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


# ------------------------------------------ shared builders against plain loops
#
# product, permute, quotient, subalgebra_generated and bilateralise build
# their tables with numpy; each is checked against the loop that states its
# definition, on tables obeying no law at all


def _law_free(data, name, with_neg):
    n = data.draw(st.integers(1, 5))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    neg = data.draw(st.permutations(range(n))) if with_neg else None
    return FiniteAlgebra(name, [f"{name}{i}" for i in range(n)], data.draw(table), data.draw(table), neg)


def _product_loop(a, b):
    na, nb = a.size, b.size

    def pair(i, j):
        return i * nb + j

    meet = [[0] * (na * nb) for _ in range(na * nb)]
    join = [[0] * (na * nb) for _ in range(na * nb)]
    for i, j, k, l in itertools.product(range(na), range(nb), range(na), range(nb)):
        meet[pair(i, j)][pair(k, l)] = pair(a.meet[i][k], b.meet[j][l])
        join[pair(i, j)][pair(k, l)] = pair(a.join[i][k], b.join[j][l])
    neg = None
    if a.neg is not None:
        neg = [pair(a.neg[i], b.neg[j]) for i in range(na) for j in range(nb)]
    names = [f"({p},{q})" for p in a.elements for q in b.elements]
    return FiniteAlgebra(f"{a.name}x{b.name}", names, meet, join, neg)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_matches_loop(data):
    with_neg = data.draw(st.booleans())
    a, b = _law_free(data, "a", with_neg), _law_free(data, "b", with_neg)
    assert algebra_to_json(product(a, b)) == algebra_to_json(_product_loop(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_permute_matches_loop(data):
    a = _law_free(data, "a", data.draw(st.booleans()))
    perm = data.draw(st.permutations(range(a.size)))
    pos = {old: new for new, old in enumerate(perm)}
    n = a.size
    expected = FiniteAlgebra(
        a.name,
        [a.elements[p] for p in perm],
        [[pos[a.meet[perm[x]][perm[y]]] for y in range(n)] for x in range(n)],
        [[pos[a.join[perm[x]][perm[y]]] for y in range(n)] for x in range(n)],
        None if a.neg is None else [pos[a.neg[perm[x]]] for x in range(n)],
    )
    assert algebra_to_json(a.permute([a.elements[p] for p in perm])) == algebra_to_json(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_matches_loop_on_every_congruence(data):
    a = _law_free(data, "a", data.draw(st.booleans()))
    for theta in congruences(a):
        bo = theta.block_of
        reps = [b[0] for b in theta.blocks]
        names = [
            a.elements[b[0]] if len(b) == 1 else "{" + ",".join(a.elements[x] for x in b) + "}"
            for b in theta.blocks
        ]
        expected = FiniteAlgebra(
            f"{a.name}/~",
            names,
            [[bo[a.meet[r][s]] for s in reps] for r in reps],
            [[bo[a.join[r][s]] for s in reps] for r in reps],
            None if a.neg is None else [bo[a.neg[r]] for r in reps],
        )
        assert algebra_to_json(quotient(a, theta)) == algebra_to_json(expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subalgebra_generated_is_least_fixpoint_and_restriction(data):
    a = _law_free(data, "a", data.draw(st.booleans()))
    seed = data.draw(st.sets(st.integers(0, a.size - 1), min_size=1))
    carrier = set(seed)
    while True:
        step = carrier | {a.meet[x][y] for x in carrier for y in carrier}
        step |= {a.join[x][y] for x in carrier for y in carrier}
        if a.neg is not None:
            step |= {a.neg[x] for x in carrier}
        if step == carrier:
            break
        carrier = step
    inc = sorted(carrier)
    pos = {p: i for i, p in enumerate(inc)}
    expected = FiniteAlgebra(
        f"<{a.name}:{len(inc)}>",
        [a.elements[p] for p in inc],
        [[pos[a.meet[p][q]] for q in inc] for p in inc],
        [[pos[a.join[p][q]] for q in inc] for p in inc],
        None if a.neg is None else [pos[a.neg[p]] for p in inc],
    )
    sub, inclusion = subalgebra_generated(a, seed)
    assert inclusion == tuple(inc)
    assert algebra_to_json(sub) == algebra_to_json(expected)


def test_subalgebra_closure_reads_both_argument_orders():
    # 0 /\ 0 = 1 in the first round, then 2 only as 0 /\ 1, with the older
    # element on the left; join is the left projection
    a = FiniteAlgebra(
        "a", "012", [[1, 2, 0], [1, 1, 0], [0, 0, 0]], [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    )
    assert subalgebra_generated(a, [0])[1] == (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bilateralise_matches_four_loops(data):
    a = _law_free(data, "a", False)
    n = a.size

    def pair(i, j):
        return i * n + j

    meet = [[0] * (n * n) for _ in range(n * n)]
    join = [[0] * (n * n) for _ in range(n * n)]
    neg = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            neg[pair(i, j)] = pair(j, i)
            for k in range(n):
                for l in range(n):
                    meet[pair(i, j)][pair(k, l)] = pair(a.meet[i][k], a.join[j][l])
                    join[pair(i, j)][pair(k, l)] = pair(a.join[i][k], a.meet[j][l])
    names = [f"({x},{y})" for x in a.elements for y in a.elements]
    expected = FiniteAlgebra(f"Bl({a.name})", names, meet, join, neg)
    assert algebra_to_json(bilateralise(a)) == algebra_to_json(expected)


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


def _law_free_algebra(data) -> FiniteAlgebra:
    # tables need be neither commutative nor idempotent
    n = data.draw(st.integers(1, 5))
    table = st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n
    )
    neg = data.draw(st.one_of(st.none(), st.permutations(range(n))))
    return FiniteAlgebra("T", [str(i) for i in range(n)], data.draw(table), data.draw(table), neg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_congruences_of_arbitrary_tables_match_oracle(data):
    # no laws at all: tables need be neither commutative nor idempotent, so
    # rows and columns of a table give different constraints
    a = _law_free_algebra(data)
    n = a.size
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


@pytest.mark.parametrize(
    "call",
    [
        lambda p, q: join_partitions(p, q),
        lambda p, q: join_partitions(q, p),
        lambda p, q: meet_partitions(p, q),
        lambda p, q: meet_partitions(q, p),
        lambda p, q: p.refines(q),
        lambda p, q: q.refines(p),
        lambda p, q: si_quotient_flags([q, p]),
    ],
    ids=["join", "join-right", "meet", "meet-right", "refines", "refined-by", "si-flags"],
)
def test_partition_operations_reject_block_ids_out_of_first_occurrence_order(call):
    # (0, 2) would count 3 blocks, (1, 0) would differ from (0, 1), and
    # (0.0, 1.0) compares equal to (0, 1) but does not hold integer ids
    for bad in ((0, 2), (1, 0), (0.0, 1.0)):
        with pytest.raises(ValidationError, match="first occurrence"):
            call(Congruence(bad), Congruence((0, 0)))


def test_si_flags_reject_one_non_canonical_congruence_in_a_full_list():
    cons = congruences(U)
    assert si_quotient_flags(cons) == si_quotient_flags(list(cons))
    mid = len(cons) // 2
    ids = cons[mid].block_of
    assert max(ids) >= 1
    top = max(ids)
    for bad in (
        tuple(top - i for i in ids),  # ids in reverse order
        tuple(2 * i for i in ids),  # ids with gaps
        tuple(-i for i in ids),  # negative ids
        tuple(str(i) for i in ids),  # not integers
    ):
        with pytest.raises(ValidationError, match="first occurrence"):
            si_quotient_flags(cons[:mid] + [Congruence(bad)] + cons[mid + 1 :])


def test_quotient_rejects_block_ids_out_of_first_occurrence_order():
    # (0, 2) is the identity partition with an unused block id 1; (1, 0) is
    # the identity with its ids swapped
    for block_of in ((0, 2), (1, 0)):
        with pytest.raises(ValidationError, match="first occurrence"):
            quotient(IS2, Congruence(block_of))


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


def _digest(congruence_lists) -> str:
    h = hashlib.sha256()
    for cs in congruence_lists:
        h.update(repr([c.block_of for c in cs]).encode())
    return h.hexdigest()


def test_congruences_are_pinned():
    # the ordered congruence lists of the 15 named algebras and of the 952
    # subalgebras of U^2 generated by one or two elements that have at most
    # CONGRUENCE_SIZE_LIMIT elements: any engine must give these lists, in
    # this order
    square = product(U, U)
    subs = {
        subalgebra_generated(square, seed)[1]
        for k in (1, 2)
        for seed in itertools.combinations(range(square.size), k)
    }
    subs = sorted(s for s in subs if len(s) <= finalg.CONGRUENCE_SIZE_LIMIT)
    assert len(subs) == 952
    algebras = [get_algebra(name) for name in known_algebra_names()]
    algebras += [subalgebra_generated(square, s)[0] for s in subs]
    lists = [congruences(a) for a in algebras]
    assert sum(map(len, lists)) == 23335
    assert _digest(lists) == (
        "aaf2ff3b095256d662a2bc3c3c9d73f31ec9e819020f060fc686e22224d0186b"
    )


def test_congruence_engine_is_bounded():
    # IS2^4 has 2480 congruences; the joins run in batches because joining
    # every label row at once takes about 125 MiB here
    a = power(IS2, 4)
    a.arrays()
    tracemalloc.start()
    try:
        cs = congruences(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cs) == 2480
    assert _digest([cs]) == (
        "663d3edbab20a5fe364061f26f06f5da6cf2db69bbb088692b77d6ce5dca1de9"
    )
    assert peak < 8 * 2**20


def test_congruence_count_limit_stops_the_enumeration_early():
    # IS2^5 has 32 elements, inside the size limit, and more congruences
    # than the count limit; without the limit it ran for minutes and took
    # about 0.9 GB
    a = power(IS2, 5)
    a.arrays()
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"{finalg.CONGRUENCE_COUNT_LIMIT} congruences"):
        congruences(a)
    assert time.perf_counter() - start < 2


def test_congruence_count_limit_is_exact(monkeypatch):
    # an algebra with exactly the limit's number of congruences passes
    count = len(congruences(U))
    monkeypatch.setattr(finalg, "CONGRUENCE_COUNT_LIMIT", count)
    assert len(congruences(U)) == count
    monkeypatch.setattr(finalg, "CONGRUENCE_COUNT_LIMIT", count - 1)
    with pytest.raises(ValidationError, match=f"limited to {count - 1} congruences"):
        congruences(U)


def _oracle_partitions(algebra):
    return [Congruence.from_blocks(algebra.size, b) for b in _oracle_congruences(algebra)]


def _oracle_is_si(algebra) -> bool:
    # brute force: the nontrivial compatible partitions have a nontrivial meet
    if algebra.size == 1:
        return True
    meet = None
    for c in _oracle_partitions(algebra):
        if not c.is_identity():
            meet = c if meet is None else meet_partitions(meet, c)
    return meet is not None and not meet.is_identity()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_principal_congruences_and_monolith_match_oracle(data):
    a = _law_free_algebra(data)
    n = a.size
    cons = _oracle_partitions(a)
    for x in range(n):
        for y in range(n):
            least = min((c for c in cons if c.related(x, y)), key=lambda c: -c.num_blocks)
            assert all(least.refines(c) for c in cons if c.related(x, y))
            assert principal_congruence(a, x, y) == least
    nontrivial = [c for c in cons if not c.is_identity()]
    meet = None
    for c in nontrivial:
        meet = c if meet is None else meet_partitions(meet, c)
    expected = None if meet is None or meet.is_identity() else meet
    assert monolith(a) == expected
    assert is_subdirectly_irreducible(a) == _oracle_is_si(a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_si_flags_match_brute_force_on_law_free_tables(data):
    a = _law_free_algebra(data)
    cs = congruences(a)
    assert si_quotient_flags(cs) == [_oracle_is_si(quotient(a, c)) for c in cs]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_operation_congruences_match_oracle(data):
    # the path decomp's tests take: one binary table, no other operation
    n = data.draw(st.integers(1, 5))
    dot = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    got = [tuple(sorted(c.blocks)) for c in congruences_ops(n, [(2, dot)])]
    assert len(got) == len(set(got))
    alone = FiniteAlgebra("dot", [str(i) for i in range(n)], dot, dot)
    assert set(got) == _oracle_congruences(alone)


def test_principal_congruence_and_monolith_share_the_size_limit():
    big = power(IS2, 6)  # 64 elements
    for call in (
        lambda: principal_congruence(big, 0, 1),
        lambda: monolith(big),
        lambda: is_subdirectly_irreducible(big),
    ):
        with pytest.raises(ValidationError, match="limited to 32"):
            call()


def test_power_keeps_names_whole_when_flattening_would_merge_them():
    a = FiniteAlgebra("a", ["(x)", "x"], [[0, 0], [0, 1]], [[0, 1], [1, 1]])
    assert power(a, 2).elements == ("((x),(x))", "((x),x)", "(x,(x))", "(x,x)")
    assert power(a, 3).size == 8


def test_product_and_power_escape_names_only_when_they_collide():
    b = FiniteAlgebra("b", ["a", "a,a"], [[0, 0], [0, 1]], [[0, 1], [1, 1]])
    escaped = ("(a,a)", "(a,a\\,a)", "(a\\,a,a)", "(a\\,a,a\\,a)")
    assert product(b, b).elements == escaped
    assert power(b, 2).elements == escaped
    assert len(set(power(b, 3).elements)) == 8
    c = FiniteAlgebra("c", ["\\", "\\,", ","], [[0] * 3] * 3, [[0] * 3] * 3)
    assert len(set(product(c, c).elements)) == 9
    # names that are distinct unescaped keep their spelling
    assert product(IS2, IS3).elements[0] == f"({IS2.elements[0]},{IS3.elements[0]})"
    assert power(IS3, 2).elements == tuple(
        f"({p},{q})" for p in IS3.elements for q in IS3.elements
    )


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


# ------------------------------------------- theory partitions by term class
#
# theory_partition must label terms exactly as partition_ids labels the rows
# of value_matrix, which evaluates every term on its own


def _labels_or_error(algebra, terms, num_vars, partition):
    try:
        return partition(algebra, terms, num_vars)
    except ValidationError as e:
        return str(e)


def _assert_same_theory(algebra, terms, num_vars=3):
    old = _labels_or_error(
        algebra, terms, num_vars, lambda a, t, k: partition_ids(value_matrix(a, t, k))
    )
    new = _labels_or_error(algebra, terms, num_vars, theory_partition)
    if isinstance(old, str) or isinstance(new, str):
        assert isinstance(old, str) and isinstance(new, str), algebra.name
        assert old == new, algebra.name
    else:
        assert new.dtype == old.dtype == np.int64
        assert np.array_equal(new, old), algebra.name


@pytest.mark.parametrize("name", known_algebra_names())
def test_theory_partition_matches_value_rows_on_named_algebras(name):
    a = get_algebra(name)
    _assert_same_theory(a, enumerate_terms())
    if a.neg is None:
        with pytest.raises(ValidationError, match="no negation"):
            theory_partition(a, enumerate_terms())


TERM_SPACES = [(enumerate_terms(), 3), (enumerate_terms(5, 2), 2), (enumerate_terms(4, 1), 1)]
NEG_FREE_TERMS = [t for t in enumerate_terms(5) if "~" not in str(t)]


@pytest.mark.parametrize(
    "factors",
    [("IS2", "IS3"), ("B2", "K3+"), ("A5", "IS3"), ("DM4", "IS4"), ("D2", "D2xD2")],
)
def test_theory_partition_matches_value_rows_on_small_products(factors):
    a = product(*map(get_algebra, factors))
    assert a.size <= 16
    for terms, k in TERM_SPACES:
        _assert_same_theory(a, terms, k)
    if a.neg is None:
        _assert_same_theory(a, NEG_FREE_TERMS)


def test_theory_partition_accepts_any_term_order():
    # one subterm object under two parents, and parents before children
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    shared = Meet(x1, Neg(x2))
    terms = [Join(shared, x3), Neg(shared), Meet(shared, shared), x1, shared]
    terms += enumerate_terms(5)
    random.Random(3).shuffle(terms)
    for a in (IS3, DM4, U):
        _assert_same_theory(a, terms)


def test_theory_partition_of_no_terms_is_empty():
    out = theory_partition(DM4, [])
    assert out.dtype == np.int64 and out.shape == (0,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_theory_partition_matches_value_rows_on_law_free_tables(data):
    with_neg = data.draw(st.booleans())
    a = _law_free(data, "a", with_neg)
    _assert_same_theory(a, enumerate_terms(5) if with_neg else NEG_FREE_TERMS)


def test_theory_partition_memory_is_bounded(monkeypatch):
    # the value matrix of DM4 x IS4 is 8427 rows of 16^3 int8 values, 34.5
    # MB, and partitioning its rows as bytes copies them once more
    a = product(DM4, IS4)
    enumerate_terms()  # the cached term list is not part of the partition
    monkeypatch.setattr(varieties, "_PARTITIONS", {})
    tracemalloc.start()
    try:
        labels = varieties._theory_partition([a])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.max() + 1 == 235
    assert peak < 16 * 2**20


def test_theory_partition_does_not_depend_on_the_gather_chunk(monkeypatch):
    # a row split into spans with a shorter last one, and the whole code list
    # at once; U's rows are 9^3 values, the product's 243^2
    spaces = [(U, term_index(), 3), (product(product(U, U), IS3), term_index(4, 2), 2)]
    for a, index, k in spaces:
        labels = [theory_partition(a, index, k)]
        for chunk in (100, 2**40):
            monkeypatch.setattr(sweep, "_VALUES", chunk)
            labels.append(theory_partition(a, index, k))
        assert all(np.array_equal(labels[0], x) for x in labels[1:]), a.name


# ---------------------------------------------------------- term space index

SHARED = Meet(Var("x1"), Neg(Var("x2")))


def _shuffled_shared_terms():
    # one subterm object under several parents, and parents before children
    terms = [Join(SHARED, Var("x3")), Neg(SHARED), Meet(SHARED, SHARED), Var("x1"), SHARED]
    terms += enumerate_terms(5)
    random.Random(3).shuffle(terms)
    return terms


def _index_fields(index):
    return [index.op, index.left, index.right, index.var, index.level, index.roots]


def test_term_index_puts_children_before_parents():
    for index in (term_index(), _walk(_shuffled_shared_terms())):
        nodes = np.arange(len(index.op))
        for child in (index.left, index.right):
            has = child >= 0
            assert (child[has] < nodes[has]).all()
            assert (index.level[child[has]] < index.level[has]).all()
        assert ((index.op == VAR) == (index.level == 0)).all()
        assert ((index.op == VAR) == (index.var >= 0)).all()


def test_term_index_visits_a_shared_subterm_once():
    x1, neg_x2 = SHARED.left, SHARED.right
    twin = Meet(x1, Neg(neg_x2.child))  # equal to SHARED, but other objects
    index = _walk([Join(SHARED, SHARED), Neg(SHARED), SHARED, twin])
    # x1, x2, ~x2, SHARED, the join and the negation, then twin's ~x2 and itself
    assert index.op.tolist() == [VAR, VAR, NEG, MEET, JOIN, NEG, NEG, MEET]
    assert index.roots.tolist() == [4, 5, 3, 7]
    assert index.left.tolist() == [-1, -1, 1, 0, 3, 3, 1, 0]
    assert index.right.tolist() == [-1, -1, -1, 2, 3, -1, -1, 6]
    assert index.level.tolist() == [0, 0, 1, 2, 3, 3, 1, 2]
    assert index.names == ("x1", "x2")


@pytest.mark.parametrize("space", [(7, 3), (5, 2), (4, 1)])
def test_cached_index_equals_a_walk_of_the_enumeration(space):
    cached, walked = term_index(*space), _walk(enumerate_terms(*space))
    assert cached is term_index(*space)
    assert cached.names == walked.names
    for got, want in zip(_index_fields(cached), _index_fields(walked)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _signature_oracle(term):
    sets = polarities(term)
    return tuple(
        sum(1 << (int(v[1:]) - 1) for v in vs) for vs in (sets.plain, sets.positive, sets.negative)
    )


def test_signatures_match_the_polarities_of_each_term():
    terms = enumerate_terms()
    expected = [_signature_oracle(t) for t in terms]
    assert signatures(term_index()) == signatures(terms) == expected
    shuffled = _shuffled_shared_terms() + [Neg(Meet(Var("x70"), Neg(Var("x1"))))]
    assert signatures(shuffled) == [_signature_oracle(t) for t in shuffled]


def test_theory_partition_raises_the_first_error_of_value_matrix():
    # value_matrix checks a ~ before its argument, a variable when it gets there
    y, x1 = Var("y"), Var("x1")
    cases = [[y, Neg(x1)], [Neg(x1), y], [Neg(y)], [Meet(y, Neg(x1))], [Meet(Neg(x1), y)]]
    for terms in cases:
        for a in (D2, DM4):
            _assert_same_theory(a, terms)
    with pytest.raises(ValidationError, match="no assignment for variable 'y'"):
        theory_partition(D2, cases[0])
    with pytest.raises(ValidationError, match="no negation"):
        theory_partition(D2, cases[2])


def test_sweeps_of_the_enumerated_index_make_no_call_per_term():
    index = term_index()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    for sweep_once in (lambda: theory_partition(U, index), lambda: signatures(index)):
        calls = 0
        sys.setprofile(count)
        try:
            sweep_once()
        finally:
            sys.setprofile(None)
        assert calls < len(index.roots) // 8


def test_importing_the_cli_builds_no_term_index():
    code = (
        "import dmbl.cli, dmbl.sweep as s; "
        "print(s._enumerated_index.cache_info().currsize, s._enumerated_terms.cache_info().currsize)"
    )
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0"]


# ------------------------------------------------- label partition comparisons
#
# the loops the array versions replaced, kept as oracles


def _refines_loop(p, q):
    seen = {}
    for a, b in zip(p.tolist(), q.tolist()):
        if seen.setdefault(a, b) != b:
            return False
    return True


def _first_violation_loop(p, q):
    first, rep = {}, {}
    for i, (a, b) in enumerate(zip(p.tolist(), q.tolist())):
        if a in first:
            if first[a] != b:
                return rep[a], i
        else:
            first[a], rep[a] = b, i
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_comparisons_match_the_loops(data):
    n = data.draw(st.integers(0, 30))
    labels = st.lists(st.integers(-3, 4), min_size=n, max_size=n)
    p = np.array(data.draw(labels), dtype=np.int64)
    # q coarsens p sometimes, so that both verdicts occur
    if data.draw(st.booleans()):
        q = np.array([abs(x) % 3 for x in p.tolist()], dtype=np.int64)
    else:
        q = np.array(data.draw(labels), dtype=np.int64)
    q = q[: data.draw(st.integers(0, n))] if data.draw(st.booleans()) else q
    for x, y in ((p, q), (q, p)):
        assert refines(x, y) is _refines_loop(x, y)
        assert first_violation(x, y) == _first_violation_loop(x, y)
        got = first_violation(x, y)
        assert got is None or all(type(i) is int for i in got)
    assert same_partition(p, q) is (_refines_loop(p, q) and _refines_loop(q, p))
