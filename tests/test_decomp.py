"""Tests for the band reduct, Green's preorders, the D-class decomposition,
and the placement of the index semilattice."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmbl import decomp as decomp_module
from dmbl import finalg as finalg_module
from dmbl.catalog import build_basics, catalog_entries, dagger, get_algebra
from dmbl.decomp import (
    Band,
    GreenData,
    band_of,
    check_ailnb,
    decompose,
    greens,
    index_subvariety,
)
from dmbl.finalg import (
    FiniteAlgebra,
    ValidationError,
    congruences_ops,
    is_class,
    is_isomorphic,
    product,
    satisfies,
)
from dmbl.sums import dpl_sum, random_system, system_to_json, validate
from dmbl.terms import parse, variables


BASICS = build_basics()


# ----------------------------------------------------------------------- Band


def test_band_construction_rejects_non_band():
    with pytest.raises(ValidationError, match="idempotent"):
        Band(2, ((1, 1), (1, 1)))
    with pytest.raises(ValidationError, match="associative"):
        # x*y = x+y mod 3 is not associative with idempotence fixed up
        Band(3, ((0, 2, 1), (2, 1, 0), (1, 0, 2)))
    with pytest.raises(ValidationError, match="bijection"):
        Band(2, ((0, 0), (0, 1)), neg=(0, 0))


def test_band_of_examples():
    b = band_of(BASICS["IS2"])
    assert b.dot == BASICS["IS2"].join
    for name in ("B2", "K3", "DM4", "IS1"):
        a = BASICS[name]
        b = band_of(a)
        assert all(
            b.dot[x][y] == x for x in range(a.size) for y in range(a.size)
        ), f"{name} should give a left-zero band"
    with pytest.raises(ValidationError):
        band_of(BASICS["D2"])  # no negation, not a De Morgan bisemilattice


# --------------------------------------------------------------------- greens


def test_a5_d_classes():
    a5 = get_algebra("A5")
    g = greens(band_of(a5))
    names = [[a5.elements[i] for i in c] for c in g.d_classes]
    assert names == [["a", "b"], ["na", "nb"], ["u"]]


def _d_classes_by_loop(band):
    # the D-classes as a loop finds them: in the order of least elements, the
    # elements a <=D x <=D a of each element a not yet in a class
    n, d = band.size, band.dot
    leqD = [[d[d[a][b]][a] == a for b in range(n)] for a in range(n)]
    block_of = [-1] * n
    classes = []
    for a in range(n):
        if block_of[a] != -1:
            continue
        cls = [x for x in range(n) if leqD[a][x] and leqD[x][a]]
        for x in cls:
            block_of[x] = len(classes)
        classes.append(tuple(cls))
    return tuple(classes)


def _preorders_by_loop(band):
    # leqL, leqR, leqD and leqH one pair at a time
    n, d = band.size, band.dot
    leqL = tuple(tuple(d[a][b] == a for b in range(n)) for a in range(n))
    leqR = tuple(tuple(d[b][a] == a for b in range(n)) for a in range(n))
    leqD = tuple(tuple(d[d[a][b]][a] == a for b in range(n)) for a in range(n))
    leqH = tuple(tuple(leqL[a][b] and leqR[a][b] for b in range(n)) for a in range(n))
    return leqL, leqR, leqD, leqH


@pytest.mark.parametrize("name", [e.name for e in catalog_entries()] + ["U"])
def test_d_classes_match_the_loop_on_catalog(name):
    band = band_of(get_algebra(name))
    assert greens(band).d_classes == _d_classes_by_loop(band)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_d_classes_match_the_loop_on_random_sums(seed):
    band = band_of(dpl_sum(random_system(random.Random(seed))))
    assert greens(band).d_classes == _d_classes_by_loop(band)


def _preorders_of(band):
    g = greens(band)
    return g.leqL, g.leqR, g.leqD, g.leqH


@pytest.mark.parametrize("name", [e.name for e in catalog_entries()] + ["U"])
def test_preorders_match_the_loop_on_catalog(name):
    band = band_of(get_algebra(name))
    assert _preorders_of(band) == _preorders_by_loop(band)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_preorders_match_the_loop_on_random_sums(seed):
    band = band_of(dpl_sum(random_system(random.Random(seed))))
    assert _preorders_of(band) == _preorders_by_loop(band)


def test_left_normal_bands_have_leqL_equal_leqD():
    for e in catalog_entries():
        g = greens(band_of(e.algebra))
        assert g.leqL == g.leqD, e.name


def test_leqH_is_intersection():
    g = greens(band_of(get_algebra("U")))
    n = len(g.leqL)
    for a in range(n):
        for b in range(n):
            assert g.leqH[a][b] == (g.leqL[a][b] and g.leqR[a][b])


def test_green_data_json_shape():
    g = greens(band_of(BASICS["IS2"]))
    blob = g.to_json()
    assert set(blob) == {"leqL", "leqR", "leqD", "leqH", "dClasses"}
    assert blob["dClasses"] == [[0], [1]]


def _labelled_bands(n):
    # every idempotent, associative table on range(n): the off-diagonal cells
    # filled in row order, a value kept only while no triple whose products
    # are all filled in fails associativity
    table = [[x if x == y else None for y in range(n)] for x in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n) if x != y]

    def associative():
        for x, y, z in itertools.product(range(n), repeat=3):
            xy, yz = table[x][y], table[y][z]
            if xy is None or yz is None:
                continue
            left, right = table[xy][z], table[x][yz]
            if left is not None and right is not None and left != right:
                return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, table))
            return
        x, y = cells[k]
        for v in range(n):
            table[x][y] = v
            if associative():
                yield from fill(k + 1)
        table[x][y] = None

    return list(fill(0))


def _assert_green_theorems(band):
    # the relations are the loop's, and the facts greens does not check hold:
    # the band laws make leqL, leqR and leqD preorders, leqH antisymmetric and
    # D a congruence of the table
    g = greens(band)
    assert _preorders_of(band) == _preorders_by_loop(band)
    assert g.d_classes == _d_classes_by_loop(band)
    n, d = band.size, band.table
    for name, rel in (("L", g.leqL), ("R", g.leqR), ("D", g.leqD)):
        r = np.array(rel)
        assert r.diagonal().all(), f"leq{name} not reflexive"
        through = r.astype(np.int64) @ r.astype(np.int64) > 0
        assert not (through & ~r).any(), f"leq{name} not transitive"
    h = np.array(g.leqH)
    assert not (h & h.T & ~np.eye(n, dtype=bool)).any(), "leqH not antisymmetric"
    block_of = np.empty(n, dtype=np.int64)
    for b, cls in enumerate(g.d_classes):
        block_of[list(cls)] = b
    image = block_of[d]
    for cls in g.d_classes:
        assert (image[list(cls)] == image[cls[0]]).all(), "D not a left congruence"
        assert (image[:, list(cls)] == image[:, [cls[0]]]).all(), "D not a right congruence"


def test_green_theorems_hold_on_every_band_of_order_at_most_4():
    bands = {n: _labelled_bands(n) for n in range(1, 5)}
    assert [len(bands[n]) for n in range(1, 5)] == [1, 4, 35, 604]
    for n, tables in bands.items():
        for table in tables:
            _assert_green_theorems(Band(n, table))


@pytest.mark.parametrize(
    "name", [e.name for e in catalog_entries()] + ["U", "UxU", "UxIS2", "A5xA5"]
)
def test_green_theorems_hold_on_catalog_and_products(name):
    algebra = _permuted_products()[name] if "x" in name else get_algebra(name)
    _assert_green_theorems(band_of(algebra))


def test_greens_rejects_an_involution_that_breaks_the_d_classes():
    # D-classes {0, 2} and {1}; the involution sends 2 to 1
    band = Band(3, ((0, 0, 0), (0, 1, 0), (2, 2, 2)), neg=(0, 2, 1))
    with pytest.raises(ValidationError, match="D-classes not a congruence of the band"):
        greens(band)


# ---------------------------------------------------------------- check_ailnb


def test_check_ailnb_clean_on_catalog():
    for e in catalog_entries():
        assert check_ailnb(e.algebra) == [], e.name


def test_check_ailnb_reports_non_idempotent_dot():
    a = FiniteAlgebra("bad", ("0", "1"), ((1, 1), (1, 1)), ((0, 1), (1, 1)),
                      neg=(0, 1))
    msgs = check_ailnb(a)
    assert any("idempotent" in m for m in msgs)


def test_check_ailnb_reports_right_zero_band():
    # meet and join both the right projection: dot[x][y] = y, a right-zero
    # band, which is not left-normal
    proj2 = ((0, 1), (0, 1))
    a = FiniteAlgebra("rz", ("0", "1"), proj2, proj2, neg=(0, 1))
    msgs = check_ailnb(a)
    assert any("left-normal" in m for m in msgs)


def test_check_ailnb_reports_missing_negation():
    msgs = check_ailnb(BASICS["D2"])
    assert any("no negation" in m for m in msgs)


def test_check_ailnb_reports_broken_involution():
    # an involution that tears the D-classes apart (b <-> u) cannot commute
    # with the band operation
    a5 = get_algebra("A5")
    broken = FiniteAlgebra("x", a5.elements, a5.meet, a5.join,
                           neg=(2, 4, 0, 3, 1))
    msgs = check_ailnb(broken)
    assert any("a-involutive" in m for m in msgs)


def _ailnb_oracle(A):
    # the band conditions one tuple at a time, each law reporting its least
    # failing tuple in lexicographic order
    n, meet, join, neg, names = A.size, A.meet, A.join, A.neg, A.elements

    def dot(x, y):
        return meet[x][join[x][y]]

    def least(label, arity, holds):
        for t in itertools.product(range(n), repeat=arity):
            if not holds(*t):
                w = ",".join(names[v] for v in t)
                return [f"{label} {w}" if arity == 1 else f"{label} ({w})"]
        return []

    out = least("dot not idempotent at", 1, lambda x: dot(x, x) == x)
    out += least(
        "dot not associative at", 3,
        lambda x, y, z: dot(dot(x, y), z) == dot(x, dot(y, z)),
    )
    if out:
        return out
    out += least(
        "not left-normal: x.y.z != x.z.y at", 3,
        lambda x, y, z: dot(dot(x, y), z) == dot(dot(x, z), y),
    )
    if neg is None:
        return out + ["algebra has no negation"]
    out += least("negation not involutive at", 1, lambda x: neg[neg[x]] == x)
    out += least(
        "not a-involutive: ~(x.y) != ~x.~y at", 2,
        lambda x, y: neg[dot(x, y)] == dot(neg[x], neg[y]),
    )
    for g_name, g in (("/\\", meet), ("\\/", join)):
        out += least(
            f"compatibility a.g(b1,b2) fails for {g_name} at", 3,
            lambda a, b1, b2: dot(a, g[b1][b2]) == dot(dot(a, b1), b2),
        )
        out += least(
            f"compatibility g(b1,b2).a fails for {g_name} at", 3,
            lambda a, b1, b2: dot(g[b1][b2], a) == g[dot(b1, a)][dot(b2, a)],
        )
    return out


_SMALL = [e.algebra for e in catalog_entries() if e.algebra.size <= 4]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_ailnb_matches_loop_oracle(data):
    # law-free tables (the right projection makes x.y = y, a band that is not
    # left-normal), or a small catalog algebra with one entry changed, so that
    # the band passes and the later laws are reached
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        cell = st.integers(0, n - 1)
        table = st.one_of(
            st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n),
            st.just([list(range(n))] * n),
        )
        meet, join = data.draw(table), data.draw(table)
        neg = data.draw(st.one_of(st.none(), st.permutations(range(n))))
    else:
        base = data.draw(st.sampled_from(_SMALL))
        n = base.size
        meet, join = [list(r) for r in base.meet], [list(r) for r in base.join]
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        data.draw(st.sampled_from([meet, join]))[x][y] = v
        neg = data.draw(st.sampled_from([base.neg, None, *itertools.permutations(range(n))]))
    A = FiniteAlgebra("T", [f"e{i}" for i in range(n)], meet, join, neg)
    assert check_ailnb(A) == _ailnb_oracle(A)


def test_swapping_within_a_class_is_still_a_valid_band():
    # by contrast, an involution that merely relabels inside a D-class keeps
    # every band condition intact (it breaks nothing the band can see)
    a5 = get_algebra("A5")
    relabeled = FiniteAlgebra("x", a5.elements, a5.meet, a5.join,
                              neg=(1, 0, 2, 3, 4))
    assert check_ailnb(relabeled) == []


_AILNB_LAWS = (*decomp_module._BAND_LAWS, *decomp_module._LEFT_NORMAL_LAWS, *decomp_module._NEG_LAWS)


@pytest.mark.parametrize("law", [law for _, law in _AILNB_LAWS], ids=[label for label, _ in _AILNB_LAWS])
def test_check_ailnb_laws_are_theorems_of_the_class(law):
    # a regular identity that holds in De Morgan lattices holds in their
    # regularisation, the De Morgan bisemilattices (Plonka 1967); U generates
    # that variety, so holding in U alone makes the law one of its theorems,
    # which is why decompose and band_of take the class verdict instead
    assert variables(law.lhs) == variables(law.rhs)
    lattices = [e.algebra for e in catalog_entries() if is_class(e.algebra, "De Morgan lattice")]
    assert {a.name for a in lattices} >= {"B2", "K3", "DM4"}
    for algebra in [*lattices, get_algebra("U")]:
        assert satisfies(algebra, law), algebra.name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(["sum", "product", "permuted"]))
def test_a_de_morgan_bisemilattice_passes_check_ailnb(seed, other, shape):
    A = dpl_sum(random_system(random.Random(seed)))
    if shape == "product":
        A = product(A, dpl_sum(random_system(random.Random(other))))
    elif shape == "permuted":
        order = list(A.elements)
        random.Random(other).shuffle(order)
        A = A.permute(order)
    assert is_class(A, "De Morgan bisemilattice")
    assert check_ailnb(A) == []


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([e.name for e in catalog_entries()]),
    st.sampled_from(["sum", "product"]),
    st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_decompose_gives_a_valid_system_on_random_sums(seed, name, shape, permutation):
    # decompose does not validate its system, which is valid by the
    # representation theorem: certified here on sums, their products with a
    # catalog algebra, and seeded permutations of both
    A = dpl_sum(random_system(random.Random(seed)))
    if shape == "product":
        A = product(A, get_algebra(name))
    if permutation is not None:
        A = _permuted(A, permutation)
    assert validate(decompose(A)) == []


# the algebras of the `sums` benchmark workload, 9 to 81 elements
_SUM_SHAPES = (
    ("U",), ("DM4", "K3"), ("A5", "IS3"), ("U", "IS2"), ("DM4+", "K3+"), ("DM4+", "DM4+"),
    ("A5", "A5"), ("U", "K3+"), ("K3+", "IS3", "IS3"), ("U", "A5"), ("DM4+", "IS3", "IS3"),
    ("U", "DM4", "IS2"), ("U", "U"),
)


@pytest.mark.parametrize(
    "names", [(e.name,) for e in catalog_entries()] + list(_SUM_SHAPES), ids="x".join
)
def test_decompose_gives_a_valid_system_on_the_catalog_and_its_products(names):
    A = get_algebra(names[0])
    for name in names[1:]:
        A = product(A, get_algebra(name))
    assert validate(decompose(_permuted(A, len(names)))) == []


def test_decompose_refusals_are_pinned():
    a5 = get_algebra("A5")
    proj2 = ((0, 1), (0, 1))
    cases = [
        (BASICS["D2"], "D2 is not decomposable:\n  - algebra has no negation"),
        (
            FiniteAlgebra("bad", ("0", "1"), ((1, 1), (1, 1)), ((0, 1), (1, 1)), neg=(0, 1)),
            "bad is not decomposable:\n  - dot not idempotent at 0",
        ),
        (
            FiniteAlgebra("rz", ("0", "1"), proj2, proj2, neg=(0, 1)),
            "rz is not decomposable:\n  - not left-normal: x.y.z != x.z.y at (0,0,1)",
        ),
        (
            FiniteAlgebra("x", a5.elements, a5.meet, a5.join, neg=(2, 4, 0, 3, 1)),
            "x is not decomposable:\n  - not a-involutive: ~(x.y) != ~x.~y at (a,b)",
        ),
        # every band law holds, yet the negation breaks the De Morgan laws
        (
            FiniteAlgebra("y", a5.elements, a5.meet, a5.join, neg=(1, 0, 2, 3, 4)),
            "y is not a De Morgan bisemilattice",
        ),
    ]
    for algebra, message in cases:
        with pytest.raises(ValidationError) as err:
            decompose(algebra)
        assert str(err.value) == message


_MUTABLE = [e.algebra for e in catalog_entries() if e.algebra.size > 1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decompose_refuses_a_mutated_algebra_by_the_rule(data):
    # one entry of meet or join changed, or two images of the negation
    # swapped; the refusal is check_ailnb's list when it has one, otherwise
    # the class alone, and an algebra still in the class passes check_ailnb
    base = data.draw(st.sampled_from(_MUTABLE))
    n = base.size
    meet, join, neg = [list(r) for r in base.meet], [list(r) for r in base.join], list(base.neg)
    x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if data.draw(st.booleans()):
        data.draw(st.sampled_from([meet, join]))[x][y] = v
    else:
        neg[x], neg[y] = neg[y], neg[x]
    A = FiniteAlgebra("T", base.elements, meet, join, neg)
    try:
        decompose(A)
        got = None
    except ValidationError as err:
        got = str(err)
    problems = check_ailnb(A)
    if is_class(A, "De Morgan bisemilattice"):
        assert problems == [] and got is None
    elif problems:
        assert got == "T is not decomposable:\n  - " + "\n  - ".join(problems)
    else:
        assert got == "T is not a De Morgan bisemilattice"


# ------------------------------------------------------------------ decompose


def _maps_by_loop(algebra, classes):
    # the transitions and dualisers over the partition `classes`, read off the
    # band one element at a time, or the message of the first failure; the
    # index order is the band's on the least elements of the classes
    band = band_of(algebra)
    names = algebra.elements
    block_of, pos_in_class = {}, {}
    for b, cls in enumerate(classes):
        for p, x in enumerate(cls):
            block_of[x], pos_in_class[x] = b, p
    key_of = [names[cls[0]] for cls in classes]
    transitions = {}
    for i in range(len(classes)):
        for j in range(len(classes)):
            if block_of[band.dot[classes[i][0]][classes[j][0]]] != j:
                continue
            table = []
            for x in classes[i]:
                images = {band.dot[x][b] for b in classes[j]}
                if len(images) != 1:
                    return f"transition {key_of[i]} -> {key_of[j]} not well-defined at {names[x]}"
                img = images.pop()
                if block_of[img] != j:
                    return f"transition {key_of[i]} -> {key_of[j]} leaves the target class"
                table.append(pos_in_class[img])
            transitions[(key_of[i], key_of[j])] = tuple(table)
    dualisers = {}
    for i in range(len(classes)):
        table = []
        for x in classes[i]:
            img = band.neg[x]
            if block_of[img] != block_of[band.neg[classes[i][0]]]:
                return f"negation of {names[x]} leaves class ~{key_of[i]}"
            table.append(pos_in_class[img])
        dualisers[key_of[i]] = tuple(table)
    return list(transitions.items()), list(dualisers.items())


def _permuted(algebra, seed):
    order = list(range(algebra.size))
    random.Random(seed).shuffle(order)
    return algebra.permute(order)


def _permuted_products():
    u, a5 = get_algebra("U"), get_algebra("A5")
    return {
        "UxU": _permuted(product(u, u), 11),
        "UxIS2": _permuted(product(u, BASICS["IS2"]), 12),
        "A5xA5": _permuted(product(a5, a5), 13),
    }


@pytest.mark.parametrize(
    "name", [e.name for e in catalog_entries()] + ["U", "UxU", "UxIS2", "A5xA5"]
)
def test_decompose_matches_the_loop_oracle(name):
    algebra = _permuted_products()[name] if "x" in name else get_algebra(name)
    system = decompose(algebra)
    transitions, dualisers = _maps_by_loop(algebra, greens(band_of(algebra)).d_classes)
    loop = dataclasses.replace(system, transitions=dict(transitions), dualisers=dict(dualisers))
    assert system_to_json(system) == system_to_json(loop)
    assert (list(system.transitions.items()), list(system.dualisers.items())) == (
        transitions, dualisers
    )


def _maps_on(algebra, classes):
    # decompose's maps, or the message it raises, with `classes` handed in
    # as the D-classes
    with pytest.MonkeyPatch.context() as mp:
        green = GreenData(None, None, None, None, classes)
        mp.setattr(decomp_module, "greens", lambda band: green)
        try:
            system = decompose(algebra)
        except ValidationError as exc:
            return str(exc)
    return list(system.transitions.items()), list(system.dualisers.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decompose_reads_the_maps_like_the_loop_on_any_partition(data):
    # valid input always gives well-defined maps, so the failures are reached
    # by handing decompose a drawn partition in place of the D-classes; its
    # first failure must be the loop's, and without one its maps must be
    algebras = [e.algebra for e in catalog_entries()] + [get_algebra("U")]
    algebra = data.draw(st.sampled_from(algebras))
    label = st.integers(0, data.draw(st.integers(0, algebra.size - 1)))
    labels = data.draw(st.lists(label, min_size=algebra.size, max_size=algebra.size))
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    classes = tuple(map(tuple, blocks.values()))
    got = _maps_on(algebra, classes)
    # the index and the fibres are built first, and may be refused first
    if not isinstance(got, str) or got.startswith(("transition", "negation of")):
        assert got == _maps_by_loop(algebra, classes)


@pytest.mark.parametrize(
    "classes", [((0, 1, 2, 3), (4,), (5, 7, 8), (6,)), ((0, 1, 2, 3), (4,), (5, 8), (6,), (7,))]
)
def test_decompose_reports_a_map_that_leaves_its_class_like_the_loop(classes):
    # partitions of U where p[i->j] is well-defined but lands outside F(j)
    u = get_algebra("U")
    got = _maps_on(u, classes)
    message = "transition (i,(0,0)) -> (j,0) leaves the target class"
    assert got == _maps_by_loop(u, classes) == message


def test_decompose_a5():
    s = decompose(get_algebra("A5"))
    assert is_isomorphic(s.index, BASICS["IS3"]) is not None
    assert sorted(f.size for f in s.fibres.values()) == [1, 2, 2]


def test_decompose_b2_and_dm4_have_trivial_index():
    for name in ("B2", "DM4"):
        s = decompose(BASICS[name])
        assert s.index.size == 1
        assert is_isomorphic(s.index, BASICS["IS1"]) is not None


def test_decompose_dagger_dm4():
    s = decompose(dagger(BASICS["DM4"]))
    assert is_isomorphic(s.index, BASICS["IS2"]) is not None
    assert sorted(f.size for f in s.fibres.values()) == [1, 4]


def test_decompose_u():
    s = decompose(get_algebra("U"))
    assert is_isomorphic(s.index, BASICS["IS4"]) is not None
    assert sorted(f.size for f in s.fibres.values()) == [1, 2, 2, 4]


def test_decompose_rejects_neg_free_algebra():
    with pytest.raises(ValidationError):
        decompose(BASICS["D2"])


@pytest.mark.parametrize("name", [e.name for e in catalog_entries()])
def test_decompose_round_trip_on_catalog(name):
    a = get_algebra(name)
    back = dpl_sum(decompose(a))
    assert is_isomorphic(back, a) is not None


@pytest.mark.parametrize("seed", range(15))
def test_decompose_round_trip_on_random_sums(seed):
    sys_ = random_system(random.Random(7000 + seed))
    s = dpl_sum(sys_)
    assert check_ailnb(s) == []
    got = decompose(s)
    assert is_isomorphic(got.index, sys_.index) is not None
    # fibres are exactly the (i, _) name groups of the sum
    expected_partition = {}
    for name in s.elements:
        key = name[1:-1].split(",", 1)[0]
        expected_partition.setdefault(key, set()).add(name)
    got_partition = {frozenset(f.elements) for f in got.fibres.values()}
    assert got_partition == {frozenset(v) for v in expected_partition.values()}
    assert is_isomorphic(dpl_sum(got), s) is not None


# ------------------------------------------------------------ index placement


def test_index_subvariety_examples():
    assert index_subvariety(get_algebra("DM4+")) == "RISL"
    assert index_subvariety(get_algebra("A5")) == "BISL"
    assert index_subvariety(get_algebra("U")) == "ISL"
    assert index_subvariety(get_algebra("DM4")) == "T"
    assert index_subvariety(get_algebra("IS4")) == "ISL"
    assert index_subvariety(get_algebra("IS2")) == "RISL"
    assert index_subvariety(get_algebra("IS3")) == "BISL"


def test_index_subvariety_checks_each_condition_once(monkeypatch):
    calls = collections.Counter()
    for name in ("check_ailnb", "band_of", "greens"):
        def counted(*args, _f=getattr(decomp_module, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(decomp_module, name, counted)
    assert index_subvariety(get_algebra("U")) == "ISL"
    # U is a De Morgan bisemilattice, so check_ailnb, which only explains a
    # refusal, is never called, and its system is valid by the representation
    # theorem, so decompose does not validate it
    assert calls == {"band_of": 1, "greens": 1}


def test_decompose_checks_the_band_laws_once(monkeypatch):
    # the class verdict is the one check of the band laws, which are its
    # theorems: no law of x.y goes through `satisfies`; U is copied before
    # counting, because building the catalog reads U's class and an algebra
    # keeps the verdict once read; `is_class` runs each class's axioms as one
    # scan, without calling `satisfies`; the one scan is U's class: the
    # index's and the fibres' classes are `validate`'s, which decompose does
    # not run
    u = get_algebra("U").rename("U")
    calls = collections.Counter()
    scan = finalg_module._scan

    def counted(algebra, identity):
        calls["satisfies"] += 1
        return satisfies(algebra, identity)

    def scanned(algebra, prog):
        calls["scans"] += 1
        return scan(algebra, prog)

    monkeypatch.setattr(decomp_module, "satisfies", counted)
    monkeypatch.setattr(finalg_module, "_scan", scanned)
    decompose(u)
    assert calls == {"scans": 1}


def _band_lemma_flags(a):
    band = band_of(a)
    n, d, neg = band.size, band.dot, band.neg

    def dd(*chain):
        acc = chain[0]
        for v in chain[1:]:
            acc = d[acc][v]
        return acc

    risl = all(dd(x, neg[x]) == x for x in range(n))
    bisl = all(
        dd(x, neg[x]) == dd(x, neg[x], y) for x in range(n) for y in range(n)
    )
    rbisl = all(
        dd(x, neg[x], y) == dd(x, neg[x], neg[y])
        for x in range(n)
        for y in range(n)
    )
    return risl, bisl, rbisl


@pytest.mark.parametrize(
    "algebra_name",
    [e.name for e in catalog_entries()] + ["U"],
)
def test_band_lemmas_match_index_axioms(algebra_name):
    a = get_algebra(algebra_name)
    risl, bisl, rbisl = _band_lemma_flags(a)
    idx = decompose(a).index
    assert risl == bool(satisfies(idx, parse("x = ~x")))
    assert bisl == bool(satisfies(idx, parse("x \\/ ~x = (x \\/ ~x) \\/ y")))
    assert rbisl == bool(
        satisfies(idx, parse("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"))
    )


@pytest.mark.parametrize("seed", range(10))
def test_band_lemmas_match_index_axioms_on_random_sums(seed):
    s = dpl_sum(random_system(random.Random(8800 + seed)))
    risl, bisl, rbisl = _band_lemma_flags(s)
    idx = decompose(s).index
    assert risl == bool(satisfies(idx, parse("x = ~x")))
    assert bisl == bool(satisfies(idx, parse("x \\/ ~x = (x \\/ ~x) \\/ y")))
    assert rbisl == bool(
        satisfies(idx, parse("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"))
    )
    # and the classifier runs its own cross-check without raising
    index_subvariety(s)


# ----------------------------------------------------- Clifford-McLean at desk


@pytest.mark.parametrize(
    "algebra_name", [e.name for e in catalog_entries() if e.algebra.size <= 8]
)
def test_d_is_least_congruence_with_semilattice_quotient(algebra_name):
    a = get_algebra(algebra_name)
    band = band_of(a)
    g = greens(band)
    n = band.size
    block_of = [0] * n
    for b, cls in enumerate(g.d_classes):
        for x in cls:
            block_of[x] = b

    def is_semilattice(op):
        m = len(op)
        return all(
            op[x][x] == x and op[x][y] == op[y][x] and op[op[x][y]][z] == op[x][op[y][z]]
            for x in range(m)
            for y in range(m)
            for z in range(m)
        )

    # A/D itself is a semilattice...
    reps = [cls[0] for cls in g.d_classes]
    qop = [
        [block_of[band.dot[x][y]] for y in reps] for x in reps
    ]
    assert is_semilattice(qop)

    # ...and D refines every congruence of the band with semilattice quotient
    for blocks in congruences_ops(n, [(2, band.dot)]):
        bo = [0] * n
        for i, blk in enumerate(blocks.blocks):
            for x in blk:
                bo[x] = i
        reps_t = [blk[0] for blk in blocks.blocks]
        qop_t = [[bo[band.dot[x][y]] for y in reps_t] for x in reps_t]
        if not is_semilattice(qop_t):
            continue
        for cls in g.d_classes:
            assert len({bo[x] for x in cls}) == 1
