"""Tests for finite-algebra machinery: evaluation, satisfaction, congruences,
quotients, isomorphism, duals, class predicates, JSON round trips.

The congruence enumerator is checked against a from-scratch oracle that walks
every set partition and keeps the compatible ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

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
    is_class,
    is_congruence,
    is_isomorphic,
    is_subdirectly_irreducible,
    join_partitions,
    load_algebra,
    meet_partitions,
    power,
    principal_congruence,
    product,
    quotient,
    satisfies,
    save_algebra,
    si_quotient_flags,
    subalgebra_generated,
)
from dmbl.finalg import _JOIN, _MEET, _NEG, _VAR
from dmbl.decomp import decompose
from dmbl.sums import bilateralise, system_to_json
from dmbl.sweep import (
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
from oracles import eval_term


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


def _oracle_tables(n, meet, join, neg):
    # the constructor's checks as they were, entry by entry over tuples:
    # the (meet, join, neg) tuples an algebra of n elements holds, or the
    # ValidationError it raises
    def check_table(tbl, label):
        try:
            tbl = tuple(tuple(map(operator.index, row)) for row in tbl)
        except TypeError:
            raise ValidationError(f"{label} table must hold integer entries") from None
        if len(tbl) != n or any(len(row) != n for row in tbl):
            raise ValidationError(f"{label} table must be {n}x{n}")
        seen = set().union(*tbl)
        if min(seen) < 0 or max(seen) >= n:
            v = next(v for row in tbl for v in row if not 0 <= v < n)
            raise ValidationError(f"{label} table entry {v} out of range [0,{n})")
        return tbl

    meet, join = check_table(meet, "meet"), check_table(join, "join")
    if neg is not None:
        try:
            neg = tuple(map(operator.index, neg))
        except TypeError:
            raise ValidationError("neg table must hold integer entries") from None
        if len(neg) != n:
            raise ValidationError(f"neg table must have length {n}")
        if any(not 0 <= v < n for v in neg):
            raise ValidationError("neg table entry out of range")
        if len(set(neg)) != n:
            raise ValidationError("neg table must be a bijection")
    return meet, join, neg


# values an entry, a row or a whole table may be replaced by: integers out
# of range, and each other kind of value operator.index accepts or refuses
_ODD_ENTRIES = st.sampled_from([
    -1, 3, 0.5, 1.0, "a", "", None, [], [0], 2**70, -(2**70), 2**63,
    True, np.int64(5), np.True_, np.float64(1),
])
_NOT_ROWS = st.sampled_from([5, None, "ab", "", 0.5, np.int64(1)])


def _draw_table(data, n, square):
    # a valid table of n elements (n x n, or a permutation for neg) as nested
    # lists of Python, bool and numpy integers, with 0-2 faults: an entry
    # replaced, a row replaced, shortened or lengthened, the table shortened
    # or lengthened, or the whole of it replaced; sometimes converted to a
    # numpy array of some dtype
    ints = st.one_of(
        st.integers(0, n - 1), st.integers(0, n - 1).map(np.int64),
        st.integers(0, n - 1).map(np.uint8), st.booleans().filter(lambda b: b < n),
    )
    if square:
        table = [[data.draw(ints) for _ in range(n)] for _ in range(n)]
    else:
        table = list(data.draw(st.permutations(range(n))))
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        fault = data.draw(st.sampled_from(["entry", "row", "length", "whole"]))
        rows = [r for r in table if isinstance(r, list)] if square else [table]
        if fault == "entry" and rows:
            row = data.draw(st.sampled_from(rows))
            if row:
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(ints | _ODD_ENTRIES)
        elif fault == "row" and rows:
            row = data.draw(st.sampled_from(rows))
            change = data.draw(st.sampled_from(["pop", "append", "replace"]))
            if change == "pop" and row:
                row.pop()
            elif change == "append":
                row.append(data.draw(ints))
            elif square and table:  # a "length" fault may have shortened it
                table[data.draw(st.integers(0, len(table) - 1))] = data.draw(_NOT_ROWS)
        elif fault == "length" and square:
            if table and data.draw(st.booleans()):
                table.pop()
            else:
                table.append([0] * n)
        elif fault == "whole":
            return data.draw(_NOT_ROWS)
    dtype = data.draw(st.sampled_from([None, None, None, np.int64, np.int16, np.uint8, bool, float, object]))
    if dtype is not None:
        try:
            return np.array(table, dtype=dtype)
        except Exception:  # ragged, out of the dtype's range, or not numbers
            pass
    return table


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_construction_accepts_and_refuses_as_the_entrywise_checks(data):
    n = data.draw(st.integers(1, 3), label="n")
    meet, join = _draw_table(data, n, True), _draw_table(data, n, True)
    neg = data.draw(st.one_of(st.none(), st.builds(lambda: _draw_table(data, n, False))))
    copies = [np.array(t, copy=True) if isinstance(t, np.ndarray) else None for t in (meet, join, neg)]
    try:
        expected = _oracle_tables(n, meet, join, neg)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            FiniteAlgebra("x", [str(i) for i in range(n)], meet, join, neg)
        assert str(got.value) == str(exc)
        return
    a = FiniteAlgebra("x", [str(i) for i in range(n)], meet, join, neg)
    assert (a.meet, a.join, a.neg) == expected
    for table, given_, copy in zip(a.arrays(), (meet, join, neg), copies):
        if table is None:
            continue
        assert table.dtype == np.int16 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
        if copy is not None:  # the caller's array is copied, and stays writable
            assert given_.flags.writeable and not np.shares_memory(given_, table)
            assert np.array_equal(given_, copy)


def test_construction_messages():
    ab, ok = ("a", "b"), ((0, 1), (1, 1))
    for meet, message in (
        (((0, 2**70), (0, 1)), f"meet table entry {2**70} out of range [0,2)"),
        (((0, -1), (2, 1)), "meet table entry -1 out of range [0,2)"),
        (np.array([[0, 1], [5, -3]]), "meet table entry 5 out of range [0,2)"),
        ((((0,), 1), (0, 1)), "meet table must hold integer entries"),
        (((0, 1), (0, 1, 1)), "meet table must be 2x2"),
        (((0, 1), (0, 0.5, 1)), "meet table must hold integer entries"),
        (np.zeros((2, 3), dtype=np.int16), "meet table must be 2x2"),
        (np.zeros((2, 2), dtype=bool), "meet table must hold integer entries"),
        (((True, False), (np.int64(1), np.uint8(1))), None),
    ):
        if message is None:
            assert FiniteAlgebra("x", ab, meet, ok).meet == ((1, 0), (1, 1))
            continue
        with pytest.raises(ValidationError) as got:
            FiniteAlgebra("x", ab, meet, ok)
        assert str(got.value) == message
    # meet is checked in full before join
    with pytest.raises(ValidationError, match=r"^meet table entry 5 out of range \[0,2\)$"):
        FiniteAlgebra("x", ab, ((0, 5), (0, 1)), ((0, 1),))
    for neg, message in (
        ((0,), "neg table must have length 2"),
        ((0, 2), "neg table entry out of range"),
        (np.array([1, 1]), "neg table must be a bijection"),
        (np.array([[0, 1]]), "neg table must hold integer entries"),
    ):
        with pytest.raises(ValidationError) as got:
            FiniteAlgebra("x", ab, ok, ok, neg)
        assert str(got.value) == message


def test_a_large_power_is_built_as_arrays():
    # IS3^7 has 2187 elements, and its two tables take 9.1 MiB each as
    # int16; built as tuples of Python ints, they raised max RSS by 508 MiB.
    # Nothing derived from the tables, tuple views included, is built yet
    code = (
        "import resource\n"
        "from dmbl.catalog import get_algebra\n"
        "from dmbl.finalg import power\n"
        "is3 = get_algebra('IS3')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "a = power(is3, 7)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(a.size, grown // 1024, a._memo == {})\n"
    )
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    size, grown_mib, empty_memo = out.stdout.split()
    assert size == "2187"
    assert int(grown_mib) < 80
    assert empty_memo == "True"


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


def _columns(a, t, columns):
    # the oracle: one list per node, one entry per assignment, by a plain
    # walk over the algebra's tuple tables that shares no code with dmbl
    if isinstance(t, Var):
        return columns[t.name]
    if isinstance(t, Neg):
        return [a.neg[x] for x in _columns(a, t.child, columns)]
    table = a.meet if isinstance(t, Meet) else a.join
    left, right = _columns(a, t.left, columns), _columns(a, t.right, columns)
    return [table[x][y] for x, y in zip(left, right)]


def _value(a, t, asg):
    """The index of t's value under `asg`, a dict of element names."""
    return _columns(a, t, {v: [a.elements.index(x)] for v, x in asg.items()})[0]


def test_satisfies_counterexample_is_lex_least():
    # scan by hand in index order and compare
    e = parse("x /\\ y = x \\/ y")
    lhs, rhs = e.lhs, e.rhs
    found = None
    for x in DM4.elements:
        for y in DM4.elements:
            asg = {"x": x, "y": y}
            if _value(DM4, lhs, asg) != _value(DM4, rhs, asg):
                found = asg
                break
        if found:
            break
    res = satisfies(DM4, e)
    assert not res and res.counterexample == found


def _least_counterexample(a, e, prefix=()):
    # over the assignments whose leading elements are `prefix`
    names = sorted(_vars_of(e))
    free = itertools.product(range(a.size), repeat=len(names) - len(prefix))
    grid = [prefix + rest for rest in free]
    columns = {v: [row[k] for row in grid] for k, v in enumerate(names)}
    sides = zip(_columns(a, e.lhs, columns), _columns(a, e.rhs, columns))
    for row, (x, y) in zip(grid, sides):
        if x != y:
            return {v: a.elements[c] for v, c in zip(names, row)}
    return None


# (_CHUNK, _BLOCK): blocks of one assignment, and blocks that fix all but one
# or two of five variables over U's nine elements; every step over more than
# one value gathers one entry at a time, or none does
_SCAN_GRID = list(itertools.product((1, 2**40), (1, 10, 100)))


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
    for chunk, block in _SCAN_GRID:
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
    # chunk 1 makes one `take` per value, so there the terms have one
    # variable: U's rows of 9 values and the product's int16 rows of 243;
    # the product's rows of 243^2 values gather by chunks at the default
    # chunk too.  Each matrix is compared with the default chunk's on the
    # same terms
    p = product(product(U, U), IS3)
    for a, nodes, k in ((U, 5, 3), (p, 4, 2)):
        expected = {}
        for v in (1, k):
            m = value_matrix(a, enumerate_terms(nodes, v), v)
            expected[v] = (m.dtype, m.shape, m.tobytes())
        for chunk in (1, 2**40, finalg._CHUNK):
            v = 1 if chunk == 1 else k
            monkeypatch.setattr(finalg, "_CHUNK", chunk)
            m = value_matrix(a, enumerate_terms(nodes, v), v)
            assert (m.dtype, m.shape, m.tobytes()) == expected[v], (a.name, chunk)


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


def _substituted(t, name, u):
    # t with every occurrence of the variable `name` replaced by u
    if isinstance(t, Var):
        return u if t.name == name else t
    if isinstance(t, Neg):
        return Neg(_substituted(t.child, name, u))
    return type(t)(_substituted(t.left, name, u), _substituted(t.right, name, u))


def _scan_identity(rng, k):
    # the identities of one scan, the first in exactly k variables: an
    # instance of a law of every De Morgan bisemilattice (it holds in every
    # catalog algebra), a random identity (it mostly fails at the first
    # assignments), or one guarded by x1 /\ (its sides agree where x1 is
    # the bottom, the first element of most catalog algebras, so its least
    # counterexample mostly lies past the first frontiers).  A third of them
    # are drawn in k - 1 variables with x{k-1} then read as x{k-1} /\ ~x{k}
    # or its dual, so the last two variables are read only through that
    # compound.  A third come with a second identity that reads only the
    # last one or two variables, so that both its sides are on the free
    # side of a scan that fixes the variables before them
    def draw(k):
        while True:
            s, t, u = (sweep.random_term(rng, 3, k) for _ in range(3))
            laws = [
                Identity(s & (t | u), (s & t) | (s & u)),
                Identity(~(s & t), ~s | ~t),
                Identity((s | t) | u, s | (t | u)),
            ]
            guarded = Identity(Var("x1") & s, Var("x1") & t)
            e = rng.choice([random_identity(rng, 4, k), guarded, rng.choice(laws)])
            if len(_vars_of(e)) == k:
                return e

    def substituted(e, name, u):
        return Identity(_substituted(e.lhs, name, u), _substituted(e.rhs, name, u))

    compound = rng.random() < 1 / 3
    e = draw(k - compound)
    if compound:
        x, y = Var(f"x{k - 1}"), Var(f"x{k}")
        e = substituted(e, x.name, rng.choice([x & ~y, x | ~y]))
    if rng.random() < 1 / 3:
        j = rng.choice([1, 2])
        free = draw(j)
        for i in range(j, 0, -1):  # x1, x2 become x{k-j+1}, x{k}, the last first
            free = substituted(free, f"x{i}", Var(f"x{k - j + i}"))
        return [e, free]
    return [e]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frontier_scan_finds_the_least_counterexample(data):
    # _BLOCK is drawn so that the scan's blocks fix f of the k variables,
    # 1 <= f < k, and _BATCH so that the prefixes are labelled in one
    # pass or in several, with the tail runs starting at level f or f + 1.
    # Once runs there have taken a batch with frontiers left, the rest are
    # deepened or run where they are, and the guarded identities put many
    # least counterexamples past that point.  A scan of two identities
    # checks both, and any assignment it returns fails one of them
    pairs = _scan_identity(random.Random(data.draw(st.integers(0, 2**32))), data.draw(st.integers(3, 5)))
    e = pairs[0]
    a = data.draw(st.sampled_from([B2, IS2, K3, IS3, DM4, IS4, get_algebra("A5")]))
    n, k = a.size, len(_vars_of(e))
    f = data.draw(st.integers(1, k - 1), label="fixed")
    block = data.draw(st.integers(n ** (k - f), n ** (k - f + 1) - 1), label="block")
    prefixes = data.draw(st.sampled_from([1, 5, 64, finalg._BATCH]), label="prefixes")
    cex = _least_counterexample(a, e)
    prog = finalg._program(tuple(t for p in pairs for t in (p.lhs, p.rhs)), True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finalg, "_BLOCK", block)
        mp.setattr(finalg, "_BATCH", prefixes)
        r = satisfies(a, e)
        found = finalg._scan(a, prog)
    assert (bool(r), r.counterexample) == (cex is None, cex), (e, block, prefixes)
    holds = all(_least_counterexample(a, p) is None for p in pairs)
    assert (found is None) == holds, (pairs, block, prefixes)
    if found is not None:
        asg = {v: a.elements[i] for v, i in zip(prog.names, found)}
        assert any(_value(a, p.lhs, asg) != _value(a, p.rhs, asg) for p in pairs), (pairs, asg)


@pytest.mark.parametrize(
    "algebra, cls",
    [(DM4, "involutive semilattice"), (DM4, "Kleene lattice"), (K3, "Boolean-algebra-reduct"),
     (IS3, "involutive semilattice"), (K3, "Kleene lattice"), (B2, "Boolean-algebra-reduct")],
)
def test_is_class_compares_sides_that_read_only_fixed_variables(monkeypatch, algebra, cls):
    # each class's last axiom reads only x and y, and the first three
    # algebras fail that axiom alone.  With _BLOCK = n the tail runs fix x
    # and y of x, y, z, so both sides of it are frontier values, read by the
    # tail as variables past the program's names; with _BLOCK = n^2 and
    # _BATCH = 1 a run of one frontier of x comes first, and the rest are
    # deepened to frontiers of x and y
    axioms = finalg._parse_axioms(finalg._CLASS_AXIOMS[cls][0])
    failing = [str(e) for e in axioms if not satisfies(algebra, e)]
    assert failing in ([], [str(axioms[-1])]) and _vars_of(axioms[-1]) == {"x", "y"}
    prog = finalg._class_program(cls)
    tail = finalg._plan(prog, 2, 3)[0]
    given = {s for s, op, left, *_ in tail if op == _VAR and left >= len(prog.names)}
    assert {prog.roots[-2], prog.roots[-1]} <= given
    n = algebra.size
    for block, prefixes in ((n, finalg._BATCH), (n * n, 1)):
        monkeypatch.setattr(finalg, "_BLOCK", block)
        monkeypatch.setattr(finalg, "_BATCH", prefixes)
        assert is_class(_fresh(algebra), cls) == (not failing), block


def _count_steps(monkeypatch):
    # two lists that fill as the scan runs: the value count of every step,
    # and per tail run its level, its frontiers, the shape of the run (its
    # frontiers times every free assignment, or times the distinct free
    # frontiers), the value counts of its steps over the whole run, and
    # whether it read the labelled free side.  A tail run is the one kind of
    # run that reads frontier values and compares; the free side's one run
    # is listed too, with no frontiers and its steps of every shape
    sizes, runs, run, step = [], [], finalg._run, finalg._step

    def counted_run(A, prog, grids, out=None, tables=None, plan=None):
        k = len(prog.names)
        lo, hi, start, stop = next((key for key, p in prog.plans.items() if p[0] is plan), (0,) * 4)
        if hi == k and start:
            runs.append((start, 0, (A.size,) * (k - start), [], None))
        elif hi == k and lo and out is None:
            m, labelled = grids[k].shape[0], stop < k
            shape = (m, grids[-1].shape[-1]) if labelled else (m,) + (A.size,) * (k - lo)
            runs.append((lo, m, shape, [], labelled))
        return run(A, prog, grids, out, tables, plan)

    def counted_step(*args):
        val = step(*args)
        sizes.append(val.size)
        if runs and (val.shape == runs[-1][2] or runs[-1][4] is None):
            runs[-1][3].append(val.size)
        return val

    monkeypatch.setattr(finalg, "_run", counted_run)
    monkeypatch.setattr(finalg, "_step", counted_step)
    return sizes, runs


def test_frontier_scan_evaluates_each_free_grid_once_per_frontier(monkeypatch):
    # a, b fixed and c, d free over U x U: each side is read only through
    # a /\ ~b or c /\ ~d, which take at most 81 values.  After one run over
    # the first frontier and all 81^2 free assignments, the free side's
    # three steps run once over those assignments, and the three steps
    # over all four variables run over the other frontiers of a /\ ~b times
    # the distinct values of c /\ ~d: at most 81 * 81 values each in all,
    # where runs over every free assignment of each frontier take 81 * 81^2.
    # No other step runs over more than the 81^2 prefixes or free
    # assignments
    uu = product(U, U)
    e = parse("~((a /\\ ~b) \\/ (c /\\ ~d)) = ~(a /\\ ~b) /\\ ~(c /\\ ~d)")
    sizes, runs = _count_steps(monkeypatch)
    assert satisfies(uu, e)
    assert [(level, m, labelled) for level, m, *_, labelled in runs[:2]] == [(2, 1, False), (2, 0, None)]
    assert runs[1][3] == [81, 81**2, 81**2]  # ~d, c /\ ~d and ~(c /\ ~d)
    mixed = runs[2:]
    assert mixed and all(level == 2 and labelled for level, *_, labelled in mixed)
    for _, m, shape, full, _ in mixed:
        assert shape[1] <= 81 and full == [m * shape[1]] * 3
    assert sum(m * shape[1] for _, m, shape, *_ in mixed) <= 81 * 81
    assert max(Counter(sizes) - Counter(v for *_, f, _ in runs for v in f)) <= 81**2


def test_frontier_scan_takes_one_frontier_first(monkeypatch):
    # the identity fails under the least prefix, a = b = the first element:
    # the first tail run takes that one frontier, so no step evaluates more
    # than its 81^2 free assignments before the scan returns, where a batch
    # of 81 frontiers runs each step over all four variables over 81^3
    uu = product(U, U)
    e = parse("~((a /\\ ~b) \\/ (c /\\ ~d)) = ~(a /\\ ~b) \\/ ~(c /\\ ~d)")
    cex = _least_counterexample(uu, e, (0, 0))
    assert cex is not None
    sizes, runs = _count_steps(monkeypatch)
    r = satisfies(uu, e)
    assert (bool(r), r.counterexample) == (False, cex)
    assert [(level, m) for level, m, *_ in runs] == [(2, 1)]
    assert runs[0][3] and max(sizes) <= 81**2


def test_frontier_scan_runs_the_distinct_free_frontiers(monkeypatch):
    # an instance of the distributive law over U x U: its 1296 distinct
    # frontiers of a and b, scanned in full over every free assignment, run
    # each step over all four variables over 1296 * 81^2 = 8.5M values.  The
    # free side reads c and d through 1296 distinct frontiers too, so after
    # one run over the raw free grid the steps over all four variables run
    # over the other 1295 frontiers times those 1296.  Frontiers of a, b
    # and c would have more values to run, so none are deepened
    uu = product(U, U)
    e = parse("(a /\\ ~b) /\\ ((c \\/ ~d) \\/ (b /\\ ~c))"
              " = ((a /\\ ~b) /\\ (c \\/ ~d)) \\/ ((a /\\ ~b) /\\ (b /\\ ~c))")
    sizes, runs = _count_steps(monkeypatch)
    assert satisfies(uu, e)
    tails = [run for run in runs if run[1]]
    # level 3's free side is labelled for the choice, and then not used
    assert [level for level, m, *_ in runs if not m] == [2, 3]
    assert {level for level, *_ in tails} == {2}
    assert sum(m for _, m, *_ in tails) == 1296
    assert [labelled for *_, labelled in tails] == [False] + [True] * (len(tails) - 1)
    assert {shape[1] for _, _, shape, _, labelled in tails if labelled} == {1296}
    assert max(sizes) <= 81**3
    for _, m, shape, full, _ in tails:
        assert full and set(full) == {math.prod(shape)}
    total = sum(math.prod(shape) for _, m, shape, *_ in tails)
    assert total == 81**2 + 1295 * 1296 <= 1296 * 81**2 // 2


def test_frontier_scan_deepens_the_frontiers_left(monkeypatch):
    # meet is associative and commutative, so this holds over U x U.  Its
    # 6561 frontiers of a and b are all distinct, and the steps over all
    # four variables read c and d directly: labelled, the free side has
    # 6561 distinct frontiers, so the runs stay over the raw free grid, and
    # scanned in full they would run each step over 6561 * 81^2 = 43M
    # values.  Once runs of 1, 2, 4, ... have taken a batch of 81 of them,
    # the scan labels the rest by frontiers of a, b and c, which take far
    # fewer values with d free, and runs them there, each run within the
    # batch of 81^3 assignments
    uu = product(U, U)
    e = parse("((a \\/ c) /\\ (b /\\ c)) /\\ d = (b /\\ c) /\\ ((a \\/ c) /\\ d)")
    sizes, runs = _count_steps(monkeypatch)
    assert satisfies(uu, e)
    tails = [run for run in runs if run[1]]
    levels = [level for level, *_ in tails]
    assert levels == sorted(levels) and levels[-1] == 3
    assert [m for level, m, *_ in tails if level == 2] == [1, 2, 4, 8, 16, 32, 18]
    assert not any(labelled for level, *_, labelled in tails if level == 2)
    assert max(sizes) <= 81**3
    for _, m, shape, full, _ in tails:
        assert full and set(full) == {math.prod(shape)}
    assert sum(math.prod(shape) for _, m, shape, *_ in tails) <= 1296 * 81**2 // 2


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
        if _value(a, e.lhs, asg) != _value(a, e.rhs, asg):
            brute = False
            break
    assert bool(res) == brute


def _vars_of(e):
    from dmbl.terms import variables

    return variables(e.lhs) | variables(e.rhs)


def test_satisfies_cost_limit_is_exact(monkeypatch):
    # U^3 assignments times the program's steps; at the limit it runs
    e = parse("(x /\\ y) /\\ z = x /\\ (y /\\ z)")
    cost = 9**3 * len(finalg._program((e.lhs, e.rhs), True).steps)
    monkeypatch.setattr(finalg, "SATISFIES_COST_LIMIT", cost)
    assert satisfies(U, e)
    monkeypatch.setattr(finalg, "SATISFIES_COST_LIMIT", cost - 1)
    with pytest.raises(ValidationError, match=f"is {cost}, above the limit of {cost - 1}"):
        satisfies(U, e)
    # a class's axioms, in the same three variables, take more steps
    with pytest.raises(ValidationError, match="above the limit"):
        is_class(_fresh(U), "De Morgan bisemilattice")


def _copy(t):
    # a structurally equal term that shares no object with t
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Neg):
        return Neg(_copy(t.child))
    return type(t)(_copy(t.left), _copy(t.right))


def _dot(s, t):
    return Meet(s, Join(s, t))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dot_steps_give_the_oracle_verdict(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a = data.draw(st.sampled_from([B2, K3, DM4, IS3, IS4, get_algebra("A5"), U]))
    s, t, u = (sweep.random_term(rng, 2, 3) for _ in range(3))
    shared = _dot(s, t)  # one object s under both
    copied = Meet(s, Join(_copy(s), t))  # equal copies of s
    nested = _dot(_dot(s, t), u)  # as in the left-normal law
    near = Meet(s, Join(t, s))  # no x.y: the join's arguments are swapped
    other = data.draw(st.sampled_from([_dot(_dot(s, u), t), sweep.random_term(rng, 3, 4), near]))
    for lhs in (shared, copied, nested, near):
        prog = finalg._program((lhs,), False)
        op = prog.steps[prog.roots[0]][0]
        assert op == (finalg._MEET if lhs is near and s != t else finalg._DOT)
        e = Identity(lhs, other)
        cex = _least_counterexample(a, e)
        for chunk, block in _SCAN_GRID:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(finalg, "_CHUNK", chunk)
                mp.setattr(finalg, "_BLOCK", block)
                r = satisfies(a, e)
            assert (bool(r), r.counterexample) == (cex is None, cex), (chunk, block, e)


def _fresh(a):
    # a copy with an empty memo
    return FiniteAlgebra(a.name, a.elements, a.meet, a.join, a.neg)


def _class_by_axioms(a, cls):
    texts, needs_neg = finalg._CLASS_AXIOMS[cls]
    if needs_neg and a.neg is None:
        return False
    return all(satisfies(a, e) for e in finalg._parse_axioms(texts))


@pytest.mark.parametrize("cls", ALGEBRA_CLASSES)
def test_is_class_is_all_of_its_axioms_on_the_catalog(cls):
    for name in known_algebra_names():
        a = _fresh(get_algebra(name))
        assert is_class(a, cls) == _class_by_axioms(a, cls), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_class_is_all_of_its_axioms_on_random_tables(data):
    n = data.draw(st.integers(1, 4))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    neg = data.draw(st.none() | st.permutations(range(n)))
    a = FiniteAlgebra("r", [str(i) for i in range(n)], data.draw(table), data.draw(table), neg)
    block = data.draw(st.sampled_from([1, 10, finalg._BLOCK]))
    for cls in ALGEBRA_CLASSES:
        expected = _class_by_axioms(a, cls)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finalg, "_BLOCK", block)
            assert is_class(_fresh(a), cls) == expected, cls


def test_class_verdict_belongs_to_one_algebra_object(monkeypatch):
    scans = []
    scan = finalg._scan
    monkeypatch.setattr(finalg, "_scan", lambda a, prog: scans.append(a) or scan(a, prog))
    dm4 = _fresh(DM4)
    assert is_class(dm4, "De Morgan lattice") and is_class(dm4, "De Morgan lattice")
    assert scans == [dm4]  # the second answer is the kept verdict
    # a permuted copy is another object with its own tables: its verdict is
    # computed, not read
    perm = dm4.permute(list(reversed(dm4.elements)))
    assert is_class(perm, "De Morgan lattice") and scans == [dm4, perm]
    # the same name and elements with other tables get their own verdict
    flat = FiniteAlgebra(dm4.name, dm4.elements, [[0] * 4] * 4, dm4.join, dm4.neg)
    assert not is_class(flat, "De Morgan lattice") and scans == [dm4, perm, flat]
    assert not is_class(flat.permute(list(reversed(flat.elements))), "De Morgan lattice")


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
    # partitions of different sets are not compared
    with pytest.raises(ValidationError, match="partitions of 2 and 3 elements"):
        call(Congruence((0, 1)), Congruence((0, 0, 1)))


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


def monolith(algebra: FiniteAlgebra) -> Congruence | None:
    # least nontrivial congruence, or None: the meet of the principals, x
    # and y sharing a block when every principal's label row gives them the
    # same label; limited like the principals to CONGRUENCE_SIZE_LIMIT
    n = algebra.size
    if n == 1:
        return None
    rows = finalg._principal_rows(n, finalg._ops_of(algebra))
    mono = finalg._partition(finalg._row_keys(rows.T))
    return None if mono.is_identity() else mono


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
    assert is_subdirectly_irreducible(DM4) and not is_subdirectly_irreducible(product(IS2, IS3))


def test_congruence_from_blocks_roundtrip():
    c = Congruence.from_blocks(5, [[0, 1], [2], [3, 4]])
    assert c.blocks == ((0, 1), (2,), (3, 4))
    assert c.related(0, 1) and not c.related(1, 2)
    # a negative index does not wrap around, and one past the end is no
    # IndexError
    for blocks in ([[0, 1], [-1]], [[0, 1], [3]], [[0, 1, 2], [3]]):
        with pytest.raises(ValidationError, match="out of range"):
            Congruence.from_blocks(3, blocks)
    with pytest.raises(ValidationError, match="overlap"):
        Congruence.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValidationError, match="cover"):
        Congruence.from_blocks(3, [[0], [2]])
    assert Congruence.from_blocks(3, [[2], [], [0, 1]]).block_of == (0, 0, 1)


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
    assert is_subdirectly_irreducible(a) == (n == 1 or expected is not None)


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


# the isomorphism search that the staged homomorphism search replaced: every
# generator placed, then the map extended, kept as the witness oracle


def _extend_map_reference(A, B, gen_map):
    # grow gen_map homomorphically over the closure; None on conflict
    mapping = dict(gen_map)
    frontier = list(mapping)
    while frontier:
        new = {}

        def put(src, dst):
            if src in mapping:
                return mapping[src] == dst
            if src in new:
                return new[src] == dst
            new[src] = dst
            return True

        known = list(mapping.items())
        for a, u in known:
            if A.neg is not None:
                if not put(A.neg[a], B.neg[u]):
                    return None
            for b, v in known:
                if not put(A.meet[a][b], B.meet[u][v]):
                    return None
                if not put(A.join[a][b], B.join[u][v]):
                    return None
        if not new:
            break
        mapping.update(new)
        frontier = list(new)
    if len(mapping) != A.size:
        return None
    f = [mapping[a] for a in range(A.size)]
    if len(set(f)) != A.size or _first_hom_failure(A, B, f) is not None:
        return None
    return mapping


def _is_isomorphic_reference(a, b):
    if finalg.isomorphism_key(a) != finalg.isomorphism_key(b):
        return None
    ca, cb = finalg._colors(a), finalg._colors(b)
    gens = finalg._generating_set(a)
    by_color = {}
    for x in range(b.size):
        by_color.setdefault(cb[x], []).append(x)

    def backtrack(i, gen_map, used):
        if i == len(gens):
            return _extend_map_reference(a, b, gen_map)
        g = gens[i]
        for cand in by_color.get(ca[g], ()):
            if cand in used:
                continue
            gen_map[g] = cand
            used.add(cand)
            res = backtrack(i + 1, gen_map, used)
            if res is not None:
                return res
            used.discard(cand)
            del gen_map[g]
        return None

    found = backtrack(0, {}, set())
    if found is None:
        return None
    return {a.elements[x]: b.elements[y] for x, y in found.items()}


def _projections(data, n):
    # x /\ y = x and x \/ y = y with neg a product of k 2-cycles and one
    # longer cycle: neg has no fixpoint, so every element gets one colour and
    # the key sees only n, whatever k is
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(0, (n - 2) // 2))
    neg = [0] * n
    for c in [order[i : i + 2] for i in range(0, 2 * k, 2)] + [order[2 * k :]]:
        for i, x in enumerate(c):
            neg[x] = c[(i + 1) % len(c)]
    return FiniteAlgebra(
        "P", [str(i) for i in range(n)], [[x] * n for x in range(n)], [list(range(n))] * n, neg
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_isomorphism_witness_matches_the_backtracking_oracle(data):
    from dmbl.sums import dpl_sum, random_system

    kind = data.draw(st.sampled_from(["catalog", "product", "sum", "equal keys"]))
    if kind == "equal keys":
        n = data.draw(st.integers(2, 8))
        a, b = _projections(data, n), _projections(data, n)
        assert finalg.isomorphism_key(a) == finalg.isomorphism_key(b)
    else:
        if kind == "catalog":
            a = data.draw(st.sampled_from(CATALOG + [U]))
        elif kind == "product":
            a = product(*(data.draw(st.sampled_from(CATALOG + [U])) for _ in "ab"))
        else:
            a = dpl_sum(random_system(random.Random(data.draw(st.integers(0, 1 << 16)))))
        b = a.permute(data.draw(st.permutations(range(a.size))))
        if data.draw(st.booleans()):
            b = b.rename_elements({e: f"{e}'" for e in b.elements})
    for x, y in ((a, b), (b, a)):
        assert is_isomorphic(x, y) == _is_isomorphic_reference(x, y)


def test_isomorphism_search_prunes_before_every_generator_is_placed():
    # power(IS3, 4) has 8 generators and few colours; a search that extends
    # the map only once all 8 are placed took 18 to 116 s per permutation
    a = power(IS3, 4)
    start = time.perf_counter()
    for seed in range(5):
        order = list(range(a.size))
        random.Random(seed).shuffle(order)
        b = a.permute(order)
        _assert_isomorphism(a, b, is_isomorphic(a, b))
    assert time.perf_counter() - start < 10


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


def test_json_bytes_are_pinned():
    # every catalog and auxiliary algebra, U^2 and the system of U x U, as
    # saved: the bytes written before the tables were stored as arrays
    u = get_algebra("U")
    blobs = [algebra_to_json(get_algebra(name)) for name in known_algebra_names()]
    blobs += [algebra_to_json(power(u, 2)), system_to_json(decompose(product(u, u)))]
    assert hashlib.sha256(json.dumps(blobs, indent=2, sort_keys=True).encode()).hexdigest() == (
        "0345cb0f16a2d07c5125c12a7817145c69027384f77f05118a6e963a6326b0e9"
    )


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


def test_theory_partition_memory_is_bounded():
    # the value matrix of DM4 x IS4 is 8427 rows of 16^3 int8 values, 34.5
    # MB, and partitioning its rows as bytes copies them once more.  The
    # product is a new algebra, so its memo holds no partition yet
    a = product(DM4, IS4)
    enumerate_terms()  # the cached term list is not part of the partition
    tracemalloc.start()
    try:
        labels = varieties._theory_partition([a])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.max() + 1 == 235
    assert peak < 16 * 2**20


def test_theory_partition_does_not_depend_on_the_gather_chunk(monkeypatch):
    # batches of one row, of 22 rows with a shorter last one (U's rows of
    # 9^3 values, at the default chunk) and of every new code of a level at
    # once; the product's rows of 243^2 values read int32 codes.  Batches
    # follow _CHUNK alone, so each _CHUNK of the grid is one case.  At
    # _CHUNK 1 each value is one `take`, so there the terms have one
    # variable (rows of 9 and 243 values), compared with the default chunk's
    # labels on the same terms
    spaces = [(U, 7, 3), (product(product(U, U), IS3), 4, 2)]
    for a, nodes, k in spaces:
        default = {v: theory_partition(a, term_index(nodes, v), v) for v in (1, k)}
        labels = {}
        for chunk, block in _SCAN_GRID:
            monkeypatch.setattr(finalg, "_CHUNK", chunk)
            monkeypatch.setattr(finalg, "_BLOCK", block)
            v = 1 if chunk == 1 else k
            if chunk not in labels:
                labels[chunk] = (v, theory_partition(a, term_index(nodes, v), v))
        assert len(labels) == 2
        assert all(np.array_equal(default[v], x) for v, x in labels.values()), a.name


# ---------------------------------------------------------- term space index

SHARED = Meet(Var("x1"), Neg(Var("x2")))


def _shuffled_shared_terms():
    # one subterm object under several parents, and parents before children
    terms = [Join(SHARED, Var("x3")), Neg(SHARED), Meet(SHARED, SHARED), Var("x1"), SHARED]
    terms += enumerate_terms(5)
    random.Random(3).shuffle(terms)
    return terms


def _step_fields(prog):
    # op, left, right and level per step, as arrays
    op, left, right = np.array(prog.steps, dtype=np.int64).reshape(-1, 3).T
    level = np.empty(len(prog.steps), dtype=np.int64)
    for depth, (at, *_) in enumerate(prog.levels):
        level[at] = depth
    return op, left, right, level


def test_term_index_puts_children_before_parents():
    for prog in (term_index(), finalg._program(tuple(_shuffled_shared_terms()), False)):
        op, left, right, level = _step_fields(prog)
        steps = np.arange(len(op))
        for child, has in ((left, op != _VAR), (right, op >= _MEET)):
            assert (child[has] < steps[has]).all()
            assert (level[child[has]] < level[has]).all()
        assert ((op == _VAR) == (level == 0)).all()
        assert (right[op <= _NEG] == -1).all()
        assert sorted(left[op == _VAR].tolist()) == list(range(len(prog.names)))


def test_term_index_visits_a_shared_subterm_once():
    x1, neg_x2 = SHARED.left, SHARED.right
    twin = Meet(x1, Neg(neg_x2.child))  # equal to SHARED, but other objects
    prog = finalg._program((Join(SHARED, SHARED), Neg(SHARED), SHARED, twin), False)
    # x1, x2, ~x2, SHARED, the join and the negation; twin is SHARED's step
    op, left, right, level = _step_fields(prog)
    assert op.tolist() == [_VAR, _VAR, _NEG, _MEET, _JOIN, _NEG]
    assert prog.roots == (4, 5, 3, 3)
    assert left.tolist() == [0, 1, 1, 0, 3, 3]
    assert right.tolist() == [-1, -1, -1, 2, 3, -1]
    assert level.tolist() == [0, 0, 1, 2, 3, 3]
    assert prog.names == ("x1", "x2")


@pytest.mark.parametrize("space", [(7, 3), (5, 2), (4, 1)])
def test_cached_index_equals_a_walk_of_the_enumeration(space):
    cached, walked = term_index(*space), finalg._program(enumerate_terms(*space), False)
    assert cached is term_index(*space) and cached is not walked
    for field in ("steps", "names", "roots", "paired", "checks", "dots"):
        assert getattr(cached, field) == getattr(walked, field), field
    for got, want in zip(cached.levels, walked.levels):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
    caches = ("s._enumerated_index", "s._enumerated_terms", "f._program", "f._class_program")
    code = "import dmbl.cli, dmbl.sweep as s, dmbl.finalg as f; print(" + ", ".join(
        f"{c}.cache_info().currsize" for c in caches
    ) + ")"
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"] * len(caches)


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
    if len(q) != n:
        for compare in (refines, same_partition, first_violation):
            for x, y in ((p, q), (q, p)):
                with pytest.raises(ValidationError, match="cannot compare partitions"):
                    compare(x, y)
        return
    for x, y in ((p, q), (q, p)):
        assert refines(x, y) is _refines_loop(x, y)
        assert first_violation(x, y) == _first_violation_loop(x, y)
        got = first_violation(x, y)
        assert got is None or all(type(i) is int for i in got)
    assert same_partition(p, q) is (_refines_loop(p, q) and _refines_loop(q, p))


def test_refines_rejects_label_arrays_of_different_lengths():
    with pytest.raises(ValidationError, match="partitions of 3 and 2 elements"):
        refines(np.array([0, 1, 2]), np.array([0, 0]))


def test_same_partition_rejects_label_arrays_of_different_lengths():
    # zip's truncation would find [0, 1, 2] and [0, 1] the same partition
    with pytest.raises(ValidationError, match="partitions of 3 and 2 elements"):
        same_partition([0, 1, 2], [0, 1])


def test_first_violation_rejects_label_arrays_of_different_lengths():
    # zip's truncation would find no violation of [0, 0, 0] by [0, 0]
    with pytest.raises(ValidationError, match="partitions of 3 and 2 elements"):
        first_violation(np.array([0, 0, 0]), np.array([0, 0]))
