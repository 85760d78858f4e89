r"""Finite algebras with two binary operations and an optional involution.

The carrier is always ``range(n)`` with a parallel list of element names;
operation tables are dense ``n x n`` (or length ``n``) read-only int16 arrays.
Everything downstream (catalog, sums, decompositions, variety checks) works
on these tables.

Element order matters for one thing only: :func:`satisfies` reports the
*least* counterexample in the lexicographic order of assignments, variables
sorted by name, elements by index.  The scan runs over assignments in that
order, in blocks of bounded size, and stops at the least counterexample.

Terms are evaluated by one evaluator, ``_run``, over numpy index arrays.  It
runs a program (``_program``, cached by the tuple of terms): the terms as a
flat list of ``(op, left, right)`` steps, children first, hash-consed so that
structurally equal subterms are one step.  Each subterm ``s /\ (s \/ t)`` is
one DOT step, which reads the table of x.y = x /\ (x \/ y), computed once
per algebra (``decomp.band_of`` reads the same table).  One compiled program
serves :func:`satisfies`, :func:`is_class`, ``sweep.value_matrix`` and the
sweeps of ``sweep``, and one node step, ``_step``, serves ``_run`` and
``sweep.theory_partition``, as does one check of the errors in the order
a pre-order walk meets them (``_checked_tables``).  A step over more than
``_CHUNK`` values reads its table as a flat array: entry ``left * n + right``
(int16 codes while ``n * n <= 2**15``, int32 beyond) or, for ``~``, the
argument's entry, through ``take`` one chunk of ``_CHUNK`` indices at a time;
smaller steps index the tables directly.  Every value is dropped after its
last reader.  When the scan fixes leading variables, it labels prefixes
level by level by their frontier (the values of the steps over those
variables that later steps read), and runs the rest per distinct frontier:
least-first, in runs of 1, 2, 4, ... frontiers.  After the first run, the
steps over the free variables alone run once, the free assignments are
labelled the same way by their free frontier, and the steps that read both
sides run once per pair of distinct frontiers.  Once the runs of a level
have taken one batch, the frontiers left are deepened by the next variable
where that leaves fewer values to run.  :func:`is_class` runs all of a
class's axioms as one program and keeps the verdict in the algebra's memo.
Assignments times steps above ``SATISFIES_COST_LIMIT`` are refused before any
evaluation.

Congruences are computed on rows of least-element labels (entry x is the
least element of x's block), so equal partitions are equal rows, and one
``np.unique`` over whole rows deduplicates them.  By Mal'cev's lemma all
principal congruences come from one reachability closure on the graph of
unordered pairs, squared as a bit-packed boolean matrix; the join closure
then adds one principal at a time, joining it with every congruence found
so far, ``_BATCH`` labels at a time, by scatter-min label propagation.

Maps between algebras come from one search, ``_homomorphisms``: a
homomorphism is fixed by its values on generators, so it places A's greedy
generating set one element at a time, extends the map at once over the
subalgebra the placed ones generate, and prunes a placement that conflicts
there (no homomorphism extends it).  :func:`is_isomorphic` returns the first
bijection found with each generator sent to an unused element of its colour
class, in B's index order; ``sums`` lists all homomorphisms between fibres.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .terms import Identity, Meet, Join, Neg, Term, Var

__all__ = [
    "CONGRUENCE_COUNT_LIMIT",
    "CONGRUENCE_SIZE_LIMIT",
    "Congruence",
    "FiniteAlgebra",
    "SATISFIES_COST_LIMIT",
    "SatisfactionResult",
    "ValidationError",
    "algebra_from_json",
    "algebra_to_json",
    "congruences",
    "dual",
    "is_class",
    "is_isomorphic",
    "is_subdirectly_irreducible",
    "isomorphism_key",
    "join_partitions",
    "load_algebra",
    "power",
    "product",
    "quotient",
    "satisfies",
    "save_algebra",
    "si_quotient_flags",
    "subalgebra_generated",
]


class ValidationError(ValueError):
    """Structurally bad input data (tables, partitions, systems)."""


class FiniteAlgebra:
    """A finite algebra of type <2,2> or <2,2,1>.

    `meet` and `join` are n x n tables, `neg` an optional length-n table.
    Each is stored once, as a read-only int16 array (:meth:`arrays`).  An
    algebra is its name, elements, tables and one memo: every fact derived
    from the tables (the tuple views that `meet`, `join` and `neg` read, the
    name index, class and identity verdicts, colours, theory partitions) is
    computed on first use by :func:`_memoised` and kept there, so it lives
    and dies with the algebra.  Construction copies its tables and checks,
    in array passes, that their entries are integers, then their shapes,
    then their ranges, and that `neg` is a bijection; it does *not* impose
    any equational laws — use :func:`is_class` for that.
    """

    __slots__ = ("name", "elements", "_tables", "_memo")

    def __init__(
        self,
        name: str,
        elements: Sequence[str],
        meet: Sequence[Sequence[int]] | np.ndarray,
        join: Sequence[Sequence[int]] | np.ndarray,
        neg: Sequence[int] | np.ndarray | None = None,
    ):
        elements = tuple(elements)
        n = len(elements)
        if n == 0:
            raise ValidationError("algebra needs at least one element")
        if len(set(elements)) != n:
            raise ValidationError("element names must be distinct")
        self.name = str(name)
        self.elements = elements
        m, j = _checked_table(meet, n, "meet"), _checked_table(join, n, "join")
        g = None if neg is None else _checked_table(neg, n, "neg")
        if g is not None and np.count_nonzero(np.bincount(g, minlength=n)) != n:
            raise ValidationError("neg table must be a bijection")
        self._tables = (m, j, g)
        self._memo: dict = {}  # see _memoised

    # -- basics ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    meet = property(lambda self: _memoised(self, _view, 0))
    join = property(lambda self: _memoised(self, _view, 1))
    neg = property(lambda self: _memoised(self, _view, 2))

    def index(self, element: str | int) -> int:
        """Resolve an element name (or index) to its index."""
        if isinstance(element, str):
            try:
                return _memoised(self, _positions)[element]
            except KeyError:
                raise ValidationError(
                    f"{self.name} has no element named {element!r}"
                ) from None
        i = int(element)
        if not 0 <= i < self.size:
            raise ValidationError(f"element index {i} out of range for {self.name}")
        return i

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The stored (meet, join, neg) tables: read-only int16 arrays, neg
        None without a negation."""
        return self._tables

    def __repr__(self) -> str:
        sig = "<2,2,1>" if self._tables[2] is not None else "<2,2>"
        return f"FiniteAlgebra({self.name!r}, {self.size} elements, {sig})"

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.elements, *self._tables)

    def rename_elements(self, mapping: Mapping[str, str]) -> "FiniteAlgebra":
        new = [mapping.get(e, e) for e in self.elements]
        return FiniteAlgebra(self.name, new, *self._tables)

    def permute(self, order: Sequence[str | int]) -> "FiniteAlgebra":
        """Reorder the carrier; `order` lists every element exactly once."""
        perm = [self.index(e) for e in order]
        if sorted(perm) != list(range(self.size)):
            raise ValidationError("permutation must mention every element once")
        return _induced(
            self.name, [self.elements[p] for p in perm], self._tables, perm,
            np.argsort(perm),
        )


def _memoised(A: FiniteAlgebra, f: Callable, *args):
    """``f(A, *args)``, computed once per algebra and kept in its one memo,
    keyed by ``(f, *args)``.  A's tables never change, so neither does
    anything derived from them; the memo is an attribute of A, so what it
    keeps is freed with A and never read for another algebra."""
    key = (f, *args)
    try:
        return A._memo[key]
    except KeyError:
        pass
    A._memo[key] = value = f(A, *args)
    return value


def _view(A: FiniteAlgebra, k: int) -> tuple | None:
    # table k of A as tuples of Python ints
    t = A.arrays()[k]
    if t is None:
        return None
    return tuple(map(tuple, t.tolist())) if k < 2 else tuple(t.tolist())


def _positions(A: FiniteAlgebra) -> dict[str, int]:
    # element name -> index
    return {e: i for i, e in enumerate(A.elements)}


def _checked_table(data, n: int, label: str) -> np.ndarray:
    """`data`, the table `label` ("meet", "join" or "neg") of an algebra of
    `n` elements, as a new read-only int16 array.  Raises ValidationError
    unless every entry is an integer, as ``operator.index`` reads the entries
    of anything but an integer array of the right rank, then unless the
    shape is n x n (n for neg), then unless every entry is in ``range(n)``,
    naming the first one out of it in row order."""
    square = label != "neg"
    what, shape = f"{label} table", (n,) * (1 + square)
    bad_shape = f"{what} must be {n}x{n}" if square else f"{what} must have length {n}"
    if isinstance(data, np.ndarray) and data.dtype.kind in "iu" and data.ndim == len(shape):
        if data.shape != shape:
            raise ValidationError(bad_shape)
        a = data
    else:
        try:
            rows = [r if type(r) in (list, tuple) else tuple(r) for r in (data if square else [data])]
            entries = lambda: map(operator.index, itertools.chain.from_iterable(rows))
            try:
                a = np.fromiter(entries(), dtype=np.int64)
            except OverflowError:  # entries past int64, so out of range
                a = np.array(list(entries()), dtype=object)
        except TypeError:
            raise ValidationError(f"{what} must hold integer entries") from None
        if (square and len(rows) != n) or set(map(len, rows)) != {n}:
            raise ValidationError(bad_shape)
        a = a.reshape(shape)
    # read as unsigned, a negative entry is past any n
    if a.dtype == object or int(a.view(f"u{a.itemsize}").max()) >= n:
        if not square:
            raise ValidationError(f"{what} entry out of range")
        v = a.ravel()[((a < 0) | (a >= n)).ravel().argmax()]
        raise ValidationError(f"{what} entry {int(v)} out of range [0,{n})")
    a = a.astype(np.int16)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# evaluation and satisfaction

# step operations of a program; DOT reads the table x.y = x /\ (x \/ y)
_VAR, _NEG, _MEET, _JOIN, _DOT = range(5)


@dataclass(eq=False)
class _Program:
    """Terms compiled into one flat list of steps ``(op, left, right)``.

    Steps are numbered children first and hash-consed: a step is keyed by its
    op and its children's steps, so structurally equal subterms are one step.
    A VAR step's `left` is an index into `names` (sorted); a NEG step's is its
    argument, and its `right` is -1.  `roots` holds each term's step; when
    `paired`, term 2i is compared with term 2i + 1.  `checks` lists the VAR
    and NEG steps in the order a pre-order walk of the terms first meets
    them, which is the order their errors are raised in.  `dots` says
    whether a step reads the table of x.y; `plans` caches :func:`_plan` by
    its levels and names."""

    steps: tuple[tuple[int, int, int], ...]
    names: tuple[str, ...]
    roots: tuple[int, ...]
    paired: bool
    checks: tuple[int, ...]
    dots: bool
    plans: dict[tuple[int, ...], tuple[list, int]] = field(default_factory=dict)

    @cached_property
    def levels(self) -> list[tuple[np.ndarray, ...]]:
        """``(at, op, left, right)`` per level, lowest first: the level's
        step numbers and their fields.  A VAR step is at level 0, any other
        step one above its highest child."""
        op, left, right = np.array(self.steps, dtype=np.int64).reshape(-1, 3).T
        # raised until it holds, once per level; level[-1], read for a
        # missing child, stays 0
        level = np.zeros(len(op) + 1, dtype=np.int64)
        while True:
            up = np.where(op == _VAR, 0, 1 + np.maximum(level[left], level[right]))
            if (up == level[:-1]).all():
                break
            level[:-1] = up
        level = level[:-1]
        order = np.argsort(level, kind="stable")
        return [
            (at, op[at], left[at], right[at])
            for at in np.split(order, np.cumsum(np.bincount(level))[:-1])
        ]


@lru_cache(maxsize=256)
def _program(terms: tuple[Term, ...], paired: bool) -> _Program:
    """The program of `terms`, see :class:`_Program`.  Every subterm
    ``s /\\ (s \\/ t)``, the two s structurally equal, is one DOT step.
    ``_program.__wrapped__`` compiles without the cache, for term lists too
    long to hash cheaply."""
    ids: dict[tuple, int] = {}  # step -> its number; VAR steps keyed by name
    var: dict[str, int] = {}  # name -> its VAR step
    # keyed by id(): `terms` holds every subterm for the whole compile
    done: dict[int, int] = {}
    checks: list = []

    def step(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    def visit(t: Term) -> int:
        k = done.get(id(t))
        if k is not None:
            return k  # its checks are listed already
        if isinstance(t, Var):
            k = var[t.name] = step((_VAR, t.name, -1))
            checks.append(k)
        elif isinstance(t, Neg):
            at = len(checks)
            checks.append(None)  # a ~ is met before its argument
            k = checks[at] = step((_NEG, visit(t.child), -1))
        elif isinstance(t, Meet) and isinstance(t.right, Join):
            left, s, u = visit(t.left), visit(t.right.left), visit(t.right.right)
            k = step((_DOT, left, u) if s == left else (_MEET, left, step((_JOIN, s, u))))
        elif isinstance(t, (Meet, Join)):
            k = step((_MEET if isinstance(t, Meet) else _JOIN, visit(t.left), visit(t.right)))
        else:
            raise TypeError(f"not a term: {t!r}")
        done[id(t)] = k
        return k

    roots = tuple(visit(t) for t in terms)
    names = sorted(var)
    steps = list(ids)
    for i, name in enumerate(names):
        steps[var[name]] = (_VAR, i, -1)
    dots = any(op == _DOT for op, _, _ in steps)
    return _Program(tuple(steps), tuple(names), roots, paired, tuple(dict.fromkeys(checks)), dots)


def _plan(
    prog: _Program, lo: int, hi: int, start: int = 0, stop: int | None = None
) -> tuple[list, int]:
    """The plan that runs the steps whose level is in ``(lo, hi]`` and whose
    lowest name is in ``[start, stop)`` (k names, `stop` k when None), and
    its number of output rows.

    A step's level is one more than the highest name it reads.  The
    frontier of level m < k is the steps of level at most m that a step
    above m reads or that are roots; level 0's is empty.  In the mirror,
    the free frontier of name m > 0 is the steps whose lowest name is at
    least m that a step reading a name below m reads, or that are roots;
    name k's is empty.  The plan reads frontier step i of level `lo`, then
    free frontier step i of name `stop`, as variable ``k + i``.  Below level
    k it writes frontier step i of level `hi` to output row i, and above
    name 0 free frontier step i of name `start` to the next row.  A plan
    over every level and name, ``hi = k`` and ``start = 0``, compares the
    pairs, or writes each root to the row of its term when the program is
    unpaired.  So ``_plan(prog, 0, k)`` runs every step; :func:`_scan`
    labels level m + 1 by ``_plan(prog, m, m + 1)``, runs a tail over the
    raw free grid at level m by ``_plan(prog, m, k)``, labels the free side
    of level m, the steps that read only names m and above, by
    ``_plan(prog, 0, k, m)``, and runs the steps that read names on both
    sides by ``_plan(prog, m, k, 0, m)``.  A plan lists ``(step, op, left,
    right, pairs, rows, drop)`` per step run: after the step's value is
    computed, the `pairs` that now have both sides are compared, the value
    is written to the output `rows`, and the values in `drop`, read here for
    the last time, are dropped."""
    k = len(prog.names)
    stop = k if stop is None else stop
    if (lo, hi, start, stop) in prog.plans:
        return prog.plans[lo, hi, start, stop]
    steps = prog.steps
    level: list[int] = []
    low: list[int] = []
    for op, left, right in steps:
        kids = [c for c in (left, right) if c >= 0]
        level.append(left + 1 if op == _VAR else max(level[c] for c in kids))
        low.append(left if op == _VAR else min(low[c] for c in kids))
    reads = [(s, c) for s, (op, *kids) in enumerate(steps) if op != _VAR for c in kids if c >= 0]

    def frontier(inside: Callable[[int], bool]) -> list[int]:
        # the steps inside a side that a step outside it reads, and its roots
        read = {c for s, c in reads if not inside(s)}
        return sorted(s for s in read.union(prog.roots) if inside(s))

    def below(m: int) -> list[int]:
        return frontier(lambda s: level[s] <= m)

    def above(m: int) -> list[int]:
        return frontier(lambda s: low[s] >= m)

    given = below(lo) + above(stop)
    var = {s: k + i for i, s in enumerate(given)}
    run = sorted(var.keys() | {
        s for s in range(len(steps)) if lo < level[s] <= hi and start <= low[s] < stop
    })
    out = (below(hi) if hi < k else []) + (above(start) if start else [])
    rows: dict[int, list[int]] = {}
    whole = hi == k and not start
    for i, s in enumerate(out + list(() if prog.paired or not whole else prog.roots)):
        rows.setdefault(s, []).append(i)
    pairs = list(zip(prog.roots[::2], prog.roots[1::2])) if prog.paired and whole else []
    last = {s: s for s in run}  # value -> the last step reading it
    for s in run:
        op, left, right = steps[s]
        if op != _VAR and s not in var:
            last.update((c, s) for c in (left, right) if c >= 0)
    compared: dict[int, list] = {}  # step -> the pairs compared after it
    for pair in pairs:
        compared.setdefault(max(pair), []).append(pair)
        last.update((c, max(last[c], *pair)) for c in pair)
    drop: dict[int, list[int]] = {}
    for c, p in last.items():
        drop.setdefault(p, []).append(c)
    prog.plans[lo, hi, start, stop] = [
        (s, *((_VAR, var[s], -1) if s in var else steps[s]),
         compared.get(s, ()), rows.get(s), drop.get(s, ()))
        for s in run
    ], sum(map(len, rows.values()))
    return prog.plans[lo, hi, start, stop]


def _dot_table(A: FiniteAlgebra) -> np.ndarray:
    """The table of x.y = x /\\ (x \\/ y): entry ``[x, y]`` is
    ``meet[x, join[x, y]]``."""
    meet, join, _ = A.arrays()
    dot = np.take_along_axis(meet, join.astype(np.intp), axis=1)
    dot.flags.writeable = False
    return dot


def _checked_tables(A: FiniteAlgebra, prog: _Program, grids: Sequence) -> tuple:
    """The tables the steps of `prog` read, indexed by op.  Raises the
    error a pre-order walk of the terms meets first, if any: a variable
    whose entry of `grids` is None, or a ``~`` in an algebra without
    negation."""
    meet, join, neg = A.arrays()
    for s in prog.checks:
        op, v, _ = prog.steps[s]
        if op == _VAR and grids[v] is None:
            raise ValidationError(f"no assignment for variable {prog.names[v]!r}")
        if op == _NEG and neg is None:
            raise ValidationError(f"term uses ~ but {A.name} has no negation")
    return None, neg, meet, join, _memoised(A, _dot_table) if prog.dots else None


def _step(op: int, a: np.ndarray, b: np.ndarray | None, table: np.ndarray, n: int) -> np.ndarray:
    """The values of a step with op `op` over the index arrays `a` and `b`
    (`b` unread for ``~``), which broadcast against each other; `table` is
    the op's table in an algebra of `n` elements.  A step over more than
    ``_CHUNK`` values reads its table through :func:`_gather`: a binary step
    entry ``a * n + b`` of the flat table, a ``~`` step entry `a` of `neg`.
    Smaller steps index the table directly."""
    if op == _NEG:
        return _gather(table, a) if a.size > _CHUNK else table[a]
    if a.size * b.size <= _CHUNK:
        return table[a, b]
    code = np.multiply(a, n, dtype=np.int16 if n * n <= 1 << 15 else np.int32)
    if code.shape == np.broadcast_shapes(code.shape, b.shape):
        np.add(code, b, out=code)  # a spans the result
    else:
        code = code + b
    # the codes are this step's own, so int16 values can replace them
    return _gather(table, code, code if code.dtype == table.dtype else None)


def _run(
    A: FiniteAlgebra,
    prog: _Program,
    grids: Sequence,
    out: np.ndarray | None = None,
    tables: tuple | None = None,
    plan: list | None = None,
) -> np.ndarray | None:
    """Run `prog` with variable i bound to the index array ``grids[i]``; the
    arrays broadcast against each other, and so do the values.  `tables`,
    indexed by op as :func:`_checked_tables` returns them, replace A's, and
    `plan`, one of :func:`_plan`, replaces the plan of every step.

    Returns where the first pair that differs differs, a boolean array, or
    None.  A value goes to ``out[i]`` for each output row i of its step (for
    each term it is the root of), and is then read back from there.  Every
    step but a variable is one :func:`_step`."""
    if tables is None:
        tables = _checked_tables(A, prog, grids)
    n = len(tables[_MEET])
    vals: list = [None] * len(prog.steps)
    if plan is None:
        plan = _plan(prog, 0, len(prog.names))[0]
    for s, op, left, right, pairs, rows, drop in plan:
        vals[s] = grids[left] if op == _VAR else _step(op, vals[left], vals[right], tables[op], n)
        for x, y in pairs:
            bad = vals[x] != vals[y]
            if bad.any():
                return bad
        if rows:
            out[rows] = vals[s]
            vals[s] = out[rows[0], ...]
        for c in drop:
            vals[c] = None
    return None


# nodes over more values than this read their tables by chunked `take`
_CHUNK = 1 << 14


def _gather(
    table: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``table.ravel()[idx]``, read ``_CHUNK`` indices at a time into `out`
    (a new array when None): `take` copies each chunk of indices to intp
    before it writes, so chunking keeps that copy small, and `out` may be
    `idx` itself."""
    flat = table.ravel()
    if out is None:
        out = np.empty(idx.shape, dtype=table.dtype)
    idx, dst = idx.ravel(), out.ravel()
    for s in range(0, idx.size, _CHUNK):
        flat.take(idx[s : s + _CHUNK], out=dst[s : s + _CHUNK])
    return out


@dataclass(frozen=True)
class SatisfactionResult:
    """Outcome of checking one identity: truth plus a least counterexample."""

    holds: bool
    counterexample: dict[str, str] | None = None

    def __bool__(self) -> bool:
        return self.holds


# most assignments one step of `satisfies` evaluates at once (n at the
# least: a scan leaves one variable free)
_BLOCK = 1 << 20

# most values one pass of a batched loop holds: frontier values (prefixes
# times frontier steps) in a labelling pass of `_scan`, label rows times
# elements in the congruence engine, (map, pair) rows in `sums.validate`.
# A scan starts its tail runs one level deeper than its blocks need when
# that level's whole prefix grid fits in one pass
_BATCH = 1 << 16

#: most work `satisfies` and `is_class` take on: assignments (n to the number
#: of variables) times program steps, checked before any evaluation
SATISFIES_COST_LIMIT = 1 << 33


def _first(bad: np.ndarray, shape: tuple[int, ...]) -> tuple[int, ...]:
    # the index of the first True of `bad`, broadcast to `shape`, in C order
    flat = int(np.argmax(np.broadcast_to(bad, shape)))
    return tuple(int(i) for i in np.unravel_index(flat, shape))


def _scan(A: FiniteAlgebra, prog: _Program) -> tuple[int, ...] | None:
    """An assignment (element indices, in the order of the program's names)
    at which a pair differs, the least one if there is one pair, or None.
    Raises ValidationError above ``SATISFIES_COST_LIMIT``.

    Up to ``_BLOCK`` assignments are one :func:`_run` over broadcast axes.
    Past that, the scan labels prefixes by their frontier (:func:`_plan`),
    level by level from the empty prefix: each distinct frontier of a level
    is extended by the next variable, and the extensions are labelled by
    first occurrence (:func:`_meet`, :func:`_least`), ``_BATCH`` values a
    pass.  The tail runs start at the first level that leaves at most
    ``_BLOCK`` free assignments, or at the next when its whole prefix grid's
    frontier fits in ``_BATCH`` values.  That level's first run takes one
    frontier over the raw free grid.  Once it has passed, the level's free
    side, the steps that read only free variables, runs once over the free
    grid, and the free grid is labelled by its free frontier the same way;
    later runs evaluate only the steps that read both sides, over their
    frontiers times the distinct free frontiers, unless runs over the raw
    free grid take fewer values a frontier.  A level reached by deepening
    is labelled before its first run.  Runs take 1, 2, 4, ...
    frontiers in order of first prefix, each about as many values as the
    runs before it, until they have taken one batch in all: as many
    assignments as the first tail level leaves free.  The frontiers left
    are deepened by one more variable a pass at a time while the next
    level, once labelled, has fewer values to run than the pass has at
    this level; otherwise, and at the last level, the frontiers left run
    here, up to one batch a run.  The first prefix of the first failing
    frontier, with the first free assignment of the first failing free
    frontier, is the least failing assignment."""
    n, k = A.size, len(prog.names)
    cost = n**k * len(prog.steps)
    if cost > SATISFIES_COST_LIMIT:
        raise ValidationError(
            f"{n}^{k} assignments times {len(prog.steps)} steps is {cost}, above "
            f"the limit of {SATISFIES_COST_LIMIT} on identity checks"
        )
    fixed = 0
    while fixed < k - 1 and n ** (k - fixed) > _BLOCK:
        fixed += 1
    ar = np.arange(n, dtype=np.int16)
    grids = [ar.reshape((-1,) + (1,) * (k - 1 - axis)) for axis in range(k)]
    tables = _checked_tables(A, prog, grids)
    if not fixed:
        bad = _run(A, prog, grids, tables=tables)
        return None if bad is None else _first(bad, (n,) * k)
    batch = n ** (k - fixed)  # the most values one step of a tail run takes
    if fixed < k - 1 and n ** (fixed + 1) * _plan(prog, 0, fixed + 1)[1] <= _BATCH:
        fixed += 1
    done: dict[int, int] = {}  # level -> the values its tail runs have taken
    sides: dict[int, tuple] = {}  # level -> how its tail runs run, see `side`
    reads: list[int] = []  # per step, the names it reads as a bit mask
    for op, left, right in prog.steps:
        reads.append(1 << left if op == _VAR else reads[left] | (reads[right] if right >= 0 else 0))

    def values(plan: list, level: int, width: int | None = None) -> int:
        # the values a tail plan of `level` computes per prefix frontier:
        # each step over `width` free frontiers, or over the free names it reads
        return sum(
            width or n ** (reads[s] >> level).bit_count() for s, op, *_ in plan if op != _VAR
        )

    def side(level: int) -> tuple:
        # how the tail runs of `level` run after the first, chosen once: the
        # values per prefix frontier, the distinct free frontiers (an array
        # of one row per free frontier step), the first free assignment of
        # each (its flat index in C order) and the plan of the steps that
        # read both sides; or, when the raw tail plan has fewer values, that
        # plan with no free frontiers
        if level not in sides:
            plan, width = _plan(prog, 0, k, level)
            out = np.empty((width,) + (n,) * (k - level), dtype=np.int16)
            _run(A, prog, grids, out, tables, plan)
            out = out.reshape(width, -1)
            firsts = np.flatnonzero(_least(_meet(*out)) == np.arange(out.shape[1]))
            mixed, raw = _plan(prog, level, k, 0, level)[0], _plan(prog, level, k)[0]
            sides[level] = min(
                (values(mixed, level, len(firsts)), list(out[:, None, firsts]), firsts, mixed),
                (values(raw, level), [], None, raw),
                key=lambda way: way[0],
            )
        return sides[level]

    def runs(level: int, front: np.ndarray, coords: np.ndarray, at: int, whole: bool):
        # tail runs over frontiers `at`, `at + 1`, ... of `level`, up to one
        # batch a run when `whole`, else until the level's runs have taken
        # one batch in all: a failing assignment or None, and the first
        # frontier not run.  A level's first run takes one frontier over
        # the raw free grid, unless `side` has chosen already; the others
        # run as it chose
        grid = (n,) * (k - level)
        while at < front.shape[1]:
            d = done.setdefault(level, 0)
            raw = not d and level not in sides
            _, free, firsts, plan = (0, [], None, _plan(prog, level, k)[0]) if raw else side(level)
            width = n ** len(grid) if firsts is None else len(firsts)
            take = min(d // width + 1, (batch if whole else batch - d) // width)
            if take < 1:
                break
            part = front[:, at : at + take]
            shape = (-1,) + (1,) * (len(grid) if firsts is None else 1)
            bound = [f.reshape(shape) for f in part] + free
            bad = _run(A, prog, grids + bound, tables=tables, plan=plan)
            if bad is not None:
                if firsts is None:
                    r, *rest = _first(bad, (part.shape[1],) + grid)
                else:
                    r, j = _first(bad, (part.shape[1], len(firsts)))
                    rest = np.unravel_index(firsts[j], grid)
                return (*coords[:, at + r].tolist(), *map(int, rest)), at
            at, done[level] = at + part.shape[1], d + part.shape[1] * width
        return None, at

    def scan(level: int, front: np.ndarray, coords: np.ndarray) -> tuple[int, ...] | None:
        # `front`: a row per frontier step of `level`, a column per distinct
        # frontier; `coords`: a row per fixed variable, the first prefixes.
        # Levels short of the first tail level deepen at once
        at = 0
        if level >= fixed:
            found, at = runs(level, front, coords, 0, level == k - 1)
            if found is not None or at == front.shape[1]:
                return found
        plan, width = _plan(prog, level, level + 1)
        per = max(1, _BATCH // (n * width))
        for lo in range(at, front.shape[1], per):
            part = front[:, lo : lo + per]
            out = np.empty((width, part.shape[1], n) + (1,) * (k - level - 1), dtype=np.int16)
            shape = (-1,) + (1,) * (k - level)
            _run(A, prog, grids + [f.reshape(shape) for f in part], out, tables, plan)
            out = out.reshape(width, -1)
            firsts = np.flatnonzero(_least(_meet(*out)) == np.arange(out.shape[1]))
            # a tail level finishes here unless the next has fewer values
            if level >= fixed and (
                side(level + 1)[0] * len(firsts) >= side(level)[0] * part.shape[1]
            ):
                return runs(level, front, coords, lo, True)[0]
            parent, value = np.divmod(firsts, n)
            found = scan(level + 1, out[:, firsts], np.vstack([coords[:, lo + parent], value]))
            if found is not None:
                return found
        return None

    return scan(0, np.empty((0, 1), dtype=np.int16), np.empty((0, 1), dtype=np.intp))


def satisfies(algebra: FiniteAlgebra, identity: Identity) -> SatisfactionResult:
    """Check an identity over all assignments.

    The counterexample, when there is one, is the lexicographically least
    assignment (variables sorted by name, elements ordered as in the algebra).
    Both sides are compiled into one program (:func:`_program`), with every
    ``s /\\ (s \\/ t)`` read as one step from the table of x.y.  Up to
    ``_BLOCK`` assignments are evaluated at once; past that, :func:`_scan`
    fixes some leading variables and evaluates the steps that read only
    them over their prefixes, the steps that read only the other, free,
    variables once over the free grid, and the steps that read both once
    per pair of a distinct prefix frontier and a distinct free frontier
    (the values of the one-sided steps that they read), or over every free
    assignment where that has fewer values, at most ``_BLOCK`` values at a
    time.  Frontiers are taken least first, 1, 2, 4, ... a run, the first
    over the raw free grid, so an early counterexample costs one frontier's
    assignments; once they have taken one batch, the frontiers left are
    deepened by one more variable where that leaves fewer values to run.
    Raises ValidationError when assignments times steps exceed
    ``SATISFIES_COST_LIMIT``, before any evaluation.
    """
    prog = _program((identity.lhs, identity.rhs), True)
    if not prog.names:
        raise ValidationError("identity contains no variables")
    failure = _scan(algebra, prog)
    if failure is None:
        return SatisfactionResult(True, None)
    cex = {v: algebra.elements[c] for v, c in zip(prog.names, failure)}
    return SatisfactionResult(False, cex)


# ---------------------------------------------------------------------------
# constructions

def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The table of a product built from the same table x of the first
    factor and y of the second: argument ``(i, j)`` is ``i * len(y) + j``.
    In int16 while the product has at most 2**15 elements."""
    # the outer sum has the axes of x, then of y, and each argument of the
    # product is an axis of x followed by one of y
    d, nb = x.ndim, len(y)
    code = np.int16 if len(x) * nb <= 1 << 15 else np.intp
    v = np.add.outer(x.astype(code) * nb, y).transpose(
        [i + d * k for i in range(d) for k in (0, 1)]
    )
    return v.reshape((len(x) * nb,) * d)


def _tuple_names(factors: Sequence[Sequence[str]]) -> list[str] | None:
    """The names "(p,q,...)" of the tuples of the factors' element names, or
    None when two of them are equal (as for "a" and "a,a")."""
    names = ["(" + ",".join(c) + ")" for c in itertools.product(*factors)]
    return names if len(set(names)) == len(names) else None


def _escaped(names: Sequence[str]) -> list[str]:
    # with backslashes and commas escaped, the bare commas of a tuple name
    # separate its parts, so distinct tuples get distinct names
    return [e.replace("\\", "\\\\").replace(",", "\\,") for e in names]


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product; both factors must have negation, or neither.  The pair
    (i, j) is element ``i * b.size + j``, named "(p,q)" (with the factors'
    commas and backslashes escaped if that would make two names equal)."""
    if (a.arrays()[2] is None) != (b.arrays()[2] is None):
        raise ValidationError("cannot form a product of a <2,2,1> and a <2,2> algebra")
    names = _tuple_names([a.elements, b.elements]) or _tuple_names(
        [_escaped(a.elements), _escaped(b.elements)]
    )
    (am, aj, an), (bm, bj, bn) = a.arrays(), b.arrays()
    neg = None if an is None else _pair(an, bn)
    return FiniteAlgebra(f"{a.name}x{b.name}", names, _pair(am, bm), _pair(aj, bj), neg)


def power(a: FiniteAlgebra, k: int) -> FiniteAlgebra:
    """Direct power with flat tuple names "(a,b,...)", built as one algebra.
    Element ``x`` has the digits of ``x`` in base ``a.size`` as coordinates,
    the first most significant, as in ``product(product(a, a), a)``;
    parentheses inside the factor's names are dropped unless that makes two
    names equal, and commas and backslashes escaped if even the whole names
    collide."""
    if k < 1:
        raise ValidationError("power needs k >= 1")
    if k == 1:
        return a
    out = tables = a.arrays()
    for _ in range(k - 1):
        out = tuple(None if t is None else _pair(o, t) for o, t in zip(out, tables))
    bare = [e.replace("(", "").replace(")", "") for e in a.elements]
    names = (
        _tuple_names([bare] * k)
        or _tuple_names([a.elements] * k)
        or _tuple_names([_escaped(a.elements)] * k)
    )
    return FiniteAlgebra(f"{a.name}^{k}", names, *out)


def subalgebra_generated(
    algebra: FiniteAlgebra, seed: Iterable[str | int]
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Smallest subuniverse containing `seed`, as an algebra plus inclusion.

    The returned tuple maps local indices to parent indices; element names are
    inherited, and the local order follows the parent order.
    """
    idx = {algebra.index(e) for e in seed}
    if not idx:
        raise ValidationError("seed must be nonempty")
    inclusion = tuple(sorted(_closure(algebra, idx)))
    label = np.full(algebra.size, -1)
    label[list(inclusion)] = range(len(inclusion))
    names = [algebra.elements[p] for p in inclusion]
    name = f"<{algebra.name}:{len(inclusion)}>"
    return _induced(name, names, algebra.arrays(), inclusion, label), inclusion


def _closure(A: FiniteAlgebra, seed: set[int]) -> set[int]:
    # smallest subuniverse containing seed; each round combines the elements
    # found in the last round with everything found so far
    meet, join, neg = A.meet, A.join, A.neg
    current = set(seed)
    fresh = set(seed)
    while fresh:
        new = set()
        for a in fresh:
            if neg is not None:
                new.add(neg[a])
            for b in current:
                new.add(meet[a][b])
                new.add(meet[b][a])
                new.add(join[a][b])
                new.add(join[b][a])
        fresh = new - current
        current |= fresh
    return current


def _induced(
    name: str,
    names: Sequence[str],
    tables: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    keep: Sequence[int],
    label: Sequence[int] | np.ndarray,
) -> FiniteAlgebra:
    """The algebra whose (meet, join, neg) tables are `tables` read on the
    elements `keep`, in that order, with every value v renamed ``label[v]``.

    Subalgebras, quotients, permutations and decomposition slices are all
    built here; `FiniteAlgebra` checks that the result is well formed."""
    keep = np.asarray(keep, dtype=np.intp)
    label = np.asarray(label, dtype=np.intp)
    meet, join, neg = tables
    square = np.ix_(keep, keep)
    neg = None if neg is None else label[neg[keep]]
    return FiniteAlgebra(name, names, label[meet[square]], label[join[square]], neg)


# ---------------------------------------------------------------------------
# congruences

CONGRUENCE_SIZE_LIMIT = 32
#: most congruences `congruences` lists: the count, not the carrier, sets
#: the work, and 32 elements can have far more (IS2^5 has 32 elements)
CONGRUENCE_COUNT_LIMIT = 1 << 16


@dataclass(frozen=True)
class Congruence:
    """A congruence, stored as a canonical partition.

    ``block_of[x]`` is the block id of element x; ids are numbered by first
    occurrence, so equal partitions are equal tuples.  ``blocks`` groups the
    element indices.

    The constructor takes ``block_of`` as given; :func:`quotient`,
    :func:`join_partitions`, :func:`meet_partitions`, :meth:`refines` and
    :func:`si_quotient_flags` raise ValidationError on ids that are not
    integers numbered by first occurrence, and all but :func:`quotient` on
    partitions of different sizes.  :meth:`from_blocks` builds the
    canonical form from any list of blocks of element indices; an index
    outside ``range(n)``, negative ones included, raises ValidationError, as
    do overlapping blocks and blocks that miss an element.
    """

    block_of: tuple[int, ...]

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Congruence":
        blocks = [[operator.index(x) for x in b] for b in blocks]
        members = [x for b in blocks for x in b]
        if any(not 0 <= x < n for x in members):
            raise ValidationError(f"block element out of range [0,{n})")
        count = np.bincount(np.array(members, dtype=np.intp), minlength=n)
        if (count > 1).any():
            raise ValidationError("blocks overlap")
        if (count == 0).any():
            raise ValidationError("blocks must cover every element")
        bo = np.empty(n, dtype=np.intp)
        bo[members] = [i for i, b in enumerate(blocks) for _ in b]
        return _partition(bo)

    @property
    def size(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def is_identity(self) -> bool:
        return self.num_blocks == self.size

    def is_total(self) -> bool:
        return self.num_blocks == 1

    def refines(self, other: "Congruence") -> bool:
        # self refines other when its meet with other is self
        return meet_partitions(self, other) == self


# ---------------------------------------------------------------------------
# partition labels: one integer per element, or one partition per row of a
# 2-D array, equal exactly within a block: least-element labels (`_least`),
# block ids numbered by first occurrence (`_canonical`) or any integer codes

def _least(labels: np.ndarray) -> np.ndarray:
    """The index of the first element with the same label, along the last
    axis: for labels that int64 holds, 1-D or one partition per row, or for
    the `_row_keys` items of a matrix.  One `np.unique` over all the rows,
    each offset past the labels of the one before."""
    flat = labels
    if labels.ndim == 2 and labels.size:
        span = int(labels.max()) + 1
        if labels.min() < 0 or span * len(labels) >= 1 << 63:
            # negative or huge labels: number them first, so offsets fit
            flat, span = np.unique(labels, return_inverse=True)[1], labels.size
            flat = flat.reshape(labels.shape)
        flat = flat + (np.arange(len(labels)) * span)[:, None]
    _, first, inverse = np.unique(flat.ravel(), return_index=True, return_inverse=True)
    return first[inverse].reshape(labels.shape) % max(labels.shape[-1], 1)


def _canonical(lab: np.ndarray) -> np.ndarray:
    """Least-element labels (1-D or per row) as block ids numbered by first
    occurrence: the block of least element x is the number of blocks opened
    before x."""
    rank = np.cumsum(lab == np.arange(lab.shape[-1]), axis=-1) - 1
    return np.take_along_axis(rank, lab.astype(np.intp, copy=False), axis=-1)


def _meet(*labels: np.ndarray) -> np.ndarray:
    """int64 labels of the meet of the partitions `labels` (integer arrays
    of one shape, 1-D or per row): equal exactly where every array's labels
    are.  The arrays are the digits of a mixed-radix code, the first most
    significant; a digit outside ``[0, 2**31)`` is read through `_least`,
    and the code is renumbered by `_least` only when the next digit could
    overflow it."""
    code, top = np.zeros(labels[0].shape, dtype=np.int64), 0  # top >= code
    for x in labels:
        if x.size and not 0 <= x.min() <= x.max() < 1 << 31:
            x = _least(x)
        radix = int(x.max(initial=0)) + 1
        if (top + 1) * radix > 1 << 63:
            code, top = _least(code), code.shape[-1] - 1
        code, top = code * radix + x, top * radix + radix - 1
    return code


def _partition(labels: np.ndarray) -> Congruence:
    # the partition that 1-D labels (integers or `_row_keys` items) induce
    return Congruence(tuple(_canonical(_least(labels)).tolist()))


_NOT_CANONICAL = "partition block ids must be numbered by first occurrence"


def _require_canonical_rows(B: np.ndarray) -> np.ndarray:
    """``_least(B)``, after raising unless `B` holds integers and each row
    numbers its blocks by first occurrence: ``_canonical(_least(B)) == B``.
    The public partition operations read block ids in this form; the
    engine's own rows are canonical by construction and skip the check."""
    if B.size and B.dtype.kind not in "iu":
        raise ValidationError(_NOT_CANONICAL)
    first = _least(B)
    if not np.array_equal(_canonical(first), B):
        raise ValidationError(_NOT_CANONICAL)
    return first


def _ops_of(A: FiniteAlgebra) -> list[tuple[int, Sequence]]:
    meet, join, neg = A.arrays()
    return [(2, meet), (2, join)] + ([] if neg is None else [(1, neg)])


def _components(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component in the graph on
    ``range(size)`` with the edges ``(u[e], v[e])``.  Until the ends of
    every edge agree, each pass lowers both ends to the lesser label (a
    scatter-min), then gives each vertex the label of its label (pointer
    jumping): labels only fall, and stay inside the component."""
    lab = np.arange(size)
    lu, lv = u, v
    while not np.array_equal(lu, lv):
        np.minimum.at(lab, u, lv)
        np.minimum.at(lab, v, lu)
        lab = lab[lab]
        lu, lv = lab[u], lab[v]
    return lab


def _joins_above(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] ∨ b`` for each row i of `a`, in order, that `b` does not
    refine, all as least-element label rows.  Element x links the least
    elements of the a-blocks of x and of ``b[x]``; only those are merged."""
    linked = a[:, b]  # the a-label of b[x]
    rows = (linked != a).any(axis=1)
    a, linked = a[rows], linked[rows]
    m, n = a.shape
    base = (np.arange(m) * n)[:, None]
    u, v = a + base, linked + base
    moved = u != v
    lab = _components(m * n, u[moved], v[moved])
    return (lab[u] - base).astype(a.dtype)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    # one fixed-width bytes item per row, so that np.unique compares rows;
    # rows of no entries read as one zero byte each, so each still has an item
    rows = np.ascontiguousarray(rows if rows.shape[1] else np.zeros((len(rows), 1), np.int8))
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _distinct(rows: np.ndarray) -> np.ndarray:
    return rows[np.unique(_row_keys(rows), return_index=True)[1]]


def _principal_rows(n: int, ops: Sequence[tuple[int, Sequence]]) -> np.ndarray:
    """Cg(a, b) for every pair a < b, in ``np.triu_indices`` order, as
    least-element label rows.  By Mal'cev's lemma Cg(a, b) is generated by
    the images of {a, b} under composed translations x -> f(x, c), f(c, x),
    ~x: the pairs reachable from {a, b} in the graph of unordered pairs whose
    edges are single translations (columns only for a table that is not
    symmetric; images of two equal elements are dropped)."""
    if n > CONGRUENCE_SIZE_LIMIT:
        raise ValidationError(
            f"congruence enumeration limited to {CONGRUENCE_SIZE_LIMIT} elements, got {n}"
        )
    pa, pb = np.triu_indices(n, 1)
    m = len(pa)
    if m == 0:
        return np.zeros((0, n), dtype=np.int8)
    pid = np.full((n, n), m)  # column m collects the dropped images
    pid[pa, pb] = pid[pb, pa] = np.arange(m)
    targets = [np.empty((m, 0), dtype=np.intp)]
    for arity, table in ops:
        t = np.asarray(table, dtype=np.intp)
        for t in (t, t.T) if arity == 2 and not (t == t.T).all() else (t,):
            targets.append(pid[t[pa], t[pb]].reshape(m, t.size // n))
    reach = np.zeros((m, m + 1), dtype=bool)
    reach[np.arange(m)[:, None], np.hstack(targets)] = True
    reach = np.ascontiguousarray(reach[:, :m])
    np.fill_diagonal(reach, True)
    nxt = _boolean_product(reach, reach)
    while not np.array_equal(nxt, reach):  # reflexive-transitive closure
        reach, nxt = nxt, _boolean_product(nxt, nxt)
    # row r is the equivalence generated by the pairs it reaches
    r, k = np.nonzero(reach)
    lab = _components(m * n, r * n + pa[k], r * n + pb[k]).reshape(m, n)
    return (lab - (np.arange(m) * n)[:, None]).astype(np.int8)


def _boolean_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The boolean matrix product of x and y by table lookup (the "four
    Russians" method): the rows of y go 8 to a block, each block tabulates
    the OR of each of its 256 subsets of rows, 64 columns to a word, and
    each byte of a row of x picks one subset per block."""
    q, r = y.shape
    words = np.zeros((q + -q % 8, -(-r // 64)), dtype=np.uint64)
    words.view(np.uint8)[:q, : -(-r // 8)] = np.packbits(y, axis=1, bitorder="little")
    blocks = words.reshape(-1, 8, words.shape[1])
    table = np.zeros((len(blocks), 256, words.shape[1]), dtype=np.uint64)
    for j in range(8):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] | blocks[:, j, None]
    picks = np.packbits(x, axis=1, bitorder="little")
    out = np.empty((len(x), words.shape[1]), dtype=np.uint64)
    step = max(1, _BATCH // max(words.size // 8, 1))  # rows of x per lookup
    for lo in range(0, len(x), step):
        chosen = table[np.arange(len(blocks)), picks[lo : lo + step]]
        out[lo : lo + step] = np.bitwise_or.reduce(chosen, axis=1)
    return np.unpackbits(out.view(np.uint8), axis=1, count=r, bitorder="little") > 0


def _block_rows(parts: Sequence[Congruence]) -> np.ndarray:
    # the block ids of partitions of one set, one row each
    sizes = sorted({c.size for c in parts})
    if len(sizes) > 1:
        raise ValidationError(f"cannot compare partitions of {sizes[0]} and {sizes[-1]} elements")
    return np.array([c.block_of for c in parts])


def join_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Transitive closure of the union; for congruences this is their join."""
    lab = _require_canonical_rows(_block_rows([p, q]))
    j = _joins_above(lab[:1], lab[1])
    return Congruence(tuple(_canonical(j)[0].tolist())) if len(j) else p


def meet_partitions(p: Congruence, q: Congruence) -> Congruence:
    return _partition(_meet(*_require_canonical_rows(_block_rows([p, q]))))


def is_congruence(algebra: FiniteAlgebra, part: Congruence) -> bool:
    """Is the partition compatible with every operation?"""
    return part.size == algebra.size and _compatible(algebra.arrays(), part.block_of)


def _compatible(tables: Iterable[np.ndarray | None], block_of: Sequence[int]) -> bool:
    """Do the operation tables (None skipped) preserve the partition
    `block_of`?  Each element is compared with the first element of its
    block, row- and column-wise."""
    bo = np.asarray(block_of)
    rep = _least(bo)
    for table in tables:
        if table is None:
            continue
        img = bo[table]
        if not (img == img[rep]).all():
            return False
        if img.ndim == 2 and not (img == img[:, rep]).all():
            return False
    return True


def congruences_ops(n: int, ops: Sequence[tuple[int, Sequence]]) -> list[Congruence]:
    """All congruences of the algebra on ``range(n)`` with the operations
    `ops`, ``(arity, table)`` pairs: the joins of sets of principal ones
    (:func:`_principal_rows`).  Starting from the identity, each principal
    in turn is joined with every congruence found so far, ``_BATCH // n``
    int8 least-element label rows at a time; only the final distinct rows
    become `Congruence` objects, identity first and total last (most
    blocks first, then by block ids).  More than ``CONGRUENCE_COUNT_LIMIT``
    congruences after any principal's joins raise ValidationError."""
    prin = _distinct(_principal_rows(n, ops))
    found = np.arange(n, dtype=np.int8)[None]  # sorted by _row_keys
    per = _BATCH // n
    # finer principals first, so a principal that is the join of those below
    # it is already found, and adds nothing
    for p in prin[np.argsort(-(prin == np.arange(n)).sum(axis=1), kind="stable")]:
        keys, key = _row_keys(found), _row_keys(p[None])
        at = min(np.searchsorted(keys, key)[0], len(keys) - 1)
        if keys[at] == key[0]:
            continue
        # found stays the set of joins of the principals taken so far
        rows = [found]
        rows += [_joins_above(found[lo : lo + per], p) for lo in range(0, len(found), per)]
        keys = np.concatenate([_row_keys(r) for r in rows])
        found = np.vstack(rows)[np.unique(keys, return_index=True)[1]]
        if len(found) > CONGRUENCE_COUNT_LIMIT:
            raise ValidationError(
                f"congruence enumeration limited to {CONGRUENCE_COUNT_LIMIT} "
                f"congruences, found {len(found)} so far"
            )
    out = [Congruence(tuple(c)) for c in _canonical(found).tolist()]
    return sorted(out, key=lambda c: (-c.num_blocks, c.block_of))


def si_quotient_flags(cons: Sequence[Congruence]) -> list[bool]:
    """For every congruence θ of one algebra S, given as the full list
    ``congruences(S)``: is S/θ subdirectly irreducible?

    By the correspondence theorem Con(S/θ) is the interval [θ, ∇] of Con(S),
    so S/θ is subdirectly irreducible exactly when θ is total or has a single
    upper cover.
    """
    m = len(cons)
    if m == 0:
        return []
    B = _block_rows(cons)
    first = _require_canonical_rows(B)
    # leq[i, j]: cons[i] refines cons[j], i.e. each element's cons[j]-block
    # holds the first element of its cons[i]-block
    leq = np.empty((m, m), dtype=bool)
    step = max(1, _BATCH // (m * B.shape[1]))
    for lo in range(0, m, step):
        leq[lo : lo + step] = (B[:, first[lo : lo + step]] == B[:, None, :]).all(axis=2).T
    strict = leq & ~np.eye(m, dtype=bool)
    n_covers = (strict & ~_boolean_product(strict, strict)).sum(axis=1)
    return [bool(k == 1 or c.is_total()) for k, c in zip(n_covers, cons)]


def congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """Every congruence of the algebra, identity first, total last.  Raises
    ValidationError above ``CONGRUENCE_SIZE_LIMIT`` elements or
    ``CONGRUENCE_COUNT_LIMIT`` congruences."""
    return congruences_ops(algebra.size, _ops_of(algebra))


def principal_congruence(algebra: FiniteAlgebra, a: str | int, b: str | int) -> Congruence:
    """Cg(a,b): the least congruence identifying a and b, one row of
    :func:`_principal_rows` (so limited, like :func:`congruences`, to
    ``CONGRUENCE_SIZE_LIMIT`` elements unless a and b are equal)."""
    n = algebra.size
    i, j = sorted((algebra.index(a), algebra.index(b)))
    if i == j:
        return Congruence(tuple(range(n)))
    rows = _principal_rows(n, _ops_of(algebra))
    k = i * (2 * n - i - 1) // 2 + j - i - 1  # the pair (i, j) in triu order
    return Congruence(tuple(_canonical(rows[k]).tolist()))


def is_subdirectly_irreducible(algebra: FiniteAlgebra) -> bool:
    """True when the algebra has a least nontrivial congruence: the identity
    congruence's entry of ``si_quotient_flags(congruences(algebra))``, so
    limited to ``CONGRUENCE_SIZE_LIMIT`` elements and
    ``CONGRUENCE_COUNT_LIMIT`` congruences.  One-element algebras count as
    subdirectly irreducible (the usual convention: they have no pair of
    distinct congruences to separate)."""
    if algebra.size == 1:
        return True
    return si_quotient_flags(congruences(algebra))[0]


def quotient(algebra: FiniteAlgebra, part: Congruence) -> FiniteAlgebra:
    _require_canonical_rows(np.array([part.block_of]))
    if not is_congruence(algebra, part):
        raise ValidationError("partition is not a congruence of the algebra")
    blocks = part.blocks
    names = [
        "{" + ",".join(algebra.elements[x] for x in b) + "}" if len(b) > 1
        else algebra.elements[b[0]]
        for b in blocks
    ]
    reps = [b[0] for b in blocks]
    return _induced(f"{algebra.name}/~", names, algebra.arrays(), reps, part.block_of)


# ---------------------------------------------------------------------------
# homomorphisms and isomorphism

def _generating_set(A: FiniteAlgebra) -> list[int]:
    # greedy small generating set
    gens: list[int] = []
    have: set[int] = set()
    while len(have) < A.size:
        # pick the element whose addition grows the closure the most
        best, best_cl = None, None
        for x in range(A.size):
            if x in have:
                continue
            cl = _closure(A, have | {x})
            if best_cl is None or len(cl) > len(best_cl):
                best, best_cl = x, cl
        gens.append(best)  # type: ignore[arg-type]
        have = best_cl  # type: ignore[assignment]
    return gens


def _colors(A: FiniteAlgebra) -> list[int]:
    # iterated structural refinement; the re-encoding sorts the distinct keys
    # so that equal structures get equal colors in *different* algebras.  The
    # seed ranks isomorphism invariants: fixpoint of neg, and how many y have
    # x /\ y = x and x \/ y = x
    n = A.size
    meet, join, neg = A.arrays()
    ar = np.arange(n)
    seed = list(zip(
        [False] * n if neg is None else (neg == ar).tolist(),
        (meet == ar[:, None]).sum(axis=1).tolist(),
        (join == ar[:, None]).sum(axis=1).tolist(),
    ))
    meet, join, neg = A.meet, A.join, A.neg
    seed_ranks = {k: r for r, k in enumerate(sorted(set(seed)))}
    colors: list[int] = [seed_ranks[k] for k in seed]
    for _ in range(n):
        nxt = []
        for x in range(n):
            row = sorted(
                (colors[y], colors[meet[x][y]], colors[meet[y][x]],
                 colors[join[x][y]], colors[join[y][x]])
                for y in range(n)
            )
            key = (colors[x], colors[neg[x]] if neg is not None else -1, tuple(row))
            nxt.append(key)
        ranks = {k: r for r, k in enumerate(sorted(set(nxt)))}
        fresh = [ranks[k] for k in nxt]
        if fresh == colors:
            break
        colors = fresh
        if len(ranks) == n:
            break
    return colors


def isomorphism_key(A: FiniteAlgebra) -> tuple:
    """An isomorphism invariant: isomorphic algebras get equal keys, so
    :func:`is_isomorphic` need only compare algebras with the same key."""
    return (A.size, A.neg is None, tuple(sorted(_memoised(A, _colors))))


def _homomorphisms(
    A: FiniteAlgebra, B: FiniteAlgebra, images: Callable[[int, list[int]], Iterable[int]]
) -> Iterator[tuple[int, ...]]:
    """Every homomorphism A -> B (the tuple of images of A's elements) that
    sends each generator g into ``images(g, f)``, f the partial map so far
    (-1 where unset), in the lexicographic order of the candidates;
    negation counts only if B has one too."""
    if B.arrays()[2] is None and A.arrays()[2] is not None:
        A = FiniteAlgebra(A.name, A.elements, *A.arrays()[:2])
    gens = _memoised(A, _generating_set)
    ops = ((A.meet, B.meet), (A.join, B.join))
    aneg, bneg = A.neg, B.neg

    def extend(f: list[int], g: int, u: int) -> list[int] | None:
        # semi-naive closure: each round pairs the elements the last round
        # mapped with every mapped element, both ways round
        f = f.copy()
        f[g], fresh = u, [g]
        while fresh:
            dom, new = [b for b, y in enumerate(f) if y >= 0], []
            for a in fresh:
                x = f[a]
                forced = [] if aneg is None else [(aneg[a], bneg[x])]
                for b in dom:
                    for at, bt in ops:
                        forced += ((at[a][b], bt[x][f[b]]), (at[b][a], bt[f[b]][x]))
                for s, t in forced:
                    if f[s] < 0:
                        f[s] = t
                        new.append(s)
                    elif f[s] != t:
                        return None
            fresh = new
        return f

    def place(i: int, f: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(gens):
            yield tuple(f)
            return
        for u in images(gens[i], f):
            grown = extend(f, gens[i], u)
            if grown is not None:
                yield from place(i + 1, grown)

    return place(0, [-1] * A.size)


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> dict[str, str] | None:
    """An isomorphism as a name->name dict (keys in a's order), or None:
    the first bijection ``_homomorphisms`` yields, each generator of a sent
    to an unused element of b of its colour, in b's index order.  Algebras
    with different :func:`isomorphism_key` are not searched."""
    if isomorphism_key(a) != isomorphism_key(b):
        return None
    ca, cb = _memoised(a, _colors), _memoised(b, _colors)
    by_color: dict[int, list[int]] = {}
    for x in range(b.size):
        by_color.setdefault(cb[x], []).append(x)

    def images(g: int, f: list[int]) -> list[int]:
        taken = set(f)
        return [y for y in by_color[ca[g]] if y not in taken]

    for f in _homomorphisms(a, b, images):
        if len(set(f)) == a.size:
            return {a.elements[x]: b.elements[y] for x, y in enumerate(f)}
    return None


# ---------------------------------------------------------------------------
# duality and class membership

def dual(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Same carrier, meet and join tables swapped."""
    meet, join, neg = algebra.arrays()
    return FiniteAlgebra(f"{algebra.name}^op", algebra.elements, join, meet, neg)


def _parse_axioms(texts: Sequence[str]) -> tuple[Identity, ...]:
    from .terms import parse_identity

    return tuple(parse_identity(t) for t in texts)


_BISEMILATTICE = (
    "x /\\ x = x",
    "x /\\ y = y /\\ x",
    "(x /\\ y) /\\ z = x /\\ (y /\\ z)",
    "x \\/ x = x",
    "x \\/ y = y \\/ x",
    "(x \\/ y) \\/ z = x \\/ (y \\/ z)",
)
_DISTRIBUTIVITY = (
    "x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)",
    "x \\/ (y /\\ z) = (x \\/ y) /\\ (x \\/ z)",
)
_ABSORPTION = (
    "x /\\ (x \\/ y) = x",
    "x \\/ (x /\\ y) = x",
)
_DE_MORGAN = (
    "~~x = x",
    "~(x /\\ y) = ~x \\/ ~y",
    "~(x \\/ y) = ~x /\\ ~y",
)

_CLASS_AXIOMS: dict[str, tuple[tuple[str, ...], bool]] = {
    # name -> (axioms, needs negation)
    "distributive lattice": (_BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY, False),
    "distributive bisemilattice": (_BISEMILATTICE + _DISTRIBUTIVITY, False),
    "De Morgan bisemilattice": (_BISEMILATTICE + _DISTRIBUTIVITY + _DE_MORGAN, True),
    "De Morgan lattice": (
        _BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY + _DE_MORGAN,
        True,
    ),
    "involutive semilattice": (
        _BISEMILATTICE + _DISTRIBUTIVITY + _DE_MORGAN + ("x /\\ y = x \\/ y",),
        True,
    ),
    "Kleene lattice": (
        _BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY + _DE_MORGAN
        + ("(x /\\ ~x) /\\ (y \\/ ~y) = x /\\ ~x",),
        True,
    ),
    "Boolean-algebra-reduct": (
        _BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY + _DE_MORGAN
        + ("x /\\ (y \\/ ~y) = x",),
        True,
    ),
}

ALGEBRA_CLASSES = tuple(_CLASS_AXIOMS)


@lru_cache(maxsize=None)
def _class_program(cls: str) -> _Program:
    axioms = _parse_axioms(_CLASS_AXIOMS[cls][0])
    return _program(tuple(side for e in axioms for side in (e.lhs, e.rhs)), True)


def is_class(algebra: FiniteAlgebra, cls: str) -> bool:
    """Does the algebra lie in one of the named equational classes?

    Classes: distributive lattice, distributive bisemilattice, De Morgan
    bisemilattice, De Morgan lattice, involutive semilattice, Kleene lattice,
    Boolean-algebra-reduct.

    The class's axioms are compiled into one program, run once over the
    assignments of their variables, each axiom's sides compared as soon as
    both exist and then dropped.  The verdict is kept in the algebra's memo
    (:func:`_memoised`), so asking again of the same object evaluates
    nothing.
    """
    if cls not in _CLASS_AXIOMS:
        raise ValidationError(
            f"unknown class {cls!r}; expected one of {', '.join(_CLASS_AXIOMS)}"
        )
    return _memoised(algebra, _class_verdict, cls)


def _class_verdict(A: FiniteAlgebra, cls: str) -> bool:
    # is_class, computed: one scan of the class's program
    needs_neg = _CLASS_AXIOMS[cls][1]
    return not (needs_neg and A.arrays()[2] is None) and _scan(A, _class_program(cls)) is None


def _check_fibres(fibres: Iterable[FiniteAlgebra]) -> None:
    """Put the distributive-lattice verdict of each fibre of a sum system
    (for ``sums.validate``) in its memo, where `is_class` keeps it.  The
    class's program runs once over the in-fibre assignments of the distinct
    tables without one, stacked on their block-diagonal tables, which a
    fibre's values never leave; the rows and the tables' entries stay within
    ``_BLOCK``.  `is_class` checks the rest, and names the failing tables
    one by one when that run fails."""
    cls = "distributive lattice"
    key = (_class_verdict, cls)
    todo: dict[tuple, list[FiniteAlgebra]] = {}
    for F in fibres:
        if key not in F._memo:
            m, j, _ = F.arrays()  # equal bytes are equal sizes and tables
            todo.setdefault((m.tobytes(), j.tobytes()), []).append(F)
    sizes = np.array([same[0].size for same in todo.values()], dtype=np.int64)
    fits = (np.cumsum(sizes**3) <= _BLOCK) & (np.cumsum(sizes) ** 2 <= _BLOCK)
    batch = [same for same, fit in zip(todo.values(), fits) if fit]
    if not batch:
        return
    off = np.cumsum([0] + [same[0].size for same in batch])
    meet = np.zeros((off[-1], off[-1]), dtype=np.int16)  # 0 off the blocks
    join = meet.copy()
    for o, same in zip(off, batch):
        m, j, _ = same[0].arrays()
        block = slice(o, o + len(m))
        meet[block, block], join[block, block] = m + o, j + o
    cubes = [o + np.indices((same[0].size,) * 3).reshape(3, -1) for o, same in zip(off, batch)]
    grids = list(np.concatenate(cubes, axis=1).astype(np.int16))
    dot = np.take_along_axis(meet, join.astype(np.intp), axis=1)
    run = _run(None, _class_program(cls), grids, tables=(None, None, meet, join, dot))
    for same in batch:
        verdict = run is None or is_class(same[0], cls)
        for F in same:
            F._memo[key] = verdict


# ---------------------------------------------------------------------------
# JSON round trip

def algebra_to_json(algebra: FiniteAlgebra) -> dict:
    meet, join, neg = algebra.arrays()
    return {
        "name": algebra.name,
        "elements": list(algebra.elements),
        "meet": meet.tolist(),
        "join": join.tolist(),
        "neg": None if neg is None else neg.tolist(),
    }


def algebra_from_json(data: Mapping) -> FiniteAlgebra:
    if not isinstance(data, Mapping):
        raise ValidationError("algebra JSON must be an object")
    try:
        elements = data["elements"]
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise ValidationError("algebra JSON 'elements' must be a list of strings")
        return FiniteAlgebra(
            data["name"], elements, data["meet"], data["join"], data.get("neg")
        )
    except KeyError as exc:
        raise ValidationError(f"algebra JSON missing key {exc}") from None


def save_algebra(algebra: FiniteAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path, encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
