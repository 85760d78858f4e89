"""Reference computations the benchmark checks `dmbl` against.

Nothing here calls into `dmbl`: an algebra is read only through its operation
tables (``meet``, ``join``, ``neg`` and ``elements``), and terms are the
benchmark's own nested tuples::

    ("var", name) | ("neg", t) | ("meet", l, r) | ("join", l, r)
"""

from __future__ import annotations

import itertools


def term_text(t) -> str:
    """Render a term in the syntax `dmbl` parses, fully parenthesised."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "neg":
        return "~" + term_text(t[1])
    sym = " /\\ " if kind == "meet" else " \\/ "
    return "(" + term_text(t[1]) + sym + term_text(t[2]) + ")"


def term_vars(t) -> set[str]:
    if t[0] == "var":
        return {t[1]}
    return set().union(*(term_vars(c) for c in t[1:]))


def _eval_columns(algebra, t, columns: dict[str, list[int]]) -> list[int]:
    # one list per node, one entry per assignment
    kind = t[0]
    if kind == "var":
        return columns[t[1]]
    if kind == "neg":
        neg = algebra.neg
        return [neg[x] for x in _eval_columns(algebra, t[1], columns)]
    table = algebra.meet if kind == "meet" else algebra.join
    left = _eval_columns(algebra, t[1], columns)
    right = _eval_columns(algebra, t[2], columns)
    return [table[x][y] for x, y in zip(left, right)]


def identity_holds(algebra, lhs, rhs) -> bool:
    """Does ``lhs = rhs`` hold under every assignment over the algebra?"""
    names = sorted(term_vars(lhs) | term_vars(rhs))
    grid = list(itertools.product(range(len(algebra.elements)), repeat=len(names)))
    columns = {v: [row[k] for row in grid] for k, v in enumerate(names)}
    return _eval_columns(algebra, lhs, columns) == _eval_columns(algebra, rhs, columns)


def evaluate(algebra, t, assignment: dict[str, str]) -> int:
    """Value (an element index) of `t` under an assignment of element names."""
    index = {name: i for i, name in enumerate(algebra.elements)}
    columns = {v: [index[name]] for v, name in assignment.items()}
    return _eval_columns(algebra, t, columns)[0]


def d_classes(algebra) -> set[frozenset[str]]:
    """D-classes of the band x.y = x /\\ (x \\/ y), by brute force.

    In a band a D b exactly when a.b.a = a and b.a.b = b.
    """
    n = len(algebra.elements)
    meet, join = algebra.meet, algebra.join
    dot = [[meet[x][join[x][y]] for y in range(n)] for x in range(n)]
    classes = set()
    for a in range(n):
        cls = frozenset(
            algebra.elements[b]
            for b in range(n)
            if dot[dot[a][b]][a] == a and dot[dot[b][a]][b] == b
        )
        classes.add(cls)
    return classes


def isomorphic_under(source, target, name_map: dict[str, str]) -> list[str]:
    """Problems with `name_map` (source names to target names) as an
    isomorphism, checked table by table; empty when it is one."""
    if sorted(name_map) != sorted(source.elements):
        return ["the map does not cover the source carrier exactly"]
    if sorted(name_map.values()) != sorted(target.elements):
        return ["the map is not a bijection onto the target carrier"]
    t_index = {name: i for i, name in enumerate(target.elements)}
    f = [t_index[name_map[name]] for name in source.elements]
    problems = []
    n = len(source.elements)
    for label, s_tab, t_tab in (
        ("meet", source.meet, target.meet),
        ("join", source.join, target.join),
    ):
        for a in range(n):
            for b in range(n):
                if f[s_tab[a][b]] != t_tab[f[a]][f[b]]:
                    problems.append(
                        f"{label} differs at ({source.elements[a]},{source.elements[b]})"
                    )
                    break
    if (source.neg is None) != (target.neg is None):
        problems.append("only one side has a negation")
    elif source.neg is not None:
        for a in range(n):
            if f[source.neg[a]] != target.neg[f[a]]:
                problems.append(f"neg differs at {source.elements[a]}")
                break
    return problems
