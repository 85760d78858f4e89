"""Plain-loop oracles shared by the tests: slow, independent re-readings of
what the package computes with arrays."""

from __future__ import annotations

from typing import Mapping

from dmbl.finalg import FiniteAlgebra, ValidationError
from dmbl.terms import Meet, Neg, Term, Var


def eval_term(algebra: FiniteAlgebra, term: Term, assignment: Mapping[str, str | int]) -> str:
    """Evaluate `term` under `assignment` (names or indices); returns a name.
    A recursive walk over the tables, raising the error it meets first in
    pre-order: a variable without an assignment, or a ``~`` in an algebra
    without negation."""

    def value(t: Term) -> int:
        if isinstance(t, Var):
            if t.name not in assignment:
                raise ValidationError(f"no assignment for variable {t.name!r}")
            return algebra.index(assignment[t.name])
        if isinstance(t, Neg):
            if algebra.neg is None:
                raise ValidationError(f"term uses ~ but {algebra.name} has no negation")
            return algebra.neg[value(t.child)]
        table = algebra.meet if isinstance(t, Meet) else algebra.join
        return table[value(t.left)][value(t.right)]

    return algebra.elements[value(term)]
