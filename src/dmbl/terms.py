r"""Terms and identities in the signature (meet, join, negation).

Grammar accepted by :func:`parse` (whitespace is insignificant)::

    identity ::= term ("=" | "~~" unicode approx) term
    term     ::= chain
    chain    ::= unary (op unary)*          -- op all "/\\" or all "\\/"
    unary    ::= "~"* atom
    atom     ::= variable | "(" term ")" | "up" "(" term ")" | "dn" "(" term ")"

Meet and join chains are left-associative, but the two operations do not
associate with each other: ``x /\ y \/ z`` is rejected, parenthesise instead.
``up(t)`` and ``dn(t)`` are sugar for ``t \/ ~t`` and ``t /\ ~t``; the names
``up`` and ``dn`` are reserved.  The unicode spellings ``∧ ∨ ¬ ≈`` are accepted
on input; printing always uses the ASCII forms.
A term more than ``MAX_DEPTH`` (200) operations deep, or with parentheses
nested deeper than that, is rejected with a :class:`ParseError`; so is a term
whose tree, with every ``up``/``dn`` expanded, has more than ``MAX_NODES``
(100000) nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union


class ParseError(ValueError):
    """Raised on malformed input; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class Term:
    """Base class for term nodes. Instances are immutable and hashable.

    A node's hash is the dataclass hash of its fields, computed once when it
    is built, from its children's kept hashes.  It is not pickled (a str
    hash differs between processes): an unpickled node computes it again on
    first use."""

    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        fields = tuple(getattr(self, f) for f in self.__match_args__)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self.__post_init__()
            return self._hash

    def __invert__(self) -> "Term":
        return Neg(self)

    def __and__(self, other: "Term") -> "Term":
        return Meet(self, other)

    def __or__(self, other: "Term") -> "Term":
        return Join(self, other)

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    __hash__ = Term.__hash__


@dataclass(frozen=True, slots=True)
class Neg(Term):
    child: Term
    __hash__ = Term.__hash__


@dataclass(frozen=True, slots=True)
class Meet(Term):
    left: Term
    right: Term
    __hash__ = Term.__hash__


@dataclass(frozen=True, slots=True)
class Join(Term):
    left: Term
    right: Term
    __hash__ = Term.__hash__


@dataclass(frozen=True, slots=True)
class Identity:
    """An equation between two terms. Classification treats it symmetrically."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return print_identity(self)


@dataclass(frozen=True, slots=True)
class PolaritySets:
    """Variable sets of a term: all occurrences, and split by polarity.

    ``positive`` holds variables with at least one occurrence under an even
    number of negations, ``negative`` those with an odd-depth occurrence.
    ``plain == positive | negative`` always.
    """

    plain: frozenset[str]
    positive: frozenset[str]
    negative: frozenset[str]


class IdentityClass(Enum):
    REGULAR = "regular"
    BALANCED_REGULAR = "balanced-regular"
    BIPOLAR = "bipolar"
    BIPOLARLY_BALANCED = "bipolarly-balanced"
    REGULAR_BIPOLARLY_BALANCED = "regular-bipolarly-balanced"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<meet>/\\|∧)
      | (?P<join>\\/|∨)
      | (?P<neg>~|¬)
      | (?P<eq>=|≈)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)

_RESERVED = ("up", "dn")

# deepest term, and deepest nesting of parentheses, that the parser accepts;
# everything downstream walks terms recursively
MAX_DEPTH = 200
# most nodes in a term's expanded tree: up(t) and dn(t) hold t twice, so
# nested ones double the tree, and tree walks see every copy
MAX_NODES = 100_000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.parens = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        """Consume the next token, which must be of the given kind."""
        tok = self.peek()
        if tok is None or tok[0] != kind:
            pos = tok[2] if tok is not None else len(self.text)
            raise ParseError(f"expected {what}", pos)
        return self.next()

    @staticmethod
    def bounded(depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    @staticmethod
    def sized(nodes: int, pos: int) -> int:
        if nodes > MAX_NODES:
            raise ParseError(f"term expands to more than {MAX_NODES} nodes", pos)
        return nodes

    # term, unary and atom return the term with its depth, the most operations
    # on a path from the root to a variable, and its expanded node count

    def term(self) -> tuple[Term, int, int]:
        left, depth, nodes = self.unary()
        op = None
        while (tok := self.peek()) is not None and tok[0] in ("meet", "join"):
            if op is None:
                op = tok[0]
            elif tok[0] != op:
                raise ParseError("mixed /\\ and \\/ chain needs parentheses", tok[2])
            self.next()
            right, rdepth, rnodes = self.unary()
            depth = self.bounded(max(depth, rdepth) + 1, tok[2])
            nodes = self.sized(nodes + rnodes + 1, tok[2])
            left = Meet(left, right) if op == "meet" else Join(left, right)
        return left, depth, nodes

    def unary(self) -> tuple[Term, int, int]:
        negs = []
        while (tok := self.peek()) is not None and tok[0] == "neg":
            negs.append(self.next()[2])
        t, depth, nodes = self.atom()
        for pos in reversed(negs):
            depth = self.bounded(depth + 1, pos)
            nodes = self.sized(nodes + 1, pos)
            t = Neg(t)
        return t, depth, nodes

    def atom(self) -> tuple[Term, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        kind, value, pos = tok
        if kind == "name":
            self.next()
            if value not in _RESERVED:
                return Var(value), 0, 1
            nxt = self.peek()
            if nxt is None or nxt[0] != "lpar":
                raise ParseError(f"{value!r} is reserved; write {value}(...)", pos)
        elif kind != "lpar":
            raise ParseError("expected a term", pos)
        self.next()
        # the parser recurses once per parenthesis, whatever the term's depth
        self.parens = self.bounded(self.parens + 1, pos)
        t, depth, nodes = self.term()
        self.parens -= 1
        self.expect("rpar", "')'")
        if kind == "lpar":
            return t, depth, nodes
        depth = self.bounded(depth + 2, pos)
        nodes = self.sized(2 * nodes + 2, pos)
        if value == "up":
            return Join(t, Neg(t)), depth, nodes
        return Meet(t, Neg(t)), depth, nodes


def parse_term(text: str) -> Term:
    """Parse a single term; raise :class:`ParseError` with offset on bad input."""
    p = _Parser(text)
    t, _, _ = p.term()
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return t


def parse_identity(text: str) -> Identity:
    p = _Parser(text)
    lhs, _, _ = p.term()
    p.expect("eq", "'='")
    rhs, _, _ = p.term()
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return Identity(lhs, rhs)


def parse(text: str) -> Union[Term, Identity]:
    """Parse either a term or an identity, depending on whether '=' occurs."""
    if any(tok[0] == "eq" for tok in _tokenize(text)):
        return parse_identity(text)
    return parse_term(text)


# ---------------------------------------------------------------------------
# printing

def _atomic(t: Term) -> str:
    # render t, wrapped in parens whenever it is a binary node
    if isinstance(t, (Meet, Join)):
        return f"({print_term(t)})"
    return print_term(t)


def print_term(t: Term) -> str:
    """Render a term; ``parse_term(print_term(t))`` is structurally ``t``."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Neg):
        return "~" + _atomic(t.child)
    if isinstance(t, (Meet, Join)):
        sym = " /\\ " if isinstance(t, Meet) else " \\/ "
        # unfold the left spine: x /\ y /\ z parses back left-associatively
        parts: list[Term] = []
        cls = type(t)
        while isinstance(t, cls):
            parts.append(t.right)
            t = t.left
        parts.append(t)
        parts.reverse()
        return sym.join(_atomic(p) for p in parts)
    raise TypeError(f"not a term: {t!r}")


def print_identity(e: Identity) -> str:
    return f"{print_term(e.lhs)} = {print_term(e.rhs)}"


# ---------------------------------------------------------------------------
# analysis

def subterms(t: Term) -> Iterator[Term]:
    """Yield every subterm, children before parents."""
    if isinstance(t, Neg):
        yield from subterms(t.child)
    elif isinstance(t, (Meet, Join)):
        yield from subterms(t.left)
        yield from subterms(t.right)
    yield t


def term_size(t: Term) -> int:
    """Number of nodes (variables, negations and binary operations)."""
    return sum(1 for _ in subterms(t))


def variables(t: Term) -> frozenset[str]:
    names: set[str] = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            names.add(s.name)
        elif isinstance(s, Neg):
            stack.append(s.child)
        elif isinstance(s, (Meet, Join)):
            stack.append(s.left)
            stack.append(s.right)
    return frozenset(names)


def polarities(t: Term) -> PolaritySets:
    pos: set[str] = set()
    neg: set[str] = set()

    def walk(s: Term, parity: bool) -> None:
        if isinstance(s, Var):
            (pos if parity else neg).add(s.name)
        elif isinstance(s, Neg):
            walk(s.child, not parity)
        else:
            walk(s.left, parity)
            walk(s.right, parity)

    walk(t, True)
    return PolaritySets(frozenset(pos | neg), frozenset(pos), frozenset(neg))


def classify(e: Identity) -> frozenset[IdentityClass]:
    """Syntactic classes of an identity (symmetric in its two sides)."""
    pl, pr = polarities(e.lhs), polarities(e.rhs)
    regular = pl.plain == pr.plain
    balanced = pl.positive == pr.positive and pl.negative == pr.negative
    bipolar = bool(pl.positive & pl.negative) and bool(pr.positive & pr.negative)
    out = set()
    if regular:
        out.add(IdentityClass.REGULAR)
    if balanced:
        out.add(IdentityClass.BALANCED_REGULAR)
    if bipolar:
        out.add(IdentityClass.BIPOLAR)
    if bipolar or balanced:
        out.add(IdentityClass.BIPOLARLY_BALANCED)
    if (bipolar and regular) or balanced:
        out.add(IdentityClass.REGULAR_BIPOLARLY_BALANCED)
    return frozenset(out)


def dualise(t: Term) -> Term:
    """Swap meets and joins throughout. Involutive; polarities are unchanged."""
    if isinstance(t, Var):
        return t
    if isinstance(t, Neg):
        return Neg(dualise(t.child))
    if isinstance(t, Meet):
        return Join(dualise(t.left), dualise(t.right))
    return Meet(dualise(t.left), dualise(t.right))


def dualise_identity(e: Identity) -> Identity:
    return Identity(dualise(e.lhs), dualise(e.rhs))
