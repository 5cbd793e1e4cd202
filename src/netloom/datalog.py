"""Bottom-up Datalog engine with stratified negation.

The dialect is deliberately small: positive atoms, negated atoms
(keyword ``not``), and the comparison builtins ``=``, ``!=``, ``<``,
``<=`` plus ``norm_eq`` (equality after whitespace trimming and
lowercasing, for matching noisy strings). Constants are strings or
integers; variables start with an uppercase letter or ``_``. There is
no arithmetic in heads and no aggregation.

``Atom`` is rule syntax only. Facts travel as a fact base, a mapping
from predicate name to a set of argument tuples
(``{"edge": {("a", "b")}}``): ``evaluate`` and ``evaluate_naive`` take
one as the EDB and return one holding the derived rows.

``evaluate`` runs a semi-naive fixpoint per stratum. One walk over
each rule's body schedules its literals and writes the source of a
Python function as it goes: nested ``for`` loops over hash-index
lookups, with filters, binds and negation checks inlined where their
variables become bound. The function is compiled once for the first
round and once more per scan of a predicate computed in the stratum,
with that scan reading the delta. These functions are kept per
process, so a rule is compiled again only when it leaves the cache.
A binary predicate whose rules include both ``p(B, A) :- p(A, B).``
and ``p(A, C) :- p(A, B), p(B, C).`` (up to variable names) is
evaluated as disjoint classes instead: those two rules get no
functions, and its cost is linear in the pairs it holds rather than
cubic in a class's size. ``evaluate_naive`` is an intentionally simple
full-rederivation evaluator kept as an independent cross-check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union


class ProgramError(Exception):
    """Base error for rule programs."""


class ParseError(ProgramError):
    """Syntax, safety, or arity error in rule text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class StratificationError(ProgramError):
    """The program has a cycle through negation."""


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


Term = Union[str, int, Variable]


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def variables(self) -> set[str]:
        return {a.name for a in self.args if isinstance(a, Variable)}

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(_format_term(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Negation:
    atom: Atom

    def __str__(self) -> str:
        return f"not {self.atom}"


@dataclass(frozen=True, slots=True)
class Comparison:
    op: str
    left: Term
    right: Term

    def variables(self) -> set[str]:
        out = set()
        for t in (self.left, self.right):
            if isinstance(t, Variable):
                out.add(t.name)
        return out

    def __str__(self) -> str:
        return f"{_format_term(self.left)} {self.op} {_format_term(self.right)}"


BodyLiteral = Union[Atom, Negation, Comparison]


@dataclass(frozen=True, slots=True)
class Rule:
    head: Atom
    body: tuple[BodyLiteral, ...] = ()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(lit) for lit in self.body)}."


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()
    arities: dict[str, int] = field(default_factory=dict)

    def head_predicates(self) -> set[str]:
        return {r.head.predicate for r in self.rules}

    def union(self, other: Program) -> Program:
        """Merge two programs, deduplicating rules and checking arities."""
        arities = dict(self.arities)
        for pred, arity in other.arities.items():
            if arities.setdefault(pred, arity) != arity:
                raise ProgramError(f"arity conflict for {pred}: {arities[pred]} vs {arity}")
        return Program(tuple(dict.fromkeys(self.rules + other.rules)), arities)

    def slice(self, predicates: Iterable[str]) -> Program:
        """The rules that ``predicates`` depend on: those whose heads lie
        in their dependency cone, followed through positive and negated
        body atoms alike. Evaluating the slice derives the same rows of
        ``predicates`` as the whole program. ``arities`` is kept whole,
        so an EDB is checked against the same arities either way."""
        by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            by_head.setdefault(rule.head.predicate, []).append(rule)
        cone: set[str] = set()
        frontier = list(predicates)
        while frontier:
            pred = frontier.pop()
            if pred in cone:
                continue
            cone.add(pred)
            for rule in by_head.get(pred, ()):
                for lit in rule.body:
                    if isinstance(lit, Negation):
                        lit = lit.atom
                    if isinstance(lit, Atom):
                        frontier.append(lit.predicate)
        return Program(tuple(r for r in self.rules if r.head.predicate in cone), self.arities)


def _format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, int):
        return str(t)
    if re.fullmatch(r"[a-z][A-Za-z0-9_]*", t):
        return t
    escaped = t.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<COMMENT>%[^\n]*)
      | (?P<IMPLIES>:-)
      | (?P<NEQ>!=)
      | (?P<LE><=)
      | (?P<LT><)
      | (?P<EQ>=)
      | (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<COMMA>,)
      | (?P<DOT>\.)
      | (?P<INT>-?[0-9]+)
      | (?P<STRING>"(?:[^"\\]|\\.)*")
      | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
      | (?P<IDENT>[a-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        raw = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    return tokens


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(_STRING_ESCAPES.get(body[i + 1], body[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.anon_counter = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _end_of_input(self, message: str) -> ParseError:
        """An error positioned just after the last token."""
        last = self.tokens[-1] if self.tokens else None
        line = last.line if last else 1
        col = (last.column + len(last.text)) if last else 1
        return ParseError(message, line, col)

    def _next(self, expected: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            raise self._end_of_input("unexpected end of input")
        if expected is not None and tok.kind != expected:
            raise ParseError(
                f"expected {expected}, found {tok.text!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def parse_rules(self) -> list[tuple[Rule, int]]:
        rules: list[tuple[Rule, int]] = []
        while self._peek() is not None:
            start = self._peek()
            assert start is not None
            rules.append((self._parse_rule(), start.line))
        return rules

    def _parse_rule(self) -> Rule:
        head_tok = self._peek()
        assert head_tok is not None
        head = self._parse_atom()
        if head.predicate in ("not", "norm_eq"):
            raise ParseError(
                f"{head.predicate!r} is reserved and cannot be a head predicate",
                head_tok.line,
                head_tok.column,
            )
        tok = self._next()
        if tok.kind == "DOT":
            return Rule(head, ())
        if tok.kind != "IMPLIES":
            raise ParseError(f"expected ':-' or '.', found {tok.text!r}", tok.line, tok.column)
        body: list[BodyLiteral] = [self._parse_literal()]
        while True:
            tok = self._next()
            if tok.kind == "DOT":
                break
            if tok.kind != "COMMA":
                raise ParseError(
                    f"expected ',' or '.', found {tok.text!r}", tok.line, tok.column
                )
            body.append(self._parse_literal())
        return Rule(head, tuple(body))

    def _parse_literal(self) -> BodyLiteral:
        tok = self._peek()
        if tok is None:
            raise self._end_of_input("unexpected end of input in rule body")
        if tok.kind == "IDENT" and tok.text == "not":
            self._next()
            return Negation(self._parse_atom())
        if tok.kind == "IDENT":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.kind == "LPAREN":
                atom = self._parse_atom()
                if atom.predicate == "norm_eq":
                    if len(atom.args) != 2:
                        raise ParseError("norm_eq takes exactly 2 arguments", tok.line, tok.column)
                    return Comparison("norm_eq", atom.args[0], atom.args[1])
                return atom
        # Either a bare-ident atom or the left side of a comparison.
        left = self._parse_term()
        nxt = self._peek()
        if nxt is not None and nxt.kind in ("EQ", "NEQ", "LT", "LE"):
            op_tok = self._next()
            op = {"EQ": "=", "NEQ": "!=", "LT": "<", "LE": "<="}[op_tok.kind]
            right = self._parse_term()
            return Comparison(op, left, right)
        if isinstance(left, str):
            return Atom(left, ())
        raise ParseError(
            f"expected a comparison operator after {_format_term(left)!r}",
            tok.line,
            tok.column,
        )

    def _parse_atom(self) -> Atom:
        tok = self._next("IDENT")
        nxt = self._peek()
        if nxt is None or nxt.kind != "LPAREN":
            return Atom(tok.text, ())
        self._next("LPAREN")
        args: list[Term] = [self._parse_term()]
        while True:
            sep = self._next()
            if sep.kind == "RPAREN":
                break
            if sep.kind != "COMMA":
                raise ParseError(
                    f"expected ',' or ')', found {sep.text!r}", sep.line, sep.column
                )
            args.append(self._parse_term())
        return Atom(tok.text, tuple(args))

    def _parse_term(self) -> Term:
        tok = self._next()
        if tok.kind == "VAR":
            if tok.text == "_":
                # The NUL byte keeps generated names disjoint from
                # anything the tokenizer can produce.
                self.anon_counter += 1
                return Variable(f"_\x00{self.anon_counter}")
            return Variable(tok.text)
        if tok.kind == "INT":
            return int(tok.text)
        if tok.kind == "STRING":
            return _unescape(tok.text)
        if tok.kind == "IDENT":
            return tok.text
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)


def parse_program(text: str) -> Program:
    """Parse rule text into a Program.

    Raises ParseError with line/column for syntax errors, unsafe rules
    (reporting the offending variable), and arity conflicts.
    """
    parser = _Parser(_tokenize(text))
    parsed = parser.parse_rules()

    arities: dict[str, int] = {}

    def record_arity(atom: Atom, line: int) -> None:
        prev = arities.setdefault(atom.predicate, len(atom.args))
        if prev != len(atom.args):
            message = f"arity conflict for {atom.predicate}: {prev} vs {len(atom.args)}"
            raise ParseError(message, line, 1)

    for rule, line in parsed:
        _check_safety(rule, line)
        record_arity(rule.head, line)
        for lit in rule.body:
            if isinstance(lit, Atom):
                record_arity(lit, line)
            elif isinstance(lit, Negation):
                record_arity(lit.atom, line)
    return Program(tuple(dict.fromkeys(rule for rule, _ in parsed)), arities)


def _check_safety(rule: Rule, line: int) -> None:
    positive_vars: set[str] = set()
    for lit in rule.body:
        if isinstance(lit, Atom):
            positive_vars |= lit.variables()
    checked = [("head variables", rule.head.variables())]
    for lit in rule.body:
        if isinstance(lit, Negation):
            checked.append(("variables under negation", lit.atom.variables()))
        elif isinstance(lit, Comparison):
            checked.append(("comparison variables", lit.variables()))
    for what, variables in checked:
        loose = sorted(variables - positive_vars)
        if loose:
            raise ParseError(
                f"unsafe variable {loose[0]}: {what} must appear in a positive body atom", line, 1
            )


# ---------------------------------------------------------------------------
# Stratification


def stratify(program: Program) -> list[list[Rule]]:
    """Split rules into strata so negation only sees lower strata.

    Raises StratificationError naming the predicates on a negative cycle.
    """
    preds = set(program.arities)
    for rule in program.rules:
        preds.add(rule.head.predicate)
    level = {p: 0 for p in preds}
    max_level = len(preds)

    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            h = rule.head.predicate
            for lit in rule.body:
                if isinstance(lit, Atom):
                    required = level[lit.predicate]
                elif isinstance(lit, Negation):
                    required = level[lit.atom.predicate] + 1
                else:
                    continue
                if required > level[h]:
                    if required > max_level:
                        raise StratificationError(
                            "program is not stratifiable: "
                            + _describe_negative_cycle(program)
                        )
                    level[h] = required
                    changed = True

    by_level: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_level.setdefault(level[rule.head.predicate], []).append(rule)
    return [by_level[lv] for lv in sorted(by_level)]


def _describe_negative_cycle(program: Program) -> str:
    edges: dict[str, set[str]] = {}
    neg_edges: list[tuple[str, str]] = []
    for rule in program.rules:
        h = rule.head.predicate
        for lit in rule.body:
            if isinstance(lit, Atom):
                edges.setdefault(h, set()).add(lit.predicate)
            elif isinstance(lit, Negation):
                edges.setdefault(h, set()).add(lit.atom.predicate)
                neg_edges.append((h, lit.atom.predicate))

    def path(src: str, dst: str) -> list[str] | None:
        frontier = [(src, [src])]
        visited = {src}
        while frontier:
            node, trail = frontier.pop(0)
            if node == dst:
                return trail
            for nxt in sorted(edges.get(node, ())):
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append((nxt, trail + [nxt]))
        return None

    for h, q in neg_edges:
        trail = path(q, h)
        if trail is not None:
            cycle = trail + [q]
            return "negative cycle " + " -> ".join(cycle)
    return "negative cycle through " + ", ".join(sorted({p for p, _ in neg_edges}))


# ---------------------------------------------------------------------------
# Builtin evaluation

# Comparisons are type-strict: mixing string and integer operands makes
# =, <, <=, norm_eq false (and therefore != true), never an error.


def _norm_value(v):
    return v.strip().lower() if isinstance(v, str) else v


def _same_type(a, b) -> bool:
    return (isinstance(a, str) and isinstance(b, str)) or (
        isinstance(a, int) and isinstance(b, int)
    )


def _eval_comparison(op: str, a, b) -> bool:
    if op == "=":
        return _same_type(a, b) and a == b
    if op == "!=":
        return not (_same_type(a, b) and a == b)
    if op == "<":
        return _same_type(a, b) and a < b
    if op == "<=":
        return _same_type(a, b) and a <= b
    if op == "norm_eq":
        return _same_type(a, b) and _norm_value(a) == _norm_value(b)
    raise ProgramError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Relations with on-demand hash indexes


class _Relation:
    """A set of same-arity tuples with lazily built lookup indexes.

    Index specs are ``(exact_positions, norm_positions)``. A spec with
    one exact position keys its index by that value, one with several by
    their tuple (both through ``itemgetter``); a spec with norm positions
    keys it by the tuple of the exact values followed by the normalized
    values at norm positions, so norm_eq joins can use hash lookups. That
    key function is compiled once per spec, when its index is built.
    """

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: set[tuple] | None = None) -> None:
        """A relation over ``rows``, which it keeps and ``add`` extends
        (not a copy), or over a new empty set."""
        self.rows: set[tuple] = set() if rows is None else rows
        self._indexes: dict[tuple, tuple[Callable, dict]] = {}

    def add(self, row: tuple) -> bool:
        if row in self.rows:
            return False
        self.rows.add(row)
        for key, index in self._indexes.values():
            index.setdefault(key(row), []).append(row)
        return True

    def index(self, spec: tuple) -> dict[object, list[tuple]]:
        """The index for ``spec`` (which must name a position), built on
        first use and kept current by ``add``."""
        entry = self._indexes.get(spec)
        if entry is None:
            exact, norm = spec
            if norm:
                items = [f"row[{p}]" for p in exact] + [f"_norm(row[{p}])" for p in norm]
                key = eval(f"lambda row: ({', '.join(items)},)", {"_norm": _norm_value})
            else:
                key = itemgetter(*exact)
            index: dict[object, list[tuple]] = {}
            for row in self.rows:
                index.setdefault(key(row), []).append(row)
            entry = self._indexes[spec] = (key, index)
        return entry[1]

    def insert(self, row: tuple) -> Sequence[tuple]:
        """Add a derived row; return the rows that are new, for the delta."""
        return (row,) if self.add(row) else ()


class _EqRelation(_Relation):
    """A binary relation kept closed under symmetry and transitivity.

    It stores disjoint classes, as Soufflé's ``eqrel`` does (Nappa et
    al., PACT 2019): each id maps to the member list of its class, and a
    union moves the smaller list into the larger (Tarjan, JACM 1975).
    ``rows`` holds every pair of the closure, so scans, indexes and
    negation see an ordinary relation, while each insert costs only the
    pairs it makes new.
    """

    __slots__ = ("_members",)

    def __init__(self) -> None:
        super().__init__()
        self._members: dict[object, list] = {}

    def insert(self, row: tuple) -> Sequence[tuple]:
        a, b = row
        members = self._members
        new: list[tuple] = []
        for x in (a, b):
            if x not in members:
                members[x] = [x]
                new.append((x, x))
        big, small = members[a], members[b]
        if big is not small:
            if len(big) < len(small):
                big, small = small, big
            for x in big:
                for y in small:
                    new.append((x, y))
                    new.append((y, x))
            big.extend(small)
            for y in small:
                members[y] = big
        for pair in new:
            self.add(pair)
        return new


_EMPTY_RELATION = _Relation()


def _closure_kind(rule: Rule) -> str | None:
    """Return "sym" for ``p(B, A) :- p(A, B).`` and "trans" for
    ``p(A, C) :- p(A, B), p(B, C).`` (up to variable names and body
    order), or None for any other rule."""
    pred = rule.head.predicate
    pairs: list[tuple[str, str]] = []
    for atom in (rule.head, *rule.body):
        if not (
            isinstance(atom, Atom)
            and atom.predicate == pred
            and len(atom.args) == 2
            and all(isinstance(t, Variable) for t in atom.args)
        ):
            return None
        pairs.append((atom.args[0].name, atom.args[1].name))
    (x, z), body = pairs[0], pairs[1:]
    if x == z:
        return None
    if body == [(z, x)]:
        return "sym"
    if len(body) == 2:
        for (a, y), (y2, c) in (body, body[::-1]):
            if (a, c) == (x, z) and y == y2 and y not in (x, z):
                return "trans"
    return None


def _closure_rules(rules: Iterable[Rule]) -> dict[str, set[Rule]]:
    """Map each equivalence predicate to its symmetry and transitivity
    rules: a predicate is one when the program has rules of both kinds."""
    kinds: dict[str, dict[str, set[Rule]]] = {}
    for rule in rules:
        kind = _closure_kind(rule)
        if kind is not None:
            kinds.setdefault(rule.head.predicate, {}).setdefault(kind, set()).add(rule)
    return {
        pred: by_kind["sym"] | by_kind["trans"]
        for pred, by_kind in kinds.items()
        if len(by_kind) == 2
    }


# ---------------------------------------------------------------------------
# Generated rule functions

#: Nested loops per generated function, under CPython's limit of 20
#: statically nested blocks. A rule with more scans stages the rows
#: bound so far in a list and continues in loops over that list.
_MAX_NESTED_LOOPS = 16


def _rule_functions(rule: Rule, dynamic_preds: set[str]) -> tuple[tuple[str | None, Callable], ...]:
    """The functions that evaluate ``rule``: ``(None, run)`` for the
    first round, then ``(pred, run)`` for each scan of a predicate in
    ``dynamic_preds``, that scan reading ``delta``. Each ``run(relations,
    delta)`` returns the head rows as a list. They are generated once
    per process for each rule and set of its scanned predicates that
    are dynamic.
    """
    scanned = frozenset(
        lit.predicate for lit in rule.body if isinstance(lit, Atom) and lit.predicate in dynamic_preds
    )
    return _generate_rule_functions(rule, scanned, _constant_types(rule))


def _constant_types(rule: Rule) -> tuple[type, ...]:
    """The type of each constant in ``rule``, in order of appearance."""
    atoms = [rule.head, *(lit.atom if isinstance(lit, Negation) else lit for lit in rule.body)]
    terms = chain.from_iterable(
        (a.left, a.right) if isinstance(a, Comparison) else a.args for a in atoms
    )
    return tuple(type(t) for t in terms if not isinstance(t, Variable))


@lru_cache(maxsize=256)
def _generate_rule_functions(
    rule: Rule, dynamic_preds: frozenset[str], constant_types: tuple[type, ...]
) -> tuple[tuple[str | None, Callable], ...]:
    """Generate the functions of ``_rule_functions``. ``constant_types``
    only keys the cache: rules that compare equal but hold constants of
    different types (``1 == True``) get functions of their own.

    One walk over the body schedules and emits source at once. A
    comparison or negation is emitted as soon as its variables are
    bound, and ``=`` with one side bound binds the other side. Each atom
    becomes a loop over an index lookup on its bound positions; a
    pending ``norm_eq`` whose other side is bound adds a normalized key
    part, and a variable repeated within the atom becomes a check.
    ``where`` maps each bound variable to the expression that holds it:
    its scan's row item, or the local a bind sets. Each index is fetched
    once, at the top, so a delta variant differs only in its scan's
    line there. Constants enter the source only as names bound in its
    namespace, predicate names only as ``repr``.
    """
    ns: dict[str, object] = dict(_EMPTY=_EMPTY_RELATION, _norm=_norm_value, _same_type=_same_type)
    where: dict[str, str] = {}  # variable name -> the expression that holds it

    def value(t: Term) -> str:
        if isinstance(t, Variable):
            return where[t.name]
        name = f"c{len(ns)}"
        ns[name] = t
        return name

    def bound(t: Term) -> bool:
        return not isinstance(t, Variable) or t.name in where

    def row_of(items: list[str]) -> str:
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"

    top = ["out = []", "append = out.append"]
    lines: list[str] = []
    variants: list[tuple[str, int, str]] = []  # (pred, index in top, delta line)
    live: list[str] = []  # the names a staged row carries
    # ``i`` numbers the literals in the order they are emitted; the names
    # of a scan's index, rows and staging list carry its number.
    depth, fail, i = 0, "return out", 0

    def emit(line: str) -> None:
        lines.append("    " * depth + line)

    pending = [lit for lit in rule.body if not isinstance(lit, Atom)]
    for atom in (None, *(lit for lit in rule.body if isinstance(lit, Atom))):
        if atom is not None:
            exact_pos, exact, norm_pos, norm, checks = [], [], [], [], []
            new_here: dict[str, int] = {}  # variable name -> its first position
            for pos, t in enumerate(atom.args):
                if bound(t):
                    exact_pos.append(pos)
                    exact.append(t)
                elif t.name in new_here:
                    checks.append((pos, t.name))
                else:
                    # A pending norm_eq with the other side already bound
                    # turns this position into a normalized index lookup.
                    assist = next(
                        (
                            (lit, other)
                            for lit in pending
                            if isinstance(lit, Comparison) and lit.op == "norm_eq"
                            for var, other in ((lit.left, lit.right), (lit.right, lit.left))
                            if var == t and bound(other)
                        ),
                        None,
                    )
                    if assist is not None:
                        pending.remove(assist[0])
                        norm_pos.append(pos)
                        norm.append(assist[1])
                    new_here[t.name] = pos
            if depth == _MAX_NESTED_LOOPS:
                top.append(f"staged{i} = []")
                emit(f"staged{i}.append({row_of(live)})")
                depth = 0
                emit(f"for {row_of(live)} in staged{i}:")
                depth = 1
            if exact or norm:
                ns[f"spec{i}"] = (tuple(exact_pos), tuple(norm_pos))
                fetch = f".index(spec{i})"
                key = [value(t) for t in exact] + [f"_norm({value(t)})" for t in norm]
                # The key has the shape that ``_Relation.index`` gives it.
                lookup = key[0] if len(key) == 1 and not norm else row_of(key)
                emit(f"for r{i} in s{i}.get({lookup}, ()):")
            else:
                fetch = ".rows"
                emit(f"for r{i} in s{i}:")
            if atom.predicate in dynamic_preds:
                variants.append((atom.predicate, len(top), f"s{i} = delta{fetch}"))
            top.append(f"s{i} = relations.get({atom.predicate!r}, _EMPTY){fetch}")
            depth, fail = depth + 1, "continue"
            where.update((name, f"r{i}[{pos}]") for name, pos in new_here.items())
            live.append(f"r{i}")
            for pos, name in checks:
                emit(f"if r{i}[{pos}] != {where[name]}: continue")
            i += 1

        progressed = True
        while progressed:
            progressed = False
            for lit in list(pending):
                if isinstance(lit, Negation):
                    if not all(map(bound, lit.atom.args)):
                        continue
                    top.append(f"n{i} = relations.get({lit.atom.predicate!r}, _EMPTY).rows")
                    emit(f"if {row_of([value(t) for t in lit.atom.args])} in n{i}: {fail}")
                elif lit.op == "=" and bound(lit.left) != bound(lit.right):
                    # Equality with one side known binds the other side.
                    var, known = (lit.left, lit.right) if bound(lit.right) else (lit.right, lit.left)
                    name = f"v{len(where)}"
                    emit(f"{name} = {value(known)}")
                    where[var.name] = name
                    live.append(name)
                elif bound(lit.left) and bound(lit.right):
                    a, b = value(lit.left), value(lit.right)
                    if lit.op == "norm_eq":
                        test = f"_same_type({a}, {b}) and _norm({a}) == _norm({b})"
                    elif lit.op in ("<", "<="):
                        test = f"_same_type({a}, {b}) and {a} {lit.op} {b}"
                    elif isinstance(lit.left, str) or isinstance(lit.right, str):
                        test = f"{a} == {b}"  # only a str equals a str constant
                    else:
                        test = f"{a} == {b} and _same_type({a}, {b})"
                    # ``!=`` fails where the equality test holds.
                    emit(f"if {'' if lit.op == '!=' else 'not '}({test}): {fail}")
                else:
                    continue
                pending.remove(lit)
                progressed = True
                i += 1

    if pending:
        # Safety checking at parse time should make this unreachable.
        raise ProgramError(f"cannot schedule literals in rule: {rule}")
    emit(f"append({row_of([value(t) for t in rule.head.args])})")

    def function(top: list[str]) -> Callable:
        body = "\n    ".join([*top, *lines, "return out"])
        exec(compile(f"def run(relations, delta):\n    {body}", "<datalog rule>", "exec"), ns)
        return ns.pop("run")  # so that no cycle keeps it and its namespace alive

    return ((None, function(top)),) + tuple(
        (pred, function([*top[:at], line, *top[at + 1 :]])) for pred, at, line in variants
    )


# ---------------------------------------------------------------------------
# Evaluation


def _edb_rows(program: Program, edb: Mapping[str, Iterable[tuple]]) -> dict[str, set[tuple]]:
    """An EDB as row sets, rejecting rows that hold a Variable and
    predicates whose rows disagree in length with each other or with the
    program's arity. A ``set`` of rows is returned as it is, shared with
    the caller, so nothing may add to it; any other iterable of rows is
    copied into a fresh set."""
    out: dict[str, set[tuple]] = {}
    for pred, rows in edb.items():
        if not isinstance(rows, set):
            rows = set(rows)
        lengths = {len(row) for row in rows}
        if pred in program.arities:
            lengths.add(program.arities[pred])
        if len(lengths) > 1:
            raise ValueError(f"EDB rows of {pred} conflict in arity: {sorted(lengths)}")
        if any(issubclass(t, Variable) for t in set(map(type, chain.from_iterable(rows)))):
            row = next(r for r in rows if any(isinstance(a, Variable) for a in r))
            raise ValueError(f"EDB fact is not ground: {Atom(pred, row)}")
        out[pred] = rows
    return out


def _new_rows(
    program: Program, model: Mapping[str, set[tuple]], edb: Mapping[str, set[tuple]]
) -> dict[str, set[tuple]]:
    """The rows of each head predicate in ``model`` that ``edb`` lacks,
    keeping only predicates with at least one such row."""
    out: dict[str, set[tuple]] = {}
    for pred in program.head_predicates():
        rows = model.get(pred, set()) - edb.get(pred, set())
        if rows:
            out[pred] = rows
    return out


def evaluate(
    program: Program, edb: Mapping[str, Iterable[tuple]]
) -> dict[str, set[tuple]]:
    """Compute the derived facts of a stratified program over an EDB.

    Facts are a fact base: a mapping from predicate name to its set of
    argument tuples, both for ``edb`` and for the result. The result is
    the minimal model restricted to rule-head predicates, minus the rows
    already in the EDB, with one entry per predicate that has at least
    one such row. ``edb`` is not mutated, and evaluation is a pure
    function of its (set-valued) contents.

    The relation of a predicate that only the EDB defines reads the
    EDB's own row set, with no copy. A predicate that is also a rule
    head gets a copy, since derived rows are added to its relation and
    the EDB rows are then subtracted from the result.
    """
    edb = _edb_rows(program, edb)
    strata = stratify(program)
    closure_rules = _closure_rules(program.rules)
    heads = program.head_predicates()
    relations: dict[str, _Relation] = {p: _EqRelation() for p in closure_rules}
    for pred, rows in edb.items():
        if pred in closure_rules:
            for row in rows:
                relations[pred].insert(row)
        else:
            relations[pred] = _Relation(set(rows) if pred in heads else rows)

    for stratum in strata:
        dynamic_preds = {r.head.predicate for r in stratum}
        for pred in dynamic_preds:
            relations.setdefault(pred, _Relation())
        # The first round runs each rule whole; later rounds run it once
        # per scan of a predicate computed here, reading that scan's delta.
        first, later = [], []
        for r in stratum:
            if r in closure_rules.get(r.head.predicate, ()):
                continue  # the relation closes itself on insert
            for pred, run in _rule_functions(r, dynamic_preds):
                (first if pred is None else later).append((r.head.predicate, pred, run))

        runs, delta = first, {}
        while runs:
            new_delta = {p: _Relation() for p in dynamic_preds}
            for head, pred, run in runs:
                if pred is None or delta[pred].rows:
                    # A delta is indexed only once complete: add to its set.
                    insert, fresh = relations[head].insert, new_delta[head].rows
                    for row in run(relations, delta.get(pred)):
                        fresh.update(insert(row))
            delta = new_delta
            runs = later if any(d.rows for d in delta.values()) else []

    return _new_rows(program, {p: r.rows for p, r in relations.items()}, edb)


# ---------------------------------------------------------------------------
# Naive reference evaluator
#
# Kept deliberately simple and index-free so it can serve as an
# independent cross-check for the semi-naive engine.


def _naive_solutions(rule: Rule, facts: dict[str, set[tuple]]) -> Iterator[dict]:
    def unify(atom: Atom, row: tuple, theta: dict) -> dict | None:
        if len(atom.args) != len(row):
            return None
        out = dict(theta)
        for t, v in zip(atom.args, row):
            if isinstance(t, Variable):
                if t.name in out:
                    if out[t.name] != v:
                        return None
                else:
                    out[t.name] = v
            elif t != v or not _same_type(t, v):
                return None
        return out

    def value(t: Term, theta: dict):
        return theta[t.name] if isinstance(t, Variable) else t

    def solve(literals: list[BodyLiteral], theta: dict) -> Iterator[dict]:
        if not literals:
            yield theta
            return
        chosen = None
        for lit in literals:
            if isinstance(lit, Comparison) and lit.variables() <= theta.keys():
                chosen = lit
                break
            if isinstance(lit, Negation) and lit.atom.variables() <= theta.keys():
                chosen = lit
                break
        if chosen is None:
            for lit in literals:
                if isinstance(lit, Atom):
                    chosen = lit
                    break
        if chosen is None:
            raise ProgramError(f"cannot evaluate rule body: {rule}")
        rest = [lit for lit in literals if lit is not chosen]
        if isinstance(chosen, Atom):
            for row in facts.get(chosen.predicate, ()):
                theta2 = unify(chosen, row, theta)
                if theta2 is not None:
                    yield from solve(rest, theta2)
        elif isinstance(chosen, Negation):
            ground = tuple(value(t, theta) for t in chosen.atom.args)
            if ground not in facts.get(chosen.atom.predicate, set()):
                yield from solve(rest, theta)
        else:
            if _eval_comparison(chosen.op, value(chosen.left, theta), value(chosen.right, theta)):
                yield from solve(rest, theta)

    yield from solve(list(rule.body), {})


def evaluate_naive(
    program: Program, edb: Mapping[str, Iterable[tuple]]
) -> dict[str, set[tuple]]:
    """Naive full-rederivation evaluation; must agree with evaluate().

    Takes and returns fact bases (predicate name -> set of argument
    tuples) exactly as ``evaluate`` does.
    """
    edb = _edb_rows(program, edb)
    strata = stratify(program)
    facts = {pred: set(rows) for pred, rows in edb.items()}

    for stratum in strata:
        changed = True
        while changed:
            changed = False
            fresh: list[tuple[str, tuple]] = []
            for rule in stratum:
                for theta in _naive_solutions(rule, facts):
                    row = tuple(
                        theta[t.name] if isinstance(t, Variable) else t
                        for t in rule.head.args
                    )
                    fresh.append((rule.head.predicate, row))
            for pred, row in fresh:
                bucket = facts.setdefault(pred, set())
                if row not in bucket:
                    bucket.add(row)
                    changed = True

    return _new_rows(program, facts, edb)
