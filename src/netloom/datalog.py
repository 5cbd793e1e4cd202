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

``evaluate`` runs a semi-naive fixpoint per stratum over compiled join
plans with hash indexes. A binary predicate whose rules include both
``p(B, A) :- p(A, B).`` and ``p(A, C) :- p(A, B), p(B, C).`` (up to
variable names) is evaluated as disjoint classes instead: those two
rules get no join plans, and its cost is linear in the pairs it holds
rather than cubic in a class's size. ``evaluate_naive`` is an
intentionally simple full-rederivation evaluator kept as an
independent cross-check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union


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


#: Comparison operators usable in rule bodies. All are filters: their
#: variables must be bound by positive atoms (checked at parse time).
COMPARISON_OPS = ("=", "!=", "<", "<=", "norm_eq")


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
            if pred in arities and arities[pred] != arity:
                raise ProgramError(
                    f"arity conflict for {pred}: {arities[pred]} vs {arity}"
                )
            arities[pred] = arity
        seen: set[Rule] = set()
        merged: list[Rule] = []
        for rule in self.rules + other.rules:
            if rule not in seen:
                seen.add(rule)
                merged.append(rule)
        return Program(tuple(merged), arities)


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
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
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
    parser = _Parser(_tokenize(text), text)
    parsed = parser.parse_rules()

    arities: dict[str, int] = {}

    def record_arity(atom: Atom, line: int) -> None:
        prev = arities.get(atom.predicate)
        if prev is not None and prev != len(atom.args):
            raise ParseError(
                f"arity conflict for {atom.predicate}: {prev} vs {len(atom.args)}",
                line,
                1,
            )
        arities[atom.predicate] = len(atom.args)

    seen: set[Rule] = set()
    rules: list[Rule] = []
    for rule, line in parsed:
        _check_safety(rule, line)
        record_arity(rule.head, line)
        for lit in rule.body:
            if isinstance(lit, Atom):
                record_arity(lit, line)
            elif isinstance(lit, Negation):
                record_arity(lit.atom, line)
        if rule not in seen:
            seen.add(rule)
            rules.append(rule)
    return Program(tuple(rules), arities)


def _check_safety(rule: Rule, line: int) -> None:
    positive_vars: set[str] = set()
    for lit in rule.body:
        if isinstance(lit, Atom):
            positive_vars |= lit.variables()
    for var in sorted(rule.head.variables() - positive_vars):
        raise ParseError(
            f"unsafe variable {var}: head variables must appear in a positive body atom",
            line,
            1,
        )
    for lit in rule.body:
        if isinstance(lit, Negation):
            loose = sorted(lit.atom.variables() - positive_vars)
            if loose:
                raise ParseError(
                    f"unsafe variable {loose[0]}: variables under negation must appear "
                    "in a positive body atom",
                    line,
                    1,
                )
        elif isinstance(lit, Comparison):
            loose = sorted(lit.variables() - positive_vars)
            if loose:
                raise ParseError(
                    f"unsafe variable {loose[0]}: comparison variables must appear "
                    "in a positive body atom",
                    line,
                    1,
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

    Index specs are ``(exact_positions, norm_positions)``; keys combine
    the raw values at exact positions with the normalized values at norm
    positions, so norm_eq joins can use hash lookups.
    """

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: Iterable[tuple] = ()) -> None:
        self.rows: set[tuple] = set(rows)
        self._indexes: dict[tuple, dict[tuple, list[tuple]]] = {}

    def add(self, row: tuple) -> bool:
        if row in self.rows:
            return False
        self.rows.add(row)
        for spec, index in self._indexes.items():
            index.setdefault(self._key(row, spec), []).append(row)
        return True

    @staticmethod
    def _key(row: tuple, spec: tuple) -> tuple:
        exact, norm = spec
        return tuple(row[p] for p in exact) + tuple(_norm_value(row[p]) for p in norm)

    def lookup(self, spec: tuple, key: tuple) -> list[tuple]:
        index = self._indexes.get(spec)
        if index is None:
            index = {}
            for row in self.rows:
                index.setdefault(self._key(row, spec), []).append(row)
            self._indexes[spec] = index
        return index.get(key, [])

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
# Compiled rule plans

# Step value specs: ('c', constant) or ('s', slot index).


@dataclass(frozen=True)
class _Scan:
    pred: str
    spec: tuple  # (exact_positions, norm_positions)
    exact_parts: tuple  # value specs aligned with exact positions
    norm_parts: tuple  # value specs aligned with norm positions
    extracts: tuple  # (position, slot)
    checks: tuple  # (position, slot) for repeated new variables


@dataclass(frozen=True)
class _Filter:
    op: str
    left: tuple
    right: tuple


@dataclass(frozen=True)
class _Bind:
    slot: int
    source: tuple


@dataclass(frozen=True)
class _NegCheck:
    pred: str
    parts: tuple  # value specs, all resolvable


@dataclass(frozen=True)
class _Plan:
    nslots: int
    steps: tuple
    head_parts: tuple
    dynamic_scans: tuple  # step indexes whose predicate is computed in this stratum


def _compile_rule(rule: Rule, dynamic_preds: set[str]) -> _Plan:
    slots: dict[str, int] = {}

    def slot_of(name: str) -> int:
        if name not in slots:
            slots[name] = len(slots)
        return slots[name]

    def term_spec(t: Term, bound: set[str]) -> tuple | None:
        if isinstance(t, Variable):
            if t.name in bound:
                return ("s", slots[t.name])
            return None
        return ("c", t)

    bound: set[str] = set()
    steps: list = []
    pending: list[BodyLiteral] = [
        lit for lit in rule.body if not isinstance(lit, Atom)
    ]
    atoms = [lit for lit in rule.body if isinstance(lit, Atom)]

    def flush_pending() -> None:
        progressed = True
        while progressed:
            progressed = False
            for lit in list(pending):
                if isinstance(lit, Negation):
                    if lit.atom.variables() <= bound:
                        parts = tuple(
                            term_spec(t, bound) for t in lit.atom.args
                        )
                        steps.append(_NegCheck(lit.atom.predicate, parts))
                        pending.remove(lit)
                        progressed = True
                    continue
                assert isinstance(lit, Comparison)
                ls = term_spec(lit.left, bound)
                rs = term_spec(lit.right, bound)
                if lit.op == "=" and (ls is None) != (rs is None):
                    # Equality with one side known binds the other side.
                    unbound = lit.left if ls is None else lit.right
                    assert isinstance(unbound, Variable)
                    steps.append(_Bind(slot_of(unbound.name), ls or rs))
                    bound.add(unbound.name)
                    pending.remove(lit)
                    progressed = True
                elif ls is not None and rs is not None:
                    steps.append(_Filter(lit.op, ls, rs))
                    pending.remove(lit)
                    progressed = True

    flush_pending()
    for atom in atoms:
        exact_pos: list[int] = []
        exact_parts: list[tuple] = []
        norm_pos: list[int] = []
        norm_parts: list[tuple] = []
        extracts: list[tuple[int, int]] = []
        checks: list[tuple[int, int]] = []
        new_here: set[str] = set()
        for pos, t in enumerate(atom.args):
            spec = term_spec(t, bound)
            if spec is not None:
                exact_pos.append(pos)
                exact_parts.append(spec)
                continue
            assert isinstance(t, Variable)
            if t.name in new_here:
                checks.append((pos, slots[t.name]))
                continue
            # A pending norm_eq with the other side already bound turns
            # this position into a normalized index lookup.
            assist = None
            for lit in pending:
                if isinstance(lit, Comparison) and lit.op == "norm_eq":
                    lspec = term_spec(lit.left, bound)
                    rspec = term_spec(lit.right, bound)
                    if (
                        lspec is None
                        and rspec is not None
                        and isinstance(lit.left, Variable)
                        and lit.left.name == t.name
                    ):
                        assist = (lit, rspec)
                        break
                    if (
                        rspec is None
                        and lspec is not None
                        and isinstance(lit.right, Variable)
                        and lit.right.name == t.name
                    ):
                        assist = (lit, lspec)
                        break
            if assist is not None:
                pending.remove(assist[0])
                norm_pos.append(pos)
                norm_parts.append(assist[1])
            extracts.append((pos, slot_of(t.name)))
            new_here.add(t.name)
        steps.append(
            _Scan(
                atom.predicate,
                (tuple(exact_pos), tuple(norm_pos)),
                tuple(exact_parts),
                tuple(norm_parts),
                tuple(extracts),
                tuple(checks),
            )
        )
        bound |= new_here
        flush_pending()

    if pending:
        # Safety checking at parse time should make this unreachable.
        raise ProgramError(f"cannot schedule literals in rule: {rule}")

    head_parts = tuple(term_spec(t, bound) for t in rule.head.args)
    dynamic = tuple(
        i for i, s in enumerate(steps) if isinstance(s, _Scan) and s.pred in dynamic_preds
    )
    return _Plan(len(slots), tuple(steps), head_parts, dynamic)


def _resolve(spec: tuple, binding: list) -> object:
    tag, v = spec
    return binding[v] if tag == "s" else v


def _run_plan(
    plan: _Plan,
    relations: dict[str, _Relation],
    delta_step: int = -1,
    delta_relation: _Relation | None = None,
) -> Iterator[tuple]:
    bindings: list[list] = [[None] * plan.nslots]
    for idx, step in enumerate(plan.steps):
        if not bindings:
            return
        if isinstance(step, _Scan):
            rel = (
                delta_relation
                if idx == delta_step and delta_relation is not None
                else relations.get(step.pred, _EMPTY_RELATION)
            )
            out: list[list] = []
            exact_pos, norm_pos = step.spec
            if exact_pos or norm_pos:
                for b in bindings:
                    key = tuple(_resolve(p, b) for p in step.exact_parts) + tuple(
                        _norm_value(_resolve(p, b)) for p in step.norm_parts
                    )
                    for row in rel.lookup(step.spec, key):
                        b2 = b.copy()
                        ok = True
                        for pos, slot in step.extracts:
                            b2[slot] = row[pos]
                        for pos, slot in step.checks:
                            if row[pos] != b2[slot]:
                                ok = False
                                break
                        if ok:
                            out.append(b2)
            else:
                rows = list(rel.rows)
                for b in bindings:
                    for row in rows:
                        b2 = b.copy()
                        ok = True
                        for pos, slot in step.extracts:
                            b2[slot] = row[pos]
                        for pos, slot in step.checks:
                            if row[pos] != b2[slot]:
                                ok = False
                                break
                        if ok:
                            out.append(b2)
            bindings = out
        elif isinstance(step, _Filter):
            bindings = [
                b
                for b in bindings
                if _eval_comparison(step.op, _resolve(step.left, b), _resolve(step.right, b))
            ]
        elif isinstance(step, _Bind):
            for b in bindings:
                b[step.slot] = _resolve(step.source, b)
        else:
            assert isinstance(step, _NegCheck)
            rel = relations.get(step.pred, _EMPTY_RELATION)
            bindings = [
                b
                for b in bindings
                if tuple(_resolve(p, b) for p in step.parts) not in rel.rows
            ]
    for b in bindings:
        yield tuple(_resolve(p, b) for p in plan.head_parts)


# ---------------------------------------------------------------------------
# Evaluation


def _edb_rows(program: Program, edb: Mapping[str, Iterable[tuple]]) -> dict[str, set[tuple]]:
    """Copy an EDB into fresh row sets, rejecting rows that hold a
    Variable and predicates whose rows disagree in length with each
    other or with the program's arity."""
    out: dict[str, set[tuple]] = {}
    for pred, rows in edb.items():
        rows = set(rows)
        lengths = {len(row) for row in rows}
        if pred in program.arities:
            lengths.add(program.arities[pred])
        if len(lengths) > 1:
            raise ValueError(f"EDB rows of {pred} conflict in arity: {sorted(lengths)}")
        for row in rows:
            if any(isinstance(a, Variable) for a in row):
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
    """
    edb = _edb_rows(program, edb)
    strata = stratify(program)
    closure_rules = _closure_rules(program.rules)
    relations: dict[str, _Relation] = {p: _EqRelation() for p in closure_rules}
    for pred, rows in edb.items():
        if pred in closure_rules:
            for row in rows:
                relations[pred].insert(row)
        else:
            relations[pred] = _Relation(rows)

    for stratum in strata:
        dynamic_preds = {r.head.predicate for r in stratum}
        # An equivalence predicate's relation closes itself on insert,
        # so its symmetry and transitivity rules get no join plans.
        plans = [
            (r, _compile_rule(r, dynamic_preds))
            for r in stratum
            if r not in closure_rules.get(r.head.predicate, ())
        ]
        for pred in dynamic_preds:
            relations.setdefault(pred, _Relation())

        delta: dict[str, _Relation] = {p: _Relation() for p in dynamic_preds}
        for rule, plan in plans:
            for row in _run_plan(plan, relations):
                for new in relations[rule.head.predicate].insert(row):
                    delta[rule.head.predicate].add(new)

        while any(d.rows for d in delta.values()):
            new_delta: dict[str, _Relation] = {p: _Relation() for p in dynamic_preds}
            for rule, plan in plans:
                for step_idx in plan.dynamic_scans:
                    scan = plan.steps[step_idx]
                    assert isinstance(scan, _Scan)
                    d = delta[scan.pred]
                    if not d.rows:
                        continue
                    for row in _run_plan(plan, relations, step_idx, d):
                        for new in relations[rule.head.predicate].insert(row):
                            new_delta[rule.head.predicate].add(new)
            delta = new_delta

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
