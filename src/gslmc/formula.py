"""Formula ASTs, concrete syntax, free placeholders, and fragment analysis.

Desugared trees contain exactly seven node kinds: Atom, Not, Or, Next, Until,
ExistsGraded and Bind.  Everything else in the concrete syntax (&&, ->, F, G,
true, false, the universal quantifier) is rewritten into those at parse time.

Concrete syntax (tightest first): unary (!, X, F, G, quantifiers, bindings),
U (right-associative), &&, ||, ->.  Quantifiers are written
``<<x1,...,xn>>^>=g`` and ``[[x1,...,xn]]^<g``; an omitted grade means ``>=1``
and ``<1`` respectively.  A binding is ``(agent,var)`` where the first name is
a declared agent.
"""

from dataclasses import dataclass
from functools import partial, reduce

from gslmc.errors import ParseError

# ---------------------------------------------------------------------------
# grades


@dataclass(frozen=True)
class Grade:
    kind: str  # 'finite' | 'aleph0' | 'aleph1' | 'cont'
    value: int | None = None

    def __post_init__(self):
        if self.kind == "finite":
            if self.value is None or self.value < 0:
                raise ValueError("finite grade needs a natural number")
        elif self.value is not None:
            raise ValueError("infinite grades carry no number")

    @property
    def is_finite(self):
        return self.kind == "finite"

    def __str__(self):
        return str(self.value) if self.kind == "finite" else self.kind


def finite(n):
    return Grade("finite", n)


ALEPH0 = Grade("aleph0")
ALEPH1 = Grade("aleph1")
CONTINUUM = Grade("cont")

_GRADE_WORDS = {"aleph0": ALEPH0, "aleph1": ALEPH1, "cont": CONTINUUM}


# ---------------------------------------------------------------------------
# AST


class Formula:
    __slots__ = ()

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsGraded(Formula):
    vars: tuple
    grade: Grade
    sub: Formula

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("variables in a quantifier tuple must be distinct")
        if not self.vars:
            raise ValueError("quantifier tuple must be nonempty")


@dataclass(frozen=True)
class Bind(Formula):
    agent: str
    var: str
    sub: Formula


# sugar constructors (desugar immediately; 'tt' is an ordinary atom name, the
# tautology p || !p is valid whatever the model's atom set is)

TRUE_ATOM = "tt"


def f_true():
    return Or(Atom(TRUE_ATOM), Not(Atom(TRUE_ATOM)))


def f_false():
    return Not(f_true())


def f_and(a, b):
    return Not(Or(Not(a), Not(b)))


def f_implies(a, b):
    return Or(Not(a), b)


def f_eventually(a):
    return Until(f_true(), a)


def f_globally(a):
    return Not(f_eventually(Not(a)))


def forall_graded(variables, grade, sub):
    return Not(ExistsGraded(tuple(variables), grade, Not(sub)))


def big_and(items):
    items = list(items)
    return reduce(f_and, items) if items else f_true()


def big_or(items):
    items = list(items)
    return reduce(Or, items) if items else f_false()


# ---------------------------------------------------------------------------
# tokenizer

_RESERVED = {"X", "F", "G", "U", "true", "false"}

_SYMBOLS = ["<<", ">>", "[[", "]]", "^>=", "^<", "&&", "||", "->", "(", ")", ",", "!"]


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, sym, i))
                i += len(sym)
                break
        else:
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(("num", text[i:j], i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                word = text[i:j]
                tokens.append(("word", word, i))
                i = j
            else:
                raise ParseError(f"unknown token {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# Deepest nesting the parser accepts; deeper is a ParseError.  Nesting is the
# depth of the concrete syntax tree: every pair of parentheses, unary operator
# (!, X, F, G), quantifier, binding and binary operator (U, &&, ||, ->) over a
# subformula is one level, so "!(p U q)" nests 3 deep and "p || q || r" 2
# deep.  At the bound the deepest recursion measured is parsing 100 nested
# parentheses, about 610 frames (six parser frames a level); the walks over
# the desugared formula (fragment analysis, compiler, checker) take at most
# about 410, for 100 nested G or &&.  Quantifiers nest less deeply: 98 [[x]]
# take about 300 frames, 97 alternating <<x>> and [[x]] about 305, and 47
# ![[x]] about 250.  All stay inside Python's default recursion limit of
# 1000 (tests/test_cli.py, TestNestingBound).
MAX_NESTING = 100


# prefix operators and constants by token, and the quantifier openers by
# token: (closer, grade marker, constructor)
_PREFIX = {"!": Not, "X": Next, "F": f_eventually, "G": f_globally}
_CONSTANTS = {"true": f_true, "false": f_false}
_QUANTIFIERS = {"<<": (">>", "^>=", ExistsGraded), "[[": ("]]", "^<", forall_graded)}

# binary operators, loosest first: (token, constructor, right-associative)
_BINARY = (("->", f_implies, True), ("||", Or, False), ("&&", f_and, False), ("U", Until, True))


class _Parser:
    """Recursive descent; every parse method returns (formula, nesting depth)."""

    def __init__(self, text, agent_names):
        self.toks = _tokenize(text)
        self.pos = 0
        self.agents = set(agent_names)
        self.open = 0  # nesting levels entered and not yet left

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def _level(depth, tok):
        if depth > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", tok[2])
        return depth

    def _nested(self, parse, tok):
        """Parse one level further in; refuses before the recursion gets deep."""
        self.open += 1
        self._level(self.open, tok)
        f, depth = parse()
        self.open -= 1
        return f, self._level(depth + 1, tok)

    def parse(self):
        f, _ = self.binary(0)
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def at_level(self, level):
        """The parse method for the operators of _BINARY[level:], unary past
        the table.  A partial, unlike a lambda, adds no Python frame per
        nesting level."""
        return partial(self.binary, level) if level < len(_BINARY) else self.unary

    def binary(self, level):
        """A chain of _BINARY[level]'s operator over operands of the next level."""
        op, build, right_assoc = _BINARY[level]
        tighter = self.at_level(level + 1)
        f, depth = tighter()
        if right_assoc:
            tok = self.peek()
            if tok[1] != op:
                return f, depth
            self.take()
            right, d = self._nested(self.at_level(level), tok)
            return build(f, right), self._level(max(depth + 1, d), tok)
        while (tok := self.peek())[1] == op:
            self.take()
            right, d = tighter()
            f, depth = build(f, right), self._level(max(depth, d) + 1, tok)
        return f, depth

    def _var_tuple(self, closer):
        names = []
        while True:
            tok = self.take("word")
            if tok[1] in _RESERVED or tok[1] in _GRADE_WORDS:
                raise ParseError(f"reserved word {tok[1]!r} used as variable", tok[2])
            if tok[1] in names:
                raise ParseError(f"duplicate variable {tok[1]!r} in tuple", tok[2])
            names.append(tok[1])
            if self.peek()[0] == ",":
                self.take()
                continue
            break
        self.take(closer)
        return tuple(names)

    def _grade(self, marker):
        # marker is '^>=' for existential / '^<' for universal; optional
        if self.peek()[0] in ("^>=", "^<"):
            tok = self.take()
            if tok[0] != marker:
                raise ParseError(
                    f"grade marker {tok[1]!r} does not match quantifier", tok[2]
                )
            val = self.peek()
            if val[0] == "num":
                self.take()
                try:
                    n = int(val[1])
                except ValueError:
                    # int() refuses more digits than its limit (4300 by
                    # default), and digits that are not decimal, such as "²"
                    raise ParseError("grade is too long or not a decimal number", val[2]) from None
                return finite(n)
            if val[0] == "word" and val[1] in _GRADE_WORDS:
                self.take()
                return _GRADE_WORDS[val[1]]
            raise ParseError(f"expected a grade, found {val[1]!r}", val[2])
        return finite(1)

    def unary(self):
        # a token's text is its kind for symbols, so one key serves words
        # and symbols alike
        tok = self.peek()
        if tok[1] in _PREFIX:
            self.take()
            f, depth = self._nested(self.unary, tok)
            return _PREFIX[tok[1]](f), depth
        if tok[1] in _CONSTANTS:
            self.take()
            return _CONSTANTS[tok[1]](), 0
        if tok[1] in _QUANTIFIERS:
            closer, marker, build = _QUANTIFIERS[tok[1]]
            self.take()
            names = self._var_tuple(closer)
            grade = self._grade(marker)
            f, depth = self._nested(self.unary, tok)
            return build(names, grade, f), depth
        if tok[0] == "(":
            # binding looks like ( ident , ident ) with a declared agent first
            if (
                self.peek(1)[0] == "word"
                and self.peek(2)[0] == ","
                and self.peek(3)[0] == "word"
                and self.peek(4)[0] == ")"
                and self.peek(1)[1] in self.agents
            ):
                self.take()
                agent = self.take("word")[1]
                self.take(",")
                var = self.take("word")[1]
                self.take(")")
                f, depth = self._nested(self.unary, tok)
                return Bind(agent, var, f), depth
            self.take()
            f, depth = self._nested(self.at_level(0), tok)
            self.take(")")
            return f, depth
        if tok[0] == "word":
            if tok[1] in _RESERVED or tok[1] in _GRADE_WORDS:
                raise ParseError(f"reserved word {tok[1]!r} used as atom", tok[2])
            self.take()
            return Atom(tok[1]), 0
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_formula(text, agent_names):
    """Parse concrete syntax into a desugared AST."""
    if not agent_names:
        raise ParseError("agent name set must be nonempty")
    return _Parser(text, agent_names).parse()


# ---------------------------------------------------------------------------
# printer

# precedence levels: 0 implies(-), 1 or, 2 and(-), 3 until, 4 unary/atomic.
# Only core kinds exist, so levels 0 and 2 never print.


def _pr(f, level):
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return _wrap("!" + _pr(f.sub, 4), 4, level)
    if isinstance(f, Next):
        return _wrap("X " + _pr(f.sub, 4), 4, level)
    if isinstance(f, ExistsGraded):
        head = "<<" + ",".join(f.vars) + ">>^>=" + str(f.grade)
        return _wrap(head + " " + _pr(f.sub, 4), 4, level)
    if isinstance(f, Bind):
        return _wrap(f"({f.agent},{f.var}) " + _pr(f.sub, 4), 4, level)
    if isinstance(f, Until):
        return _wrap(_pr(f.left, 4) + " U " + _pr(f.right, 3), 3, level)
    if isinstance(f, Or):
        return _wrap(_pr(f.left, 1) + " || " + _pr(f.right, 3), 1, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text, mylevel, wanted):
    return text if mylevel >= wanted else "(" + text + ")"


def print_formula(f):
    """Concrete syntax such that parse_formula(print_formula(f)) == f.

    The printed form spells out the desugaring (G p is !((tt || !tt) U !p)), so
    it nests deeper than the text f was parsed from; it parses back only while
    that stays within MAX_NESTING.
    """
    return _pr(f, 0)


# ---------------------------------------------------------------------------
# free placeholders


def free_placeholders(f, agents):
    """Free agents and variables of f, relative to the agent set."""
    agents = frozenset(agents)  # a frozenset comes back as itself: one set for the walk
    free = frozenset()
    for g in subformulas(f):
        free |= free_placeholders(g, agents)
    if isinstance(f, (Next, Until)):
        return agents | free
    if isinstance(f, ExistsGraded):
        return free - frozenset(f.vars)
    if isinstance(f, Bind) and f.agent in free:
        return (free - {f.agent}) | {f.var}
    return free


def is_sentence(f, agents):
    return not free_placeholders(f, agents)


def subformulas(f):
    """The immediate subformulas of f: (), (sub,) or (left, right).

    The walks built on it recurse through explicit loops: a generator
    expression or a map would add a frame per level.
    """
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Next, ExistsGraded, Bind)):
        return (f.sub,)
    if isinstance(f, (Or, Until)):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def grades_all_finite(f):
    if isinstance(f, ExistsGraded) and not f.grade.is_finite:
        return False
    for g in subformulas(f):
        if not grades_all_finite(g):
            return False
    return True


# ---------------------------------------------------------------------------
# quantifier prefixes, fragments, ranks


def strip_quantifier(f):
    """Match one quantifier at the head of f.

    Returns (kind, vars, grade, body) with kind 'E' or 'A', or None.  The
    universal pattern is its defining desugaring !<<..>>^>=g !body.  Double
    negations are transparent so nested desugared quantifiers still chain.
    """
    while isinstance(f, Not) and isinstance(f.sub, Not):
        f = f.sub.sub
    if isinstance(f, ExistsGraded):
        return ("E", f.vars, f.grade, f.sub)
    if (
        isinstance(f, Not)
        and isinstance(f.sub, ExistsGraded)
        and isinstance(f.sub.sub, Not)
    ):
        q = f.sub
        return ("A", q.vars, q.grade, q.sub.sub)
    return None


def strip_prefix(f):
    """Maximal consecutive quantifier sequence at the head of f.

    Returns (prefix, body) where prefix is a list of (kind, vars, grade).
    """
    prefix = []
    while (m := strip_quantifier(f)) is not None:
        kind, variables, grade, f = m
        prefix.append((kind, variables, grade))
    return prefix, f


def strip_exists_block(f):
    """Maximal existential quantifier block at the head of f, as a list of
    (vars, grade), and its body; it stops at the first quantifier that is
    not existential."""
    block = []
    while (m := strip_quantifier(f)) is not None and m[0] == "E":
        _kind, variables, grade, f = m
        block.append((variables, grade))
    return block, f


def strip_binding_prefix(f):
    bindings = []
    while isinstance(f, Bind):
        bindings.append((f.agent, f.var))
        f = f.sub
    return bindings, f


def _fold_prefixes(f, at_prefix):
    """at_prefix(prefix, the fold of its body) at each maximal quantifier
    prefix; elsewhere the largest fold over the subformulas (0 for none)."""
    prefix, body = strip_prefix(f)
    if prefix:
        return at_prefix(prefix, _fold_prefixes(body, at_prefix))
    n = 0
    for g in subformulas(f):
        n = max(n, _fold_prefixes(g, at_prefix))
    return n


def _switches(prefix):
    return sum(1 for a, b in zip(prefix, prefix[1:]) if a[0] != b[0])


def quantifier_rank(f):
    return _fold_prefixes(f, lambda prefix, inner: len(prefix) + inner)


def quantifier_block_rank(f):
    """Nesting depth of quantifier blocks as the compiler pools them: a
    negation is transparent (it dualizes), and each existential quantifier
    starts a block, strip_exists_block's, around the rest."""
    if isinstance(f, ExistsGraded):
        _block, body = strip_exists_block(f)
        return 1 + quantifier_block_rank(body)
    n = 0
    for g in subformulas(f):
        n = max(n, quantifier_block_rank(g))
    return n


def _is_nested_goal(f, agents):
    prefix, body = strip_prefix(f)
    if prefix:
        free = free_placeholders(body, agents)
        if free & frozenset(agents):
            return False
        quantified = [v for _, variables, _ in prefix for v in variables]
        if len(set(quantified)) != len(quantified) or set(quantified) != free:
            return False
        return _is_nested_goal(body, agents)
    if isinstance(f, Bind):
        bindings, body = strip_binding_prefix(f)
        bound = [a for a, _ in bindings]
        if sorted(bound) != sorted(set(agents)):
            return False
        return _is_nested_goal(body, agents)
    for g in subformulas(f):
        if not _is_nested_goal(g, agents):
            return False
    return True


def _is_one_goal(f, agents):
    """Called only on a nested-goal f, whose walk has already checked, at
    each prefix this one reaches, that the quantified variables are distinct
    and are exactly the free names of the goal."""
    prefix, goal = strip_prefix(f)
    if prefix:
        bindings, body = strip_binding_prefix(goal)
        bound = [a for a, _ in bindings]
        if sorted(bound) != sorted(set(agents)):
            return False
        return _is_one_goal(body, agents)
    if isinstance(f, Bind):
        return False
    for g in subformulas(f):
        if not _is_one_goal(g, agents):
            return False
    return True


def alternation_number(f):
    """Quantifier-switch count for Nested-Goal formulas (see analyze_fragment)."""
    return _fold_prefixes(f, lambda prefix, inner: max(_switches(prefix), inner))


@dataclass(frozen=True)
class FragmentReport:
    is_sentence: bool
    is_nested_goal: bool
    is_one_goal: bool
    grades_all_finite: bool
    alternation_number: int | None
    quantifier_rank: int
    quantifier_block_rank: int


def analyze_fragment(f, agents):
    sentence = is_sentence(f, agents)
    ng = sentence and _is_nested_goal(f, agents)
    og = ng and _is_one_goal(f, agents)
    return FragmentReport(
        is_sentence=sentence,
        is_nested_goal=ng,
        is_one_goal=og,
        grades_all_finite=grades_all_finite(f),
        alternation_number=alternation_number(f) if ng else None,
        quantifier_rank=quantifier_rank(f),
        quantifier_block_rank=quantifier_block_rank(f),
    )
