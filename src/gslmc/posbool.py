"""Positive Boolean formulas over moves, with constants true and false.

Formulas are immutable tuples so they hash and compare structurally:

    ('t',)              constant true
    ('f',)              constant false
    ('a', move)         an atom; a move is any hashable, ordered value
    ('&', (f1, f2, ..)) n-ary conjunction, children ordered by value and
                        deduplicated
    ('|', (f1, f2, ..)) n-ary disjunction, likewise

Constructors normalize: constants fold away, nested same-kind nodes are
flattened, duplicate children dropped.  Children are ordered by comparing the
tuples themselves, so the moves of one automaton must be comparable with each
other (every automaton here uses (direction, state number) moves, and
directions are state names, strings); the order does not depend on the hash
seed.  Negation does not exist; dualization swaps the two kinds and the two
constants.

The walks `dual`, `map_atoms` and `atoms` take a `memo` dict from formula
to result.  An automaton operation that walks many transitions passes one
dict for the whole operation, and the recursion shares it, so each distinct
(sub)formula is walked once and equal inputs give one shared result object.
A memo holds the results of one walk: `map_atoms` needs one dict per `fn`.
Memos live only as long as the operation that made them; no cache here is
module-level, so no formula outlives the check that built it.
"""

from gslmc.errors import ResourceBudgetError

TRUE = ("t",)
FALSE = ("f",)


def atom(move):
    return ("a", move)


def _build(kind, items, absorb, annihilate):
    flat = []
    for f in items:
        if f == annihilate:
            return annihilate
        if f == absorb:
            continue
        if f[0] == kind:
            flat.extend(f[1])
        else:
            flat.append(f)
    flat = sorted(set(flat))
    if not flat:
        return absorb
    if len(flat) == 1:
        return flat[0]
    return (kind, tuple(flat))


def conj(items):
    return _build("&", items, TRUE, FALSE)


def disj(items):
    return _build("|", items, FALSE, TRUE)


def presorted(kind, items):
    """What conj ('&') or disj ('|') builds from items that are already
    distinct and sorted, none a constant or of that kind; nothing is
    checked."""
    if len(items) == 1:
        return items[0]
    if not items:
        return TRUE if kind == "&" else FALSE
    return (kind, tuple(items))


def dual(f, memo):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "a":
        return f
    out = memo.get(f)
    if out is None:
        kids = [dual(k, memo) for k in f[1]]
        out = memo[f] = conj(kids) if f[0] == "|" else disj(kids)
    return out


def map_atoms(f, fn, memo):
    """Rebuild f with every atom move m replaced by fn(m) (normalizing).

    memo must only ever have been used with this same fn.
    """
    if f in (TRUE, FALSE):
        return f
    out = memo.get(f)
    if out is None:
        if f[0] == "a":
            out = atom(fn(f[1]))
        else:
            kids = [map_atoms(k, fn, memo) for k in f[1]]
            out = conj(kids) if f[0] == "&" else disj(kids)
        memo[f] = out
    return out


def atoms(f, memo):
    """Set of moves occurring in f."""
    if f in (TRUE, FALSE):
        return frozenset()
    if f[0] == "a":
        return frozenset([f[1]])
    out = memo.get(f)
    if out is None:
        moves = set()
        for k in f[1]:
            if k[0] == "a":
                moves.add(k[1])
            else:
                moves |= atoms(k, memo)
        out = memo[f] = frozenset(moves)
    return out


def _antichain(sets, count, budget, spent):
    """The minimal sets among the `count` candidate sets.  Each candidate is
    charged one before any is made, and each subset test one more."""
    limit = 20 * budget
    work = spent[0] + count
    out = []
    if work <= limit:
        for s in sorted(sets, key=len):
            work += len(out)  # at most this many tests for s
            if work > limit:
                break
            for t in out:
                if t <= s:
                    break
            else:
                out.append(s)
    spent[0] = work
    if work > limit:
        raise ResourceBudgetError(f"minimal models exceed the budget ({budget})")
    return out


def minimal_models(f, budget, spent):
    """Minimal sets of moves satisfying f; only FALSE has none, since a
    normalized formula holds FALSE nowhere else.

    The work is charged to spent, a one-element list that the recursion
    shares and that a caller shares over the calls of one operation: one
    for each candidate model and each subset test of the antichains that
    keep the minimal ones.  Past 20 * budget it raises ResourceBudgetError.
    """
    if f == TRUE:
        return [frozenset()]
    if f == FALSE:
        return []
    if f[0] == "a":
        return [frozenset([f[1]])]
    if f[0] == "|":
        models = []
        for k in f[1]:
            models.extend(minimal_models(k, budget, spent))
        return _antichain(models, len(models), budget, spent)
    models = [frozenset()]
    for k in f[1]:
        kid = minimal_models(k, budget, spent)
        combined = (m | km for m in models for km in kid)
        models = _antichain(combined, len(models) * len(kid), budget, spent)
    return models


def render(f):
    """Prefix-notation rendering, used by the stage-dump format."""
    if f == TRUE:
        return "t"
    if f == FALSE:
        return "f"
    if f[0] == "a":
        d, q = f[1]
        return f"({d!s},{q!s})"
    op = "and" if f[0] == "&" else "or"
    return "(" + op + " " + " ".join(render(k) for k in f[1]) + ")"
