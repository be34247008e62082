"""Positive Boolean formulas: the memoized walks against plain recursion.

Oracle notes:
- [DERIVED] `map_atoms`, `dual` and `atoms` with one memo shared across many
  formulas must equal the unmemoized recursive definitions kept below.
- [TRIVIAL] dualization is complement up to swapping the chosen moves.
"""

import itertools

from gslmc import posbool as pb
from gslmc.automata import simplify
from gslmc.determinize import DEFAULT_BUDGET

from test_automata import random_apt

MOVES = [(d, q) for d in (0, 1) for q in range(3)]


def random_formula(rng, depth=3, pool=None):
    """A random formula; with a pool, subformulas are sometimes reused."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    r = rng.random()
    if depth == 0 or r < 0.3:
        f = pb.atom(rng.choice(MOVES))
    elif r < 0.35:
        f = pb.TRUE
    elif r < 0.4:
        f = pb.FALSE
    else:
        kids = [random_formula(rng, depth - 1, pool) for _ in range(rng.randint(2, 4))]
        f = (pb.conj if rng.random() < 0.5 else pb.disj)(kids)
    if pool is not None:
        pool.append(f)
    return f


def random_formulas(rng, n=300):
    pool = []
    return [random_formula(rng, pool=pool) for _ in range(n)]


# the definitions before memoization, as references


def ref_dual(f):
    if f == pb.TRUE:
        return pb.FALSE
    if f == pb.FALSE:
        return pb.TRUE
    if f[0] == "a":
        return f
    kids = tuple(ref_dual(k) for k in f[1])
    return pb.conj(kids) if f[0] == "|" else pb.disj(kids)


def ref_map_atoms(f, fn):
    if f in (pb.TRUE, pb.FALSE):
        return f
    if f[0] == "a":
        return pb.atom(fn(f[1]))
    kids = [ref_map_atoms(k, fn) for k in f[1]]
    return pb.conj(kids) if f[0] == "&" else pb.disj(kids)


def ref_atoms(f):
    if f in (pb.TRUE, pb.FALSE):
        return frozenset()
    if f[0] == "a":
        return frozenset([f[1]])
    out = set()
    for k in f[1]:
        out |= ref_atoms(k)
    return frozenset(out)


def evaluate(f, chosen):
    """Truth of f when exactly the moves in `chosen` are set to true."""
    if f == pb.TRUE:
        return True
    if f == pb.FALSE:
        return False
    if f[0] == "a":
        return f[1] in chosen
    if f[0] == "&":
        return all(evaluate(k, chosen) for k in f[1])
    return any(evaluate(k, chosen) for k in f[1])


def nodes(f):
    return 1 if f[0] in "tfa" else 1 + sum(nodes(k) for k in f[1])


def merge_states(move):
    # many-to-one, so that rebuilt children collapse and renormalize
    d, q = move
    return (d, min(q, 1))


class TestMemoizedWalks:
    def test_shared_memo_matches_plain_recursion(self, rng):
        fs = random_formulas(rng)
        memos = {"dual": {}, "map": {}, "atoms": {}}
        for f in fs:
            assert pb.dual(f, memos["dual"]) == ref_dual(f)
            assert pb.map_atoms(f, merge_states, memos["map"]) == ref_map_atoms(f, merge_states)
            assert pb.atoms(f, memos["atoms"]) == ref_atoms(f)
            assert pb.dual(f, {}) == ref_dual(f)
            assert pb.map_atoms(f, merge_states, {}) == ref_map_atoms(f, merge_states)
            assert pb.atoms(f, {}) == ref_atoms(f)
        # the memos were hit: far fewer entries than nodes walked
        assert 0 < len(memos["map"]) < sum(nodes(f) for f in fs)

    def test_equal_inputs_share_one_result(self, rng):
        fs = random_formulas(rng)
        memo = {}
        out = {}
        for f in fs:
            # an equal but freshly built copy must hit the same entry
            copy = pb.map_atoms(f, lambda m: m, {})
            assert copy == f
            g = pb.map_atoms(copy, merge_states, memo)
            assert out.setdefault(f, g) is g

    def test_dual_is_complement_up_to_swapping_moves(self, rng):
        universe = frozenset(MOVES)
        subsets = [
            frozenset(c) for r in range(len(MOVES) + 1) for c in itertools.combinations(MOVES, r)
        ]
        memo = {}
        for f in random_formulas(rng, n=200):
            g = pb.dual(f, memo)
            for s in subsets:
                assert evaluate(g, s) == (not evaluate(f, universe - s))


class TestSimplifySharing:
    def test_equal_transitions_are_one_object(self, rng):
        for _ in range(200):
            a = simplify(random_apt(rng, max_states=6), DEFAULT_BUDGET)
            first = {}
            for row in a.trans:
                for f in row:
                    assert first.setdefault(f, f) is f
