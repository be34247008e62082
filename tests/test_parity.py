import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gslmc.paritygame import (
    REFUTER,
    VERIFIER,
    ParityGame,
    solve_fixpoint,
    solve_zielonka,
    verify_strategy,
)


def dump(game):
    """One vertex per line: id, owner, priority, successor list."""
    lines = []
    for v in range(game.n):
        succ = " ".join(str(w) for w in game.successors_of(v))
        lines.append(f"{v} {int(game.owner[v])} {int(game.priority[v])} {succ}")
    return "\n".join(lines) + "\n"


def random_game(rng, max_v=8, max_pr=4):
    n = rng.randint(1, max_v)
    owners = [rng.randrange(2) for _ in range(n)]
    prios = [rng.randrange(max_pr + 1) for _ in range(n)]
    succs = [
        rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(n)
    ]
    return ParityGame(owners, prios, succs)


class TestExamples:
    def test_even_self_loop_verifier_wins(self):
        g = ParityGame([VERIFIER], [0], [[0]])
        win, _ = solve_zielonka(g)
        assert win[0] == VERIFIER

    def test_odd_self_loop_refuter_wins(self):
        g = ParityGame([VERIFIER], [1], [[0]])
        win, _ = solve_zielonka(g)
        assert win[0] == REFUTER

    def test_dead_end_loses_for_owner(self):
        g = ParityGame([VERIFIER, REFUTER], [0, 0], [[], []])
        win, _ = solve_zielonka(g)
        assert win[0] == REFUTER  # Verifier stuck
        assert win[1] == VERIFIER  # Refuter stuck

    def test_choice_matters(self):
        # Verifier at 0 picks between even loop (1) and odd loop (2)
        g = ParityGame([VERIFIER, VERIFIER, VERIFIER], [3, 0, 1], [[1, 2], [1], [2]])
        win, strat = solve_zielonka(g)
        assert win[0] == VERIFIER
        assert strat[0] == 1

    def test_verify_strategy_rejects_each_way_a_strategy_can_fail(self):
        # Verifier owns 0 and 1, Refuter 2 and 3; 1 and 2 have priority 0
        g = ParityGame([VERIFIER, VERIFIER, REFUTER, REFUTER], [1, 0, 0, 1],
                       [[0, 1], [1], [2, 3], [3]])
        region = [True, True, False, False]
        assert verify_strategy(g, region, VERIFIER, [1, 1, -1, -1])
        # 3 is not a successor of 0
        assert not verify_strategy(g, region, VERIFIER, [3, 1, -1, -1])
        # the move 0 -> 1 leaves the region {0}
        assert not verify_strategy(g, [True, False, False, False], VERIFIER, [1, 1, -1, -1])
        # Refuter escapes from the region {2} to 3
        assert not verify_strategy(g, [False, False, True, False], VERIFIER, [1, 1, -1, -1])
        # the loop at 0 has the odd priority 1
        assert not verify_strategy(g, region, VERIFIER, [0, 1, -1, -1])


def assert_solved(game):
    """Zielonka's regions equal the fixpoint solver's, and both players'
    strategies win on their regions."""
    win, strat = solve_zielonka(game)
    assert list(win) == list(solve_fixpoint(game))
    for player in (VERIFIER, REFUTER):
        assert verify_strategy(game, win == player, player, strat)


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    return ParityGame(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        draw(st.lists(st.lists(vertex, max_size=3), min_size=n, max_size=n)),
    )


@given(small_games())
def test_zielonka_matches_fixpoint_and_strategies_verify(game):
    assert_solved(game)


class TestAgreement:
    def test_zielonka_matches_fixpoint_on_200_games(self, rng):
        for _ in range(200):
            g = random_game(rng)
            win_z, _ = solve_zielonka(g)
            win_f = solve_fixpoint(g)
            assert list(win_z) == list(win_f)

    def test_strategies_verify(self, rng):
        for _ in range(100):
            g = random_game(rng)
            win, strat = solve_zielonka(g)
            for player in (VERIFIER, REFUTER):
                region = np.asarray(win) == player
                if region.any():
                    assert verify_strategy(g, region, player, strat)


def chain(n, owners, prios, forward=True):
    """Path through n vertices ending in a self-loop: 0 -> 1 -> ... -> n-1
    (forward) or n-1 -> ... -> 0 (backward)."""
    if forward:
        succs = [[v + 1] for v in range(n - 1)] + [[n - 1]]
    else:
        succs = [[0]] + [[v - 1] for v in range(1, n)]
    return ParityGame(owners, prios, succs)


def attractor_by_definition(game, player, seed, sub):
    """Least fixpoint X = (seed & sub) | (sub & CPre_player(X)), and the round
    in which each vertex enters it (-1 outside X).

    CPre is taken within sub: a player vertex needs one successor in X, an
    opponent vertex needs a successor in sub and all of them in X.
    """
    x = seed & sub
    rank = np.where(x, 0, -1)
    r = 0
    while True:
        r += 1
        new = []
        for v in np.flatnonzero(sub & ~x):
            succ = [w for w in game.successors_of(v) if sub[w]]
            if game.owner[v] == player:
                ok = any(x[w] for w in succ)
            else:
                ok = bool(succ) and all(x[w] for w in succ)
            if ok:
                new.append(v)
        if not new:
            return x, rank
        x = x.copy()
        x[new] = True
        rank[new] = r


def assert_attractor_matches_definition(game, player, seed, sub):
    attr, strat = game.attractor(player, seed, sub)
    x, rank = attractor_by_definition(game, player, seed, sub)
    assert list(attr) == list(x)
    moving = x & ~seed & (game.owner == player)
    assert list(strat >= 0) == list(moving)
    for v in np.flatnonzero(moving):
        w = int(strat[v])
        assert w in game.successors_of(v)
        assert x[w] and rank[w] < rank[v]


class TestAttractorDefinition:
    def test_random_games_and_subgames(self, rng):
        for _ in range(200):
            # successors drawn with repetition: duplicate edges count twice
            n = rng.randint(1, 12)
            g = ParityGame(
                [rng.randrange(2) for _ in range(n)],
                [0] * n,
                [[rng.randrange(n) for _ in range(rng.randint(0, 4))] for _ in range(n)],
            )
            sub = np.array([rng.random() < 0.8 for _ in range(g.n)])
            seed = np.array([rng.random() < 0.25 for _ in range(g.n)])
            assert_attractor_matches_definition(g, rng.randrange(2), seed, sub)

    def test_chains_of_both_orientations(self, rng):
        n = 60
        for forward in (True, False):
            for _ in range(5):
                owners = [rng.randrange(2) for _ in range(n)]
                g = chain(n, owners, [0] * n, forward)
                sink = n - 1 if forward else 0
                seed = np.arange(n) == sink
                sub = np.array([rng.random() < 0.95 for _ in range(n)])
                sub[sink] = True
                for player in (VERIFIER, REFUTER):
                    assert_attractor_matches_definition(g, player, seed, np.ones(n, dtype=bool))
                    assert_attractor_matches_definition(g, player, seed, sub)


def dag_over_core(rng):
    """A random cyclic core with a random DAG of both owners hung above it,
    vertex ids shuffled.  Successor lists may repeat a vertex or be empty."""
    n_core = rng.randint(1, 12)
    n = n_core + rng.randint(1, 24)
    succs = [
        [rng.randrange(n_core) for _ in range(rng.randint(0, 3))] for _ in range(n_core)
    ]
    # DAG vertex v moves only to core vertices and to DAG vertices above v
    succs += [
        [rng.randrange(v + 1, n) if rng.random() < 0.5 and v + 1 < n else rng.randrange(n_core)
         for _ in range(rng.randint(0, 3))]
        for v in range(n_core, n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = [None] * n
    for v, row in enumerate(succs):
        shuffled[perm[v]] = [perm[w] for w in row]
    return ParityGame(
        [rng.randrange(2) for _ in range(n)],
        [rng.randrange(6) for _ in range(n)],
        shuffled,
    )


def transient_by_definition(game):
    """Least fixpoint T = {v : every predecessor of v other than v is in T}."""
    preds = [set() for _ in range(game.n)]
    for v in range(game.n):
        for w in game.successors_of(v):
            if w != v:
                preds[w].add(v)
    t = set()
    while True:
        grown = {v for v in range(game.n) if preds[v] <= t}
        if grown == t:
            return t
        t = grown


class TestTransient:
    def test_dag_over_core_games(self, rng):
        transient = 0
        for _ in range(25):
            g = dag_over_core(rng)
            assert_solved(g)
            transient += g.transient.size
        assert transient > 200

    def test_transient_is_the_least_fixpoint_in_topological_order(self, rng):
        for i in range(200):
            g = dag_over_core(rng) if i % 2 else random_game(rng, max_v=12)
            order = g.transient.tolist()
            assert len(set(order)) == len(order)
            assert set(order) == transient_by_definition(g)
            pos = {v: k for k, v in enumerate(order)}
            for v in range(g.n):
                for w in g.successors_of(v):
                    if w in pos and w != v:
                        assert pos[v] < pos[w]

    def test_chains_call_attractor_at_most_once(self, monkeypatch):
        calls = []
        attractor = ParityGame.attractor

        def counted(game, *args):
            calls.append(args)
            return attractor(game, *args)

        monkeypatch.setattr(ParityGame, "attractor", counted)
        n = 2000
        owners = np.random.default_rng(5).integers(2, size=n).tolist()
        # tail chain (only the sink's priority is even) and head chain; the
        # sink's only cycle is its own loop, so the whole chain is transient
        for prios in ([1] * (n - 1) + [0], list(range(n))):
            g = chain(n, owners, prios)
            assert g.transient.tolist() == list(range(n))
            calls.clear()
            win, _ = solve_zielonka(g)
            assert not calls
            assert (win == prios[-1] % 2).all()


class TestRegressions:
    def test_deep_head_chain_within_default_recursion_limit(self):
        # one distinct priority per vertex; every vertex is transient, so
        # the chain is settled by one retrograde pass of n steps
        n = 3000
        assert sys.getrecursionlimit() < n
        rng = np.random.default_rng(3)
        g = chain(n, rng.integers(2, size=n).tolist(), list(range(n)))
        win, strat = solve_zielonka(g)
        assert (win == REFUTER).all()  # the sink's loop has odd priority n-1
        for player in (VERIFIER, REFUTER):
            assert verify_strategy(g, win == player, player, strat)

    def test_deep_head_chain_with_a_loop_at_the_head(self):
        # the two-cycle 0 <-> 1 leaves no vertex transient: one distinct
        # priority per vertex makes Zielonka's stack n frames deep
        n = 3000
        assert sys.getrecursionlimit() < n
        owners = np.random.default_rng(3).integers(2, size=n).tolist()
        succs = [[1], [2, 0]] + [[v + 1] for v in range(2, n - 1)] + [[n - 1]]
        g = ParityGame(owners, list(range(n)), succs)
        assert g.transient.size == 0
        win, strat = solve_zielonka(g)
        # the owner of vertex 1 decides: Verifier stays on the cycle, whose
        # least priority is 0, and Refuter moves on down the chain
        assert win[0] == win[1] == owners[1]
        assert (win[2:] == REFUTER).all()  # the sink's loop has odd priority n-1
        for player in (VERIFIER, REFUTER):
            assert verify_strategy(g, win == player, player, strat)

    def test_long_attractor_on_tail_chain_with_a_loop_at_the_head(self):
        # the sink's priority 0 is the least: its attractor grows backwards
        # along the chain for n rounds
        n = 2000
        owners = np.random.default_rng(4).integers(2, size=n).tolist()
        succs = [[1], [2, 0]] + [[v + 1] for v in range(2, n - 1)] + [[n - 1]]
        g = ParityGame(owners, [1] * (n - 1) + [0], succs)
        assert g.transient.size == 0
        win, strat = solve_zielonka(g)
        # the owner of vertex 1 decides: Verifier moves on to the sink,
        # Refuter stays on the cycle of priority 1
        assert win[0] == win[1] == owners[1]
        assert (win[2:] == VERIFIER).all()
        for player in (VERIFIER, REFUTER):
            assert verify_strategy(g, win == player, player, strat)

    def test_self_loop_ladder_is_settled_without_attractors(self, monkeypatch):
        # edges v -> v and v -> v+1, priority v, owners alternating: every
        # vertex is its own strongly connected component, which once cost
        # Zielonka a quadratic number of attractor calls
        calls = []
        attractor = ParityGame.attractor

        def counted(game, *args):
            calls.append(args)
            return attractor(game, *args)

        monkeypatch.setattr(ParityGame, "attractor", counted)
        n = 3000
        succs = [[v, v + 1] for v in range(n - 1)] + [[n - 1]]
        for phase in (0, 1):
            owners = [(v + phase) % 2 for v in range(n)]
            g = ParityGame(owners, list(range(n)), succs)
            assert g.transient.size == n
            win, strat = solve_zielonka(g)
            assert not calls
            if phase == 0:
                # each owner stays on a loop of its own parity
                assert win.tolist() == owners and strat.tolist() == list(range(n))
            else:
                # no owner likes its loop; the last vertex's odd loop wins
                # for Refuter, and every vertex above it follows
                assert (win == REFUTER).all()
            for player in (VERIFIER, REFUTER):
                assert verify_strategy(g, win == player, player, strat)

    def test_strategies_verify_on_random_degree_4_games(self):
        # the digest pins win and strategy element by element, as the solver
        # with int64 storage computed them
        digest = hashlib.sha256()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 300
            g = ParityGame(
                rng.integers(2, size=n).tolist(),
                rng.integers(4, size=n).tolist(),
                rng.integers(n, size=(n, 4)).tolist(),
            )
            win, strat = solve_zielonka(g)
            for player in (VERIFIER, REFUTER):
                assert verify_strategy(g, win == player, player, strat), seed
            digest.update(repr((win.tolist(), strat.tolist())).encode())
        assert digest.hexdigest() == (
            "6c26fef351988e8133c1fe0ea7265d0a71cf29caaf37d8c9460073bc074ccea0"
        )

    def test_dump_with_dead_ends_and_duplicate_successors(self):
        g = ParityGame([VERIFIER, REFUTER, VERIFIER, REFUTER], [2, 3, 4, 5], [[1, 1, 2], [], [], [0, 3, 0]])
        assert dump(g) == "0 0 2 1 1 2\n1 1 0 1\n2 0 1 2\n3 1 5 0 3 0\n"
        assert g.pred_dat.tolist() == [3, 3, 0, 0, 1, 0, 2, 3]
        assert g.pred_ptr.tolist() == [0, 2, 5, 7, 8]

    def test_predecessors_in_stable_order(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 200))
            # repeats, self-loops and empty rows (dead ends) all occur
            g = ParityGame(
                rng.integers(2, size=n).tolist(),
                [0] * n,
                [rng.integers(n, size=rng.integers(0, 6)).tolist() for _ in range(n)],
            )
            order = np.argsort(g.succ_dat, kind="stable")
            sources = np.repeat(np.arange(n), np.diff(g.succ_ptr))
            assert g.pred_dat.tolist() == sources[order].tolist(), seed
            indeg = np.bincount(g.succ_dat, minlength=n)
            assert g.pred_ptr.tolist() == [0] + np.cumsum(indeg).tolist(), seed

    def test_successor_out_of_range_rejected(self):
        # a ValueError, not numpy's OverflowError, for values beyond int32
        for bad in (2, -1, 2**31, 2**63):
            with pytest.raises(ValueError):
                ParityGame([VERIFIER, REFUTER], [0, 1], [[1], [bad]])

    def test_priority_beyond_int32_rejected(self):
        for bad in (2**31, -(2**31) - 1):
            with pytest.raises(ValueError):
                ParityGame([VERIFIER, REFUTER], [0, bad], [[1], [0]])


class TestStorage:
    def test_footprint_of_a_100k_vertex_game(self):
        n = 100_000
        rng = np.random.default_rng(1)
        g = ParityGame(
            rng.integers(2, size=n).tolist(),
            rng.integers(4, size=n).tolist(),
            rng.integers(n, size=(n, 4)).tolist(),
        )
        arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        assert all(a.dtype == np.int32 for a in arrays if a is not g.owner)
        assert g.owner.dtype == np.int8
        # int64 storage took 8,916,128 bytes (8.50 MiB) for this game; every
        # array but the int8 owners now takes half of its old size
        rest = sum(a.nbytes for a in arrays) - g.owner.nbytes
        assert rest <= (8_916_128 - g.owner.nbytes) // 2
        win, strat = solve_zielonka(g)
        assert win.dtype == np.int8 and strat.dtype == np.int32
        attr, attr_strat = g.attractor(VERIFIER, g.priority == 0, np.ones(n, dtype=bool))
        assert attr.dtype == bool and attr_strat.dtype == np.int32
