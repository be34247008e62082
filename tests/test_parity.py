import sys

import numpy as np
import pytest

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


class TestRegressions:
    def test_deep_head_chain_within_default_recursion_limit(self):
        # one distinct priority per vertex: Zielonka's recursion is n deep
        n = 3000
        assert sys.getrecursionlimit() < n
        rng = np.random.default_rng(3)
        g = chain(n, rng.integers(2, size=n).tolist(), list(range(n)))
        win, strat = solve_zielonka(g)
        assert (win == REFUTER).all()  # the sink's loop has odd priority n-1
        for player in (VERIFIER, REFUTER):
            assert verify_strategy(g, win == player, player, strat)

    def test_strategies_verify_on_random_degree_4_games(self):
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

    def test_dump_with_dead_ends_and_duplicate_successors(self):
        g = ParityGame([VERIFIER, REFUTER, VERIFIER, REFUTER], [2, 3, 4, 5], [[1, 1, 2], [], [], [0, 3, 0]])
        assert dump(g) == "0 0 2 1 1 2\n1 1 0 1\n2 0 1 2\n3 1 5 0 3 0\n"
        assert g.pred_dat.tolist() == [3, 3, 0, 0, 1, 0, 2, 3]
        assert g.pred_ptr.tolist() == [0, 2, 5, 7, 8]

    def test_successor_out_of_range_rejected(self):
        for bad in (2, -1):
            with pytest.raises(ValueError):
                ParityGame([VERIFIER, REFUTER], [0, 1], [[1], [bad]])
