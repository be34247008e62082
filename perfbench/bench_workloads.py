"""The benchmark's workloads: seeded inputs, recorded answers and the verdict gate.

Every call into gslmc goes through a module attribute (``pg.solve_zielonka``,
``fm.parse_formula``) rather than a name imported here, so that the tracer in
``bench_trace.py`` sees the call when it rebinds those attributes.
"""

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gslmc import cgs as cgs_mod
from gslmc import cli
from gslmc import compiler
from gslmc import formula as fm
from gslmc import paritygame as pg

WORKLOADS = ("fixtures", "desk3-reach", "ring", "parity-games")

# Seconds one untraced pass over each workload takes on a 2-core x86 host
# (Python 3.11, numpy 2.4).  A run makes as many passes as fit in its
# --seconds at this pace, so the operations it attempts depend only on its
# arguments.
PASS_S = {"fixtures": 2.5, "desk3-reach": 18.0, "ring": 3.8, "parity-games": 3.5}

HOLDS = "HOLDS"
FAILS = "FAILS"

# solve_fixpoint recurses once per distinct priority and iterates to a fixpoint
# at every level, so it is only run where it finishes in seconds.
FIXPOINT_MAX_VERTICES = 4096
FIXPOINT_MAX_PRIORITIES = 8


@dataclass
class Instance:
    """One timed operation of a workload.

    ``kind`` is "check" (run returns True when the sentence holds) or "game"
    (run returns (game, win, strategy)).  ``answer`` is the recorded verdict:
    HOLDS/FAILS for a check; for a game, the player who wins every vertex, or
    None when the solver's strategies are the only certificate.
    """

    name: str
    kind: str
    why: str
    answer: object
    source: str
    run: object


@dataclass
class Workload:
    name: str
    seed: int
    instances: list


# ---------------------------------------------------------------------------
# pipeline instances: fixture models with `gslmc gen` sentences


def _generated_check(root, name, model, objectives, kind, answer, source, why):
    """Set up a `gen` sentence the way the CLI does: gen prints the sentence,
    check loads the model and parses the text."""
    data = Path(root) / "examples_data"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["gen", kind, str(data / model), "--objectives", str(data / objectives)])
    if code != 0:
        raise RuntimeError(f"gslmc gen {kind} {model} exited with {code}")
    with open(data / model) as fh:
        game = cgs_mod.load_cgs(json.load(fh))
    sentence = fm.parse_formula(out.getvalue().strip(), set(game.agents))
    return _check_instance(name, game, sentence, answer, source, why)


def _check_instance(name, game, sentence, answer, source, why):
    def run():
        holds, _ctx = compiler.check_sentence(sentence, game)
        return holds

    return Instance(name, "check", why, answer, source, run)


FIXTURES = (
    # (name, model, objectives, gen kind, answer, source, why)
    (
        "single-unique-ne", "single.json", "single_obj.json", "unique-ne", HOLDS,
        "count_ne_memoryless = 1, exact on a one-action model (acceptance criterion 5)",
        "smallest decided uniqueness sentence; fixed cost of two nested blocks",
    ),
    (
        "single-winning-count", "single.json", "single_obj.json", "winning-count", FAILS,
        "analytic: with one action a0 has exactly one strategy, so 'exactly 2' is false;"
        " oracle_check is exact on one-action models",
        "the counting (grade 2 and 3) generator on the same model",
    ),
    (
        "pennies-unique-ne", "pennies.json", "pennies_obj.json", "unique-ne", FAILS,
        "count_ne_memoryless = 0, treated as exact by acceptance criterion 5",
        "general-payoff NE form; two actions give real alternation-removal work",
    ),
    (
        "desk3-next-unique-ne", "desk3.json", "desk3_next_obj.json", "unique-ne", FAILS,
        "analytic: (a, a) at s0 is an equilibrium, and two such profiles that differ"
        " at the absorbing s1 are distinct equilibria (count_ne_memoryless = 32)",
        "largest decided fixture: alternation removal grows 9 -> 60 states in its last stage",
    ),
)

DESK3_REACH = (
    (
        "desk3-reach-unique-ne", "desk3.json", "desk3_obj.json", "unique-ne", FAILS,
        "analytic: (a, a) at s0 reaches p for both; profiles that differ only off the"
        " played path (at s1) are distinct equilibria",
        "ROADMAP headline target: F-goal unique-NE, stops on the work budget today",
    ),
    (
        "desk3-reach-unique-spe", "desk3.json", "desk3_obj.json", "unique-spe", FAILS,
        "analytic: the same two profiles are subgame perfect, since no subgame lets"
        " anyone change the outcome at s1 or s2",
        "SPE form of the same goals; stops on the transition-choice budget today",
    ),
)

# Sentences of the `gen` kinds left out because one run of them takes too
# long or too much memory for a benchmark run; all stop on the default budget.
# Costs measured on a 2-core x86 machine with Python 3.11 and numpy 2.4; the
# first one is from an earlier measurement and was not rerun, for its memory.
LEFT_OUT = (
    ("single", "unique-spe", "state-budget stop after 118 s at 2.8 GB peak RSS;"
     " a robustness defect as well"),
    ("pennies", "unique-spe", "work-budget stop after 12.8 s, 365 MB peak RSS"),
    ("pennies", "winning-count", "work-budget stop after 9.0 s, 323 MB peak RSS"),
    ("desk3_next", "unique-spe", "work-budget stop after 13.0 s, 364 MB peak RSS"),
    ("desk3_next", "winning-count", "work-budget stop after 10.6 s, 314 MB peak RSS"),
)


def _fixture_workload(root, table):
    return [_generated_check(root, *row) for row in table]


# ---------------------------------------------------------------------------
# ring: generated n-state ring structures


def ring_model(n, agents, rng):
    """n-state ring: all agents playing `a` advances, anything else stays.

    The seed picks the state names and the order the model lists them in;
    the ring starts at position 0 and p holds only at position n-1.
    """
    names = [f"r{i}" for i in range(n)]
    rng.shuffle(names)
    listed = list(names)
    rng.shuffle(listed)
    transitions = []
    for i, state in enumerate(names):
        for decision in itertools.product(("a", "b"), repeat=len(agents)):
            advance = all(act == "a" for act in decision)
            transitions.append(
                {
                    "from": state,
                    "decision": dict(zip(agents, decision)),
                    "to": names[(i + 1) % n] if advance else state,
                }
            )
    return {
        "atoms": ["p"],
        "agents": list(agents),
        "actions": ["a", "b"],
        "states": listed,
        "initial": names[0],
        "label": {names[n - 1]: ["p"]},
        "transitions": transitions,
    }


RING = (
    # (name, agents, sentence, full n, tiny n, answer, source, why)
    (
        "ring-count2-reach", ("a0",), "<<x>>^>=2 (a0,x) F p", 40, 4, HOLDS,
        "analytic: playing a on the way reaches p, and two such strategies that"
        " differ at p's state are distinct; oracle_check agrees at n = 4",
        "grade-2 block; letters grow with n while stages stay 4 -> 17 states",
    ),
    (
        "ring-buchi", ("a0",), "<<x>>^>=1 (a0,x) G F p", 80, 4, HOLDS,
        "analytic: always playing a cycles the ring through p forever;"
        " oracle_check agrees at n = 4",
        "Buechi goal: the widest membership game and parity solve of the family",
    ),
    (
        "ring-two-agent", ("a0", "a1"), "<<x>>^>=1 [[y]]^<1 (a0,x) (a1,y) F p", 13, 3, FAILS,
        "analytic: a1 can always play b and keep the ring from moving;"
        " oracle_check agrees at n = 4",
        "alternating blocks over two agents: four decisions per state widen every stage",
    ),
)


def _ring_workload(seed, tiny):
    rng = random.Random(seed)
    out = []
    for name, agents, text, n_full, n_tiny, answer, source, why in RING:
        n = n_tiny if tiny else n_full
        game = cgs_mod.load_cgs(ring_model(n, agents, rng))
        sentence = fm.parse_formula(text, set(agents))
        out.append(_check_instance(f"{name}-{n}", game, sentence, answer, source, why))
    return out


# ---------------------------------------------------------------------------
# parity-games: synthetic games passed straight to the solver


def random_game(n, rng):
    """Degree-4 game with random successors, owners and 4 priorities."""
    succs = rng.integers(n, size=(n, 4)).tolist()
    owners = rng.integers(2, size=n).tolist()
    prios = rng.integers(4, size=n).tolist()
    return owners, prios, succs


def chain_game(n, prios, rng):
    """Path 0 -> 1 -> ... -> n-1 with a self-loop on the sink n-1."""
    succs = [[v + 1] for v in range(n - 1)] + [[n - 1]]
    owners = rng.integers(2, size=n).tolist()
    return owners, list(prios), succs


def _game_instance(name, lists, answer, source, why):
    owners, prios, succs = lists

    def run():
        game = pg.ParityGame(owners, prios, succs)
        win, strat = pg.solve_zielonka(game)
        return game, win, strat

    return Instance(name, "game", why, answer, source, run)


def _games_workload(seed, tiny):
    rng = np.random.default_rng(seed)
    n_random, n_tail, n_head = (1000, 50, 50) if tiny else (100_000, 2000, 3000)
    return [
        _game_instance(
            f"random-{n_random}", random_game(n_random, rng), None,
            "verify_strategy certifies both players' regions",
            "attractor and game construction at scale on a typical random graph",
        ),
        _game_instance(
            f"tail-chain-{n_tail}",
            chain_game(n_tail, [1] * (n_tail - 1) + [0], rng), pg.VERIFIER,
            "analytic: every play reaches the sink, whose loop has priority 0;"
            " also solve_fixpoint and verify_strategy",
            "one attractor that grows one vertex per round: the quadratic numpy cliff",
        ),
        _game_instance(
            f"head-chain-{n_head}", chain_game(n_head, range(n_head), rng), pg.REFUTER,
            "analytic: every play ends in the sink's loop, whose priority n-1 is odd;"
            " also verify_strategy",
            "one distinct priority per vertex: recursion depth equals n in Zielonka",
        ),
    ]


# ---------------------------------------------------------------------------


def build(name, seed, root, tiny=False):
    """Set up a workload: everything a check needs before it can start.

    tiny=True shrinks every instance to a size that runs in well under a
    second, for the benchmark's own tests.
    """
    if name == "fixtures":
        instances = _fixture_workload(root, FIXTURES[:2] if tiny else FIXTURES)
    elif name == "desk3-reach":
        instances = _fixture_workload(root, DESK3_REACH[1:] if tiny else DESK3_REACH)
    elif name == "ring":
        instances = _ring_workload(seed, tiny)
    elif name == "parity-games":
        instances = _games_workload(seed, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, instances)


# ---------------------------------------------------------------------------
# the verdict gate


def verdict_of(instance, outcome):
    """A short, comparable form of an instance's result."""
    if instance.kind == "check":
        return HOLDS if outcome else FAILS
    _game, win, _strat = outcome
    return win.tobytes()


def gate(instance, outcome):
    """Check a decided outcome; returns (wrong, uncertified) lists of messages.

    A wrong outcome contradicts the recorded answer or an oracle, and fails
    the run.  An uncertified one is a game whose regions agree with every
    answer and oracle that applies but whose returned strategy for some
    player does not verify.  The strategy is part of solve_zielonka's result
    and the only certificate of the random game's regions, so such a solve
    counts as a failed operation rather than a verdict.
    """
    if instance.kind == "check":
        verdict = verdict_of(instance, outcome)
        if verdict != instance.answer:
            return [f"{instance.name}: verdict {verdict}, recorded answer {instance.answer}"
                    f" ({instance.source})"], []
        return [], []
    game, win, strat = outcome
    wrong = []
    if not np.isin(win, (pg.VERIFIER, pg.REFUTER)).all():
        wrong.append(f"{instance.name}: some vertex has no winner")
    if instance.answer is not None and not (win == instance.answer).all():
        wrong.append(f"{instance.name}: player {instance.answer} should win everywhere"
                     f" ({instance.source})")
    if (game.n <= FIXPOINT_MAX_VERTICES
            and len(np.unique(game.priority)) <= FIXPOINT_MAX_PRIORITIES
            and not (pg.solve_fixpoint(game, budget=FIXPOINT_MAX_VERTICES) == win).all()):
        wrong.append(f"{instance.name}: solve_fixpoint disagrees with solve_zielonka")
    uncertified = [
        f"{instance.name}: the strategy returned for player {player} does not verify"
        for player in (pg.VERIFIER, pg.REFUTER)
        if not pg.verify_strategy(game, win == player, player, strat)
    ]
    return wrong, uncertified
