import itertools
import random
from unittest import mock

import pytest
from hypothesis import settings

from gslmc import compiler
from gslmc import formula as fm
from gslmc.cgs import Cgs

# property tests draw a fixed sequence of examples: reruns are identical,
# nothing is stored between runs, and the example count bounds their time
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("tier1")


def make_cgs(rng, n_states, n_agents, n_actions, atoms=("p",)):
    """Random total game structure with the given dimensions."""
    states = tuple(f"s{i}" for i in range(n_states))
    agents = tuple(f"a{i}" for i in range(n_agents))
    actions = tuple("abcd"[:n_actions])
    label = {s: frozenset(a for a in atoms if rng.random() < 0.5) for s in states}
    trans = {}
    for s in states:
        for dec in itertools.product(actions, repeat=n_agents):
            trans[(s, dec)] = rng.choice(states)
    return Cgs(frozenset(atoms), agents, actions, states, states[0], label, trans)


def unpooled():
    """A context in which the compiler takes one quantifier per block: the
    per-quantifier reference that the pooled blocks are checked against."""
    return mock.patch.object(fm, "strip_exists_block", lambda f: ([(f.vars, f.grade)], f.sub))


def no_witnesses():
    """A context in which the witness search decides no top-level block:
    every graded part goes on to its g-copy block, the reference that the
    searched verdicts are checked against."""
    return mock.patch.object(compiler, "_search_witnesses", lambda *args: None)


@pytest.fixture
def rng():
    return random.Random(20240817)


TOGGLE = {
    "atoms": ["p"],
    "agents": ["a0"],
    "actions": ["a", "b"],
    "states": ["s0", "s1"],
    "initial": "s0",
    "label": {"s0": [], "s1": ["p"]},
    "transitions": [
        {"from": "s0", "decision": {"a0": "a"}, "to": "s1"},
        {"from": "s0", "decision": {"a0": "b"}, "to": "s0"},
        {"from": "s1", "decision": {"a0": "a"}, "to": "s0"},
        {"from": "s1", "decision": {"a0": "b"}, "to": "s1"},
    ],
}

SINGLE_ACTION = {
    "atoms": ["p"],
    "agents": ["a0", "a1"],
    "actions": ["a"],
    "states": ["s0", "s1"],
    "initial": "s0",
    "label": {"s0": [], "s1": ["p"]},
    "transitions": [
        {"from": "s0", "decision": {"a0": "*", "a1": "*"}, "to": "s1"},
        {"from": "s1", "decision": {"a0": "*", "a1": "*"}, "to": "s1"},
    ],
}
