import json
import random

import pytest

from conftest import SINGLE_ACTION, TOGGLE
from gslmc import formula as fm
from gslmc.cgs import Cgs, FiniteStrategy, load_cgs, memoryless
from gslmc.errors import ModelError
from gslmc.oracle import oracle_check


def action_on_history(strat, history):
    """The action a machine takes after the history s0 s1 ... sk."""
    mem = strat.init
    for s in history[1:]:
        mem = strat.update[(mem, s)]
    return strat.output[(mem, history[-1])]


class TestLoading:
    def test_toggle_loads(self):
        cgs = load_cgs(json.loads(json.dumps(TOGGLE)))
        assert cgs.states == ("s0", "s1")
        assert cgs.step("s0", ("a",)) == "s1"

    def test_wildcard_expansion(self):
        cgs = load_cgs(SINGLE_ACTION)
        assert cgs.step("s0", ("a", "a")) == "s1"

    def test_successors_are_distinct_and_in_model_order(self):
        # s0 moves to s1 on "a" and to itself on "b"
        cgs = load_cgs(TOGGLE)
        assert cgs.successors("s0") == ("s0", "s1")
        assert load_cgs(SINGLE_ACTION).successors("s0") == ("s1",)

    def test_overlap_rejected(self):
        doc = dict(TOGGLE)
        doc["transitions"] = TOGGLE["transitions"] + [
            {"from": "s0", "decision": {"a0": "a"}, "to": "s0"}
        ]
        with pytest.raises(ModelError):
            load_cgs(doc)

    def test_totality_enforced(self):
        doc = dict(TOGGLE)
        doc["transitions"] = TOGGLE["transitions"][:3]
        with pytest.raises(ModelError):
            load_cgs(doc)

    def test_unknown_state_rejected(self):
        doc = dict(TOGGLE)
        doc["initial"] = "nowhere"
        with pytest.raises(ModelError):
            load_cgs(doc)


class TestPlays:
    def test_strategy_uses_memory(self):
        cgs = load_cgs(TOGGLE)
        # alternate actions: memory flips each step
        strat = FiniteStrategy(
            memory=(0, 1),
            init=0,
            update={(m, s): 1 - m for m in (0, 1) for s in cgs.states},
            output={(m, s): ("a" if m == 0 else "b") for m in (0, 1) for s in cgs.states},
        )
        assert action_on_history(strat, ("s0",)) == "a"
        assert action_on_history(strat, ("s0", "s1")) == "b"
        assert action_on_history(strat, ("s0", "s1", "s1")) == "a"


class TestLtlOnLasso:
    def _random_ltl(self, rng, depth):
        k = rng.randrange(5) if depth > 0 else 0
        if k == 0:
            return fm.Atom(rng.choice(["p", "q"]))
        if k == 1:
            return fm.Not(self._random_ltl(rng, depth - 1))
        if k == 2:
            return fm.Or(self._random_ltl(rng, depth - 1), self._random_ltl(rng, depth - 1))
        if k == 3:
            return fm.Next(self._random_ltl(rng, depth - 1))
        return fm.Until(self._random_ltl(rng, depth - 1), self._random_ltl(rng, depth - 1))

    def _unrolled(self, f, label_at, pos, horizon):
        """Reference semantics by explicit unrolling to the horizon;
        label_at(i) is the label at position i of the word."""
        if isinstance(f, fm.Atom):
            return f.name in label_at(pos)
        if isinstance(f, fm.Not):
            return not self._unrolled(f.sub, label_at, pos, horizon)
        if isinstance(f, fm.Or):
            return self._unrolled(f.left, label_at, pos, horizon) or self._unrolled(
                f.right, label_at, pos, horizon
            )
        if isinstance(f, fm.Next):
            return self._unrolled(f.sub, label_at, pos + 1, horizon)
        # Until: within prefix + 2 cycles every until is decided
        i = pos
        while i <= horizon:
            if self._unrolled(f.right, label_at, i, horizon):
                return True
            if not self._unrolled(f.left, label_at, i, horizon):
                return False
            i += 1
        return False

    def test_against_bounded_unrolling(self, rng):
        # the evaluator's temporal operators on a lasso word: a one-agent,
        # one-action model whose states are the lasso's positions
        for _ in range(500):
            n = rng.randint(1, 4)
            states = tuple(f"s{i}" for i in range(n))
            label = {
                s: frozenset(a for a in ("p", "q") if rng.random() < 0.5) for s in states
            }
            cut = rng.randrange(n)
            trans = {(states[i], ("a",)): states[i + 1] for i in range(n - 1)}
            trans[(states[-1], ("a",))] = states[cut]
            model = Cgs(frozenset(("p", "q")), ("a0",), ("a",), states, states[0], label, trans)

            def label_at(i):
                return label[states[i if i < n else cut + (i - cut) % (n - cut)]]

            f = self._random_ltl(rng, 4)
            horizon = cut + 2 * (n - cut) + 8
            only = memoryless(model, {s: "a" for s in states})
            res = oracle_check(model, fm.Bind("a0", "x", f), assignment={"x": only})
            assert res.verdict == self._unrolled(f, label_at, 0, horizon)
