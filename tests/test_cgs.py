import json
import random

import pytest

from conftest import SINGLE_ACTION, TOGGLE, make_cgs
from gslmc import formula as fm
from gslmc.cgs import (
    FiniteStrategy,
    LassoPlay,
    eval_ltl_on_lasso,
    induced_play,
    load_cgs,
    memoryless,
)
from gslmc.errors import ModelError


def action_on_history(strat, history):
    """The action a machine takes after the history s0 s1 ... sk."""
    mem = strat.init
    for s in history[1:]:
        mem = strat.update[(mem, s)]
    return strat.output[(mem, history[-1])]


class TestLoading:
    def test_toggle_loads(self):
        cgs = load_cgs(json.dumps(TOGGLE))
        assert cgs.states == ("s0", "s1")
        assert cgs.step("s0", ("a",)) == "s1"

    def test_wildcard_expansion(self):
        cgs = load_cgs(SINGLE_ACTION)
        assert cgs.step("s0", ("a", "a")) == "s1"

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

    def test_bad_json_rejected(self):
        with pytest.raises(ModelError):
            load_cgs("{not json")


class TestPlays:
    def test_self_loop_lasso_word(self):
        cgs = load_cgs(SINGLE_ACTION)
        prof = {a: memoryless(cgs, {s: "a" for s in cgs.states}) for a in cgs.agents}
        lasso = induced_play(cgs, "s1", prof)
        # the one-state self-loop play: the unfolded word is s1 s1 s1 ...
        assert [lasso.state_at(i) for i in range(5)] == ["s1"] * 5

    def test_lasso_matches_step_simulation(self, rng):
        for _ in range(20):
            cgs = make_cgs(rng, 4, 2, 2)
            prof = {
                a: memoryless(cgs, {s: rng.choice(cgs.actions) for s in cgs.states})
                for a in cgs.agents
            }
            lasso = induced_play(cgs, cgs.initial, prof)
            q = cgs.initial
            for i in range(100):
                assert lasso.state_at(i) == q
                dec = tuple(prof[a].output[(0, q)] for a in cgs.agents)
                q = cgs.step(q, dec)

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

    def _unrolled(self, f, lasso, label, pos, horizon):
        """Reference semantics by explicit unrolling to the horizon."""
        if isinstance(f, fm.Atom):
            return f.name in label[lasso.state_at(pos)]
        if isinstance(f, fm.Not):
            return not self._unrolled(f.sub, lasso, label, pos, horizon)
        if isinstance(f, fm.Or):
            return self._unrolled(f.left, lasso, label, pos, horizon) or self._unrolled(
                f.right, lasso, label, pos, horizon
            )
        if isinstance(f, fm.Next):
            return self._unrolled(f.sub, lasso, label, pos + 1, horizon)
        # Until: within prefix + 2 cycles every until is decided
        i = pos
        while i <= horizon:
            if self._unrolled(f.right, lasso, label, i, horizon):
                return True
            if not self._unrolled(f.left, lasso, label, i, horizon):
                return False
            i += 1
        return False

    def test_against_bounded_unrolling(self, rng):
        for _ in range(500):
            n = rng.randint(1, 4)
            states = [f"s{i}" for i in range(n)]
            label = {
                s: frozenset(a for a in ("p", "q") if rng.random() < 0.5) for s in states
            }
            cut = rng.randrange(n)
            lasso = LassoPlay(tuple(states[:cut]), tuple(states[cut:]))
            f = self._random_ltl(rng, 4)
            horizon = len(lasso.prefix) + 2 * len(lasso.cycle) + 8
            assert eval_ltl_on_lasso(f, lasso, label) == self._unrolled(
                f, lasso, label, 0, horizon
            )

    def test_strategic_operators_rejected(self):
        lasso = LassoPlay((), ("s0",))
        f = fm.ExistsGraded(("x",), fm.finite(1), fm.Atom("p"))
        with pytest.raises(ModelError):
            eval_ltl_on_lasso(f, lasso, {"s0": frozenset()})
