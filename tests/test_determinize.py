import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile

import pytest

from gslmc import cli
from gslmc.automata import is_npt, member
from gslmc.determinize import (
    BadTraceNbw,
    iar_step,
    nondeterminize,
    safra_hits,
    safra_initial,
    safra_step,
    tree_names,
)
from gslmc.errors import ResourceBudgetError
from test_automata import random_apt, random_tree


class TraceMonitor:
    """Deterministic parity word automaton over edge relations.

    Accepts (min-parity even) exactly when every trace through the word is
    good; built as the complement of the determinized bad-trace automaton.
    States are (safra tree, appearance record) pairs; the priority emitted
    by a step is already complemented (shifted by one).
    """

    def __init__(self, apt_priority, names):
        self.nbw = BadTraceNbw(apt_priority)
        self.names = tuple(names)

    def initial(self, q):
        tree = safra_initial(self.nbw.initial(q))
        return (tree, self.names)

    def step(self, state, edges):
        tree, perm = state
        tree2 = safra_step(tree, edges, self.nbw)
        marked, present = safra_hits(tree2)
        perm2, prio = iar_step(perm, marked, present)
        return (tree2, perm2), prio + 1


def nbw_accepts_lasso(nbw, q0, prefix, cycle):
    """Independent check: some run over prefix.cycle^w hits an accepting
    state on a reachable cycle."""
    P, C = len(prefix), len(cycle)

    def letter(pos):
        return prefix[pos] if pos < P else cycle[pos - P]

    def nxt(pos):
        return pos + 1 if pos + 1 < P + C else P

    init = {(0, s) for s in nbw.initial(q0)}
    seen = set(init)
    frontier = list(init)
    edges = {}
    while frontier:
        pos, s = frontier.pop()
        outs = nbw.step_state(s, letter(pos))
        edges[(pos, s)] = [(nxt(pos), t) for t in outs]
        for n2 in edges[(pos, s)]:
            if n2 not in seen:
                seen.add(n2)
                frontier.append(n2)
    for acc in (n for n in seen if nbw.is_accepting(n[1])):
        stack = [acc]
        visited = set()
        while stack:
            n = stack.pop()
            for m in edges.get(n, ()):
                if m == acc:
                    return True
                if m not in visited:
                    visited.add(m)
                    stack.append(m)
    return False


def monitor_accepts_lasso(priority, q0, prefix, cycle):
    """Run the deterministic monitor on the lasso; accept iff the least
    priority on its eventual loop is even."""
    nbw = BadTraceNbw(priority)
    word = list(prefix) + list(cycle)
    P, C = len(prefix), len(cycle)

    # first pass just collects the node names this run ever uses
    tree = safra_initial(nbw.initial(q0))
    names = set(tree_names(tree))
    confs = set()
    pos, t = 0, tree
    while (pos, t) not in confs:
        confs.add((pos, t))
        t = safra_step(t, word[pos], nbw)
        if t is not None:
            names |= tree_names(t)
        pos = pos + 1 if pos + 1 < P + C else P

    mon = TraceMonitor(priority, tuple(sorted(names)))
    st = mon.initial(q0)
    pos = 0
    hist = []
    seen = {}
    while (pos, st) not in seen:
        seen[(pos, st)] = len(hist)
        st, prio = mon.step(st, word[pos])
        hist.append(prio)
        pos = pos + 1 if pos + 1 < P + C else P
    start = seen[(pos, st)]
    return min(hist[start:]) % 2 == 0


class TestTraceMonitor:
    def test_monitor_complements_bad_trace_search(self):
        rng = random.Random(7)
        for _ in range(150):
            nq = rng.randint(1, 4)
            priority = {q: rng.randint(0, 3) for q in range(nq)}
            pairs = [(a, b) for a in range(nq) for b in range(nq)]

            def rel():
                return frozenset(p for p in pairs if rng.random() < 0.45)

            prefix = [rel() for _ in range(rng.randint(0, 3))]
            cycle = [rel() for _ in range(rng.randint(1, 3))]
            q0 = rng.randrange(nq)
            nbw = BadTraceNbw(priority)
            has_bad = nbw_accepts_lasso(nbw, q0, prefix, cycle)
            all_good = monitor_accepts_lasso(priority, q0, prefix, cycle)
            assert has_bad != all_good


class TestNondeterminize:
    def test_membership_preserved(self, rng):
        for _ in range(30):
            a = random_apt(rng, max_states=4, max_pr=3, alpha=(0, 1), dirs=(0, 1))
            n = nondeterminize(a, budget=300_000)
            assert is_npt(n)
            for _ in range(10):
                t = random_tree(rng, a.alphabet, a.directions)
                assert member(a, t) == member(n, t)

    def test_npt_input_passes_through_shape(self, rng):
        a = nondeterminize(random_apt(rng), budget=300_000)
        again = nondeterminize(a, budget=300_000)
        assert is_npt(again)
        for _ in range(5):
            t = random_tree(rng, a.alphabet, a.directions)
            assert member(a, t) == member(again, t)

    def test_budget_error_is_clean(self, rng):
        rng2 = random.Random(123)
        with pytest.raises(ResourceBudgetError):
            for _ in range(50):
                nondeterminize(random_apt(rng2, max_states=4), budget=3)


# ---------------------------------------------------------------------------
# golden stage dumps: alternation removal must keep producing these automata,
# with the same state numbering, under any PYTHONHASHSEED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "examples_data")

# SHA-256 of the --emit-stage files, concatenated in file-name order, of the
# `gen unique-ne` sentence checked on the model
GOLDEN_STAGES = {
    ("pennies.json", "pennies_obj.json"):
        "c7ca3c72c3acdfb1409c29656a13ebb375e5b49dd0b6ed104698aae43a8207c3",
    ("desk3.json", "desk3_next_obj.json"):
        "20e190096c75762aa9fd21eb6a8ef0781b4004706f70ccf0b0dbceb092b0edef",
}


def in_process(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def stage_digest(run, model, objectives):
    """Digest of the stage dumps of `gen unique-ne` checked on the model."""
    model, objectives = os.path.join(DATA, model), os.path.join(DATA, objectives)
    code, sentence = run("gen", "unique-ne", model, "--objectives", objectives)
    assert code == 0
    with tempfile.TemporaryDirectory() as stages:
        code, out = run("check", model, "-f", sentence.strip(), "--emit-stage", stages)
        assert code == 1 and out.splitlines()[-1] == "FAILS"
        digest = hashlib.sha256()
        for name in sorted(os.listdir(stages)):
            with open(os.path.join(stages, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class TestGoldenStages:
    @pytest.mark.parametrize("model,objectives", sorted(GOLDEN_STAGES))
    def test_stage_dumps_match(self, model, objectives):
        assert stage_digest(in_process, model, objectives) == GOLDEN_STAGES[(model, objectives)]

    def test_stage_dumps_match_under_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") != "2" else "5"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(ROOT, "src"))

        def run(*argv):
            done = subprocess.run([sys.executable, "-m", "gslmc.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=300)
            return done.returncode, done.stdout

        key = ("desk3.json", "desk3_next_obj.json")
        assert stage_digest(run, *key) == GOLDEN_STAGES[key]
