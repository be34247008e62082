import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest

from gslmc import cli, determinize
from gslmc import formula as fm
from gslmc import posbool as pb
from gslmc.automata import Apt, dump_apt, is_npt, member, simplify
from gslmc.cgs import load_cgs
from gslmc.compiler import check_sentence
from gslmc.determinize import (
    DEFAULT_BUDGET,
    BadTraceNbw,
    _choice_edges,
    _columns,
    _choice_rows,
    breakpoint_construction,
    breakpoint_step,
    image,
    members,
    nondeterminize,
    safra_construction,
    safra_initial,
    safra_sprout,
    safra_step,
    slots,
)
from gslmc.errors import ResourceBudgetError
from conftest import no_witnesses
from test_automata import random_apt, random_tree

# ---------------------------------------------------------------------------
# reference word automata over frozensets: relations are sets of (state,
# successor) pairs, state sets are frozensets.  The packed production code is
# checked against these.


class RefBadTraceNbw:
    """The bad-trace Buechi automaton with explicit states: ('i', q) wanders
    along a trace; ('g', q, r) has guessed the odd limit priority r and
    checks pr >= r forever with pr == r infinitely often."""

    def __init__(self, priority):
        self.priority = dict(enumerate(priority))
        self.odd = sorted(p for p in set(self.priority.values()) if p % 2 == 1)

    def states(self):
        return [("i", q) for q in self.priority] + [
            ("g", q, r) for r in self.odd for q in self.priority]

    def initial(self, q):
        return frozenset([("i", q)])

    def is_accepting(self, s):
        return s[0] == "g" and self.priority[s[1]] == s[2]

    def step_state(self, s, edges):
        out = set()
        if s[0] == "i":
            q = s[1]
            for (a, b) in edges:
                if a == q:
                    out.add(("i", b))
                    for r in self.odd:
                        if r <= self.priority[b]:
                            out.add(("g", b, r))
        else:
            _, q, r = s
            for (a, b) in edges:
                if a == q and self.priority[b] >= r:
                    out.add(("g", b, r))
        return out

    def step_set(self, states, edges):
        out = set()
        for s in states:
            out |= self.step_state(s, edges)
        return frozenset(out)


def ref_image(edges, states):
    return frozenset(b for a, b in edges if a in states)


def ref_breakpoint_step(state, edges, f0):
    s, o = state
    s2 = ref_image(edges, s)
    o2 = ref_image(edges, o) if o else s2
    return s2, o2 - f0


def mask(states):
    return sum(1 << q for q in states)


def pack_relation(edges, active, n):
    """The packed relation of the pairs leaving the active states: slice i
    holds the successors of active[i]."""
    return sum(1 << (i * n + b) for i, q in enumerate(active) for a, b in edges if a == q)


def pack_states(states, nbw):
    """The packed set of the reference bad-trace states."""
    out = 0
    for s in states:
        offset = 0 if s[0] == "i" else nbw.n * (1 + nbw.odd.index(s[2]))
        out |= 1 << (offset + s[1])
    return out


def nbw_accepts_lasso(nbw, q0, prefix, cycle):
    """Independent check: some run of the reference bad-trace automaton over
    prefix.cycle^w hits an accepting state on a reachable cycle."""
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


def safra_accepts_lasso(priority, q0, prefix, cycle):
    """Run the compact Safra trees on the lasso; accept iff the least
    priority on its eventual loop, complemented (shifted by one), is even."""
    nbw = BadTraceNbw(priority)
    neutral = 2 * nbw.n * (1 + len(nbw.odd)) + 1

    def step(tree, edges):
        if tree is None:  # no trace goes on, so none is bad
            return None, 0
        active = members(tree[1] & nbw.full)
        rel, slot = pack_relation(edges, active, nbw.n), slots(active, nbw.n)
        shape, labels = safra_sprout(tree, nbw, neutral)
        images = [nbw.post(label, rel, slot) for label in labels]
        tree, prio = safra_step(shape, images, neutral)
        return tree, prio + 1

    start = safra_initial(1 << q0)
    return min(loop_outputs(step, start, prefix, cycle)) % 2 == 0


def breakpoint_accepts_lasso(priority, q0, prefix, cycle):
    """Run the breakpoint states on the lasso; accept iff a breakpoint
    (O empty, priority 0) lies on its eventual loop."""
    n = len(priority)
    f0 = mask(q for q, p in enumerate(priority) if p == 0)

    def step(state, edges):
        active = members(state[0])
        rel = pack_relation(edges, active, n)
        state = breakpoint_step(state, rel, slots(active, n), (1 << n) - 1, f0)
        return state, not state[1]

    start = (1 << q0, (1 << q0) & ~f0)
    return any(loop_outputs(step, start, prefix, cycle))


def loop_outputs(step, state, prefix, cycle):
    """Run step(state, letter) -> (state, output) over prefix.cycle^w; the
    outputs on its eventual loop."""
    word = list(prefix) + list(cycle)
    pos = 0
    hist = []
    seen = {}
    while (pos, state) not in seen:
        seen[(pos, state)] = len(hist)
        state, out = step(state, word[pos])
        hist.append(out)
        pos = pos + 1 if pos + 1 < len(word) else len(prefix)
    return hist[seen[(pos, state)]:]


def random_lassos(rng, count, top_priority):
    """Seeded (priority, q0, prefix, cycle) lassos of edge relations over at
    most 4 states with priorities up to top_priority."""
    for _ in range(count):
        nq = rng.randint(1, 4)
        priority = tuple(rng.randint(0, top_priority) for _ in range(nq))
        pairs = [(a, b) for a in range(nq) for b in range(nq)]

        def rel():
            return frozenset(p for p in pairs if rng.random() < 0.45)

        prefix = [rel() for _ in range(rng.randint(0, 3))]
        cycle = [rel() for _ in range(rng.randint(1, 3))]
        q0 = rng.randrange(nq)
        yield priority, q0, prefix, cycle


class TestTraceMonitor:
    def test_monitor_complements_bad_trace_search(self):
        # top priority 5 gives trees more nodes, and so more renamings
        lassos = itertools.chain(random_lassos(random.Random(7), 150, 3),
                                 random_lassos(random.Random(7), 150, 5))
        for priority, q0, prefix, cycle in lassos:
            has_bad = nbw_accepts_lasso(RefBadTraceNbw(priority), q0, prefix, cycle)
            assert has_bad != safra_accepts_lasso(priority, q0, prefix, cycle)


class TestBreakpoint:
    def test_breakpoint_complements_bad_trace_search(self):
        for priority, q0, prefix, cycle in random_lassos(random.Random(11), 300, 1):
            has_bad = nbw_accepts_lasso(RefBadTraceNbw(priority), q0, prefix, cycle)
            assert has_bad != breakpoint_accepts_lasso(priority, q0, prefix, cycle)

    def test_breakpoint_agrees_with_safra_and_the_input(self):
        rng = random.Random(29)
        sizes = []  # (breakpoint states, compact Safra states)
        for _ in range(120):
            # random_apt draws priorities below max_pr: here 0 and 1
            a = simplify(random_apt(rng, max_states=4, max_pr=2), DEFAULT_BUDGET)
            if is_npt(a):
                continue
            bp = simplify(breakpoint_construction(a, DEFAULT_BUDGET), DEFAULT_BUDGET)
            safra = simplify(safra_construction(a, DEFAULT_BUDGET), DEFAULT_BUDGET)
            assert is_npt(bp) and nondeterminize(a).n_states == bp.n_states
            sizes.append((bp.n_states, safra.n_states))
            for _ in range(10):
                t = random_tree(rng, a.alphabet, a.directions)
                assert member(bp, t) == member(safra, t) == member(a, t)
        assert len(sizes) >= 60
        # smaller in sum and on most inputs, not on all: simplify merges only
        # syntactically equal states, and a breakpoint state of priority 1
        # that always leaves for a priority-0 state stays apart from it
        assert sum(b for b, _ in sizes) < sum(s for _, s in sizes)
        assert sum(b <= s for b, s in sizes) >= 0.9 * len(sizes)


class TestPackedSets:
    """The packed relations, images and steps equal the reference ones."""

    # sizes on both sides of 32 and 64 states, up to 70
    SIZES = (1, 2, 3, 31, 32, 33, 63, 64, 65, 70)

    def test_packed_steps_equal_the_reference(self):
        rng = random.Random(41)
        for trial in range(160):
            n = self.SIZES[trial % len(self.SIZES)] if trial < 40 else rng.randint(1, 70)
            priority = tuple(rng.randint(0, 5) for _ in range(n))
            active = tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 12)))))
            # each active state's models over two directions; a choice row's
            # relation per direction, interned by _choice_edges and read off
            # _choice_rows, is the packed one
            per_state = [[frozenset((rng.randrange(2), rng.randrange(n))
                                    for _ in range(rng.randint(0, 4)))
                          for _ in range(rng.randint(1, 2))] for _ in active]
            edge_ids, edge_of = {}, []
            columns = [_columns(m) for m in per_state]
            _choice_edges((0, 1), n, columns, DEFAULT_BUDGET, edge_ids, edge_of)
            rows = _choice_rows((0, 1), n, columns, edge_ids)
            choices = itertools.product(*per_state)
            for row, picks in zip(rows[:6], choices):
                for d, e in zip((0, 1), row):
                    edges = frozenset((q, q2) for q, m in zip(active, picks)
                                      for d2, q2 in m if d2 == d)
                    rel = edge_of[e]
                    assert rel == pack_relation(edges, active, n)
                    self.check_steps(rng, priority, active, edges, rel)

    @staticmethod
    def check_steps(rng, priority, active, edges, rel):
        n = len(priority)
        full = (1 << n) - 1
        slot = slots(active, n)
        s = frozenset(q for q in active if rng.random() < 0.6)
        o = frozenset(q for q in s if rng.random() < 0.5)
        f0 = frozenset(q for q in range(n) if priority[q] == 0)
        assert image(rel, mask(s), slot, full) == mask(ref_image(edges, s))
        s2, o2 = ref_breakpoint_step((s, o), edges, f0)
        assert breakpoint_step((mask(s), mask(o)), rel, slot, full, mask(f0)) == (mask(s2),
                                                                              mask(o2))
        ref, nbw = RefBadTraceNbw(priority), BadTraceNbw(priority)
        everything = ref.states()
        assert nbw.accepting == pack_states(filter(ref.is_accepting, everything), nbw)
        label = frozenset(x for x in everything if x[1] in active and rng.random() < 0.4)
        assert nbw.post(pack_states(label, nbw), rel, slot) == pack_states(
            ref.step_set(label, edges), nbw)

    def test_relations_take_slices_of_active_states_only(self):
        # one active state of 2,000: its relations need one 2,000-bit slice,
        # not one per state below it
        n = 2000
        models = [frozenset([(0, 1999), (1, 0)]), frozenset([(0, 5)])]
        edge_ids, edge_of = {}, []
        _, edges = _choice_edges((0, 1), n, [_columns(models)], DEFAULT_BUDGET, edge_ids, edge_of)
        assert len(edge_of) == len(edges) == 4
        assert all(rel.bit_length() <= 1 * n for rel in edge_of)


def ref_rows(directions, n, per_state):
    """Per transition choice, in itertools.product order, its relation along
    each direction: slice i holds the successors of the i-th state's model."""
    return [tuple(sum(1 << (i * n + q2) for i, m in enumerate(picks) for d2, q2 in m if d2 == d)
                  for d in directions)
            for picks in itertools.product(*per_state)]


class TestChoicePieces:
    """A choice key's count and edges, its rows, the output formulas and the
    memoised label images equal their direct definitions."""

    # not in sorted order, as a ring lists its states
    DIRECTIONS = ("r2", "r0", "r10", "r1", "r3")

    def random_per_state(self, rng, n):
        # few distinct successor sets per direction, so parts repeat; empty
        # models, models that skip a direction, and r3, which no model names
        moves = [(d, rng.randrange(n)) for d in self.DIRECTIONS[:4] for _ in range(2)]
        per_state = []
        for _ in range(rng.randint(1, 3)):
            pool = [frozenset(rng.sample(moves, rng.randint(0, 3))) for _ in range(3)]
            per_state.append([rng.choice(pool) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.1:
            per_state.insert(rng.randrange(len(per_state) + 1), [])  # cannot move
        return per_state

    def test_edges_and_rows_equal_the_product_scan(self):
        rng = random.Random(57)
        for _ in range(400):
            n = rng.randint(1, 4)
            per_state = self.random_per_state(rng, n)
            columns = [_columns(models) for models in per_state]
            edge_ids, edge_of = {}, []
            count, edges = _choice_edges(self.DIRECTIONS, n, columns, DEFAULT_BUDGET,
                                         edge_ids, edge_of)
            rows = _choice_rows(sorted(self.DIRECTIONS), n, columns, edge_ids)
            assert all(edge_ids[rel] == e for e, rel in enumerate(edge_of))
            if not all(per_state):
                assert (count, edges, rows) == (1, (), [])
                continue
            scan = ref_rows(self.DIRECTIONS, n, per_state)
            assert count == len(scan)
            assert [edge_of[e] for e in edges] == list(dict.fromkeys(itertools.chain(*scan)))
            assert [tuple(edge_of[e] for e in row) for row in rows] == ref_rows(
                sorted(self.DIRECTIONS), n, per_state)

    def test_relation_width_stops_on_the_budget(self):
        models = [frozenset([("r0", 0)])]
        with pytest.raises(ResourceBudgetError, match=r"edge relations exceed the budget \(5\)"):
            _choice_edges(("r0",), 51, [_columns(models)] * 2, 5, {}, [])
        assert _choice_edges(("r0",), 50, [_columns(models)] * 2, 5, {}, [])[0] == 1

    @pytest.mark.parametrize("directions", [DIRECTIONS, ("r1",), ("b", "a")])
    def test_formula_is_the_normalized_disjunction(self, directions):
        rng = random.Random(63)
        a = Apt((0,), directions, 0, [(pb.TRUE,)], (0,))
        build = determinize._Build(a, DEFAULT_BUDGET)
        for _ in range(300):
            edges = range(rng.randint(1, 5))
            target = {e: rng.randrange(4) for e in edges}
            rows = [tuple(rng.choice(edges) for _ in directions)
                    for _ in range(rng.randint(0, 6))]
            want = pb.disj([pb.conj([pb.atom((d, target[e])) for d, e in zip(build.dirs, row)])
                            for row in rows])
            assert build.set_formula(build.formula(rows, target)) == want

    def test_memoised_images_equal_the_direct_ones(self, monkeypatch):
        rng = random.Random(71)
        inputs = []
        while len(inputs) < 25:
            a = simplify(random_apt(rng, max_states=4, max_pr=3), DEFAULT_BUDGET)
            if not is_npt(a) and not set(a.priority) <= {0, 1}:
                inputs.append(a)
        calls = []

        def counted(a):
            nbw_post = BadTraceNbw.post

            def post(self, *args):
                calls[-1] += 1
                return nbw_post(self, *args)

            monkeypatch.setattr(BadTraceNbw, "post", post)
            calls.append(0)
            out = safra_construction(a, DEFAULT_BUDGET)
            monkeypatch.undo()
            return dump_apt(out)

        direct = determinize._label_images
        for a in inputs:
            memoised = counted(a)
            monkeypatch.setattr(determinize, "_label_images",
                                lambda *args: direct(*args[:-1], {}))
            assert counted(a) == memoised
            assert calls[-2] <= calls[-1]
        assert sum(calls[0::2]) < sum(calls[1::2])


class TestNondeterminize:
    def test_membership_preserved(self, rng):
        # raw random automata, not simplified first: both constructions and
        # the pass-through must give an equivalent NPT on unsimplified input
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

    def test_budget_stops_come_before_any_row(self, monkeypatch):
        # both constructions charge every budget in their first pass, so a
        # stop has built no choice rows; this holds also for a state-budget
        # stop whose word states fit the budget but whose output states,
        # (word state, priority) pairs, do not
        builds = []

        class Recording(determinize._Build):
            def __init__(self, *args):
                super().__init__(*args)
                self.expanded = 0
                builds.append(self)

            def run(self, initial, priority, expand):
                def counted(word):
                    self.expanded += 1
                    return expand(word)

                return super().run(initial, priority, counted)

        monkeypatch.setattr(determinize, "_Build", Recording)
        rng = random.Random(41)
        stops = {breakpoint_construction: 0, safra_construction: 0}
        safra_output_stops = 0
        for _ in range(30):
            a = simplify(random_apt(rng, max_states=4, max_pr=rng.choice([2, 3, 4]),
                                    alpha=(0, 1, 2), dirs=(0, 1, 2)), DEFAULT_BUDGET)
            if is_npt(a):
                continue
            bp = set(a.priority) <= {0, 1}
            construction = breakpoint_construction if bp else safra_construction
            construction(a, DEFAULT_BUDGET)
            words = builds[-1].expanded
            for budget in range(2, 65):
                try:
                    construction(a, budget)
                except ResourceBudgetError as e:
                    assert builds[-1].choice_rows == {}
                    stops[construction] += 1
                    safra_output_stops += (construction is safra_construction
                                           and "state budget" in str(e) and words <= budget)
        assert min(stops.values()) > 0
        assert safra_output_stops > 0

    def test_output_is_what_simplify_makes_of_the_construction(self, monkeypatch):
        # each construction merges its output on rows of target-set ids; built
        # into formulas before that merge, the same output must simplify to
        # the same automaton, state numbering included.
        # The state budget counts the states before the merge, the sink only
        # when a step reaches it, so the output's own count is enough budget
        unmerged = []

        class Recording(determinize._Build):
            def quotient(self, initial, priority):
                trans = [tuple([self.set_formula(s) for s in row]) for row in self.trans]
                unmerged.append((Apt(self.a.alphabet, self.a.directions, initial, trans,
                                     tuple(priority)), "sink" in self.states))
                return super().quotient(initial, priority)

        monkeypatch.setattr(determinize, "_Build", Recording)
        rng = random.Random(47)
        seen = {breakpoint_construction: 0, safra_construction: 0}
        merged = safra_without_sink = finished = 0
        for _ in range(120):
            a = simplify(random_apt(rng, max_states=4, max_pr=rng.choice([2, 3, 4]),
                                    alpha=(0, 1, 2), dirs=rng.choice([(0,), (0, 1)])),
                         DEFAULT_BUDGET)
            if is_npt(a):
                continue
            out = nondeterminize(a)
            raw, sink = unmerged[-1]
            assert simplify(raw, DEFAULT_BUDGET) == out
            try:
                assert nondeterminize(a, raw.n_states) == out
                finished += 1
            except ResourceBudgetError as e:  # a choice key may be wider than that
                assert "state budget" not in str(e)
            safra = not set(a.priority) <= {0, 1}
            seen[safra_construction if safra else breakpoint_construction] += 1
            merged += out.n_states < raw.n_states
            safra_without_sink += safra and not sink
        assert min(seen.values()) >= 10
        assert merged > 0
        assert safra_without_sink > 0
        assert finished >= 0.9 * sum(seen.values())


class TestSharedLetters:
    """Letters whose transitions are equal share their choices and output
    transitions, and sharing never moves a budget stop."""

    @staticmethod
    def doubled(a):
        """a with a copy of every letter appended, letter i's at i + n for
        n letters, whose transitions are equal to the original's but
        distinct objects."""
        n = len(a.alphabet)
        trans = [row + tuple([pb.map_atoms(f, lambda m: m, {}) for f in row])
                 for row in a.trans]
        return replace(a, alphabet=a.alphabet + tuple(range(n, 2 * n)), trans=trans)

    @pytest.mark.parametrize("construction,max_pr", [
        (breakpoint_construction, 2), (safra_construction, 3)])
    def test_copies_share_transitions_and_double_the_work(self, monkeypatch, construction,
                                                          max_pr):
        builds = []

        class Recording(determinize._Build):
            def __init__(self, *args):
                super().__init__(*args)
                builds.append(self)

        monkeypatch.setattr(determinize, "_Build", Recording)
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            a = simplify(random_apt(rng, max_states=4, max_pr=max_pr), DEFAULT_BUDGET)
            if is_npt(a):
                continue
            a2 = self.doubled(a)
            out = construction(a, DEFAULT_BUDGET)
            out2 = construction(a2, DEFAULT_BUDGET)
            assert out2.n_states == out.n_states
            assert builds[-1].work == 2 * builds[-2].work
            n = len(a.alphabet)
            for row, row2 in zip(out.trans, out2.trans):
                assert row2[:n] == row
                assert all(row2[n + i] is row2[i] for i in range(n))
            checked += 1
        assert checked >= 20


# ---------------------------------------------------------------------------
# golden stage dumps: alternation removal must keep producing these automata,
# with the same state numbering, under any PYTHONHASHSEED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "examples_data")

# the verdict of the `gen unique-ne` sentence checked on the model, and the
# SHA-256 of each of its --emit-stage files; pennies has no equilibrium, so
# its "at least one" part fails and the "at least two" part is skipped
GOLDEN_STAGES = {
    ("desk3.json", "desk3_next_obj.json"): ("FAILS", {
        "stage01_apt.txt": "d078f528a4441bd1efddc692a6a2685be830e029b92ac71bb971a86167f7b681",
        "stage01_npt.txt": "3b5853be764be8ab87d3d53274d68566070d4296ad8291341699c467a015b3cd",
        "stage02_apt.txt": "8dfef0e8d6b2482602734dd04a388eb47625527467b0311b1d5b2f9cdae1d200",
        "stage02_npt.txt": "c4347e351cf4afcb5a78d1efffb45fc7fe680813d50de41c92fe46a28b00ee55",
        "stage03_apt.txt": "d078f528a4441bd1efddc692a6a2685be830e029b92ac71bb971a86167f7b681",
        "stage03_npt.txt": "3b5853be764be8ab87d3d53274d68566070d4296ad8291341699c467a015b3cd",
        "stage04_apt.txt": "85c39635e555b864962235b3e24ce7ee5ab02bdfee378cfeebc9582bc6cf2561",
        "stage04_npt.txt": "4f20e17c0ea460fa92290d87f7656fdfa2d9963e75b7cdb850af972220a01f35",
    }),
    ("pennies.json", "pennies_obj.json"): ("FAILS", {
        "stage01_apt.txt": "f50358a1648d8c2c8ad2c372c97949cfdb0a407b6a8a93675da61710e211d749",
        "stage01_npt.txt": "b4008f53135488fc7f42c8c546724287f030363b2bf04a15d02800d7693b2e88",
        "stage02_apt.txt": "b14c829a5d5e0c28fe599374cbae3835a4ebb1909877a2d87afa957cb6eb446e",
        "stage02_npt.txt": "81497fad5e384f0f5992a22c6e838327be28a19431cffd02e705be39f4b5bd00",
    }),
    ("single.json", "single_obj.json"): ("HOLDS", {
        "stage01_apt.txt": "1f3456af26edf2f117350096e6fb1fd974240937483fdd622d2c2c06130d29dd",
        "stage01_npt.txt": "10c8b78aa91848426fbde9b29a76b86123ae324346077171e8f28758b7e54a3f",
        "stage02_apt.txt": "dabc97a26e6e55d6e6c93e345c2a8bd5506f37d90df0dda488098f029dc82d2a",
        "stage02_npt.txt": "236d83a9477a2226f727d7295f771117d5344d3e0756d4db4199e08c7a6535a0",
        "stage03_apt.txt": "1f3456af26edf2f117350096e6fb1fd974240937483fdd622d2c2c06130d29dd",
        "stage03_npt.txt": "10c8b78aa91848426fbde9b29a76b86123ae324346077171e8f28758b7e54a3f",
        "stage04_apt.txt": "b7ce031d444fd781ee92bd5305cd8dd7802cd7d7f60e1b20f8a4549f1c67a5df",
        "stage04_npt.txt": "f7b5d16bef674a48472266a59ad31b27e192a582fc00b157239cf1cf9e72cbee",
    }),
}


def in_process(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def stage_digests(run, model, sentence, verdict):
    """SHA-256 per stage dump file of the sentence checked on the model file."""
    with tempfile.TemporaryDirectory() as stages:
        code, out = run("check", model, "-f", sentence, "--emit-stage", stages)
        assert out.splitlines()[-1] == verdict and code == (0 if verdict == "HOLDS" else 1)
        digests = {}
        for name in sorted(os.listdir(stages)):
            with open(os.path.join(stages, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def unique_ne_digests(run, model, objectives, verdict):
    """Stage digests of `gen unique-ne` checked on the model."""
    model, objectives = os.path.join(DATA, model), os.path.join(DATA, objectives)
    code, sentence = run("gen", "unique-ne", model, "--objectives", objectives)
    assert code == 0
    return stage_digests(run, model, sentence.strip(), verdict)


def ring_model(n, agents):
    """n-state ring r0 .. r(n-1): all agents playing a advance, anything else
    stays; p holds only at r(n-1)."""
    names = [f"r{i}" for i in range(n)]
    transitions = [
        {"from": s, "decision": dict(zip(agents, decision)),
         "to": names[(i + 1) % n] if set(decision) == {"a"} else s}
        for i, s in enumerate(names)
        for decision in itertools.product("ab", repeat=len(agents))
    ]
    return {"atoms": ["p"], "agents": list(agents), "actions": ["a", "b"],
            "states": names, "initial": names[0], "label": {names[-1]: ["p"]},
            "transitions": transitions}


# stages over wide alphabets (|actions| ** names x n letters), where many
# letters share every active state's transition: (ring size, agents,
# sentence) -> (verdict, SHA-256 of each --emit-stage file)
GOLDEN_RING_STAGES = {
    (6, ("a0",), "<<x>>^>=2 (a0,x) F p"): ("HOLDS", {
        "stage01_apt.txt": "a932e6b0bcec71c0ee886b9ca9c15539d3f73ee6f7d744a8152dd43e2e6086cd",
        "stage01_npt.txt": "012f3ce46f2d517fb0168a6fefe036279c412728b4787597a589d847387291cf",
    }),
    (6, ("a0", "a1"), "<<x>>^>=1 [[y]]^<1 (a0,x) (a1,y) F p"): ("FAILS", {
        "stage01_apt.txt": "7788b2284908988dff91b4f6b3ceecd4a15a1d47ddc95aa4b9231c27adcb5aa2",
        "stage01_npt.txt": "b9a50297801d1049356dcf67f5ff84a0bd613a976e216d2a72b9ac059306a06c",
        "stage02_apt.txt": "e2e926f5ad3d99b590e2145a9822ae39404c2eddf3a3e787e1665de846c506be",
        "stage02_npt.txt": "750724d49fc1c8e56cb958d8bd1fc98b959ce23abd8b857699d81cc757786fb6",
    }),
}


def assert_npt_stages(game, sentence, verdict, n_stages):
    holds, ctx = check_sentence(fm.parse_formula(sentence, set(game.agents)), game)
    assert ("HOLDS" if holds else "FAILS") == verdict and len(ctx.stages) == n_stages
    assert all(is_npt(s["npt"]) for s in ctx.stages)


class TestGoldenStages:
    # the pinned stages are the g-copy blocks', which memoryless witnesses
    # would decide before they are built
    @pytest.fixture(autouse=True)
    def _no_witnesses(self):
        with no_witnesses():
            yield

    @pytest.mark.parametrize("model,objectives", sorted(GOLDEN_STAGES))
    def test_stage_dumps_match(self, model, objectives):
        verdict, digests = GOLDEN_STAGES[(model, objectives)]
        assert unique_ne_digests(in_process, model, objectives, verdict) == digests

    @pytest.mark.parametrize("n,agents,sentence", sorted(GOLDEN_RING_STAGES))
    def test_wide_alphabet_stage_dumps_match(self, tmp_path, n, agents, sentence):
        verdict, digests = GOLDEN_RING_STAGES[(n, agents, sentence)]
        model = tmp_path / "ring.json"
        model.write_text(json.dumps(ring_model(n, agents)))
        assert stage_digests(in_process, str(model), sentence, verdict) == digests

    # projection trusts alternation removal to return an NPT: every stage
    # of the golden sentences pins that
    @pytest.mark.parametrize("model,objectives", sorted(GOLDEN_STAGES))
    def test_every_stage_is_an_npt(self, model, objectives):
        verdict, digests = GOLDEN_STAGES[(model, objectives)]
        model, objectives = os.path.join(DATA, model), os.path.join(DATA, objectives)
        code, sentence = in_process("gen", "unique-ne", model, "--objectives", objectives)
        assert code == 0
        with open(model) as fh:
            assert_npt_stages(load_cgs(json.load(fh)), sentence, verdict, len(digests) // 2)

    @pytest.mark.parametrize("n,agents,sentence", sorted(GOLDEN_RING_STAGES))
    def test_every_wide_alphabet_stage_is_an_npt(self, n, agents, sentence):
        verdict, digests = GOLDEN_RING_STAGES[(n, agents, sentence)]
        assert_npt_stages(load_cgs(ring_model(n, agents)), sentence, verdict, len(digests) // 2)

    def test_stage_dumps_match_under_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") != "2" else "5"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "tests")))

        # the command line under the same patch as in this process
        main = ("import sys; from conftest import no_witnesses; from gslmc.cli import main\n"
                "with no_witnesses(): code = main(sys.argv[1:])\n"
                "sys.exit(code)")

        def run(*argv):
            done = subprocess.run([sys.executable, "-c", main, *argv],
                                  capture_output=True, text=True, env=env, timeout=300)
            return done.returncode, done.stdout

        # single runs compact Safra trees at every stage, desk3_next at two
        for key in (("desk3.json", "desk3_next_obj.json"), ("single.json", "single_obj.json")):
            verdict, digests = GOLDEN_STAGES[key]
            assert unique_ne_digests(run, *key, verdict) == digests
