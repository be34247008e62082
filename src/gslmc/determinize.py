"""Alternation removal for parity tree automata.

An alternating automaton accepts a tree iff it has a run whose every branch
carries only good traces (min-parity even along every path through the run
slices).  The equivalent nondeterministic automaton guesses, per tree node,
one transition choice for every active state and tracks, per branch, a
deterministic word automaton that checks every trace is good.

When the priorities lie in {0, 1}, a trace is good iff it visits priority 0
infinitely often, and the word automaton is the Miyano-Hayashi breakpoint
construction over sets of states.  Otherwise it checks that no bad trace
exists:

  1. a Buechi word automaton guesses a trace with odd limit priority,
  2. Safra's construction determinizes it to Rabin pairs over node names,
  3. an index appearance record turns the pairs into a single parity index,
  4. the final priority is complemented (shifted by one) because a branch is
     good exactly when the bad-trace automaton rejects.

All word automata here run over "edge relations": the sets of state pairs
induced along one direction by the chosen transition models.
"""

from itertools import chain

from gslmc import posbool as pb
from gslmc.automata import Apt, is_npt, simplify
from gslmc.errors import ResourceBudgetError

DEFAULT_BUDGET = 100_000


# ---------------------------------------------------------------------------
# bad-trace Buechi automaton (defined implicitly through its step function)


class BadTraceNbw:
    """Buechi automaton accepting edge-relation words with an odd trace.

    States: ('i', q) wanders along a trace; ('g', q, r) has guessed that the
    trace's limit priority is the odd value r and checks pr >= r forever
    with pr == r infinitely often.
    """

    def __init__(self, priority):
        self.priority = dict(priority)
        self.odd = sorted(p for p in set(self.priority.values()) if p % 2 == 1)

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


# ---------------------------------------------------------------------------
# Safra trees

# A tree is either None (empty) or a node (name, label, marked, children);
# children are ordered oldest first, labels are frozensets of word-automaton
# states, and names persist across steps so the Rabin pairs can refer to them.


def safra_initial(states):
    if not states:
        return None
    return (1, frozenset(states), False, ())


def _tree_names(t, out):
    if t is None:
        return out
    out.add(t[0])
    for c in t[3]:
        _tree_names(c, out)
    return out


def tree_names(t):
    return _tree_names(t, set())


def safra_step(tree, edges, nbw):
    """One deterministic step; returns the successor tree.

    Phases: unmark, sprout an accepting child per node, apply the powerset
    step, keep each state only in the oldest sibling containing it, delete
    empty nodes, and mark nodes whose children cover them (deleting the
    children).
    """
    if tree is None:
        return None
    used = tree_names(tree)
    fresh = iter(n for n in range(1, 2 * len(used) + 2 + max(used)) if n not in used)

    def sprout(node):
        name, label, _m, children = node
        acc = frozenset(s for s in label if nbw.is_accepting(s))
        children = tuple(sprout(c) for c in children)
        if acc:
            children = children + ((next(fresh), acc, False, ()),)
        return (name, label, False, children)

    def powerset(node):
        name, label, m, children = node
        return (name, nbw.step_set(label, edges), m, tuple(powerset(c) for c in children))

    def strip(node, banned):
        name, label, m, children = node
        label = label - banned
        out_children = []
        taken = set(banned)
        for c in children:
            c2 = strip(c, frozenset(taken))
            out_children.append(c2)
            taken |= c2[1]
        return (name, label, m, tuple(out_children))

    def prune(node):
        name, label, m, children = node
        if not label:
            return None
        children = tuple(c2 for c in children if (c2 := prune(c)) is not None)
        union = frozenset().union(*(c[1] for c in children)) if children else frozenset()
        if children and union == label:
            return (name, label, True, ())
        return (name, label, m, children)

    return prune(strip(powerset(sprout(tree)), frozenset()))


def safra_hits(tree):
    """(marked names, present names) of a tree — the Rabin pair signals."""
    marked = set()
    present = set()

    def walk(node):
        if node is None:
            return
        present.add(node[0])
        if node[2]:
            marked.add(node[0])
        for c in node[3]:
            walk(c)

    walk(tree)
    return frozenset(marked), frozenset(present)


# ---------------------------------------------------------------------------
# index appearance record: Rabin pairs -> parity


def iar_step(perm, marked, present):
    """Advance the appearance record and emit a min-parity priority.

    perm lists pair names, most-recently-reset first.  Names whose pair had
    a reset (name absent) move to the front preserving order; the priority
    rewards the deepest mark position when it beats the deepest reset.
    """
    k = len(perm)
    e = 0
    f = 0
    for i, name in enumerate(perm, start=1):
        if name not in present:
            e = i
        if name in marked:
            f = i
    movers = tuple(n for n in perm if n not in present)
    stayers = tuple(n for n in perm if n in present)
    new_perm = movers + stayers
    if f > e:
        prio = 2 * (k - f)
    elif e > 0:
        prio = 2 * (k - e) - 1
    else:
        prio = 2 * k + 1
    return new_perm, prio


# ---------------------------------------------------------------------------
# alternation removal


def nondeterminize(a, budget=DEFAULT_BUDGET):
    """Equivalent nondeterministic parity tree automaton.

    Already-nondeterministic inputs pass through (after simplification).  An
    input whose priorities lie in {0, 1} goes through the breakpoint
    construction, every other input through Safra + appearance record.
    Raises ResourceBudgetError, besides simplify's own state-budget stop,
    when
      - one choice key, (active states, class id of each one's transition
        on a letter), has more than `budget` transition-choice
        combinations,
      - the work, combinations times directions summed over the explored
        (Safra tree or breakpoint state, letter) pairs, exceeds
        20 * `budget` (letters that share a key are each charged), or
      - the construction reaches more than `budget` Safra trees, or more
        than `budget` states.

    Every repeated object (transition formula, choice key, Safra tree, edge
    relation, Rabin hit pair, appearance record, state) is interned to a
    small integer id, assigned in discovery order.  Discovery follows the
    exploration order, which meets transition choices in the order of their
    minimal models, and so the value order of posbool children; the ids fix
    the state numbering of the result.
    """
    a = simplify(a, budget=budget)
    if is_npt(a):
        return a
    if set(a.priority.values()) <= {0, 1}:
        out = breakpoint_construction(a, budget)
    else:
        out = safra_construction(a, budget)
    return simplify(out, budget=budget)


def breakpoint_construction(a, budget):
    """Miyano-Hayashi breakpoint construction for a simplified, not
    nondeterministic automaton whose priorities lie in {0, 1}; the result is
    not simplified.

    A trace is good iff it visits priority 0 (the set F0) infinitely often.
    A state (S, O) holds the states S active on the branch and those O whose
    traces owe a visit to F0 since the last breakpoint, a step where O was
    empty.  A branch is good iff it passes breakpoints infinitely often, so
    O = {} has priority 0 and every other state 1.  Without priority 0 the
    construction is the plain subset construction.
    """
    f0 = frozenset(q for q, p in a.priority.items() if p == 0)
    build = _Build(a, budget)
    start = frozenset([a.initial])
    init = build.state((start, start - f0))
    trans = {}
    while build.todo:
        key = build.todo.pop()
        me = build.states[key]
        active = tuple(sorted(key[0]))
        # choices are taken lazily, so each letter's work is charged before
        # the states it reaches are made, and the budget stops keep their order
        build.transitions(
            trans, me, ((letter, build.choices(active, letter)) for letter in a.alphabet),
            lambda e: build.state(breakpoint_step(key, build.edge_of[e], f0)),
        )
    priority = {i: 1 if o else 0 for (_s, o), i in build.states.items()}
    return Apt(a.alphabet, a.directions, len(build.states), init, trans, priority)


def breakpoint_step(state, edges, f0):
    """The breakpoint state (S', O') after the edge relation `edges`:
    S' = post(S), and O' = post(O) - F0, or S' - F0 after a breakpoint."""
    s, o = state
    s2 = frozenset([q2 for q, q2 in edges if q in s])
    o2 = frozenset([q2 for q, q2 in edges if q in o]) if o else s2
    return s2, o2 - f0


def safra_construction(a, budget):
    """Safra + index appearance record for a simplified, not nondeterministic
    automaton; the result is not simplified."""
    build = _Build(a, budget)
    # pass 1: reachable Safra trees and their per-edge-relation step results
    nbw = BadTraceNbw(a.priority)
    t0 = safra_initial(nbw.initial(a.initial))
    tree_ids = {t0: 0}
    tree_of = [t0]
    names_used = set(tree_names(t0))
    hit_ids = {}
    hits_of = []
    choice = {}  # tree id -> its choice id per letter
    steps = {}  # tree id -> {edge id: (successor tree id | None, hits id)}
    frontier = [0]
    while frontier:
        tid = frontier.pop()
        tree = tree_of[tid]
        active = tuple(sorted(q for (tag, q) in _root_i_states(tree)))
        tchoice = choice[tid] = []
        tsteps = steps[tid] = {}
        seen = set()
        for letter in a.alphabet:
            c = build.choices(active, letter)
            tchoice.append(c)
            if c in seen:
                continue
            seen.add(c)
            # edge ids in first-use order, so new trees are found in the
            # order the (combination, direction) scan would meet them
            for e in build.rows[c][1]:
                if e in tsteps:
                    continue
                t2 = safra_step(tree, build.edge_of[e], nbw)
                h = _intern(hit_ids, hits_of, safra_hits(t2))
                t2id = None
                if t2 is not None:
                    known = len(tree_of)
                    t2id = _intern(tree_ids, tree_of, t2)
                    if t2id == known:  # a new tree
                        names_used |= tree_names(t2)
                        frontier.append(t2id)
                        build.check_size(len(tree_of))
                tsteps[e] = (t2id, h)

    # pass 2: refine with the appearance record over the names actually used
    names = tuple(sorted(names_used))
    k = len(names)
    # accept-all state for branches with no tracked obligations, with its
    # transitions set here: it is not queued
    sink = build.states["sink"] = 0
    loop = pb.conj([pb.atom((d, sink)) for d in a.directions])
    trans = {(sink, letter): loop for letter in a.alphabet}
    perm_ids = {names: 0}
    perm_of = [names]
    iar = {}  # (perm id, hits id) -> (perm id, prio)

    def record(pid, h):
        """The appearance-record step from record pid on hits h, memoized."""
        out = iar.get((pid, h))
        if out is None:
            perm2, prio = iar_step(perm_of[pid], *hits_of[h])
            out = iar[(pid, h)] = (_intern(perm_ids, perm_of, perm2), prio)
        return out

    init = build.state((0, 0, 2 * k + 2))  # (tree id, perm id, prio)
    while build.todo:
        key = build.todo.pop()
        tid, pid, _ = key
        me = build.states[key]
        tsteps = steps[tid]

        def target(e):
            t2id, h = tsteps[e]
            if t2id is None:
                return sink
            p2, prio = record(pid, h)
            return build.state((t2id, p2, prio + 1))

        build.transitions(trans, me, zip(a.alphabet, choice[tid]), target)
    priority = {i: 2 if key == "sink" else key[2] for key, i in build.states.items()}
    return Apt(a.alphabet, a.directions, len(build.states), init, trans, priority)


def _intern(ids, objs, x):
    """The id of x; a new x gets the next id, its index in objs."""
    i = ids.get(x)
    if i is None:
        i = ids[x] = len(objs)
        objs.append(x)
    return i


def _root_i_states(tree):
    if tree is None:
        return frozenset()
    return frozenset(s for s in tree[1] if s[0] == "i")


class _Build:
    """What both constructions share: the transition choices of the input's
    active-state sets, the output states and the output transitions, with
    the budget stops.

    Choices are keyed by transition class, not by letter: each input
    transition formula is interned to a class id, and the choices of active
    states on a letter depend only on the key (active states, class id of
    each one's transition on the letter).  Many letters share a key, and so
    its choice id, its rows and, per output state, its output transition.
    States are interned from hashable keys to ids in discovery order; a new
    key is pushed on `todo`.  Edge relations are interned to the ids that the
    choice rows hold, `edge_of[e]` being relation e.
    """

    def __init__(self, a, budget):
        self.a = a
        self.budget = budget
        self.classes = {}  # (state, letter) -> class id of its transition
        self.class_ids = {}  # transition formula -> class id
        self.models = []  # class id -> minimal models of its formula
        self.edge_ids = {}
        self.edge_of = []
        self.choice_ids = {}  # (active states, class ids) -> choice id
        self.rows = []  # choice id -> (combo count, edge ids, rows)
        self.work = 0
        self.states = {}
        self.todo = []
        self.conjs = {}  # target per direction -> conjunction of its moves
        self.disjs = {}  # targets of all choices -> disjunction of their conjunctions

    def check_size(self, n):
        if n > self.budget:
            raise ResourceBudgetError(
                f"determinization exceeds the state budget ({self.budget})"
            )

    def state(self, key):
        idx = self.states.get(key)
        if idx is None:
            idx = self.states[key] = len(self.states)
            self.todo.append(key)
            self.check_size(len(self.states))
        return idx

    def transition_class(self, q, letter):
        """The class id of state q's transition on the letter; its minimal
        models are computed once per class."""
        c = self.classes.get((q, letter))
        if c is None:
            f = self.a.trans[(q, letter)]
            c = self.class_ids.get(f)
            if c is None:
                c = self.class_ids[f] = len(self.models)
                self.models.append(pb.minimal_models(f))
            self.classes[(q, letter)] = c
        return c

    def choices(self, active, letter):
        """The choice id of the active states on the letter, whose
        `rows[id]` is built once per key (active states, class ids); every
        call adds the choice count times the directions to the work, so the
        budget stops do not depend on the sharing."""
        key = (active, tuple([self.transition_class(q, letter) for q in active]))
        c = self.choice_ids.get(key)
        if c is None:
            got = _choice_rows(self.a.directions, active, [self.models[k] for k in key[1]],
                               self.budget, self.edge_ids, self.edge_of)
            c = self.choice_ids[key] = len(self.rows)
            self.rows.append(got)
        self.work += self.rows[c][0] * len(self.a.directions)
        if self.work > 20 * self.budget:
            raise ResourceBudgetError(
                f"determinization work exceeds the budget ({self.budget})"
            )
        return c

    def transitions(self, trans, me, letter_choices, target):
        """Set trans[(me, letter)] for each (letter, choice id) pair.

        The transition of a choice id is built once, and every letter of
        that id gets the same formula.  target(e) is the output state
        reached along edge relation e; it is called once per edge, in the
        edges' first-use order, so new states get the numbers the
        (choice, direction) scan would give them.
        """
        out = {}  # choice id -> the transition on its letters
        for letter, c in letter_choices:
            f = out.get(c)
            if f is None:
                _, used, rows = self.rows[c]
                f = out[c] = self.formula(rows, {e: target(e) for e in used})
            trans[(me, letter)] = f

    def formula(self, rows, target):
        """The disjunction over rows of the conjunction of the moves
        (d, target[edge id of d in the row])."""
        a = self.a
        tgts = tuple(tuple(map(target.__getitem__, row)) for row in rows)
        f = self.disjs.get(tgts)
        if f is None:
            disjuncts = []
            for tgt in tgts:
                g = self.conjs.get(tgt)
                if g is None:
                    g = self.conjs[tgt] = pb.conj(
                        [pb.atom((d, q)) for d, q in zip(a.directions, tgt)]
                    )
                disjuncts.append(g)
            f = self.disjs[tgts] = pb.disj(disjuncts)
        return f


def _choice_rows(directions, active, per_state, budget, edge_ids, edge_of):
    """Transition choices of the active states, as edge relations.

    per_state holds the minimal models of each active state's transition.  A
    choice picks one model per active state; along each direction it induces
    the edge relation of (state, successor) pairs.  Returns (the choice count
    for the work budget, the distinct edge ids in first-use order over
    choices then directions, one row per choice holding its edge id per
    direction).  Choices come in itertools.product order.  New edge relations
    are interned into edge_ids / edge_of.
    """
    total = 1
    for m in per_state:
        total *= max(len(m), 1)
        if total > budget:
            raise ResourceBudgetError(
                f"transition choice combinations exceed the budget ({budget})"
            )
    if not all(per_state):  # an active state cannot move: no choice
        return 1, (), []
    # each model's moves grouped by direction, once
    by_dir = []
    for q, qmodels in zip(active, per_state):
        groups = []
        for m in qmodels:
            g = {}
            for d, q2 in m:
                g.setdefault(d, set()).add((q, q2))
            groups.append({d: frozenset(pairs) for d, pairs in g.items()})
        by_dir.append(groups)
    mentioned = {d for groups in by_dir for g in groups for d in g}
    empty = frozenset()
    # per direction, the relation of every choice, one active state at a time;
    # a direction no model mentions has the empty relation in every choice
    per_dir = []
    for d in directions:
        if d not in mentioned:
            per_dir.append([_intern(edge_ids, edge_of, empty)] * total)
            continue
        rels = [empty]
        for groups in by_dir:
            parts = [g.get(d, empty) for g in groups]
            rels = [r | p if p else r for r in rels for p in parts]
        per_dir.append([_intern(edge_ids, edge_of, r) for r in rels])
    rows = list(zip(*per_dir))
    return total, tuple(dict.fromkeys(chain.from_iterable(rows))), rows
