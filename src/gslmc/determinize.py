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
  2. compact Safra trees determinize it straight to a parity automaton: each
     step emits a priority from the least marked and least deleted node name,
  3. the priority is complemented (shifted by one) because a branch is good
     exactly when the bad-trace automaton rejects.

All word automata here run over "edge relations": the (state, successor)
pairs induced along one direction by the chosen transition models.  Sets of
states are ints used as bitmasks, state q at bit q.  An edge relation is an
int too, read against the tuple `active` of the states that moved: slice i,
bits [i * n, (i + 1) * n) for n input states, is the successor set of
active[i].  The `slots` of active, {1 << active[i]: i * n}, locate the slice
of each active state.

Both constructions run the same two passes (_Build.run) and differ only in
their word states, breakpoint pairs or Safra trees, and in how one steps.
The first pass explores the word states and charges all the work and the
word-state budget.  Of the transition choices of a set of active states,
it reads only their number, for the work budget, and their distinct edge
relations in first-use order; both are found per direction from each
active state's distinct slices, without listing the choices.  The output
states, (word state, priority) pairs, are then counted against the state
budget, with the accept-all sink only when a step reaches it.  Only the
second pass lists the choices, one edge relation per direction, and builds
the output rows from them.  So no budget stop comes after a row is built.
A row holds, per letter, the id of a target set: the distinct tuples of the
targets of the transition's conjunctions, one per direction, sorted.  The
output is simplified on these integer rows, as automata.simplify would
simplify it: states with equal priority and row merge until none do, and
only then is each distinct target set built once into a formula in
posbool's normal form, which is a canonical function of the target set.
"""

from itertools import count
from math import prod

from gslmc import posbool as pb
from gslmc.automata import Apt, compress_priorities, is_npt
from gslmc.errors import ResourceBudgetError

DEFAULT_BUDGET = 100_000


def members(mask):
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def slots(active, n):
    """{1 << q: offset of q's slice} for the active states of a relation."""
    return {1 << q: i * n for i, q in enumerate(active)}


def image(rel, states, slot, full):
    """The successors under the edge relation rel of the states (a subset of
    the active states that `slot` locates); full = (1 << n) - 1."""
    out = 0
    while states:
        low = states & -states
        out |= rel >> slot[low]
        states ^= low
    return out & full


# ---------------------------------------------------------------------------
# bad-trace Buechi automaton (defined implicitly through its step function)


class BadTraceNbw:
    """Buechi automaton accepting edge-relation words with an odd trace.

    States: ('i', q) wanders along a trace; ('g', q, r) has guessed that the
    trace's limit priority is the odd value r and checks pr >= r forever
    with pr == r infinitely often.  A set of states is an int: ('i', q) at
    bit q and ('g', q, odd[j]) at bit n * (1 + j) + q.
    """

    def __init__(self, priority):
        n = self.n = len(priority)
        self.full = (1 << n) - 1
        self.odd = sorted(p for p in set(priority) if p % 2 == 1)
        # per odd[j]: its bit offset and the states q with priority >= odd[j]
        self.guesses = [
            (n * (1 + j), sum(1 << q for q, p in enumerate(priority) if p >= r))
            for j, r in enumerate(self.odd)
        ]
        self.accepting = sum(
            1 << (n * (1 + j) + q)
            for j, r in enumerate(self.odd) for q, p in enumerate(priority) if p == r
        )
    def post(self, label, rel, slot):
        """The successors of the set of states `label` under rel."""
        full = self.full
        wander = image(rel, label & full, slot, full)
        out = wander
        for offset, ge in self.guesses:
            guess = image(rel, (label >> offset) & full, slot, full)
            out |= ((wander | guess) & ge) << offset
        return out


# ---------------------------------------------------------------------------
# compact Safra trees (Piterman 2007)

# A tree is either None (empty) or a node (name, label, children); children
# are ordered oldest first and labels are sets of word-automaton states, as
# ints.  The k nodes of a tree are named 1..k by age, so a parent's name is
# below its children's, and they are renamed after every step.


def safra_initial(states):
    return (1, states, ())


def safra_sprout(tree, nbw, neutral):
    """The tree with an accepting child sprouted under every node that holds
    accepting states, as (shape, labels): the shape is the tree with each
    label replaced by its index in the list labels.  The sprout does not
    depend on the edge relation, so a tree is sprouted once for all its
    steps.  New nodes are named from neutral up, above every old name, so
    the renaming of the step makes them the youngest and deleting one emits
    nothing."""
    fresh = count(neutral)
    labels = []

    def sprout(node):
        name, label, children = node
        labels.append(label)
        at = len(labels) - 1
        children = tuple(sprout(c) for c in children)
        acc = label & nbw.accepting
        if acc:
            labels.append(acc)
            children += ((next(fresh), len(labels) - 1, ()),)
        return (name, at, children)

    return sprout(tree), labels


def safra_step(shape, images, neutral):
    """One deterministic step of a sprouted tree; returns (successor tree,
    min-parity priority).  images holds the powerset step of each label of
    the sprouted tree (see safra_sprout), so the step depends on the edge
    relation only through them.

    Phases, in one walk: keep each state only in the oldest sibling
    containing it, delete empty nodes (an empty root leaves None), mark
    nodes whose children cover them (deleting the children), and rename the
    surviving nodes 1..k by age.  With f the least marked name and e the
    least deleted old name, the priority is 2f when f < e, 2e - 1 when
    e < f, and `neutral` when no node was marked or deleted.  `neutral` is
    odd and above 2n, where n bounds the nodes of a tree: the states of the
    bad-trace automaton will do.
    """
    events = [neutral]  # the priority of each mark and deletion; the least wins
    kept = []  # names of the surviving nodes

    def walk(node, banned):
        # a deleted node's descendants and a marked node's children go
        # unrecorded: their names are above the node's, so their events lose;
        # a child's label lies within its parent's, so an empty node's
        # descendants are empty too
        name, at, children = node
        label = images[at] & ~banned
        if not label:
            events.append(2 * name - 1)
            return None
        first = len(kept)
        out = []
        union = 0
        for c in children:
            c2 = walk(c, banned | union)
            if c2 is not None:
                out.append(c2)
                union |= c2[1]
        if union == label:
            events.append(2 * name)
            del kept[first:]
            out = ()
        kept.append(name)
        return (name, label, tuple(out))

    def rename(node):
        name, label, children = node
        return (new[name], label, tuple(rename(c) for c in children))

    tree = walk(shape, 0)
    priority = min(events)
    if tree is None or max(kept) == len(kept):  # already named 1..k
        return tree, priority
    new = {name: i for i, name in enumerate(sorted(kept), start=1)}
    return rename(tree), priority


# ---------------------------------------------------------------------------
# alternation removal


def nondeterminize(a, budget=DEFAULT_BUDGET):
    """Equivalent nondeterministic parity tree automaton: a simplified
    automaton in, a simplified NPT out.

    The input is not simplified again.  Its one caller in the compiler is a
    quantifier block, which simplifies every level it builds, and a grade-0
    level hands over `accept_all`, which is already simple.  On an
    unsimplified input the result is still an equivalent NPT, only perhaps
    larger.  An input that is an NPT by syntax (automata.is_npt) passes
    through unchanged.  An input whose priorities lie in {0, 1} goes
    through the breakpoint construction, every other input through compact
    Safra trees, and each construction simplifies its own output on integer
    rows (_Build.quotient).  Projection relies on the NPT shape of the
    result (automata.project).
    Raises ResourceBudgetError when
      - one choice key, (active states, class id of each one's transition
        on a letter), has more than `budget` transition-choice
        combinations, or its edge relations, a slice of n input states
        per active state, would be wider than 20 * `budget` bits,
      - the work, combinations times directions summed over the explored
        (Safra tree or breakpoint state, letter) pairs, exceeds
        20 * `budget` (letters that share a key are each charged),
      - the minimal models of the input's transitions, computed once per
        distinct formula, take more than 20 * `budget` candidate models and
        subset tests in all, or
      - the construction reaches more than `budget` word states (Safra
        trees or breakpoint states), or its output would have more than
        `budget` states before they merge (the accept-all sink counts only
        when a step reaches it).

    Every repeated object (transition formula, choice key, word state, edge
    relation, state) is interned to a small integer id, assigned in
    discovery order.  Discovery follows the exploration order, which meets
    transition choices in the order of their minimal models, and so the
    value order of posbool children; the ids fix the state numbering of the
    result.
    """
    if is_npt(a):
        return a
    if set(a.priority) <= {0, 1}:
        return breakpoint_construction(a, budget)
    return safra_construction(a, budget)


def breakpoint_construction(a, budget):
    """Miyano-Hayashi breakpoint construction for a simplified, not
    nondeterministic automaton whose priorities lie in {0, 1}; the result is
    simplified.

    A trace is good iff it visits priority 0 (the set F0) infinitely often.
    A word state (S, O) holds the states S active on the branch and those O
    whose traces owe a visit to F0 since the last breakpoint, a step where O
    was empty.  A branch is good iff it passes breakpoints infinitely often,
    so O = {} has priority 0 and every other state 1.  Without priority 0
    the construction is the plain subset construction.
    """
    f0 = sum(1 << q for q, p in enumerate(a.priority) if p == 0)
    full = (1 << a.n_states) - 1
    build = _Build(a, budget)

    def expand(state):
        active = members(state[0])
        slot = slots(active, a.n_states)

        def step(e):
            state2 = breakpoint_step(state, build.edge_of[e], slot, full, f0)
            return state2, 1 if state2[1] else 0

        return active, step

    start = 1 << a.initial
    init = (start, start & ~f0)
    return build.run(init, 1 if init[1] else 0, expand)


def breakpoint_step(state, rel, slot, full, f0):
    """The breakpoint state (S', O') after the edge relation rel:
    S' = post(S), and O' = post(O) - F0, or S' - F0 after a breakpoint."""
    s, o = state
    s2 = image(rel, s, slot, full)
    o2 = image(rel, o, slot, full) if o else s2
    return s2, o2 & ~f0


def safra_construction(a, budget):
    """Compact Safra trees for a simplified, not nondeterministic automaton;
    the result is simplified.

    A word state is a tree; the output priority of a step is its Safra
    priority plus one, since a branch is good exactly when the bad-trace
    automaton rejects.  A step that empties the tree leaves no obligation
    and goes to the accept-all sink.
    """
    build = _Build(a, budget)
    nbw = BadTraceNbw(a.priority)
    # above twice the states ('i', q) and ('g', q, r) of nbw, which bound the
    # nodes of a tree
    neutral = 2 * nbw.n * (1 + len(nbw.odd)) + 1
    post = nbw.post
    # active states -> {(label, edge id): post of the label}: post reads the
    # relation through the slots, and they depend only on the active states
    posts = {}

    def expand(tree):
        # the root holds ('i', q) for every active state q
        active = members(tree[1] & nbw.full)
        slot = slots(active, a.n_states)
        memo = posts.setdefault(active, {})
        shape, labels = safra_sprout(tree, nbw, neutral)
        # edge relations with equal images of every label step alike
        by_images = {}

        def step(e):
            images = _label_images(post, labels, e, build.edge_of[e], slot, memo)
            out = by_images.get(images)
            if out is None:
                tree2, prio = safra_step(shape, images, neutral)
                out = by_images[images] = (tree2, prio + 1)
            return out

        return active, step

    # ('i', initial state)
    return build.run(safra_initial(1 << a.initial), neutral + 1, expand)


def _label_images(post, labels, e, rel, slot, memo):
    """The tuple of post(label, rel, slot) over the labels, memoised in
    memo under (label, e).  Edge id e names the int rel, and post reads it
    through the slots of the active states, so one memo serves one set of
    active states."""
    images = []
    for label in labels:
        im = memo.get((label, e))
        if im is None:
            im = memo[label, e] = post(label, rel, slot)
        images.append(im)
    return tuple(images)


def _intern(ids, objs, x):
    """The id of x; a new x gets the next id, its index in objs."""
    i = ids.get(x)
    if i is None:
        i = ids[x] = len(objs)
        objs.append(x)
    return i


class _Build:
    """Both constructions' two passes: the transition choices of the input's
    active-state sets, the exploration of word states, and the output states
    with their rows of transitions, with the budget stops.

    A construction names its word states (breakpoint pairs or Safra trees)
    and hands `run` the initial one, its output priority and
    expand(word) -> (active states, step), where step(edge id) gives the
    successor word state, or None for the accept-all sink, and the output
    priority of the step.  An output state is a key (word id, output
    priority), or "sink".

    Choices are keyed by transition class, not by letter: each input
    transition formula is interned to a class id, and the choices of active
    states on a letter depend only on the key (active states, class id of
    each one's transition on the letter).  Many letters share a key, and so
    its choice id and, per output state, its output transition.  A key
    records its combination count and its edge relations in first-use
    order, all that the first pass reads; its choice rows, one edge id per
    direction for every combination, are built by the second pass, on the
    first output transition that needs them.  So every budget stop comes
    before any row is built.  Objects are interned to ids in discovery
    order.  Letters are named by their index in the input's alphabet.  Edge
    relations are interned to ids, `edge_of[e]` being relation e.  A
    relation is read against the active states of the key that built it;
    one int built for two keys shares an id, and each user reads it against
    its own key.

    The second pass writes each output transition as the id of its target
    set (see formula), so the rows in `trans` are tuples of ints.  `quotient`
    merges the output states on these rows, as automata.simplify would, and
    only then builds each distinct target set's formula once (set_formula).
    The output needs no reachability pass: every state the second pass
    makes is reached, and the sink is made only when a step reaches it.
    """

    def __init__(self, a, budget):
        self.a = a
        self.budget = budget
        # the directions in the order of posbool's conjunctions, the order of
        # the rows' columns
        self.dirs = tuple(sorted(a.directions))
        self.classes = {}  # (state, letter index) -> class id of its transition
        self.class_ids = {}  # transition formula -> class id
        self.models = []  # class id -> minimal models of its formula, by _columns
        self.model_work = [0]  # charged by every minimal_models call
        self.edge_ids = {}
        self.edge_of = []
        self.choice_ids = {}  # (active states, class ids) -> choice id
        # choice id -> (combination count, edge ids in first-use order,
        # minimal models of each active state's transition, by _columns)
        self.choice_of = []
        self.choice_rows = {}  # choice id -> its rows, once an output transition needs them
        self.work = 0
        self.states = {}  # output state key -> id
        self.todo = []
        self.trans = []  # the output rows of target-set ids, one per state, in state order
        # a target set: the distinct tuples of a transition's targets, in
        # sorted-direction order, sorted
        self.set_ids = {}
        self.sets = []
        self.atoms = {}  # move -> its atom
        self.conjs = {}  # target tuple -> the conjunction of its moves
        self.disjs = {}  # target-set id -> its formula, the disjunction of its conjunctions

    def check_size(self, n):
        if n > self.budget:
            raise ResourceBudgetError(
                f"determinization exceeds the state budget ({self.budget})"
            )

    def run(self, initial, priority, expand):
        """The output automaton from the initial word state and its output
        priority; the accept-all sink, if a step reaches it, is state 0.

        Pass 1 explores the word states, in depth-first order, and charges
        all the work and the word-state budget: per word state it takes
        the choice id of each letter and steps each edge id of a new choice
        once, in the edges' first-use order, so new word states are found in
        the order the (choice, direction) scan would meet them.  The output
        states are then counted against the state budget, before pass 2
        builds them in the same order, with their rows, and `quotient`
        simplifies the result.
        """
        word_ids = {initial: 0}
        # word id -> (its choice id per letter, {edge id: (successor word id
        # or None, output priority)})
        explored = {}
        outs = {}  # each distinct (successor word id or None, output priority), shared
        frontier = [(0, initial)]
        while frontier:
            w, word = frontier.pop()
            active, step = expand(word)
            wchoice, wsteps = explored[w] = [], {}
            seen = set()
            for i in range(len(self.a.alphabet)):
                c = self.choices(active, i)
                wchoice.append(c)
                if c in seen:
                    continue
                seen.add(c)
                for e in self.choice_of[c][1]:
                    if e in wsteps:
                        continue
                    word2, prio = step(e)
                    w2 = word_ids.get(word2)
                    if w2 is None and word2 is not None:  # a new word state
                        w2 = word_ids[word2] = len(word_ids)
                        frontier.append((w2, word2))
                        self.check_size(len(word_ids))
                    wsteps[e] = outs.setdefault((w2, prio), (w2, prio))
        # pass 2 reaches the initial output state, the one of every step and,
        # if a step reaches it (only a Safra step can), the sink
        sink = any(w2 is None for w2, _ in outs)
        self.check_size(sum(w2 is not None for w2, _ in outs)
                        + ((0, priority) not in outs) + sink)

        if sink:  # its row is set here: it is not queued
            self.states["sink"] = 0
            loop = self.target_set([(0,) * len(self.dirs)])
            self.trans.append((loop,) * len(self.a.alphabet))
        init = self.state((0, priority))
        while self.todo:
            key = self.todo.pop()
            wchoice, wsteps = explored[key[0]]
            out = {}  # choice id -> the target-set id on its letters
            row = []
            for c in wchoice:
                s = out.get(c)
                if s is None:
                    _, edges, per_state = self.choice_of[c]
                    rows = self.choice_rows.get(c)
                    if rows is None:
                        rows = self.choice_rows[c] = _choice_rows(
                            self.dirs, self.a.n_states, per_state, self.edge_ids)
                    # the sink, if a step has no successor word state
                    s = out[c] = self.formula(rows, {
                        e: 0 if wsteps[e][0] is None else self.state(wsteps[e])
                        for e in edges})
                row.append(s)
            self.trans[self.states[key]] = tuple(row)
        # self.states lists the states in id order, the sink first
        prio = [2 if key == "sink" else key[1] for key in self.states]
        # freed before the formulas are built, which then reuse their memory:
        # the desk3-reach benchmark peaked 0.5 MB higher without this
        del explored, outs, word_ids, wchoice, wsteps
        return self.quotient(init, prio)

    def state(self, key):
        """The id of the output state key; a new key is pushed on `todo`
        and reserves the state's row in `trans`."""
        idx = self.states.get(key)
        if idx is None:
            idx = self.states[key] = len(self.states)
            self.todo.append(key)
            self.trans.append(None)
        return idx

    def transition_class(self, q, i):
        """The class id of state q's transition on letter i; its minimal
        models are computed once per class."""
        c = self.classes.get((q, i))
        if c is None:
            f = self.a.trans[q][i]
            c = self.class_ids.get(f)
            if c is None:
                c = self.class_ids[f] = len(self.models)
                self.models.append(
                    _columns(pb.minimal_models(f, self.budget, self.model_work)))
            self.classes[(q, i)] = c
        return c

    def choices(self, active, i):
        """The choice id of the active states on letter i; `choice_of[id]`
        is found once per key (active states, class ids).  Every call adds
        the combination count times the directions to the work, so the
        budget stops do not depend on the sharing."""
        key = (active, tuple([self.transition_class(q, i) for q in active]))
        c = self.choice_ids.get(key)
        if c is None:
            per_state = [self.models[k] for k in key[1]]
            count, edges = _choice_edges(self.a.directions, self.a.n_states, per_state,
                                         self.budget, self.edge_ids, self.edge_of)
            c = self.choice_ids[key] = len(self.choice_of)
            self.choice_of.append((count, edges, per_state))
        self.work += self.choice_of[c][0] * len(self.a.directions)
        if self.work > 20 * self.budget:
            raise ResourceBudgetError(
                f"determinization work exceeds the budget ({self.budget})"
            )
        return c

    def formula(self, rows, target):
        """The id of the transition over rows, interned as its target set:
        the distinct tuples of the targets target[e] of each row's edge ids
        e, sorted.  A row holds its edge ids in sorted-direction order;
        set_formula builds the transition."""
        return self.target_set(tuple([target[e] for e in row]) for row in rows)

    def target_set(self, tgts):
        """The id of the target set of the target tuples tgts: the distinct
        ones, sorted."""
        return _intern(self.set_ids, self.sets, tuple(sorted(set(tgts))))

    def set_formula(self, s):
        """The formula of target set s, in posbool's normal form: the
        disjunction over its target tuples of the conjunction of the moves
        (d, target) along the sorted directions d.  Every conjunction moves
        once along every direction, so conjunctions compare as their target
        tuples, and the sorted target set lists the disjuncts in order.
        Each formula and conjunction is built once, with one atom object per
        move."""
        f = self.disjs.get(s)
        if f is None:
            disjuncts = []
            for tgt in self.sets[s]:
                g = self.conjs.get(tgt)
                if g is None:
                    g = self.conjs[tgt] = pb.presorted("&", [
                        self.atoms.get(m) or self.atoms.setdefault(m, pb.atom(m))
                        for m in zip(self.dirs, tgt)])
                disjuncts.append(g)
            f = self.disjs[s] = pb.presorted("|", disjuncts)
        return f

    def quotient(self, initial, priority):
        """The output automaton, simplified as automata.simplify would
        simplify it, from the rows of target-set ids in `trans`.

        Every state is reachable.  States whose (priority, row) are equal
        merge into the first of them, and the states are renumbered
        ascending, until nothing merges; then the priorities are
        compressed.  A formula is a canonical function of its target set
        (set_formula), so equal formulas are equal target sets, and renaming
        the atoms of a formula and normalizing it is renaming the states of
        its target set, deduplicating and sorting.  Only the final target
        sets are built into formulas.
        """
        trans = self.trans
        while True:
            new = {}  # (priority, row) -> the state number of its first state
            number = [new.setdefault(key, len(new)) for key in zip(priority, trans)]
            if len(new) == len(trans):
                break
            renamed = {}  # target-set id -> the id of the renamed set
            for s in {s for _, row in new for s in row}:
                renamed[s] = self.target_set(
                    tuple([number[q] for q in tgt]) for tgt in self.sets[s])
            trans = [tuple([renamed[s] for s in row]) for _, row in new]
            priority = [p for p, _ in new]
            initial = number[initial]
        trans = [tuple([self.set_formula(s) for s in row]) for row in trans]
        return compress_priorities(
            Apt(self.a.alphabet, self.a.directions, initial, trans, tuple(priority)))


def _columns(models):
    """The minimal models of a transition read per direction: (their count,
    {d: (the successor set of each model along d, {distinct successor set:
    index of the first model giving it})}) over the directions some model
    moves along.  Successor sets are bitmasks, state q at bit q."""
    by_dir = {}
    for k, m in enumerate(models):
        for d, q2 in m:
            by_dir.setdefault(d, [0] * len(models))[k] |= 1 << q2
    columns = {}
    for d, parts in by_dir.items():
        first = {}
        for k, p in enumerate(parts):
            first.setdefault(p, k)
        columns[d] = (parts, first)
    return len(models), columns


def _choice_edges(directions, n, per_state, budget, edge_ids, edge_of):
    """The transition choices of the active states, counted, and the edge
    relations they induce.

    per_state holds the minimal models of the transition of each active
    state, active[i] at i, read per direction by _columns.  A choice picks
    one model per active state, choices numbered in itertools.product
    order; along each direction it induces the edge relation whose slice i,
    bits [i * n, (i + 1) * n), holds the successors of active[i] in that
    direction, its part.  Returns (the choice count for the work budget,
    the distinct edge ids in first-use order over choices then directions).
    New edge relations are interned into edge_ids / edge_of, direction by
    direction, each in the order of its first choice.

    A part of active[i] lives in slice i, so distinct tuples of parts give
    distinct relations: per direction, the relations are the product of
    each state's distinct parts, and a relation is first induced by the
    choice that takes, for each state, the first model giving its part.  A
    direction no model moves along has the empty relation, from choice 0.
    Raises ResourceBudgetError when the choices number more than `budget`,
    or when a relation, len(per_state) * n bits, would be wider than
    20 * `budget` bits, the work budget's scale.
    """
    total = 1
    for count, _ in per_state:
        total *= max(count, 1)
        if total > budget:
            raise ResourceBudgetError(
                f"transition choice combinations exceed the budget ({budget})"
            )
    if not all(count for count, _ in per_state):  # an active state cannot move: no choice
        return 1, ()
    if len(per_state) * n > 20 * budget:
        raise ResourceBudgetError(f"edge relations exceed the budget ({budget})")
    # a model index's weight in the choice number: the later states vary fastest
    strides = []
    stride = total
    for count, _ in per_state:
        stride //= count
        strides.append(stride)
    moved = set().union(*[columns for _, columns in per_state])
    first = {}  # edge id -> (its first choice, direction index there)
    empty_seen = False
    for j, d in enumerate(directions):
        rels = [(0, 0)]  # (relation so far, number of its first choice)
        if d in moved:
            for i, ((_, columns), stride) in enumerate(zip(per_state, strides)):
                column = columns.get(d)
                if column is not None:  # else every model's part is empty
                    off = i * n
                    rels = [(r | p << off, c + k * stride)
                            for r, c in rels for p, k in column[1].items()]
        elif empty_seen:  # the empty relation from choice 0, met already
            continue
        else:
            empty_seen = True
        for r, c in rels:
            e = _intern(edge_ids, edge_of, r)
            old = first.get(e)
            if old is None or c < old[0]:
                first[e] = (c, j)
    return total, tuple(sorted(first, key=first.__getitem__))


def _choice_rows(directions, n, per_state, edge_ids):
    """One row per transition choice of the active states (see
    _choice_edges, which has interned every relation), in itertools.product
    order, holding the id of the choice's edge relation along each of the
    directions, in the order given."""
    total = prod(count for count, _ in per_state)
    if not total:
        return []
    moved = set().union(*[columns for _, columns in per_state])
    # the column of a direction no model moves along: the empty relation
    empty = None if moved.issuperset(directions) else [edge_ids[0]] * total
    columns = []
    for d in directions:
        if d not in moved:
            columns.append(empty)
            continue
        rels = [0]
        for i, (count, state_columns) in enumerate(per_state):
            column = state_columns.get(d)
            if column is not None:
                parts = [p << i * n for p in column[0]]
                rels = [r | p for r in rels for p in parts]
            elif count > 1:
                rels = [r for r in rels for _ in range(count)]
        columns.append([edge_ids[r] for r in rels])
    return list(zip(*columns))
