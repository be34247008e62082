"""Compilation of formulas into alternating parity tree automata.

A formula with free placeholders V is compiled, against a fixed game
structure, into an automaton over (valuation, state)-labeled trees whose
directions are the game states: the tree encodes an assignment of finite
strategies to the names in V, and the automaton accepts exactly the
encodings of satisfying assignments.  A check decides the top-level !
and || of the formula itself, left to right with short circuit, and each
other part by one membership test of the encoding of the assignment to the
names it reads; for a sentence that is the structure's unwinding.

A top-level part <<x>>^>=g phi is first tried on memoryless witnesses: g
tuples that phi's automaton accepts prove it, and only a search that does
not decide it goes on to the g-copy block.

Graded quantifier blocks are eliminated by conjoining renamed copies of the
body automaton with a pairwise-distinctness automaton, removing alternation
once per block, and projecting the copy coordinates away existentially.
Every composition goes through automata.join, built in one pass: a
disjunction, X, U and each graded level, whose copies are joined at once.
"""

from dataclasses import dataclass, field
from itertools import product

from gslmc import posbool as pb
from gslmc import formula as fm
from gslmc.automata import (
    Apt,
    accept_all,
    assignment_alphabet,
    conjoin,
    disjoin,
    distinctness_apt,
    dualize,
    encoding_tree,
    join,
    member,
    project,
    relabel,
    simplify,
)
from gslmc.cgs import memoryless
from gslmc.determinize import nondeterminize, DEFAULT_BUDGET
from gslmc.errors import ModelError, ResourceBudgetError, UnsupportedGradeError


def _copy_name(name, j):
    return f"{name}#{j}"


@dataclass
class CompilationContext:
    cgs: object
    budget: int = DEFAULT_BUDGET
    stages: list = field(default_factory=list, init=False)
    # one record per top-level block the witness search was tried on
    searches: list = field(default_factory=list, init=False)
    _depth: int = field(default=0, init=False)
    _alphabets: dict = field(default_factory=dict, init=False)
    # printed searched body -> ((automaton, names read), the stages its
    # compile made)
    _bodies: dict = field(default_factory=dict, init=False)

    def alphabet(self, names):
        """All (valuation, state) letters over names; a ResourceBudgetError
        when there would be more than `budget` of them."""
        key = frozenset(names)
        if key not in self._alphabets:
            self.check_alphabet(len(key))
            self._alphabets[key] = assignment_alphabet(self.cgs, key)
        return self._alphabets[key]

    def check_alphabet(self, n_names):
        """A ResourceBudgetError when the alphabet over n_names strategy
        names would have more than `budget` letters.  From budget's bit
        length on, two actions or more give at least 2 ** bits > budget
        letters, and the exact count, which a huge grade would make too
        large to compute, is not taken."""
        bits = self.budget.bit_length()
        if n_names >= bits and len(self.cgs.actions) >= 2:
            raise ResourceBudgetError(
                f"the alphabet over {bits} or more strategy names has at least"
                f" {2 ** bits} letters, over the budget ({self.budget})"
            )
        size = len(self.cgs.actions) ** n_names * len(self.cgs.states)
        if size > self.budget:
            raise ResourceBudgetError(
                f"the alphabet over {n_names} strategy names has {size} letters,"
                f" over the budget ({self.budget})"
            )

    def remove_alternation(self, apt, n_copies):
        out = nondeterminize(apt, budget=self.budget)
        self.stages.append(
            {
                "depth": self._depth,
                "copies": n_copies,
                "apt": apt,
                "npt": out,
            }
        )
        return out

    def stage_count(self):
        """Nesting depth of alternation removals (pooled blocks count once)."""
        return max((s["depth"] for s in self.stages), default=0)


def compile_formula(f, ctx):
    """Compile f in ctx; returns (automaton, names read).

    The automaton reads (valuation, state) letters where the valuation
    covers exactly the returned names.
    """
    return _compile(f, ctx)


def check_sentence(f, cgs, budget=DEFAULT_BUDGET):
    """Does the sentence f hold at the initial state of cgs?"""
    return check_assignment(f, cgs, {}, budget=budget)


def check_assignment(f, cgs, assignment, budget=DEFAULT_BUDGET):
    """Does f hold under the given name -> FiniteStrategy assignment?

    Returns (verdict, context); the context lists the stages of the parts
    that were evaluated.
    """
    if not fm.grades_all_finite(f):
        raise UnsupportedGradeError("only finite grades can be model checked")
    missing = fm.free_placeholders(f, set(cgs.agents)) - set(assignment)
    if missing:
        raise ModelError(f"assignment misses free names: {sorted(missing)}")
    ctx = CompilationContext(cgs, budget=budget)
    try:
        return _holds(f, ctx, assignment), ctx
    except ResourceBudgetError as e:
        # a stop carries ctx, so the stages that finished can be reported
        e.context = ctx
        raise


def _holds(f, ctx, assignment):
    """Top-level ! and || are decided here, left to right with short circuit,
    so a part that is skipped is never compiled; a graded quantifier goes
    to _graded, and every other part is compiled and checked on the
    encoding tree of the names it reads.  A module-level function, not a
    closure, so a check's stages are freed when it returns."""
    if isinstance(f, fm.Not):
        return not _holds(f.sub, ctx, assignment)
    if isinstance(f, fm.Or):
        return _holds(f.left, ctx, assignment) or _holds(f.right, ctx, assignment)
    block, body = fm.strip_exists_block(f)
    if len(block) == 1 and block[0][1].value >= 1:
        return _graded(block, body, ctx, assignment)
    apt, names = compile_formula(f, ctx)
    return _accepts(apt, names, ctx, assignment)


def _accepts(apt, names, ctx, assignment):
    return member(apt, encoding_tree(ctx.cgs, {x: assignment[x] for x in names}))


def _graded(block, body, ctx, assignment):
    """A top-level <<x>>^>=g phi, g >= 1, whose block holds one quantifier.

    phi is compiled as its block would compile it, once per check: a later
    part with the same body lists its stages again without building them.
    The witness search gets the first say, and the g-copy block is built on
    the same automaton only when the search leaves the part undecided.
    """
    # keyed by the printed body, which walks one frame a level, where hashing
    # the formula would take two
    key = fm.print_formula(body)
    if key in ctx._bodies:
        compiled, stages = ctx._bodies[key]
        ctx.stages.extend(stages)
    else:
        first = len(ctx.stages)
        ctx._depth += 1
        compiled = compile_formula(body, ctx)
        ctx._depth -= 1
        ctx._bodies[key] = (compiled, ctx.stages[first:])
    # the g-copy block reads the names the body reads but the block's
    # variables, so its membership test and the witness search's size gate
    # share this tree
    outer = {x: assignment[x] for x in compiled[1] - set(block[0][0])}
    tree = encoding_tree(ctx.cgs, outer)
    verdict = _search_witnesses(block[0], *compiled, ctx, outer, len(tree.letters))
    if verdict is not None:
        return verdict
    return member(_block(block, body, ctx, compiled)[0], tree)


def _reachable(cgs):
    """The states reachable from the initial state, in the order of states."""
    seen = {cgs.initial}
    frontier = [cgs.initial]
    while frontier:
        for s in cgs.successors(frontier.pop()):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return [q for q in cgs.states if q in seen]


def _candidates(cgs, variables, reach):
    """Memoryless tuples over variables: every choice of an action at each
    state of reach, and the first action at the other states, in the order
    of variables, states and actions.  Two of them differ at a reachable
    state, so on a history from the initial state, which is how
    distinctness_apt tells tuples apart."""
    rest = dict.fromkeys(cgs.states, cgs.actions[0])
    n = len(reach)
    for acts in product(cgs.actions, repeat=n * len(variables)):
        yield {
            x: memoryless(cgs, {**rest, **dict(zip(reach, acts[i * n:(i + 1) * n]))})
            for i, x in enumerate(variables)
        }


def _search_witnesses(level, a, names, ctx, outer, n_nodes):
    """Decide <<x>>^>=g phi by memoryless witnesses; None leaves it to the
    g-copy block.  a is phi's automaton over names, outer the assignment
    to the names but the block's variables, and n_nodes the node count of
    its encoding tree.

    Each candidate tuple is verified by membership of its encoding tree, so
    g verified ones prove the part true.  With one action every strategy
    behaves as the one candidate, so a search that runs out decides it
    false.  The search runs only when candidates x encoding-tree nodes x
    phi's states is within the budget.
    """
    variables, grade = level
    cgs, g = ctx.cgs, grade.value
    record = {"grade": g, "tried": 0, "witnesses": [], "outcome": "fell back"}
    ctx.searches.append(record)
    reach = _reachable(cgs)
    # a memoryless candidate adds no memory, so every candidate's tree has
    # as many nodes as the outer assignment's
    size = n_nodes * a.n_states
    for _ in range(len(reach) * len(variables)):
        if size > ctx.budget:
            break
        size *= len(cgs.actions)
    if size > ctx.budget:
        record["outcome"] = "skipped (over the budget)"
        return None
    for cand in _candidates(cgs, variables, reach):
        record["tried"] += 1
        if _accepts(a, names, ctx, {**outer, **cand}):
            record["witnesses"].append(cand)
            if len(record["witnesses"]) == g:
                record["outcome"] = "decided"
                return True
    if len(cgs.actions) == 1:
        record["outcome"] = "decided"
        return False
    return None


# ---------------------------------------------------------------------------
# the case analysis; every helper returns (apt, frozenset of names read)


def _compile(f, ctx):
    if isinstance(f, fm.Atom):
        return _atom(f.name, ctx)
    if isinstance(f, fm.Not):
        a, names = _compile(f.sub, ctx)
        return dualize(a), names
    if isinstance(f, fm.Or):
        return _or(f.left, f.right, ctx)
    if isinstance(f, fm.Next):
        return _next(f.sub, ctx)
    if isinstance(f, fm.Until):
        return _until(f.left, f.right, ctx)
    if isinstance(f, fm.Bind):
        return _bind(f, ctx)
    if isinstance(f, fm.ExistsGraded):
        return _block(*fm.strip_exists_block(f), ctx)
    raise TypeError(f"unknown formula node {type(f).__name__}")


def _atom(p, ctx):
    alpha = ctx.alphabet(())
    row = tuple([pb.TRUE if p in ctx.cgs.label[letter[1]] else pb.FALSE for letter in alpha])
    return Apt(alpha, ctx.cgs.states, 0, [row], (0,)), frozenset()


def _rename(a, source, names, ctx):
    """Re-read a's letters through valuations over `names`: each name x of
    a's valuation takes the action the new valuation gives source[x]."""
    if source == {x: x for x in names}:
        return a
    at = {x: i for i, x in enumerate(sorted(names))}
    own = sorted(source)
    picks = [at[source[x]] for x in own]

    def h(letter):
        val, q = letter
        return (tuple(zip(own, [val[i][1] for i in picks])), q)

    return relabel(a, ctx.alphabet(names), h)


def _lift(a, names, target, ctx):
    """Re-read a's letters through valuations over the larger name set."""
    return _rename(a, {x: x for x in names}, target, ctx)


def _or(left, right, ctx):
    a, na = _compile(left, ctx)
    b, nb = _compile(right, ctx)
    names = na | nb
    return disjoin([_lift(a, na, names, ctx), _lift(b, nb, names, ctx)]), names


def _play_direction(ctx, names):
    """The successor state that the agents' coordinates of a letter over
    `names` prescribe, as a function of the letter."""
    at = {x: i for i, x in enumerate(sorted(names))}
    picks = [at[a] for a in ctx.cgs.agents]
    step = ctx.cgs.step

    def direction(letter):
        val, q = letter
        return step(q, tuple([val[i][1] for i in picks]))

    return direction


def _next(sub, ctx):
    a, na = _compile(sub, ctx)
    names = na | frozenset(ctx.cgs.agents)
    a = _lift(a, na, names, ctx)
    direction = _play_direction(ctx, names)

    def fresh(letter, _firsts, _q):
        return pb.atom((direction(letter), a.initial))  # join keeps a's numbers

    return join([a], fresh, 0), names


def _until(left, right, ctx):
    a, na = _compile(left, ctx)
    b, nb = _compile(right, ctx)
    names = na | nb | frozenset(ctx.cgs.agents)
    a = _lift(a, na, names, ctx)
    b = _lift(b, nb, names, ctx)
    direction = _play_direction(ctx, names)

    def fresh(letter, firsts, pend):
        fa, fb = firsts
        return pb.disj([fb, pb.conj([fa, pb.atom((direction(letter), pend))])])

    return join([a, b], fresh, 1), names  # waiting forever is losing


def _bind(f, ctx):
    a, na = _compile(f.sub, ctx)
    if f.agent not in na:
        # a body that does not read the agent does not read the variable
        # either, as fm.free_placeholders has it
        return a, na
    # the agent now reads the variable
    source = {x: (f.var if x == f.agent else x) for x in na}
    names = frozenset(source.values())
    return _rename(a, source, names, ctx), names


# ---------------------------------------------------------------------------
# quantifier blocks


def _block(block, body, ctx, compiled=None):
    """Eliminate a maximal existential quantifier prefix in one shot.

    block is a list of (vars, grade).  The body is expanded innermost
    quantifier first: a renamed body copy for every way of instantiating each
    quantifier grade-many times, conjoined with a distinctness requirement
    per instance.  Each level is simplified where it is built, alternation
    is removed once, and the copy coordinates are projected away from the
    resulting NPT.  The projection is not simplified here: an enclosing
    block simplifies each level it builds on it.  A universal block
    [[x]]^<g body is !<<x>>^>=g !body, so it reaches here under the
    negation above it.  compiled is the body's (automaton, names read)
    when the caller has compiled it already.
    """
    ctx._depth += 1
    try:
        a, names = compiled or _compile(body, ctx)
        # stop before the first rename when a level would read an alphabet
        # over the budget: a level of grade g over vars reads the names left
        # free by it and the levels inside, and g copies of vars and of the
        # inner levels' copy coordinates
        free, n_coords = names, 0
        for vars_, grade in reversed(block):
            free = free - frozenset(vars_)
            n_coords = grade.value * (len(vars_) + n_coords)
            ctx.check_alphabet(len(free) + n_coords)

        coords = ()
        for vars_, grade in reversed(block):
            g = grade.value
            outer_names = names - frozenset(vars_)
            if g == 0:
                # "at least zero witnesses" holds vacuously
                a = accept_all(ctx.alphabet(outer_names), ctx.cgs.states)
                coords, names = (), outer_names
                continue
            if g >= 2:
                # the level conjoins grade-many copies of a with a walker per
                # pair of copies; a huge grade on a small alphabet is stopped
                # here, before any of them is built
                size = 1 + g * (g - 1) // 2 + g * a.n_states
                if size > ctx.budget:
                    raise ResourceBudgetError(
                        f"a level of grade {g} would have {size} states,"
                        f" over the state budget ({ctx.budget})"
                    )
            # every copy reads the block alphabet: its own renamed
            # coordinates, and the coordinates of variables the body ignores
            # still exist there
            read = names | frozenset(coords)
            sources = []
            all_coords = []
            grid = []
            for j in range(1, g + 1):
                ren = {x: _copy_name(x, j) for x in (*vars_, *coords)}
                sources.append({x: ren.get(x, x) for x in read})
                all_coords.extend(sorted(ren.values()))
                grid.append(tuple(ren[v] for v in sorted(vars_)))

            big_names = outer_names | frozenset(all_coords)
            if g == 1:
                a = _rename(a, sources[0], big_names, ctx)
            else:
                # the copies last to first, then the walkers, in one join;
                # the list of copies is freed with the call, before simplify
                a = conjoin([_rename(a, src, big_names, ctx) for src in reversed(sources)] + [
                    distinctness_apt(tuple(grid), ctx.alphabet(big_names), ctx.cgs.states,
                                     lambda letter: ctx.cgs.successors(letter[1]))
                ])
            a = simplify(a, budget=ctx.budget)
            coords, names = tuple(all_coords), outer_names
        npt = ctx.remove_alternation(a, sum(g.value for _v, g in block))
    finally:
        ctx._depth -= 1
    return project(npt, coords), names
