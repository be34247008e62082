"""Brute-force semantics evaluator over bounded-memory strategies.

Evaluates formulas by literally enumerating finite-memory strategy machines
at quantifiers and following induced plays at temporal operators.  Used as
independent ground truth for the automata pipeline on small instances; an
existential verdict is exact only under a stated justification, otherwise
it is a lower bound (richer strategies could only add witnesses).  The
memoryless equilibrium counter reads its payoffs off the same evaluator.
"""

from dataclasses import dataclass
from itertools import product

from gslmc import formula as fm
from gslmc.cgs import FiniteStrategy, memoryless
from gslmc.errors import ModelError, ResourceBudgetError, UnsupportedGradeError

DEFAULT_PROFILE_BUDGET = 200_000

EXACT = "exact"
LOWER_BOUND = "lower-bound-only"


def enumerate_strategies(cgs, memory_bound, budget, start):
    """All finite-memory strategies with at most memory_bound memory states,
    one per history function they compute from the state start.  Only
    machines with exactly memory_bound states are built: one with fewer is
    such a machine whose extra states are unreachable."""
    count = 1  # (memory_bound * |actions|) ** |cells|, one factor at a time
    for _ in range(memory_bound * len(cgs.states)):
        count *= memory_bound * len(cgs.actions)
        if count > budget:
            raise ResourceBudgetError(f"strategy space too large for memory bound {memory_bound}")
    memory = tuple(range(memory_bound))
    cells = [(m, q) for m in memory for q in cgs.states]
    out = []
    seen = set()
    for upd in product(memory, repeat=len(cells)):
        update = dict(zip(cells, upd))
        for outp in product(cgs.actions, repeat=len(cells)):
            s = FiniteStrategy(memory, 0, update, dict(zip(cells, outp)))
            sig = strategy_signature(cgs, s, start)
            if sig not in seen:
                seen.add(sig)
                out.append(s)
    return out


def strategy_signature(cgs, strat, start):
    """Canonical form of the history->action function a machine computes
    from the given start state.

    Behaviourally equivalent memory states are merged (partition refinement
    on the reachable product with the state graph) before BFS ordering, so
    two machines share a signature iff they act identically on every
    history from start."""
    root = (strat.init, start)
    nodes = [root]
    seen = {root}
    i = 0
    succs = {}
    while i < len(nodes):
        mem, q = nodes[i]
        i += 1
        row = []
        for q2 in cgs.successors(q):
            nxt = (strat.update[(mem, q2)], q2)
            row.append((q2, nxt))
            if nxt not in seen:
                seen.add(nxt)
                nodes.append(nxt)
        succs[(mem, q)] = tuple(row)
    block = {n: (n[1], strat.output[n]) for n in nodes}
    while True:
        refined = {
            n: (block[n], tuple((q2, block[m]) for q2, m in succs[n])) for n in nodes
        }
        ids = {}
        nxt_block = {}
        for n in nodes:
            key = refined[n]
            if key not in ids:
                ids[key] = len(ids)
            nxt_block[n] = ids[key]
        if len(set(nxt_block.values())) == len(set(block.values())):
            block = nxt_block
            break
        block = nxt_block
    order = {block[root]: 0}
    queue = [root]
    rows = []
    for n in queue:  # the queue grows as the loop runs
        row = [strat.output[n]]
        for q2, m in succs[n]:
            b = block[m]
            if b not in order:
                order[b] = len(order)
                queue.append(m)
            row.append((q2, order[b]))
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# recursive semantics


@dataclass
class OracleResult:
    verdict: bool
    confidence: str
    witness_count: int | None = None  # for a top-level graded quantifier


def _auto_exact(cgs, f):
    """Justifications we can establish without being told: no quantifier at
    all, or a single possible strategy (one action)."""
    if fm.quantifier_rank(f) == 0:
        return True
    if len(cgs.actions) == 1:
        return True
    return False


def oracle_check(
    cgs,
    f,
    memory_bound=1,
    assignment=None,
    justification=None,
    budget=DEFAULT_PROFILE_BUDGET,
):
    """Evaluate f at the initial state; see module docstring for confidence.

    assignment maps free placeholder names to FiniteStrategy machines.
    """
    if not fm.grades_all_finite(f):
        raise UnsupportedGradeError("oracle handles finite grades only")
    ev = _Evaluator(cgs, memory_bound, budget)
    env = {}
    if assignment:
        env = {x: ev.start(s) for x, s in assignment.items()}
    free = fm.free_placeholders(f, set(cgs.agents))
    missing = free - set(env)
    if missing:
        raise ModelError(f"oracle needs strategies for free names: {sorted(missing)}")
    i = ev.intern(f)
    verdict = ev.eval(i, cgs.initial, _freeze(env))
    count = None
    if isinstance(f, fm.ExistsGraded) and not assignment:
        count = ev.count_witnesses(i, cgs.initial, ())
    exact = justification is not None or _auto_exact(cgs, f)
    return OracleResult(verdict, EXACT if exact else LOWER_BOUND, count)


def _freeze(env):
    """An environment {name: (machine id, memory)} as a memo key."""
    return tuple(sorted(env.items()))


class _Evaluator:
    """Formulas and machines are interned to small ints, so the memo is
    keyed by values: (formula id, state, frozen environment)."""

    def __init__(self, cgs, memory_bound, budget):
        self.cgs = cgs
        self.memory_bound = memory_bound
        self.budget = budget
        self.memo = {}
        self.nodes = []  # formula id -> (formula, ids of its subformulas)
        self._node_ids = {}
        self.machines = []  # machine id -> FiniteStrategy
        self._machine_ids = {}
        self._pools = {}  # state -> machine ids, one per behaviour from it

    def intern(self, f):
        """The id of f's value; equal subformulas share one id."""
        kids = []
        for g in fm.subformulas(f):
            kids.append(self.intern(g))
        if isinstance(f, fm.Atom):
            own = f.name
        elif isinstance(f, fm.Bind):
            own = (f.agent, f.var)
        elif isinstance(f, fm.ExistsGraded):
            own = (f.vars, f.grade)
        else:
            own = None
        key = (type(f), own, *kids)
        i = self._node_ids.get(key)
        if i is None:
            i = self._node_ids[key] = len(self.nodes)
            self.nodes.append((f, kids))
        return i

    def start(self, s):
        """(machine id, initial memory) of machine s."""
        key = (s.init, frozenset(s.update.items()), frozenset(s.output.items()))
        m = self._machine_ids.get(key)
        if m is None:
            m = self._machine_ids[key] = len(self.machines)
            self.machines.append(s)
        return m, s.init

    def pool(self, q):
        """The machines a quantifier at q ranges over."""
        if q not in self._pools:
            self._pools[q] = [
                self.start(s)
                for s in enumerate_strategies(self.cgs, self.memory_bound, self.budget, q)
            ]
        return self._pools[q]

    def eval(self, i, q, env):
        key = (i, q, env)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self._eval(i, q, env)
        return out

    def _advance(self, env, arrived):
        """Shift every machine by the state just reached."""
        return tuple(
            (x, (m, self.machines[m].update[(mem, arrived)])) for x, (m, mem) in env
        )

    def _decision(self, env, q):
        bound = dict(env)
        return tuple(
            self.machines[bound[a][0]].output[(bound[a][1], q)] for a in self.cgs.agents
        )

    def _eval(self, i, q, env):
        f, kids = self.nodes[i]
        if isinstance(f, fm.Atom):
            return f.name in self.cgs.label[q]
        if isinstance(f, fm.Not):
            return not self.eval(kids[0], q, env)
        if isinstance(f, fm.Or):
            return self.eval(kids[0], q, env) or self.eval(kids[1], q, env)
        if isinstance(f, fm.Next):
            q2 = self.cgs.step(q, self._decision(env, q))
            return self.eval(kids[0], q2, self._advance(env, q2))
        if isinstance(f, fm.Until):
            return self._until(kids, q, env)
        if isinstance(f, fm.Bind):
            env2 = dict(env)
            if f.var in env2:  # else the binding is vacuous: the body does not read the agent
                env2[f.agent] = env2[f.var]
            return self.eval(kids[0], q, _freeze(env2))
        if isinstance(f, fm.ExistsGraded):
            return self.count_witnesses(i, q, env, stop_at=f.grade.value) >= f.grade.value
        raise TypeError(f"unknown formula node {type(f).__name__}")

    def _until(self, kids, q, env):
        left, right = kids
        seen = set()
        while (q, env) not in seen:
            seen.add((q, env))
            if self.eval(right, q, env):
                return True
            if not self.eval(left, q, env):
                return False
            q = self.cgs.step(q, self._decision(env, q))
            env = self._advance(env, q)
        return False  # looped without reaching the goal

    def count_witnesses(self, i, q, env, stop_at=None):
        """Number of distinct satisfying strategy tuples from state q,
        where distinctness compares the functions computed from q on; the
        count stops once it reaches stop_at."""
        f, (sub,) = self.nodes[i]
        count = 0
        if stop_at == 0:
            return count
        choices = self.pool(q)
        if len(choices) ** len(f.vars) > self.budget:
            raise ResourceBudgetError("quantifier instantiation over budget")
        env2 = dict(env)
        for tup in product(choices, repeat=len(f.vars)):
            env2.update(zip(f.vars, tup))
            if self.eval(sub, q, _freeze(env2)):
                count += 1
                if count == stop_at:
                    break
        return count


# ---------------------------------------------------------------------------
# memoryless equilibrium counting


def count_ne_memoryless(cgs, objectives, budget=DEFAULT_PROFILE_BUDGET):
    """Number of memoryless profiles with no improving memoryless deviation.

    A profile's payoffs are read off the evaluator: every agent's goals at
    the initial state, with every agent bound to its machine."""
    per_agent = len(cgs.actions) ** len(cgs.states)
    if per_agent ** len(cgs.agents) > budget:
        raise ResourceBudgetError("memoryless profile space over budget")
    ev = _Evaluator(cgs, 1, budget)
    machines = [
        ev.start(memoryless(cgs, dict(zip(cgs.states, combo))))
        for combo in product(cgs.actions, repeat=len(cgs.states))
    ]
    goals = [
        (objectives[a].payoff, [ev.intern(g) for g in objectives[a].goals])
        for a in cgs.agents
    ]
    payoffs = {}

    def payoff(profile):
        if profile not in payoffs:
            env = _freeze(dict(zip(cgs.agents, profile)))
            payoffs[profile] = [
                table["".join("1" if ev.eval(g, cgs.initial, env) else "0" for g in ids)]
                for table, ids in goals
            ]
        return payoffs[profile]

    count = 0
    for profile in product(machines, repeat=len(cgs.agents)):
        base = payoff(profile)
        count += all(
            payoff(profile[:i] + (alt,) + profile[i + 1:])[i] <= base[i]
            for i in range(len(profile))
            for alt in machines
            if alt != profile[i]
        )
    return count
