"""Solution-concept formulas over objective LTL payoffs.

Agents carry objective tuples: m LTL goals plus a payoff table mapping each
truth bitvector of the goals to an integer.  The generators below produce
formulas expressing Nash equilibrium, subgame-perfect equilibrium,
uniqueness of either, and winning-strategy counts; they return plain
formula ASTs that the checker consumes like any other input.
"""

from dataclasses import dataclass

from gslmc import formula as fm
from gslmc.errors import ModelError

MAX_GOALS = 8


def is_ltl(f):
    """True when f uses no strategy quantifier and no binding."""
    if isinstance(f, (fm.ExistsGraded, fm.Bind)):
        return False
    for g in fm.subformulas(f):
        if not is_ltl(g):
            return False
    return True


@dataclass(frozen=True)
class ObjectiveTuple:
    """Per-agent goals and payoff table keyed by goal-truth bitstrings."""

    goals: tuple  # LTL formulas
    payoff: dict  # bitstring of len(goals) -> int

    def __post_init__(self):
        m = len(self.goals)
        if m > MAX_GOALS:
            raise ModelError(f"at most {MAX_GOALS} goals per agent")
        if not all(is_ltl(g) for g in self.goals):
            raise ModelError("goals must be quantifier- and binding-free")
        keys = set(self.payoff)
        want = {format(v, f"0{m}b") for v in range(2**m)} if m else {""}
        if keys != want:
            raise ModelError("payoff table must cover every goal bitvector")

    def vectors(self):
        return sorted(self.payoff)


def load_objectives(doc, cgs):
    """Parse {"agents": {name: {"goals": [...], "payoff": {...}}}} JSON."""
    if not isinstance(doc, dict) or not isinstance(doc.get("agents"), dict):
        raise ModelError("objectives document needs an 'agents' table")
    table = doc["agents"]
    if set(table) != set(cgs.agents):
        raise ModelError("objectives must cover exactly the model's agents")
    out = {}
    for name in cgs.agents:
        entry = table[name]
        if not isinstance(entry, dict):
            raise ModelError(f"objectives of {name!r} must be an object")
        texts = entry.get("goals", [])
        if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
            raise ModelError(f"goals of {name!r} must be a list of formula strings")
        payoff = entry.get("payoff", {})
        if not (isinstance(payoff, dict) and all(
                isinstance(v, int) and not isinstance(v, bool) for v in payoff.values())):
            raise ModelError(f"payoff of {name!r} must map goal bitvectors to integers")
        goals = tuple(fm.parse_formula(text, set(cgs.agents)) for text in texts)
        out[name] = ObjectiveTuple(goals, dict(payoff))
    return out


# ---------------------------------------------------------------------------
# formula builders


def gd_set(objective, h):
    """Bitvectors whose payoff is at least as good as h's for this agent."""
    base = objective.payoff[h]
    return tuple(v for v in objective.vectors() if objective.payoff[v] >= base)


def eta_formula(objective, h):
    """The goals' truth pattern h as one conjunction."""
    parts = []
    for j, goal in enumerate(objective.goals):
        parts.append(goal if h[j] == "1" else fm.Not(goal))
    return fm.big_and(parts)


def bind_all(agents, variables, body):
    """(a1,v1)...(an,vn) body."""
    out = body
    for agent, var in reversed(list(zip(agents, variables))):
        out = fm.Bind(agent, var, out)
    return out


def _forall_each(variables, body):
    out = body
    for v in reversed(variables):
        out = fm.forall_graded((v,), fm.finite(1), out)
    return out


def ne_formula_general(agents, xvars, yvars, objectives):
    """General-payoff equilibrium: whatever truth pattern a deviation
    produces, the profile achieves a pattern paying at least as much."""
    conj = []
    for i, agent in enumerate(agents):
        obj = objectives[agent]
        devs = list(xvars)
        devs[i] = yvars[i]
        for h in obj.vectors():
            good = gd_set(obj, h)
            if len(good) == len(obj.vectors()):
                continue  # a worst-payoff pattern constrains nothing
            lhs = bind_all(agents, devs, eta_formula(obj, h))
            rhs = fm.big_or([bind_all(agents, xvars, eta_formula(obj, v)) for v in good])
            conj.append(fm.f_implies(lhs, rhs))
    return _forall_each(list(yvars), fm.big_and(conj))


def spe_formula(agents, zvars, ne_body):
    """x̄ is subgame perfect: under every profile's reachable future the
    equilibrium condition keeps holding."""
    return _forall_each(list(zvars), bind_all(agents, zvars, fm.f_globally(ne_body)))


def uniqueness_formula(xvars, phi):
    """Exactly one witness tuple: at least one and not at least two."""
    return fm.f_and(
        fm.ExistsGraded(tuple(xvars), fm.finite(1), phi),
        fm.Not(fm.ExistsGraded(tuple(xvars), fm.finite(2), phi)),
    )


def winning_count_formula(k, protagonist, adversaries, xvar, yvars, goal):
    """The protagonist has exactly k winning strategies for the goal."""

    def at_least(g):
        body = bind_all(
            (protagonist, *adversaries), (xvar, *yvars), goal
        )
        return fm.ExistsGraded((xvar,), fm.finite(g), _forall_each(list(yvars), body))

    return fm.f_and(at_least(k), fm.Not(at_least(k + 1)))
