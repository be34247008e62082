"""Command-line front-end: check, info, gen, oracle.

Exit codes: 0 holds / oracle true, 1 fails / oracle false, 2 parse or usage
error, 3 invalid model, objectives or --assign document, 4 unsupported
grade, resource budget or out of memory, 5 oracle verdict is only a lower
bound and --require-exact was given, 6 internal error (a defect of the
checker, never a verdict).
"""

import argparse
import json
import os
import re
import sys

from gslmc import formula as fm
from gslmc.automata import dump_apt
from gslmc.cgs import FiniteStrategy, load_cgs
from gslmc.compiler import check_assignment
from gslmc.determinize import DEFAULT_BUDGET
from gslmc.errors import ModelError, ParseError, ResourceBudgetError, UnsupportedGradeError
from gslmc.oracle import DEFAULT_PROFILE_BUDGET, EXACT, count_ne_memoryless, oracle_check
from gslmc import solutions as sol

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_UNSUPPORTED = 4
EXIT_INEXACT = 5
EXIT_INTERNAL = 6


def _load_model(path):
    with open(path) as fh:
        return load_cgs(json.load(fh))


def _formula_text(args):
    if args.formula is not None:
        return args.formula
    if args.formula_file is not None:
        with open(args.formula_file) as fh:
            return fh.read().strip()
    raise ParseError("no formula given; use -f TEXT or -F FILE")


def _load_assignment(path, f, cgs):
    """The machines of the --assign document at path, or None without one:
    then f may have no free placeholders."""
    if path is None:
        free = fm.free_placeholders(f, set(cgs.agents))
        if free:
            raise ParseError(f"formula has free placeholders {sorted(free)}; use --assign")
        return None
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelError("an --assign document must map names to machine objects")
    out = {}
    for name, m in doc.items():
        if not (
            isinstance(m, dict)
            and isinstance(m.get("memory"), list)
            and all(isinstance(x, (int, str)) for x in [*m["memory"], m.get("init")])
            and isinstance(m.get("update"), dict)
            and isinstance(m.get("output"), dict)
        ):
            raise ModelError(
                f"machine {name!r}: needs memory (a list), init, update and output (objects)"
            )
        memory = tuple(_mem(x) for x in m["memory"])
        update = {cell: _mem(v) for cell, v in _cells(name, m["update"])}
        output = dict(_cells(name, m["output"]))
        out[name] = FiniteStrategy(memory, _mem(m["init"]), update, output)
        _check_machine(name, out[name], cgs)
    return out


def _cells(name, table):
    """(memory, state) cells and values of a table keyed by "memory,state"."""
    for key, v in table.items():
        mem, comma, state = key.partition(",")
        if not comma:
            raise ModelError(f"machine {name!r}: key {key!r} is not \"memory,state\"")
        yield (_mem(mem), state), v


def _check_machine(name, machine, cgs):
    """The cells the checker and the oracle read: at every (state, memory)
    pair reachable from (initial state, init), moving to every model state,
    an output among the model's actions and an update into the declared
    memory for each next state."""
    todo = [(cgs.initial, machine.init)]
    seen = set(todo)
    while todo:
        q, mem = todo.pop()
        if machine.output.get((mem, q)) not in cgs.actions:
            raise ModelError(
                f"machine {name!r}: cell {mem},{q} has no output among the model's actions"
            )
        for d in cgs.states:
            nxt = machine.update.get((mem, d))
            if nxt not in machine.memory:
                raise ModelError(f"machine {name!r}: cell {mem},{d} has no update into its memory")
            if (d, nxt) not in seen:
                seen.add((d, nxt))
                todo.append((d, nxt))


def _mem(v):
    """A memory state written as an ASCII integer, such as "3" or "-1", is
    that integer; any other string is a name."""
    return int(v) if isinstance(v, str) and re.fullmatch("-?[0-9]+", v) else v


def _print_stats(f, ctx):
    """The --stats lines: the formula's quantifier ranks, the stages of
    alternation removal that finished, and the witness searches tried."""
    print(f"quantifier-rank: {fm.quantifier_rank(f)}")
    print(f"quantifier-block-rank: {fm.quantifier_block_rank(f)}")
    print(f"nondeterminization-stages: {ctx.stage_count()}")
    for i, s in enumerate(ctx.stages, start=1):
        print(
            f"stage {i}: nondeterminize depth={s['depth']} copies={s['copies']}"
            f" in={s['apt'].n_states} out={s['npt'].n_states}"
        )
    for r in ctx.searches:
        print(
            f"witness search: grade={r['grade']} tried={r['tried']}"
            f" verified={len(r['witnesses'])} {r['outcome']}"
        )


def _check_budget(args):
    """A --budget below 1 admits no construction at all: a usage error,
    not a resource stop."""
    if args.budget < 1:
        raise ParseError(f"--budget must be at least 1, not {args.budget}")


def cmd_check(args):
    _check_budget(args)
    cgs = _load_model(args.model)
    text = _formula_text(args)
    f = fm.parse_formula(text, set(cgs.agents))
    assignment = _load_assignment(args.assign, f, cgs)
    try:
        holds, ctx = check_assignment(f, cgs, assignment or {}, budget=args.budget)
    except ResourceBudgetError as e:
        # a stop reports the stages that finished before it
        if e.context is not None:
            _report_stages(args, f, e.context)
        raise
    _report_stages(args, f, ctx)
    print("HOLDS" if holds else "FAILS")
    return EXIT_HOLDS if holds else EXIT_FAILS


def _report_stages(args, f, ctx):
    """The --stats lines and the --emit-stage files of the finished stages."""
    if args.stats:
        _print_stats(f, ctx)
    if args.emit_stage:
        _emit_stages(ctx, args.emit_stage)


def _emit_stages(ctx, directory):
    os.makedirs(directory, exist_ok=True)
    for i, s in enumerate(ctx.stages, start=1):
        base = os.path.join(directory, f"stage{i:02d}")
        with open(base + "_apt.txt", "w") as fh:
            fh.write(dump_apt(s["apt"], "apt"))
        with open(base + "_npt.txt", "w") as fh:
            fh.write(dump_apt(s["npt"], "npt"))


def cmd_info(args):
    if args.model:
        agents = set(_load_model(args.model).agents)
    elif args.agents:
        agents = {a.strip() for a in args.agents.split(",") if a.strip()}
    else:
        raise ParseError("info needs a model or --agents to resolve agent names")
    text = _formula_text(args)
    f = fm.parse_formula(text, agents)
    report = fm.analyze_fragment(f, agents)
    print(f"formula: {fm.print_formula(f)}")
    print(f"free: {' '.join(sorted(fm.free_placeholders(f, agents))) or '-'}")
    print(f"sentence: {_yn(report.is_sentence)}")
    print(f"nested-goal: {_yn(report.is_nested_goal)}")
    print(f"one-goal: {_yn(report.is_one_goal)}")
    print(f"grades-all-finite: {_yn(report.grades_all_finite)}")
    alt = report.alternation_number
    print(f"alternation: {alt if alt is not None else 'undefined'}")
    print(f"quantifier-rank: {report.quantifier_rank}")
    print(f"quantifier-block-rank: {report.quantifier_block_rank}")
    return EXIT_HOLDS


def _yn(b):
    return "yes" if b else "no"


def _gen_formula(kind, cgs, objectives, k):
    agents = list(cgs.agents)
    if kind == "winning-count":
        protagonist, others = agents[0], agents[1:]
        goals = objectives[protagonist].goals
        if len(goals) != 1:
            raise ModelError(
                f"winning-count needs exactly one goal for {protagonist!r}, found {len(goals)}"
            )
        return sol.winning_count_formula(
            k, protagonist, others, "x", [f"y{i+1}" for i in range(len(others))], goals[0]
        )
    n = len(agents)
    xvars = [f"x{i+1}" for i in range(n)]
    yvars = [f"y{i+1}" for i in range(n)]
    zvars = [f"z{i+1}" for i in range(n)]
    ne = sol.ne_formula_general(agents, xvars, yvars, objectives)
    if kind == "ne":
        return ne
    if kind == "unique-ne":
        return sol.uniqueness_formula(xvars, ne)
    spe = sol.spe_formula(agents, zvars, ne)
    if kind == "spe":
        return spe
    if kind == "unique-spe":
        return sol.uniqueness_formula(xvars, spe)
    raise ParseError(f"unknown generator kind {kind!r}")


def cmd_gen(args):
    if args.k < 0:
        raise ParseError(f"--k must be a natural number, not {args.k}")
    cgs = _load_model(args.model)
    with open(args.objectives) as fh:
        objectives = sol.load_objectives(json.load(fh), cgs)
    f = _gen_formula(args.kind, cgs, objectives, args.k)
    print(fm.print_formula(f))
    return EXIT_HOLDS


def cmd_oracle(args):
    if args.memory < 1:
        # no machine has fewer than one memory state: nothing to enumerate
        raise ParseError(f"--memory must be at least 1, not {args.memory}")
    _check_budget(args)
    cgs = _load_model(args.model)
    text = _formula_text(args)
    f = fm.parse_formula(text, set(cgs.agents))
    assignment = _load_assignment(args.assign, f, cgs)
    res = oracle_check(
        cgs,
        f,
        memory_bound=args.memory,
        assignment=assignment,
        justification=args.justify,
        budget=args.budget,
    )
    print(f"verdict: {'true' if res.verdict else 'false'}")
    print(f"confidence: {res.confidence}")
    if res.witness_count is not None:
        print(f"witnesses: {res.witness_count}")
    if args.require_exact and res.confidence != EXACT:
        return EXIT_INEXACT
    return EXIT_HOLDS if res.verdict else EXIT_FAILS


def cmd_oracle_ne(args):
    _check_budget(args)
    cgs = _load_model(args.model)
    with open(args.objectives) as fh:
        objectives = sol.load_objectives(json.load(fh), cgs)
    n = count_ne_memoryless(cgs, objectives, budget=args.budget)
    print(f"memoryless-ne: {n}")
    return EXIT_HOLDS


def _add_formula_args(p):
    p.add_argument("-f", dest="formula", help="formula text")
    p.add_argument("-F", dest="formula_file", help="file holding the formula")


def build_parser():
    ap = argparse.ArgumentParser(prog="gslmc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="model check a sentence or an assignment")
    c.add_argument("model")
    _add_formula_args(c)
    c.add_argument("--stats", action="store_true")
    c.add_argument("--emit-stage", metavar="DIR")
    c.add_argument("--assign", metavar="FILE")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.set_defaults(run=cmd_check)

    i = sub.add_parser("info", help="report formula structure")
    i.add_argument("model", nargs="?")
    i.add_argument("--agents", help="comma-separated agent names (if no model)")
    _add_formula_args(i)
    i.set_defaults(run=cmd_info)

    g = sub.add_parser("gen", help="generate a solution-concept formula")
    g.add_argument("kind", choices=["ne", "spe", "unique-ne", "unique-spe", "winning-count"])
    g.add_argument("model")
    g.add_argument("--objectives", required=True, metavar="FILE")
    g.add_argument("--k", type=int, default=2, help="count for winning-count")
    g.set_defaults(run=cmd_gen)

    o = sub.add_parser("oracle", help="brute-force semantics evaluation")
    o.add_argument("model")
    _add_formula_args(o)
    o.add_argument("--memory", type=int, default=1)
    o.add_argument("--require-exact", action="store_true")
    o.add_argument("--justify", metavar="REASON", help="mark the instance exact")
    o.add_argument("--assign", metavar="FILE")
    o.add_argument("--budget", type=int, default=DEFAULT_PROFILE_BUDGET)
    o.set_defaults(run=cmd_oracle)

    ne = sub.add_parser("oracle-ne", help="count memoryless Nash equilibria")
    ne.add_argument("model")
    ne.add_argument("--objectives", required=True, metavar="FILE")
    ne.add_argument("--budget", type=int, default=DEFAULT_PROFILE_BUDGET)
    ne.set_defaults(run=cmd_oracle_ne)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedGradeError, ResourceBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as e:
        # anything else is a defect; exit 1 would read as FAILS
        detail = str(e).splitlines()[0] if str(e) else ""
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
