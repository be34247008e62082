"""Command-line interface tests: exit codes, report lines, determinism.

Oracle notes:
- [TRIVIAL] verdicts on the bundled example structures are hand-checked.
- [DERIVED] generated formulas must re-parse and re-check deterministically.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from gslmc import automata, cli, compiler
from gslmc import formula as fm
from gslmc.cli import main

from conftest import no_witnesses, unpooled, TOGGLE, SINGLE_ACTION

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "examples_data")


@pytest.fixture
def toggle_path(tmp_path):
    p = tmp_path / "toggle.json"
    p.write_text(json.dumps(TOGGLE))
    return str(p)


@pytest.fixture
def single_path(tmp_path):
    p = tmp_path / "single.json"
    p.write_text(json.dumps(SINGLE_ACTION))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_sentence(capsys, kind, objectives):
    """(model path, `gen` sentence) of the kind on the model the objectives
    file is named after."""
    model = os.path.join(DATA, objectives.split("_")[0] + ".json")
    code, sentence, _ = run(capsys, "gen", kind, model,
                            "--objectives", os.path.join(DATA, objectives + ".json"))
    assert code == 0
    return model, sentence.strip()


class TestCheckExitCodes:
    def test_holds_is_zero(self, capsys, toggle_path):
        code, out, _ = run(capsys, "check", toggle_path, "-f", "<<x>> (a0,x) X p")
        assert code == 0 and "HOLDS" in out

    def test_fails_is_one(self, capsys, toggle_path):
        code, out, _ = run(capsys, "check", toggle_path, "-f", "[[x]] (a0,x) X p")
        assert code == 1 and "FAILS" in out

    def test_parse_error_is_two(self, capsys, toggle_path):
        code, _, err = run(capsys, "check", toggle_path, "-f", "<<x>> (a0,x) X")
        assert code == 2 and "error" in err

    def test_grade_zero_holds_vacuously(self, capsys, toggle_path):
        code, out, _ = run(capsys, "check", toggle_path, "-f", "<<x>>^>=0 (a0,x) F p")
        assert code == 0 and "HOLDS" in out

    def test_formula_from_a_file(self, capsys, toggle_path, tmp_path):
        fp = tmp_path / "formula.txt"
        fp.write_text("[[x]] (a0,x) X p\n")
        code, out, _ = run(capsys, "check", toggle_path, "-F", str(fp))
        assert code == 1 and "FAILS" in out

    def test_no_formula_is_two(self, capsys, toggle_path):
        code, out, err = run(capsys, "check", toggle_path)
        assert code == 2 and not out and "no formula given" in err

    def test_free_placeholder_without_assign_is_two(self, capsys, toggle_path):
        code, out, err = run(capsys, "check", toggle_path, "-f", "(a0,x) X p")
        assert code == 2 and not out
        assert err == "error: formula has free placeholders ['x']; use --assign\n"

    def test_oracle_free_placeholder_without_assign_is_two(self, capsys, toggle_path):
        code, out, err = run(capsys, "oracle", toggle_path, "-f", "(a0,x) X p")
        assert code == 2 and not out
        assert err == "error: formula has free placeholders ['x']; use --assign\n"

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_assign_missing_a_name_is_three(self, capsys, toggle_path, tmp_path, command):
        p = tmp_path / "assign.json"
        p.write_text(json.dumps({"x": constant_machine()}))
        code, out, err = run(capsys, command, toggle_path, "--assign", str(p),
                             "-f", "(a0,x) X (a0,y) X p")
        assert code == 3 and not out and err.startswith("error:")

    def test_empty_assign_names_the_missing_name(self, capsys, toggle_path, tmp_path):
        # the compiler's own check: the document lacks a free name
        p = tmp_path / "assign.json"
        p.write_text("{}")
        code, out, err = run(capsys, "check", toggle_path, "-f", "(a0,x) X p", "--assign", str(p))
        assert code == 3 and not out
        assert err == "error: assignment misses free names: ['x']\n"

    @pytest.mark.parametrize("command, text, code, line", [
        ("check", "(a0,x) p", 1, "FAILS"),
        ("check", "<<x>> (a0,y)(a0,x) X p", 0, "HOLDS"),
        ("oracle", "(a0,x) p", 1, "verdict: false"),
    ])
    def test_a_vacuous_binding_binds_nothing(self, capsys, toggle_path, command, text, code, line):
        # the body under (a0,v) does not read a0, so v stays unread and the
        # formula is a sentence
        got, out, err = run(capsys, command, toggle_path, "-f", text)
        assert (got, out.splitlines()[0], err) == (code, line, "")

    def test_model_error_is_three(self, capsys, tmp_path):
        bad = json.loads(json.dumps(TOGGLE))
        bad["transitions"] = bad["transitions"][:1]  # not total
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, _, err = run(capsys, "check", str(p), "-f", "p")
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("field, value", [
        ("label", [["p"]]), ("agents", "a0"), ("transitions", {}),
    ])
    def test_malformed_model_is_three(self, capsys, tmp_path, field, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(TOGGLE, **{field: value})))
        code, _, err = run(capsys, "check", str(p), "-f", "p")
        assert code == 3 and err.startswith("error:")

    def test_model_file_that_is_not_json_is_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, out, err = run(capsys, "check", str(p), "-f", "p")
        assert code == 2 and not out and err.startswith("error:")

    def test_unreadable_model_is_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "check", str(p), "-f", "p")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("kind, name, number", [
        ("state", "s1", 1), ("action", "b", 2), ("agent", "a0", 0), ("atom", "p", 3),
    ])
    def test_non_string_name_is_a_model_error(self, capsys, tmp_path, kind, name, number):
        def swap(x):
            if isinstance(x, dict):
                return {k: swap(v) for k, v in x.items() if k != name}
            if isinstance(x, list):
                return [swap(v) for v in x]
            return number if x == name else x

        bad = swap(TOGGLE)  # a JSON object key stays a string: the entry goes
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, _, err = run(capsys, "check", str(p), "-f", "<<x>> (a0,x) X p")
        assert code == 3
        assert f"{kind} name {number} is not a string" in err

    def test_infinite_grade_is_four(self, capsys, toggle_path):
        code, _, err = run(
            capsys, "check", toggle_path, "-f", "<<x>>^>=aleph0 (a0,x) X p"
        )
        assert code == 4 and "only finite grades can be model checked" in err

    def test_budget_error_is_four(self, capsys):
        model = os.path.join(DATA, "desk3.json")
        f = (
            "<<x1,x2>>^>=2 [[y1]] [[y2]] "
            "(((a0,y1)(a1,x2) F p -> (a0,x1)(a1,x2) F p)"
            " && ((a0,x1)(a1,y2) F p -> (a0,x1)(a1,x2) F p))"
        )
        code, _, err = run(capsys, "check", model, "-f", f, "--budget", "200")
        assert code == 4 and "budget" in err

    def test_minimal_models_stop_on_the_budget(self, capsys, toggle_path):
        # 47 alternating blocks give transitions whose minimal models once
        # took minutes before any other budget stop
        f = "![[x]] " * 47 + "(a0,x) X p"
        code, out, err = run(capsys, "check", toggle_path, "-f", f, "--budget", "500")
        assert code == 4 and not out
        assert err == "error: minimal models exceed the budget (500)\n"

    def test_out_of_memory_is_four(self, capsys, toggle_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "check_assignment", exhausted)
        code, out, err = run(capsys, "check", toggle_path, "-f", "<<x>> (a0,x) X p")
        assert code == 4 and "memory" in err and "FAILS" not in out

    def test_internal_error_is_six(self, capsys, toggle_path, monkeypatch):
        # an unexpected exception is a defect, reported on one line; exit 1
        # would read as FAILS
        def defect(*args, **kwargs):
            raise RuntimeError("broken invariant\nsecond line")

        monkeypatch.setattr(cli, "check_assignment", defect)
        code, out, err = run(capsys, "check", toggle_path, "-f", "<<x>> (a0,x) X p")
        assert code == cli.EXIT_INTERNAL == 6
        assert "FAILS" not in out
        assert err.startswith("internal error") and len(err.strip().splitlines()) == 1

    def test_unknown_grade_token_is_parse_error(self, capsys, toggle_path):
        code, _, _ = run(capsys, "check", toggle_path, "-f", "<<x>>^>=zz p")
        assert code == 2


# A formula of nesting depth exactly d for each way of nesting (toggle model).
# Quantified formulas open with <<x>> (a0,x), which is two levels.
NESTING = {
    "not": lambda d: "!" * d + "p",
    "next": lambda d: "<<x>> (a0,x) " + "X " * (d - 2) + "p",
    "eventually": lambda d: "<<x>> (a0,x) " + "F " * (d - 2) + "p",
    "globally": lambda d: "<<x>> (a0,x) " + "G " * (d - 2) + "p",
    "parentheses": lambda d: "(" * d + "p" + ")" * d,
    "binding": lambda d: "<<x>> " + "(a0,x) " * (d - 2) + "X p",
    "exists": lambda d: "<<x>> " * (d - 2) + "(a0,x) X p",
    "forall": lambda d: "[[x]] " * (d - 2) + "(a0,x) X p",
    "until": lambda d: "<<x>> (a0,x) (" + " U ".join(["p"] * (d - 2)) + ")",
    "or": lambda d: " || ".join(["p"] * (d + 1)),
    "and": lambda d: " && ".join(["p"] * (d + 1)),
    "implies": lambda d: " -> ".join(["p"] * (d + 1)),
}


# The walks checked at the bound, as (formula, --budget): every NESTING kind,
# and two quantifier nestings that compile level by level.  Alternating
# <<x>> and [[x]] never pool into one block, and each ! above a [[x]] is one
# more negation to dualize.  47 ![[x]] take minutes to stop at --budget 1000;
# their walk is deepest at the innermost level, before the first stage.
DEEP_CHECKS = {
    **{kind: (make(fm.MAX_NESTING), "1000") for kind, make in NESTING.items()},
    "alternating": (" ".join(["<<x>>", "[[x]]"][i % 2] for i in range(97)) + " (a0,x) X p", "1000"),
    "negated-forall": ("![[x]] " * 47 + "(a0,x) X p", "200"),
}


class TestNestingBound:
    @pytest.mark.parametrize("kind", sorted(NESTING))
    def test_bound_checks_and_one_more_level_is_a_parse_error(self, capsys, toggle_path, kind):
        deepest = NESTING[kind](fm.MAX_NESTING)
        # the analysis walks of `info` at the bound, for every kind
        code, out, err = run(capsys, "info", toggle_path, "-f", deepest)
        assert code == 0 and not err
        # checking a block of ~100 quantified variables is exponential in the
        # block, so quantifier nesting stops at `info`
        if kind not in ("exists", "forall"):
            code, out, err = run(capsys, "check", toggle_path, "-f", deepest)
            assert code in (0, 1) and not err
        code, out, err = run(capsys, "check", toggle_path, "-f", NESTING[kind](fm.MAX_NESTING + 1))
        assert code == 2 and not out
        assert f"nests deeper than {fm.MAX_NESTING} levels" in err

    @pytest.mark.parametrize("kind", sorted(DEEP_CHECKS))
    def test_check_at_the_bound_fits_the_recursion_limit(self, capsys, toggle_path, kind):
        # a RecursionError would exit 6; parsing nested parentheses takes six
        # frames a level, every other walk less than 4.5
        text, budget = DEEP_CHECKS[kind]
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + (650 if kind == "parentheses" else 450))
        try:
            code, _, err = run(capsys, "check", toggle_path, "-f", text, "--budget", budget)
        finally:
            sys.setrecursionlimit(old)
        assert code in (0, 1, 4), err


class TestAlphabetBudget:
    # every nested quantifier gets its own copy coordinates, so the letters
    # over all of them outgrow memory long before the automata do
    @pytest.mark.parametrize("quantifier, depth", [("[[x]]", 98), ("<<x>>", 50)])
    def test_nested_quantifiers_stop_on_the_budget(self, capsys, toggle_path, quantifier, depth):
        f = f"{quantifier} " * depth + "(a0,x) X p"
        code, out, err = run(capsys, "check", toggle_path, "-f", f, "--budget", "1000")
        assert code == 4 and not out
        assert "strategy names has" in err and "over the budget (1000)" in err

    def test_block_stops_before_renaming_a_copy(self, capsys, toggle_path, monkeypatch):
        # the block's alphabets are checked once its body is compiled, so no
        # body copy is relabelled over a wider alphabet before the stop
        letters = []

        def relabel(a, alphabet, h):
            letters.append(len(alphabet))
            return automata.relabel(a, alphabet, h)

        monkeypatch.setattr(compiler, "relabel", relabel)
        f = "[[x]] " * 98 + "(a0,x) X p"
        code, _, err = run(capsys, "check", toggle_path, "-f", f)
        assert code == 4 and "the alphabet over 16 strategy names" in err
        assert letters and max(letters) == 4  # toggle's 2 states x 2 actions of x

    def test_alphabet_at_the_budget_is_built(self, capsys, toggle_path):
        # <<x>>^>=2 reads x#1 and x#2: 2 actions ** 2 names * 2 states = 8
        f = "<<x>>^>=2 (a0,x) X p"
        code, _, err = run(capsys, "check", toggle_path, "-f", f, "--budget", "8")
        assert "strategy names" not in err
        code, _, err = run(capsys, "check", toggle_path, "-f", f, "--budget", "7")
        assert code == 4 and "the alphabet over 2 strategy names has 8 letters" in err


class TestHugeGrades:
    # from the budget's bit length on, two actions give more letters than the
    # budget, so the exact count, which a huge grade puts out of reach, is
    # never taken
    @pytest.mark.parametrize("grade", ["5000", "20000", "1000000000000"])
    def test_huge_grade_stops_on_the_alphabet_budget(self, capsys, toggle_path, grade):
        started = time.perf_counter()
        code, out, err = run(capsys, "check", toggle_path, "-f", f"<<x>>^>={grade} (a0,x) X p")
        assert time.perf_counter() - started < 5
        assert code == 4 and not out
        assert err == (
            "error: the alphabet over 17 or more strategy names has at least 131072 letters,"
            " over the budget (100000)\n"
        )

    # with one action the alphabet stays small, so only the width of the edge
    # relations (grade 100) and the size of the g-copy level (grade 100000)
    # stop the check.  The vacuous binding keeps the block from the top
    # level, so the witness search does not decide it first.
    @pytest.mark.parametrize("grade, err", [
        ("100", "edge relations exceed the budget (100000)"),
        ("100000", "a level of grade 100000 would have 5000150001 states,"
                   " over the state budget (100000)"),
    ])
    def test_huge_grade_on_one_action_stops_on_the_budget(self, capsys, grade, err):
        model = os.path.join(DATA, "single.json")
        started = time.perf_counter()
        code, out, got = run(capsys, "check", model, "-f",
                             f"(a0,z) <<x>>^>={grade} (a0,x)(a1,x) X p")
        assert time.perf_counter() - started < 10
        assert (code, out, got) == (4, "", f"error: {err}\n")

    # at the top level, one action leaves one candidate, which stands for
    # every strategy: a search that runs out decides the block false
    @pytest.mark.parametrize("grade", ["100", "300", "446", "100000"])
    def test_huge_grade_on_one_action_fails_by_the_witness_search(self, capsys, grade):
        model = os.path.join(DATA, "single.json")
        started = time.perf_counter()
        code, out, err = run(capsys, "check", model, "-f",
                             f"<<x>>^>={grade} (a0,x)(a1,x) X p", "--stats")
        assert time.perf_counter() - started < 10
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == [
            f"witness search: grade={grade} tried=1 verified=1 decided", "FAILS",
        ]

    def test_huge_memory_bound_stops_on_the_budget(self):
        # the strategy count (M * |actions|) ** (M * |states|) is never
        # computed whole: it is a bignum of millions of digits at M = 2000000
        argv = ["oracle", os.path.join(DATA, "toggle.json"), "-f", "<<x>> (a0,x) X p",
                "--memory", "2000000"]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        done = subprocess.run([sys.executable, "-m", "gslmc", *argv],
                              capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (
            4, "", "error: strategy space too large for memory bound 2000000\n"
        )

    @pytest.mark.parametrize("grade", ["9" * 5000, "\u00b2"], ids=["5000-digits", "superscript"])
    @pytest.mark.parametrize("command", ["check", "info"])
    def test_grade_int_refuses_is_a_parse_error(self, capsys, toggle_path, command, grade):
        code, out, err = run(capsys, command, toggle_path, "-f", f"<<x>>^>={grade} (a0,x) X p")
        assert code == 2 and not out
        assert err == "error: grade is too long or not a decimal number (at position 8)\n"


class TestBudgetOption:
    @pytest.mark.parametrize("argv", [
        ("check", "toggle.json", "-f", "<<x>> (a0,x) X p", "--budget", "0"),
        ("check", "toggle.json", "-f", "<<x>> (a0,x) X p", "--budget", "-1"),
        ("oracle", "toggle.json", "-f", "<<x>> (a0,x) X p", "--budget", "-5"),
        ("oracle-ne", "pennies.json", "--objectives", "pennies_obj.json", "--budget", "0"),
    ], ids=["check-0", "check-minus-1", "oracle-minus-5", "oracle-ne-0"])
    def test_budget_below_one_is_a_usage_error(self, capsys, argv):
        # a budget that admits nothing is a mistyped option, not a resource stop
        argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: --budget must be at least 1, not {argv[-1]}\n"


class TestReachableErrors:
    @pytest.mark.parametrize("argv, code, err", [
        (("check", "toggle.json", "-f", "<<x>> (a0,x) X X X X X X X X X p", "--budget", "8"),
         4, "automaton exceeds state budget (10)"),
        (("check", "toggle.json", "-f", "<<X>> p"),
         2, "reserved word 'X' used as variable (at position 2)"),
        (("check", "toggle.json", "-f", "<<x>>^<1 p"),
         2, "grade marker '^<' does not match quantifier (at position 5)"),
        (("info", "--agents", ",", "-f", "p"),
         2, "agent name set must be nonempty"),
        (("oracle", "toggle.json", "-f", "<<x,y>> (a0,x) X p", "--budget", "5"),
         4, "quantifier instantiation over budget"),
        (("oracle-ne", "pennies.json", "--objectives", "pennies_obj.json", "--budget", "1"),
         4, "memoryless profile space over budget"),
    ], ids=["state-budget", "reserved-variable", "grade-marker", "no-agents",
            "oracle-instantiation", "oracle-ne-profiles"])
    def test_error_exit_and_message(self, capsys, argv, code, err):
        argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
        assert run(capsys, *argv) == (code, "", f"error: {err}\n")

    def test_defect_past_the_input_checks_is_an_internal_error(self, capsys, toggle_path, monkeypatch):
        # the membership game trusts encoding_tree to label the tree from the
        # automaton's alphabet; a tree that breaks this is a defect, not a
        # bad model
        def broken(cgs, assignment):
            tree = automata.encoding_tree(cgs, assignment)
            letters = dict(tree.letters)
            letters[tree.root] = (("x", "no-such-action"), tree.letters[tree.root][1])
            return automata.RegularTree(letters, tree.children, tree.root)

        monkeypatch.setattr(compiler, "encoding_tree", broken)
        code, out, err = run(capsys, "check", toggle_path, "-f", "<<x>> (a0,x) X p")
        assert code == 6 and not out
        assert err.startswith("internal error: ") and len(err.splitlines()) == 1


class TestStatsAndStages:
    def test_stats_lines_present(self, capsys, toggle_path):
        with no_witnesses():
            code, out, _ = run(
                capsys, "check", toggle_path, "-f", "<<x>> (a0,x) X p", "--stats"
            )
        assert code == 0
        assert "quantifier-rank: 1" in out
        assert "quantifier-block-rank: 1" in out
        assert "nondeterminization-stages: 1" in out

    def test_emit_stage_writes_automata_dumps(self, capsys, toggle_path, tmp_path):
        d = tmp_path / "stages"
        with no_witnesses():
            code, _, _ = run(
                capsys,
                "check",
                toggle_path,
                "-f",
                "<<x>>^>=2 (a0,x) X p",
                "--emit-stage",
                str(d),
            )
        assert code == 0
        files = sorted(os.listdir(d))
        assert "stage01_apt.txt" in files and "stage01_npt.txt" in files
        head = (d / "stage01_apt.txt").read_text().splitlines()[0]
        assert head.startswith("apt states=")

    def test_reports_are_deterministic(self, capsys, toggle_path):
        args = ("check", toggle_path, "-f", "<<x>>^>=2 (a0,x) F p", "--stats")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_stats_on_a_budget_stop_report_the_finished_stages(self, capsys):
        # without the witness search, the F-goal desk3 unique-NE check stops
        # on work in its fourth stage; the stop and the stages before it are
        # part of the pinned output
        model = os.path.join(DATA, "desk3.json")
        code, sentence, _ = run(capsys, "gen", "unique-ne", model,
                                "--objectives", os.path.join(DATA, "desk3_obj.json"))
        assert code == 0
        with no_witnesses():
            code, out, err = run(capsys, "check", model, "-f", sentence.strip(), "--stats")
        assert code == 4
        assert out.splitlines() == [
            "quantifier-rank: 3",
            "quantifier-block-rank: 2",
            "nondeterminization-stages: 2",
            "stage 1: nondeterminize depth=2 copies=2 in=5 out=8",
            "stage 2: nondeterminize depth=1 copies=1 in=8 out=107",
            "stage 3: nondeterminize depth=2 copies=2 in=5 out=8",
        ]
        assert err == "error: determinization work exceeds the budget (100000)\n"

    def test_emit_stage_on_a_budget_stop_writes_the_finished_stages(self, capsys, tmp_path):
        # the same stop as above: its three finished stages are written, and
        # the "at least two" part's inner block repeats the first stage
        model, sentence = gen_sentence(capsys, "unique-ne", "desk3_obj")
        d = tmp_path / "stages"
        with no_witnesses():
            code, out, _ = run(capsys, "check", model, "-f", sentence, "--emit-stage", str(d))
        assert code == 4 and not out
        assert sorted(os.listdir(d)) == [
            f"stage{i:02d}_{kind}.txt" for i in (1, 2, 3) for kind in ("apt", "npt")
        ]
        for kind in ("apt", "npt"):
            assert (d / f"stage03_{kind}.txt").read_bytes() == (d / f"stage01_{kind}.txt").read_bytes()

    # two of toggle's four memoryless strategies play a at s0 and reach p
    # next; a third witness needs the g-copy block, and below
    # 4 candidates x 2 nodes x 2 states the search is skipped
    @pytest.mark.parametrize("grade, budget, lines", [
        ("2", "100000", ["nondeterminization-stages: 0",
                         "witness search: grade=2 tried=2 verified=2 decided"]),
        ("3", "100000", ["nondeterminization-stages: 1",
                         "stage 1: nondeterminize depth=1 copies=3 in=5 out=17",
                         "witness search: grade=3 tried=4 verified=2 fell back"]),
        ("2", "12", ["nondeterminization-stages: 1",
                     "stage 1: nondeterminize depth=1 copies=2 in=3 out=5",
                     "witness search: grade=2 tried=0 verified=0 skipped (over the budget)"]),
    ])
    def test_stats_report_each_witness_search(self, capsys, toggle_path, grade, budget, lines):
        code, out, _ = run(capsys, "check", toggle_path, "-f", f"<<x>>^>={grade} (a0,x) X p",
                           "--budget", budget, "--stats")
        assert code == 0 and out.splitlines() == [
            "quantifier-rank: 1", "quantifier-block-rank: 1", *lines, "HOLDS",
        ]

    def test_a_short_circuit_skips_the_part_it_does_not_need(self, capsys, toggle_path):
        # !p holds at the initial state, so the quantified part is never
        # compiled and no alternation is removed
        code, out, _ = run(capsys, "check", toggle_path, "-f", "!p || <<x>>^>=2 (a0,x) F p",
                           "--stats")
        assert code == 0 and out.splitlines() == [
            "quantifier-rank: 1",
            "quantifier-block-rank: 1",
            "nondeterminization-stages: 0",
            "HOLDS",
        ]

    def test_stats_on_a_choice_stop_report_the_finished_stages(self, capsys):
        # without the witness search, the F-goal desk3 unique-SPE check stops
        # on the choice count in its third stage, before its work reaches the
        # budget
        model = os.path.join(DATA, "desk3.json")
        code, sentence, _ = run(capsys, "gen", "unique-spe", model,
                                "--objectives", os.path.join(DATA, "desk3_obj.json"))
        assert code == 0
        with no_witnesses():
            code, out, err = run(capsys, "check", model, "-f", sentence.strip(), "--stats")
        assert code == 4
        assert out.splitlines()[-2:] == [
            "stage 1: nondeterminize depth=3 copies=2 in=5 out=8",
            "stage 2: nondeterminize depth=2 copies=2 in=8 out=48",
        ]
        assert err == "error: transition choice combinations exceed the budget (100000)\n"

    def test_negated_block_pools_through_a_double_negation(self, capsys):
        # !<<x>> !!<<y>> is the negation of one existential block over x, y
        model = os.path.join(DATA, "pennies.json")
        text = "!<<x>> !!<<y>> (a0,x)(a1,y) X p"
        code, out, _ = run(capsys, "check", model, "-f", text, "--stats")
        assert code == 1 and out.splitlines() == [
            "quantifier-rank: 2",
            "quantifier-block-rank: 1",
            "nondeterminization-stages: 1",
            "stage 1: nondeterminize depth=1 copies=2 in=2 out=3",
            "FAILS",
        ]
        cgs = cli._load_model(model)
        f = fm.parse_formula(text, set(cgs.agents))
        with unpooled():
            assert compiler.check_sentence(f, cgs)[0] is False


def constant_machine():
    return {
        "memory": [0],
        "init": 0,
        "update": {"0,s0": 0, "0,s1": 0},
        "output": {"0,s0": "a", "0,s1": "a"},
    }


def broken_machine(table, cell, value):
    """A one-machine document whose table has its cell removed (value None)
    or set to value."""
    machine = constant_machine()
    if value is None:
        del machine[table][cell]
    else:
        machine[table][cell] = value
    return {"x": machine}


class TestAssign:
    def test_assignment_check(self, capsys, toggle_path, tmp_path):
        machines = {"x": constant_machine()}
        p = tmp_path / "assign.json"
        p.write_text(json.dumps(machines))
        code, out, _ = run(
            capsys, "check", toggle_path, "-f", "(a0,x) X p", "--assign", str(p)
        )
        assert code == 0 and "HOLDS" in out

    @pytest.mark.parametrize("name", ["--5", "\u00b2", "-1", "m0"])
    def test_memory_names_that_are_not_ascii_integers_stay_names(
        self, capsys, toggle_path, tmp_path, name
    ):
        machine = {
            "memory": [name],
            "init": name,
            "update": {f"{name},s0": name, f"{name},s1": name},
            "output": {f"{name},s0": "a", f"{name},s1": "a"},
        }
        p = tmp_path / "assign.json"
        p.write_text(json.dumps({"x": machine}))
        code, out, err = run(
            capsys, "check", toggle_path, "-f", "(a0,x) X p", "--assign", str(p)
        )
        assert (code, out.strip(), err) == (0, "HOLDS", "")

    @pytest.mark.parametrize("cmd", ["check", "oracle"])
    @pytest.mark.parametrize(
        "document, message",
        [
            pytest.param(
                broken_machine("update", "0,s1", None), "machine 'x': cell 0,s1 ",
                id="missing-update",
            ),
            pytest.param(
                broken_machine("update", "0,s0", 5), "machine 'x': cell 0,s0 ",
                id="undeclared-memory",
            ),
            pytest.param(
                broken_machine("output", "0,s1", "c"), "machine 'x': cell 0,s1 ",
                id="unknown-action",
            ),
            pytest.param(
                broken_machine("update", "0s1", 0), "machine 'x': key '0s1' ",
                id="key-without-comma",
            ),
            pytest.param(
                [constant_machine()], "an --assign document must map names to machine objects",
                id="list-document",
            ),
            pytest.param(
                {"x": {k: v for k, v in constant_machine().items() if k != "update"}},
                "machine 'x': needs memory (a list), init, update and output (objects)",
                id="no-update-table",
            ),
        ],
    )
    def test_broken_machine_is_a_model_error(
        self, capsys, toggle_path, tmp_path, cmd, document, message
    ):
        p = tmp_path / "assign.json"
        p.write_text(json.dumps(document))
        code, out, err = run(capsys, cmd, toggle_path, "-f", "(a0,x) X p", "--assign", str(p))
        assert code == 3 and not out
        assert message in err


class TestInfo:
    def test_info_with_model(self, capsys, toggle_path):
        code, out, _ = run(capsys, "info", toggle_path, "-f", "<<x>> (a0,x) X p")
        assert code == 0
        assert "sentence: yes" in out
        assert "grades-all-finite: yes" in out

    def test_info_accepts_infinite_grades(self, capsys):
        code, out, _ = run(
            capsys, "info", "--agents", "a0", "-f", "<<x>>^>=aleph1 (a0,x) F p"
        )
        assert code == 0
        assert "grades-all-finite: no" in out

    def test_info_without_model_or_agents_is_two(self, capsys):
        code, out, err = run(capsys, "info", "-f", "p")
        assert code == 2 and not out and "--agents" in err

    def test_info_reports_free_placeholders(self, capsys):
        code, out, _ = run(capsys, "info", "--agents", "a0", "-f", "(a0,x) X p")
        assert code == 0
        assert "free: x" in out
        assert "sentence: no" in out


# every `gen` sentence on every fixture model at the default budget:
# (objectives file, kind) -> (exit code, stage lines of --stats, verdict or
# stop message).  A uniqueness or counting sentence is "at least g and not
# at least g + 1"; when its first part fails, the second is never compiled.
# Where memoryless witnesses decide both parts, the second part lists the
# stages of the body it shares with the first, and no g-copy block is built.
GEN_SENTENCES = {
    ("desk3_obj", "unique-ne"): (1, 2, "FAILS"),
    ("desk3_obj", "unique-spe"): (1, 4, "FAILS"),
    ("desk3_obj", "winning-count"): (1, 2, "FAILS"),
    ("desk3_next_obj", "unique-ne"): (1, 2, "FAILS"),
    ("desk3_next_obj", "unique-spe"): (1, 4, "FAILS"),
    ("desk3_next_obj", "winning-count"): (1, 2, "FAILS"),
    ("pennies_obj", "unique-ne"): (1, 2, "FAILS"),
    ("pennies_obj", "unique-spe"): (4, 2, "error: determinization work exceeds the budget (100000)"),
    ("pennies_obj", "winning-count"): (1, 2, "FAILS"),
    ("single_obj", "unique-ne"): (0, 2, "HOLDS"),
    # HOLDS is exact: with one action the oracle's memoryless strategies are all
    ("single_obj", "unique-spe"): (0, 4, "HOLDS"),
    ("single_obj", "winning-count"): (1, 1, "FAILS"),
}


class TestGen:
    @pytest.mark.parametrize("objectives, kind", sorted(GEN_SENTENCES))
    def test_every_gen_sentence_on_the_fixtures(self, capsys, objectives, kind):
        model, sentence = gen_sentence(capsys, kind, objectives)
        code, out, err = run(capsys, "check", model, "-f", sentence, "--stats")
        stages = sum(line.startswith("stage ") for line in out.splitlines())
        assert (code, stages, (out + err).splitlines()[-1]) == GEN_SENTENCES[(objectives, kind)]

    @pytest.mark.parametrize("objectives", ["desk3_next_obj", "desk3_obj", "pennies_obj"])
    def test_winning_count_fails_as_the_oracle_finds(self, capsys, objectives):
        # "at least 2" fails, so the grade-3 part, which once stopped on the
        # budget, is skipped; the oracle's lower bound agrees
        model, sentence = gen_sentence(capsys, "winning-count", objectives)
        for memory in ("1", "2"):
            code, out, _ = run(capsys, "oracle", model, "-f", sentence, "--memory", memory)
            assert code == 1 and "verdict: false" in out, memory

    def test_gen_output_reparses_and_checks(self, capsys, single_path, tmp_path):
        obj = {
            "agents": {
                "a0": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
                "a1": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
            }
        }
        op = tmp_path / "obj.json"
        op.write_text(json.dumps(obj))
        # "ne" leaves the profile placeholders free for --assign checking
        code, out, _ = run(capsys, "gen", "ne", single_path, "--objectives", str(op))
        assert code == 0
        code_i, out_i, _ = run(capsys, "info", single_path, "-f", out.strip())
        assert code_i == 0 and "sentence: no" in out_i
        # "unique-ne" closes them off into a checkable sentence
        code, out, _ = run(
            capsys, "gen", "unique-ne", single_path, "--objectives", str(op)
        )
        assert code == 0
        code2, out2, _ = run(capsys, "check", single_path, "-f", out.strip())
        assert code2 == 0 and "HOLDS" in out2

    def test_gen_all_kinds_print_one_formula(self, capsys, single_path, tmp_path):
        obj = {
            "agents": {
                "a0": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
                "a1": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
            }
        }
        op = tmp_path / "obj.json"
        op.write_text(json.dumps(obj))
        for kind in ("ne", "spe", "unique-ne", "unique-spe"):
            code, out, _ = run(capsys, "gen", kind, single_path, "--objectives", str(op))
            assert code == 0 and out.strip(), kind
        code, out, _ = run(
            capsys, "gen", "winning-count", single_path, "--objectives", str(op), "--k", "2"
        )
        assert code == 0 and ">=2" in out and ">=3" in out

    def test_general_payoffs_give_the_win_lose_sentence_when_they_agree(self, capsys, tmp_path):
        # the NE sentence reads only the order of the payoffs, so 2/0 gives
        # the same sentence as win/lose 1/-1
        model = os.path.join(DATA, "desk3.json")
        obj = {"agents": {a: {"goals": ["X p"], "payoff": {"1": 2, "0": 0}}
                          for a in ("a0", "a1")}}
        op = tmp_path / "obj.json"
        op.write_text(json.dumps(obj))
        code, general, _ = run(capsys, "gen", "unique-ne", model, "--objectives", str(op))
        assert code == 0
        code, winlose, _ = run(
            capsys, "gen", "unique-ne", model,
            "--objectives", os.path.join(DATA, "desk3_next_obj.json"),
        )
        assert code == 0 and general == winlose

    def test_pennies_has_no_memoryless_equilibrium(self, capsys):
        code, out, _ = run(
            capsys, "oracle-ne", os.path.join(DATA, "pennies.json"),
            "--objectives", os.path.join(DATA, "pennies_obj.json"),
        )
        assert code == 0 and out.strip() == "memoryless-ne: 0"

    def test_pennies_ne_sentence_fails(self, capsys):
        # in pennies_obj.json a1 wins when X p fails
        model = os.path.join(DATA, "pennies.json")
        code, ne, _ = run(
            capsys, "gen", "ne", model, "--objectives", os.path.join(DATA, "pennies_obj.json")
        )
        assert code == 0
        code, out, _ = run(capsys, "check", model, "-f", f"<<x1,x2>> ({ne.strip()})")
        assert code == 1 and "FAILS" in out

    @pytest.mark.parametrize("agents", [
        {"a0": {"goals": ["F p"], "payoff": {"1": "x", "0": -1}}},
        {"a0": ["F p"]},
        {"a0": {"goals": [3], "payoff": {"1": 1, "0": -1}}},
        3,
    ], ids=["payoff-not-integer", "entry-list", "goal-number", "agents-number"])
    def test_malformed_objectives_are_a_model_error(self, capsys, single_path, tmp_path,
                                                     agents):
        if isinstance(agents, dict):
            agents = dict(agents, a1={"goals": ["F p"], "payoff": {"1": 1, "0": -1}})
        op = tmp_path / "obj.json"
        op.write_text(json.dumps({"agents": agents}))
        for command in ("gen", "oracle-ne"):
            argv = [command] + (["ne"] if command == "gen" else [])
            code, out, err = run(capsys, *argv, single_path, "--objectives", str(op))
            assert code == 3 and not out and err.startswith("error:"), command

    def test_winning_count_without_a_goal_is_a_model_error(self, capsys, single_path, tmp_path):
        obj = {
            "agents": {
                "a0": {"goals": [], "payoff": {"": 1}},
                "a1": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
            }
        }
        op = tmp_path / "obj.json"
        op.write_text(json.dumps(obj))
        code, out, err = run(capsys, "gen", "winning-count", single_path, "--objectives", str(op))
        assert code == 3 and not out
        assert "exactly one goal" in err and "'a0'" in err

    def test_negative_count_is_a_usage_error(self, capsys, single_path, tmp_path):
        obj = {
            "agents": {
                "a0": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
                "a1": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
            }
        }
        op = tmp_path / "obj.json"
        op.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "gen", "winning-count", single_path, "--objectives", str(op), "--k", "-1"
        )
        assert code == 2 and not out and err.startswith("error:") and "--k" in err


class TestOracle:
    def test_oracle_exact_single_action(self, capsys, single_path):
        code, out, _ = run(
            capsys, "oracle", single_path, "-f", "<<x>>^>=2 (a0,x)(a1,x) X p"
        )
        assert code == 1
        assert "verdict: false" in out
        assert "confidence: exact" in out
        assert "witnesses: 1" in out

    def test_require_exact_is_five_when_lower_bound(self, capsys, toggle_path):
        code, out, _ = run(
            capsys,
            "oracle",
            toggle_path,
            "-f",
            "<<x>> (a0,x) F p",
            "--require-exact",
        )
        assert code == 5
        assert "confidence: lower-bound-only" in out

    def test_justify_restores_exit_by_verdict(self, capsys, toggle_path):
        code, out, _ = run(
            capsys,
            "oracle",
            toggle_path,
            "-f",
            "<<x>> (a0,x) F p",
            "--require-exact",
            "--justify",
            "memoryless suffices",
        )
        assert code == 0 and "confidence: exact" in out

    def test_memory_below_one_is_a_usage_error(self, capsys, toggle_path):
        # with no memory state there is no machine, and no verdict to print
        code, out, err = run(
            capsys, "oracle", toggle_path, "-f", "<<x>> (a0,x) F p",
            "--memory", "0", "--justify", "memoryless suffices", "--require-exact",
        )
        assert code == 2 and not out and err.startswith("error:") and "--memory" in err

    def test_oracle_ne_counts(self, capsys, single_path, tmp_path):
        obj = {
            "agents": {
                "a0": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
                "a1": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
            }
        }
        op = tmp_path / "obj.json"
        op.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "oracle-ne", single_path, "--objectives", str(op))
        assert code == 0 and "memoryless-ne: 1" in out
