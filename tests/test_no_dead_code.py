"""Every function, class and method in src/gslmc has a caller in src/gslmc.

A definition counts as used when its name appears as a name or an attribute
anywhere in the package outside the definition itself, so a function that
only calls itself is dead.  Names used only from outside the package are
listed below with the reason; tests alone never make a name live.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gslmc")

USED_FROM_OUTSIDE = {
    "solve_fixpoint": "perfbench's verdict gate cross-checks the solver with it",
    "verify_strategy": "perfbench's verdict gate checks the solver's strategies with it",
}


def definitions_and_references():
    defs = []  # (module, name, first line, last line)
    refs = []  # (module, name, line)
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [
                    m for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            for m in members:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((fname, m.name, m.lineno, m.end_lineno))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.append((fname, n.id, n.lineno))
            elif isinstance(n, ast.Attribute):
                refs.append((fname, n.attr, n.lineno))
    return defs, refs


def test_every_definition_has_a_caller_in_the_package():
    defs, refs = definitions_and_references()
    dead = []
    for fname, name, first, last in defs:
        if name in USED_FROM_OUTSIDE:
            continue
        if not any(
            n == name and not (f == fname and first <= line <= last) for f, n, line in refs
        ):
            dead.append(f"{fname}:{first} {name}")
    assert not dead, "no caller in src/gslmc: " + ", ".join(dead)


def test_allowlist_names_existing_definitions():
    defs, _ = definitions_and_references()
    names = {name for _, name, _, _ in defs}
    assert set(USED_FROM_OUTSIDE) <= names
