"""Every function, class and method in src/gslmc has a caller in src/gslmc,
every parameter is read in the body of its function, and every import is of
the standard library, numpy or the package itself.

A definition counts as used when its name appears as a name or an attribute
anywhere in the package outside the definition itself, so a function that
only calls itself is dead.  Names used only from outside the package are
listed below with the reason; tests alone never make a name live.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gslmc")

USED_FROM_OUTSIDE = {
    "solve_fixpoint": "perfbench's verdict gate cross-checks the solver with it",
    "verify_strategy": "perfbench's verdict gate checks the solver's strategies with it",
    "check_sentence": "perfbench's check workloads decide their sentences with it",
}


def package_trees():
    """(file name, syntax tree) of every module in src/gslmc."""
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                yield fname, ast.parse(fh.read(), fname)


def definitions_and_references():
    defs = []  # (module, name, first line, last line)
    refs = []  # (module, name, line)
    for fname, tree in package_trees():
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


def test_every_parameter_is_read():
    # self and _-prefixed names are exempt: they are unused by convention
    unread = []
    for fname, tree in package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for p in params:
                if p.arg != "self" and not p.arg.startswith("_") and p.arg not in read:
                    unread.append(f"{fname}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p.arg})")
    assert not unread, "parameters never read: " + ", ".join(unread)


def test_every_import_is_stdlib_numpy_or_the_package():
    # numpy is the one declared dependency; a module that is merely
    # installed on the machine running the tests would import here, but not
    # from a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy", "gslmc"}
    stray = []
    for fname, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{fname}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert not stray, "imports outside the stdlib, numpy and gslmc: " + ", ".join(stray)
