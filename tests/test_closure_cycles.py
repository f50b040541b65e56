"""Lint: no closure in ``src/repro`` reaches itself through its own scope.

A nested function that calls itself by name reads itself from a closure
cell, and the cell is held by the function: a reference cycle that pins
everything the closure captured until the cyclic collector runs.  Two
sibling closures that call each other, or a lambda bound to a name it
calls, build the same cycle through two cells.  ``FafnirEngine.run_batch``
pauses that collector for the whole batch, so such a closure would keep
its captures alive past the batch.  Recursive helpers belong in methods
or module-level functions instead.

The lint is syntactic: it sees closures bound to a local name by ``def``
or ``name = lambda``.  A closure stored into a container it captures also
forms a cycle and is not caught here; ``tests/core/test_gc_pause.py``
checks at run time that each engine path leaves no cyclic garbage.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(scope):
    """Nodes in ``scope``'s own body, not inside a nested function."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            pending.extend(ast.iter_child_nodes(node))


def _local_closures(scope):
    """Name -> (line, node) of every closure ``scope`` binds to a local."""
    closures = {}
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            closures[node.name] = (node.lineno, node)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    closures[target.id] = (node.lineno, node.value)
    return closures


def self_referencing_closures(tree):
    """(line, name) of every nested closure on a reference cycle.

    Within each function, draws an edge from a local closure to every
    sibling closure name its body mentions; a closure on a cycle of that
    graph (a self-loop included) is reported.
    """
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, FUNCTIONS):
            continue
        closures = _local_closures(scope)
        edges = {
            name: {
                node.id
                for node in ast.walk(closure)
                if isinstance(node, ast.Name) and node.id in closures
            }
            for name, (_, closure) in closures.items()
        }
        for name, (line, _) in closures.items():
            seen, frontier = set(), set(edges[name])
            while frontier:
                current = frontier.pop()
                if current not in seen:
                    seen.add(current)
                    frontier |= edges[current]
            if name in seen:
                found.add((line, name))
    return sorted(found)


def test_no_self_referencing_closure_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in self_referencing_closures(
            ast.parse(path.read_text(), filename=str(path))
        )
    ]
    assert offenders == []


def test_lint_catches_a_recursive_closure():
    tree = ast.parse(
        "def outer(items):\n"
        "    def walk(node):\n"
        "        for child in node:\n"
        "            walk(child)\n"
        "    walk(items)\n"
        "\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        def count(n):\n"
        "            return 0 if n == 0 else count(n - 1)\n"
        "        return count(3)\n"
        "\n"
        "def flat(n):\n"
        "    return flat(n - 1) if n else 0\n"
    )
    assert self_referencing_closures(tree) == [(2, "walk"), (9, "count")]


def test_lint_catches_mutual_recursion_and_lambdas():
    tree = ast.parse(
        "def outer(n):\n"
        "    def even(k):\n"
        "        return True if k == 0 else odd(k - 1)\n"
        "    def odd(k):\n"
        "        return False if k == 0 else even(k - 1)\n"
        "    fact = lambda k: 1 if k == 0 else k * fact(k - 1)\n"
        "    def helper(k):\n"
        "        return k + 1\n"
        "    def caller(k):\n"
        "        return helper(k)\n"
        "    return even(n), fact(n), caller(n)\n"
    )
    assert self_referencing_closures(tree) == [
        (2, "even"),
        (4, "odd"),
        (6, "fact"),
    ]
