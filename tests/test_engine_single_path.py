"""Lint: ``FafnirEngine`` runs every batch through one execution path.

A batch with faults and a batch without them share one plan → fetch →
leaf inputs → tree → collect sequence in ``src/repro/core/engine.py``.
A second copy of that sequence would bring its own batch events and its
own ``LookupStats``, and a fix to one copy could miss the other.  The
check counts the sites: each batch event is built in one call, and
``LookupStats`` is constructed in one call.
"""

import ast
import pathlib

ENGINE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src" / "repro" / "core" / "engine.py"
)


def call_sites(tree):
    """Count of calls per callee name and per leading event-kind argument."""
    counts = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        names = []
        if isinstance(node.func, ast.Name):
            names.append(node.func.id)
        if node.args and isinstance(node.args[0], ast.Name):
            names.append(node.args[0].id)
        for name in names:
            counts[name] = counts.get(name, 0) + 1
    return counts


def test_engine_has_one_batch_path():
    counts = call_sites(ast.parse(ENGINE.read_text(), filename=str(ENGINE)))
    assert counts.get("BATCH_START") == 1
    assert counts.get("BATCH_COMPLETE") == 1
    assert counts.get("LookupStats") == 1


def test_check_counts_a_forked_path():
    tree = ast.parse(
        "def run(self):\n"
        "    self.tracer.emit(TraceEvent(BATCH_START, cycle=0))\n"
        "    stats = LookupStats(memory=m)\n"
        "def run_faulty(self):\n"
        "    self.tracer.emit_packed(BATCH_START, 0)\n"
        "    stats = LookupStats(memory=m)\n"
    )
    counts = call_sites(tree)
    assert counts["BATCH_START"] == 2
    assert counts["LookupStats"] == 2
