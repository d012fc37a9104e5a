"""Mutation score of one askgate module against the tests that should guard it.

Each mutant changes one node of the module's syntax tree:

* ``compare``  swaps a comparison: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not``, ``in``/``not in``;
* ``arith``    swaps ``+``/``-`` and ``*``/``/``;
* ``bool``     swaps ``and``/``or``;
* ``const+1``  adds 1 to a numeric constant (not to a bool);
* ``not-if``   negates the test of an ``if`` statement.

For each mutant the script writes the mutated module into a copy of
``src/`` in a temporary directory, puts that copy first on ``PYTHONPATH``
(and on pytest's ``pythonpath``), and runs the given test files with ``-x``.
A mutant is killed when the run fails or runs past ``--timeout``; the others
survive and are printed with their line, operator and expression. The
checkout is never written: bytecode and the pytest cache are off, and the
runs start in the temporary directory, where hypothesis keeps its database.

Before any mutant, the tests run once against the unmutated module as
``ast.unparse`` writes it, and must pass.

Usage, from the repository root::

    python3 tools/mutate.py src/askgate/gate.py tests/test_gate.py tests/test_tuner.py
    python3 tools/mutate.py src/askgate/env.py tests/test_env.py --timeout 120

The script is not collected by the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_ARITH_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


def _sites(node: ast.AST):
    """``(operator, mutate)`` for each mutation this node offers; ``mutate``
    changes the node in place."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARE_SWAPS:
                yield "compare", lambda n, i=i: n.ops.__setitem__(i, _COMPARE_SWAPS[type(n.ops[i])]())
    elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH_SWAPS:
        yield "arith", lambda n: setattr(n, "op", _ARITH_SWAPS[type(n.op)]())
    elif isinstance(node, ast.BoolOp):
        yield "bool", lambda n: setattr(n, "op", _BOOL_SWAPS[type(n.op)]())
    elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
          and not isinstance(node.value, bool)):
        yield "const+1", lambda n: setattr(n, "value", n.value + 1)
    elif isinstance(node, ast.If):
        yield "not-if", lambda n: setattr(n, "test", ast.UnaryOp(op=ast.Not(), operand=n.test))


def mutants(source: str):
    """``(line, operator, before, after, mutated source)`` for every mutant."""
    count = sum(1 for node in ast.walk(ast.parse(source)) for _ in _sites(node))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant; ast.walk's order is fixed
        sites = ((node, op, mutate) for node in ast.walk(tree) for op, mutate in _sites(node))
        for _ in range(k):
            next(sites)
        node, op, mutate = next(sites)
        before = ast.unparse(node) if not isinstance(node, ast.If) else ast.unparse(node.test)
        mutate(node)
        after = ast.unparse(node) if not isinstance(node, ast.If) else ast.unparse(node.test)
        yield node.lineno, op, before.split("\n")[0], after.split("\n")[0], ast.unparse(tree)


def run_tests(src_copy: str, tests, timeout: float, workdir: str) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"`` for one run of the tests."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src_copy, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src_copy}", "--rootdir", REPO, *tests]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run's children (trained fixtures) too
        proc.wait()
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module under src/, e.g. src/askgate/gate.py")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds before a run counts as killed (default 600)")
    args = parser.parse_args(argv)

    module = os.path.abspath(args.module)
    src = os.path.join(REPO, "src")
    if os.path.commonpath([module, src]) != src:
        parser.error(f"{args.module} is not under src/")
    tests = [os.path.abspath(t) for t in args.tests]
    with open(module, "r", encoding="utf-8") as fh:
        source = fh.read()
    found = sorted(mutants(source), key=lambda m: m[0])  # by line, stably
    if not found:
        parser.error("no mutation site found")

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        src_copy = os.path.join(tmp, "src")
        shutil.copytree(src, src_copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(src_copy, os.path.relpath(module, src))

        def write(text):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)

        write(ast.unparse(ast.parse(source)))
        if run_tests(src_copy, tests, args.timeout, tmp) != "passed":
            print("the tests fail on the unmutated module; no score", file=sys.stderr)
            return 1
        rel = os.path.relpath(module, REPO)
        survivors = []
        for i, (line, op, before, after, text) in enumerate(found, start=1):
            write(text)
            start = time.monotonic()
            result = run_tests(src_copy, tests, args.timeout, tmp)
            print(f"[{i}/{len(found)}] {rel}:{line} {op}: {result} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if result == "passed":
                survivors.append((line, op, before, after))

    killed = len(found) - len(survivors)
    print(f"\nsurvivors ({len(survivors)}):")
    for line, op, before, after in survivors:
        print(f"  {rel}:{line}  {op:8}  {before}  ->  {after}")
    print(f"\nscore: {killed}/{len(found)} killed ({100.0 * killed / len(found):.1f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
