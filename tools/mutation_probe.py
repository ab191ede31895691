"""Mutation probe: which single-operator changes to one module do the tests miss?

    python tools/mutation_probe.py calibration

Each mutant swaps one operator of `src/svls/MODULE.py`: `<` with `<=`, `>`
with `>=`, `==` with `!=`, `+` with `-`, `*` with `//`, and `and` with `or`;
or it drops one `raise`, which becomes `pass`; or it turns one integer
literal `n` (not `True` or `False`) into `n + 1`, or into `n - 1`; or it
makes one `return VALUE`, VALUE not a constant, return the constant `None`.
The mutated module is written, as `ast.unparse` text, into a temporary copy
of `src/`, `tests/`, `pyproject.toml` and `README.md`; the repository itself
is never written. Each mutant
runs the module's own test file plus `test_cli.py`, `test_acceptance.py` and
`test_memory.py` (whose peak bounds catch a mutant that holds more than it
should) with `pytest -x`. A mutant that passes them survived: either a test is
missing or the mutant is equivalent; one that runs past TIMEOUT seconds
(a loop that never ends) counts as killed. The unmutated module, unparsed
the same way, must pass first.

Stdlib only. Exits 0 with no survivor, 1 with survivors, 2 when the
unmutated module fails its tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per test run
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.And: "and", ast.Or: "or",
}


def sites(tree: ast.AST):
    """(node index in ast.walk order, operator slot) of every swappable
    operator, and (node index, None) of every `raise` and of every `return`
    of a value that is no constant, and (node index, +1 or -1) of every
    integer literal."""
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            yield from ((i, k) for k, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            yield i, None
        elif isinstance(node, ast.Raise):
            yield i, None
        elif isinstance(node, ast.Return) and node.value is not None and not isinstance(node.value, ast.Constant):
            yield i, None
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield from ((i, step) for step in (1, -1))


def mutant(source: str, site) -> tuple[str, int, str]:
    """The module text with one operator swapped, one `raise` dropped, one
    integer literal moved by 1 or one `return` made constant, its line and a
    description."""
    tree = ast.parse(source)
    index, slot = site
    node = list(ast.walk(tree))[index]
    if isinstance(node, ast.Raise):
        class Drop(ast.NodeTransformer):
            def visit_Raise(self, raise_):
                return ast.Pass() if raise_ is node else raise_

        return ast.unparse(Drop().visit(tree)), node.lineno, "raise -> pass"
    if isinstance(node, ast.Return):
        node.value = ast.Constant(None)
        return ast.unparse(tree), node.lineno, "return VALUE -> return None"
    if isinstance(node, ast.Constant):
        node.value += slot
        return ast.unparse(tree), node.lineno, f"{node.value - slot} -> {node.value}"
    old = node.ops[slot] if slot is not None else node.op
    new = SWAPS[type(old)]()
    if slot is not None:
        node.ops[slot] = new
    else:
        node.op = new
    return ast.unparse(tree), node.lineno, f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def run_tests(copy: Path, tests: list[str]) -> tuple[str, str]:
    """The verdict on the module now in `copy`, and pytest's output."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return ("survived" if done.returncode == 0 else "killed"), done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modules = sorted(p.stem for p in (ROOT / "src" / "svls").glob("*.py") if p.stem != "__init__")
    parser.add_argument("module", choices=modules, help="a module of src/svls, such as calibration")
    args = parser.parse_args(argv)
    path = ROOT / "src" / "svls" / f"{args.module}.py"
    source = path.read_text(encoding="utf-8")
    own = f"test_{args.module}.py"
    names = [n for n in (own, "test_cli.py", "test_acceptance.py", "test_memory.py") if (ROOT / "tests" / n).exists()]
    tests = [str(Path("tests") / n) for n in names]
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        for name in ("pyproject.toml", "README.md"):  # the pytest config; test_cli runs the README example
            shutil.copy(ROOT / name, copy)
        target = copy / "src" / "svls" / path.name
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        verdict, output = run_tests(copy, tests)
        if verdict != "survived":
            print(f"unmutated {path.name} fails {' '.join(tests)}:\n{output[-3000:]}", file=sys.stderr)
            return 2
        survivors = []
        all_sites = list(sites(ast.parse(source)))
        for site in all_sites:
            text, line, change = mutant(source, site)
            target.write_text(text, encoding="utf-8")
            verdict, _ = run_tests(copy, tests)
            print(f"{path.name}:{line}  {change}  {verdict}", flush=True)
            if verdict == "survived":
                survivors.append(f"{path.name}:{line}  {change}")
    print(f"{len(all_sites)} mutants, {len(survivors)} survived")
    for s in survivors:
        print(f"  survivor {s}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
