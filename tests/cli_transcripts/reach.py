"""List the functions of src/superlie that no command of the corpus reaches.

Replays every entry of corpus.json through cli.main and one seed-1 round of
each workload in perfbench/workloads.py (its set-up and each verdict once),
all in this process under a sys.setprofile hook that records every Python
code object called.  Then prints each function, method or nested function
defined in src/superlie whose code was never entered, one a line:

    module:line name (n lines)

with the line of its first decorator or `def`, its qualified name and its
length in lines, in source order.  A summary goes to stderr.  Standard
library only; nothing is written outside a temporary directory.  Run:

    python tests/cli_transcripts/reach.py

The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache next to perfbench/

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "superlie"
CORPUS = Path(__file__).with_name("corpus.json")
PLACEHOLDER = "{DIR}"
sys.path.insert(0, str(ROOT / "src"))


def defined_functions() -> list[tuple[str, int, str, int]]:
    """(module, first line, qualified name, length) of every def in SRC."""
    out = []

    def visit(module: str, node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((module, first, name, child.end_lineno - first + 1))
                visit(module, child, name + ".")
            else:
                visit(module, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(), str(path)), "")
    return out


def replay_corpus(main) -> int:
    """Run every corpus entry; the number whose exit code differs."""
    moved = 0
    for entry in json.loads(CORPUS.read_text()):
        with tempfile.TemporaryDirectory() as directory:
            for name, text in entry.get("files", {}).items():
                Path(directory, name).write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([a.replace(PLACEHOLDER, directory) for a in entry["argv"]])
        moved += code != entry["exit_code"]
    return moved


def run_workloads() -> int:
    """One seed-1 round of each workload; the number of verdicts that raised."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    raised = 0
    for setup in WORKLOADS.values():
        for verdict in setup(1):
            try:
                verdict.run()
            except Exception:
                raised += 1
    return raised


def main() -> int:
    called: set = set()

    def hook(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from superlie.cli import main as cli_main

        moved = replay_corpus(cli_main)
        raised = run_workloads()
    finally:
        sys.setprofile(None)
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in called}
    defined = defined_functions()
    unreached = [d for d in defined if (SRC / f"{d[0]}.py", d[1]) not in reached]
    for module, line, name, length in unreached:
        print(f"{module}:{line} {name} ({length} lines)")
    lines = sum(d[3] for d in unreached)
    sys.stderr.write(
        f"{len(unreached)} of {len(defined)} functions ({lines} lines) unreached; "
        f"{moved} corpus exit codes moved, {raised} verdicts raised\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
