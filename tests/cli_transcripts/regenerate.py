"""Record the CLI transcript corpus that tests/test_cli_transcripts.py replays.

Each entry holds an argv, the SHA-256 of the stdout that `superlie` prints
for it, the first line of its stderr and its exit code, all taken in-process
through cli.main.  The placeholder {DIR} in an argv stands for an existing
directory; the replay substitutes a temporary one, and the stderr line keeps
the placeholder.

Run from the repository root to rewrite corpus.json:

    PYTHONPATH=src python tests/cli_transcripts/regenerate.py

The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from superlie.cli import main

CORPUS = Path(__file__).with_name("corpus.json")
PLACEHOLDER = "{DIR}"

COMMANDS = [
    "cohomology verify-cor1 --A grassmann:1 --k catalog:su_n:2",
    "cohomology verify-cor1 --A grassmann:3 --k catalog:su_n:2",
    "cohomology verify-cor1 --A grassmann:4 --k catalog:su_n:2",
    "cohomology verify-cor1 --A grassmann:1 --k catalog:psu_pp:2",
    "cohomology verify-cor1 --A grassmann:1 --k catalog:psu_pp:2 --drop-eta",
    "cohomology verify-cor1 --A grassmann:1 --k catalog:c_n:2",
    "cohomology verify-cor1 --A grassmann:1 --k catalog:c_n:2 --drop-eta",
    "cohomology verify-cor1 --A grassmann:2 --k catalog:su_pq:2,1",
    "cohomology verify-cor1 --A grassmann:2 --k catalog:su_pq:2,1 --drop-eta",
    "cohomology verify-cor1 --A grassmann:1 --k catalog:pq_n:3",
    "cohomology verify-cor1 --A grassmann:1 --k catalog:pq_n:3 --drop-eta",
    "cohomology h2 --k catalog:psu_pp:2",
    "cohomology h2 --A grassmann:6 --k catalog:su_n:2",
    "cohomology z2 --A grassmann:2 --k catalog:su_pq:2,1",
    "urad verify --k catalog:su_pq:2,1 --s 1",
    "urad verify --k catalog:su_pq:2,1 --s 2",
    "urad verify --k catalog:psu_pp:2 --s 1",
    "urad verify --k catalog:pq_n:3 --s 1",
    "urad verify --k catalog:c_n:2 --s 2",
    "urad verify --k catalog:su_n:2 --s 3",
    "urad verify --k catalog:su_n:2 --s 4 --value-dim 2 --seed 3",
    "urad verify --k catalog:q_n:3 --s 1",
    "urad faithful --k catalog:su_n:2 --s 2",
    "urad faithful --k catalog:su_n:2 --s 3",
    "urad pointed --k catalog:su_pq:2,1",
    "urad pointed --k catalog:psu_pp:2",
    "catalog build su_n --n 2 --facts",
    "catalog build su_n --n 3 --facts",
    "catalog build su_pq --p 2 --q 1 --facts",
    "catalog build su_pq --p 3 --q 1 --facts",
    "catalog build su_pq --p 3 --q 2 --facts",
    "catalog build psu_pp --p 2 --facts",
    "catalog build psu_pp --p 3 --facts",
    "catalog build c_n --n 2 --facts",
    "catalog build c_n --n 3 --facts",
    "catalog build q_n --n 3 --facts",
    "catalog build pq_n --n 3 --facts",
    "clifford gamma --mu 1,2",
    "clifford rep --seed 2",
    # --out: a file is written next to stdout; a directory is a usage error
    "cohomology h2 --k catalog:psu_pp:2 --out {DIR}/h2.json",
    "catalog build su_n --n 2 --out {DIR}/su2.json",
    "catalog build su_n --n 2 --out {DIR}",
    "catalog build q_n --n 3 --facts --out {DIR}",
    "current --A grassmann:1 --k catalog:su_n:2 --out {DIR}",
    "cohomology z2 --k catalog:su_n:2 --out {DIR}",
    "cohomology verify-cor1 --A grassmann:2 --k catalog:su_n:2 --out {DIR}",
    "urad verify --k catalog:su_n:2 --s 3 --out {DIR}",
]


def run(argv: list[str], directory: str) -> dict:
    """The transcript entry of one argv, with {DIR} standing for directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace(PLACEHOLDER, directory) for a in argv])
    lines = err.getvalue().replace(directory, PLACEHOLDER).splitlines()
    return {
        "argv": argv,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_first_line": lines[0] if lines else "",
        "exit_code": code,
    }


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        return [run(cmd.split(), directory) for cmd in COMMANDS]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
    sys.stdout.write(f"wrote {len(COMMANDS)} entries to {CORPUS}\n")
