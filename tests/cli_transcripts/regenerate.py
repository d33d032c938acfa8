"""Record the CLI transcript corpus that tests/test_cli_transcripts.py replays.

Each entry holds an argv, the SHA-256 of the stdout that `superlie` prints
for it, the first line of its stderr and its exit code, all taken in-process
through cli.main.  The placeholder {DIR} in an argv stands for an existing
directory; the replay substitutes a temporary one, and the stderr line keeps
the placeholder.  An entry that reads input files also holds them as
"files", {name: contents}, written into that directory before the run.

Besides COMMANDS, the corpus replays the usage-error probes of
tests/test_serial_cli.py (MALFORMED_ARGV) that COMMANDS does not already
hold, with their inline file contents moved into {DIR}/input.json.

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

sys.path.insert(0, str(Path(__file__).parents[1]))
from test_serial_cli import DIRECTORY, MALFORMED_ARGV, SPLIT_GL11  # noqa: E402

CORPUS = Path(__file__).with_name("corpus.json")
PLACEHOLDER = "{DIR}"

SU2 = {"names": ["e1", "e2", "e3"], "parities": [0, 0, 0], "brackets": [
    {"i": 0, "j": 1, "value": ["0", "0", "1"]},
    {"i": 0, "j": 2, "value": ["0", "-1", "0"]},
    {"i": 1, "j": 2, "value": ["1", "0", "0"]},
]}
# [e1, e2] = e2, [e1, e3] = e3, [e2, e3] = e1: graded Jacobi fails on (e1, e2, e3)
NOT_JACOBI = {"names": ["e1", "e2", "e3"], "parities": [0, 0, 0], "brackets": [
    {"i": 0, "j": 1, "value": ["0", "1", "0"]},
    {"i": 0, "j": 2, "value": ["0", "0", "1"]},
    {"i": 1, "j": 2, "value": ["1", "0", "0"]},
]}
SWEEP = {
    "catalog": [["su_n", 2]],
    "cor1": [{"s": 1, "k": ["su_n", 2]}],
    "urad": [{"s": 2, "k": ["su_n", 2]}],
    "kernel": [{"s": 1, "k": ["su_pq", 2, 1]}],
}

# (command, files) pairs
FILE_COMMANDS = [
    ("validate {DIR}/su2.json", {"su2.json": json.dumps(SU2)}),
    ("validate {DIR}/not_jacobi.json", {"not_jacobi.json": json.dumps(NOT_JACOBI)}),
    ("report all --params {DIR}/sweep.json", {"sweep.json": json.dumps(SWEEP)}),
    # no rule of decide_pointedness applies to split gl(1|1)
    ("urad pointed --k {DIR}/gl11.json", {"gl11.json": json.dumps(SPLIT_GL11)}),
]

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
    # kernel replays with irrational isotropic seeds: sqrt(3) for su(3|1) and
    # su(3|2), sqrt(2) for c(3)
    "urad verify --k catalog:su_pq:3,1 --s 1",
    "urad verify --k catalog:su_pq:3,1 --s 3",
    "urad verify --k catalog:su_pq:3,2 --s 1",
    "urad verify --k catalog:c_n:3 --s 2",
    "urad faithful --k catalog:su_n:2 --s 2",
    "urad faithful --k catalog:su_n:2 --s 3",
    "urad pointed --k catalog:su_pq:2,1",
    "urad pointed --k catalog:psu_pp:2",
    "urad pointed --k catalog:pq_n:3",
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
    "clifford gamma --mu 1,2,3",
    "clifford rep --seed 0",
    "clifford rep --seed 1",
    "clifford rep --seed 2",
    "clifford rep --seed 5",
    "clifford rep --seed 9",
    "current --A grassmann:1 --k catalog:su_n:2",
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


def probe_entry(argv: list[str]) -> tuple[list[str], dict]:
    """(argv, files) of a MALFORMED_ARGV probe: its directory stands as {DIR},
    and the inline contents of a validate or report all file go into
    {DIR}/input.json (validate drops the JSON path that precedes them)."""
    if argv[-1] == DIRECTORY:
        return argv[:-1] + [PLACEHOLDER], {}
    if argv[0] == "validate":
        argv = argv[:1] + argv[2:]
    elif argv[:2] != ["report", "all"]:
        return argv, {}
    return argv[:-1] + [f"{PLACEHOLDER}/input.json"], {"input.json": argv[-1]}


def entries() -> list[tuple[list[str], dict]]:
    """Every (argv, files) of the corpus, in order."""
    out = [(cmd.split(), {}) for cmd in COMMANDS]
    out += [(cmd.split(), files) for cmd, files in FILE_COMMANDS]
    for probe in map(probe_entry, MALFORMED_ARGV):
        if probe not in out:
            out.append(probe)
    return out


def run(argv: list[str], directory: str, files: dict) -> dict:
    """The transcript entry of one argv, with {DIR} standing for directory,
    after the files are written there."""
    for name, text in files.items():
        Path(directory, name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace(PLACEHOLDER, directory) for a in argv])
    lines = err.getvalue().replace(directory, PLACEHOLDER).splitlines()
    entry = {"argv": argv}
    if files:
        entry["files"] = files
    entry.update({
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_first_line": lines[0] if lines else "",
        "exit_code": code,
    })
    return entry


def record() -> list[dict]:
    out = []
    for argv, files in entries():
        with tempfile.TemporaryDirectory() as directory:
            out.append(run(argv, directory, files))
    return out


if __name__ == "__main__":
    corpus = record()
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(corpus)} entries to {CORPUS}\n")
