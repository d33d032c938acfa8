"""Replay the committed CLI transcript corpus (tests/cli_transcripts).

Every entry's stdout hash, first stderr line and exit code must match, so a
change that moves any byte of these reports shows here.  An entry's input
files are written into the directory that {DIR} stands for.  After an intended
change of output, rewrite the corpus with tests/cli_transcripts/regenerate.py.
"""

import hashlib
import json
from pathlib import Path

import pytest

from superlie.cli import main

CORPUS = json.loads((Path(__file__).parent / "cli_transcripts" / "corpus.json").read_text())
PLACEHOLDER = "{DIR}"


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_cli_transcript(entry, capsys, tmp_path):
    directory = str(tmp_path)
    for name, text in entry.get("files", {}).items():
        (tmp_path / name).write_text(text)
    code = main([a.replace(PLACEHOLDER, directory) for a in entry["argv"]])
    captured = capsys.readouterr()
    lines = captured.err.replace(directory, PLACEHOLDER).splitlines()
    assert code == entry["exit_code"]
    assert (lines[0] if lines else "") == entry["stderr_first_line"]
    assert hashlib.sha256(captured.out.encode()).hexdigest() == entry["stdout_sha256"]
    if code == 2:  # a usage error prints nothing on stdout
        assert captured.out == ""
