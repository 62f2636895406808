"""The README's command-line examples run as written.

Every ``semilie ...`` line of the README's shell blocks runs in-process
through ``cli.main`` and must exit 0.  Where the trailing comment is the
printed value, stdout must be exactly that value.  ``volumes`` and
``verify all`` are left to the acceptance suite, which runs them in full.
"""

import re
import shlex
from pathlib import Path

import pytest

from semilie.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# The examples whose comment is what they print, by the argv they start with.
PRINTS_COMMENT = (["orbital", "-r", "1"], ["derivative"], ["gk"], ["bc", "s3", "-r", "1"])


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) of each ``semilie`` line in a ```sh block."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL):
        for line in block.splitlines():
            if line.startswith("semilie "):
                examples.append((shlex.split(line, comments=True)[1:], line.partition(" # ")[2].strip()))
    return examples


EXAMPLES = [
    (argv, comment)
    for argv, comment in readme_examples()
    if argv[0] != "volumes" and argv[:2] != ["verify", "all"]
]


def test_examples_found():
    assert len(EXAMPLES) >= 10
    assert sum(any(argv[: len(head)] == head for head in PRINTS_COMMENT) for argv, _ in EXAMPLES) == 4


@pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[shlex.join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, comment):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if any(argv[: len(head)] == head for head in PRINTS_COMMENT):
        assert out == comment + "\n"
