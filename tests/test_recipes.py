"""The README's Recipes block runs as written: every command exits 0.

The commands are read out of README.md, not copied here.  A `ringmat ...`
line runs in-process through ringmat.cli.main, and an `echo '...' > FILE`
line writes its file, in an empty directory; a line of any other shape
fails the test, so the block stays runnable by hand.
"""

import re
import shlex
from pathlib import Path

from ringmat.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _recipes():
    """The command lines of the first sh block under the README's Recipes heading."""
    section = README.read_text(encoding="utf-8").split("\n## Recipes\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [argv for argv in (shlex.split(line, comments=True) for line in block.splitlines()) if argv]


def test_every_recipe_exits_zero(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    recipes = _recipes()
    assert sum(argv[0] == "ringmat" for argv in recipes) >= 10
    for argv in recipes:
        if argv[0] == "echo" and len(argv) == 4 and argv[2] == ">":
            Path(argv[3]).write_text(argv[1] + "\n")
            continue
        assert argv[0] == "ringmat", f"not a ringmat command or an echo into a file: {shlex.join(argv)}"
        assert main(argv[1:]) == 0, shlex.join(argv) + "\n" + capsys.readouterr().err
