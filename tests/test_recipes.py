"""The README's Recipes block runs as written: every command exits 0 and prints its pinned bytes.

The commands are read out of README.md, not copied here.  The block runs
once, in order, in an empty directory, through conftest.run_sh_line: a
`ringmat ...` line runs in-process through ringmat.cli.main, and an
`echo '...' > FILE` line writes its file; a line of any other shape fails
the test, so the block stays runnable by hand.  PINS holds the sha256 of
each ringmat line's output: its --out file where it has one, else its
stdout.  The README's Python blocks run too, in order and in one namespace,
so that a renamed library name fails here.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from conftest import run_sh_line, sh_lines

README = Path(__file__).resolve().parent.parent / "README.md"

PINS = {line: digest for digest, line in (row.split("  ", 1) for row in """
40a08a178fb1156679698ef0510b167fd609ae95c385e4d7127d2455e3671468  ringmat orbits --h 4 --m 2 --n 2
5cde8747aabf9d44569858589e6e3b42f464c9c1b9d88f6acaa4dbd27e79ad86  ringmat orbits --h 12 --m 2 --n 3 --verify-product --format csv
d993f29a2aa7764fec4c40d2ee20277d7aba1af304bb03c95daf888e55637b23  ringmat graph-stats --h 6 --m 2 --n 2 --r 1 --connectivity --transitivity-samples 500 --seed 0
25328d1d8401395d4b93fa279ac2f24256d8edfb1444e2ab69fe33163440f43f  ringmat graph-stats --h 4 --m 2 --n 2 --r 1 --exact
1e1f78e703c2f80432211d6310a66daa92a7f9ba6f19123f13704dc22f3a707c  ringmat build-clique --h 6 --m 2 --n 2 --r 1 --alpha 0,0 --out k00.json
5cfe4f21b10721ac28bca2747312255ac59f6bc7c76b513cfdeffec2e26abd43  ringmat verify-ekr --family k00.json --r 1
073e42e40629893b0a9dc82cb8f466f0d8cdec6e8c80ae6661814766beb05950  ringmat build-clique --h 6 --m 2 --n 2 --r 1 --alpha 0,1 --out k01.json
19e550eae9d34448628864cbc14e671dc8b0fae010c8902bdbb590af66a8216e  ringmat verify-ekr --family k01.json --r 1
1af32766d0cbd3eac741ce79cb747be5b4fa4b0f6abc089b2568fb034601e6a0  ringmat build-clique --h 6 --m 2 --n 2 --r 1 --alpha 1,0 --out k10.json
8fc2099fd85ad9c2c6ce461c4f18e90ec1488e1d1911a95f8ba30b8430a4edca  ringmat verify-ekr --family k10.json --r 1
72d272353d0a4faa42dd82c275509d2b2f06400481780c3be88823e2c9f8434e  ringmat build-clique --h 6 --m 2 --n 2 --r 1 --alpha 1,1 --out k11.json
691e3125b5d177a0bb1683a270dab49e091132bacfdbd496c05ec226e51d7126  ringmat verify-ekr --family k11.json --r 1
acc972163cf44e0ce487c3aab023447fd61d780463be0521c807cc0518249331  ringmat build-clique --h 6 --m 2 --n 2 --r 1 --alpha 1,0 --S left.json --T right.json --B0 shift.json --out disguised.json
5bb24859cd0b680f3519e063c73dbc75bab56c2409b40f1f5d6745ec028fc646  ringmat classify-clique --family disguised.json --r 1
cd562e10d7229acceaf2025f979831621834d6278ef247eaa2b36b6ac48cfc03  ringmat build-mrd --h 6 --m 2 --n 2 --r 1 --out code.json
84454eb941e4da88cb87762032e6945dbb1096567e5520a11605d568ad33bd00  ringmat verify-code --family code.json --d 2
9524e710f9d0c5819f22e4d261c1da8deda0d61cf070d36e33909810dbe3468f  ringmat color --h 6 --m 2 --n 2 --r 1
""".strip().splitlines())}


@pytest.fixture(scope="module")
def recipes(tmp_path_factory):
    """Each ringmat line of the first sh block under the README's Recipes heading: (exit code, stderr, digest)."""
    section = README.read_text(encoding="utf-8").split("\n## Recipes\n", 1)[1]
    directory = tmp_path_factory.mktemp("recipes")
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        for line in sh_lines(re.search(r"```sh\n(.*?)```", section, re.S).group(1)):
            result = run_sh_line(line)
            if result is not None:
                code, out, err = result
                words = shlex.split(line, comments=True)
                data = Path(words[words.index("--out") + 1]).read_bytes() if "--out" in words else out.encode()
                runs[line] = code, err, hashlib.sha256(data).hexdigest()
    return runs


def test_every_recipe_exits_zero(recipes):
    assert len(recipes) >= 10
    assert [f"{line}: exit {code}\n{err}" for line, (code, err, _) in recipes.items() if code] == []
    assert sorted(recipes) == sorted(PINS), "every recipe line and only those has a pin"


@pytest.mark.parametrize("line", list(PINS))
def test_recipe_output_is_pinned(recipes, line):
    assert recipes[line][2] == PINS[line]


def test_the_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["form"].tag == "MixedForm" and len(namespace["fam"]) == 36
