"""The CLI contract: the bytes ringmat prints and the exit lines it refuses with.

SCRIPT is a sh script of three shapes.  A `ringmat ARGS [> FILE]` line
must exit 0, or N where it ends in `# exit N`.  A `printf`/`echo` line
writes an input file.  An `expect_exit CODE LINE ARGS...` line passes when
`ringmat ARGS...` exits CODE with an empty stdout and the stderr LINE.  The
script replays once, in order, in one directory and in this interpreter
(conftest.run_sh_line), with the kernel caches warm from the tests before
it, so the pins also show that no output depends on cache state.  PINS
holds the sha256 of each file the script writes, in `sha256sum` shape.

To pin a new output: add its line to SCRIPT, run it with the console
script at the parent commit, and paste its `sha256sum` line into PINS.
"""

import hashlib
import json
import re
import shlex

import pytest

from conftest import run_cli, run_sh_line, sh_lines

SCRIPT = r"""
ringmat graph-stats --h 6 --m 2 --n 2 --r 1 --connectivity
ringmat graph-stats --h 12 --m 2 --n 2 --r 1 --connectivity
ringmat graph-stats --h 2 --m 3 --n 4 --r 2
ringmat color --h 5 --m 2 --n 2 --r 1 --seed 0
ringmat build-mrd --h 12 --m 2 --n 2 --r 1 --out mrd.json
ringmat verify-code --family mrd.json --d 2
ringmat build-clique --h 6 --m 3 --n 3 --r 1 --alpha 0,1 --out fam.json
ringmat classify-clique --family fam.json --r 1
printf '{"h":6,"rows":3,"cols":3,"entries":[[1,0,0],[1,1,0],[0,0,1]]}\n' > S.json
printf '{"h":6,"rows":3,"cols":3,"entries":[[1,2,0],[0,1,0],[0,3,1]]}\n' > T.json
printf '{"h":6,"rows":3,"cols":3,"entries":[[1,2,3],[4,5,0],[1,0,5]]}\n' > B0.json
ringmat build-clique --h 6 --m 3 --n 3 --r 1 --alpha 0,1 --S S.json --T T.json --B0 B0.json --out fam.json
ringmat classify-clique --family fam.json --r 1
ringmat verify-ekr --family fam.json --r 1
ringmat build-clique --h 11 --m 3 --n 3 --r 1 --alpha 0 --budget 1000000 --out fam11.json
ringmat classify-clique --family fam11.json --r 1
ringmat verify-ekr --family fam11.json --r 1 --budget 1000000
ringmat verify-ekr --family fam11.json --r 1
ringmat graph-stats --h 7 --m 2 --n 4 --r 1
ringmat build-clique --h 101 --m 2 --n 2 --r 1 --alpha 0 --out fam101.json
ringmat verify-ekr --family fam101.json --r 1
ringmat build-mrd --h 6 --m 2 --n 4 --r 1 --out c6.json
ringmat verify-code --family c6.json --d 2
ringmat color --h 2 --m 2 --n 16 --r 1 --seed 0
printf '6,10,15,21,35,30029\n' > tall.csv
ringmat snf --matrix tall.csv --h 30030 --rows 3 --cols 2
ringmat rank --matrix tall.csv --h 30030 --rows 3 --cols 2
ringmat graph-stats --h 32 --m 1 --n 2 --r 1 --exact --budget 1600
ringmat oracle clique --h 6 --m 2 --n 2 --r 1 --budget 1600
ringmat cover-complement --h 5 --m 2 --n 2 --r 1 --out cover.json
ringmat classify-clique --family fam.json --r 1 > classify6.json
ringmat verify-ekr --family fam.json --r 1 > ekr6.json
ringmat verify-code --family mrd.json --d 2 > code12.json
ringmat cover-complement --h 6 --m 2 --n 2 --r 1 --out cover6.json
printf '{"h":6,"rows":2,"cols":2,"members":[[[0,0],[0,0]],[[1,0],[0,1]]]}\n' > pair6.json
ringmat verify-ekr --family pair6.json --r 1 > ekrpair6.json  # exit 1
ringmat color --h 5 --m 2 --n 2 --r 1 --seed 0 --out color.json
ringmat color --h 6 --m 2 --n 2 --r 1 --seed 0 --out color6map.json
ringmat color --h 2 --m 3 --n 4 --r 2 --seed 0 --out color2map.json
ringmat orbits --h 16 --m 2 --n 2 > orbits16.json
ringmat orbits --h 3 --m 3 --n 3 > orbits3.json
ringmat orbits --h 27 --m 2 --n 2 > orbits27.json
ringmat orbits --h 4 --m 3 --n 3 > orbits4.json
ringmat orbits --h 2 --m 3 --n 4 > orbits2.json
ringmat orbits --h 8 --m 2 --n 2 --format csv > orbits8.csv
ringmat orbits --h 12 --m 2 --n 2 --verify-product > orbits12.json
ringmat orbits --h 6 --m 2 --n 3 --verify-product > orbits6.json
ringmat orbits --h 30 --m 2 --n 2 > orbits30.json
ringmat orbits --h 36 --m 2 --n 2 --format csv > orbits36.csv
ringmat orbits --h 15 --m 2 --n 2 --verify-product > orbits15.json
ringmat orbits --h 10 --m 2 --n 3 --verify-product > orbits10.json
ringmat graph-stats --h 7 --m 2 --n 2 --r 1 > stats7.json
ringmat orbits --h 12 --m 3 --n 2 --verify-product > orbits12tall.json
ringmat orbits --h 36 --m 2 --n 2 > orbits36.json
ringmat orbits --h 4 --m 4 --n 4 --budget 5000000000 > orbits4x4.json
ringmat orbits --h 9 --m 3 --n 3 --budget 400000000 > orbits9.json
ringmat orbits --h 27 --m 2 --n 2 --verify-product > orbits27product.json
ringmat orbits --h 7 --m 2 --n 4 --verify-product > orbits7product.json
ringmat orbits --h 9 --m 2 --n 3 --verify-product --budget 1000000000 > orbits9product.json
ringmat orbits --h 4 --m 3 --n 3 --verify-product > orbits4product.json
ringmat graph-stats --h 8 --m 2 --n 2 --r 1 --connectivity > stats8.json
ringmat snf --matrix tall.csv --h 30030 --rows 3 --cols 2 > snf30030.json
ringmat rank --matrix tall.csv --h 30030 --rows 3 --cols 2 > rank30030.json
ringmat snf --matrix tall.csv --h 9223372036854775808 --rows 3 --cols 2 > snf2p63.json
ringmat snf --matrix tall.csv --h 12157665459056928801 --rows 2 --cols 3 > snf3p40.json
ringmat rank --matrix tall.csv --h 510510 --rows 3 --cols 2 > rank510510.json
printf '6,10,15,21,35,0,12,18,20\n' > m360.csv
printf '6,10,15,21,35,30029,12,18,20,42,70,105,2,3,5,7\n' > m510510.csv
ringmat snf --matrix m360.csv --h 360 --rows 3 --cols 3 > snf360.json
ringmat snf --matrix m510510.csv --h 510510 --rows 4 --cols 4 > snf510510.json
ringmat rank --matrix tall.csv --h 9223372036854775808 --rows 3 --cols 2 > rank2p63.json
printf '7515114,1156053,10744257,9098668,3588356,12790302,9285187,14283666,14590208,10460634,15419840,10404556,1336204,9121620,12336552,6250384,1338852,12914541,3348690,357266,4638004,13768620,3876188,4343454,15839782,4236439,4331877,8183192,13597976,3781774,20503783,1868902,14381284,11134632,6479710,5243956,19369260,11416584,241466,1054988,10252296,6084942,11884284,18802460,1318480,12282816,9763616,19567980\n' > m6x8.csv
printf '7515114,14590208,1338852,15839782,14381284,10252296,1156053,10460634,12914541,4236439,11134632,6084942,10744257,15419840,3348690,4331877,6479710,11884284,9098668,10404556,357266,8183192,5243956,18802460,3588356,1336204,4638004,13597976,19369260,1318480,12790302,9121620,13768620,3781774,11416584,12282816,9285187,12336552,3876188,20503783,241466,9763616,14283666,6250384,4343454,1868902,1054988,19567980\n' > m8x6.csv
ringmat snf --matrix m6x8.csv --h 21337344 --rows 6 --cols 8 > snf6x8.json
ringmat snf --matrix m8x6.csv --h 21337344 --rows 8 --cols 6 > snf8x6.json
ringmat rank --matrix m6x8.csv --h 21337344 --rows 6 --cols 8 > rank6x8.json
ringmat rank --matrix m8x6.csv --h 21337344 --rows 8 --cols 6 > rank8x6.json
ringmat oracle clique --h 1600 --m 1 --n 1 --r 1 --budget 1600 > clique1600.json
ringmat graph-stats --h 40 --m 1 --n 2 --r 1 --exact --budget 1600 > stats40.json
ringmat graph-stats --h 6 --m 2 --n 2 --r 1 --transitivity-samples 200 --seed 3 > stats6transitive.json
ringmat graph-stats --h 12 --m 2 --n 2 --r 1 --transitivity-samples 200 --seed 3 > stats12transitive.json
printf '{"h":12,"rows":2,"cols":2,"entries":[[5,1],[2,3]]}\n' > S12.json
printf '{"h":12,"rows":2,"cols":2,"entries":[[1,4],[3,1]]}\n' > T12.json
printf '{"h":12,"rows":2,"cols":2,"entries":[[3,7],[10,5]]}\n' > B012.json
ringmat build-clique --h 12 --m 2 --n 2 --r 1 --alpha 2,1 --S S12.json --T T12.json --B0 B012.json --out fam12.json
ringmat classify-clique --family fam12.json --r 1 > classify12.json
ringmat verify-ekr --family fam12.json --r 1 > ekr12.json
ringmat build-clique --h 9 --m 2 --n 2 --r 1 --alpha 2 --out fam9.json
ringmat classify-clique --family fam9.json --r 1 > classify9.json
ringmat verify-ekr --family fam9.json --r 1 > ekr9.json
# the orbit tables of 2x2 matrices over Z_4 and Z_12, both formats, with and without the product check
ringmat orbits --h 4 --m 2 --n 2 --verify-product > orbits4x2product.json
ringmat orbits --h 4 --m 2 --n 2 --format csv > orbits4x2.csv
ringmat orbits --h 4 --m 2 --n 2 --format csv --verify-product > orbits4x2product.csv
ringmat orbits --h 12 --m 2 --n 2 > orbits12x2.json
ringmat orbits --h 12 --m 2 --n 2 --format csv > orbits12x2.csv
ringmat orbits --h 12 --m 2 --n 2 --format csv --verify-product > orbits12x2product.csv
expect_exit 3 "budget exceeded: 12^400 matrices exceed the budget 10000000" orbits --h 12 --m 20 --n 20
expect_exit 3 "budget exceeded: 30030^5 candidate pairs for rank 1 exceed the budget 200000" \
  oracle rank --matrix tall.csv --h 30030 --rows 3 --cols 2
expect_exit 3 "budget exceeded: 1000000000 transitivity samples exceed the budget 10000" \
  graph-stats --h 2 --m 2 --n 2 --r 1 --transitivity-samples 1000000000
expect_exit 3 "budget exceeded: 24300000 kernel steps exceed the budget 10000000" \
  graph-stats --h 2 --m 30 --n 30 --r 1 --connectivity
expect_exit 2 "error: --transitivity-samples must be >= 0" \
  graph-stats --h 2 --m 2 --n 2 --r 1 --transitivity-samples -1
expect_exit 2 "error: --samples must be >= 0" color --h 2 --m 2 --n 11 --r 1 --seed 0 --samples -1
expect_exit 2 "error: dimensions must be positive, got 0x2" orbits --h 4 --m 0 --n 2
expect_exit 2 "error: --budget must be >= 0" orbits --h 4 --m 2 --n 2 --budget -1
expect_exit 2 "error: no check numbered 99" selftest --only 99
expect_exit 3 "budget exceeded: 1000000000 sampled pairs exceed the budget 10000" \
  color --h 2 --m 2 --n 11 --r 1 --seed 0 --samples 1000000000
expect_exit 3 "budget exceeded: 6^2 - 1 rank checks exceed the budget 34" \
  build-clique --h 6 --m 2 --n 2 --r 1 --alpha 0,0 --budget 34
expect_exit 3 "budget exceeded: 101^2 - 1 rank checks exceed the budget 50" \
  graph-stats --h 101 --m 2 --n 2 --r 1 --budget 50
expect_exit 3 "budget exceeded: 1330 rank checks exceed the budget 100" \
  verify-ekr --family fam11.json --r 1 --budget 100
expect_exit 3 "budget exceeded: 143 rank checks exceed the budget 10" \
  verify-code --family mrd.json --d 2 --budget 10
printf '{"h":6,"rows":2,"cols":2,"members":[[[0,0],[0,0]],[[1,true],[0,0]]]}\n' > bool.json
printf '{"h":6,"rows":2,"cols":2,"members":[[[0,0],[0,0]],[[1,6],[0,0]]]}\n' > range.json
printf '{"h":6,"rows":2,"cols":2,"members":[[[0,0],[0,0]],[[1,2],[0]]]}\n' > ragged.json
printf '{"h":6,"rows":2,"cols":2,"members":[[[0,0],[0,0]],[[1,\377],[0,0]]]}\n' > ff.json
expect_exit 2 "error: entry of member must be an integer, got True" classify-clique --family bool.json --r 1
expect_exit 2 "error: entry 6 of member out of range for modulus 6" classify-clique --family range.json --r 1
expect_exit 2 "error: each row of member must have 2 entries" classify-clique --family ragged.json --r 1
expect_exit 2 "error: cannot read ff.json: 'utf-8' codec can't decode byte 0xff in position 54: invalid start byte" \
  classify-clique --family ff.json --r 1
# big.json, one member whose second entry is 5000 digits long, is written by the replay;
# $limit is the interpreter's own digit-limit message
expect_exit 2 "error: big.json is not valid JSON: $limit" classify-clique --family big.json --r 1
expect_exit 3 "budget exceeded: 2^18 - 1 rank checks exceed the budget 100000" \
  cover-complement --h 2 --m 3 --n 9 --r 2 --budget 200000000
"""

PINS = """
fd9068f0ae2be607e626540dbb8c0f46ba02bed1b2e1726ca0d32df6411bb2b8  mrd.json
d5c2ac73b3c4e2b177eca963050f4dd01a156905b3d3ade19091106b8b099a4c  fam.json
a0c191cf8157f8fcb8d7cc163666ca73ddf6a9e1ccec5b50ed42305600f5dd0d  c6.json
882515e73099f7bc92dc5274cd7197ec5ffe31fd65b89b2b969e67d6dc35c511  cover.json
fe4513fcb75f7887740f03379db63b82b4e83c7e1f78e085457515406bc901fc  color.json
b44af7b2723579fdfa8a638f5588da4ae9ef598fcaa97f8318ca15f4b0a0d809  color6map.json
366eb7b22859eeeb25db86cf5dc246844ab53432c79ed8c346ac05eb6e06479e  color2map.json
674c90aa38a68efa4f3f74af294b02f6cc53e3cf183e465d8c6cf6c7347e8161  orbits16.json
dd5ec23a9fe11cf5479db9bb8daabdb57cf2767398add65e66e6c1bacfcebdff  orbits3.json
9e44c6d7a7df61d9b61c3e4779de2b0788d4eebecacc2f5285ea185d0bb4bcf2  orbits27.json
0d8f4999d4562f6f2610c94d63d9345f03fa5aed9ea6b5e6bc28412f1bb02349  orbits4.json
0d0956a0400c664812be40d09ed89eb2b0bdc53cc991ee78ab6ecdc505ce131d  orbits2.json
48566519cfb24f8f8e4f5d1ff9b6010204afe6587e8db62349dec9fff3143a90  orbits8.csv
7041c3fc8c6f38db7421d56eeb318065a8ec618357f108095d06511f6f157fa9  orbits12.json
3a547e374f166fd92ee7df66c1198b987ca113cc82a26070a3234b07bebec761  orbits6.json
2848949c75dec34bd5b36c43edceed8cbc13955020c78fb7c55402a98986f4b6  orbits30.json
b162e0617f7202a21a2abc58bd9af6d4f61fb291837e7fd120ddda6a13e5c3ca  orbits36.csv
21dfad5c896879cae26beedb745a5e797919a3f265320ee6dc20976c07a8b3b3  orbits15.json
ad0815386418799a58f75b7c6ea11c7ff443f3a7f538b994e4f337f90c8d57f3  orbits10.json
92379bc572b9c4e1d457334b8b370d10b1374cf12b5a0af7f2f61920450cbb52  stats7.json
d606b4046f883788f5e9d924d9efd881c2bc130943fb8639e6368fce253714d3  orbits12tall.json
563024eb343c09029bd966fa9eb252a8363ea2cdd98c4d2854ecfdc475c1f80e  orbits36.json
9164374cd6845530260bdbbfc035d9073b8334291f690f956b5c48c9384c81f5  orbits4x4.json
044e62e4f82961d1ec4b222dd745c3ae782d121f7eaf6e01a58e8e80fe600385  orbits9.json
e206bb9f73beab51559b7b75dc5d2792c5cec4118443132e61c0efb7106cb805  orbits27product.json
87086b6120799e86270bd9c2540e3e32a87707be0dd8b31e7a4ce3a42465437f  orbits7product.json
299702eba3f91a1fb90f8bdbed89babf674db7a7cbe682f8d543475d8dc52b19  orbits9product.json
0082fc56c671d3834f1883d577e020bab4aafe69c027f5172754cd3903cea391  orbits4product.json
93aa75fbab01eeba81fc74a191438d98e1047bd2ce22ba444428d159c37f3943  stats8.json
acec144a9955a1410ea899fd685d7035294e0dec7c4739a06cbf2c46ea1eec82  snf30030.json
de03df1c3b3308bdd65ba1105fa17649a254438deae2a6ad735f8943cdebb47a  rank30030.json
050a809106e24613dbec1c3d3546d676b9168f22ff444dd5afb5f0ea43f73e2b  snf2p63.json
4034b253eff2bb04f6400eaf57e92d80689cec6171b53ff1d4231a1a0307e90d  snf3p40.json
6a2e2853f5138a7a0fc5496b589f3a7508f07c8e6804197e414b9ea02606bf81  rank510510.json
93cada18139322319793f9a7ba83ae777c37a3f942cd313b3c5b495fe9e4299d  clique1600.json
dbd0995386e4adca411df6dc0eedc49d22261d219e3015bdfc91c58907a7350f  stats40.json
d8c61c4b9df8b9218af984d3d0ce2c23b621273573ac1eee47482ae73fcf072d  snf360.json
4d6d37a973f08ec98da566e176cbd2fe126e374b0605987c49facb85b398ecb6  snf510510.json
fca509ef101431478362876ac0915edee3d9a9591691d399cb80fefaa87d39bc  rank2p63.json
0c87c69b47cfec5e6afc2dc2e123645b9ba25dbb66e5b0183e9e9dfc8f0560e7  snf6x8.json
7df2e4f781493a5de943910371bceab1df0241a6623ff0000c0f71b8b4d0770c  snf8x6.json
17265c13e608a2c338f48e2d84261bad9cfe35cbda397149ee4b93b9ed6973a8  rank6x8.json
35148abbecebee831fc8cc7b6c872c6e5d4ea8f810f8075d8ec1bc7e5a1114b8  rank8x6.json
adf73635ba27e45661b4d032bc372a8f0ef3978276c98414007213cdfc01b40c  stats6transitive.json
72a8057ac0343895250a840dba7c0a00b69b44ebe6872a44a37df9b78b901b31  stats12transitive.json
389fea916c154f36cc9c1002d4c288ff4a3ba2ac5d8ca80de13753fa9686a26c  classify6.json
2f00a8294f977f30ffac8670f739be22daa0679c26cea4fb7e90a7f1cb536036  ekr6.json
bc798afc24a80b3f855cfc10fde096a3a5177fdc8ae9c37b20314ea2a6ce070c  code12.json
d5a93aa9d0fdcac41292e913bc12aa209431a0accc98f9b6ccce71adc7465eab  cover6.json
d8c3017540e8d24a9fa30aa5e61bf5fd0f1d1a28cc741ce5be7bfe0799676ed0  ekrpair6.json
0f24168c7f3bff7396a5e1ef9db33141bb0e663cdd25f4c02d1841aef75b43c2  fam12.json
b19b66579660bccb40c036954e9b876da46a41594815716501b8513671987406  classify12.json
cba7a812c2901e6612bdae60df84b6acf44f10b36c44c702ad6730bd6ec078a0  ekr12.json
17ea48e511297cd1bcfb325eeb94741f6d3551bd2bda684ad63e1b7c0acc02df  fam9.json
e98ea9eba1357662fad822a1cbb66bf113f4ec69b75e63465bc6ce4701d044cf  classify9.json
7bd3f49a05ba7991755817be0fdc5f14a9b90f6035cc377c4bd6f5dae83679cf  ekr9.json
45e10601e413b0d7be2a0813f5212ffe0ef55f055727e1e2a428d8123fa229c7  orbits4x2product.json
8d4b126cdc5259060df1b3b402f4772162620859cb681c6a015f10a03746a346  orbits4x2.csv
8d4b126cdc5259060df1b3b402f4772162620859cb681c6a015f10a03746a346  orbits4x2product.csv
9a74d626e084803a358cd6576260d14e35a38017fa4a0b809bae4f1fc4304058  orbits12x2.json
c326cc8da302e11ad5fca4167dcd72166a5a9f679b56ab5a4a96582cf792964e  orbits12x2.csv
c326cc8da302e11ad5fca4167dcd72166a5a9f679b56ab5a4a96582cf792964e  orbits12x2product.csv
"""
DIGESTS = {name: digest for digest, name in map(str.split, PINS.strip().splitlines())}
REFUSALS = {shlex.join(words[3:]): (int(words[1]), words[2])
            for words in map(shlex.split, sh_lines(SCRIPT)) if words[0] == "expect_exit"}


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """Run SCRIPT once in a fresh directory: the failed ringmat lines, and each refusal's (code, stdout, stderr)."""
    directory = tmp_path_factory.mktemp("contract")
    failed, refusals = [], {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        (directory / "big.json").write_text('{"h":6,"rows":2,"cols":2,"members":[[[1,%s],[0,0]]]}\n' % ("1" * 5000))
        for line in sh_lines(SCRIPT):
            words = shlex.split(line, comments=True)
            if words[0] == "expect_exit":
                refusals[shlex.join(words[3:])] = run_cli(words[3:])
                continue
            result = run_sh_line(line)
            want = re.search(r"# exit (\d+)$", line)
            if result is not None and result[0] != (int(want[1]) if want else 0):
                failed.append(f"{line}: exit {result[0]}\n{result[2]}")
    return directory, failed, refusals


def test_every_ringmat_line_exits_as_written(replay):
    _, failed, _ = replay
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_pinned_bytes(replay, name):
    directory, _, _ = replay
    assert hashlib.sha256((directory / name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("command", list(REFUSALS))
def test_refusal(replay, command):
    code, text = REFUSALS[command]
    if "$limit" in text:
        try:
            json.loads("1" * 5000)
        except ValueError as exc:
            text = text.replace("$limit", str(exc))
        else:
            pytest.skip("this interpreter has no digit limit")
    assert replay[2][command] == (code, "", text + "\n")
