"""Byte-identical stdout for fixed flags and seeds.

Each digest is the sha256 of the command's stdout.  The commands are the two
README sweeps, one sweep per remaining family (first parameter varied, the
rest at their defaults), a short seeded search per search family, the
64-start coherent-pair search that the benchmark times, the README
standing-wave density case, three traveling-wave density cases (3-D,
aligned JSON, skew CSV), a one-mode standing case and an antiparallel
traveling case, all on 16-point grids, and a two-draw verification.
A refactor that keeps results must keep every digest; a change that alters
output on purpose re-records them and says why.
"""

import hashlib

import pytest

from subvacuum.cli import main

GOLDEN = [
    ("sweep --family squeezed-vacuum --sweep r=0:3:30",
     "894f67fcff5efabac592993667beed299ea0348b19af7f771918572c9944152f"),
    ("sweep --family zhang --set theta=0.99pi --sweep r=0.001:0.02:40",
     "29789e77c2a57e16ee9d99abb856e622002ad637fbc5d205fbc8b4621850308f"),
    ("sweep --family coherent-pair --sweep alpha=0:2:20",
     "a666c50de2ea8fc90b5c36809e71407f09e3a6bb698830a37e2ea8dd772cd0cd"),
    ("sweep --family superposed-squeezed --sweep r=0:2:20",
     "cf0d1b9f43a53c0060c4d4172c232469492be8230ba36e3f7c48c98207b560ce"),
    ("sweep --family coherent-squeezed --sweep r=0:2:20",
     "caa8625d621f5211c0a221da05f0804db5dce375a1bf6482552738f02337de58"),
    ("sweep --family vacuum-squeezed --sweep r=0:2:20",
     "f23bbbceb55bdb0695a8f01e835890b1911af8d72112ba03672f21a2a687a3a0"),
    ("sweep --family barnett-radmore --sweep r=0:2:20",
     "be54e9dfd3d079f54ba01f4780d3e9c07deadcedaea23919e685d74638283997"),
    ("sweep --family entangled-coherent --sweep sigma=0:2:20",
     "21faad89d09c57cd452deb30e4211b99eeba4e247d77ebc2242bf2ed58ac13d9"),
    ("sweep --family ecs-f --sweep sigma=0:2:20",
     "4ad9b59be745e6e84edc587a4260e6857db99d76fed01b899f0cb73a744205d5"),
    ("search --family coherent-pair --starts 4 --seed 42 --format json",
     "27d256a8871e6ea37a6fb95558bb59b39e0cf51b8bbd3cd520fa0d1062ffa94f"),
    ("search --family coherent-pair-free --starts 4 --seed 42 --format json",
     "e67c36213360b02bbc09595a2ee14ff00132e2a01d92d0fbface438315ceb8b8"),
    ("search --family vacuum-squeezed --starts 4 --seed 42 --format json",
     "2e9e4afc6b3b9d950cebe5e0cc2ef2f223ad5214849192fed41367d8022f7458"),
    ("search --family coherent-pair --starts 64 --seed 42 --format json",
     "f13c92e8f449336c27565af658d8c99e756c189275037cc57665346f1684c077"),
    ("density --family barnett-radmore --set r=1 --geometry standing:1:2:1 --window 8 --grid-n 16",
     "a99f745f0806c39f0c3df9b60187e5c62fac5a390bfef20a503dfa7c6ec91c68"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:2:0 --window 8 --grid-n 16",
     "e95c1683ef134610855171ca7b0237582be4f16b93c64834518235496d6259dc"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:2:1 --window 8 --grid-n 16 --format json",
     "01171a36409dc692911055004c27a05b23246c1b5b9d038b7c7e7bb05b09724a"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:1:0.3 --window 8 --grid-n 16",
     "9fdb224495fa4159d3a937dd045e531bd2a40b3c462002f3f2910da149c85b8d"),
    ("density --family squeezed-vacuum --geometry standing:1:1:1 --grid-n 16",
     "8079011f7605a1b008615ded2a5092b1036853ceba51fc750887d55200eebe73"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:2:-1 --grid-n 16",
     "772087dc51b265498048abe1d7c74c490783759a1490d20ed2bd34ae0b8a23bc"),
    ("verify --draws 2 --seed 7",
     "fda0b1165d2a280e064ada1464e233175b70c053a9f6ed3032c2e386c5bcdd8e"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
