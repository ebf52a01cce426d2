"""Byte-identical stdout for fixed flags and seeds.

Each digest is the sha256 of the command's stdout.  The commands are the two
README sweeps, one sweep per remaining family (first parameter varied, the
rest at their defaults), a short seeded search per search family, the README
standing-wave density case and three traveling-wave density cases (3-D,
aligned JSON, skew CSV) on 16-point grids, and a two-draw verification.
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
     "e80c81c760cf8b27cb3a6c16bc36844f37978fe6d228aff9a61b6c2c90574468"),
    ("search --family coherent-pair-free --starts 4 --seed 42 --format json",
     "60d946390ca9321a3f7bbae30947b7d5e90907edc154b60d1dab83f0d18b62df"),
    ("search --family vacuum-squeezed --starts 4 --seed 42 --format json",
     "93c112bc91832a39a8d8184d40dd58390590263af139395b350d31e0fddb5985"),
    ("density --family barnett-radmore --set r=1 --geometry standing:1:2:1 --window 8 --grid-n 16",
     "a99f745f0806c39f0c3df9b60187e5c62fac5a390bfef20a503dfa7c6ec91c68"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:2:0 --window 8 --grid-n 16",
     "e95c1683ef134610855171ca7b0237582be4f16b93c64834518235496d6259dc"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:2:1 --window 8 --grid-n 16 --format json",
     "01171a36409dc692911055004c27a05b23246c1b5b9d038b7c7e7bb05b09724a"),
    ("density --family barnett-radmore --set r=1 --geometry traveling:1:1:0.3 --window 8 --grid-n 16",
     "9fdb224495fa4159d3a937dd045e531bd2a40b3c462002f3f2910da149c85b8d"),
    ("verify --draws 2 --seed 7",
     "5e2b9db5b1ae5c1d93596bccd1cea923bf635c7055013727d2e8b5f7ccd5874f"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
