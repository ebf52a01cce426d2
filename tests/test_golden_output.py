"""Byte-identical stdout for fixed flags and seeds.

Each digest is the sha256 of the command's stdout.  The commands are the two
README sweeps, one sweep per remaining family (first parameter varied, the
rest at their defaults), two sweeps of several thousand rows (one CSV, one
JSON with a degenerate row), a short seeded search per search family, the
64-start coherent-pair search that the benchmark times, the README
standing-wave density case, three traveling-wave density cases (3-D,
aligned JSON, skew CSV), a one-mode standing case, a one-mode superposition
on a skew traveling grid, an antiparallel traveling case and three skew
traveling cases with two, four and no occupied channels, all on 16-point
grids, a JSON sweep whose first row has denominator 0, and a two-draw
verification.
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
     "38c75fb297115184eb20c058463c503685871ddf71f2be83f58a343bbad49066"),
    ("sweep --family barnett-radmore --sweep r=0:2:20",
     "be54e9dfd3d079f54ba01f4780d3e9c07deadcedaea23919e685d74638283997"),
    # F from its own closed form: 9.00281296e-07 at sigma = 2, the exact value rounded.
    ("sweep --family entangled-coherent --sweep sigma=0:2:20",
     "cc52d7610c3cc74c0bbf50f6a884d2db1de168602d3e55cc11e69803b32f143e"),
    ("sweep --family ecs-f --sweep sigma=0:2:20",
     "4ad9b59be745e6e84edc587a4260e6857db99d76fed01b899f0cb73a744205d5"),
    # Sweeps that span several row blocks; the JSON one opens on a degenerate row.
    # 26 F cells move in the ninth digit; all 9,001 are the exact values rounded.
    ("sweep --family entangled-coherent --sweep sigma=0:2:9000",
     "02b8421a4c005fddeb388d6d634f8e9b47124b4cdd3eacf53b6a5f49eef75944"),
    ("sweep --family vacuum-squeezed --set eta=-1 --sweep r=0:1:5000 --format json",
     "209707941f82dd1b90d8ebff13a439f728c1303c78bb411cf6b94cd243d80340"),
    # gamma is arctan2's own, no longer shifted through (gamma + pi) mod 2 pi - pi,
    # which rounded it to a multiple of 2^-51: only gamma cells move, three in
    # the first search (2.909154326324881e-07 -> 2.9091543274916704e-07), one
    # in the free search (1.7761350002738645 -> 1.7761350002738643), 24 in the
    # 64-start one (rank 22: -5.114606516087861e-10 -> -5.114607509240847e-10).
    ("search --family coherent-pair --starts 4 --seed 42 --format json",
     "33c7c270ef8a463b6950e90288663f6005ac2feb21a4021100b2aed39957a785"),
    ("search --family coherent-pair-free --starts 4 --seed 42 --format json",
     "72c3689c2b8ed71341c06d3e030a5caae5926edd5c0269c73f7112b141e6ef2e"),
    ("search --family vacuum-squeezed --starts 4 --seed 42 --format json",
     "20e331aee3a73d9d301040e7a3516e7acd27bc4bea48077f718addd1030c3f79"),
    # Rank 21's F is read at its returned point, after a failed line search:
    # 1.0864637189911264e-08, not the last trial's 1.0864635413554424e-08.
    ("search --family coherent-pair --starts 64 --seed 42 --format json",
     "e55b6d2b34b273da499cbcec15379e66c1506eb15b69c30a710d04028eccbccd"),
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
    ("density --family coherent-squeezed --geometry traveling:1:2:0 --grid-n 16",
     "733cb911f5f7e5b608120ec3e71dc98f1d1e1ac4fbfd295a7f92b712d281080d"),
    # Occupied channels on a skew grid: zhang two (1, 2), entangled-coherent
    # all four, vacuum none.
    ("density --family zhang --geometry traveling:1:2:0.3 --grid-n 16",
     "816220caccd32e21ca66c34ebdaf4bb87fca9512dadae9adb683cfff8252d351"),
    ("density --family entangled-coherent --geometry traveling:1:2:0.3 --grid-n 16",
     "6484b7e4c7f8fb5b3099ab6383b213becb0ecda4dea6b3a67e61b865dd191f30"),
    ("density --family vacuum --geometry traveling:1:2:0.3 --grid-n 16",
     "4d3bcc1ed394e0e5dea298a7e5ff21175fe71103a2e857c15142a4df8c730635"),
    # The cancellation-free denominator moves n and F in their last digits, nearer 50-digit values.
    ("sweep --family superposed-squeezed --set eta=-1 --sweep r=0:0.5:20 --format json",
     "dc9f5cb3c7182f2fe8285516cc58e3cf60824d3ed4f3d4486cfc31fde295f22d"),
    # The superposed-squeezed deviation moves at rounding level: 1.61426428e-13 -> 1.62314606e-13.
    # Comparing the stored complex channels moves five deviation cells at
    # rounding level: coherent-pair 4.80636718e-13 -> 4.80897765e-13,
    # coherent-squeezed 1.6097851e-14 -> 1.72738715e-14, vacuum-squeezed
    # 3.76587651e-13 -> 3.7658765e-13, barnett-radmore 1.40433339e-15 ->
    # 8.95090418e-16, entangled-coherent 1.19574679e-15 -> 1.13220977e-15.
    ("verify --draws 2 --seed 7",
     "cfd36ab480bbb8cbe2f44b20f850af4eb595f134dc1d3cb080bc7399cb1ddf01"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
