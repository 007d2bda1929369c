"""Pinned sweep payloads: the sha256 of the CLI's stdout for a fixed set of
sweeps, so that any refactor of the instance spaces, the samplers or the
kernels that moves a byte of a payload fails here in seconds.

The rows cover every claim at n=2 exhaustive, the `IDEM_ydwed` and `L1_3`
n=3 spaces serial and at `--jobs 2`, one n=3 random sweep per sampler, and
every claim that builds attractor families or hull tables of a flow at n=3
exhaustive (`B2_3d` at n=4, whose power-set space also takes the weak
route), and the generator-set spaces whose factors are built once per space
(`K3_9` at n=3 exhaustive and n=4 random, `L1_3` at n=4), and the
closure sweeps of the benchmark (`IDEM_ydwed` at n=4 under both
conventions, whose `nonempty` sweep keeps 32 of its 470 failures'
witnesses, `S3_8_all` at n=3 and `L3_1` at n=8 under both conventions),
and the systems space above n=4, which only random mode reaches
(`IDEM_ydwed` at n=6, `B3_6` at n=5), and the fibration claims `B3_6` and
`B3_7` at n=3 exhaustive under both conventions.
A deliberate change of payload must update this table and record the old
and new hashes in CHANGES.md.
"""

import hashlib

import pytest

from hullflow.cli import main

#: (sweep arguments after `hullflow sweep`, exit code, sha256 of stdout).
#: A row that needs global flags gives them, followed by `sweep`.
PINNED = [
    ("S1_1 --n 2 --exhaustive", 0,
     "f92387928a958e3099f70a8b0214dbfeee5abba71b6ef8af8e5e6f37f5c6996d"),
    ("K1_2 --n 2 --exhaustive", 0,
     "bb25c9b5f7852301b18ae380045ec4b5a40667bdcf46f799a542e2c3679c19c0"),
    ("L1_3 --n 2 --exhaustive", 1,
     "203747d75d0c5875ed14a6d7f302f80f6a74c7c99f4b6a6f8fd84513f5755802"),
    ("S2_2 --n 2 --exhaustive", 1,
     "c128ea0ff8bf68b5a6f8f21d6cc1900fd5d74295e8f0fd5c77e3c6f35b44d7dc"),
    ("B2_3d --n 2 --exhaustive", 0,
     "9f27850c5ebf614bcb11efbe189b349685b60d446a5ea849a700b9dd52d0e440"),
    ("L3_1 --n 2 --exhaustive", 0,
     "d24f7d44b88bb73b179e8c035b2a39cb97dca42fa160a6976a891f235ede7265"),
    ("B3_2 --n 2 --exhaustive", 1,
     "85100af2684b06a559aa7eb35e56d17664240407a7ab30a7a6610438f650ab86"),
    ("S3_3 --n 2 --exhaustive", 1,
     "f7df631ceea0a268ea94629c284fe55ad6aba2bf6a2b6f70472b18903740fd15"),
    ("B3_4 --n 2 --exhaustive", 1,
     "b98a23e50f26450915321002b25f7c38f1839e22730c64ed490ca0a3744a3b50"),
    ("B3_6 --n 2 --exhaustive", 1,
     "01bcd4aed935164f61a9b47fceb202e99c9978ac5276b6fba2aa83ed4f1a3092"),
    ("B3_7 --n 2 --exhaustive", 1,
     "33e8e43fa05ae5d3e3ba3e12e2e935c1e318595428849b465164589b65c3612a"),
    ("S3_8_bij --n 2 --exhaustive", 0,
     "32e3de78ecd451337c3dc09acf28e36c5067fa25d866de3824aed13f91fd3ad8"),
    ("S3_8_all --n 2 --exhaustive", 0,
     "67704223a68e41167bc58c6d13a2b037f063bf096a24caa54e55a534aae62e65"),
    ("K3_9 --n 2 --exhaustive", 0,
     "5f39ca492dffeb755991a0d7e30962ecb49b08664e06c93b3423660fd1ac0a3a"),
    ("B3_10 --n 2 --exhaustive", 0,
     "558fb97feb7890807f0a87cdb13f6c3241b5dd457d874590f031b48a0e23a4b2"),
    ("COVAR --n 2 --exhaustive", 0,
     "2ce6aa818c68229e079bcb1877a9a193615aaefdc03f87b78e63a8d4100e9cd6"),
    ("CHAIN_karrenk --n 2 --exhaustive", 0,
     "2fe596ec7bb8ffe70381ee02f3fe5df59459b5dfad4d2d6cb44d513435731964"),
    ("IDEM_ydwed --n 2 --exhaustive", 0,
     "c7f070eed808bb4342d0489a7dcb78d0c170bf80db3233ffe7f13f5e33277c0e"),
    ("IDEM_ydwed --n 3 --exhaustive --jobs 1", 0,
     "1cf95b2296a0d8c8af4b5d3474f243e4e4e443205b353ae9d9c1265c093d5f13"),
    ("IDEM_ydwed --n 3 --exhaustive --jobs 2", 0,
     "1cf95b2296a0d8c8af4b5d3474f243e4e4e443205b353ae9d9c1265c093d5f13"),
    ("L1_3 --n 3 --exhaustive --jobs 1", 1,
     "ab2d340bf13ca1dad96bc432d4449d1510facbbf43159fe3e6d2a2775aea91e1"),
    ("L1_3 --n 3 --exhaustive --jobs 2", 1,
     "ab2d340bf13ca1dad96bc432d4449d1510facbbf43159fe3e6d2a2775aea91e1"),
    ("S1_1 --n 3 --samples 100 --seed 7", 0,
     "4348813cc6dd193abb14260170efc59065e3b36b88351987875711c929c103af"),
    ("B3_6 --n 3 --samples 100 --seed 7", 1,
     "5ddb9c3bf04a78d422e380261476a5ffd55356ca9eeec084bac6f767156ba0d3"),
    ("L3_1 --n 3 --samples 100 --seed 7", 0,
     "1528b7ee011550f7ed1096391f5c39655b6cd1ed28222237662aba500976b4e2"),
    ("L1_3 --n 3 --samples 100 --seed 7", 1,
     "97e9c85c29b742ba1cc3e66baecee24ddf9e696c9745c69bd98a00dcc886f961"),
    ("S2_2 --n 3 --samples 100 --seed 7", 1,
     "8f768bdeeca5999e36caabc9d3ecb29abb3ec4253d893eb86438e2769e32c1b2"),
    ("S3_3 --n 3 --samples 100 --seed 7", 1,
     "c230296d9dfe1b7f8e37d572812df9883a12e026050ef1e8d4dafb8be1200835"),
    ("CHAIN_karrenk --n 3 --samples 100 --seed 7", 0,
     "d9ec461d8cf7ee55cc61ea212344b08564746d836fdc74b5cec15ea83ce6f3ac"),
    ("B3_7 --n 3 --samples 100 --seed 7", 1,
     "ba05eb5cce162ccada01dc290ed8ba04ef3dfa5de71aaec0c49f8467a946815b"),
    ("B3_10 --n 3 --samples 100 --seed 7", 0,
     "a38e6615f5f2418cdc13e27e7eebe31d9e82a1ccaf39ec38cc5cfe617849df43"),
    ("COVAR --n 3 --samples 100 --seed 7", 0,
     "e27dc42939f2bdea057bbd0d513f4e900d2bf8434c5b26d339881cb6507ae8db"),
    ("CHAIN_karrenk --n 3 --exhaustive", 0,
     "1d4291ba1b86e85d14d6ee8465d5b87a351b3a7a3ef98b5b33449c6a68e36ba9"),
    ("S3_3 --n 3 --exhaustive", 1,
     "46269c5e5c558edfb29491623572dff03dbf3005916ff1a8ecc191c76d701192"),
    ("B3_4 --n 3 --exhaustive", 1,
     "479aaa4a230e02ab22e5a866bebbb0d0e508640550ef27f196dd066e7f93e981"),
    ("B3_2 --n 3 --exhaustive", 1,
     "adb86415890a53db82d34c1dda213979dddbe18bc8ebd9a4ea1254c8c66d63a0"),
    ("S2_2 --n 3 --exhaustive", 1,
     "1a190daed6cbb06a1efdac7adf72126dbfa124b6ce9d89743f647fb4724c1043"),
    ("COVAR --n 3 --exhaustive", 0,
     "62e858e0b9a676eedbfab30e761a1cf5aae3fa5e2371de92ac50720af9e695ea"),
    ("B2_3d --n 4 --exhaustive", 0,
     "85bb4c23b7df627eb1d49c5e2e1472e06b0427e31dc5bb86fde5c618d875d1d9"),
    ("K3_9 --n 3 --exhaustive", 0,
     "9d3e1aaf370b3eac0c19df66873ae90f8e810bad5a3884ad16939f04146624fe"),
    ("L1_3 --n 4 --exhaustive", 1,
     "13f775725bf24803cabc2ce3e50a48eee7cce8b48e3c0a554de36d52e1b14f75"),
    ("K3_9 --n 4 --samples 300 --seed 7", 0,
     "9a406210bfba512c82edb45a4b4009b73e9a5d59120fd736deb7b691a5e778c1"),
    ("IDEM_ydwed --n 4 --exhaustive", 0,
     "8f08d17eac4f4c0e5d60baf7947f6a7f71bf810a50c068d359014c9b3c90ddd3"),
    ("--convention nonempty sweep IDEM_ydwed --n 4 --exhaustive", 0,
     "9b7e631db51a746d8db0fb319f4150d7b7376ca3543b1bf7deeefbadc1ef8633"),
    ("S3_8_all --n 3 --exhaustive", 0,
     "3a60fc6f7181077dd01a225abdb01e8a577f289f6199fd74f7bac4f608b808bc"),
    ("L3_1 --n 8 --samples 500 --seed 0", 0,
     "93188c6c9d41491d28939e0887ac3e09bbf38ddc006429f880b4b79273f03fad"),
    ("--convention nonempty sweep L3_1 --n 8 --samples 500 --seed 0", 0,
     "f4c749a46a7928f512ba967a113a6a9b9f368179b94ccb1e82772d3506dfe10e"),
    ("IDEM_ydwed --n 6 --samples 50 --seed 3", 0,
     "75e22664b2ee9ff8ab9d1863f48226fdb1c7cd35af17382e0db7e8a7855072b4"),
    ("B3_6 --n 5 --samples 50 --seed 3", 1,
     "8a8954ab0d1b15239b741bf9f4c9a41b9cbd859b2c4bde80c8c4dab91cf939e4"),
    ("B3_6 --n 3 --exhaustive", 1,
     "a608191ba927435f932ca991c36291aa1a01d6930ec95cb5865dea5bb016f367"),
    ("--convention nonempty sweep B3_6 --n 3 --exhaustive", 1,
     "853237ec10550abcbf8a52e8e523ba26dafb9999ea146542cd422f49f00e188e"),
    ("B3_7 --n 3 --exhaustive", 1,
     "d4283081b895961c514dc896b9edaae00a05416431ca297e4abd5790d89b7693"),
    ("--convention nonempty sweep B3_7 --n 3 --exhaustive", 1,
     "522a5090071f562ca81740f6fa07bbfb6124d596daefba356d0fdd75825bbe88"),
]


@pytest.mark.parametrize("args, code, sha256", PINNED, ids=[row[0] for row in PINNED])
def test_payload_hash(capsys, args, code, sha256):
    argv = args.split()
    assert main(argv if "sweep" in argv else ["sweep", *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_cli_digest():
    # every claim's sweeps under both conventions, exhaustive at n=1-3 and
    # random at n=4, every counterexample kept: 144 rows of exit code,
    # stdout and stderr in one sha256 (tests/cli_digest.py)
    import cli_digest

    assert cli_digest.digest() == (
        "ebc702f9e27336889d7c0e41752fbdef9ccd7698654b952feaed0cd80236beed"
    )
