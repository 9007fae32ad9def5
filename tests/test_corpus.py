"""Fixed output corpus: refactors of the decomposer must keep netlists byte-identical.

Each case is the sha256 of ``netlist_to_text(decompose(cover))``.  The corpus
is every output of the demo PLAs plus seeded random covers of 6-12 inputs;
``WIDE_PINNED`` adds seeded covers of 13-16 inputs, the sizes the benchmark
decomposes, and ``SMALL_PINNED`` seeded covers of 1-6 inputs with and
without repeated cubes.  ``PRODUCTS_PINNED`` covers every one-cube cover on
1-7 inputs, and ``BLOCKS_PINNED`` seeded ORs of products of two phased
majority blocks on 10-15 inputs, the shape whose core search widens
furthest.  ``THREE_INPUT_PINNED`` covers every function of 3 inputs.
A change that alters any netlist must update the pinned digest and say why.

``PINNED``, ``WIDE_PINNED``, ``SMALL_PINNED`` and ``BLOCKS_PINNED`` were
recomputed when the engine began splitting every sub-cover by don't-care
count, not only the whole cover: 22 of their 78 netlists changed (12
random covers, all 6 wide ones, ``dup22.n5`` and 3 block products), and
none of the demo PLAs'.  ``PRODUCTS_PINNED`` and ``THREE_INPUT_PINNED``
held through that change: a product or a minterm cover never mixes
don't-care counts.  ``BLOCKS_PINNED`` was first taken from the core search
that closed cube sets by counting each class's cubes, before the closure
became a fixpoint over the pair scan's swap partners.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from gridsyn import (
    Cover,
    MintermSet,
    decompose,
    library_inventory,
    map_netlist,
    netlist_to_text,
    parse_pla_outputs,
    verify,
)

from helpers import (
    DEMO_PLAS,
    minterms_to_cover,
    random_cover,
    random_cover_with_duplicates,
    threshold_products,
)


def corpus():
    """(case name, cover) pairs in a fixed order."""
    for path in sorted(DEMO_PLAS.glob("*.pla")):
        for name, cover in parse_pla_outputs(path.read_text()):
            yield f"{path.stem}.{name}", cover
    rng = random.Random(20011)
    for k in range(20):
        n = 6 + k % 7
        yield f"random{k:02d}.n{n}", random_cover(rng, n, rng.randint(n, 2 * n))


def wide_covers():
    """Seeded covers of 13-16 inputs and 3n-4n cubes."""
    rng = random.Random(20013)
    for k in range(6):
        n = 13 + k % 4
        yield f"wide{k:02d}.n{n}", random_cover(rng, n, rng.randint(3 * n, 4 * n))


def small_covers():
    """Seeded covers of 1-6 inputs; the second half repeats some cubes."""
    rng = random.Random(20012)
    for k in range(24):
        n = 1 + k % 6
        m = rng.randint(1, 2 * n + 2)
        if k < 12:
            yield f"small{k:02d}.n{n}", random_cover(rng, n, m)
        else:
            yield f"dup{k:02d}.n{n}", random_cover_with_duplicates(rng, n, m)


def block_covers():
    """Seeded ORs of products of two phased majority blocks, three each of 10-15 inputs."""
    rng = random.Random(20014)
    for k in range(18):
        n = 10 + k % 6
        yield f"blocks{k:02d}.n{n}", threshold_products(rng, n)


def digest(cover) -> str:
    return hashlib.sha256(netlist_to_text(decompose(cover)).encode()).hexdigest()


PINNED = {
    "adder.sum": "449dee494ec6bc806c71459aaf895ec0fe2dedcc2b5478e3a5c18aa141976fc8",
    "adder.carry": "241ab270634ee9ae5cef0a64acb1b7c89028862b3f4266d7c2730e5a706279fe",
    "and5.f0": "18fa9c78128dea376364701be8625dde7d2a35bb21e1da7615cf6abc4fe348bd",
    "fa_carry.f0": "241ab270634ee9ae5cef0a64acb1b7c89028862b3f4266d7c2730e5a706279fe",
    "fa_sum.f0": "449dee494ec6bc806c71459aaf895ec0fe2dedcc2b5478e3a5c18aa141976fc8",
    "majority5.f0": "40de8fead3b3eca0fb847c19b204ee257bcf57e5bc0f8285cb0010dfce320cff",
    "mixed5.f0": "0d2cd3065c8faef4393fb4a5167ecdaeeaabb25e6c1717af96eb4908648c7031",
    "or5.f0": "dddaa9c230bc0995d5dacca4bdf150f70edf70261901905303eaaa9294ed5e44",
    "parity4.f0": "24f3789a1ba8d83113893a03ecf8efd2723c37404b3ba3edf6fef895f4a62f5f",
    "xor_pair.f0": "5b9778e6f2813dec55d294e2c25f244b57e845a2eeed6f13bf05db401488a973",
    "random00.n6": "3c91b64ee819e06fcbf15be66aaeb12ad029a16e11bdeaecb6287ea4e406207c",
    "random01.n7": "3967733e3278f619b3b5ab265d3a1c76eb2b8bbc62127a6f535962036c3b8411",
    "random02.n8": "3fae65b1a0e0aad1f690bba53d6ea73ec03213d34b0f154341f1b0d5d89a4c61",
    "random03.n9": "1c8cabbcece490a121db590ddf52f62195093b0f19fd2caaf37f0a2ab2fc8d57",
    "random04.n10": "b727da9054238b836e2a88db69a54cb4ebf42126f14fd34daa96f25a8d9f045d",
    "random05.n11": "3572cb358323f3859d169114eb1759cb3df1658ea488b80e29faa63a4591e457",
    "random06.n12": "eb6b1768603ff1c722d757239064e5c6ba87d8bcc6d101c547b9cb0563945b84",
    "random07.n6": "3ecaf17f8d1ddd261c1a0088b2dd1058ec81714eec27618913dbb7913ccfa693",
    "random08.n7": "c307e6c14b08d9fdbe2c3d58d43ee9541d649f326b82f41ca90a98ee4b95e30b",
    "random09.n8": "9fd9916ba6a2843e18564274cc6d440ef51ac1107aee6ef65ad41f5fe6d7a519",
    "random10.n9": "a7d78aa903b17c1148720a334950bc0805f424e6e453ed8fcf08344ca4453f11",
    "random11.n10": "a182d1b192f8fb22602ec3440a86d13c196e7ed4da885a66c403a133110ce0df",
    "random12.n11": "c0ad6c093c9b3358ab85edbabb9c567861dce5d05ad5844c6fe11a84005fac3d",
    "random13.n12": "201e718edc9bd7e89d494e9af0d374c04ce5f3706ce0ad485d170272108386a2",
    "random14.n6": "73ddf30828f5e856567b7429d27bc6c37d057523296cc0d1d429a8780a8ff06f",
    "random15.n7": "6469fc32e0623302453c9f885a255b3a136f8ba3169a2d28daa46117c12074e1",
    "random16.n8": "bb2c370999f91d01222652e09f99d26f75a5047c9a4b331755bd889b85ab533b",
    "random17.n9": "dde92b6e02994723c817c2855603c30d9f3ac3611ff8a58c4c4402b8a94c26fa",
    "random18.n10": "3769874430e0f2a3cb805bb607b07f1e8e7708cb38d5a41fb0941187f5b089aa",
    "random19.n11": "868f4fe49cfcb9c51180046f4e2d0ecff3cf83f99087929e9994c24acc45d225",
}


def test_corpus_netlists_are_pinned():
    assert {name: digest(cover) for name, cover in corpus()} == PINNED


WIDE_PINNED = {
    "wide00.n13": "94c8d9a7ffb75cd7265a44c021f41b313787117c84ef669920314c6b1d950d65",
    "wide01.n14": "d436a4707cc558e3cbbb94e45c376ea767b9ef0ecd7867d192d543a5cbd50d58",
    "wide02.n15": "5dee905fd76b08e9ca7abaa0b43a29d323bcf2d51a6dce8ea10919ea4d469597",
    "wide03.n16": "8e7615ee31cd5e861a68a1827374ee17ec3a76018d79a08bf66d47951577144a",
    "wide04.n13": "54a845eb0e4ab910301612f051f01ca2f71d86b77375e32e38097da2d1f0d0f9",
    "wide05.n14": "fe2d49253a9ca650e1b0d8869ac7b61e9a40be9ea458d454ec5dbb291d188ee8",
}


def test_wide_netlists_are_pinned():
    assert {name: digest(cover) for name, cover in wide_covers()} == WIDE_PINNED


SMALL_PINNED = {
    "small00.n1": "17c8d58ecb709466560887594f6595c0d4d35068af61486c1d667bc68a7ebd53",
    "small01.n2": "c1a41d43bdabc3f9ac2666caa69b2c07a815b178cb6a01c446c8e45fd2d1fbac",
    "small02.n3": "318c248e14b2802a6115c10c407bccc3d0dc67dd1ca38269c679998d1d65e5fa",
    "small03.n4": "b5ed98f30baf3b49db50371b7794ff226eacc3543e6bfc90598ac48c05dae143",
    "small04.n5": "8111861bd5dc7ebac0803bca90c84d1c88c481dc48fc725b09bdff2db68346db",
    "small05.n6": "78bd6bf0cb17654d0eb8a059fdfaac60f294eb32661921a20241c058dd7b8f07",
    "small06.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "small07.n2": "c3890c2d3dbf09794c8b60907f1c12d1dab2840f441b90553b484309b1a1c75b",
    "small08.n3": "1e9d3ef88f8a6cec24d8f4e7a0e2dfee064372b1bb384c1b76d213c25f7bb72b",
    "small09.n4": "eb2281fbbafb61baf5304993e40bedd4d03113a101dbf5ac3b6b4f033f08c83e",
    "small10.n5": "547aa7592888db8ab1de9e991b4b1766768830bf34d8ed431c534e61606900c7",
    "small11.n6": "309056bdf9a5f3ba95124b20365e6933e20e9102491c3e3ab1fded73df807d4a",
    "dup12.n1": "6efbcbe5812186155a51f7c3ebdcc4e04be4c274bcea0c5ec97ded7239490735",
    "dup13.n2": "8ed5751c90f7b405542ea871c1bff6fc62aec67e590fc8ceedda23c20381bc29",
    "dup14.n3": "7a7d8b07f76977fa8cac660b0aaf3cc5fe00bbcf1a1e0ad99e41e04dadde274a",
    "dup15.n4": "1cc27f60c4e1c743e5fab1580bc691e98c4fbfc5209dcc6ef3fb92c1a24c27ba",
    "dup16.n5": "da378cb9091148f58bfb5aa20679216375894b9376db663e0a628daa995886fe",
    "dup17.n6": "985e1fa7d44eaf82ad7472e704bf53241b6c1eae0c65e0dafd24cabc1ed6dbaf",
    "dup18.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "dup19.n2": "625d731a66197f6500a46e020b54b01b706740aa16d38d487568b92e795fdb97",
    "dup20.n3": "a4ae30f2ea7715161adbd5bafed1ed93b873bf5086286837d497d7e83d020dcb",
    "dup21.n4": "a8f052357e5f440261f320a85bce7a92a496f0f46dc11b9fd34501cd38e12512",
    "dup22.n5": "d31d81a2708811bc6e8d2c5f9a003fbca359388dcb2f84b534dc85d9cb0c08f9",
    "dup23.n6": "4b2b10ad99ed83786e77d4a2c7301c87b3d67af12147d3efe9a336a5d2cefea0",
}


def test_small_netlists_are_pinned():
    assert {name: digest(cover) for name, cover in small_covers()} == SMALL_PINNED


BLOCKS_PINNED = {
    "blocks00.n10": "f3d0d78266d380a8db069dfa4916a9b36670d541e4ec39c79aa92a4f864d0090",
    "blocks01.n11": "3814e080f4e98f1f284b685f3b99ddea3d0af693574cfc6997ec2c0eae0c97f5",
    "blocks02.n12": "3bee4eadf6abe8be952b13afe6a2fc307732f23370e18253da2a060352e73a83",
    "blocks03.n13": "db6e5fa6a365ba02b053d01f718d8d9f4b05ca4878b2f0121ccf57f0c5328412",
    "blocks04.n14": "a7055970abecba949a24fede0f4a77aeaa8ad9975100f474743306e127d3b63d",
    "blocks05.n15": "bc06bfb5c33bddfd72fc0e639407d7de76af46c3dc9810eb6880f3dba4916fc0",
    "blocks06.n10": "2a650f13dcaf5c5f11ebabc82cd8649c6d8f49848a9cd5279d10cbabcf939f0e",
    "blocks07.n11": "8cd1f46539bfe2b40475f125920ae56cadaad0cf2c1cbacd9e9e8febb1668459",
    "blocks08.n12": "9a15712ef4b3c74959f7694de259036379ff760d54e4cc13449a24bc20ea877d",
    "blocks09.n13": "a592f3e29eab2a252a12e5922fc2f9c67a530c258d01017c513f3bdc5886fac0",
    "blocks10.n14": "80b554d49ea50e078512bd942059a6ba71a740cf9d27942e3d0ef37993469913",
    "blocks11.n15": "5cda1c0c3dc07a3d636159fb5ceeee929470b87f9ca78eb8391235e3137c45d0",
    "blocks12.n10": "c4fe1f1f4d90cf457e8767a0c7cd43dd86c2a8d73c9b839b50c85081208bec64",
    "blocks13.n11": "1aa7447a7c61eb3c1d9799bf46dbb3bf872d5248ea29ab99542034cba46075a0",
    "blocks14.n12": "10f3929c3d188908aae8547e7a4ff5cd485d93c97d3a5b07865cd9eef8855cc3",
    "blocks15.n13": "5a0da735d19a82e8b4aeacb327a722c4aec5671a57ca4f9587539c5d36b4bb32",
    "blocks16.n14": "9955d38acc86caf0563f60ed000fb7a5eefbe2747f807cec821e8b8f4ec0296c",
    "blocks17.n15": "3eee68b7e8d7151b29ade5f8d9548ef4698a549d84703eefbc006761e5435a17",
}


def test_block_product_netlists_are_pinned():
    assert {name: digest(cover) for name, cover in block_covers()} == BLOCKS_PINNED


#: sha256 of the netlists of every cube on 1-7 inputs, alone and twice.
PRODUCTS_PINNED = "0a3ed938b9532970b643fac5c793d42df2627b7301971b36857eb5ad41914f84"


def test_every_product_of_up_to_seven_inputs_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 8):
        names = tuple(f"x{i}" for i in range(n))
        for symbols in itertools.product("01-", repeat=n):
            cube = "".join(symbols)
            for cubes in ((cube,), (cube, cube)):
                h.update(netlist_to_text(decompose(Cover(names, cubes))).encode())
    assert h.hexdigest() == PRODUCTS_PINNED


def test_every_corpus_cover_decomposes_to_an_equivalent_netlist():
    """The pins above fix the bytes; this checks that those bytes are right."""
    covers = [*corpus(), *wide_covers(), *small_covers(), *block_covers()]
    assert len(covers) == 78
    for name, cover in covers:
        assert verify(decompose(cover), cover), name


#: sha256 of the netlists of the minterm covers of all 256 functions of 3
#: inputs, in ascending truth-table order, and their total pitches.
THREE_INPUT_PINNED = (
    "03918ff0fc22a59147beae70972fbe140abd56bf54f5e6f8192c00ca590c87c6",
    3263,
)


def test_every_three_input_function_is_pinned():
    """Every function of 3 inputs, one cube per minterm: a complete pin of the
    engine at that size and a quality yardstick, each netlist checked."""
    names = ("x0", "x1", "x2")
    lib = library_inventory(3)
    h = hashlib.sha256()
    pitches = 0
    for bits in range(256):
        cover = minterms_to_cover(MintermSet(3, bits), names)
        nl = decompose(cover)
        assert verify(nl, cover), bits
        h.update(netlist_to_text(nl).encode())
        pitches += map_netlist(nl, lib).total_pitches
    assert (h.hexdigest(), pitches) == THREE_INPUT_PINNED
