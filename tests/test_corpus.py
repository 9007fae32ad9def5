"""Fixed output corpus: refactors of the decomposer must keep netlists byte-identical.

Each case is the sha256 of ``netlist_to_text(decompose(cover))``.  The corpus
is every output of the demo PLAs plus seeded random covers of 6-12 inputs;
``WIDE_PINNED`` adds seeded covers of 13-16 inputs, the sizes the benchmark
decomposes.
``VARIANT_PINNED`` holds the same corpus under ``dc_partition`` and the
``minterms`` core metric, plus seeded covers of 1-6 inputs with and without
repeated cubes under all three option sets.
``PRODUCTS_PINNED`` covers every one-cube cover on 1-7 inputs.
A change that alters any netlist must update the pinned digest and say why.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from gridsyn import Cover, DecomposeOptions, decompose, netlist_to_text, parse_pla_outputs

from helpers import DEMO_PLAS, random_cover, random_cover_with_duplicates


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


VARIANTS = {
    "dc": DecomposeOptions(dc_partition=True),
    "minterms": DecomposeOptions(core_size_metric="minterms"),
}


def digest(cover, options=None) -> str:
    return hashlib.sha256(netlist_to_text(decompose(cover, options)).encode()).hexdigest()


def netlist_digests() -> dict[str, str]:
    return {name: digest(cover) for name, cover in corpus()}


def variant_digests() -> dict[str, str]:
    out = {
        f"{tag}.{name}": digest(cover, opts)
        for tag, opts in VARIANTS.items()
        for name, cover in corpus()
    }
    for name, cover in small_covers():
        out[name] = digest(cover)
        for tag, opts in VARIANTS.items():
            out[f"{tag}.{name}"] = digest(cover, opts)
    return out


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
    "random00.n6": "8cb2bc62ef28374f14c4f3a99451bd03c53c065124699c93b13491443a453aa3",
    "random01.n7": "79a6401067ea4f24caee5da7f02b55a10f453d6dda9da6b24227c11e564f32d2",
    "random02.n8": "0470fb9e09f2ba3e8421aae0275d4e163d47335cf1012c8532ec3cb13ffddb64",
    "random03.n9": "4c06afce5e5bf8bbdc6216540b712af32b82c1e37baa0f8f6df4ffe4ab75d8ee",
    "random04.n10": "0907160c497629af8a2a4f0367289c681f464e03e7561cc732fc660d7ad728dd",
    "random05.n11": "138619c21c5ace4e8dbcfe5691fd3cc70708752efa6614e2f64d1ad56a82c065",
    "random06.n12": "3efcd5d08b0025bf2afd3cf03b6908d3ed6f20221e96fed2b1a41873af51851a",
    "random07.n6": "4a82107ee9ff26c21786a8198b145c87f4b738cbbd64377abc8d6dfe9f367a6d",
    "random08.n7": "5f1ff3207e5c85ddeb35a8b1caef56ed556152aa9e7be2535f8be1a16b0688c5",
    "random09.n8": "254e37ed7527839823f7f08047a7605ec2684840c311107e56d4e574f46ef08a",
    "random10.n9": "7999c4f528819fbc32a17e5b71a236c865dda955854989970ee635e4658c82f2",
    "random11.n10": "d7f0219b073da3f89daf8ce4279d0c6ff69732345c0fdd41b5755d9f419c88fe",
    "random12.n11": "004558a7c94a8f6dd1ba12f6fe74cbb7a0252cff50d8c71d478be3add091b805",
    "random13.n12": "695446f3d447c459f162da8ce2bf528a3d6e716dad073cb04e5d57ff18831f9d",
    "random14.n6": "402beaf5d4e528f12eb88608b511c7afe11aaf491bc9d02e54567f8c35598985",
    "random15.n7": "be4f0ca862555f7e512e1741179370aa52af0e0a3fa70e62c79a51cd431c2036",
    "random16.n8": "0807fdc251a909ca642638bfb8e251eb457771fd72e3642206ed10f8532c8d31",
    "random17.n9": "226dab0482a9d3bd4e1e1dba592d1a4012477f150f6db11585e550cf42dc9b55",
    "random18.n10": "77f5ab2f695a6f295e9ff584e0c351dd751397aaf7fc6296a9ba5fb091f5589d",
    "random19.n11": "1d26f7a312464e547993f4919aa99fc01084fd7f87d4b0043a556bff3d129918",
}


def test_corpus_netlists_are_pinned():
    assert netlist_digests() == PINNED


#: Computed before the core search ran on cube-position masks.
WIDE_PINNED = {
    "wide00.n13": "46bad714d8468df09ba29213c5f78316f3330f8d238ad3773a65ba90d915c920",
    "wide01.n14": "3d80beabe9c8d74a4484eadb556a7f352bb8670081741ecdc4ca47267d0c02b7",
    "wide02.n15": "03d2499d587f0ecfe4de172a6c28024bb90f71e5a3a16313c6574893e299e3c8",
    "wide03.n16": "acc13d9c02d6290bfdce2cc3b03ecbfd8819290a28967375306de5afc5176bef",
    "wide04.n13": "864f0d99f743ac367cdb53542896f90ce007374f16df0d67b3389fb17deb89f7",
    "wide05.n14": "8dde74357261e76847ea47b9ab171dfd7d78d4b1816fb2fb0799e2223eaced61",
}


def test_wide_netlists_are_pinned():
    assert {name: digest(cover) for name, cover in wide_covers()} == WIDE_PINNED


VARIANT_PINNED = {
    "dc.adder.sum": "449dee494ec6bc806c71459aaf895ec0fe2dedcc2b5478e3a5c18aa141976fc8",
    "dc.adder.carry": "241ab270634ee9ae5cef0a64acb1b7c89028862b3f4266d7c2730e5a706279fe",
    "dc.and5.f0": "18fa9c78128dea376364701be8625dde7d2a35bb21e1da7615cf6abc4fe348bd",
    "dc.fa_carry.f0": "241ab270634ee9ae5cef0a64acb1b7c89028862b3f4266d7c2730e5a706279fe",
    "dc.fa_sum.f0": "449dee494ec6bc806c71459aaf895ec0fe2dedcc2b5478e3a5c18aa141976fc8",
    "dc.majority5.f0": "40de8fead3b3eca0fb847c19b204ee257bcf57e5bc0f8285cb0010dfce320cff",
    "dc.mixed5.f0": "0d2cd3065c8faef4393fb4a5167ecdaeeaabb25e6c1717af96eb4908648c7031",
    "dc.or5.f0": "dddaa9c230bc0995d5dacca4bdf150f70edf70261901905303eaaa9294ed5e44",
    "dc.parity4.f0": "24f3789a1ba8d83113893a03ecf8efd2723c37404b3ba3edf6fef895f4a62f5f",
    "dc.xor_pair.f0": "5b9778e6f2813dec55d294e2c25f244b57e845a2eeed6f13bf05db401488a973",
    "dc.random00.n6": "3c91b64ee819e06fcbf15be66aaeb12ad029a16e11bdeaecb6287ea4e406207c",
    "dc.random01.n7": "8994eeef917840c378534a657f156548e9f4f5715bfbceb23b5d046c3641762e",
    "dc.random02.n8": "3fae65b1a0e0aad1f690bba53d6ea73ec03213d34b0f154341f1b0d5d89a4c61",
    "dc.random03.n9": "4df69c6ccff6c39aff9b9f112001c4430c518afe9dc918e3d6fd72358cef4211",
    "dc.random04.n10": "c7415873b26ed8d21588bee11a5d4231efee91258265057574fd273cc9edc791",
    "dc.random05.n11": "93902420f00e9991df4dd74f46ebdcde8099a04bd65f52fb05ed316167246f66",
    "dc.random06.n12": "bfeaff185eb969f7318c355ee4801b700e740e9e630ca158953379582a455e67",
    "dc.random07.n6": "3ecaf17f8d1ddd261c1a0088b2dd1058ec81714eec27618913dbb7913ccfa693",
    "dc.random08.n7": "c307e6c14b08d9fdbe2c3d58d43ee9541d649f326b82f41ca90a98ee4b95e30b",
    "dc.random09.n8": "251e69bffc92c2914852ed1ef9f0d56178b5a07e17c65b5528f933cac16d823c",
    "dc.random10.n9": "a7d78aa903b17c1148720a334950bc0805f424e6e453ed8fcf08344ca4453f11",
    "dc.random11.n10": "9a2e1570843c68efec150880599461e00a848369cc8bd0ae0fc35a6d82b3cea6",
    "dc.random12.n11": "c0ad6c093c9b3358ab85edbabb9c567861dce5d05ad5844c6fe11a84005fac3d",
    "dc.random13.n12": "96f345a0f60ea426e0f710eadfaf34552d73ff5970eb54f1bad12f847f608444",
    "dc.random14.n6": "73ddf30828f5e856567b7429d27bc6c37d057523296cc0d1d429a8780a8ff06f",
    "dc.random15.n7": "6469fc32e0623302453c9f885a255b3a136f8ba3169a2d28daa46117c12074e1",
    "dc.random16.n8": "85b31a8b19def8c0091582649b7d020849dc940c294a7369cf6b4582d818c74f",
    "dc.random17.n9": "6f1376659223b8e40e98309442436a4f8665d8e45c3d57b00bd3ee748f888911",
    "dc.random18.n10": "a550d1fb9cb7a5d262ae54505d7d9cf6840b377a44f47f66a9f12b58c3265dd3",
    "dc.random19.n11": "f64719ac5aef692d75d774e35181e119586d85320e2a003d40251e9f74b00113",
    "minterms.adder.sum": "449dee494ec6bc806c71459aaf895ec0fe2dedcc2b5478e3a5c18aa141976fc8",
    "minterms.adder.carry": "241ab270634ee9ae5cef0a64acb1b7c89028862b3f4266d7c2730e5a706279fe",
    "minterms.and5.f0": "18fa9c78128dea376364701be8625dde7d2a35bb21e1da7615cf6abc4fe348bd",
    "minterms.fa_carry.f0": "241ab270634ee9ae5cef0a64acb1b7c89028862b3f4266d7c2730e5a706279fe",
    "minterms.fa_sum.f0": "449dee494ec6bc806c71459aaf895ec0fe2dedcc2b5478e3a5c18aa141976fc8",
    "minterms.majority5.f0": "40de8fead3b3eca0fb847c19b204ee257bcf57e5bc0f8285cb0010dfce320cff",
    "minterms.mixed5.f0": "0d2cd3065c8faef4393fb4a5167ecdaeeaabb25e6c1717af96eb4908648c7031",
    "minterms.or5.f0": "dddaa9c230bc0995d5dacca4bdf150f70edf70261901905303eaaa9294ed5e44",
    "minterms.parity4.f0": "24f3789a1ba8d83113893a03ecf8efd2723c37404b3ba3edf6fef895f4a62f5f",
    "minterms.xor_pair.f0": "5b9778e6f2813dec55d294e2c25f244b57e845a2eeed6f13bf05db401488a973",
    "minterms.random00.n6": "ddb357dee303e191fcc2d973942e314a28362c6138c7597dfc22215646962bd2",
    "minterms.random01.n7": "59b308108a7e6d2bccd5bfc37c42dc6a6f2ee26e86be4a0ee4789b8fcecb8a02",
    "minterms.random02.n8": "2d1fecd6787dd2930e095c051de6912b7c12fe97a049d5f6434b658a147935de",
    "minterms.random03.n9": "917daeef6268c4f29c1928225920f8b8474820499bc4e3d2e077f8551b7a7b73",
    "minterms.random04.n10": "96514143ff049f49d5e3beb7d91c53c48de097ad0a3d360bcf52b06e62f89f31",
    "minterms.random05.n11": "6c070b767f7e24c9469d2d416d19c6c7f47d1c19ac0158e3d835fc6eb5acd63b",
    "minterms.random06.n12": "31f100c0cfb2db9e793619a119f1245524a804a0a5312c04933f8dd0cdecbb6c",
    "minterms.random07.n6": "70a58930df741ea49f6ef393bc80a138db8b0282c60bde69306e0f177c6d145b",
    "minterms.random08.n7": "0d7ed107a4256872e36ba81dc37fc26a0cbc281d7353aad89c8623ca9d562649",
    "minterms.random09.n8": "faf0669c29d1a6832ae4e7a4ffe3501ade11dbb5a7d53f2045ff77dc1513fd72",
    "minterms.random10.n9": "1e1bf365a7f80fa178c032793acb809b337051a3c69ceb6ed1e48ba771cb8933",
    "minterms.random11.n10": "c08e375385255b203feb133aa3cf58a0e21d9d85f87b650be1e4e319ae1c9ce4",
    "minterms.random12.n11": "fb102ee998617ea983ca52b7fcb57fde9d24157d410f5400919f6093eb4e37d4",
    "minterms.random13.n12": "e33cffaaa13110f0775e6f84152665fd7affd257461876e470f6d9122a11b376",
    "minterms.random14.n6": "2b9686af18318bd59a4471febf668081be278ed00cf3b2e0b3ea6a717bf98e10",
    "minterms.random15.n7": "1157cc2644629b3b855e13b008d2c1b7731e7660ab87051ad5932470d42d1c3a",
    "minterms.random16.n8": "80731711a8ce9e6f3426b3960ee2ecd3aa213eb40a71444c65092c678a3584c7",
    "minterms.random17.n9": "6b9d745101f88141668b7909f2081b7006f1f9b5282321bf4689c6ee41c608bf",
    "minterms.random18.n10": "d1d4858ac4ff18f1048cb7702e3ab5fd5d23290a2c8e9525dfb96268f5c58d4f",
    "minterms.random19.n11": "6fbc97c637b0b8f5fa2a6f91c5d96dc67c9734118489225fe0eedcd0da2160ca",
    "small00.n1": "17c8d58ecb709466560887594f6595c0d4d35068af61486c1d667bc68a7ebd53",
    "dc.small00.n1": "17c8d58ecb709466560887594f6595c0d4d35068af61486c1d667bc68a7ebd53",
    "minterms.small00.n1": "17c8d58ecb709466560887594f6595c0d4d35068af61486c1d667bc68a7ebd53",
    "small01.n2": "c1a41d43bdabc3f9ac2666caa69b2c07a815b178cb6a01c446c8e45fd2d1fbac",
    "dc.small01.n2": "c1a41d43bdabc3f9ac2666caa69b2c07a815b178cb6a01c446c8e45fd2d1fbac",
    "minterms.small01.n2": "c1a41d43bdabc3f9ac2666caa69b2c07a815b178cb6a01c446c8e45fd2d1fbac",
    "small02.n3": "2a32477ea6a0c2e929d0f5be80c4e51a08c65bbf259c0845853906043c79e8bc",
    "dc.small02.n3": "318c248e14b2802a6115c10c407bccc3d0dc67dd1ca38269c679998d1d65e5fa",
    "minterms.small02.n3": "2a32477ea6a0c2e929d0f5be80c4e51a08c65bbf259c0845853906043c79e8bc",
    "small03.n4": "b5ed98f30baf3b49db50371b7794ff226eacc3543e6bfc90598ac48c05dae143",
    "dc.small03.n4": "b5ed98f30baf3b49db50371b7794ff226eacc3543e6bfc90598ac48c05dae143",
    "minterms.small03.n4": "444d97f28bffe989baecae49b1a977d5249e21cdab79bd1c04fa0e2ca1cc6ddb",
    "small04.n5": "8111861bd5dc7ebac0803bca90c84d1c88c481dc48fc725b09bdff2db68346db",
    "dc.small04.n5": "8111861bd5dc7ebac0803bca90c84d1c88c481dc48fc725b09bdff2db68346db",
    "minterms.small04.n5": "8111861bd5dc7ebac0803bca90c84d1c88c481dc48fc725b09bdff2db68346db",
    "small05.n6": "cf62e92a66c246c89b6a24910386689ccbd90213d0fa5a96c76b9babda06786d",
    "dc.small05.n6": "78bd6bf0cb17654d0eb8a059fdfaac60f294eb32661921a20241c058dd7b8f07",
    "minterms.small05.n6": "0fd6ecf11afb36d86fdbe382bc7a7dbc35273b506e28a935ab4cc3712d1373af",
    "small06.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "dc.small06.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "minterms.small06.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "small07.n2": "625d731a66197f6500a46e020b54b01b706740aa16d38d487568b92e795fdb97",
    "dc.small07.n2": "c3890c2d3dbf09794c8b60907f1c12d1dab2840f441b90553b484309b1a1c75b",
    "minterms.small07.n2": "625d731a66197f6500a46e020b54b01b706740aa16d38d487568b92e795fdb97",
    "small08.n3": "1e9d3ef88f8a6cec24d8f4e7a0e2dfee064372b1bb384c1b76d213c25f7bb72b",
    "dc.small08.n3": "1e9d3ef88f8a6cec24d8f4e7a0e2dfee064372b1bb384c1b76d213c25f7bb72b",
    "minterms.small08.n3": "1e9d3ef88f8a6cec24d8f4e7a0e2dfee064372b1bb384c1b76d213c25f7bb72b",
    "small09.n4": "32dc8e73347657f0f171040aa8ecaa434bb31aa4c626072362dda516350957af",
    "dc.small09.n4": "eb2281fbbafb61baf5304993e40bedd4d03113a101dbf5ac3b6b4f033f08c83e",
    "minterms.small09.n4": "aa6f48b2c31b365606500abd2318eedbb8b74fb762d4d118a958d39af847223a",
    "small10.n5": "547aa7592888db8ab1de9e991b4b1766768830bf34d8ed431c534e61606900c7",
    "dc.small10.n5": "547aa7592888db8ab1de9e991b4b1766768830bf34d8ed431c534e61606900c7",
    "minterms.small10.n5": "547aa7592888db8ab1de9e991b4b1766768830bf34d8ed431c534e61606900c7",
    "small11.n6": "bbb0518acbf60da3f51d6f437e717d2d13eaa735353f5ac0aa470eb25a8d8af9",
    "dc.small11.n6": "309056bdf9a5f3ba95124b20365e6933e20e9102491c3e3ab1fded73df807d4a",
    "minterms.small11.n6": "26882b28c64a0eacbf0e9737ea363f268e62e258c86872e81bf518adac1657c1",
    "dup12.n1": "6efbcbe5812186155a51f7c3ebdcc4e04be4c274bcea0c5ec97ded7239490735",
    "dc.dup12.n1": "6efbcbe5812186155a51f7c3ebdcc4e04be4c274bcea0c5ec97ded7239490735",
    "minterms.dup12.n1": "6efbcbe5812186155a51f7c3ebdcc4e04be4c274bcea0c5ec97ded7239490735",
    "dup13.n2": "13c447f7168f2dec8f8a3731acb7fdc38cef79e07a7a90ebac7df0f0fe12bc9f",
    "dc.dup13.n2": "8ed5751c90f7b405542ea871c1bff6fc62aec67e590fc8ceedda23c20381bc29",
    "minterms.dup13.n2": "13c447f7168f2dec8f8a3731acb7fdc38cef79e07a7a90ebac7df0f0fe12bc9f",
    "dup14.n3": "7a7d8b07f76977fa8cac660b0aaf3cc5fe00bbcf1a1e0ad99e41e04dadde274a",
    "dc.dup14.n3": "7a7d8b07f76977fa8cac660b0aaf3cc5fe00bbcf1a1e0ad99e41e04dadde274a",
    "minterms.dup14.n3": "7a7d8b07f76977fa8cac660b0aaf3cc5fe00bbcf1a1e0ad99e41e04dadde274a",
    "dup15.n4": "612ea61de89f204432ca6d31f10a9626d7cc1e00c0c8aa8ff605ba3ba3d2b973",
    "dc.dup15.n4": "1cc27f60c4e1c743e5fab1580bc691e98c4fbfc5209dcc6ef3fb92c1a24c27ba",
    "minterms.dup15.n4": "612ea61de89f204432ca6d31f10a9626d7cc1e00c0c8aa8ff605ba3ba3d2b973",
    "dup16.n5": "1e030b000aadac56512c9cfb74eff923971fa30b400e0a10ff0140f693537ac4",
    "dc.dup16.n5": "da378cb9091148f58bfb5aa20679216375894b9376db663e0a628daa995886fe",
    "minterms.dup16.n5": "34a37845d6c0770f2bf5e288e22b5940474bd9b38a8cefe5ea5d84226399cd05",
    "dup17.n6": "f40169c49342c8909c4f46afeab17ec054cbc1b23d1beb71b36ae4faffc24574",
    "dc.dup17.n6": "985e1fa7d44eaf82ad7472e704bf53241b6c1eae0c65e0dafd24cabc1ed6dbaf",
    "minterms.dup17.n6": "dc34df5bca3a7c2dd928a7b99af3afa1fdd328426fbac4d3a8ec2d5f46a4cce2",
    "dup18.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "dc.dup18.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "minterms.dup18.n1": "5428528977f71cecaabcb7364605e737ec24435f574be98de1b9a891d87fb458",
    "dup19.n2": "625d731a66197f6500a46e020b54b01b706740aa16d38d487568b92e795fdb97",
    "dc.dup19.n2": "625d731a66197f6500a46e020b54b01b706740aa16d38d487568b92e795fdb97",
    "minterms.dup19.n2": "625d731a66197f6500a46e020b54b01b706740aa16d38d487568b92e795fdb97",
    "dup20.n3": "676e8984b4cc0560161a7300fe6fe55fd63ff943b394c891877007c795111173",
    "dc.dup20.n3": "a4ae30f2ea7715161adbd5bafed1ed93b873bf5086286837d497d7e83d020dcb",
    "minterms.dup20.n3": "676e8984b4cc0560161a7300fe6fe55fd63ff943b394c891877007c795111173",
    "dup21.n4": "e313acb8f02cf4fe02e470600ad4cb1b104e324ef36275f86bfe88f1c2376148",
    "dc.dup21.n4": "a8f052357e5f440261f320a85bce7a92a496f0f46dc11b9fd34501cd38e12512",
    "minterms.dup21.n4": "8c7909c3a6db6c331ccf59572831722a2ab3f4cec00743150ebe747227fd8e89",
    "dup22.n5": "9f72032cb4477d13f8f357d0062bacc10f84424530c280c36bca72eeb02fc623",
    "dc.dup22.n5": "066a612a4c1b97da4a6b3de052b177b28257c275fb4b19a6fef38c4783d74c56",
    "minterms.dup22.n5": "e91375872882b8053380c3503ac54e9e37ba1f16429365259d7382360bcda161",
    "dup23.n6": "4b2b10ad99ed83786e77d4a2c7301c87b3d67af12147d3efe9a336a5d2cefea0",
    "dc.dup23.n6": "4b2b10ad99ed83786e77d4a2c7301c87b3d67af12147d3efe9a336a5d2cefea0",
    "minterms.dup23.n6": "4b2b10ad99ed83786e77d4a2c7301c87b3d67af12147d3efe9a336a5d2cefea0",
}


def test_variant_netlists_are_pinned():
    assert variant_digests() == VARIANT_PINNED


#: sha256 of the netlists of every cube on 1-7 inputs, alone and twice,
#: under both core metrics; computed before products became a leaf of the
#: decomposer, when each ran the full core search.
PRODUCTS_PINNED = "7239bb31644f0809bc7fb9783a212d61853393503ed8afcde7abec8a81e482ff"


def test_every_product_of_up_to_seven_inputs_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 8):
        names = tuple(f"x{i}" for i in range(n))
        for symbols in itertools.product("01-", repeat=n):
            cube = "".join(symbols)
            for cubes in ((cube,), (cube, cube)):
                for opts in (DecomposeOptions(), VARIANTS["minterms"]):
                    h.update(netlist_to_text(decompose(Cover(names, cubes), opts)).encode())
    assert h.hexdigest() == PRODUCTS_PINNED
