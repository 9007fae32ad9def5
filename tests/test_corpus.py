"""Fixed output corpus: refactors of the decomposer must keep netlists byte-identical.

Each case is the sha256 of ``netlist_to_text(decompose(cover))``.  The corpus
is every output of the demo PLAs plus seeded random covers of 6-12 inputs.
A change that alters any netlist must update the pinned digest and say why.
"""

from __future__ import annotations

import hashlib
import random

from gridsyn import decompose, netlist_to_text, parse_pla_outputs

from helpers import DEMO_PLAS, random_cover


def corpus():
    """(case name, cover) pairs in a fixed order."""
    for path in sorted(DEMO_PLAS.glob("*.pla")):
        for name, cover in parse_pla_outputs(path.read_text()):
            yield f"{path.stem}.{name}", cover
    rng = random.Random(20011)
    for k in range(20):
        n = 6 + k % 7
        yield f"random{k:02d}.n{n}", random_cover(rng, n, rng.randint(n, 2 * n))


def netlist_digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(netlist_to_text(decompose(cover)).encode()).hexdigest()
        for name, cover in corpus()
    }


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
