"""Golden serializations: the sha256 of `serialize_instance` output for
generated instances, pinned so that a change to how instances are stored,
generated or written cannot silently alter the wire format or the
instances themselves.

Covers the three generators at the CLI defaults and at the benchmark's
sizes, the randomized test builders, and the benchmark's workloads at seed 0:
each 4-cost cover (rebuilt from a generated cover through
`CipInstance.create(base.a_matrix, ...)`) on its own, and one digest over the
concatenated serializations of each other workload.
"""

import hashlib

import pytest

import lllround
from lllround import gen_facility_location, gen_hypergraph_partition, gen_set_cover, serialize_instance

from _builders import perfbench_workloads, random_cip, random_mip

GOLDEN = {
    "set-cover-s0": "9771d9633312ad2e6844ab2e0887d28d5f573f027d401d70db512e66d31c8244",
    "set-cover-s1": "cb316951f77387835e4de123cf94e28cdf902e413c24fff0c4b398054af0b479",
    "set-cover-s2": "096cb706f11f40afb6d824b872ccddeb96c4748734148e20239613c6ce94508b",
    "facility-s0": "97cd01af147d1782156eafef3715a1b9661dd43b6e37a45b801e396d75873c3e",
    "facility-s1": "528ddf6e0ccfa2ef17dec02b9ce39a77f94f41044cc074eb9fbed9834b94fd4f",
    "facility-s2": "b8f4f8972b9125504f786378c83f4e7b8e23ba3ac87d0347e7a38b5e1efd27c7",
    "hypergraph-s0": "3dceac8b75ccac8ece79cec005af9ad7bed7d3909df3637d980086432fe17e67",
    "hypergraph-s1": "62defa5f2e69492769cb6b0d39b6a3a789af91d453630dfaf3290a84aebd6d21",
    "hypergraph-s2": "d639bb20a6e90d4675f76666b84368b0c328eecb13dfa72f80f78185a5873bc3",
    "random-cip-s0": "c1a82fb4a9dae3f038a94c12bfe925eef4ac26522bcba68fc2479c48219429b6",
    "random-cip-s1": "6cd5c30a174fe5acdf9cd5181bf80bd133c7986d7bd0ad546720c59497e191fc",
    "random-cip-s2": "518cee8959769ca1f09221d20960ea8d9fdcf68e1872bce05861b1b1bb305ea3",
    "random-cip-s3": "d064fa2aa931f3e8b295acd12264f9a6011799a372842b941b3ff0e6fe7d009f",
    "random-cip-s4": "34eb252113d9bb38d1302c7d6c102943fac7ae7c08c28e0bc6b40d0b0b89ff2c",
    "random-mip-s0": "f71aba0249ef65a7cc9369755d6b4421e9d37df318d22cadc22a1c981c9df33e",
    "random-mip-s1": "c8007520e881f64cb298a3588b71046e3cbf697ad7de91b1017478df8582a1ea",
    "random-mip-s2": "c74c1c2221e93ea9ba23a4abe9d07e805ae6137263fbb9fa39bccf66c5e3ef43",
    "random-mip-s3": "de8bcfbf6b7661a98dd352d370cb13205c83970a11f4f887ff4af5c30aee8984",
    "random-mip-s4": "780a8491a2b6e770f6708dc3678be242ae452da0a7a34dd45d5f66c0befc34b8",
    "multicost-12x30-s0": "0ea9ca57210b54709085054c1e5a696204641da67f56b4698855e104f76a2f8f",
    "multicost-12x30-s1": "4380a1338def1c88d01223bae571603b561816efce0edf54783111f3d29d85f2",
    "multicost-12x30-s2": "e68431b487448c95f10f83085359a8abccb2c0e2fc8a11e4a99c32c89c7c8e25",
    "multicost-12x30-s3": "f45c9e39fe3b479a3a04a242a2ba81e07a8b37c2e13a4e15059954fc372f04e4",
    "multicost-12x30-s4": "5ec1b3278658aa1e5e2f7a78d221a28e427f29299b1c31e65cff5db919f7d76b",
    "multicost-12x30-s5": "eeeb4fb08c51d1dd26076f5aac20611edac6ef231d84efcd29fe09342fc399e5",
    "multicost-12x45-s6": "3f33af5d8594d92929a202236849f7a6ba89cbf0a443dafe3fbb979d052ba09f",
    "multicost-12x45-s7": "bc3dea46155bd5da56c674b973533bb17584b477ce5d88823dfc854b23c4b61b",
    "multicost-12x60-s8": "18f0ea5216d5330bc357c39cf55b0c6aa2c438cdba0dc83ed659b56b6d53f474",
    "multicost-12x75-s9": "ba50f5c42c51a9bd76e7dc5cef1af0a9bb908faf903f65bf92373e8bfd1731ba",
    "set-cover-200x128-s0": "988bdab6863ff8ecb173bd42e744d63a077896cf654ea5ec03d7dcd3b2bc5a1b",
    "set-cover-1000x1800-s0": "667858696d5499ad41152242a4b1c61712f298d6e6b9c6849908cef817608f20",
    "facility-300-s0": "2a36d34f7d428befe61293cfd9ed3c8c53842560abbedf54d6ae666f030c3846",
    "hypergraph-50x50-s0": "68bd8fdd69c56284029936000afe97867db9793d3b1eebb5a40bd8993955f6b9",
    "workload-cover-lp-s0": "57e9df9861a54ecc4ff278cb2759986f0634f9b2d1e48a69dba414c81e115b56",
    "workload-cover-large-s0": "667858696d5499ad41152242a4b1c61712f298d6e6b9c6849908cef817608f20",
    "workload-minimax-s0": "ac3f2e7c52299bd4e315d3d7b5bb6fc8e18019ddaf1949820149a5e7cdd766f0",
}


def _instances():
    """(label, instances) pairs; each label's digest is over the
    concatenated serializations of its instances."""
    for s in range(3):
        yield f"set-cover-s{s}", [gen_set_cover(12, 20, 5, 2, s)]
        yield f"facility-s{s}", [gen_facility_location(15, 4, 2, s)]
        yield f"hypergraph-s{s}", [gen_hypergraph_partition(10, 8, 4, 2, s)]
    for s in range(5):
        yield f"random-cip-s{s}", [random_cip(s)]
        yield f"random-mip-s{s}", [random_mip(s)]
    yield "set-cover-200x128-s0", [gen_set_cover(200, 128, 5, 2, 0)]
    yield "set-cover-1000x1800-s0", [gen_set_cover(1000, 1800, 5, 2, 0)]
    yield "facility-300-s0", [gen_facility_location(300, 4, 2, 0)]
    yield "hypergraph-50x50-s0", [gen_hypergraph_partition(50, 50, 4, 2, 0)]
    workloads = perfbench_workloads()
    for label, inst in workloads.cover_multicost(lllround, 0):
        yield label, [inst]
    for name in ("cover-lp", "cover-large", "minimax"):
        yield f"workload-{name}-s0", [inst for _, inst in workloads.WORKLOADS[name](lllround, 0)]


@pytest.fixture(scope="module")
def digests():
    return {label: hashlib.sha256("".join(map(serialize_instance, insts)).encode()).hexdigest()
            for label, insts in _instances()}


def test_the_golden_set_is_complete(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_serialization_is_byte_identical(digests, label):
    assert digests[label] == GOLDEN[label]
