"""The exact bytes of both golden datasets, and the premise that makes
the pair a twin: the normal config is the attack config without its
attack.

Any change that alters an artifact on purpose updates its digest here
and says why in CHANGES.md; every other change must leave them alone.
"""

import hashlib

import pytest
import yaml

from gridtwin import data_path

DIGESTS = {
    "normal": {
        "process.csv": "cc3f0fff52e08508168285b6d5ffc0d9aa1d6cbf766b570376e280c9ac7a85b8",
        "flows.csv": "34480680f0129ca14246aeb03aaf470d47e4aab2688b750392d337b93e01d976",
        "capture.pcap": "9a3d14e961d8b6df1c1dea050aa8fb4c50d6759402bf9c0831b48fa3dcd95901",
        "flowgraph.txt": "7c7b5c4e58b9f8ee23721faf710ee7c0e2594a5f0c5c81bad19e19644df8b13e",
        "summary.json": "71e6aac5adabcf810b208d9c7c0a4949c129a3f0c2e40744792b480c3f1c59e8",
    },
    "attack": {
        "process.csv": "69d9d6558d249a95f1edeb46c574c7d171b24adaee2ad5426403aeaa15f1dfc9",
        "flows.csv": "71854f189f0763939ae6c217748ced3319499e46820ab5fac32ace4ed6cb440f",
        "capture.pcap": "a30d9c3fad18c4088c7558f4d725dd48a13da67d20cf9559156bfcd3cfb1c598",
        "flowgraph.txt": "59004203645fd764e9e7ef51ae19fd671bd5e24c1562346d9d42f6c7317e7b4d",
        "summary.json": "147a0a74441b96fd7716306bfeace062e0b182141a3b79abc41b03da3e343129",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_artifacts_are_byte_identical(golden_runs, name):
    outdir = golden_runs[name]["outdir"]
    got = {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest()
           for f in DIGESTS[name]}
    assert got == DIGESTS[name]


def test_normal_config_is_the_attack_config_without_its_attack():
    normal, attack = (
        yaml.safe_load(data_path("configs", f"{name}.yaml").read_text())
        for name in ("normal", "attack"))
    assert normal["attack"] is None and attack["attack"] is not None
    for cfg in (normal, attack):
        del cfg["name"], cfg["attack"]
    assert normal == attack
