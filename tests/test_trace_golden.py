"""Golden trace digests: every registered workload generates exactly the
trace it always has.

Each digest is a sha256 over a program's per-processor ``gaps``, ``kinds``
and ``addrs`` (little-endian, fixed width) plus its ``home`` and ``meta``.
A generator rewrite (say, from per-op emission to numpy phases) must leave
every digest unchanged; the RNG-draw-order rules in docs/WORKLOADS.md
("Writing a generator") are what keeps that possible.

Re-pin a digest only for an *intended* trace change, in the same change
that makes it, and run ``python tests/test_trace_golden.py`` to print the
current table.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.harness.configs import workload_args
from repro.workloads import CATALOG, EXTRAS, by_name


def program_digest(program):
    h = hashlib.sha256()
    h.update(f"{program.n_procs}\n{program.home}\n".encode())
    h.update(json.dumps(program.meta, sort_keys=True).encode())
    for trace in program.traces:
        h.update(f"\n{len(trace)}\n".encode())
        h.update(np.ascontiguousarray(trace.gaps, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(trace.kinds, dtype="u1").tobytes())
        h.update(np.ascontiguousarray(trace.addrs, dtype="<i8").tobytes())
    return h.hexdigest()


def _cases():
    cases = {}
    for name in CATALOG:
        cases[f"{name}/default"] = (name, {})
        cases[f"{name}/quick8"] = (name, workload_args(name, quick=True, n_procs=8))
        cases[f"{name}/quick4"] = (name, workload_args(name, quick=True, n_procs=4))
    for name in ("barnes", "em3d"):
        for seed in (1, 7):
            cases[f"{name}/seed{seed}"] = (name, {"seed": seed})
    for name in EXTRAS:
        cases[f"{name}/default"] = (name, {})
    return cases


CASES = _cases()

GOLDEN = {
    "barnes/default": "558f64cca3b0c4590252cd1f061d7f162396957bd1806dd7bdea1f95bf5c0527",
    "barnes/quick4": "753ef4561b01c60b4e2cae1154fbec7fdb79da9852ef067e33f81afdf45f6f07",
    "barnes/quick8": "e4f9ea46939f7707f6658d90f7a83cd4d36e3034bac0d8f113e9962c11a303c3",
    "barnes/seed1": "b7506ac868f1c570aadfef6449619225f148dcb460936bd251c16a7b2fd075e0",
    "barnes/seed7": "08236cf3b93b79f2b76a3c08b3aae92661e3082ce9570669d66a627de89e555a",
    "em3d/default": "0d401b1a658c6ea573b38a7acb2826d4f3604f3dfb86cfa4f6b8b747172a1e9c",
    "em3d/quick4": "ba5402b9544fef9a6e674c986b464fa380d89333da0239ed82af2c19c36089a0",
    "em3d/quick8": "db3204f58507621bc9d32bc137323558338db4c76ed8d47eb2a7e3e610dc5d53",
    "em3d/seed1": "4384cec73ebed127e4eac785dd7a56210c1249ae59b5b4cb2e31435f89e464b8",
    "em3d/seed7": "ab476490ab0523bf9b6c6e64c9f4dbe046f57333c705c12402b77b5942ee834f",
    "false_sharing/default": "1308bb9acf2a3318cd96999ffee05998d27f30b7b46eb1a41c52e21b3177964c",
    "migratory/default": "be250a0f7936f73abafc3d6e7e5966d433b535db26d33b47a9b4c55f107bdd8e",
    "ocean/default": "2a6fd2513dca7c41546b8b786b37ab3fb9ceccb623e3b41904b7cf7919d31b43",
    "ocean/quick4": "dfb527bd956c0a091768ba9183eeef90aab4bda00d3e8cda8a653184e38b51f6",
    "ocean/quick8": "5de6276713298e0703a1065b5a378da52510ad0040ee48654a3e5c62fae36c26",
    "producer_consumer/default": "b747aca28fd75a5a82d8ad78cf2483ecb79d793b3d81e9160abab12273275cd4",
    "read_mostly/default": "05b5444a660bc06d5941fd7a655c7a0673f36e4f7e7d84db02828aa24f9ccc07",
    "sparse/default": "30b3d28f326c6ce646af9157f3ec427467128aca531b98a27f46a4395558a17d",
    "sparse/quick4": "571585bdf88955f6f56bfa0003be8429d6772fd668df76d7d9ef099ddbc485b8",
    "sparse/quick8": "71f90a4a55303aa446d379fcf36dac09a1738f0af7a194b371c42f988c4cf6d3",
    "tomcatv/default": "2e980f6807d7c9c25e137b57fe355840aa879a42be4b03a284f060eae2df101a",
    "tomcatv/quick4": "30872fc01b3a49faffa1acc3eed5dacd1317d7a5e0ae15f1b9e7286797d391a0",
    "tomcatv/quick8": "72d22039d7a195b150200ee9e4b0547749375750c2b5f981f2a344a5596a5ced",
    "write_conflict/default": "4c5cd80957674c3b7405ac7128dbc096ceac54973590e2d577440c1d50318a13",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    name, kwargs = CASES[case]
    assert program_digest(by_name(name, **kwargs)) == GOLDEN[case]


def test_every_case_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        name, kwargs = CASES[case]
        print(f'    "{case}": "{program_digest(by_name(name, **kwargs))}",')
