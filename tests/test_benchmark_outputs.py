"""The benchmark's own op outputs (``perfbench/workloads.py``), pinned by
digest at one seed: a refactor that claims byte-identical behaviour must
leave every cycle, plan index and oracle count of every workload as it was."""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 11


@pytest.mark.parametrize(
    "name, digest",
    [
        ("paths-k3", "c5aeb5863561acb172c8fc1d9568eaf9f2828b8fcf1050cf58b07f3ded037ee5"),
        ("absorber-k2", "814ae7e921246b1ac86ece0ccdef77da7e1d34ed1ccf868e89988e52dfceae09"),
        ("rainbow-dense", "4a1f5efdc7d499573d036b8bfbb4e59dc4586f2c302e3e59f3c6251e41d9c15e"),
        ("oracle-lowerbound", "f7945a33ec52c1f40ca26bbd516e379f3e7cf5b9cf7499fb52f9431c2bdf633f"),
    ],
)
def test_workload_outputs_digest(name, digest):
    outputs = [op.call() for op in workloads.WORKLOADS[name](SEED).ops]
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == digest
