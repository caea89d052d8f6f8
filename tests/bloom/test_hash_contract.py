"""The frozen hash contract: key bytes -> blake2b-128 -> Kirsch-Mitzenmacher slots.

``GOLDEN_indices.json`` was written by the numpy-backed filters this
module replaced; simulated false positives (and so every golden result
downstream) move if a single index does.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bloom import CountingBloomFilter

GOLDEN = json.loads((Path(__file__).parent / "GOLDEN_indices.json").read_text())
DECODE = {"int": int, "str": str, "bytes": bytes.fromhex}


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda c: f"m{c['num_bits']}-k{c['num_hashes']}"
)
def test_indices_match_golden(case):
    bf = CountingBloomFilter(num_bits=case["num_bits"], num_hashes=case["num_hashes"])
    assert len(case["keys"]) >= 12
    for _ in range(2):  # hashed, then answered from the memo
        for row in case["keys"]:
            key = DECODE[row["kind"]](row["key"])
            assert list(bf._indices(key)) == row["indices"], row


def test_refusals():
    bf = CountingBloomFilter(num_bits=64, num_hashes=4)
    bf.add(1)  # 1.5 and -1 are refused; 1.0 must not be answered as the int 1
    for op in (bf.add, bf.__contains__, bf._indices):
        with pytest.raises(ValueError):
            op(-1)
        for key in (1.5, 1.0, None, bytearray(b"x"), (1,)):
            with pytest.raises(TypeError, match=type(key).__name__):
                op(key)
    assert bf.count == 1


def test_index_integers_are_their_int():
    bf = CountingBloomFilter(num_bits=9586, num_hashes=7)
    for same in (np.int64(5), np.uint8(5), np.int32(5)):
        assert bf._indices(same) == bf._indices(5)
    assert bf._indices(True) == bf._indices(1)
    bf.add(np.int64(1499))
    assert 1499 in bf and np.int64(1499) in bf
    with pytest.raises(ValueError):
        bf.add(np.int64(-1))
    # Only exact ints, strs and bytes are ever memo keys.
    assert {type(k) for k in bf._memo} == {int}
