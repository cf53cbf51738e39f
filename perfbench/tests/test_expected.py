import copy
import json

import pytest

import worker
from run import EXPECTED, Ledger
from workloads import WORKLOADS, key


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_item_has_an_expected_output(expected):
    assert set(expected) == set(WORKLOADS)
    for workload, pairs in WORKLOADS.items():
        assert set(expected[workload]) == {key(p) for p in pairs}


def test_catalog_pairs_all_agree(expected):
    assert len(expected["catalog"]) == 76
    assert {v[3] for v in expected["catalog"].values()} == {"Agree"}


@pytest.mark.parametrize("workload, item, position", [
    ("catalog", ("Z4", "D4"), 2),            # oracle index
    ("exhaustive", ("Z2", "D4"), 0),         # degree-2 verdict
])
def test_flipped_expected_value_is_caught(expected, workload, item, position):
    output = worker.RUNNERS[workload]("jrl", item, 0)
    reply = {"item": list(item), "s": 0.0, "output": json.loads(json.dumps(output))}

    good = Ledger(workload, expected[workload])
    good.record(reply, {})
    assert (good.attempted, good.failed) == (1, 0)

    flipped = copy.deepcopy(expected[workload])
    value = flipped[key(item)][position]
    if isinstance(value, list):
        value[0] = not value[0]
    else:
        flipped[key(item)][position] = value + 1
    bad = Ledger(workload, flipped)
    bad.record(reply, {})
    assert (bad.attempted, bad.failed) == (1, 1)


def test_raising_item_counts_as_failed(expected):
    ledger = Ledger("catalog", expected["catalog"])
    ledger.record({"item": ["Z2", "C2"], "s": 0.0, "error": "ValueError: boom"}, {})
    assert (ledger.attempted, ledger.failed) == (1, 1)


@pytest.mark.parametrize("workload, item", [
    ("catalog", ("H32", "D4")),
    ("exhaustive", ("Z4", "C2")),
    ("identities", ("Z8", "C2")),
])
def test_frozen_copy_gives_the_expected_outputs(expected, workload, item):
    output = worker.RUNNERS[workload]("jrl_frozen", item, 7)
    assert json.loads(json.dumps(output)) == expected[workload][key(item)]


def test_frozen_copy_is_unchanged():
    import os

    from run import FROZEN, FROZEN_SHA256, source_hash
    assert source_hash(os.path.join(FROZEN, "jrl_frozen")) == FROZEN_SHA256
