"""Every ``BENCH_*.json`` record speaks the benchmark's vocabulary.

A record holds before/after runs of ``perfbench/run.py`` for one change: for
each workload and end-to-end metric the parent's and the change's runs,
medians, quartiles and pair wins, and the traced per-layer figures that show
where the difference arose.  Its names must be ones ``BENCHMARK.json``
defines, so that a renamed workload or metric cannot leave a record that no
run can be compared with.  Its summary figures must follow from its runs,
and its claim must pass the rule a gain is claimed by.
"""
import json
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_only_what_the_benchmark_defines(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END
    assert set(record["workloads"]) <= WORKLOADS
    for name, workload in record["workloads"].items():
        assert set(workload["end_to_end"]) <= set(END_TO_END), name
        assert set(workload["traced"]) <= PER_LAYER, name
        for metric, entry in workload["end_to_end"].items():
            assert entry["unit"] == END_TO_END[metric]["unit"], (name, metric)
            assert entry["better"] == END_TO_END[metric]["better"], (name, metric)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_complete(path):
    record = json.loads(path.read_text())
    for commit in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", record[commit]), commit
    assert record["parent"] != record["change"]
    pairs = record["pairs"]
    for name, workload in record["workloads"].items():
        assert len(workload["seeds"]) == pairs, name
        for metric, entry in workload["end_to_end"].items():
            for side in ("parent", "change"):
                stats = entry[side]
                assert len(stats["runs"]) == pairs, (name, metric, side)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric, side)
            assert entry["wins"] + entry["losses"] + entry["ties"] == pairs, (name, metric)


def _entries(record):
    for name, workload in record["workloads"].items():
        for metric, entry in workload["end_to_end"].items():
            yield (name, metric), entry


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_quartiles_follow_from_its_runs(path):
    # runs and figures are both rounded to 4 decimals, each by up to 5e-5
    for key, entry in _entries(json.loads(path.read_text())):
        for side in ("parent", "change"):
            stats = entry[side]
            want = np.percentile(stats["runs"], [25, 50, 75])
            got = [stats["q1"], stats["median"], stats["q3"]]
            assert got == pytest.approx(want, rel=0, abs=1e-4 + 1e-12), (key, side)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_pair_wins_follow_from_its_runs(path):
    for key, entry in _entries(json.loads(path.read_text())):
        sign = 1 if entry["better"] == "higher" else -1
        gaps = [sign * (c - p) for p, c in zip(entry["parent"]["runs"], entry["change"]["runs"])]
        tally = (sum(g > 0 for g in gaps), sum(g < 0 for g in gaps), sum(g == 0 for g in gaps))
        assert (entry["wins"], entry["losses"], entry["ties"]) == tally, key


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_claim_passes_the_gain_rule(path):
    # nine tenths of the pairs won, and a median gap wider than the
    # parent's quartile distance
    record = json.loads(path.read_text())
    claim = record["claim"]
    entry = record["workloads"][claim["workload"]]["end_to_end"][claim["metric"]]
    parent, change = entry["parent"], entry["change"]
    assert 10 * entry["wins"] >= 9 * record["pairs"]
    sign = 1 if entry["better"] == "higher" else -1
    assert sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"]


def test_a_record_exists():
    assert RECORDS, "no BENCH_*.json at the repository root"
