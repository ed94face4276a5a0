"""tools/ab.py's statistics on canned numbers; no benchmark is run."""
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ab
    return ab


PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.8, 10.9, 11.1, 12.2]


def test_quartiles_are_numpy_percentiles(ab):
    q = ab.quartiles(PARENT)
    np.testing.assert_allclose([q["q1"], q["median"], q["q3"]],
                               np.percentile(PARENT, [25, 50, 75]),
                               rtol=1e-15)


def test_nine_of_ten_and_a_gap_over_the_iqr_resolve(ab):
    change = [p - 2.0 for p in PARENT]
    change[3] = PARENT[3] + 1.0         # the parent wins one pair
    out = ab.compare(PARENT, change, "lower", "ms")
    iqr = np.subtract(*np.percentile(PARENT, [75, 25]))
    assert out["change_won"] == 9 and out["pairs"] == 10
    assert out["parent_iqr"] == pytest.approx(iqr, rel=1e-15)
    assert out["resolved"]
    assert out["median_change_pct"] == pytest.approx(
        100.0 * (np.median(change) / np.median(PARENT) - 1.0), rel=1e-12)
    assert out["parent_runs"] == PARENT and out["change_runs"] == change
    assert out["unit"] == "ms"


def test_eight_of_ten_do_not_resolve(ab):
    change = [p - 2.0 for p in PARENT]
    change[3] = change[5] = 13.0
    out = ab.compare(PARENT, change, "lower", "ms")
    assert out["change_won"] == 8 and not out["resolved"]


def test_a_gap_within_the_iqr_does_not_resolve(ab):
    change = [p - 0.05 for p in PARENT]
    out = ab.compare(PARENT, change, "lower", "ms")
    assert out["change_won"] == 10 and not out["resolved"]


def test_a_resolved_loss_and_ties(ab):
    # the parent wins every pair: resolved, against the change
    worse = ab.compare(PARENT, [p + 3.0 for p in PARENT], "lower", "s")
    assert worse["change_won"] == 0 and worse["resolved"]
    # a tie counts for neither side, so 9 wins and a tie do not make 10
    change = [p - 2.0 for p in PARENT]
    change[0] = PARENT[0]
    assert ab.compare(PARENT, change, "lower", "s")["change_won"] == 9


def test_higher_is_better(ab):
    out = ab.compare(PARENT, [p + 3.0 for p in PARENT], "higher", "records")
    assert out["change_won"] == 10 and out["resolved"]


def test_unpaired_runs_rejected(ab):
    with pytest.raises(ValueError, match="pairs"):
        ab.compare(PARENT, PARENT[:-1], "lower", "s")


def test_summarize_reads_each_runs_metrics(ab):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    def result(v):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                            for m in metrics}}

    runs = {"plate-smma": [(result(p), result(p - 1.0)) for p in PARENT]}
    out = ab.summarize(runs, metrics)
    assert out["plate-smma"]["pairs"] == 10
    for m in metrics:
        assert out["plate-smma"][m["name"]]["change_won"] == 10
    assert ab.last_json("noise\n" + json.dumps(result(1.0)) + "\n") == (
        result(1.0))


def test_reproduces_the_committed_bench_files(ab):
    # every summary of BENCH_31.json but "resolved", whose rule there was
    # the gap alone, from its own runs
    bench = json.loads((ROOT / "BENCH_31.json").read_text())
    for workload in bench["workloads"].values():
        for name, stored in workload.items():
            if not isinstance(stored, dict):
                continue
            out = ab.compare(stored["parent_runs"], stored["change_runs"],
                             "lower", stored["unit"])
            for key in ("change_won", "pairs"):
                assert out[key] == stored[key]
            for key in ("median_change_pct", "parent_iqr"):
                assert out[key] == pytest.approx(stored[key], rel=1e-9)
            for side in ("parent", "change"):
                for q in ("q1", "median", "q3"):
                    assert out[side][q] == pytest.approx(stored[side][q],
                                                         rel=1e-12)
