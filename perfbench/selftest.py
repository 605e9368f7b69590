"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with --smoke and checks that each
run exits 0 with correct output; that its result line carries exactly the
BENCHMARK.json metrics of its mode, each with its unit; that a traced run
calls every layer its workload exercises; that in every traced call the
layer spans' self times sum to no more than the call's traced time; and
that compare.py finds nothing worse when a run is compared with itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import compare
from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MUSIC_LAYERS = ("doasim.simulate", "doasim.sample_covariance",
                "doasim.coarray_autocorrelation", "doasim.toeplitz_augment",
                "doasim.music_spectrum", "doasim.pick_peaks",
                "coarray.difference_coarray", "coarray.summarize")
CALLED_LAYERS = {
    "music_nfa12": MUSIC_LAYERS,
    "music_sfa48": MUSIC_LAYERS,
    "fragility_sfa48": ("robustness.essential_sensors",
                        "robustness.k_fragility"),
    "table1_gallery": ("geometry.make_sfa", "geometry.gen_super_nested",
                       "coarray.difference_coarray", "coarray.summarize",
                       "coarray.lag_set", "robustness.essential_sensors",
                       "robustness.k_fragility"),
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record), json.loads(result)


def check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0, result["failed"]
    units = {m["name"]: m["unit"] for m in specs}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == units, (got, units)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)), entry


def check_spans(record):
    path = ROOT / record["spans_file"]
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    own = self_times(spans)
    for root in (s for s in spans if s["name"] == "bench.call"):
        layer_self = sum(t for s, t in zip(spans, own)
                         if s["call"] == root["call"]
                         and not s["name"].startswith("bench."))
        assert layer_self <= root["end"] - root["start"], root


def main():
    untraced = []
    for workload in CALLED_LAYERS:
        record, result = run(workload, trace=0)
        check_result(result, BENCH["end_to_end"])
        untraced.append(record)
        record, result = run(workload, trace=1)
        check_result(result, BENCH["per_layer"])
        for layer in CALLED_LAYERS[workload]:
            assert result["metrics"][layer + ".calls"]["value"] > 0, layer
        check_spans(record)
        print("ok", workload)
    for row in compare.compare(untraced, untraced, BENCH):
        assert row["verdict"] != "worse", row
    print("selftest passed")


if __name__ == "__main__":
    main()
