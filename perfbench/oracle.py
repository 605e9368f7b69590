"""Record oracle.json: exact counts from the exhaustive enumerator.

The enumeration workloads check every output against these values, so this
is run once against a commit whose enumerator is trusted, never to make a
failing check pass.  Run from the repository root:

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fractalarrays as fa  # noqa: E402
import workloads as wl  # noqa: E402


def record():
    sfa48 = fa.make_sfa("nested", {"n": 6}, 3)
    counts = wl.counts_of(*wl.robustness(sfa48, 3))
    oracle = {"fragility_sfa48": dict(positions=list(sfa48.positions),
                                      **counts),
              "table1_gallery": {}}
    for label, builder, args in wl.GALLERY:
        arr = getattr(fa, builder)(*args)
        summary = fa.summarize(fa.difference_coarray(arr))
        k_max = min(wl.GALLERY_K_MAX, len(arr) - 1)
        oracle["table1_gallery"][label] = dict(
            positions=list(arr.positions),
            ula_segment=list(summary.ula_segment),
            holes=list(summary.holes),
            **wl.counts_of(*wl.robustness(arr, k_max)))
    return oracle


if __name__ == "__main__":
    wl.ORACLE_PATH.write_text(json.dumps(record(), indent=1) + "\n",
                              encoding="utf-8")
