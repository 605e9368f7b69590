"""Benchmark of the fractalarrays library: coarray-MUSIC trial throughput
and exact-fragility enumeration rate, with per-layer timings.

Run from the repository root (it needs only the sources under src/):

    python3 perfbench/run.py --workload music_nfa12 --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One process drives the library in a closed loop: a single caller, each call
waiting for the previous one.  BLAS threads are capped at the number of
usable processors.  A run sets up its workload, makes one untimed warm-up
call, then calls the workload for ``--seconds`` (at least its minimum number
of calls), checking every output.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the full record (seeds, sample counts, environment), which
is also appended to .bench_out/results.jsonl for perfbench/compare.py.

``--trace 0`` reports the end-to-end metrics.  setup_s is the median of
three set-ups (this process and two fresh ones): import, input construction
and one warm-up call.  work_per_s counts Monte-Carlo trials on the MUSIC
workloads and removal subsets on the enumeration workloads (essential_sensors
counts N, k_fragility counts C(N, k)).

End-to-end times are in reference-speed seconds.  On a shared machine the
CPU speed drifts by up to a quarter within seconds, and a 25-second run sees
too few of these swings to average them out.  So each timed call (and each
set-up) is bracketed by a fixed reference kernel (see Clock), and its wall
time is scaled by REF_NOMINAL_S over the kernel's mean duration around it.
The unscaled wall times are kept in the full record (``samples``).  numpy is
imported before set-up starts, because the kernel needs it; setup_s times
the library's import, not numpy's.

``--trace 1`` reports the per-layer metrics.  After each timed call it
replays the same call through the public layer functions inside spans,
asserts that the replay's answer equals the call's, and writes the spans to
.bench_out/spans-<workload>-seed<seed>.json.  Self time is a span's duration
minus its child spans; busy_share is the layer's self time over the traced
time; trace.overhead_ms is the median traced call minus the median untraced
call.  The .macs metrics are operation counts computed from the input sizes,
not measured.  The experiments module is command-line glue with no hot path
of its own and is not measured.

Exit status: 0 when every output is correct, 1 on any mismatch, 2 when the
library cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import Tracer, layer_stats

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("music_nfa12", "music_sfa48", "fragility_sfa48",
             "table1_gallery")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 175
# The reference kernel's size, and its duration in the fastest 5% of
# samples on the x86_64, 2-vCPU machine the benchmark was tuned on.
REF_LOOP = 40_000
REF_EXP_SHAPE = (25, 8192)
REF_NOMINAL_S = 5.5e-3

LAYERS = ("doasim.simulate", "doasim.sample_covariance",
          "doasim.coarray_autocorrelation", "doasim.toeplitz_augment",
          "doasim.music_spectrum", "doasim.pick_peaks",
          "coarray.difference_coarray", "coarray.summarize", "coarray.lag_set",
          "robustness.essential_sensors", "robustness.k_fragility",
          "geometry.make_sfa", "geometry.gen_super_nested")
COMPUTED_COUNTS = ("doasim.music_spectrum.macs",
                   "doasim.sample_covariance.macs")


def usable_processors():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads():
    """Cap every BLAS/OpenMP thread pool at the usable processor count."""
    nproc = usable_processors()
    caps = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() else nproc
        os.environ[var] = caps[var] = str(cap)
    return caps


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


class Clock:
    """Times a call in wall seconds and in reference-speed seconds.

    The reference kernel is a pure-Python loop plus a numpy exp over a
    3 MB complex array, so its duration follows slowdowns of both
    interpreter-bound and memory-bound code.  It runs just before and just
    after each timed call; the scale is REF_NOMINAL_S over its mean duration.
    """

    def __init__(self):
        import numpy as np
        self._exp = np.exp
        rows, cols = REF_EXP_SHAPE
        self._phase = 2j * np.pi * np.outer(np.arange(rows),
                                            np.linspace(-0.5, 0.5, cols))
        for _ in range(3):  # the first runs pay one-time costs
            self.reference()

    def reference(self):
        start = time.perf_counter()
        x = 0
        for j in range(REF_LOOP):
            x += j * j
        self._exp(self._phase)
        return time.perf_counter() - start

    def timed(self, fn, *args):
        """fn(*args), its wall time, and that time at reference speed."""
        before = self.reference()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        scale = 2 * REF_NOMINAL_S / (before + self.reference())
        return result, wall, wall * scale


def set_up(name, seed, smoke):
    """Import the library, build the workload and make one warm-up call."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fractalarrays
    except ImportError as exc:
        fail("cannot import fractalarrays from %s: %s" % (ROOT / "src", exc))
    if not Path(fractalarrays.__file__).resolve().is_relative_to(ROOT / "src"):
        fail("fractalarrays was imported from %s, not from %s"
             % (fractalarrays.__file__, ROOT / "src"))
    import workloads
    wl = workloads.make(name, seed, smoke)
    wl.call(0)
    return wl


def probe_setups(args):
    """Set-up time of fresh processes, each importing from scratch."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas_caps):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy_version,
            "blas": blas,
            "blas_thread_caps": blas_caps,
            "nproc": usable_processors(),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "git_commit": git_commit()}


def measure(wl, seconds, trace, clock):
    """The closed loop: call, check, and (traced) replay and compare."""
    tracer = Tracer() if trace else None
    walls, times, traced, work = [], [], [], 0
    attempted = failed = 0
    correct = True
    i = 0
    start = time.perf_counter()
    while i < max(wl.min_calls, 2) or time.perf_counter() - start < seconds:
        i += 1
        out, wall, scaled = clock.timed(wl.call, i)
        walls.append(wall)
        times.append(scaled)
        work += wl.work(out)
        n, bad, ok = wl.check(i, out)
        attempted, failed = attempted + n, failed + bad
        correct = correct and ok
        if tracer is not None:
            with tracer.span("bench.call", call=i) as root:
                replayed = wl.replay(i, tracer)
            traced.append(root["end"] - root["start"])
            same = wl.matches(out, replayed)
            attempted, failed = attempted + 1, failed + (not same)
            correct = correct and same
    return {"walls": walls, "times": times, "traced": traced, "work": work,
            "attempted": attempted, "failed": failed, "correct": correct,
            "tracer": tracer}


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(run, setups, peak_rss_mb, work_unit):
    times = run["times"]
    metrics = {"setup_s": (statistics.median(s["setup_s"] for s in setups),
                           "s"),
               "call_s_p50": (statistics.median(times), "s"),
               "call_s_p90": (p90(times), "s"),
               "work_per_s": (run["work"] / sum(times), "1/s"),
               "peak_rss_mb": (peak_rss_mb, "MiB")}
    samples = {"work_unit": work_unit, "calls": len(times),
               "calls_beyond_p90": sum(t > p90(times) for t in times),
               "setups": setups,
               "wall_call_s_p50": statistics.median(run["walls"]),
               "wall_call_s_p90": p90(run["walls"])}
    return metrics, samples


def per_layer(run, wl):
    stats = layer_stats(run["tracer"].spans, LAYERS, sum(run["traced"]))
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = (stats[layer]["calls"], "count")
        metrics[layer + ".self_ms_p50"] = (stats[layer]["self_ms_p50"], "ms")
        metrics[layer + ".busy_share"] = (stats[layer]["busy_share"], "share")
    for name in COMPUTED_COUNTS:
        metrics[name] = (wl.computed_counts.get(name, 0), "MAC_computed")
    metrics["robustness.k_fragility.subsets_per_s"] = (
        stats["robustness.k_fragility"]["work_per_s"], "1/s")
    metrics["trace.overhead_ms"] = (
        (statistics.median(run["traced"]) - statistics.median(run["walls"]))
        * 1e3, "ms")
    return metrics


def write_spans(args, run):
    spans = run["tracer"].spans
    origin = spans[0]["start"] if spans else 0.0
    for s in spans:
        s["start"] -= origin
        s["end"] -= origin
    path = OUT_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "untraced_call_s": run["walls"],
                                "traced_call_s": run["traced"],
                                "spans": spans}) + "\n", encoding="utf-8")
    return path


def run_one(args):
    caps = cap_blas_threads()
    clock = Clock()
    wl, wall, scaled = clock.timed(set_up, args.workload, args.seed,
                                   args.smoke)
    setups = [{"setup_s": scaled, "wall_s": wall}]
    if args.probe:
        print(json.dumps(setups[0]))
        return 0
    if not args.trace:
        setups += probe_setups(args)
    run = measure(wl, args.seconds, args.trace, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, samples = end_to_end(run, setups, peak_rss_mb, wl.work_unit)
    metrics = per_layer(run, wl) if args.trace else e2e
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_share": run["failed"] / run["attempted"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in
                       e2e.items()},
        "samples": samples,
        "detail": wl.detail(),
        "env": environment(caps),
    }
    if args.trace:
        record["spans_file"] = str(write_spans(args, run).relative_to(ROOT))
    line = json.dumps(record)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if run["correct"] else 1


def run_all(args):
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write("perfbench: %s exited with %d\n"
                             % (name, proc.returncode))
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"]["%s/%s" % (name, metric)] = entry
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload (used by selftest.py)")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
