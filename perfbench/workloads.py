"""The benchmark workloads: seeded inputs, the timed call, a traced replay
through the public layer functions, and the checks on every output.

Each workload object is built once per run (that is part of set-up) and then
called with a call index i.  Call i derives its inputs from the pair
(run seed, i), so every call in a run gets fresh inputs and the same seed
always gives the same inputs.  ``call`` goes through the library's own entry
points; ``replay`` makes the same calls one layer function at a time inside
spans, and must give the same answer (``matches`` compares the two).

The exact counts the enumeration workloads check against are in
oracle.json, recorded from the exhaustive enumerator by oracle.py.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from fractions import Fraction
from math import comb
from pathlib import Path
from statistics import median

import numpy as np

import fractalarrays as fa

ORACLE_PATH = Path(__file__).with_name("oracle.json")

# Criterion 9 of the acceptance suite: >= 90% of trials resolved and a
# median per-trial RMSE below 5e-3, applied to every MUSIC batch.
MIN_RESOLVED_SHARE = 0.9
MAX_MEDIAN_RMSE = 5e-3

# The five Table-1 sparse fractal arrays, the other arrays of the
# fragility-figure gallery, and two even-n1 super-nested arrays, which
# gen_super_nested finds by exhaustive search rather than a closed form.
GALLERY = (
    ("NFA", "make_sfa", ("nested", {"n": 6}, 1)),
    ("CFA", "make_sfa", ("coprime", {"m": 2, "n": 3}, 1)),
    ("AUGGENIFA", "make_sfa", ("ana1", {"n": 6}, 1)),
    ("AUGGENIIFA", "make_sfa", ("ana2", {"n": 6}, 1)),
    ("SNFA", "make_sfa", ("super_nested", {"n1": 3, "n2": 3}, 1)),
    ("ULA(12)", "gen_ula", (12,)),
    ("Nested(12)", "gen_nested", (12,)),
    ("SuperNested(5,7)", "gen_super_nested", (5, 7)),
    ("Coprime(3,7)", "gen_coprime", (3, 7)),
    ("SuperNested(2,4)", "gen_super_nested", (2, 4)),
    ("SuperNested(4,4)", "gen_super_nested", (4, 4)),
)
GALLERY_K_MAX = 3


def load_oracle():
    return json.loads(ORACLE_PATH.read_text(encoding="utf-8"))


def _span(tracer, name, **fields):
    return nullcontext() if tracer is None else tracer.span(name, **fields)


def _translated(arr, offset):
    """The same array shifted right; its coarray and fragility are unchanged,
    so a shifted copy is a fresh input with the same expected answer."""
    return fa.SensorArray(tuple(p + offset for p in arr.positions),
                          kind=arr.kind, label=arr.label)


def robustness(arr, k_max, tracer=None):
    """essential_sensors plus fragility_profile(k_max).

    Untraced, this is the two public calls; traced, the profile is replayed
    as one k_fragility span per k, each carrying its C(N, k) subset count.
    """
    if tracer is None:
        return fa.essential_sensors(arr), fa.fragility_profile(arr, k_max)
    with tracer.span("robustness.essential_sensors", work=len(arr)):
        ess = fa.essential_sensors(arr)
    profile = []
    for k in range(1, k_max + 1):
        with tracer.span("robustness.k_fragility", work=comb(len(arr), k)):
            profile.append(fa.k_fragility(arr, k))
    return ess, profile


def subsets_evaluated(n, k_max):
    """essential_sensors removes N single sensors; k_fragility C(N, k) sets."""
    return n + sum(comb(n, k) for k in range(1, k_max + 1))


def counts_of(ess, profile):
    """Oracle form of a robustness result: essential set and count/total."""
    return {"essential": list(ess.essential),
            "counts": {str(r.k): "%d/%d" % (r.essential_subset_count,
                                           r.total_subsets)
                       for r in profile}}


def _robustness_checks(ess, profile, offset, want):
    """One bool per compared value: the essential set, then each F_k."""
    checks = [[p - offset for p in ess.essential] == want["essential"]]
    for r in profile:
        expected = want["counts"][str(r.k)]
        checks.append("%d/%d" % (r.essential_subset_count, r.total_subsets)
                      == expected and r.fragility == Fraction(expected))
    return checks


class Music:
    """run_trial_batch on one NFA with a jittered-grid scene per call."""

    work_unit = "trial"

    def __init__(self, seed, fractal_scale, sources, jitter, snapshots,
                 trials, rmse_calls):
        self.seed = seed
        self.array = fa.make_sfa("nested", {"n": 6}, fractal_scale)
        self.sources = sources
        self.jitter = jitter
        self.snapshots = snapshots
        self.trials = trials
        # The reported RMSE pools calls 1..rmse_calls only, so it depends on
        # the seed alone and not on how many calls fit in the run.
        self.min_calls = rmse_calls
        self.batch_seeds = {}
        self._pooled_sq = []
        dim = fa.summarize(fa.difference_coarray(self.array)).max_sources + 1
        n = len(self.array)
        self.computed_counts = {
            "doasim.music_spectrum.macs":
                dim * (dim - sources) * fa.doasim.DEFAULT_GRID_SIZE,
            "doasim.sample_covariance.macs": n * n * snapshots,
        }

    def inputs(self, i):
        """Sources on a uniform grid over [-0.48, 0.48], each moved by a
        uniform jitter, at SNR 0 dB; plus the batch seed of call i."""
        rng = np.random.default_rng([self.seed, i])
        base = np.linspace(-0.48, 0.48, self.sources)
        doas = np.sort(base + rng.uniform(-self.jitter, self.jitter,
                                          self.sources))
        scene = fa.SourceScene(tuple(doas), (1.0,) * self.sources, 1.0)
        batch_seed = int(rng.integers(2 ** 63))
        self.batch_seeds[i] = batch_seed
        return scene, batch_seed

    def call(self, i):
        scene, batch_seed = self.inputs(i)
        return fa.run_trial_batch(self.array, scene, self.snapshots,
                                  self.trials, seed=batch_seed)

    def replay(self, i, tracer):
        """run_trial_batch step by step, with the per-trial seeds it spawns."""
        scene, batch_seed = self.inputs(i)
        s, m = self.array, scene.source_count
        with tracer.span("coarray.difference_coarray"):
            c = fa.difference_coarray(s)
        with tracer.span("coarray.summarize"):
            fa.summarize(c)
        estimates = []
        children = np.random.SeedSequence(batch_seed).spawn(self.trials)
        for trial, child in enumerate(children):
            with tracer.span("bench.trial", trial=trial):
                trial_seed = np.random.default_rng(child).integers(2 ** 63)
                with tracer.span("doasim.simulate"):
                    batch = fa.simulate(s, scene, self.snapshots, trial_seed)
                with tracer.span("doasim.sample_covariance"):
                    r = fa.sample_covariance(batch)
                with tracer.span("coarray.difference_coarray"):
                    c = fa.difference_coarray(s)
                with tracer.span("coarray.summarize"):
                    summary = fa.summarize(c)
                with tracer.span("doasim.coarray_autocorrelation"):
                    ac = fa.coarray_autocorrelation(r, s)
                with tracer.span("doasim.toeplitz_augment"):
                    t = fa.toeplitz_augment(ac, summary.ula_segment)
                with tracer.span("doasim.music_spectrum"):
                    spectrum = fa.music_spectrum(t, m)
                with tracer.span("doasim.pick_peaks"):
                    estimates.append(fa.pick_peaks(spectrum, m).estimates)
        return tuple(estimates)

    def matches(self, out, replayed):
        return out.per_trial_estimates == replayed

    def work(self, out):
        return out.trials

    def check(self, i, out):
        """(checks attempted, checks failed, gate passed): one check per
        trial, failed when under-resolved, and the criterion-9 gate on the
        batch.  Only the gate decides whether the output is correct."""
        finite = [e for e in out.per_trial_rmse if np.isfinite(e)]
        gate = (out.resolved_trials >= MIN_RESOLVED_SHARE * out.trials
                and bool(finite) and median(finite) < MAX_MEDIAN_RMSE)
        if i <= self.min_calls:
            self._pooled_sq.extend(e * e for e in finite)
        under = out.trials - out.resolved_trials
        return out.trials + 1, under + (0 if gate else 1), gate

    def detail(self):
        pooled = self._pooled_sq
        return {"rmse": float(np.sqrt(np.mean(pooled))) if pooled else None,
                "rmse_trials": len(pooled),
                "rmse_calls": self.min_calls,
                "trials_per_call": self.trials,
                "batch_seeds": self.batch_seeds}


class _Enumeration:
    """Shared by the enumeration workloads, whose replay is the call itself
    with spans and whose outputs are frozen dataclasses compared by value."""

    min_calls = 2
    computed_counts = {}
    work_unit = "subset"

    def replay(self, i, tracer):
        return self.call(i, tracer)

    def matches(self, out, replayed):
        return out == replayed


class Fragility(_Enumeration):
    """Essential sensors and F_1..F_k_max of the 48-sensor NFA (r = 3)."""

    def __init__(self, seed, k_max):
        self.seed = seed
        self.array = fa.make_sfa("nested", {"n": 6}, 3)
        self.k_max = k_max
        self.want = load_oracle()["fragility_sfa48"]
        self.offsets = {}

    def inputs(self, i):
        offset = int(np.random.default_rng([self.seed, i]).integers(1000))
        self.offsets[i] = offset
        return _translated(self.array, offset), offset

    def call(self, i, tracer=None):
        arr, offset = self.inputs(i)
        return offset, robustness(arr, self.k_max, tracer)

    def work(self, out):
        return subsets_evaluated(len(self.array), self.k_max)

    def check(self, i, out):
        offset, (ess, profile) = out
        checks = _robustness_checks(ess, profile, offset, self.want)
        return len(checks), checks.count(False), all(checks)

    def detail(self):
        return {"k_max": self.k_max, "offsets": self.offsets}


class Gallery(_Enumeration):
    """Build, summarize and enumerate every GALLERY array once per call."""

    def __init__(self, seed):
        self.seed = seed
        self.want = load_oracle()["table1_gallery"]

    def call(self, i, tracer=None):
        rng = np.random.default_rng([self.seed, i])
        out = []
        for label, builder, args in GALLERY:
            with _span(tracer, "geometry." + builder):
                built = getattr(fa, builder)(*args)
            offset = int(rng.integers(1000))
            arr = _translated(built, offset)
            with _span(tracer, "coarray.difference_coarray"):
                c = fa.difference_coarray(arr)
            with _span(tracer, "coarray.summarize"):
                summary = fa.summarize(c)
            with _span(tracer, "coarray.lag_set"):
                lags = fa.lag_set(arr)
            k_max = min(GALLERY_K_MAX, len(arr) - 1)
            out.append((label, built.positions, offset, summary,
                        lags == c.lag_set(), robustness(arr, k_max, tracer)))
        return out

    def work(self, out):
        return sum(subsets_evaluated(len(positions),
                                     min(GALLERY_K_MAX, len(positions) - 1))
                   for _, positions, *_ in out)

    def check(self, i, out):
        checks = []
        for label, positions, offset, summary, same_lags, result in out:
            want = self.want[label]
            checks += [list(positions) == want["positions"],
                       list(summary.ula_segment) == want["ula_segment"],
                       list(summary.holes) == want["holes"],
                       same_lags]
            checks += _robustness_checks(*result, offset, want)
        return len(checks), checks.count(False), all(checks)

    def detail(self):
        return {"arrays": [label for label, _, _ in GALLERY]}


def make(name, seed, smoke=False):
    """The named workload; ``smoke`` shrinks it for the benchmark self-test."""
    if name == "music_nfa12":
        return Music(seed, fractal_scale=1, sources=24, jitter=0.008,
                     snapshots=500, trials=5 if smoke else 50,
                     rmse_calls=2 if smoke else 8)
    if name == "music_sfa48":
        return Music(seed, fractal_scale=3, sources=60, jitter=0.003,
                     snapshots=1000, trials=1 if smoke else 10,
                     rmse_calls=2 if smoke else 4)
    if name == "fragility_sfa48":
        return Fragility(seed, k_max=2 if smoke else 3)
    if name == "table1_gallery":
        return Gallery(seed)
    raise ValueError("unknown workload %r" % name)
