"""Command-line experiment recipes.

Subcommands: generate | analyze | music | reproduce.  Exit codes: 0
success, 1 usage error, 2 computation error, 3 reproduction mismatch.
Published claims that the exhaustive oracles refute are tracked in
KNOWN_REFUTED: `reproduce` flags them explicitly but still exits 0, since
the enumeration is authoritative; any other mismatch exits 3.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import geometry
from .geometry import InvalidParameterError, SensorArray
from .coarray import difference_coarray, summarize
from .doasim import (CapacityError, DEFAULT_GRID_SIZE, estimate_doas,
                     random_scene, run_trial_batch, sample_covariance,
                     simulate)
from .robustness import fragility_profile, robustness_report, \
    write_fragility_csv

# ---------------------------------------------------------------------------
# Published reference values for the five 12-sensor case studies.

PAPER_CASES = {
    "nfa": {
        "name": "NFA",
        "build": lambda: geometry.make_sfa("nested", {"n": 6}, 1),
        "positions": [1, 2, 3, 4, 8, 12, 14, 15, 16, 17, 21, 25],
        "hole_free": True,
        "max_sources": 24,
        "essential": [1, 2, 3, 4, 17, 21, 25],
        "fragility": {1: "0.5833", 2: "0.8788", 3: "0.9909"},
    },
    "cfa": {
        "name": "CFA",
        "build": lambda: geometry.make_sfa("coprime", {"m": 2, "n": 3}, 1),
        "positions": [0, 2, 3, 4, 6, 9, 13, 15, 16, 17, 19, 22],
        "hole_free": True,
        "max_sources": 22,
        "essential": [0, 2, 4, 9, 17, 22],
        "fragility": {1: "0.5000", 2: "0.8182", 3: "0.9727"},
    },
    "auggen1": {
        "name": "AUGGENIFA",
        "build": lambda: geometry.make_sfa("ana1", {"n": 6}, 1),
        "positions": [1, 4, 8, 12, 13, 14, 17, 21, 25, 26, 27],
        "hole_free": True,
        "max_sources": 26,
        "essential": [1, 4, 8, 12, 17, 21, 25, 26, 27],
        "fragility": {1: "0.8182", 2: "1.0000"},
    },
    "auggen2": {
        "name": "AUGGENIIFA",
        "build": lambda: geometry.make_sfa("ana2", {"n": 6}, 1),
        "positions": [1, 2, 4, 8, 12, 13, 14, 15, 17, 21, 25, 26],
        "hole_free": True,
        "max_sources": 26,
        "essential": [1, 2, 3, 4, 17, 21, 25],
        "fragility": {1: "0.5833", 2: "0.8788", 3: "0.9909"},
    },
    "snfa": {
        "name": "SNFA",
        "build": lambda: geometry.make_sfa("super_nested",
                                           {"n1": 3, "n2": 3}, 1),
        "positions": [1, 3, 6, 8, 11, 12, 14, 16, 19, 21, 24, 25],
        "hole_free": True,
        "max_sources": 25,
        "essential": [1, 3, 6, 8, 11, 12, 21, 24, 25],
        "fragility": {1: "0.7500", 2: "1.0000"},
    },
}

# Claims the exhaustive oracles disprove.  Each entry is (case, field);
# fragility fields are "F1", "F2", "F3".
KNOWN_REFUTED = {
    ("cfa", "hole_free"),       # pairwise differences leave holes at +/-21
    ("cfa", "max_sources"),     # central segment is [-20, 20], so 20
    ("auggen2", "max_sources"),  # aperture 25, so at most 25
    ("auggen2", "essential"),   # published row repeats the NFA row
    ("auggen2", "F1"),
    ("auggen2", "F2"),
    ("auggen2", "F3"),
    ("snfa", "max_sources"),    # central segment is [-24, 24], so 24
    ("snfa", "F2"),             # enumeration gives 63/66, not 1
}

REPRODUCE_TAGS = ("example1", "nfa", "cfa", "auggen1", "auggen2", "snfa",
                  "table1", "fragility-figures")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dump(obj, stream=None):
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    (stream or sys.stdout).write(text)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        _dump(obj, fh)


def _write_spectrum_csv(path, result):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_norm", "power"])
        for theta, power in zip(result.grid, result.spectrum):
            writer.writerow(["%.8f" % theta, "%.10g" % power])


# Array kinds that `generate` and `music` build directly from flags: every
# SFA subarray family (spelt with "-" on the command line) plus Cantor.
# ``--kind sfa`` takes its family from ``--sub``.
_KINDS = {name.replace("_", "-"): spec
          for name, spec in geometry._SFA_FAMILIES.items()}
_KINDS["cantor"] = (geometry.gen_cantor, ("r",))


def _build_from_flags(args):
    if args.kind == "sfa":
        _, names = geometry._SFA_FAMILIES[_require(args, "sub")]
        params = {name: _require(args, name) for name in names}
        return geometry.make_sfa(args.sub, params,
                                 1 if args.r is None else args.r)
    generator, names = _KINDS[args.kind]
    return generator(*(_require(args, name) for name in names))


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise UsageError("--kind %s requires --%s" % (args.kind, name))
    return value


def _load_geometry(source):
    if source == "-":
        payload = sys.stdin.read()
    else:
        payload = Path(source).read_text(encoding="utf-8")
    return SensorArray.from_dict(json.loads(payload))


def _check_k_max(k_max):
    if k_max < 1:
        raise UsageError("--k-max must be 1 or more, got %d" % k_max)


def _analysis_bundle(arr, k_max):
    co = difference_coarray(arr)
    k_max = min(k_max, len(arr) - 1)
    return {
        "geometry": arr.to_dict(),
        "coarray": co.to_dict(),
        "robustness": robustness_report(arr, k_max),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers.

def cmd_generate(args):
    arr = _build_from_flags(args)
    _dump(arr.to_dict())
    return 0


def cmd_analyze(args):
    _check_k_max(args.k_max)
    arr = _load_geometry(args.geometry)
    _dump(_analysis_bundle(arr, args.k_max))
    return 0


def cmd_music(args):
    if args.kind is None:
        arr = _load_geometry(args.geometry)
    else:
        arr = _build_from_flags(args)
    m = args.sources
    capacity = summarize(difference_coarray(arr)).max_sources
    override = m > capacity
    if override:
        if not args.override_capacity:
            raise CapacityError(
                "%d sources exceed the coarray capacity of %d "
                "(pass --override-capacity to attempt anyway)" % (m, capacity))
        sys.stderr.write(
            "warning: attempting %d sources beyond capacity %d\n"
            % (m, capacity))

    scene = random_scene(m, args.seed, snr_db=args.snr,
                         min_separation=args.min_separation,
                         grid_size=args.grid_size)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # JSON has no infinity: an infinite SNR, and the RMSE of a batch with
    # no resolved trial, are written as null.
    report = {"label": arr.label, "M": m, "snapshots": args.snapshots,
              "snr_db": args.snr if math.isfinite(args.snr) else None,
              "seed": args.seed, "capacity": capacity, "override": override,
              "grid_size": args.grid_size}
    if override:
        # Run one pass at full capacity and report the unavoidable
        # under-resolution.
        r = sample_covariance(simulate(arr, scene, args.snapshots, args.seed))
        result = estimate_doas(arr, r, capacity, args.grid_size)
        report.update(trials=1, rmse=None, under_resolved=True)
    else:
        batch_result = run_trial_batch(arr, scene, args.snapshots,
                                       args.trials, args.seed,
                                       grid_size=args.grid_size)
        result = batch_result.first_trial
        report.update(
            trials=args.trials,
            rmse=(batch_result.rmse if math.isfinite(batch_result.rmse)
                  else None),
            under_resolved=batch_result.resolved_trials < args.trials,
            resolved_fraction=batch_result.resolved_fraction)

    # Trial 0's grid peaks and their off-grid refinements.
    report.update(estimates=list(result.estimates),
                  refined=list(result.refined))
    _write_spectrum_csv(out_dir / "spectrum.csv", result)
    _write_json(out_dir / "trial.json", report)
    _dump(report)
    return 0


def _reproduce_case(tag, out_dir, k_max):
    """Bundle for one of the five case studies: computed values next to the
    published ones, with per-field match flags."""
    case = PAPER_CASES[tag]
    arr = case["build"]()
    bundle = _analysis_bundle(arr, k_max)
    coarray = bundle["coarray"]
    computed_frag = {r["k"]: "%.4f" % r["value"]
                     for r in bundle["robustness"]["fragility"]}
    comparisons = {}

    def compare(field, claimed, actual):
        match = claimed == actual
        comparisons[field] = {
            "paper": claimed, "computed": actual, "match": match,
            "oracle_refuted": (not match) and (tag, field) in KNOWN_REFUTED,
        }

    compare("positions", case["positions"], list(arr.positions))
    compare("hole_free", case["hole_free"], coarray["hole_free"])
    compare("max_sources", case["max_sources"], coarray["ula_segment"][1])
    compare("essential", case["essential"],
            bundle["robustness"]["essential"])
    for k, claimed in case["fragility"].items():
        compare("F%d" % k, claimed, computed_frag.get(k))

    bundle["paper_comparison"] = comparisons
    bundle["discrepancies"] = sorted(
        f for f, c in comparisons.items() if not c["match"])
    _write_json(out_dir / ("%s.json" % tag), bundle)
    return comparisons


def _unexplained(tag, comparisons):
    return ["%s %s" % (tag, f) for f, c in comparisons.items()
            if not c["match"] and not c["oracle_refuted"]]


def cmd_reproduce(args):
    tag = args.tag
    if tag not in REPRODUCE_TAGS:
        raise UsageError("unknown tag %r; valid tags: %s"
                         % (tag, ", ".join(REPRODUCE_TAGS)))
    _check_k_max(args.k_max)
    cases = [case for case in PAPER_CASES if tag in (case, "table1")]
    needed = max((k for case in cases for k in PAPER_CASES[case]["fragility"]),
                 default=0)
    if args.k_max < needed:
        raise UsageError("reproduce %s compares published F_k up to k=%d; "
                         "it needs --k-max %d or more" % (tag, needed, needed))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    unexplained = []

    if tag == "example1":
        arr = geometry.make_sfa("nested", {"n": 6}, 1)
        expected = PAPER_CASES["nfa"]["positions"]
        match = list(arr.positions) == expected
        report = {"geometry": arr.to_dict(), "paper_positions": expected,
                  "match": match}
        _write_json(out_dir / "example1.json", report)
        _dump(report)
        if not match:
            unexplained.append("example1 positions")
    elif tag in PAPER_CASES:
        comparisons = _reproduce_case(tag, out_dir, args.k_max)
        _dump({tag: comparisons})
        unexplained += _unexplained(tag, comparisons)
    elif tag == "table1":
        rows = []
        for case_tag in PAPER_CASES:
            comparisons = _reproduce_case(case_tag, out_dir, args.k_max)
            row = {"array": PAPER_CASES[case_tag]["name"]}
            for field in ("essential", "F1", "F2", "F3"):
                if field in comparisons:
                    row[field] = comparisons[field]
            rows.append(row)
            unexplained += _unexplained(case_tag, comparisons)
        _write_json(out_dir / "table1.json", rows)
        _dump(rows)
    elif tag == "fragility-figures":
        entries = []
        for label, arr in _twelve_sensor_gallery():
            k_max = min(args.k_max, len(arr) - 1)
            entries.append((label, fragility_profile(arr, k_max)))
        write_fragility_csv(out_dir / "fragility.csv", entries)
        _dump({"written": str(out_dir / "fragility.csv"),
               "arrays": [label for label, _ in entries]})

    if unexplained:
        sys.stderr.write("unexplained mismatches: %s\n"
                         % "; ".join(unexplained))
        return 3
    return 0


def _twelve_sensor_gallery():
    """Arrays compared in the fragility figures (12 sensors each, except
    the 11-sensor AUGGENIFA which the published figure also includes)."""
    gallery = [
        ("ULA(12)", geometry.gen_ula(12)),
        ("Nested(12)", geometry.gen_nested(12)),
        ("SuperNested(5,7)", geometry.gen_super_nested(5, 7)),
        ("Coprime(3,7)", geometry.gen_coprime(3, 7)),
    ]
    for case in PAPER_CASES.values():
        gallery.append((case["name"], case["build"]()))
    return gallery


# ---------------------------------------------------------------------------
# Argument parsing.

def _build_parser():
    parser = _Parser(prog="fractalarrays",
                     description="Sparse fractal array experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = [*_KINDS, "sfa"]

    def add_geometry_flags(p):
        p.add_argument("--sub", help="SFA subarray family",
                       choices=list(geometry._SFA_FAMILIES))
        # Every family's parameters, once each in order of first use: n, m,
        # n1, n2.
        names = [name for _, family in geometry._SFA_FAMILIES.values()
                 for name in family]
        for name in dict.fromkeys(names):
            p.add_argument("--" + name, type=int)
        p.add_argument("--r", type=int, help="fractal scale")

    gen = sub.add_parser("generate", help="emit a geometry as JSON")
    gen.add_argument("--kind", required=True, choices=kinds)
    add_geometry_flags(gen)
    gen.set_defaults(handler=cmd_generate)

    ana = sub.add_parser("analyze",
                         help="coarray + robustness report for a geometry")
    ana.add_argument("geometry", help="geometry JSON file, or - for stdin")
    ana.add_argument("--k-max", type=int, default=3)
    ana.set_defaults(handler=cmd_analyze)

    mus = sub.add_parser("music", help="Monte-Carlo coarray MUSIC run")
    source = mus.add_mutually_exclusive_group(required=True)
    source.add_argument("--kind", choices=kinds)
    source.add_argument("--geometry", help="geometry JSON file")
    add_geometry_flags(mus)
    mus.add_argument("--sources", type=int, required=True)
    mus.add_argument("--snr", type=float, default=0.0)
    mus.add_argument("--snapshots", type=int, default=500)
    mus.add_argument("--trials", type=int, default=50)
    mus.add_argument("--min-separation", type=float, default=None)
    mus.add_argument("--override-capacity", action="store_true")
    mus.add_argument("--seed", type=int, default=0)
    mus.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    mus.set_defaults(handler=cmd_music)

    rep = sub.add_parser("reproduce",
                         help="rebuild a published experiment bundle")
    rep.add_argument("tag", help="|".join(REPRODUCE_TAGS))
    rep.add_argument("--k-max", type=int, default=3)
    rep.set_defaults(handler=cmd_reproduce)

    for p in (mus, rep):
        p.add_argument("--out-dir", default="out")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1
    except (InvalidParameterError, CapacityError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
