import csv
import io
import json
import re

import numpy as np
import pytest

from fractalarrays.doasim import (DEFAULT_GRID_SIZE, MusicResult,
                                  estimate_doas, pick_peaks,
                                  random_scene, run_trial_batch,
                                  sample_covariance, simulate)
from fractalarrays.experiments import PAPER_CASES, REPRODUCE_TAGS, main
from fractalarrays.geometry import (gen_ana1, gen_ana2, gen_cantor,
                                    gen_coprime, gen_nested,
                                    gen_super_nested, gen_ula, make_sfa)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_sfa_nfa(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "sfa", "--sub",
                       "nested", "--n", "6", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["positions"] == [1, 2, 3, 4, 8, 12, 14, 15, 16, 17, 21, 25]
    assert payload["kind"] == "SFA"


def test_generate_cantor(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "cantor", "--r", "2")
    assert code == 0
    assert json.loads(out)["positions"] == [0, 1, 3, 4]


# One spelling per --kind choice and per --sub family of --kind sfa, with the
# library call the CLI must reproduce.
KIND_CASES = {
    "ula": (["--n", "5"], lambda: gen_ula(5)),
    "nested": (["--n", "7"], lambda: gen_nested(7)),
    "coprime": (["--m", "2", "--n", "5"], lambda: gen_coprime(2, 5)),
    "ana1": (["--n", "6"], lambda: gen_ana1(6)),
    "ana2": (["--n", "7"], lambda: gen_ana2(7)),
    "super-nested": (["--n1", "3", "--n2", "4"],
                     lambda: gen_super_nested(3, 4)),
    "cantor": (["--r", "3"], lambda: gen_cantor(3)),
}
SUB_CASES = {
    "ula": (["--n", "4", "--r", "2"], lambda: make_sfa("ula", {"n": 4}, 2)),
    "nested": (["--n", "6"], lambda: make_sfa("nested", {"n": 6}, 1)),
    "coprime": (["--m", "2", "--n", "3", "--r", "2"],
                lambda: make_sfa("coprime", {"m": 2, "n": 3}, 2)),
    "ana1": (["--n", "6", "--r", "1"], lambda: make_sfa("ana1", {"n": 6}, 1)),
    "ana2": (["--n", "6"], lambda: make_sfa("ana2", {"n": 6}, 1)),
    "super_nested": (["--n1", "3", "--n2", "3", "--r", "2"],
                     lambda: make_sfa("super_nested", {"n1": 3, "n2": 3}, 2)),
}


def _choices(capsys, *argv):
    """The choice list argparse prints for an invalid value, in order."""
    code, _, err = run(capsys, "generate", *argv)
    assert code == 1
    return re.findall(r"[\w-]+", err.split("choose from", 1)[1])


def test_generate_choice_sets_are_pinned(capsys):
    kinds = _choices(capsys, "--kind", "bogus")
    assert kinds == ["ula", "nested", "coprime", "ana1", "ana2",
                     "super-nested", "cantor", "sfa"]
    assert set(kinds) == set(KIND_CASES) | {"sfa"}
    subs = _choices(capsys, "--kind", "sfa", "--sub", "bogus")
    assert subs == ["ula", "nested", "coprime", "ana1", "ana2",
                    "super_nested"]
    assert set(subs) == set(SUB_CASES)


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_generate_kind_matches_library(capsys, kind):
    flags, build = KIND_CASES[kind]
    code, out, err = run(capsys, "generate", "--kind", kind, *flags)
    assert (code, err) == (0, "")
    assert json.loads(out) == build().to_dict()


@pytest.mark.parametrize("sub", sorted(SUB_CASES))
def test_generate_sfa_sub_matches_library(capsys, sub):
    flags, build = SUB_CASES[sub]
    code, out, err = run(capsys, "generate", "--kind", "sfa", "--sub", sub,
                         *flags)
    assert (code, err) == (0, "")
    assert json.loads(out) == build().to_dict()


def test_generate_invalid_exits_nonzero(capsys):
    code, _, err = run(capsys, "generate", "--kind", "ula", "--n", "0")
    assert code == 2
    assert err


def test_generate_sfa_rejects_zero_fractal_scale(capsys):
    # a given --r 0 reaches make_sfa; only an absent --r means scale 1
    code, out, err = run(capsys, "generate", "--kind", "sfa", "--sub",
                         "nested", "--n", "6", "--r", "0")
    assert code == 2
    assert out == "" and "fractal scale" in err


def test_generate_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--kind", "ula")
    assert code == 1
    assert "usage" in err


def test_analyze_stdin(capsys, monkeypatch, tmp_path):
    geometry = {"label": "CFA", "kind": "SFA",
                "positions": [0, 2, 3, 4, 6, 9, 13, 15, 16, 17, 19, 22]}
    path = tmp_path / "cfa.json"
    path.write_text(json.dumps(geometry))
    code, out, _ = run(capsys, "analyze", str(path), "--k-max", "3")
    assert code == 0
    payload = json.loads(out)
    frag = {r["k"]: r["value"] for r in payload["robustness"]["fragility"]}
    assert frag == {1: 0.5, 2: 0.8182, 3: 0.9727}
    assert payload["coarray"]["holes"] == [21]


def test_analyze_two_sensor(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"label": "", "kind": "custom",
                                "positions": [0, 1]}))
    code, out, _ = run(capsys, "analyze", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["robustness"]["essential"] == [0, 1]
    assert payload["robustness"]["fragility"][0]["value"] == 1.0


def test_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


@pytest.mark.parametrize("payload", ['[1, 2, 3]', '"x"', '{"positions": 5}',
                                     '{"positions": null}',
                                     '{"positions": [0, 1, %d]}' % 2 ** 63,
                                     '{"positions": [0, 1, %d]}' % 2 ** 62,
                                     '{"positions": [true, 2]}',
                                     '{"positions": [0, 1.0, 3]}'])
@pytest.mark.parametrize("command", [["analyze", "-"],
                                     ["music", "--geometry", "-",
                                      "--sources", "1"]])
def test_malformed_geometry_is_refused(capsys, monkeypatch, payload,
                                       command):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, *command)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "positions" in err


def test_analyze_refuses_a_label_that_is_not_a_string(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"positions": [0, 1, 3], "label": 5}'))
    code, out, err = run(capsys, "analyze", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "label" in err


# Flags each subcommand does not read: only music takes --seed and
# --grid-size, and only music and reproduce take --out-dir.
@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("generate", "analyze", "reproduce")
    for flag in ("--seed", "--grid-size", "--out-dir")
    if (command, flag) != ("reproduce", "--out-dir")])
def test_unread_flags_are_usage_errors(capsys, tmp_path, command, flag):
    geometry = tmp_path / "ula.json"
    geometry.write_text(json.dumps(gen_ula(3).to_dict()))
    argv = {"generate": ["generate", "--kind", "ula", "--n", "3"],
            "analyze": ["analyze", str(geometry)],
            "reproduce": ["reproduce", "example1", "--out-dir",
                          str(tmp_path / "out")]}[command]
    value = str(tmp_path / "x") if flag == "--out-dir" else "3"
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments: " + flag)
    assert not (tmp_path / "out").exists() and not (tmp_path / "x").exists()


@pytest.mark.parametrize("source", [["--kind", "ula", "--n", "4",
                                     "--geometry", "g.json"], []])
def test_music_needs_exactly_one_of_geometry_and_kind(capsys, tmp_path,
                                                     source):
    code, out, err = run(capsys, "music", *source, "--sources", "1",
                         "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and "--geometry" in err
    assert not (tmp_path / "out").exists()


def test_music_noiseless_on_grid(capsys, tmp_path):
    code, out, _ = run(capsys, "music", "--kind", "sfa", "--sub", "nested",
                       "--n", "6", "--r", "1", "--sources", "4",
                       "--snr", "200", "--snapshots", "400", "--trials", "2",
                       "--seed", "12", "--min-separation", "0.05",
                       "--out-dir", str(tmp_path), "--grid-size", "2048")
    assert code == 0
    report = json.loads(out)
    assert report["rmse"] < 1e-2
    assert (tmp_path / "spectrum.csv").exists()
    trial = json.loads((tmp_path / "trial.json").read_text())
    assert trial["M"] == 4 and trial["seed"] == 12
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "theta_norm,power"


def test_music_spectrum_csv_is_trial_zero_of_the_batch(capsys, tmp_path):
    code, _, _ = run(capsys, "music", "--kind", "sfa", "--sub", "nested",
                     "--n", "6", "--r", "1", "--sources", "6",
                     "--snr", "0", "--snapshots", "200", "--trials", "3",
                     "--seed", "5", "--out-dir", str(tmp_path),
                     "--grid-size", "2048")
    assert code == 0
    rows = list(csv.reader((tmp_path / "spectrum.csv").open()))[1:]
    grid = np.array([float(theta) for theta, _ in rows])
    power = np.array([float(p) for _, p in rows])
    peaks = pick_peaks(MusicResult(grid=grid, spectrum=power), 6).estimates

    arr = make_sfa("nested", {"n": 6}, 1)
    scene = random_scene(6, 5, snr_db=0.0, grid_size=2048)
    batch = run_trial_batch(arr, scene, 200, 3, 5, grid_size=2048)
    assert peaks == tuple(float("%.8f" % e)
                          for e in batch.per_trial_estimates[0])


def test_music_report_names_the_grid_and_trial_zero_peaks(capsys, tmp_path):
    # Without --grid-size the report states the default grid, and trial 0's
    # grid peaks and refined estimates are run_trial_batch's.
    code, out, _ = run(capsys, "music", "--kind", "sfa", "--sub", "nested",
                       "--n", "6", "--sources", "6", "--snapshots", "200",
                       "--trials", "3", "--seed", "5",
                       "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["grid_size"] == DEFAULT_GRID_SIZE
    arr = make_sfa("nested", {"n": 6}, 1)
    scene = random_scene(6, 5, snr_db=0.0)
    batch = run_trial_batch(arr, scene, 200, 3, 5)
    assert tuple(report["estimates"]) == batch.per_trial_estimates[0]
    assert tuple(report["refined"]) == batch.per_trial_refined[0]


def test_music_capacity_guard(capsys, tmp_path):
    code, _, err = run(capsys, "music", "--kind", "sfa", "--sub", "coprime",
                       "--m", "2", "--n", "3", "--r", "1", "--sources", "22",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "capacity" in err


def test_music_capacity_override_flags_under_resolution(capsys, tmp_path):
    code, out, err = run(capsys, "music", "--kind", "sfa", "--sub",
                         "coprime", "--m", "2", "--n", "3", "--r", "1",
                         "--sources", "22", "--override-capacity",
                         "--grid-size", "2048", "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["under_resolved"] is True
    assert "warning" in err


def test_music_override_spectrum_is_estimate_doas_at_capacity(capsys,
                                                              tmp_path):
    code, _, _ = run(capsys, "music", "--kind", "sfa", "--sub", "coprime",
                     "--m", "2", "--n", "3", "--sources", "22",
                     "--override-capacity", "--snapshots", "300",
                     "--seed", "4", "--grid-size", "2048",
                     "--out-dir", str(tmp_path))
    assert code == 0
    arr = make_sfa("coprime", {"m": 2, "n": 3}, 1)
    scene = random_scene(22, 4, snr_db=0.0, grid_size=2048)
    r = sample_covariance(simulate(arr, scene, 300, 4))
    expected = estimate_doas(arr, r, 20, 2048)
    rows = list(csv.reader((tmp_path / "spectrum.csv").open()))[1:]
    assert rows == [["%.8f" % theta, "%.10g" % power] for theta, power
                    in zip(expected.grid, expected.spectrum)]


@pytest.mark.parametrize("snr", ["nan", "-inf", "-4000"])
def test_music_refuses_an_snr_without_a_finite_noise_power(capsys, tmp_path,
                                                           snr):
    code, out, err = run(capsys, "music", "--kind", "ula", "--n", "4",
                         "--sources", "1", "--snr=" + snr,
                         "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "noise power" in err
    assert not (tmp_path / "out").exists()


def test_music_refuses_a_negative_seed(capsys, tmp_path):
    code, out, err = run(capsys, "music", "--kind", "ula", "--n", "4",
                         "--sources", "1", "--seed", "-1",
                         "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err
    assert not (tmp_path / "out").exists()


def test_music_infinite_snr_is_noiseless(capsys, tmp_path):
    code, out, _ = run(capsys, "music", "--kind", "ula", "--n", "4",
                       "--sources", "1", "--snr", "inf", "--trials", "2",
                       "--grid-size", "2048", "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["resolved_fraction"] == 1.0


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""
    def refuse(constant):
        raise ValueError("not JSON: %s" % constant)
    return json.loads(text, parse_constant=refuse)


def test_music_infinite_snr_report_is_strict_json(capsys, tmp_path):
    code, out, _ = run(capsys, "music", "--kind", "ula", "--n", "4",
                       "--sources", "1", "--snr", "inf", "--trials", "2",
                       "--grid-size", "2048", "--out-dir", str(tmp_path))
    assert code == 0
    for text in (out, (tmp_path / "trial.json").read_text()):
        report = strict_json(text)
        assert report["snr_db"] is None
        assert 0.0 <= report["rmse"] < 1e-3


def test_music_report_with_no_resolved_trial_is_strict_json(capsys,
                                                            tmp_path):
    # A 4-point grid has at most two local maxima, so three sources are
    # under-resolved in every trial and the batch RMSE is infinite.
    code, out, _ = run(capsys, "music", "--kind", "ula", "--n", "4",
                       "--sources", "3", "--min-separation", "0.01",
                       "--grid-size", "4", "--trials", "2", "--snr", "10",
                       "--out-dir", str(tmp_path))
    assert code == 0
    for text in (out, (tmp_path / "trial.json").read_text()):
        report = strict_json(text)
        assert report["rmse"] is None
        assert report["resolved_fraction"] == 0.0
        assert report["snr_db"] == 10.0


def test_music_rejects_zero_grid_size(capsys, tmp_path):
    code, _, err = run(capsys, "music", "--kind", "sfa", "--sub", "nested",
                       "--n", "6", "--sources", "4", "--grid-size", "0",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("error: grid size must be a positive integer")


@pytest.mark.parametrize("tag, needed", [("table1", 3), ("nfa", 3),
                                         ("auggen1", 2), ("snfa", 2)])
def test_reproduce_k_max_below_published_fragility(capsys, tmp_path, tag,
                                                   needed):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "reproduce", tag, "--k-max",
                         str(needed - 1), "--out-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert "--k-max %d" % needed in err
    assert not out_dir.exists()


@pytest.mark.parametrize("k_max", ["0", "-1"])
@pytest.mark.parametrize("tag", REPRODUCE_TAGS)
def test_reproduce_k_max_below_one_is_a_usage_error(capsys, tmp_path, tag,
                                                    k_max):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "reproduce", tag, "--k-max", k_max,
                         "--out-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert err == "usage error: --k-max must be 1 or more, got %s\n" % k_max
    assert not out_dir.exists()


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_analyze_k_max_below_one_is_a_usage_error(capsys, monkeypatch,
                                                  k_max):
    # The same message and exit code as reproduce, not the library's.
    monkeypatch.setattr("sys.stdin", io.StringIO('{"positions": [0, 1, 3]}'))
    code, out, err = run(capsys, "analyze", "-", "--k-max", k_max)
    assert (code, out) == (1, "")
    assert err == "usage error: --k-max must be 1 or more, got %s\n" % k_max


def test_analyze_over_the_work_budget_exits_2(capsys, monkeypatch):
    # ULA(8) has 28 pairs, so its tree reads more than 10 edges.
    monkeypatch.setattr("fractalarrays.robustness._WORK_BUDGET", 10)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"positions": [0, 1, 2, 3, 4, 5, 6, 7]}'))
    code, out, err = run(capsys, "analyze", "-")
    assert (code, out) == (2, "")
    assert err == "error: the exact count needs more than its work budget " \
        "of 10 edge reads\n"


def test_reproduce_k_max_at_published_fragility(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "auggen1", "--k-max", "2",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["auggen1"]["F2"]["match"] is True


def test_reproduce_example1(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "example1",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["match"] is True
    assert (tmp_path / "example1.json").exists()


def test_reproduce_cfa_flags_hole_discrepancy(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "cfa", "--out-dir", str(tmp_path))
    assert code == 0  # oracle-refuted claims do not fail the run
    payload = json.loads(out)["cfa"]
    assert payload["hole_free"]["match"] is False
    assert payload["hole_free"]["oracle_refuted"] is True
    assert payload["F1"]["match"] is True
    bundle = json.loads((tmp_path / "cfa.json").read_text())
    assert "hole_free" in bundle["discrepancies"]


def test_reproduce_table1(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "table1",
                       "--out-dir", str(tmp_path))
    assert code == 0
    rows = json.loads(out)
    byname = {r["array"]: r for r in rows}
    # F1 matches the published table to 4 dp for the four rows whose F1
    # the ledger does not refute
    for name in ("NFA", "CFA", "AUGGENIFA", "SNFA"):
        assert byname[name]["F1"]["match"] is True
    # the published AUGGENIIFA row is refuted by enumeration, not hidden
    assert byname["AUGGENIIFA"]["F1"]["match"] is False
    assert byname["AUGGENIIFA"]["F1"]["oracle_refuted"] is True
    assert byname["SNFA"]["F2"]["match"] is False
    assert byname["SNFA"]["F2"]["oracle_refuted"] is True


def test_reproduce_unknown_tag(capsys, tmp_path):
    code, _, err = run(capsys, "reproduce", "fig99", "--out-dir",
                       str(tmp_path))
    assert code == 1
    assert "valid tags" in err


def test_reproduce_fragility_figures(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "fragility-figures",
                       "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "fragility.csv").read_text().strip().splitlines()
    assert lines[0] == "label,k,F_k"
    rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[1:]}
    assert rows[("ULA(12)", "1")] == "0.1667"
    assert rows[("Nested(12)", "1")] == "1.0000"
    assert rows[("NFA", "3")] == "0.9909"


def test_reproduce_outputs_byte_stable(capsys, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "reproduce", "nfa", "--out-dir", str(dir_a))[0] == 0
    assert run(capsys, "reproduce", "nfa", "--out-dir", str(dir_b))[0] == 0
    assert (dir_a / "nfa.json").read_bytes() == \
        (dir_b / "nfa.json").read_bytes()


def test_paper_cases_build_published_lists():
    for case in PAPER_CASES.values():
        arr = case["build"]()
        assert list(arr.positions) == case["positions"]
