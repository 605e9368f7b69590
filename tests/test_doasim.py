import random as pyrandom
import re
import threading
import time
import types
import warnings

import numpy as np
import pytest

from fractalarrays.coarray import difference_coarray, summarize
from fractalarrays import doasim
from fractalarrays.doasim import (DEFAULT_GRID_SIZE, CapacityError,
                                  CoarrayHoleError, MusicResult, SourceScene,
                                  _coarray_plan, _real_form,
                                  _sorted_rmse, _toeplitz,
                                  coarray_autocorrelation,
                                  estimate_doas, expected_covariance,
                                  music_spectrum, pick_peaks, random_scene,
                                  run_trial_batch, sample_covariance,
                                  simulate, steering_vector,
                                  toeplitz_augment)
from fractalarrays.geometry import (InvalidParameterError, SensorArray,
                                    gen_ula, make_sfa)


@pytest.fixture(scope="module")
def nfa():
    return make_sfa("nested", {"n": 6}, 1)


# Reference implementations: the direct loops the library's cached and
# vectorised pipeline must reproduce.  The autocorrelation and Toeplitz
# matrix match bit for bit; the spectrum is the grid formula
# |E^H a(theta)|^2, which the library evaluates as one FFT of the
# polynomial's coefficients, summing before squaring.  It matches to a
# relative 1e-5 (1.6e-9 at worst on these arrays; up to 2.4e-4 was seen on
# the 12-sensor NFA with one noise eigenvector, where the deepest null that
# sets the normalisation loses digits) and the picked peaks match exactly.

def ref_coarray_autocorrelation(r, s):
    pos = list(s.positions)
    acc = {}
    counts = {}
    for i, a in enumerate(pos):
        for j, b in enumerate(pos):
            k = a - b
            acc[k] = acc.get(k, 0.0) + r[i, j]
            counts[k] = counts.get(k, 0) + 1
    return {k: acc[k] / counts[k] for k in acc}


def ref_picked(grid, spec, m):
    """pick_peaks on one spectrum through a padded ring copy and a stable
    argsort, as it ran one trial at a time: (estimates, refined,
    under_resolved)."""
    ring = np.concatenate((spec[-1:], spec, spec[:1]))
    chosen = np.flatnonzero((spec > ring[:-2]) & (spec > ring[2:]))
    order = np.argsort(spec[chosen], kind="stable")[::-1]
    chosen = np.sort(chosen[order[:m]])
    estimates = grid[chosen]
    pq = ring[chosen + np.array([[0], [2]])] / spec[chosen]
    p, q = pq[0], pq[1]
    shift = (q - p) / np.maximum(p + q - 2.0 * p * q, np.finfo(float).tiny)
    step = float(grid[1] - grid[0]) if len(grid) > 1 else 0.0
    refined = (estimates + shift * (0.5 * step)).tolist()
    if refined and refined[0] < grid[0]:
        refined[0] += len(spec) * step
    return tuple(estimates.tolist()), tuple(refined), len(chosen) < m


def ref_rmse(estimates, truths):
    """The circular RMSE of one trial, every cyclic shift of the sorted
    estimates against the sorted truths."""
    est = np.sort(np.asarray(estimates))
    tru = np.sort(np.asarray(truths))
    m = len(est)
    d = est[(np.arange(m) - np.arange(m)[:, None]) % m] - tru
    d -= np.rint(d)
    best = int(np.argmin(np.sum(d ** 2, axis=1)))
    return float(np.sqrt(np.mean(d[best] ** 2)))


def ref_toeplitz_augment(ac, ula_segment):
    u = ula_segment[1]
    col = np.array([ac[k] for k in range(0, u + 1)])
    t = np.empty((u + 1, u + 1), dtype=complex)
    for p in range(u + 1):
        for q in range(u + 1):
            t[p, q] = col[p - q] if p >= q else np.conj(col[q - p])
    return t


def ref_music_spectrum(t, m, grid_size):
    dim = t.shape[0]
    _, vecs = np.linalg.eigh(t)
    noise = vecs[:, :dim - m]
    grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    a = np.exp(2j * np.pi * np.outer(np.arange(dim), grid))
    denom = np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)
    spectrum = 1.0 / np.maximum(denom, np.finfo(float).tiny)
    return grid, spectrum / spectrum.max()


def _exactness_arrays():
    """NFA r=1 and r=3, plus random arrays whose coarray has holes."""
    arrays = [make_sfa("nested", {"n": 6}, 1), make_sfa("nested", {"n": 6}, 3)]
    rng = pyrandom.Random(2024)
    while len(arrays) < 8:
        arr = SensorArray(tuple(sorted(rng.sample(range(40),
                                                  rng.randint(3, 10)))))
        summary = summarize(difference_coarray(arr))
        if not summary.hole_free and summary.max_sources >= 2:
            arrays.append(arr)
    return arrays


@pytest.mark.parametrize("arr", _exactness_arrays(),
                         ids=lambda a: "%d-sensors" % len(a))
def test_pipeline_matches_reference_bit_for_bit(arr):
    u = summarize(difference_coarray(arr)).max_sources
    m = max(1, u // 2)
    doas = tuple(np.linspace(-0.45, 0.45, m) + 0.001)
    scene = SourceScene(doas, (1.0,) * m, 1.0)
    for seed in range(3):
        r = sample_covariance(simulate(arr, scene, 50, seed=seed))
        ac = coarray_autocorrelation(r, arr)
        ref_ac = ref_coarray_autocorrelation(r, arr)
        assert ac == ref_ac
        assert all(np.array_equal(ac[k], ref_ac[k]) for k in ref_ac)
        t = toeplitz_augment(ac, (-u, u))
        ref_t = ref_toeplitz_augment(ref_ac, (-u, u))
        assert t.dtype == ref_t.dtype and np.array_equal(t, ref_t)
        for grid_size in (512, 8192):
            result = music_spectrum(t, m, grid_size)
            grid, spectrum = ref_music_spectrum(ref_t, m, grid_size)
            assert np.array_equal(result.grid, grid)
            assert np.allclose(result.spectrum, spectrum, rtol=1e-5, atol=0)
            ref_peaks = pick_peaks(MusicResult(grid=grid, spectrum=spectrum),
                                   m)
            assert pick_peaks(result, m).estimates == ref_peaks.estimates


@pytest.mark.parametrize("arr", _exactness_arrays() + [gen_ula(1)],
                         ids=lambda a: "%d-sensors" % len(a))
def test_coarray_plan_summary_matches_difference_coarray(arr):
    # The plan reads its lags from difference_coarray, looks up each ordered
    # pair's lag among them in row-major order, and counts the pairs at each
    # lag; np.unique's inverse and counts are the reference for them.  It
    # holds u, not the summary, and the positions in their given order.
    plan = _coarray_plan(arr.positions)
    p = np.asarray(arr.positions)
    lags, inverse, counts = np.unique((p[:, None] - p[None, :]).ravel(),
                                      return_inverse=True,
                                      return_counts=True)
    assert np.array_equal(plan.lags, lags)
    assert np.array_equal(plan.counts, counts)
    assert np.array_equal(plan.pair_lags, inverse)
    assert plan.u == summarize(difference_coarray(arr)).max_sources
    assert plan.positions.dtype == np.int64
    assert plan.positions.tolist() == list(arr.positions)
    for a in (plan.positions, plan.counts, plan.pair_lags):
        assert not a.flags.writeable


def test_music_needs_no_hole_list():
    # [0, 1, 2_000_000] leaves 1999997 holes, more than summarize lists,
    # but u = 1, and the MUSIC stages read nothing else of the coarray.
    far = SensorArray((0, 1, 2_000_000))
    scene = SourceScene((0.1,), (1.0,), 0.5)
    r = expected_covariance(far, scene)
    ac = coarray_autocorrelation(r, far)
    assert sorted(ac) == [-2_000_000, -1_999_999, -1, 0, 1, 1_999_999,
                          2_000_000]
    assert ac[1] == r[1, 0] and ac[-2_000_000] == r[0, 2]
    result = estimate_doas(far, r, 1)
    assert result.estimates == (0.10009765625,) and not result.under_resolved
    assert abs(result.refined[0] - 0.1) < 1e-9
    batch = run_trial_batch(far, scene, 200, 5, seed=2)
    assert batch.resolved_trials == 5 and batch.rmse < 0.02
    with pytest.raises(CapacityError, match="capacity of 1"):
        estimate_doas(far, r, 2)


@pytest.mark.parametrize("call", [
    lambda nfa: run_trial_batch(nfa, random_scene(4, seed=6), 20, 120,
                                seed=1),
    lambda nfa: estimate_doas(nfa, np.eye(12), 4)],
    ids=["run_trial_batch", "estimate_doas"])
def test_coarray_plan_is_looked_up_once_per_call(nfa, call, monkeypatch):
    # 120 trials at dim 25 run as groups of 52, 52 and 16; the batch took
    # the plan once to check the capacity and once per group, and
    # estimate_doas once to check and once for the lag means.
    lookups = []
    plan = doasim._coarray_plan

    def counted(positions):
        lookups.append(positions)
        return plan(positions)

    monkeypatch.setattr(doasim, "_coarray_plan", counted)
    call(nfa)
    assert lookups == [nfa.positions]


def test_toeplitz_real_autocorrelation_is_complex():
    t = toeplitz_augment({-1: 0.5, 0: 2.0, 1: 0.5}, (-1, 1))
    assert t.dtype == complex
    assert np.array_equal(t, ref_toeplitz_augment({0: 2.0, 1: 0.5}, (-1, 1)))
    assert np.array_equal(toeplitz_augment({-1: 0.5, 0: 2.0, 1: 0.5},
                                           (np.int64(-1), np.intc(1))), t)


@pytest.mark.parametrize("segment", [(-1.0, 1.0), (False, False), (-1, True),
                                     (-1, 1, 2), (1,), (), 1, "-1", (-1, 2),
                                     (1, -1)], ids=repr)
def test_toeplitz_augment_refuses_a_segment_not_two_symmetric_integers(
        segment):
    with pytest.raises(InvalidParameterError):
        toeplitz_augment({-1: 0.5, 0: 2.0, 1: 0.5}, segment)


@pytest.mark.parametrize("ac", [
    {0: "1", 1: 0.5, -1: 0.5}, {0: True, 1: False, -1: False},
    {0: "a", 1: 0.5, -1: 0.5}, {0: np.nan, 1: 0.5, -1: 0.5},
    {0: 2.0, 1: np.inf, -1: np.inf}, {0: 2.0, 1: complex(0.5, -np.inf),
                                       -1: 0.5},
    {0: 2.0, 1: None, -1: 0.5}, {0: True, 1: 0.5, -1: 0.5},
    {0: 2.0, 1: np.True_, -1: 0.5}], ids=repr)
def test_toeplitz_augment_refuses_lag_values_that_are_not_finite_numbers(ac):
    # "1" was parsed and True read as 1, also among numbers; "a" raised a
    # bare ValueError, and a NaN or an infinity went into the matrix.
    with pytest.raises(InvalidParameterError, match="lag values"):
        toeplitz_augment(ac, (-1, 1))


@pytest.mark.parametrize("lag0", [1 + 1j, 1e-15j])
def test_toeplitz_augment_refuses_a_lag_0_value_that_is_not_real(lag0):
    # Its diagonal would not be real, so T would not be Hermitian; it was
    # returned, and only music_spectrum refused it.
    with pytest.raises(InvalidParameterError, match="Hermitian"):
        toeplitz_augment({0: lag0, 1: 0.5, -1: 0.5}, (-1, 1))


def test_toeplitz_augment_returns_an_array_the_caller_owns(nfa):
    # _toeplitz is a read-only view of windows; toeplitz_augment copies it.
    ac = coarray_autocorrelation(np.eye(len(nfa.positions)), nfa)
    first, second = (toeplitz_augment(ac, (-24, 24)) for _ in range(2))
    for t in (first, second):
        assert t.flags.writeable and t.flags.c_contiguous
    assert not np.shares_memory(first, second)


def test_cached_grid_cannot_be_corrupted_through_a_result(nfa):
    scene = SourceScene((0.2, -0.1), (1.0, 1.0), 0.1)
    r = sample_covariance(simulate(nfa, scene, 100, seed=8))
    t = toeplitz_augment(coarray_autocorrelation(r, nfa), (-24, 24))
    first = music_spectrum(t, 2, grid_size=1024)
    grid_before = first.grid.copy()
    with pytest.raises(ValueError):
        first.grid[0] = 0.25
    first.spectrum[:] = 0.0  # the spectrum is the caller's own array
    again = music_spectrum(t, 2, grid_size=1024)
    assert np.array_equal(again.grid, grid_before)
    _, spectrum = ref_music_spectrum(t, 2, 1024)
    assert np.allclose(again.spectrum, spectrum, rtol=1e-5, atol=0)


@pytest.mark.parametrize("r, grid_sizes", [
    (1, (1, 2, 7, 16, 25, 48, 49, 50)),
    (3, (1, 2, 100, 181, 360, 361, 362))])
def test_spectrum_fold_matches_reference_below_and_around_dim(r, grid_sizes):
    # The polynomial has dim coefficients (25 for r = 1, 181 for r = 3)
    # and its Hermitian sequence 2 dim - 1 (49 and 361); on a grid of fewer
    # points the DFT is taken on the least multiple of the grid size that
    # holds the sequence, and only the grid's points of it are read.
    arr = make_sfa("nested", {"n": 6}, r)
    u = summarize(difference_coarray(arr)).max_sources
    scene = random_scene(u // 3, seed=r, min_separation=0.01)
    r_hat = sample_covariance(simulate(arr, scene, 200, seed=r))
    t = toeplitz_augment(coarray_autocorrelation(r_hat, arr), (-u, u))
    for grid_size in grid_sizes:
        result = music_spectrum(t, scene.source_count, grid_size)
        grid, spectrum = ref_music_spectrum(t, scene.source_count, grid_size)
        assert np.array_equal(result.grid, grid)
        assert np.allclose(result.spectrum, spectrum, rtol=1e-5, atol=0)


def test_steering_zero_is_all_ones(nfa):
    assert np.allclose(steering_vector(nfa, 0.0), 1.0)


def test_steering_quarter_cycle():
    a = steering_vector(SensorArray((0, 1)), 0.25)
    assert np.allclose(a, [1.0, 1j])
    # theta' is read as a real number, not checked against [-0.5, 0.5).
    assert np.allclose(steering_vector(SensorArray((0, 1)), 1.25), a)


def test_steering_nfa_entry(nfa):
    a = steering_vector(nfa, 0.1)
    idx = nfa.positions.index(25)
    assert np.allclose(a[idx], np.exp(2j * np.pi * 2.5))
    assert np.allclose(np.abs(a), 1.0)


@pytest.mark.parametrize("theta, match", [
    (np.nan, "finite"), (np.inf, "finite"), ([0.1, -np.inf], "finite"),
    (True, "array of numbers"), ("a", "array of numbers"), (1 + 2j, "real"),
    ([0.1, 0.2j], "real")], ids=repr)
def test_steering_vector_refuses_a_doa_that_is_not_a_finite_real(
        nfa, theta, match):
    # A NaN gave a NaN vector, True read as 1, 1+2j a damped vector, and
    # "a" raised numpy's bare TypeError.  Arrays of strings, bools or
    # objects, and bools in a list, are in _NUMERIC_INPUTS.
    with pytest.raises(InvalidParameterError, match=match):
        steering_vector(nfa, theta)


def test_scene_validation():
    with pytest.raises(InvalidParameterError):
        SourceScene((0.7,), (1.0,), 1.0)
    with pytest.raises(InvalidParameterError):
        SourceScene((float("nan"),), (1.0,), 1.0)
    with pytest.raises(InvalidParameterError):
        SourceScene((0.1, 0.1), (1.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        SourceScene((0.1,), (1.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        SourceScene((0.1,), (0.0,), 1.0)


@pytest.mark.parametrize("powers, noise", [
    ((float("nan"),), 1.0), ((float("inf"),), 1.0), ((-1.0,), 1.0),
    ((1.0,), float("nan")), ((1.0,), float("inf")), ((1.0,), -1.0)])
def test_scene_refuses_non_finite_powers(powers, noise):
    with pytest.raises(InvalidParameterError, match="finite"):
        SourceScene((0.1,), powers, noise)


# float() reads each of these as a number: "0.1" as 0.1 and True as 1.0.
@pytest.mark.parametrize("doas, powers, noise", [
    (("0.1",), (1.0,), 1.0), ((b"0.1",), (1.0,), 1.0), ((True,), (1.0,), 1.0),
    ((0.1,), (True,), 1.0), ((0.1,), (np.True_,), 1.0), ((0.1,), ("1",), 1.0),
    ((0.1,), (1.0,), True), ((0.1,), (1.0,), "1"), ((None,), (1.0,), 1.0)],
    ids=repr)
def test_scene_refuses_strings_and_bools(doas, powers, noise):
    with pytest.raises(InvalidParameterError, match="real number"):
        SourceScene(doas, powers, noise)


def test_scene_takes_python_and_numpy_numbers():
    scene = SourceScene((np.float64(0.1), 0, np.float32(-0.25)),
                        (1, np.int64(2), 0.5), np.float64(1))
    assert scene.normalized_doas == (0.1, 0.0, -0.25)
    assert scene.powers == (1.0, 2.0, 0.5) and scene.noise_power == 1.0
    assert all(type(v) is float for v in scene.normalized_doas + scene.powers)


@pytest.mark.parametrize("kwargs", [{"snr_db": "0"}, {"snr_db": None},
                                    {"snr_db": True}, {"min_separation": "0"},
                                    {"min_separation": 1j}], ids=repr)
def test_random_scene_refuses_a_bad_snr_or_separation(kwargs):
    # Each raised a bare TypeError, or was read as a number.
    with pytest.raises(InvalidParameterError, match="real number"):
        random_scene(2, 0, **kwargs)


@pytest.mark.parametrize("snr_db", [float("nan"), -float("inf"), -4000.0])
def test_random_scene_refuses_a_noise_power_that_is_not_finite(snr_db):
    with pytest.raises(InvalidParameterError):
        random_scene(2, 0, snr_db=snr_db)


def test_random_scene_accepts_infinite_and_extreme_finite_snr():
    assert random_scene(2, 0, snr_db=float("inf")).noise_power == 0.0
    assert random_scene(2, 0, snr_db=-300.0).noise_power == 1e30


def test_random_scene_separation():
    scene = random_scene(10, seed=3, min_separation=0.03)
    doas = np.asarray(scene.normalized_doas)
    assert np.min(np.diff(doas)) >= 0.03
    assert scene.noise_power == 1.0  # SNR 0 dB


def test_scene_domain_is_half_open():
    # -0.5 and 0.5 are the same direction on the circular theta' domain.
    with pytest.raises(InvalidParameterError):
        SourceScene((-0.5, 0.5), (1.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        SourceScene((0.5,), (1.0,), 1.0)
    assert SourceScene((-0.5,), (1.0,), 1.0).normalized_doas == (-0.5,)


def test_random_scene_tight_separation_returns_promptly():
    # Feasible (m * 0.039 = 0.936 < 1) but far too tight for rejection
    # sampling of m uniform draws.
    out = []
    worker = threading.Thread(
        target=lambda: out.append(random_scene(24, 1, min_separation=0.039)),
        daemon=True)
    start = time.perf_counter()
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "random_scene did not return within 5 s"
    assert time.perf_counter() - start < 5.0
    doas = np.asarray(out[0].normalized_doas)
    assert len(doas) == 24
    assert np.min(np.diff(doas)) >= 0.039
    assert doas[0] + 1 - doas[-1] >= 0.039
    assert doas[0] >= -0.5 and doas[-1] < 0.5


# Every case fits on the line, (m - 1) * sep < 1.  The circle-feasible ones
# sit near the limit m * sep < 1, plus (24, 0.03), where the linear sampler
# put the last source within 0.03 of the first across the wrap for 155 of
# seeds 0-199.  The rest, (2, 0.999) to (100, (1 - 1e-12) / 99), fit only on
# the line: the last source would be closer than sep to the first across the
# wrap, so random_scene must refuse them rather than draw a scene.
@pytest.mark.parametrize("m, sep", [(1, 0.0), (2, 0.999), (24, 0.0434),
                                    (50, 0.0201), (300, 1.0 / 300),
                                    (2, 1.0 - 1e-13), (100, (1 - 1e-12) / 99),
                                    (40, 0.0), (24, 0.03), (2, 0.4999),
                                    (24, 0.0416),
                                    (50, 0.0199), (300, 1.0 / 301),
                                    (2, 0.5 - 1e-13), (100, (1 - 1e-12) / 100)])
def test_random_scene_feasible_inputs_stay_in_domain(m, sep):
    if m * sep >= 1:
        with pytest.raises(InvalidParameterError, match="do not fit"):
            random_scene(m, 0, min_separation=sep)
        return
    for seed in range(20):
        doas = np.asarray(random_scene(m, seed, min_separation=sep)
                          .normalized_doas)
        assert len(doas) == m
        assert doas[0] >= -0.5 and doas[-1] < 0.5
        if m > 1:
            assert np.min(np.diff(doas)) >= sep
            # the gap across the wrap, from the last source to the first
            assert doas[0] + 1 - doas[-1] >= sep


def test_random_scene_rejects_infeasible_input():
    with pytest.raises(InvalidParameterError):
        random_scene(11, 0, min_separation=0.1)
    with pytest.raises(InvalidParameterError):
        random_scene(0, 0)
    with pytest.raises(InvalidParameterError):
        random_scene(3, 0, min_separation=-0.1)


@pytest.mark.parametrize("grid_size", [0, -8, 2048.0, "2048", None])
def test_random_scene_rejects_bad_grid_size(grid_size):
    with pytest.raises(InvalidParameterError, match="grid size"):
        random_scene(3, 0, grid_size=grid_size)
    with pytest.raises(InvalidParameterError, match="grid size"):
        random_scene(3, 0, min_separation=0.01, grid_size=grid_size)


@pytest.mark.parametrize("grid_size", [0, -8, 2048.0, "2048", None])
def test_music_spectrum_rejects_bad_grid_size(nfa, grid_size):
    t = np.eye(4, dtype=complex)
    with pytest.raises(InvalidParameterError, match="grid size"):
        music_spectrum(t, 1, grid_size)
    with pytest.raises(InvalidParameterError, match="grid size"):
        estimate_doas(nfa, np.eye(12), 1, grid_size)


def test_grid_size_refuses_a_bool():
    with pytest.raises(InvalidParameterError, match="grid size"):
        music_spectrum(np.eye(4, dtype=complex), 1, True)
    with pytest.raises(InvalidParameterError, match="grid size"):
        random_scene(3, 0, grid_size=True)


@pytest.mark.parametrize("t", [np.ones((3, 4)), np.ones(4),
                               np.ones((2, 3, 3))],
                         ids=["3x4", "vector", "stack"])
def test_music_spectrum_rejects_non_square_input(t):
    # A constant 3 x 4 matrix equals its own flipped conjugate, so the
    # shape must be checked before the centro-Hermitian test.
    with pytest.raises(InvalidParameterError, match="square"):
        music_spectrum(t, 1)


def test_music_spectrum_rejects_non_hermitian_input():
    # eigh reads only part of its input: it would answer for a Hermitian
    # completion instead of refusing.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    t = x @ x.conj().T
    t[np.triu_indices(8, 1)] += 0.5
    with pytest.raises(InvalidParameterError, match="Hermitian"):
        music_spectrum(t, 2)


def _random_hermitian_toeplitz(dim, seed):
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ac = {0: col[0].real}
    for k in range(1, dim):
        ac[k], ac[-k] = col[k], np.conj(col[k])
    return toeplitz_augment(ac, (1 - dim, dim - 1))


def _unitary_q(dim):
    """The dense Q of the real-form transform: (1/sqrt 2) [[I, jI], [J, -jJ]]
    with a 1 in the middle for odd dim."""
    k = dim // 2
    eye = np.eye(k)
    q = np.zeros((dim, dim), dtype=complex)
    q[:k, :k] = eye
    q[:k, dim - k:] = 1j * eye
    q[dim - k:, :k] = eye[::-1]
    q[dim - k:, dim - k:] = -1j * eye[::-1]
    q /= np.sqrt(2.0)
    if dim % 2:
        q[k, k] = 1.0
    return q


@pytest.mark.parametrize("dim", range(2, 41))
def test_real_form_is_the_dense_unitary_transform(dim):
    t = _random_hermitian_toeplitz(dim, seed=dim)
    q = _unitary_q(dim)
    assert np.allclose(q.conj().T @ q, np.eye(dim), rtol=0, atol=1e-14)
    dense = q.conj().T @ t @ q
    s = _real_form(t)
    assert s.dtype == float
    assert np.max(np.abs(dense.imag)) <= 1e-12
    assert np.max(np.abs(s - dense.real)) <= 1e-12


@pytest.mark.parametrize("dim", range(2, 41))
def test_real_path_matches_reference_on_random_toeplitz(dim):
    t = _random_hermitian_toeplitz(dim, seed=100 + dim)
    assert np.array_equal(t, t.conj().T)
    assert np.array_equal(t, t[::-1, ::-1].conj())
    for m in sorted({1, dim // 2, dim - 1}):
        result = music_spectrum(t, m, grid_size=1024)
        grid, spectrum = ref_music_spectrum(t, m, 1024)
        assert np.allclose(result.spectrum, spectrum, rtol=1e-5, atol=0)
        ref_peaks = pick_peaks(MusicResult(grid=grid, spectrum=spectrum), m)
        assert pick_peaks(result, m).estimates == ref_peaks.estimates


def _boundary_matrix():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return x @ x.conj().T


def _rounding_off_hermitian():
    """A Hermitian Toeplitz matrix with one diagonal entry off by a
    rounding-level imaginary part."""
    t = _random_hermitian_toeplitz(6, seed=1)
    t[2, 2] += 1e-17j
    return t


@pytest.mark.parametrize("t", [_boundary_matrix(),
                               (_boundary_matrix()
                                + _boundary_matrix().conj().T) / 2.0,
                               _rounding_off_hermitian()],
                         ids=["not-hermitian", "not-centro-hermitian",
                              "rounding-off-hermitian"])
def test_music_spectrum_refuses_non_centro_hermitian_input(t):
    # The real eigh reads t through its top-half blocks only, so a matrix
    # that is not exactly Hermitian and persymmetric is refused, however
    # close it comes.
    assert not (np.array_equal(t, t.conj().T)
                and np.array_equal(t, t[::-1, ::-1].conj()))
    for m in range(1, 6):
        with pytest.raises(InvalidParameterError, match="Hermitian"):
            music_spectrum(t, m, grid_size=512)


def test_simulate_deterministic(nfa):
    scene = random_scene(3, seed=1)
    a = simulate(nfa, scene, 64, seed=42)
    b = simulate(nfa, scene, 64, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (len(nfa), 64)


def test_noiseless_single_source_rank_one(nfa):
    scene = SourceScene((0.2,), (2.0,), 0.0)
    y = simulate(nfa, scene, 16, seed=0)
    a = steering_vector(nfa, 0.2)
    # every snapshot proportional to the steering vector
    coeff = y[0, :] / a[0]
    assert np.allclose(y, np.outer(a, coeff))


def test_sample_covariance_single_snapshot(nfa):
    y = simulate(nfa, random_scene(2, seed=9), 1, seed=5)
    r = sample_covariance(y)
    assert np.allclose(r, np.outer(y[:, 0], y[:, 0].conj()))


@pytest.mark.parametrize("shape", [(12,), (12, 4, 2), (12, 0)])
def test_sample_covariance_refuses_a_bad_snapshot_matrix(shape):
    with pytest.raises(InvalidParameterError, match="snapshot matrix"):
        sample_covariance(np.ones(shape, dtype=complex))


def test_sample_covariance_hermitian_psd(nfa):
    batch = simulate(nfa, random_scene(4, seed=2), 100, seed=7)
    r = sample_covariance(batch)
    assert np.array_equal(r, r.conj().T)
    assert np.min(np.linalg.eigvalsh(r)) >= -1e-12


def test_large_t_limit_matches_expected():
    arr = gen_ula(4)
    scene = SourceScene((0.0,), (1.0,), 1.0)
    batch = simulate(arr, scene, 1_000_000, seed=11)
    r = sample_covariance(batch)
    expected = expected_covariance(arr, scene)
    a = steering_vector(arr, 0.0)
    assert np.allclose(expected, np.outer(a, a.conj()) + np.eye(4))
    assert np.max(np.abs(r - expected)) < 0.01 * np.max(np.abs(expected))


def _batch_covariance(s, scene, t, seed):
    """The covariance run_trial_batch draws at a trial seed: W W^H / T for
    the Bartlett draw W = F L, with no snapshots."""
    (w,), _ = doasim._draw(doasim._snapshot_factor(s.positions, scene), t,
                           [seed])
    return doasim._gram(w, t)


def _snapshot_covariance(s, scene, t, seed):
    return sample_covariance(simulate(s, scene, t, seed))


@pytest.mark.parametrize("draw", [_snapshot_covariance, _batch_covariance],
                         ids=["snapshots", "bartlett"])
def test_snapshot_moments_match_the_model(nfa, draw):
    # R-hat over K = 2000 draws of T = 50 snapshots each.  Its entries are
    # unbiased, E R-hat = R, and for circular Gaussian snapshots
    # E|R-hat_ij - R_ij|^2 = R_ii R_jj / T exactly.  Tolerances: each
    # entry's mean within 5 standard errors sqrt(R_ii R_jj / (T K)), and
    # each entry's mean squared error within 15% of R_ii R_jj / T (at
    # least 4.7 standard errors of that mean at K = 2000).
    scene = random_scene(4, seed=1212, snr_db=0.0)
    t, k = 50, 2000
    r = expected_covariance(nfa, scene)
    draws = np.array([draw(nfa, scene, t, seed) for seed in range(k)])
    var = np.outer(np.diag(r).real, np.diag(r).real) / t
    mean_err = np.abs(draws.mean(axis=0) - r)
    assert np.all(mean_err < 5 * np.sqrt(var / k))
    mse = np.mean(np.abs(draws - r) ** 2, axis=0)
    assert np.all(np.abs(mse / var - 1) < 0.15)


@pytest.mark.parametrize("t", [3, 20])
def test_simulated_snapshots_are_independent_circular_draws(nfa, t):
    # Each column of Y = W Q^H is CN(0, R) and independent of the others,
    # on both sides of T = N (Q is 3 x 3 unitary at T = 3, a 20 x 12
    # isometry at T = 20).  Over K = 2000 draws: the means of y_j, of
    # y_j y_l^H (j != l) and of y_j y_j^T are 0, and the mean of y_j y_j^H
    # is R.  Entry a of y_j has variance R_aa, and an entry (a, b) of each
    # product R_aa R_bb, or R_aa R_bb + |R_ab|^2 for y y^T; tolerance 5
    # standard errors.  Without the phases of R's diagonal divided out,
    # LAPACK's Householder QR leaves Re Q[0, 0] never positive, so Q is not
    # Haar and the mean of y_0 is not 0.
    scene = random_scene(4, seed=1212, snr_db=0.0)
    k = 2000
    r = expected_covariance(nfa, scene)
    ys = np.array([simulate(nfa, scene, t, seed) for seed in range(k)])
    p = np.outer(np.diag(r).real, np.diag(r).real)
    se = np.sqrt(p / k)
    for j in (0, t - 1):
        assert np.all(np.abs(ys[:, :, j].mean(axis=0))
                      < 5 * np.sqrt(np.diag(r).real / k))
    for j, l in [(0, 0), (t - 1, t - 1), (0, t - 1)]:
        outer = np.mean(ys[:, :, j, None] * ys[:, None, :, l].conj(), axis=0)
        assert np.all(np.abs(outer - (r if j == l else 0.0)) < 5 * se)
        pseudo = np.mean(ys[:, :, j, None] * ys[:, None, :, j], axis=0)
        assert np.all(np.abs(pseudo) < 5 * np.sqrt((p + np.abs(r) ** 2) / k))


def test_bartlett_factor_has_the_law_of_the_lq_factor(nfa):
    # With F = I the draw W is L itself.  Over K = 4000 draws at T = 40:
    # the entries above the diagonal are 0, the diagonal is real and
    # positive with |L_ii|^2 ~ chi-square(2 (T - i)), mean 2 (T - i) and
    # variance 4 (T - i), and the entries below it are complex normals
    # with E|L_ij|^2 = 2 (variance 4 / K of the mean).  Tolerance 5
    # standard errors of each mean.
    n, t, k = len(nfa), 40, 4000
    draws = doasim._draw(np.eye(n), t, range(k))[0]
    assert draws.shape == (k, n, n)
    upper = np.triu_indices(n, 1)
    assert not draws[:, upper[0], upper[1]].any()
    diag = np.diagonal(draws, axis1=1, axis2=2)
    assert not diag.imag.any() and np.all(diag.real > 0)
    dof = 2 * (t - np.arange(n))
    assert np.all(np.abs(np.mean(diag.real ** 2, axis=0) - dof)
                  < 5 * np.sqrt(2 * dof / k))
    lower = np.tril_indices(n, -1)
    power = np.mean(np.abs(draws[:, lower[0], lower[1]]) ** 2, axis=0)
    assert np.all(np.abs(power - 2) < 5 * np.sqrt(4 / k))


@pytest.mark.parametrize("t", [1, 5])
def test_fewer_snapshots_than_sensors_give_a_covariance_of_rank_t(nfa, t):
    # T < N = 12: L is N x T, the batch's covariance and the snapshots'
    # both have rank T.  Tolerance: the N - T smallest eigenvalues below
    # 1e-12 of the largest, the T-th largest above 1e-6 of it.
    scene = random_scene(4, seed=8)
    y = simulate(nfa, scene, t, 17)
    assert y.shape == (len(nfa), t)
    for r_hat in (_batch_covariance(nfa, scene, t, 17),
                  sample_covariance(y)):
        lam = np.linalg.eigvalsh(r_hat)[::-1]
        assert np.all(np.abs(lam[t:]) < 1e-12 * lam[0])
        assert lam[t - 1] > 1e-6 * lam[0]


def test_noiseless_sample_covariance_has_rank_m(nfa):
    # Five sources, no noise: R-hat is rank 5 of 12.  Tolerance: the seven
    # smallest eigenvalues are below 1e-10 of the largest, the fifth
    # largest above 1e-3 of it.
    scene = SourceScene((-0.3, -0.1, 0.05, 0.2, 0.4), (1.0,) * 5, 0.0)
    r_hat = sample_covariance(simulate(nfa, scene, 100, seed=31))
    lam = np.linalg.eigvalsh(r_hat)[::-1]
    assert np.all(np.abs(lam[5:]) < 1e-10 * lam[0])
    assert lam[4] > 1e-3 * lam[0]
    assert np.linalg.matrix_rank(r_hat, tol=1e-10 * lam[0]) == 5


# The batch draws each trial's covariance as W W^H / T and simulate
# returns Y = W Q^H, so the chain simulate -> sample_covariance reaches the
# batch's covariance only to rounding: Q^H Q = I holds to about 1e-15.
# Tolerances: spectra, which peak at 1, to an absolute 1e-4 (each is
# normalised by its deepest MUSIC null, which at full capacity lies near
# zero and amplifies a 1e-15 change of the covariance: 4.4e-6 was the
# largest difference seen over 20 000 criterion-9 trials), refined
# estimates to 1e-12 (3.9e-16 seen) and per-trial RMSEs to a relative 1e-9
# (3.1e-14 seen).  The grid estimates and under-resolution flags must be
# equal.
_SPECTRUM_ATOL = 1e-4
_REFINED_ATOL = 1e-12
_RMSE_RTOL = 1e-9


@pytest.mark.parametrize("r, m, t, trials", [
    (1, 8, 200, 4), (3, 40, 300, 2),
    # Across group boundaries: 52 trials a group at dim 25, so the last
    # group holds 3; 8 at dim 64, so 19 trials are two full groups and 3.
    (1, 8, 200, 55), (2, 20, 200, 19)])
def test_trial_batch_equals_the_step_by_step_chain(r, m, t, trials):
    # The benchmark replays each trial as simulate -> sample_covariance ->
    # estimate_doas at the spawned trial seed; run_trial_batch, which
    # factors the model covariance once per batch, draws each covariance
    # from its Bartlett factor and runs the MUSIC stages on groups of
    # trials, must give the same grid estimates, and the same refined
    # estimates, RMSEs (of the refined estimates) and first spectrum to
    # rounding.
    arr = make_sfa("nested", {"n": 6}, r)
    scene = random_scene(m, seed=40 + r, min_separation=0.01)
    _assert_batch_equals_the_chain(arr, scene, t, trials, 77)


def _assert_batch_equals_the_chain(arr, scene, t, trials, seed):
    """run_trial_batch against simulate -> sample_covariance ->
    estimate_doas at each spawned trial seed: grid estimates and resolved
    trials equal, the rest to the rounding tolerances above; returns the
    batch."""
    m = scene.source_count
    result = run_trial_batch(arr, scene, t, trials, seed=seed)
    chain = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        trial_seed = np.random.default_rng(child).integers(2 ** 63)
        r_hat = sample_covariance(simulate(arr, scene, t, trial_seed))
        chain.append(estimate_doas(arr, r_hat, m))
    tru = np.sort(scene.normalized_doas)
    rmse = [float("inf") if c.under_resolved else ref_rmse(c.refined, tru)
            for c in chain]
    pooled = [e ** 2 for e in rmse if e < float("inf")]
    assert result.per_trial_estimates == tuple(c.estimates for c in chain)
    assert result.resolved_trials == len(pooled)
    for got, want in zip(result.per_trial_refined, chain):
        assert np.allclose(got, want.refined, rtol=0.0, atol=_REFINED_ATOL)
    assert np.allclose(result.per_trial_rmse, rmse, rtol=_RMSE_RTOL, atol=0.0)
    assert np.isclose(result.rmse, np.sqrt(np.mean(pooled)),
                      rtol=_RMSE_RTOL, atol=0.0)
    assert np.allclose(result.first_trial.spectrum, chain[0].spectrum,
                       rtol=0.0, atol=_SPECTRUM_ATOL)
    return result


def test_trial_batch_mixing_resolved_and_under_resolved_trials(nfa):
    # 20 sources 0.01 apart from 30 snapshots: about half the trials
    # resolve.  The 60 trials run as a group of 52 and one of 8, each with
    # trials of both kinds, and each under-resolved trial must score inf in
    # its own place while the stacked RMSE scores the others.
    scene = random_scene(20, seed=5, min_separation=0.01)
    result = _assert_batch_equals_the_chain(nfa, scene, 30, 60, 3)
    low = np.isinf(result.per_trial_rmse)
    assert 0 < low[:52].sum() < 52 and 0 < low[52:].sum() < 8
    assert result.resolved_trials == 60 - low.sum()


def _haar_isometry(rng, t, k):
    """The T x k Haar isometry that simulate draws after L: the Q factor of
    a complex Gaussian draw, its columns multiplied by the phases of R's
    diagonal, which leaves the matching R with a positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((t, 2 * k)).view(complex))
    d = r.diagonal()
    return q * (d / np.abs(d))


@pytest.mark.parametrize("t", [1, 5, 12, 200])
def test_simulate_is_the_batch_factor_times_a_haar_isometry(nfa, t):
    # simulate at a seed returns W Q^H exactly, for the W = F L that the
    # batch draws at that seed and the Q drawn next from the same
    # generator; so its sample covariance is the batch's to rounding.
    # Q^H Q = I to 1e-13, and W is N x min(N, T).
    scene = random_scene(6, seed=3)
    (w,), rng = doasim._draw(doasim._snapshot_factor(nfa.positions, scene),
                             t, [2024])
    k = min(len(nfa), t)
    assert w.shape == (len(nfa), k)
    q = _haar_isometry(rng, t, k)
    assert np.max(np.abs(q.conj().T @ q - np.eye(k))) < 1e-13
    y = simulate(nfa, scene, t, 2024)
    assert np.array_equal(y, w @ q.conj().T)
    r_hat = doasim._gram(w, t)
    assert np.allclose(sample_covariance(y), r_hat, rtol=0.0,
                       atol=1e-13 * np.max(np.abs(r_hat)))


@pytest.mark.parametrize("g", [1, 3, 52])
@pytest.mark.parametrize("t", [1, 5, 12, 500])
def test_stacked_draw_is_each_seed_drawn_alone(nfa, t, g):
    # Below, at and above T = N: each row of the stacked draw is the draw
    # of its seed alone, byte for byte, and that draw takes the seed's
    # normals and then its chi-square draws in the order written out here.
    # The generator returned is the last seed's, after its draws.
    f = doasim._snapshot_factor(nfa.positions, random_scene(6, seed=3))
    n, k = len(nfa), min(len(nfa), t)
    seeds = np.random.default_rng(g).integers(2 ** 63, size=g)
    w, rng = doasim._draw(f, t, seeds)
    assert w.shape == (g, n, k)
    for row, seed in zip(w, seeds):
        (alone,), _ = doasim._draw(f, t, [seed])
        assert row.tobytes() == alone.tobytes()
        by_hand = np.random.default_rng(seed)
        lower = np.tril(by_hand.standard_normal((n, 2 * k)).view(complex), -1)
        np.fill_diagonal(lower,
                         np.sqrt(by_hand.chisquare(2 * (t - np.arange(k)))))
        assert alone.tobytes() == (f @ lower).tobytes()
    assert rng.bit_generator.state == by_hand.bit_generator.state


@pytest.mark.parametrize("t", [5, 500])
def test_trial_batch_covariances_are_each_trial_drawn_alone(nfa, t,
                                                             monkeypatch):
    # 55 trials at dim 25 run as a group of 52 and one of 3.  Every
    # covariance the batch hands to the MUSIC stages is, byte for byte,
    # the one its trial seed gives alone.
    seen = []
    estimates = doasim._estimates

    def recording(plan, r, m, grid_size):
        seen.append(r.copy())
        return estimates(plan, r, m, grid_size)

    monkeypatch.setattr(doasim, "_estimates", recording)
    scene = random_scene(8, seed=5)
    run_trial_batch(nfa, scene, t, 55, seed=17)
    assert [len(r) for r in seen] == [52, 3]
    f = doasim._snapshot_factor(nfa.positions, scene)
    children = np.random.SeedSequence(17).spawn(55)
    for r_hat, child in zip(np.concatenate(seen), children):
        seed = np.random.default_rng(child).integers(2 ** 63)
        alone = doasim._gram(doasim._draw(f, t, [seed])[0], t)[0]
        assert r_hat.tobytes() == alone.tobytes()


def test_trial_seed_is_the_spawned_child_raw_draw_shifted():
    # run_trial_batch reads trial seeds as PCG64(child).random_raw() >> 1,
    # not default_rng(child).integers(2 ** 63): numpy's bounded draw below
    # 2^63 keeps the top 63 bits of one raw 64-bit draw, so on every child
    # the two are the same seed.
    batch_seeds = (0, 1, 17, 4242, 2 ** 32 + 5, 2 ** 63 - 1)
    children = [child for seed in batch_seeds
                for child in np.random.SeedSequence(seed).spawn(400)]
    assert len(children) >= 2000
    for child in children:
        raw = np.random.PCG64(child).random_raw() >> 1
        assert raw == np.random.default_rng(child).integers(2 ** 63)


@pytest.mark.parametrize("r, m, g", [(1, 24, 5), (3, 60, 3)],
                         ids=["dim-25", "dim-181"])
def test_stacked_stages_equal_estimate_doas_on_each_covariance(r, m, g):
    # Every row of a stack, not only the first, comes out of the stacked
    # lag means, eigensolver, V V^T and block sums as estimate_doas gives it
    # on that covariance alone.
    arr = make_sfa("nested", {"n": 6}, r)
    scene = random_scene(m, seed=r, min_separation=0.5 / m)
    stack = np.stack([sample_covariance(simulate(arr, scene, 300, seed))
                      for seed in range(g)])
    spectra, (estimates, refined, under) = doasim._estimates(
        _coarray_plan(arr.positions), stack, m, DEFAULT_GRID_SIZE)
    assert spectra.shape == (g, DEFAULT_GRID_SIZE)
    assert len(estimates) == len(refined) == len(under) == g
    for i, r_hat in enumerate(stack):
        alone = estimate_doas(arr, r_hat, m)
        assert np.array_equal(spectra[i], alone.spectrum)
        assert estimates[i] == alone.estimates
        _assert_same_bits(np.array(refined[i]), np.array(alone.refined))
        assert under[i] is alone.under_resolved


# The complex route to the MUSIC coefficients, which doasim took before it
# read them from R = V V^T in real arithmetic, kept as the oracle of
# doasim._coefficients: the noise eigenvectors mapped back by the Q of the
# real form, E = Q V, the projector P = E E^H, and the sums c_d of its
# subdiagonals p - q = d over the entries p >= q, one np.bincount of the
# real parts and one of the imaginary parts.

def _complex_noise(v):
    """E = Q V for the stack v of real noise eigenvectors, by Q's sparsity."""
    dim = v.shape[1]
    k = dim // 2
    top = (v[:, :k] + 1j * v[:, dim - k:]) * np.sqrt(0.5)
    noise = np.empty(v.shape, dtype=complex)
    noise[:, :k] = top
    if dim % 2:
        noise[:, k] = v[:, k]
    noise[:, dim - k:] = top[:, ::-1].conj()
    return noise


def _complex_route_coefficients(v):
    noise = _complex_noise(v)
    proj = noise @ noise.conj().transpose(0, 2, 1)
    dim = v.shape[1]
    p, q = np.tril_indices(dim)
    x = proj[:, p, q]
    c = np.empty((len(x), dim), dtype=complex)
    c.real, c.imag = doasim._row_sums(p - q, dim, x.real, x.imag)
    return c


@pytest.mark.parametrize("dim", range(2, 42))
def test_block_sums_match_the_complex_route(dim):
    # k = dim // 2 = 1 at dims 2 and 3, and odd dims have a middle row; from
    # one noise column up to dim - 1.  Each row of a stack of three is bit
    # for bit the row computed alone.
    rng = np.random.default_rng(dim)
    for r in range(1, dim):
        v = np.linalg.qr(rng.standard_normal((3, dim, dim)))[0][:, :, :r]
        assert np.allclose(_complex_noise(v), _unitary_q(dim) @ v,
                           rtol=0, atol=1e-15)
        ref = _complex_route_coefficients(v)
        c = doasim._coefficients(v)
        assert c.shape == (3, dim) and c.dtype == complex
        assert np.abs(c - ref).max() <= 1e-12 * np.abs(ref).max()
        for i in range(3):
            assert doasim._coefficients(v[i:i + 1]).tobytes() \
                == c[i].tobytes()


def _jittered_grid_scene(m, jitter, seed):
    """m equal-power sources on a uniform grid over [-0.48, 0.48], each moved
    by a uniform jitter, at SNR 0 dB: the criterion-9 scene for 24 sources,
    jitter 0.008 and seed 20240824."""
    rng = np.random.default_rng(seed)
    base = np.linspace(-0.48, 0.48, m)
    doas = np.sort(base + rng.uniform(-jitter, jitter, m))
    return SourceScene(tuple(doas), (1.0,) * m, 1.0)


@pytest.mark.parametrize(
    "r, scene, t, trials, groups, refined_tol, spectrum_tol",
    [(1, _jittered_grid_scene(24, 0.008, 20240824), 500, 50, 3, 1e-15, 1e-6),
     (3, _jittered_grid_scene(60, 0.003, 4848), 1000, 5, 1, 1e-15, 1e-9),
     (1, random_scene(24, seed=10, min_separation=0.5 / 24), 500, 50, 1,
      1e-11, 1e-4)],
    ids=["criterion-9", "48-sensor", "close-sources"])
def test_block_sums_replay_the_complex_route(r, scene, t, trials, groups,
                                             refined_tol, spectrum_tol,
                                             monkeypatch):
    # The spectra, estimates and refined estimates of groups of trial
    # covariances as run_trial_batch draws them, against the same stages
    # with the complex route's coefficients.  The two routes' coefficients
    # differ by rounding only (4e-16 of their size).  The spectra differ by
    # that, rescaled by each spectrum's deepest null, which at full capacity
    # (24 sources on the 12-sensor NFA, one noise vector) lies near zero:
    # the worst seen here was 4.1e-8 on the criterion-9 scene, 2.1e-6 on
    # the close-sources one and 2.8e-12 at dim 181.  A refined estimate
    # moves with the rounding of the denominator at its peak, relative to
    # the peak's depth: 1.7e-16 at most on the criterion-9 scene, but up to
    # 1.1e-12 on the close-sources one (0.021 apart), where both routes lie
    # within 1e-12 of the refined estimates from the coefficients in long
    # double.
    arr = make_sfa("nested", {"n": 6}, r)
    m = scene.source_count
    plan = _coarray_plan(arr.positions)
    f = doasim._snapshot_factor(plan.positions, scene)
    for group in range(groups):
        seeds = range(group * trials, (group + 1) * trials)
        cov = doasim._gram(doasim._draw(f, t, seeds)[0], t)
        spectra, (estimates, refined, under) = doasim._estimates(
            plan, cov, m, DEFAULT_GRID_SIZE)
        with monkeypatch.context() as patch:
            patch.setattr(doasim, "_coefficients", _complex_route_coefficients)
            ref_spectra, (ref_estimates, ref_refined, ref_under) = \
                doasim._estimates(plan, cov, m, DEFAULT_GRID_SIZE)
        assert estimates == ref_estimates and under == ref_under
        assert not any(under)
        assert np.abs(np.subtract(refined, ref_refined)).max() <= refined_tol
        assert np.abs(spectra - ref_spectra).max() <= spectrum_tol


# At full capacity, m = dim - 1, the noise subspace is one vector, which
# _noise_vectors takes from eigvalsh and two solves of inverse iteration.
# Both it and eigh's vector lie within a few eps max|lambda| / gap of the
# true one (gap = lambda_1 - lambda_0, the vector's condition), so their
# projectors must agree within 100 eps max|lambda| / gap; the worst seen on
# these stacks was 1.2.

def _eigh_noise_vectors(s, m):
    """Every noise vector from eigh, as for more than one noise dimension."""
    return np.linalg.eigh(s)[1][:, :, :s.shape[-1] - m]


def _capacity_real_forms(arr, t, snr_db, seed, trials=5):
    """Real forms of the augmented matrices of `trials` sample covariances
    of T snapshots, for as many sources as the coarray supports."""
    u = summarize(difference_coarray(arr)).max_sources
    scene = random_scene(u, seed, snr_db=snr_db, min_separation=0.3 / u)
    plan = _coarray_plan(arr.positions)
    f = doasim._snapshot_factor(plan.positions, scene)
    seeds = range(seed * trials, (seed + 1) * trials)
    r = doasim._gram(doasim._draw(f, t, seeds)[0], t)
    zero = plan.lags.index(0)
    means = doasim._lag_means(r, plan)
    return _real_form(_toeplitz(means[:, zero:zero + u + 1]))


@pytest.mark.parametrize("arr", [make_sfa("nested", {"n": 6}, 1),
                                 make_sfa("coprime", {"m": 2, "n": 3}, 1),
                                 make_sfa("super_nested", {"n1": 4, "n2": 3},
                                          1),
                                 gen_ula(8)],
                         ids=["nested", "coprime", "super-nested", "ula8"])
def test_capacity_noise_vector_matches_eigh(arr, monkeypatch):
    # T = 3 is fewer snapshots than sensors; SNR from -10 to 20 dB.
    s = np.concatenate([_capacity_real_forms(arr, t, snr_db, seed)
                        for t in (3, 50, 500) for snr_db in (-10.0, 0.0, 20.0)
                        for seed in (1, 2)])
    dim = s.shape[-1]
    ref = _eigh_noise_vectors(s, dim - 1)
    lam = np.linalg.eigvalsh(s)
    scale = np.abs(lam).max(axis=1)
    gap = lam[:, 1] - lam[:, 0]
    eps = np.finfo(float).eps
    eigh = np.linalg.eigh
    fallback = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: fallback.append(len(a)) or eigh(a))
    v = doasim._noise_vectors(s, dim - 1)
    err = np.abs(v @ v.swapaxes(1, 2) - ref @ ref.swapaxes(1, 2))
    assert np.all(err.max(axis=(1, 2)) * gap <= 100 * eps * scale)
    # eigh ran only on the rows whose gap is below 64 sqrt(eps) max|lambda|.
    near_double = np.count_nonzero(~(gap > 64 * eps * scale / np.sqrt(eps)))
    assert sum(fallback) == near_double < len(s)


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-315])
def test_capacity_noise_vector_at_extreme_scales(nfa, scale):
    # The right-hand side delta x keeps each solve near unit size, and at
    # 1e-315 delta underflows to a subnormal number, so that row keeps
    # eigh's vector instead of dividing by zero.
    s = _capacity_real_forms(nfa, 500, 10.0, seed=3, trials=2) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = doasim._noise_vectors(s, 24)
    ref = _eigh_noise_vectors(s, 24)
    err = np.abs(v @ v.swapaxes(1, 2) - ref @ ref.swapaxes(1, 2))
    assert err.max() <= 1e-12


def test_capacity_noise_vector_of_a_start_orthogonal_to_it_is_eigh():
    # The noise vector of three sources at -0.25, 0 and 0.25 on a 4-sensor
    # ULA is the steering vector of -0.5, whose real form is orthogonal to
    # the start, ones: two steps of inverse iteration end near another
    # eigenvector, which the residual check refuses.
    arr = gen_ula(4)
    for noise in (0.0, 1.0):
        scene = SourceScene((-0.25, 0.0, 0.25), (1.0,) * 3, noise)
        t = toeplitz_augment(coarray_autocorrelation(
            expected_covariance(arr, scene), arr), (-3, 3))
        s = _real_form(t)[None]
        v = doasim._noise_vectors(s, 3)
        _assert_same_bits(v, _eigh_noise_vectors(s, 3))
        noise_vector = np.exp(-1j * np.pi * np.arange(4)) / 2.0
        assert np.abs(v[0, :, 0] @ _unitary_q(4).conj().T @ noise_vector) \
            == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 5, 25])
def test_degenerate_capacity_rows_keep_eigh_bit_for_bit(dim, monkeypatch):
    # The zero matrix and multiples of I have a multiple least eigenvalue;
    # the shifted solve would be singular there.  Their rows, alone or in a
    # stack with a simple row, give eigh's spectrum bit for bit, and nothing
    # raises or warns.
    simple = _real_form(_random_hermitian_toeplitz(dim, seed=dim))
    s = np.stack([np.zeros((dim, dim)), 2.0 * np.eye(dim), simple,
                  np.eye(dim)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectra = doasim._spectra(s, dim - 1, 256)
        alone = [doasim._spectra(row[None], dim - 1, 256)[0] for row in s]
        for t in (np.zeros((dim, dim), dtype=complex), 2.0 * np.eye(dim)):
            music_spectrum(t, dim - 1, 256)
    monkeypatch.setattr(doasim, "_noise_vectors", _eigh_noise_vectors)
    ref = doasim._spectra(s, dim - 1, 256)
    for i in (0, 1, 3):
        _assert_same_bits(spectra[i], ref[i])
    assert np.allclose(spectra[2], ref[2], rtol=1e-5, atol=0)
    for row, row_alone in zip(spectra, alone):
        _assert_same_bits(row, row_alone)


def test_zero_covariance_at_full_capacity_keeps_eigh(nfa, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate_doas(nfa, np.zeros((12, 12)), 24)
    monkeypatch.setattr(doasim, "_noise_vectors", _eigh_noise_vectors)
    ref = estimate_doas(nfa, np.zeros((12, 12)), 24)
    _assert_same_bits(result.spectrum, ref.spectrum)
    assert result.estimates == ref.estimates


def test_full_capacity_model_covariance_resolves_every_source(nfa):
    # 24 sources on the 12-sensor NFA leave one noise eigenvector, so the
    # picked peaks depend on the eigensolver's rounding.  On the model
    # covariance every scene must still resolve, with every refined estimate
    # within 1e-4 of its truth on the circle (1.8e-5 at worst).  The
    # separation, 0.02, is far wider than the tolerance, so each source has
    # its own estimate.
    for seed in range(20):
        scene = random_scene(24, seed, snr_db=10, min_separation=0.02)
        result = estimate_doas(nfa, expected_covariance(nfa, scene), 24)
        assert not result.under_resolved
        d = np.subtract.outer(np.array(result.refined),
                              np.array(scene.normalized_doas))
        d -= np.rint(d)
        assert np.abs(d).min(axis=0).max() <= 1e-4
        assert np.abs(d).min(axis=1).max() <= 1e-4


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_music_spectrum_refuses_a_non_finite_matrix(value):
    # An infinite entry can keep t exactly Hermitian and persymmetric; eigh
    # gave a spectrum of it, and eigvalsh raised LinAlgError.
    t = np.eye(4, dtype=complex)
    t[0, 0] = t[3, 3] = value
    for m in (1, 3):
        with pytest.raises(InvalidParameterError, match="finite"):
            music_spectrum(t, m, grid_size=64)


@pytest.mark.parametrize("grid_size", [0, True, 2.5])
def test_trial_batch_checks_the_grid_size_before_drawing(nfa, grid_size,
                                                          monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the grid size")

    monkeypatch.setattr(doasim, "_snapshot_factor", no_draw)
    monkeypatch.setattr(doasim, "_draw", no_draw)
    with pytest.raises(InvalidParameterError, match="grid size"):
        run_trial_batch(nfa, random_scene(4, seed=6), 200, 2, seed=1,
                        grid_size=grid_size)


# None would draw from fresh entropy that no record can repeat, and True
# would run as seed 1.
_BAD_SEEDS = [-1, np.int64(-2), None, True, False, np.bool_(True), 1.0,
              np.float64(2), "3"]


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_random_scene_refuses_a_bad_seed(seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        random_scene(3, seed)


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_simulate_refuses_a_bad_seed(nfa, seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        simulate(nfa, random_scene(3, seed=1), 10, seed)


@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_trial_batch_checks_the_seed_before_drawing(nfa, seed, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the seed")

    scene = random_scene(4, seed=6)
    monkeypatch.setattr(doasim, "_snapshot_factor", no_draw)
    monkeypatch.setattr(doasim, "_draw", no_draw)
    with pytest.raises(InvalidParameterError, match="seed"):
        run_trial_batch(nfa, scene, 200, 2, seed=seed)


def test_numpy_integer_and_zero_seeds_are_taken(nfa):
    # The benchmark's replay passes np.int64 trial seeds to simulate.
    scene = random_scene(3, np.int64(5))
    assert scene == random_scene(3, 5)
    assert np.array_equal(simulate(nfa, scene, 10, np.int64(2 ** 62)),
                          simulate(nfa, scene, 10, 2 ** 62))
    assert (run_trial_batch(nfa, scene, 50, 2, seed=np.uint64(7))
            == run_trial_batch(nfa, scene, 50, 2, seed=7))
    assert run_trial_batch(nfa, random_scene(3, 0), 50, 2, seed=0).trials == 2


@pytest.mark.parametrize("t", [0, -3, True, 64.0, np.float64(64.5), "64",
                               None])
def test_simulate_refuses_a_bad_snapshot_count(nfa, t):
    with pytest.raises(InvalidParameterError, match="snapshot count"):
        simulate(nfa, random_scene(3, seed=1), t, seed=0)


@pytest.mark.parametrize("trials", [0, -1, True, 2.0, np.float64(3)])
def test_trial_batch_refuses_a_bad_trial_count(nfa, trials):
    with pytest.raises(InvalidParameterError, match="trial count"):
        run_trial_batch(nfa, random_scene(4, seed=6), 200, trials, seed=1)


@pytest.mark.parametrize("t", [0, True, 200.0])
def test_trial_batch_refuses_a_bad_snapshot_count(nfa, t):
    with pytest.raises(InvalidParameterError, match="snapshot count"):
        run_trial_batch(nfa, random_scene(4, seed=6), t, 2, seed=1)


@pytest.mark.parametrize("m", [0, -1, True, 1.0, 2.5, np.float64(2), "2",
                               None], ids=repr)
@pytest.mark.parametrize("stage", ["random_scene", "music_spectrum",
                                   "pick_peaks", "estimate_doas"])
def test_music_stages_refuse_a_bad_source_count(nfa, stage, m):
    # True would be read as one source, and 2.0 as two; random_scene raised
    # a bare TypeError on both.
    scene = SourceScene((-0.2, 0.1), (1.0, 1.0), 0.5)
    r = expected_covariance(nfa, scene)
    t = np.eye(4, dtype=complex)
    call = {"random_scene": lambda: random_scene(m, seed=0),
            "music_spectrum": lambda: music_spectrum(t, m),
            "pick_peaks": lambda: pick_peaks(music_spectrum(t, 1), m),
            "estimate_doas": lambda: estimate_doas(nfa, r, m)}[stage]
    with pytest.raises(InvalidParameterError, match="source count"):
        call()


def test_music_stages_take_a_numpy_source_count(nfa):
    scene = SourceScene((-0.2, 0.1), (1.0, 1.0), 0.5)
    r = expected_covariance(nfa, scene)
    assert estimate_doas(nfa, r, np.int64(2)).estimates \
        == estimate_doas(nfa, r, 2).estimates


def test_expected_covariance_is_exactly_hermitian_on_random_arrays():
    rng = pyrandom.Random(1101)
    for seed in range(60):
        arr = SensorArray(tuple(sorted(rng.sample(range(80),
                                                  rng.randint(2, 16)))))
        scene = random_scene(rng.randint(1, 8), seed,
                             snr_db=rng.uniform(-10, 30))
        r = expected_covariance(arr, scene)
        assert np.array_equal(r, r.conj().T)
        assert not np.any(r.diagonal().imag)


def test_expected_covariance_equals_the_outer_product_formula():
    # The formula expected_covariance used before it took its steering
    # matrix from steering_vector: the result must not move by one bit.
    rng = pyrandom.Random(1102)
    for seed in range(60):
        arr = SensorArray(tuple(sorted(rng.sample(range(200),
                                                  rng.randint(1, 24)))))
        scene = random_scene(rng.randint(1, 20), seed,
                             snr_db=rng.uniform(-10, 30))
        a = np.exp(2j * np.pi * np.outer(arr.positions,
                                         scene.normalized_doas))
        r = ((a * np.asarray(scene.powers)) @ a.conj().T
             + scene.noise_power * np.eye(len(arr)))
        assert np.array_equal(expected_covariance(arr, scene),
                              (r + r.conj().T) / 2.0)


def test_steering_vector_of_a_doa_tuple_stacks_the_scalar_calls(nfa):
    doas = (-0.5, -0.21, 0.0, 0.13, 0.4999)
    a = steering_vector(nfa, doas)
    assert a.shape == (len(nfa), len(doas))
    for col, theta in zip(a.T, doas):
        assert np.array_equal(col, steering_vector(nfa, theta))


# Found by a fixed-seed search over random arrays (pyrandom.Random(11),
# scene seeds 1 and 34): with numpy 2.4 on scipy-openblas 0.3.31 (x86_64),
# the unsymmetrized product (a * p) @ a^H + sigma^2 I has rounding-level
# imaginary parts on its diagonal for both, so the Toeplitz matrices built
# from it were not exactly Hermitian.
@pytest.mark.parametrize("positions, m, seed", [
    ((5, 6, 9, 11, 19, 28, 39), 3, 1),
    ((12, 15, 16, 20, 21, 25, 27, 28, 31, 34), 8, 34)])
def test_expected_covariance_takes_the_real_path(positions, m, seed):
    arr = SensorArray(positions)
    u = summarize(difference_coarray(arr)).max_sources
    scene = random_scene(m, seed, min_separation=0.02)
    r = expected_covariance(arr, scene)
    t = toeplitz_augment(coarray_autocorrelation(r, arr), (-u, u))
    assert np.array_equal(t, t.conj().T)
    assert np.array_equal(t, t[::-1, ::-1].conj())
    result = estimate_doas(arr, r, m)
    grid, spectrum = ref_music_spectrum(t, m, DEFAULT_GRID_SIZE)
    assert np.allclose(result.spectrum, spectrum, rtol=1e-5, atol=0)
    ref_peaks = pick_peaks(MusicResult(grid=grid, spectrum=spectrum), m)
    assert result.estimates == ref_peaks.estimates


@pytest.mark.parametrize("arr", _exactness_arrays(),
                         ids=lambda a: "%d-sensors" % len(a))
def test_estimate_doas_equals_the_public_chain(arr):
    # The benchmark's replay rebuilds each trial through the public chain
    # coarray_autocorrelation -> toeplitz_augment -> music_spectrum ->
    # pick_peaks; estimate_doas runs the same stages on a stack of one
    # covariance and must agree bit for bit.
    u = summarize(difference_coarray(arr)).max_sources
    m = max(1, u // 2)
    scene = SourceScene(tuple(np.linspace(-0.45, 0.45, m) + 0.003),
                        (1.0,) * m, 1.0)
    for seed in range(3):
        r = sample_covariance(simulate(arr, scene, 50, seed=seed))
        result = estimate_doas(arr, r, m)
        t = toeplitz_augment(coarray_autocorrelation(r, arr), (-u, u))
        chain = pick_peaks(music_spectrum(t, m), m)
        assert np.array_equal(result.spectrum, chain.spectrum)
        assert result.estimates == chain.estimates
        assert result.under_resolved == chain.under_resolved


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _columns():
    """Random complex columns with a real first entry for dims 1-12, 25 and
    181, some with zeros of either sign and exactly real or imaginary
    entries, which the real form must carry with their sign bits."""
    rng = np.random.default_rng(2025)
    for dim in list(range(1, 13)) + [25, 181]:
        col = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        col[0] = col[0].real
        yield "random-%d" % dim, col
        zeros = col.copy()
        zeros.real[1::3] = -0.0
        zeros.imag[2::3] = -0.0
        zeros.imag[1::4] = 0.0
        zeros[0] = -0.0
        yield "zeros-%d" % dim, zeros


@pytest.mark.parametrize("col", [pytest.param(col, id=name)
                                 for name, col in _columns()])
def test_stacked_real_form_is_each_matrix_real_form(col):
    # _toeplitz is the gather values[p - q + u] of the 2u + 1 values at lags
    # -u .. u, byte for byte.  Then a stack of one and a stack of two, whose
    # second first column flips the sign of every real part and of no
    # imaginary part: each row of the stacked _real_form(_toeplitz(...)) is
    # that of its column alone.
    u = len(col) - 1
    values = np.array([col[k] if k >= 0 else np.conj(col[-k])
                       for k in range(-u, u + 1)])
    idx = np.arange(u + 1)
    gathered = values[idx[:, None] - idx[None, :] + u]
    assert _toeplitz(col).shape == gathered.shape
    assert _toeplitz(col).tobytes() == gathered.tobytes()
    alone = _real_form(_toeplitz(col))
    _assert_same_bits(_real_form(_toeplitz(col[None]))[0], alone)
    cols = np.stack((col, -col.conj()))
    for s, c in zip(_real_form(_toeplitz(cols)), cols):
        _assert_same_bits(s, _real_form(_toeplitz(c)))


@pytest.mark.parametrize("col", [pytest.param(col, id=name)
                                 for name, col in _columns()])
def test_window_views_equal_sliding_windows_and_are_read_only(col):
    # _toeplitz and _sorted_rmse take their windows with one as_strided
    # call.  The reference is numpy's reversed sliding_window_view: the same
    # shape, strides and bytes, on one matrix and on stacks, read-only too.
    for stack in (col, np.stack((col, -col)),
                  np.stack((col, col.conj()))[None]):
        t = _toeplitz(stack)
        values = np.concatenate((stack[..., :0:-1].conj(), stack), axis=-1)
        windows = np.lib.stride_tricks.sliding_window_view(
            values, stack.shape[-1], axis=-1)[..., ::-1]
        assert (t.shape, t.strides) == (windows.shape, windows.strides)
        assert t.tobytes() == windows.tobytes()
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[..., 0, 0] = 1.0
    est = np.stack((col.real, col.imag)) / 8
    tru = np.sort(col.imag / 8)
    m = len(col)
    doubled = np.concatenate((np.sort(est), np.sort(est)), axis=1)
    d = np.lib.stride_tricks.sliding_window_view(
        doubled, m, axis=1)[:, m:0:-1] - tru
    d -= np.rint(d)
    best = np.argmin(np.sum(d ** 2, axis=2), axis=1)
    want = np.sqrt(np.mean(d[np.arange(len(d)), best] ** 2, axis=1))
    _assert_same_bits(_sorted_rmse(est, tru), want)


@pytest.mark.parametrize("shape", [(1, 7), (5, 6), (3, 13, 13)])
def test_one_bincount_sums_as_two_do(shape):
    # The bincounts over a stack's real and imaginary parts sum each bin of
    # each row in the same order as the bincounts over that row's real and
    # imaginary parts.
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.imag[..., ::3] = -0.0
    rows = x.reshape(shape[0], -1)
    index = rng.integers(0, 4, rows.shape[1])
    real, imag = doasim._row_sums(index, 6, x.real, x.imag)
    assert real.shape == imag.shape == (shape[0], 6)
    for row, row_real, row_imag in zip(rows, real, imag):
        assert np.array_equal(row_real, np.bincount(
            index, weights=row.real, minlength=6))
        assert np.array_equal(row_imag, np.bincount(
            index, weights=row.imag, minlength=6))


@pytest.mark.parametrize("r, m, t, trials", [(1, 24, 500, 5),
                                             (3, 60, 1000, 2)])
def test_trial_batch_equals_the_benchmark_replay(r, m, t, trials):
    # The benchmark replays every trial of run_trial_batch through the
    # public layers: simulate -> sample_covariance -> coarray_autocorrelation
    # -> toeplitz_augment -> music_spectrum -> pick_peaks, at the spawned
    # trial seeds.  Grid estimates must be equal, also at full capacity
    # (m = dim - 1 on the 12-sensor NFA), where the peaks depend on the
    # eigensolver's rounding; the first spectrum agrees to rounding.
    arr = make_sfa("nested", {"n": 6}, r)
    summary = summarize(difference_coarray(arr))
    rng = np.random.default_rng(r)
    doas = np.sort(np.linspace(-0.48, 0.48, m)
                   + rng.uniform(-0.004, 0.004, m))
    scene = SourceScene(tuple(doas), (1.0,) * m, 1.0)
    result = run_trial_batch(arr, scene, t, trials, seed=91)
    replayed = []
    for child in np.random.SeedSequence(91).spawn(trials):
        seed = np.random.default_rng(child).integers(2 ** 63)
        r_hat = sample_covariance(simulate(arr, scene, t, seed))
        ac = coarray_autocorrelation(r_hat, arr)
        spectrum = music_spectrum(toeplitz_augment(ac, summary.ula_segment),
                                  m)
        replayed.append(pick_peaks(spectrum, m))
    assert result.per_trial_estimates == tuple(p.estimates for p in replayed)
    assert np.allclose(result.first_trial.spectrum, replayed[0].spectrum,
                       rtol=0.0, atol=_SPECTRUM_ATOL)


def test_nested_list_covariance_gives_the_same_estimates(nfa):
    scene = SourceScene((-0.2, 0.1, 0.3), (1.0,) * 3, 0.5)
    r = sample_covariance(simulate(nfa, scene, 100, seed=5))
    listed_ac = coarray_autocorrelation(r.tolist(), nfa)
    ac = coarray_autocorrelation(r, nfa)
    assert listed_ac.keys() == ac.keys()
    assert all(np.array_equal(v, ac[k]) for k, v in listed_ac.items())
    listed = estimate_doas(nfa, r.tolist(), 3)
    assert listed.estimates == estimate_doas(nfa, r, 3).estimates


@pytest.mark.parametrize("shape", [(11, 11), (12,), (12, 13)])
@pytest.mark.parametrize("stage", ["coarray_autocorrelation",
                                   "estimate_doas"])
def test_covariance_of_the_wrong_shape_is_refused(nfa, stage, shape):
    r = np.ones(shape, dtype=complex)
    call = {"coarray_autocorrelation": lambda: coarray_autocorrelation(r, nfa),
            "estimate_doas": lambda: estimate_doas(nfa, r, 3)}[stage]
    with pytest.raises(InvalidParameterError, match="does not match 12"):
        call()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(4, 4), (2, 7)], ids=["diagonal",
                                                     "off-diagonal"])
@pytest.mark.parametrize("stage", ["coarray_autocorrelation",
                                   "estimate_doas"])
def test_non_finite_covariance_is_refused(nfa, stage, at, value):
    r = expected_covariance(nfa, SourceScene((-0.2, 0.1, 0.3), (1.0,) * 3,
                                             0.5))
    i, j = at
    r[i, j] = value
    r[j, i] = np.conj(value)
    call = {"coarray_autocorrelation": lambda: coarray_autocorrelation(r, nfa),
            "estimate_doas": lambda: estimate_doas(nfa, r, 3)}[stage]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="finite"):
            call()


def test_covariance_whose_lag_sums_overflow_is_refused(nfa):
    r = 1e308 * np.eye(12)
    with pytest.raises(InvalidParameterError, match="finite"):
        estimate_doas(nfa, r, 3)


def test_estimate_doas_refuses_an_imaginary_diagonal(nfa):
    scene = SourceScene((-0.2, 0.1, 0.3), (1.0,) * 3, 0.5)
    r = expected_covariance(nfa, scene)
    estimate_doas(nfa, r, 3)
    r[4, 4] += 1e-15j
    with pytest.raises(InvalidParameterError, match="Hermitian"):
        estimate_doas(nfa, r, 3)


# Each entry point and an input it takes: numbers that a cast to complex
# would read as they are from strings, as 0/1 from bools, or from objects.
_NUMERIC_INPUTS = {
    "coarray_autocorrelation": (np.eye(12) + 0.5,
                                lambda r, s: coarray_autocorrelation(r, s)),
    "estimate_doas": (np.eye(12) + 0.5, lambda r, s: estimate_doas(s, r, 3)),
    "sample_covariance": (np.arange(48.0).reshape(12, 4),
                          lambda y, s: sample_covariance(y)),
    "music_spectrum": (np.eye(25), lambda t, s: music_spectrum(t, 3)),
    "steering_vector": (np.array([[0.1, -0.2], [0.3, 0.05]]),
                        lambda theta, s: steering_vector(s, theta)),
}


def _with_bools(x):
    """x as nested lists with a bool and a numpy bool among its numbers,
    which np.asarray reads into a numeric dtype."""
    rows = x.tolist()
    rows[0][0], rows[-1][-1] = True, np.True_
    return rows


@pytest.mark.parametrize("kind", ["str", "bool", "object", "bools in lists"])
@pytest.mark.parametrize("stage", sorted(_NUMERIC_INPUTS))
def test_non_numeric_arrays_are_refused(nfa, stage, kind):
    # A string covariance was parsed, and a bool one, or a bool among the
    # numbers of a list, read as 0/1.
    x, call = _NUMERIC_INPUTS[stage]
    call(x, nfa)
    if kind == "bools in lists":
        bad, got = _with_bools(x), "a bool among them"
    else:
        bad = {"str": x.astype(str), "bool": x != 0,
               "object": x.astype(object)}[kind]
        got = "dtype %s" % re.escape(str(bad.dtype))
    with pytest.raises(InvalidParameterError,
                       match="array of numbers, got " + got):
        call(bad, nfa)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                   complex(1.0, np.inf)], ids=repr)
@pytest.mark.parametrize("form", [np.array, lambda y: y.tolist()],
                         ids=["array", "list"])
def test_sample_covariance_refuses_non_finite_snapshots(value, form):
    # A NaN snapshot gave a NaN covariance without a word.
    y = np.ones((3, 4), dtype=complex)
    y[1, 2] = value
    with pytest.raises(InvalidParameterError, match="snapshots must be finite"):
        sample_covariance(form(y))


_NFA = (1, 2, 3, 4, 8, 12, 14, 15, 16, 17, 21, 25)
_ARRAY_SCENE = SourceScene((-0.2, 0.1), (1.0, 1.0), 0.5)
_ARRAY_COVARIANCE = expected_covariance(SensorArray(_NFA), _ARRAY_SCENE)
# Each entry point that takes an array, as bytes and values to compare.
_ARRAY_CALLS = {
    "steering_vector": lambda s: steering_vector(s, (0.1, -0.2)).tobytes(),
    "expected_covariance":
        lambda s: expected_covariance(s, _ARRAY_SCENE).tobytes(),
    "simulate": lambda s: simulate(s, _ARRAY_SCENE, 20, seed=3).tobytes(),
    "coarray_autocorrelation": lambda s: np.array(list(
        coarray_autocorrelation(_ARRAY_COVARIANCE, s).items())).tobytes(),
    "estimate_doas": lambda s: (lambda r: (
        r.spectrum.tobytes(), r.estimates, r.refined))(
            estimate_doas(s, _ARRAY_COVARIANCE, 2)),
    "run_trial_batch": lambda s: (lambda b: (
        b, b.first_trial.spectrum.tobytes()))(
            run_trial_batch(s, _ARRAY_SCENE, 50, 3, seed=1)),
}


@pytest.mark.parametrize("form", [
    list, lambda p: tuple(map(np.int64, p)),
    lambda p: types.SimpleNamespace(positions=list(p))],
    ids=["list", "numpy ints", "object with list positions"])
@pytest.mark.parametrize("stage", sorted(_ARRAY_CALLS))
def test_array_argument_may_be_its_positions(stage, form):
    # A bare list raised AttributeError, and an object whose positions are a
    # list an unhashable-type TypeError in run_trial_batch.  Any form gives
    # the SensorArray call's output bit for bit.
    call = _ARRAY_CALLS[stage]
    assert call(form(_NFA)) == call(SensorArray(_NFA))


@pytest.mark.parametrize("positions", [
    _NFA[:-1] + (1.5,), _NFA[:-1] + (21,), (True,) + _NFA[1:],
    _NFA[:-1] + ("25",), (), None, 12, _NFA[:-1] + (2 ** 63,),
    (-2 ** 63 - 1,) + _NFA[1:]],
    ids=["float", "repeat", "bool", "str", "empty", "None", "int",
         "above int64", "below int64"])
@pytest.mark.parametrize("wrap", [lambda p: p,
                                  lambda p: types.SimpleNamespace(positions=p)],
                         ids=["bare", "object"])
@pytest.mark.parametrize("stage", sorted(_ARRAY_CALLS))
def test_array_argument_refuses_what_is_not_distinct_integers(stage, wrap,
                                                              positions):
    # simulate and expected_covariance took a position of 1.5 unchecked, and
    # steering_vector raised a bare TypeError on one outside int64.
    match = "distinct" if positions == _NFA[:-1] + (21,) else "integers"
    with pytest.raises(InvalidParameterError, match=match):
        _ARRAY_CALLS[stage](wrap(positions))


def test_array_positions_keep_their_given_order(nfa):
    # A covariance's rows follow the positions as given: shuffled positions
    # with the covariance shuffled alike give the same lag means and peaks,
    # to the rounding of the sums in another order.
    order = np.random.default_rng(0).permutation(12)
    shuffled = [nfa.positions[i] for i in order]
    scene = SourceScene((-0.3, -0.1, 0.05, 0.2), (1.0,) * 4, 0.1)
    r = sample_covariance(simulate(nfa, scene, 200, seed=4))
    moved = r[np.ix_(order, order)]
    assert np.allclose(expected_covariance(shuffled, scene),
                       expected_covariance(nfa, scene)[np.ix_(order, order)],
                       rtol=0.0, atol=1e-14)
    got = coarray_autocorrelation(moved, shuffled)
    want = coarray_autocorrelation(r, nfa)
    assert got.keys() == want.keys()
    assert np.allclose(list(got.values()), list(want.values()),
                       rtol=0.0, atol=1e-14)
    got, want = estimate_doas(shuffled, moved, 4), estimate_doas(nfa, r, 4)
    assert got.estimates == want.estimates
    assert np.allclose(got.refined, want.refined, rtol=0.0, atol=1e-12)


def test_trial_batch_never_reaches_the_dtype_check(nfa, monkeypatch):
    # The batch forms complex stacks itself and enters below the checked
    # entry points.
    scene = SourceScene((-0.2, 0.1, 0.3), (1.0,) * 3, 0.5)
    want = run_trial_batch(nfa, scene, 50, 4, seed=3)

    def refuse(x, what):
        raise AssertionError("the batch checked its %s" % what)

    monkeypatch.setattr(doasim, "_numeric", refuse)
    got = run_trial_batch(nfa, scene, 50, 4, seed=3)
    assert got.per_trial_refined == want.per_trial_refined
    assert got.rmse == want.rmse


def test_long_double_covariance_is_read_as_doubles(nfa):
    # np.bincount takes no long double weights; the lag means of such a
    # covariance are those of its values rounded to doubles.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    r = a @ a.conj().T
    for wide, narrow in [(r.astype(np.clongdouble), r), (r.real.astype(
            np.longdouble), r.real)]:
        got = coarray_autocorrelation(wide, nfa)
        want = coarray_autocorrelation(narrow, nfa)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == \
            np.array(list(want.values())).tobytes()


def test_autocorrelation_identity(nfa):
    ac = coarray_autocorrelation(np.eye(len(nfa)), nfa)
    assert np.isclose(ac[0], 1.0)
    assert all(np.isclose(v, 0.0) for k, v in ac.items() if k != 0)


def test_autocorrelation_conjugate_symmetry(nfa):
    batch = simulate(nfa, random_scene(5, seed=4), 200, seed=3)
    ac = coarray_autocorrelation(sample_covariance(batch), nfa)
    for k, v in ac.items():
        assert np.isclose(ac[-k], np.conj(v))


def test_autocorrelation_noiseless_single_source(nfa):
    scene = SourceScene((0.13,), (1.7,), 0.0)
    ac = coarray_autocorrelation(expected_covariance(nfa, scene), nfa)
    for k, v in ac.items():
        assert np.isclose(v, 1.7 * np.exp(2j * np.pi * k * 0.13))


def test_toeplitz_identity(nfa):
    ac = coarray_autocorrelation(np.eye(len(nfa)), nfa)
    t = toeplitz_augment(ac, (-24, 24))
    assert t.shape == (25, 25)
    assert np.allclose(t, np.eye(25))


def test_toeplitz_rank_one(nfa):
    scene = SourceScene((0.3,), (1.0,), 0.0)
    ac = coarray_autocorrelation(expected_covariance(nfa, scene), nfa)
    t = toeplitz_augment(ac, (-24, 24))
    a = np.exp(2j * np.pi * np.arange(25) * 0.3)
    assert np.allclose(t, np.outer(a, a.conj()))
    assert np.array_equal(t, t.conj().T)


def test_toeplitz_missing_lag_raises():
    with pytest.raises(CoarrayHoleError):
        toeplitz_augment({0: 1.0, 1: 0.1, -1: 0.1}, (-2, 2))
    with pytest.raises(InvalidParameterError):
        toeplitz_augment({0: 1.0}, (-1, 0))


def test_music_noiseless_peak_location(nfa):
    scene = SourceScene((0.2,), (1.0,), 0.0)
    ac = coarray_autocorrelation(expected_covariance(nfa, scene), nfa)
    t = toeplitz_augment(ac, (-24, 24))
    result = music_spectrum(t, 1, grid_size=4096)
    assert result.spectrum.max() == 1.0
    peak = result.grid[np.argmax(result.spectrum)]
    assert abs(peak - 0.2) <= 1.0 / 4096


def test_music_boundary_source_count():
    t = _random_hermitian_toeplitz(6, seed=0)
    result = music_spectrum(t, 5, grid_size=512)
    assert np.all(np.isfinite(result.spectrum))
    for m in (6, 7):
        with pytest.raises(InvalidParameterError, match="integer <= 5"):
            music_spectrum(t, m)


def test_pick_peaks_tie_determinism():
    grid = np.linspace(-0.5, 0.5, 9, endpoint=False)
    spec = np.array([0.1, 0.9, 0.1, 0.1, 0.9, 0.1, 0.2, 0.1, 0.1])
    picked = pick_peaks(MusicResult(grid=grid, spectrum=spec), 2)
    assert picked.estimates == (grid[1], grid[4])
    assert not picked.under_resolved


def test_pick_peaks_under_resolution():
    grid = np.linspace(-0.5, 0.5, 8, endpoint=False)
    spec = np.array([0.1, 0.9, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001])
    picked = pick_peaks(MusicResult(grid=grid, spectrum=spec), 3)
    assert picked.under_resolved
    assert len(picked.estimates) == 1
    # Symmetric neighbours: the refined estimate is the grid peak.
    assert picked.refined == picked.estimates == (grid[1],)
    flat = pick_peaks(MusicResult(grid=grid, spectrum=np.ones(8)), 2)
    assert flat.under_resolved and flat.estimates == flat.refined == ()


def test_pick_peaks_wraps_the_circular_grid():
    grid = np.linspace(-0.5, 0.5, 8, endpoint=False)
    spec = np.array([0.9, 0.1, 0.2, 0.1, 0.05, 0.3, 0.1, 0.8])
    picked = pick_peaks(MusicResult(grid=grid, spectrum=spec), 4)
    # grid[7] is not a maximum: its neighbour across the wrap is larger
    assert picked.estimates == (grid[0], grid[2], grid[5])
    assert picked.under_resolved
    assert pick_peaks(MusicResult(grid=grid, spectrum=spec[::-1]),
                      1).estimates == (grid[7],)


def test_pick_peaks_refined_shifts_by_hand():
    # With p = s[i - 1] / s[i] and q = s[i + 1] / s[i], the refined estimate
    # is (q - p) / (2 (p + q - 2 p q)) grid steps off the peak: 0 for equal
    # neighbours, and -0.25 steps for p = 0.5 and q = 0.25.
    grid = np.linspace(-0.5, 0.5, 8, endpoint=False)
    spec = np.array([0.1, 0.3, 0.9, 0.3, 0.1, 0.5, 1.0, 0.25])
    picked = pick_peaks(MusicResult(grid=grid, spectrum=spec), 2)
    assert picked.estimates == (grid[2], grid[6])
    assert picked.refined == (grid[2], grid[6] - 0.25 / 8)


def test_pick_peaks_refined_wraps_at_both_ends_of_the_grid():
    # A peak at index 0 whose wrapped left neighbour is the larger one moves
    # below -0.5 and is wrapped one turn up; a peak at index G - 1 reads
    # index 0 as its right neighbour.
    grid = np.linspace(-0.5, 0.5, 8, endpoint=False)
    spec = np.array([1.0, 0.25, 0.1, 0.05, 0.02, 0.05, 0.1, 0.5])
    first = pick_peaks(MusicResult(grid=grid, spectrum=spec), 1)
    assert first.estimates == (-0.5,)
    assert first.refined == (0.5 - 0.25 / 8,)
    last = pick_peaks(MusicResult(grid=grid, spectrum=spec[::-1]), 1)
    assert last.estimates == (grid[7],)
    assert last.refined == (grid[7] + 0.25 / 8,)


def test_pick_peaks_refines_on_the_grid_it_is_given(nfa):
    # The step and the wrap come from the grid, so the same spectrum on a
    # grid over [0, 1) or in degrees gives the same refined estimates, moved
    # or scaled with the grid.
    scene = SourceScene((-0.2, 0.1, 0.3, 0.4999), (1.0,) * 4, 0.0)
    result = estimate_doas(nfa, expected_covariance(nfa, scene), 4, 64)
    assert result.estimates[0] == -0.5 and result.refined[0] > 0.49
    for grid, turn in ((result.grid + 0.5, lambda x: (x + 0.5) % 1.0),
                       (result.grid * 360.0, lambda x: x * 360.0)):
        moved = pick_peaks(MusicResult(grid=grid, spectrum=result.spectrum),
                           4)
        assert moved.estimates == tuple(grid[np.searchsorted(
            result.grid, result.estimates)])
        assert np.allclose(moved.refined, turn(np.asarray(result.refined)),
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 5, 12, 25, 40])
def test_refined_estimates_stay_within_half_a_grid_step(dim):
    t = _random_hermitian_toeplitz(dim, seed=300 + dim)
    for grid_size in (64, 1024, DEFAULT_GRID_SIZE):
        for m in sorted({1, dim // 2, dim - 1}):
            picked = pick_peaks(music_spectrum(t, m, grid_size), m)
            assert len(picked.refined) == len(picked.estimates) > 0
            d = np.asarray(picked.refined) - np.asarray(picked.estimates)
            d -= np.rint(d)
            assert np.all(np.abs(d) < 0.5 / grid_size)
            assert all(-0.5 <= x < 0.5 for x in picked.refined)


@pytest.mark.parametrize("grid_size", [16, 4])
def test_pick_peaks_refuses_a_grid_of_another_length(grid_size):
    # On a 16-point grid the peak at index 1 of this 8-point spectrum was
    # reported at -0.4375, not at -0.375; a 4-point grid raised a bare
    # IndexError.
    spec = np.array([0.1, 0.9, 0.1, 0.2, 0.1, 0.3, 0.1, 0.05])
    grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    with pytest.raises(InvalidParameterError, match="one grid point"):
        pick_peaks(MusicResult(grid=grid, spectrum=spec), 2)


@pytest.mark.parametrize("value", [np.nan, -0.1])
def test_pick_peaks_refuses_a_nan_or_negative_spectrum(value):
    # A NaN is no local maximum and no neighbour's match, so it dropped the
    # peaks beside it without a word.
    grid = np.linspace(-0.5, 0.5, 8, endpoint=False)
    spec = np.array([0.1, 0.9, 0.1, 0.2, 0.1, 0.3, 0.1, 0.05])
    spec[2] = value
    with pytest.raises(InvalidParameterError,
                       match="finite" if np.isnan(value) else "non-negative"):
        pick_peaks(MusicResult(grid=grid, spectrum=spec), 2)


_SPEC8 = np.array([0.1, 0.9, 0.1, 0.2, 0.1, 0.3, 0.1, 0.05])
_GRID8 = np.linspace(-0.5, 0.5, 8, endpoint=False)


@pytest.mark.parametrize("grid, spec", [
    (np.empty(0), np.empty(0)), (_GRID8, _SPEC8 + 0j),
    (_GRID8 + 0j, _SPEC8), (_GRID8, _SPEC8 > 0.15),
    (np.array(list("abcdefgh")), _SPEC8), (_GRID8, _SPEC8.astype(object)),
    (np.full(8, np.nan), _SPEC8), (np.where(_GRID8 > 0, np.inf, _GRID8),
                                   _SPEC8),
    (_GRID8, np.where(_SPEC8 > 0.5, np.inf, _SPEC8)),
    (_GRID8, [True] + _SPEC8[1:].tolist()),
    (_GRID8.tolist()[:-1] + [np.True_], _SPEC8)],
    ids=["empty", "complex spectrum", "complex grid", "bool spectrum",
         "str grid", "object spectrum", "NaN grid", "infinite grid",
         "infinite spectrum", "bool in a spectrum list",
         "bool in a grid list"])
def test_pick_peaks_refuses_what_it_cannot_score(grid, spec):
    # An empty spectrum raised a bare IndexError, a complex one gave complex
    # refined estimates, a bool one numpy's TypeError, a str grid a bare
    # TypeError.  A NaN grid gave estimates of NaN, and a bool among the
    # numbers of a list was read as 1.
    with pytest.raises(InvalidParameterError):
        pick_peaks(MusicResult(grid=grid, spectrum=spec), 2)


@pytest.mark.parametrize("dim", [0, 1])
def test_music_spectrum_refuses_a_matrix_too_small_for_a_noise_subspace(dim):
    # This read "source count must be a positive integer <= 0, got 1".
    with pytest.raises(InvalidParameterError, match="too small"):
        music_spectrum(np.eye(dim, dtype=complex), 1)


def _adversarial_spectra(size, stride, seed):
    """A seeded g x size stack of non-negative spectra, as a view that
    takes every stride-th column of a wider array: smooth rows with many
    maxima, rows of a few levels (equal peak values and plateaus), a flat
    row, a single bump (fewer maxima than a full row) and rows that peak at
    column 0 and at column size - 1."""
    rng = np.random.default_rng(seed)
    base = np.empty((8, size * stride))
    x = np.arange(size * stride) / (size * stride)
    base[0] = 1.5 + np.sin(2 * np.pi * 5 * x + rng.uniform(0, 7))
    base[1] = rng.uniform(0.0, 1.0, size * stride)
    base[2] = rng.integers(0, 3, size * stride) / 2.0
    base[3] = rng.integers(0, 2, size * stride) * 0.5 + 0.25
    base[4] = 0.7
    base[5] = np.exp(-((x - rng.uniform(0, 1)) ** 2) * 50.0)
    base[6] = rng.uniform(0.0, 0.5, size * stride)
    base[6, 0] = 1.0
    base[7] = rng.uniform(0.0, 0.5, size * stride)
    base[7, -stride] = 1.0
    return base[:, ::stride]


@pytest.mark.parametrize("size", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("stride", [1, 3])
def test_stacked_peaks_equal_the_per_row_reference(size, stride):
    # _picked takes a whole stack of spectra at once; each row must come
    # out as the one-spectrum reference gives it, bit for bit and of the
    # same types: tuples of floats and a bool.
    grid = np.linspace(-0.5, 0.5, size, endpoint=False)
    for seed in range(4):
        spectra = _adversarial_spectra(size, stride, seed)
        for m in (1, 2, 5):
            estimates, refined, under = doasim._picked(grid, spectra, m)
            assert len(estimates) == len(refined) == len(under) == 8
            for i, spec in enumerate(spectra):
                want = ref_picked(grid, spec, m)
                got = (estimates[i], refined[i], under[i])
                assert [type(x) for x in got] == [tuple, tuple, bool]
                assert all(type(x) is float for x in got[0] + got[1])
                assert got[0] == want[0] and got[2] is want[2]
                _assert_same_bits(np.array(got[1]), np.array(want[1]))


def test_stacked_rmse_equals_the_per_row_reference():
    # One stacked circular RMSE scores a group's trials; each row must be
    # the one-trial RMSE bit for bit, also where the estimate of the source
    # at 0.4999 wraps to -0.4998, so that a cyclic shift beats the sorted
    # match.
    rng = np.random.default_rng(17)
    for m in (1, 2, 5, 24):
        tru = np.sort(rng.uniform(-0.5, 0.5, m))
        tru[-1] = 0.4999
        est = tru + rng.normal(0.0, 1e-3, (40, m))
        est[::3, -1] = -0.4998
        stacked = _sorted_rmse(est, tru)
        for row, got in zip(est, stacked):
            want = ref_rmse(row, tru)
            assert got == want == _sorted_rmse(row[None], tru)[0]


@pytest.mark.parametrize("r, m", [(1, 5), (1, 24), (3, 40)],
                         ids=["NFA12-5", "NFA12-24", "NFA48-40"])
def test_noiseless_off_grid_sources_are_recovered(r, m):
    # Sources 0.37 grid steps off the default grid: the grid peaks miss
    # them by that much, the refined estimates do not.
    arr = make_sfa("nested", {"n": 6}, r)
    grid = np.linspace(-0.5, 0.5, DEFAULT_GRID_SIZE, endpoint=False)
    doas = tuple(grid[7 + DEFAULT_GRID_SIZE * np.arange(m) // m]
                 + 0.37 / DEFAULT_GRID_SIZE)
    scene = SourceScene(doas, (1.0,) * m, 0.0)
    result = estimate_doas(arr, expected_covariance(arr, scene), m)
    assert not result.under_resolved
    assert ref_rmse(result.estimates, doas) > 0.3 / DEFAULT_GRID_SIZE
    assert ref_rmse(result.refined, doas) <= 1e-6


def test_refinement_at_clipped_nulls_warns_of_nothing():
    # Noiseless and on the grid, the MUSIC denominator of the 48-sensor NFA
    # is clipped at the smallest normal float at every source; 1 / spectrum
    # would overflow there, the neighbour ratios do not.
    arr = make_sfa("nested", {"n": 6}, 3)
    grid = np.linspace(-0.5, 0.5, DEFAULT_GRID_SIZE, endpoint=False)
    doas = tuple(grid[25 + 50 * np.arange(40)])
    scene = SourceScene(doas, (1.0,) * 40, 0.0)
    with warnings.catch_warnings(), \
            np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        result = estimate_doas(arr, expected_covariance(arr, scene), 40)
    assert ref_rmse(result.estimates, doas) == 0.0
    assert np.all(np.isfinite(result.refined))
    assert ref_rmse(result.refined, doas) <= 1e-6


def _resolves_two(nfa, separation, centre, grid_size):
    """Whether each refined estimate of two noiseless sources lies closer to
    its own source than half their separation."""
    doas = (centre - separation / 2, centre + separation / 2)
    scene = SourceScene(doas, (1.0, 1.0), 0.0)
    result = estimate_doas(nfa, expected_covariance(nfa, scene), 2,
                           grid_size)
    return bool(np.max(np.abs(np.sort(result.refined) - doas))
                < separation / 2)


@pytest.mark.parametrize("grid_size", [DEFAULT_GRID_SIZE, 8192])
def test_noiseless_two_source_resolution_limit(nfa, grid_size):
    # Two noiseless sources are told apart once a grid point falls between
    # their two MUSIC nulls.  That takes 1.4 grid steps when their midpoint
    # is a grid point and 2.25 when it is halfway between two, on any grid:
    # 1.1e-3 on the default grid, 2.7e-4 at 8192 points.
    step = 1.0 / grid_size
    on = np.linspace(-0.5, 0.5, grid_size, endpoint=False)[grid_size // 2
                                                          + 205]
    for phase in (0.0, 0.25, 0.5, 0.75):
        centre = on + phase * step
        assert _resolves_two(nfa, 2.3 * step, centre, grid_size)
        # random_scene's default separation.
        assert _resolves_two(nfa, 3.0 * step, centre, grid_size)
        assert not _resolves_two(nfa, 1.35 * step, centre, grid_size)
    assert _resolves_two(nfa, 1.45 * step, on, grid_size)
    assert not _resolves_two(nfa, 2.2 * step, on + 0.5 * step, grid_size)


def test_noiseless_source_on_the_first_grid_point_is_exact(nfa):
    for grid_size in (DEFAULT_GRID_SIZE, 8192):
        grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
        index = np.array([0, 2400, 4000, 5600, 7200]) * grid_size // 8192
        scene = SourceScene(tuple(grid[index]), (1.0,) * 5, 0.0)
        result = estimate_doas(nfa, expected_covariance(nfa, scene), 5,
                               grid_size)
        assert not result.under_resolved
        assert ref_rmse(result.estimates, scene.normalized_doas) == 0.0
        assert result.estimates[0] == -0.5


def test_estimate_doas_noiseless_multi(nfa):
    doas = (-0.35, -0.1, 0.05, 0.22, 0.4)
    scene = SourceScene(doas, (1.0,) * 5, 0.0)
    result = estimate_doas(nfa, expected_covariance(nfa, scene), 5,
                           grid_size=8192)
    assert not result.under_resolved
    assert np.max(np.abs(np.asarray(result.estimates) - doas)) <= 1.0 / 8192


def test_capacity_error(nfa):
    scene = random_scene(25, seed=0)
    with pytest.raises(CapacityError):
        run_trial_batch(nfa, scene, 100, 2, seed=1)


def test_trial_batch_deterministic(nfa):
    scene = random_scene(4, seed=6)
    a = run_trial_batch(nfa, scene, 200, 5, seed=99)
    b = run_trial_batch(nfa, scene, 200, 5, seed=99)
    assert a.rmse == b.rmse
    assert a.per_trial_rmse == b.per_trial_rmse


def test_trial_batch_keeps_first_trial(nfa):
    scene = random_scene(4, seed=6)
    result = run_trial_batch(nfa, scene, 200, 3, seed=99)
    first = result.first_trial
    assert first.estimates == result.per_trial_estimates[0]
    assert first.refined == result.per_trial_refined[0]
    assert first.spectrum.shape == first.grid.shape == (DEFAULT_GRID_SIZE,)
    seed = (np.random.default_rng(np.random.SeedSequence(99).spawn(1)[0])
            .integers(2 ** 63))
    # Bit for bit on the batch's own covariance draw; to rounding through
    # the snapshots of simulate.
    alone = estimate_doas(nfa, _batch_covariance(nfa, scene, 200, seed), 4)
    assert np.array_equal(first.spectrum, alone.spectrum)
    chain = estimate_doas(nfa, sample_covariance(simulate(nfa, scene, 200,
                                                          seed)), 4)
    assert first.estimates == chain.estimates
    assert np.allclose(first.spectrum, chain.spectrum, rtol=0.0,
                       atol=_SPECTRUM_ATOL)
    assert type(first.under_resolved) is bool


@pytest.mark.parametrize("grid_size", [DEFAULT_GRID_SIZE, 16])
def test_trial_batch_first_spectrum_owns_its_data(nfa, grid_size):
    # The first trial's spectrum is a row of its group's stack of spectra,
    # which on a 16-point grid is every 4th point of a 64-point DFT (dim
    # 25).  A view would keep the whole stack alive with the result.
    result = run_trial_batch(nfa, random_scene(4, seed=6), 200, 10, seed=99,
                             grid_size=grid_size)
    spectrum = result.first_trial.spectrum
    assert spectrum.base is None
    assert spectrum.shape == (grid_size,)


def test_trial_batch_rejects_bad_arguments(nfa):
    scene = random_scene(4, seed=6)
    with pytest.raises(InvalidParameterError):
        run_trial_batch(nfa, scene, 200, 0, seed=1)


def test_trial_batch_noiseless_on_grid_rmse_zero(nfa):
    for grid_size in (DEFAULT_GRID_SIZE, 8192):
        grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
        index = np.array([800, 2400, 4000, 5600, 7200]) * grid_size // 8192
        doas = tuple(grid[index])
        scene = SourceScene(doas, (1.0,) * 5, 0.0)
        result = estimate_doas(nfa, expected_covariance(nfa, scene), 5,
                               grid_size)
        assert not result.under_resolved
        assert ref_rmse(result.estimates, doas) == 0.0


def test_trial_batch_noiseless_on_grid_rmse_zero_48_sensors():
    # 40 sources on the 48-sensor NFA (dim 181), noiseless and on the grid.
    arr = make_sfa("nested", {"n": 6}, 3)
    for grid_size in (DEFAULT_GRID_SIZE, 8192):
        grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
        index = (100 + 200 * np.arange(40)) * grid_size // 8192
        scene = SourceScene(tuple(grid[index]), (1.0,) * 40, 0.0)
        result = estimate_doas(arr, expected_covariance(arr, scene), 40,
                               grid_size)
        assert not result.under_resolved
        assert ref_rmse(result.estimates, scene.normalized_doas) == 0.0


def test_trial_batch_rmse_wraps_around_the_circle(nfa):
    # The source just below 0.5 is picked at -0.5, less than one grid step
    # away on the circle; matched in linear sorted order it counted as an
    # error of almost 1 (RMSE 0.337).  Its refined estimate, below -0.5, is
    # wrapped one turn up, next to the source.
    scene = SourceScene((-0.2, 0.1, 0.49995), (1.0,) * 3, 0.0)
    for grid_size in (DEFAULT_GRID_SIZE, 8192):
        result = estimate_doas(nfa, expected_covariance(nfa, scene), 3,
                               grid_size)
        assert not result.under_resolved
        assert result.estimates[0] == -0.5
        assert ref_rmse(result.estimates, scene.normalized_doas) < 1 / grid_size
        assert 0.49 < result.refined[0] < 0.5
        assert ref_rmse(result.refined, scene.normalized_doas) < 1e-6


def test_trial_batch_rmse_against_linear_sorted_matching(nfa):
    # The circular RMSE of the refined estimates never exceeds the linear
    # sorted-order one, and it is the same number, bit for bit, when every
    # estimate lies within half the smallest circular gap between truths of
    # its own truth: then every other cyclic shift makes each error larger.
    checked = 0
    for scene_seed in range(6):
        scene = random_scene(6, seed=scene_seed)
        tru = np.sort(np.asarray(scene.normalized_doas))
        gap = np.min(np.diff(np.append(tru, tru[0] + 1.0)))
        result = run_trial_batch(nfa, scene, 100, 4, seed=scene_seed)
        for est, rmse in zip(result.per_trial_refined,
                             result.per_trial_rmse):
            if len(est) < len(tru):
                continue
            linear = np.sort(np.asarray(est)) - tru
            linear_rmse = float(np.sqrt(np.mean(linear ** 2)))
            assert rmse <= linear_rmse
            if np.max(np.abs(linear)) < gap / 2:
                assert rmse == linear_rmse
                checked += 1
    assert checked >= 12


def test_steering_unit_modulus_random_arrays():
    import random as pyrandom
    rng = pyrandom.Random(31)
    nprng = np.random.default_rng(31)
    for _ in range(100):
        size = rng.randint(1, 16)
        arr = SensorArray(tuple(sorted(rng.sample(range(64), size))))
        theta = float(nprng.uniform(-0.5, 0.5))
        assert np.allclose(np.abs(steering_vector(arr, theta)), 1.0)
        batch = simulate(arr, random_scene(2, seed=1), 8, seed=2)
        r = sample_covariance(batch)
        assert np.array_equal(r, r.conj().T)
        assert np.min(np.linalg.eigvalsh(r)) >= -1e-10
