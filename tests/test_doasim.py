import random as pyrandom
import threading
import time
import warnings

import numpy as np
import pytest

from fractalarrays.coarray import difference_coarray, summarize
from fractalarrays import doasim
from fractalarrays.doasim import (DEFAULT_GRID_SIZE, CapacityError,
                                  CoarrayHoleError, MusicResult, SourceScene,
                                  _coarray_plan, _real_form, _rmse,
                                  _sorted_rmse, _toeplitz,
                                  _toeplitz_index,
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
    # The plan reads its lags, counts and summary from difference_coarray
    # and adds the ordered-pair bins, interleaved from np.unique's inverse
    # over the row-major position differences.
    plan = _coarray_plan(arr.positions)
    p = np.asarray(arr.positions)
    lags, inverse, counts = np.unique((p[:, None] - p[None, :]).ravel(),
                                      return_inverse=True,
                                      return_counts=True)
    assert np.array_equal(plan.lags, lags)
    assert np.array_equal(plan.counts, counts)
    assert np.array_equal(plan.pair_bins[0::2], 2 * inverse)
    assert np.array_equal(plan.pair_bins[1::2], 2 * inverse + 1)
    assert plan.summary == summarize(difference_coarray(arr))
    assert plan.lags[plan.zero] == 0


def test_toeplitz_real_autocorrelation_is_complex():
    t = toeplitz_augment({-1: 0.5, 0: 2.0, 1: 0.5}, (-1, 1))
    assert t.dtype == complex
    assert np.array_equal(t, ref_toeplitz_augment({0: 2.0, 1: 0.5}, (-1, 1)))


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


def test_steering_nfa_entry(nfa):
    a = steering_vector(nfa, 0.1)
    idx = nfa.positions.index(25)
    assert np.allclose(a[idx], np.exp(2j * np.pi * 2.5))
    assert np.allclose(np.abs(a), 1.0)


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


def test_snapshot_moments_match_the_model(nfa):
    # R-hat over K = 2000 draws of T = 50 snapshots each.  Its entries are
    # unbiased, E R-hat = R, and for circular Gaussian snapshots
    # E|R-hat_ij - R_ij|^2 = R_ii R_jj / T exactly.  Tolerances: each
    # entry's mean within 5 standard errors sqrt(R_ii R_jj / (T K)), and
    # each entry's mean squared error within 15% of R_ii R_jj / T (at
    # least 4.7 standard errors of that mean at K = 2000).
    scene = random_scene(4, seed=1212, snr_db=0.0)
    t, k = 50, 2000
    r = expected_covariance(nfa, scene)
    draws = np.array([sample_covariance(simulate(nfa, scene, t, seed))
                      for seed in range(k)])
    var = np.outer(np.diag(r).real, np.diag(r).real) / t
    mean_err = np.abs(draws.mean(axis=0) - r)
    assert np.all(mean_err < 5 * np.sqrt(var / k))
    mse = np.mean(np.abs(draws - r) ** 2, axis=0)
    assert np.all(np.abs(mse / var - 1) < 0.15)


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


@pytest.mark.parametrize("r, m, t, trials", [
    (1, 8, 200, 4), (3, 40, 300, 2),
    # Across group boundaries: 52 trials a group at dim 25, so the last
    # group holds 3; 8 at dim 64, so 19 trials are two full groups and 3.
    (1, 8, 200, 55), (2, 20, 200, 19)])
def test_trial_batch_equals_the_step_by_step_chain(r, m, t, trials):
    # The benchmark replays each trial as simulate -> sample_covariance ->
    # estimate_doas at the spawned trial seed; run_trial_batch, which
    # factors the model covariance once per batch and runs the MUSIC stages
    # on groups of trials, must give the same estimates, refined estimates,
    # RMSEs (of the refined estimates) and first spectrum bit for bit.
    arr = make_sfa("nested", {"n": 6}, r)
    scene = random_scene(m, seed=40 + r, min_separation=0.01)
    result = run_trial_batch(arr, scene, t, trials, seed=77)
    chain = []
    for child in np.random.SeedSequence(77).spawn(trials):
        seed = np.random.default_rng(child).integers(2 ** 63)
        r_hat = sample_covariance(simulate(arr, scene, t, seed))
        chain.append(estimate_doas(arr, r_hat, m))
    tru = np.sort(scene.normalized_doas)
    rmse = [float("inf") if c.under_resolved else _sorted_rmse(c.refined,
                                                                tru)
            for c in chain]
    pooled = [e ** 2 for e in rmse if e < float("inf")]
    assert result.per_trial_estimates == tuple(c.estimates for c in chain)
    assert result.per_trial_refined == tuple(c.refined for c in chain)
    assert result.per_trial_rmse == tuple(rmse)
    assert result.rmse == float(np.sqrt(np.mean(pooled)))
    assert np.array_equal(result.first_trial.spectrum, chain[0].spectrum)


@pytest.mark.parametrize("r, m, g", [(1, 24, 5), (3, 60, 3)],
                         ids=["dim-25", "dim-181"])
def test_stacked_stages_equal_estimate_doas_on_each_covariance(r, m, g):
    # Every row of a stack, not only the first, comes out of the stacked
    # lag means, gather, eigh and projector product as estimate_doas gives
    # it on that covariance alone.
    arr = make_sfa("nested", {"n": 6}, r)
    scene = random_scene(m, seed=r, min_separation=0.5 / m)
    stack = np.stack([sample_covariance(simulate(arr, scene, 300, seed))
                      for seed in range(g)])
    stacked = list(doasim._estimates(arr, stack, m, DEFAULT_GRID_SIZE))
    assert len(stacked) == g
    for row, r_hat in zip(stacked, stack):
        alone = estimate_doas(arr, r_hat, m)
        assert np.array_equal(row.spectrum, alone.spectrum)
        assert row.estimates == alone.estimates
        _assert_same_bits(np.array(row.refined), np.array(alone.refined))
        assert row.under_resolved == alone.under_resolved


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
    # A stack of one and a stack of two, whose second first column flips
    # the sign of every real part and of no imaginary part: each row of the
    # stacked _real_form(_toeplitz(...)) is that of its column alone.
    index = _toeplitz_index(len(col) - 1)
    alone = _real_form(_toeplitz(col, index))
    _assert_same_bits(_real_form(_toeplitz(col[None], index))[0], alone)
    cols = np.stack((col, -col.conj()))
    for s, c in zip(_real_form(_toeplitz(cols, index)), cols):
        _assert_same_bits(s, _real_form(_toeplitz(c, index)))


@pytest.mark.parametrize("shape", [(1, 7), (5, 6), (3, 13, 13)])
def test_one_bincount_sums_as_two_do(shape):
    # One bincount over the float view of a stack sums each bin of each row
    # in the same order as the bincounts over that row's real and imaginary
    # parts.
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.imag[..., ::3] = -0.0
    rows = x.reshape(shape[0], -1)
    index = rng.integers(0, 4, rows.shape[1])
    sums = doasim._complex_bincount(doasim._interleaved(index), x, 6)
    assert sums.shape == (shape[0], 6)
    for row, row_sums in zip(rows, sums):
        assert np.array_equal(row_sums.real, np.bincount(
            index, weights=row.real, minlength=6))
        assert np.array_equal(row_sums.imag, np.bincount(
            index, weights=row.imag, minlength=6))


@pytest.mark.parametrize("r, m, t, trials", [(1, 24, 500, 5),
                                             (3, 60, 1000, 2)])
def test_trial_batch_equals_the_benchmark_replay(r, m, t, trials):
    # The benchmark replays every trial of run_trial_batch through the
    # public layers: simulate -> sample_covariance -> coarray_autocorrelation
    # -> toeplitz_augment -> music_spectrum -> pick_peaks, at the spawned
    # trial seeds.  Estimates and the first spectrum must agree bit for bit,
    # also at full capacity (m = dim - 1 on the 12-sensor NFA), where the
    # peaks depend on the eigensolver's rounding.
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
    assert np.array_equal(result.first_trial.spectrum, replayed[0].spectrum)


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
    with pytest.raises(InvalidParameterError, match="non-negative"):
        pick_peaks(MusicResult(grid=grid, spectrum=spec), 2)


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
    assert _rmse(result.estimates, doas) > 0.3 / DEFAULT_GRID_SIZE
    assert _rmse(result.refined, doas) <= 1e-6


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
    assert _rmse(result.estimates, doas) == 0.0
    assert np.all(np.isfinite(result.refined))
    assert _rmse(result.refined, doas) <= 1e-6


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
        assert _rmse(result.estimates, scene.normalized_doas) == 0.0
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
    r = sample_covariance(simulate(
        nfa, scene, 200,
        np.random.default_rng(np.random.SeedSequence(99).spawn(1)[0])
        .integers(2 ** 63)))
    alone = estimate_doas(nfa, r, 4)
    assert np.array_equal(first.spectrum, alone.spectrum)


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
        assert _rmse(result.estimates, doas) == 0.0


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
        assert _rmse(result.estimates, scene.normalized_doas) == 0.0


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
        assert _rmse(result.estimates, scene.normalized_doas) < 1 / grid_size
        assert 0.49 < result.refined[0] < 0.5
        assert _rmse(result.refined, scene.normalized_doas) < 1e-6


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
