"""Narrowband DOA simulation and coarray MUSIC.

Sources are uncorrelated circular complex Gaussians on a far-field
half-wavelength grid; directions are the normalized DOA
theta' = (d/lambda) sin(theta) in [-0.5, 0.5), a circular domain: 0.5
and -0.5 give the same steering vector.  The pipeline is:
snapshots -> sample covariance -> coarray autocorrelation -> Hermitian
Toeplitz augmentation on the central ULA segment -> MUSIC pseudospectrum
-> peak picking -> RMSE over Monte-Carlo trials.

Everything that depends only on the array (the ordered-pair lag index and
the coarray summary) or only on the grid size (the theta' grid) is
computed once and kept in small, bounded, read-only caches, so a
Monte-Carlo batch pays for it on its first trial.

The MUSIC denominator a(theta)^H E E^H a(theta) is a trigonometric
polynomial of degree dim - 1 in theta (the algebra of root-MUSIC,
Barabell 1983), so it is evaluated on the whole grid by one FFT of its
coefficients instead of a dim x grid_size steering-matrix product.

The augmented matrix is Hermitian Toeplitz, hence centro-Hermitian
(J conj(T) J = T with J the exchange matrix), and such a matrix is
unitarily similar to a real symmetric one (Lee, "Centrohermitian and
skew-centrohermitian matrices", LAA 1980; Huarng & Yeh, "A unitary
transformation method for angle-of-arrival estimation", IEEE TSP 1991).
So its noise subspace comes from a real eigendecomposition, about a third
of the cost of a complex one, mapped back by a sparse unitary matrix.  Every
covariance the pipeline forms is made exactly Hermitian, so every Toeplitz
matrix it builds is exactly centro-Hermitian, and this is the only
eigensolver path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import InvalidParameterError
from .coarray import CoarraySummary, difference_coarray, summarize

DEFAULT_GRID_SIZE = 8192
# Cache bounds.  A grid entry holds grid_size floats: 64 kB at 8192 points.
_PLAN_CACHE_SIZE = 32
_GRID_CACHE_SIZE = 4


class CoarrayHoleError(ValueError):
    """A lag inside the requested central segment has no sensor pair."""


class CapacityError(ValueError):
    """More sources requested than the coarray can support."""


@dataclass(frozen=True)
class SourceScene:
    """Normalized DOAs with per-source powers and a common noise power.

    DOAs lie in the half-open [-0.5, 0.5): the domain is circular, so 0.5
    would be a second name for -0.5.
    """

    normalized_doas: tuple
    powers: tuple
    noise_power: float

    def __post_init__(self):
        doas = tuple(float(t) for t in self.normalized_doas)
        powers = tuple(float(p) for p in self.powers)
        if len(doas) == 0 or len(doas) != len(powers):
            raise InvalidParameterError(
                "need matching, non-empty DOA and power lists")
        if any(not -0.5 <= t < 0.5 for t in doas):
            raise InvalidParameterError("normalized DOAs must lie in [-0.5, 0.5)")
        if len(set(doas)) != len(doas):
            raise InvalidParameterError("normalized DOAs must be distinct")
        noise = float(self.noise_power)
        if any(not 0 < p < np.inf for p in powers) or not 0 <= noise < np.inf:
            raise InvalidParameterError(
                "source powers must be positive and noise power non-negative, "
                "all finite")
        object.__setattr__(self, "normalized_doas", doas)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "noise_power", noise)

    @property
    def source_count(self):
        return len(self.normalized_doas)


def _check_grid_size(grid_size):
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 1:
        raise InvalidParameterError(
            "grid size must be a positive integer, got %r" % (grid_size,))


def random_scene(m, seed, snr_db=0.0, min_separation=None,
                 grid_size=DEFAULT_GRID_SIZE):
    """Equal-power random scene with a minimum DOA separation.

    The default separation of two grid steps keeps neighbouring sources
    from merging into one pseudospectrum peak.  SNR is per source against
    unit source power, so SNR 0 dB means sigma_i^2 = sigma^2 = 1.

    The separation holds on the circle: the last source and the first one,
    one turn on, are at least min_separation apart too, so m sources fit
    only when m * min_separation < 1.  The DOAs are drawn uniformly from
    the feasible sorted configurations starting in [-0.5, 0.5) without
    rejection: m sorted uniform draws from the slack
    1 - m * min_separation, the i-th shifted by i * min_separation.  This
    takes O(m log m) however tight the separation is.  The separation is
    padded, and the slack trimmed, by a few rounding errors, so that the
    rounded DOAs keep the separation and stay below 0.5; a separation
    within that margin of the limit is rejected as not fitting.
    """
    _check_grid_size(grid_size)
    if min_separation is None:
        min_separation = 2.0 / grid_size
    if m < 1 or not min_separation >= 0:
        raise InvalidParameterError(
            "need at least one source and a non-negative separation")
    pad = 4 * np.finfo(float).eps
    step = min_separation + pad
    slack = 1.0 - m * step - pad
    if not slack > 0.0:
        raise InvalidParameterError(
            "%d sources with separation %g do not fit in [-0.5, 0.5)"
            % (m, min_separation))
    rng = np.random.default_rng(seed)
    gaps = np.sort(rng.uniform(0.0, slack, m))
    doas = -0.5 + gaps + np.arange(m) * step
    try:
        noise = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise InvalidParameterError(
            "SNR %g dB gives a noise power too large for a float"
            % snr_db) from None
    return SourceScene(tuple(doas), (1.0,) * m, noise)


@dataclass(frozen=True)
class SnapshotBatch:
    """Complex |S| x T sensor-output matrix from one simulation run."""

    data: np.ndarray
    seed: int


@dataclass(frozen=True)
class MusicResult:
    """Pseudospectrum over the theta' grid with picked peaks."""

    grid: np.ndarray
    spectrum: np.ndarray
    estimates: tuple = ()
    under_resolved: bool = False


def steering_vector(s, theta_norm):
    """Unit-modulus steering vector exp(2 pi j n theta') over the sensors."""
    return np.exp(2j * np.pi * np.asarray(s.positions) * theta_norm)


def _steering_matrix(positions, thetas):
    return np.exp(2j * np.pi * np.outer(positions, np.asarray(thetas)))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid(grid_size):
    """The theta' grid over [-0.5, 0.5), read-only."""
    grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    grid.flags.writeable = False
    return grid


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def simulate(s, scene, t, seed):
    """Draw T snapshots of the narrowband model Y = A S + N.

    Source waveforms and noise are zero-mean circular complex Gaussians
    with variances sigma_i^2 and sigma^2.  Deterministic for a given seed.
    """
    if t < 1:
        raise InvalidParameterError("need at least one snapshot")
    rng = np.random.default_rng(seed)
    pos = np.asarray(s.positions)
    a = _steering_matrix(pos, scene.normalized_doas)
    amp = np.sqrt(np.asarray(scene.powers))[:, None]
    signals = amp * _complex_gaussian(rng, (scene.source_count, t))
    noise = np.sqrt(scene.noise_power) * _complex_gaussian(rng, (len(pos), t))
    return SnapshotBatch(data=a @ signals + noise, seed=seed)


def sample_covariance(b):
    """R' = Y Y^H / T, forced exactly Hermitian."""
    r = b.data @ b.data.conj().T / b.data.shape[1]
    return (r + r.conj().T) / 2.0


def expected_covariance(s, scene):
    """Infinite-snapshot covariance: sum of sigma_i^2 a a^H plus sigma^2 I,
    forced exactly Hermitian."""
    pos = np.asarray(s.positions)
    a = _steering_matrix(pos, scene.normalized_doas)
    r = ((a * np.asarray(scene.powers)) @ a.conj().T
         + scene.noise_power * np.eye(len(pos)))
    return (r + r.conj().T) / 2.0


@dataclass(frozen=True)
class _CoarrayPlan:
    """Per-array data shared by every trial: the sorted coarray lags, their
    ordered-pair counts, the index into ``lags`` of each ordered pair
    (i, j) in row-major order, and the coarray summary."""

    lags: tuple
    counts: np.ndarray
    pair_lags: np.ndarray
    summary: CoarraySummary


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _coarray_plan(positions):
    coarray = difference_coarray(positions)
    counts = np.array([coarray.weights[k] for k in coarray.lags])
    p = np.asarray(positions)
    pair_lags = np.searchsorted(coarray.lags,
                                (p[:, None] - p[None, :]).ravel())
    for a in (counts, pair_lags):
        a.flags.writeable = False
    return _CoarrayPlan(lags=coarray.lags, counts=counts, pair_lags=pair_lags,
                        summary=summarize(coarray))


def _capacity_summary(s, m):
    """The coarray summary of s, after checking that it supports m sources."""
    summary = _coarray_plan(s.positions).summary
    if m > summary.max_sources:
        raise CapacityError(
            "%d sources exceed the coarray capacity of %d"
            % (m, summary.max_sources))
    return summary


def coarray_autocorrelation(r, s):
    """Average covariance entries over all sensor pairs at each lag.

    Returns a lag -> complex map on the full difference coarray.  Averaging
    with the weight function keeps conjugate symmetry exact for Hermitian
    input.  The sums run over the pairs in row-major order, real and
    imaginary parts separately.
    """
    n = len(s.positions)
    if r.shape != (n, n):
        raise InvalidParameterError(
            "covariance shape %s does not match %d sensors" % (r.shape, n))
    plan = _coarray_plan(s.positions)
    size = len(plan.lags)
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(plan.pair_lags, weights=r.real.ravel(),
                            minlength=size)
    sums.imag = np.bincount(plan.pair_lags, weights=r.imag.ravel(),
                            minlength=size)
    return dict(zip(plan.lags, sums / plan.counts))


def toeplitz_augment(ac, ula_segment):
    """(u+1) x (u+1) Hermitian Toeplitz matrix T[p, q] = ac(p - q).

    ``ula_segment`` is the symmetric interval (-u, u); every lag in it must
    be present in the autocorrelation map.
    """
    lo, hi = ula_segment
    if lo != -hi or hi < 0:
        raise InvalidParameterError(
            "central segment must be symmetric about 0, got %s" % (ula_segment,))
    u = hi
    missing = [k for k in range(-u, u + 1) if k not in ac]
    if missing:
        raise CoarrayHoleError(
            "lags %s missing from the central segment [-%d, %d]"
            % (missing, u, u))
    col = np.array([ac[k] for k in range(0, u + 1)], dtype=complex)
    # values[u + k] is ac(k) for k >= 0 and conj(ac(-k)) for k < 0.
    values = np.concatenate((col[:0:-1].conj(), col))
    idx = np.arange(u + 1)
    return values[idx[:, None] - idx[None, :] + u]


def _real_form(t):
    """The real symmetric S = Q^H t Q of a centro-Hermitian t, in O(dim^2).

    With n = dim, k = n // 2, I and J the k x k identity and exchange
    matrices, Q is the unitary (1/sqrt 2) [[I, jI], [J, -jJ]] for even n,
    and for odd n the same with a middle row and column that are zero
    except for a 1 where they cross.  From the top-half blocks
    A = t[:k, :k] and BJ = t[:k, n-k:] J,
    S = [[Re A + Re BJ, Im BJ - Im A], [Im A + Im BJ, Re A - Re BJ]], and
    for odd n the middle row and column are sqrt 2 Re and sqrt 2 Im of
    t[:k, k], crossing at Re t[k, k].
    """
    n = t.shape[0]
    k = n // 2
    a = t[:k, :k]
    bj = t[:k, n - k:][:, ::-1]
    s = np.empty((n, n))
    s[:k, :k] = a.real + bj.real
    s[:k, n - k:] = bj.imag - a.imag
    s[n - k:, :k] = a.imag + bj.imag
    s[n - k:, n - k:] = a.real - bj.real
    if n % 2:
        mid = np.sqrt(2.0) * t[:k, k]
        s[:k, k] = s[k, :k] = mid.real
        s[n - k:, k] = s[k, n - k:] = mid.imag
        s[k, k] = t[k, k].real
    return s


def _from_real_form(v):
    """Q v for real v, with the Q of _real_form, in O(dim * columns)."""
    n = v.shape[0]
    k = n // 2
    top = (v[:k] + 1j * v[n - k:]) * np.sqrt(0.5)
    e = np.empty(v.shape, dtype=complex)
    e[:k] = top
    if n % 2:
        e[k] = v[k]
    e[n - k:] = top[::-1].conj()
    return e


def music_spectrum(t, m, grid_size=DEFAULT_GRID_SIZE):
    """MUSIC pseudospectrum of a centro-Hermitian matrix with m signal
    dimensions.

    The noise subspace is spanned by the eigenvectors E of the dim - m
    smallest eigenvalues; the spectrum is normalized to peak at 1 on a
    uniform theta' grid over [-0.5, 0.5).

    t must be exactly Hermitian and exactly persymmetric, t[::-1, ::-1]
    equal to conj(t), as every matrix toeplitz_augment builds from a
    Hermitian covariance is; any other t is refused.  Such a t has the same
    eigenvalues as the real symmetric S = Q^H t Q of _real_form, and
    eigenvectors Q V for the eigenvectors V of S (Lee 1980; Huarng & Yeh
    1991).  So E comes from a real eigh of S, about a third of the work
    of a complex eigh of t.

    With P = E E^H and c_k the sum of P's k-th subdiagonal, the denominator
    a(theta)^H P a(theta) is c_0 + 2 Re sum_{k>0} c_k exp(-2 pi j k theta).
    On grid point g, theta = -0.5 + g / grid_size, so it is the real part
    of the length-grid_size DFT of h_0 = c_0, h_k = 2 (-1)^k c_k.  Folding
    h modulo grid_size first makes this exact for any grid size, including
    one smaller than dim.
    """
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidParameterError(
            "need a square matrix, got shape %s" % (t.shape,))
    dim = t.shape[0]
    if not 1 <= m < dim:
        raise InvalidParameterError(
            "need 1 <= sources < matrix dimension, got m=%d, dim=%d"
            % (m, dim))
    _check_grid_size(grid_size)
    if not (np.array_equal(t, t.conj().T)
            and np.array_equal(t, t[::-1, ::-1].conj())):
        raise InvalidParameterError(
            "need an exactly Hermitian, persymmetric matrix")
    _, vecs = np.linalg.eigh(_real_form(t))
    noise = _from_real_form(vecs[:, :dim - m])
    proj = noise @ noise.conj().T
    # Diagonal index p - q of each entry (p, q), offset to start at 0; the
    # subdiagonal sums c_k (k >= 0) are the upper half of the bins.
    idx = np.arange(dim)
    diag = (idx[:, None] - idx[None, :] + (dim - 1)).ravel()
    h = np.empty(dim, dtype=complex)
    h.real = np.bincount(diag, weights=proj.real.ravel())[dim - 1:]
    h.imag = np.bincount(diag, weights=proj.imag.ravel())[dim - 1:]
    h[1:] *= 2.0
    h[1::2] *= -1.0
    bins = idx % grid_size
    folded = np.empty(grid_size, dtype=complex)
    folded.real = np.bincount(bins, weights=h.real, minlength=grid_size)
    folded.imag = np.bincount(bins, weights=h.imag, minlength=grid_size)
    denom = np.fft.fft(folded).real
    spectrum = 1.0 / np.maximum(denom, np.finfo(float).tiny)
    spectrum = spectrum / spectrum.max()
    return MusicResult(grid=_grid(grid_size), spectrum=spectrum)


def pick_peaks(result, m):
    """The m largest strict local maxima of the grid spectrum.

    The grid is circular, like the theta' domain: the first and last points
    are neighbours, so a peak on either end is found.  Fewer than m maxima
    is flagged as under-resolution rather than raised; ties are broken by
    grid index so the output is deterministic.
    """
    spec = result.spectrum
    ring = np.concatenate((spec[-1:], spec, spec[:1]))
    maxima = np.flatnonzero((spec > ring[:-2]) & (spec > ring[2:]))
    order = np.argsort(spec[maxima], kind="stable")[::-1]
    chosen = np.sort(maxima[order[:m]])
    estimates = tuple(result.grid[chosen])
    under = len(chosen) < m
    return MusicResult(grid=result.grid, spectrum=spec,
                       estimates=estimates, under_resolved=under)


def estimate_doas(s, r, m, grid_size=DEFAULT_GRID_SIZE):
    """Full coarray-MUSIC pass from a covariance matrix to DOA estimates."""
    summary = _capacity_summary(s, m)
    ac = coarray_autocorrelation(r, s)
    t = toeplitz_augment(ac, summary.ula_segment)
    return pick_peaks(music_spectrum(t, m, grid_size), m)


def _rmse(estimates, truths):
    """RMSE on the circle [-0.5, 0.5): the sorted estimates are matched to
    the sorted truths under the cyclic shift with the least squared error,
    and each difference is wrapped to the nearest turn.  Wrapping leaves a
    difference below 0.5 in size unchanged, so when the unshifted match is
    best the result is the linear sorted-order RMSE bit for bit."""
    est = np.sort(np.asarray(estimates))
    tru = np.sort(np.asarray(truths))
    m = len(est)
    # Row s matches est rolled by s places to the sorted truths.
    shifts = (np.arange(m) - np.arange(m)[:, None]) % m
    d = est[shifts] - tru
    d -= np.rint(d)
    best = int(np.argmin(np.sum(d ** 2, axis=1)))
    return float(np.sqrt(np.mean(d[best] ** 2)))


@dataclass(frozen=True)
class TrialBatchResult:
    """Aggregate Monte-Carlo outcome for one array/scene configuration.

    ``first_trial`` is trial 0's full MusicResult (spectrum and picked
    peaks); only that one spectrum is kept.
    """

    rmse: float
    per_trial_rmse: tuple
    per_trial_estimates: tuple
    resolved_trials: int
    trials: int
    seed: int
    first_trial: MusicResult = field(default=None, compare=False, repr=False)

    @property
    def resolved_fraction(self):
        return self.resolved_trials / self.trials


def run_trial_batch(s, scene, t, trials, seed, grid_size=DEFAULT_GRID_SIZE,
                    covariance="sample"):
    """Repeat simulate -> coarray MUSIC over independent trials.

    Per-trial seeds are spawned deterministically from the batch seed, so
    the result does not depend on evaluation order.  The aggregate RMSE
    pools squared errors of all resolved trials, with estimates matched to
    the truth in sorted order around the circle (the cyclic shift with the
    least error) and errors wrapped to the nearest turn.
    ``covariance="expected"`` bypasses the snapshot simulation and uses
    the exact model covariance (a noiseless sanity path); its trials are
    all alike, so the coarray-MUSIC pass runs once and every trial reports
    its result.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    if covariance not in ("sample", "expected"):
        raise InvalidParameterError(
            "covariance must be 'sample' or 'expected', got %r" % (covariance,))
    m = scene.source_count
    _capacity_summary(s, m)

    def sample_trial(child):
        batch = simulate(s, scene, t,
                         np.random.default_rng(child).integers(2 ** 63))
        return estimate_doas(s, sample_covariance(batch), m, grid_size)

    if covariance == "expected":
        # Every trial sees the same exact covariance: one pass serves all.
        results = [estimate_doas(s, expected_covariance(s, scene), m,
                                 grid_size)] * trials
    else:
        results = map(sample_trial,
                      np.random.SeedSequence(seed).spawn(trials))
    per_rmse = []
    per_est = []
    resolved = 0
    pooled_sq = []
    first = None
    for result in results:
        if first is None:
            first = result
        per_est.append(result.estimates)
        if result.under_resolved:
            per_rmse.append(float("inf"))
            continue
        resolved += 1
        trial_rmse = _rmse(result.estimates, scene.normalized_doas)
        per_rmse.append(trial_rmse)
        pooled_sq.append(trial_rmse ** 2)
    rmse = float(np.sqrt(np.mean(pooled_sq))) if pooled_sq else float("inf")
    return TrialBatchResult(rmse=rmse,
                            per_trial_rmse=tuple(per_rmse),
                            per_trial_estimates=tuple(per_est),
                            resolved_trials=resolved,
                            trials=trials,
                            seed=seed,
                            first_trial=first)
