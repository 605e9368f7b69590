"""Narrowband DOA simulation and coarray MUSIC.

Sources are uncorrelated circular complex Gaussians on a far-field
half-wavelength grid; directions are the normalized DOA
theta' = (d/lambda) sin(theta) in [-0.5, 0.5), a circular domain: 0.5
and -0.5 give the same steering vector.  The pipeline is:
snapshots -> sample covariance -> coarray autocorrelation -> Hermitian
Toeplitz augmentation on the central ULA segment -> MUSIC pseudospectrum
-> peak picking -> RMSE over Monte-Carlo trials.  Snapshots are a plain
complex N x T array, so measured data enters at sample_covariance as it
is.  The noiseless, infinite-snapshot check is the same pass on the model
covariance: estimate_doas(s, expected_covariance(s, scene), m).

The snapshots Y = A S + N, with Gaussian waveforms S and noise N, have
i.i.d. CN(0, R) columns, R = A P A^H + sigma^2 I the model covariance.  They
are drawn in that law directly as Y = F Z, with F F^H = R / 2 from one
eigendecomposition of R and Z an N x T matrix of complex numbers whose real
and imaginary parts are standard normals: 2 N T normals instead of the
2 (M + N) T of drawing S and N.  A Monte-Carlo batch factors R once and
draws every trial from the same F.

Everything that depends only on the array (the coarray plan: the
ordered-pair lag bins and the coarray summary) or only on a size (the
theta' grid, the diagonal bins of a dim x dim matrix, the gather index of
the real form, the folding bins of a grid and the cyclic shifts of the
RMSE) is computed once and kept in small, bounded, read-only caches, so a
Monte-Carlo batch pays for it on its first trial.  Every complex sum is one
np.bincount over the float view of its terms.  estimate_doas goes from the
covariance to the lag means, and from the lag means of the central
segment straight to the real symmetric form of the Toeplitz matrix
(below) by one gather, without forming the complex matrix.  The public
coarray_autocorrelation -> toeplitz_augment -> music_spectrum chain forms
it and gives the same spectrum and estimates bit for bit.

These stages run on a stack of covariances: estimate_doas on a stack of
one, run_trial_batch on groups of max(1, _GROUP_ENTRIES // dim**2)
consecutive trials (52 at dim 25, one at dim 181), each drawn alone.  Per
group the lag means, the real forms, eigh, the projectors and their
diagonal sums run once; the fold, FFT, peaks and RMSE run per trial, so no
8192-point spectra are stacked.  Every sum keeps its terms and their
order, so the estimates are bit for bit those of a trial alone.

The MUSIC denominator a(theta)^H E E^H a(theta) is a real trigonometric
polynomial of degree dim - 1 in theta (the algebra of root-MUSIC,
Barabell 1983), so it is evaluated on the whole grid by one half-length
Hermitian FFT (np.fft.hfft) of its coefficients instead of a
dim x grid_size steering-matrix product; only the half of the folded
coefficient sequence that hfft reads is summed.

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

from .geometry import InvalidParameterError, _check_count
from .coarray import CoarraySummary, difference_coarray, summarize

DEFAULT_GRID_SIZE = 8192
# Cache bounds.  A grid entry holds grid_size floats: 64 kB at 8192 points.
# The per-dim entries at dim 181: the diagonal bins hold 3 dim (dim + 1) / 2
# integers (393 kB) and the real-form gather 2 dim**2 (512 kB); a folding
# entry holds at most 3 (2 dim - 1) integers (9 kB), and a shift entry m**2
# (29 kB at m = 60).
_PLAN_CACHE_SIZE = 32
_GRID_CACHE_SIZE = 4
_DIAGONAL_CACHE_SIZE = 4
_SHIFT_CACHE_SIZE = 4
# Bound on the entries of one dim x dim matrix stack in a trial group.
_GROUP_ENTRIES = 2 ** 15


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
    _check_count(m, "source count")
    _check_count(grid_size, "grid size")
    if min_separation is None:
        min_separation = 2.0 / grid_size
    if not min_separation >= 0:
        raise InvalidParameterError("need a non-negative separation")
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
class MusicResult:
    """Pseudospectrum over the theta' grid with picked peaks."""

    grid: np.ndarray
    spectrum: np.ndarray
    estimates: tuple = ()
    under_resolved: bool = False


def steering_vector(s, theta_norm):
    """Unit-modulus steering vector exp(2 pi j n theta') over the sensors.

    For a sequence of DOAs it is the sensors x DOAs steering matrix, one
    column per DOA.
    """
    return np.exp(2j * np.pi * np.multiply.outer(s.positions, theta_norm))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid(grid_size):
    """The theta' grid over [-0.5, 0.5), read-only."""
    grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    grid.flags.writeable = False
    return grid


def _interleaved(index):
    """Read-only bins 2 i and 2 i + 1 for each i of index, in turn: the bins
    of the real and imaginary parts of a complex array's float view."""
    bins = np.empty(2 * len(index), dtype=np.intp)
    bins[0::2] = 2 * index
    bins[1::2] = bins[0::2] + 1
    bins.flags.writeable = False
    return bins


def _complex_bincount(bins, x, size):
    """g x size sums of each row of the g-row complex stack x into size
    bins, through one np.bincount over x's float view with one row's
    bins = _interleaved(index), offset by 2 size i for row i.  Each bin sums
    the same numbers in the same order as two bincounts over that row's
    real and imaginary parts would, so the sums are the same bit for bit."""
    rows = len(x)
    bins = (bins + 2 * size * np.arange(rows)[:, None]).ravel()
    sums = np.bincount(bins, weights=x.ravel().view(float),
                       minlength=2 * size * rows)
    return sums.view(complex).reshape(rows, size)


@lru_cache(maxsize=_DIAGONAL_CACHE_SIZE)
def _diagonal_bins(dim):
    """The row-major flat indices of the entries (p, q), p >= q, of a
    dim x dim matrix, and the _interleaved bins of their diagonals p - q;
    both read-only."""
    p, q = np.tril_indices(dim)
    take = p * dim + q
    take.flags.writeable = False
    return take, _interleaved(p - q)


@lru_cache(maxsize=_DIAGONAL_CACHE_SIZE)
def _fold_bins(dim, grid_size):
    """The entries of the Hermitian sequence y_k, k = 1 - dim .. dim - 1,
    that fold modulo grid_size into bins 0 .. grid_size // 2, the half that
    np.fft.hfft reads, in sequence order; and their _interleaved bins.
    Both read-only."""
    bins = np.arange(1 - dim, dim) % grid_size
    take = np.flatnonzero(bins <= grid_size // 2)
    take.flags.writeable = False
    return take, _interleaved(bins[take])


@lru_cache(maxsize=_DIAGONAL_CACHE_SIZE)
def _real_form_index(dim):
    """Read-only 2 x dim**2 gather index of _real_form(T) for the Hermitian
    Toeplitz T with first column col: S.ravel() is v[i1] + v[i2], with
    v = [col.view(float), -col.view(float), (sqrt 2 conj(col)).view(float),
    -0.0] as _gather_real_forms lays it out.

    Every entry of _real_form is a sum or difference of the real or
    imaginary parts of two entries of T, or, on the middle row and column
    of an odd n, one part of sqrt 2 T[p, k] or Re T[k, k]; x - y is x + (-y)
    in IEEE arithmetic, and x + (-0.0) is x, sign of zero included, so the
    gather gives its S bit for bit.  With n = dim, k = n // 2 and p, q < k,
    T[p, q] is col[p - q] for p >= q and conj(col[q - p]) otherwise, and
    T[p, n - 1 - q] is conj(col[n - 1 - p - q]).
    """
    n, k = dim, dim // 2
    neg, mid, pad = 2 * n, 4 * n, 6 * n
    p = np.arange(k)[:, None]
    q = np.arange(k)[None, :]
    lag = 2 * np.abs(p - q)           # Re col[|p - q|] in v
    anti = 2 * (n - 1 - p - q)        # Re col[n - 1 - p - q] in v
    lower = p >= q
    im_a = np.where(lower, lag + 1, neg + lag + 1)          # Im T[p, q]
    neg_im_a = np.where(lower, neg + lag + 1, lag + 1)      # -Im T[p, q]
    i1 = np.full((n, n), pad)
    i2 = np.full((n, n), pad)
    # [[Re A + Re BJ, Im BJ - Im A], [Im A + Im BJ, Re A - Re BJ]].
    i1[:k, :k], i2[:k, :k] = lag, anti
    i1[:k, n - k:], i2[:k, n - k:] = neg + anti + 1, neg_im_a
    i1[n - k:, :k], i2[n - k:, :k] = im_a, neg + anti + 1
    i1[n - k:, n - k:], i2[n - k:, n - k:] = lag, neg + anti
    if n % 2:
        # The middle row and column: sqrt 2 T[p, k] = sqrt 2 conj(col[k - p]).
        at = mid + 2 * (k - np.arange(k))
        i1[:k, k] = i1[k, :k] = at
        i1[n - k:, k] = i1[k, n - k:] = at + 1
        i1[k, k] = 0
    index = np.stack((i1.ravel(), i2.ravel()))
    index.flags.writeable = False
    return index


def _snapshot_factor(s, scene):
    """F with F F^H = R / 2 for the model covariance R, as V sqrt(lambda / 2)
    from R's eigendecomposition.  Rounding can leave the zero eigenvalues of
    a rank-deficient R (no noise, fewer sources than sensors) slightly
    negative, so the eigenvalues are clipped at 0."""
    lam, v = np.linalg.eigh(expected_covariance(s, scene))
    return v * np.sqrt(np.clip(lam, 0.0, None) / 2.0)


def _draw(f, t, seed):
    """T snapshots F Z.  Z is an N x 2T standard normal draw read as N x T
    complex numbers (interleaved real and imaginary parts, no copy), so
    E[Z Z^H] = 2 T I and E[Y Y^H] = T R."""
    z = np.random.default_rng(seed).standard_normal((f.shape[1], 2 * t))
    return f @ z.view(complex)


def simulate(s, scene, t, seed):
    """Draw T snapshots of the narrowband model Y = A S + N, returned as
    the complex N x T matrix Y, one column per snapshot.

    Source waveforms and noise are zero-mean circular complex Gaussians
    with variances sigma_i^2 and sigma^2, so the snapshots are i.i.d.
    CN(0, R) with R = expected_covariance(s, scene).  They are drawn in
    that law as Y = F Z, with F F^H = R / 2 and Z an N x T matrix of
    complex numbers whose real and imaginary parts are independent standard
    normals.  Deterministic for a given seed.
    """
    _check_count(t, "snapshot count")
    return _draw(_snapshot_factor(s, scene), t, seed)


def sample_covariance(y):
    """R' = Y Y^H / T of an N x T snapshot matrix Y, forced exactly
    Hermitian.  Y may be simulated or measured; anything that is not 2-D
    or has no snapshot column is refused."""
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1] == 0:
        raise InvalidParameterError(
            "need an N x T snapshot matrix with T >= 1, got shape %s"
            % (y.shape,))
    r = y @ y.conj().T / y.shape[1]
    return (r + r.conj().T) / 2.0


def expected_covariance(s, scene):
    """Infinite-snapshot covariance: sum of sigma_i^2 a a^H plus sigma^2 I,
    forced exactly Hermitian."""
    a = steering_vector(s, scene.normalized_doas)
    r = ((a * np.asarray(scene.powers)) @ a.conj().T
         + scene.noise_power * np.eye(len(s.positions)))
    return (r + r.conj().T) / 2.0


@dataclass(frozen=True)
class _CoarrayPlan:
    """Per-array data shared by every trial: the sorted coarray lags, their
    ordered-pair counts, the bins of each ordered pair (i, j) in row-major
    order (2 l and 2 l + 1 for the pair's index l into ``lags``, see
    _interleaved), the coarray summary and the index of lag 0 in
    ``lags``."""

    lags: tuple
    counts: np.ndarray
    pair_bins: np.ndarray
    summary: CoarraySummary
    zero: int


def _toeplitz_index(u):
    """Read-only (u+1) x (u+1) index p - q + u: entry (p, q) of the
    Toeplitz matrix is entry p - q + u of its 2u+1 values, lags -u .. u."""
    idx = np.arange(u + 1)
    index = idx[:, None] - idx[None, :] + u
    index.flags.writeable = False
    return index


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _coarray_plan(positions):
    coarray = difference_coarray(positions)
    counts = np.array([coarray.weights[k] for k in coarray.lags])
    counts.flags.writeable = False
    p = np.asarray(positions)
    pair_lags = np.searchsorted(coarray.lags,
                                (p[:, None] - p[None, :]).ravel())
    return _CoarrayPlan(lags=coarray.lags, counts=counts,
                        pair_bins=_interleaved(pair_lags),
                        summary=summarize(coarray), zero=coarray.lags.index(0))


def _music_summary(s, m, grid_size):
    """The coarray summary of s, after checking the source count, that the
    coarray supports m sources, and the grid size."""
    _check_count(m, "source count")
    summary = _coarray_plan(s.positions).summary
    if m > summary.max_sources:
        raise CapacityError(
            "%d sources exceed the coarray capacity of %d"
            % (m, summary.max_sources))
    _check_count(grid_size, "grid size")
    return summary


def _lag_means(r, s):
    """The array's coarray plan, and for each covariance of the g x N x N
    stack r its means over the ordered sensor pairs at each lag of
    plan.lags, g x len(plan.lags).  The sums run over the pairs in
    row-major order, real and imaginary parts alike, in one bincount
    (_complex_bincount).  A stack of other than N x N matrices for the N
    sensors of s is refused, and so is a NaN or infinite entry, or a sum
    over a lag that overflows."""
    n = len(s.positions)
    if r.shape[1:] != (n, n):
        raise InvalidParameterError(
            "covariance shape %s does not match %d sensors" % (r.shape[1:], n))
    plan = _coarray_plan(s.positions)
    sums = _complex_bincount(plan.pair_bins, r.astype(complex, copy=False),
                             len(plan.lags))
    if not np.isfinite(sums).all():
        raise InvalidParameterError(
            "covariance entries, and their sums over each lag, must be finite")
    return plan, sums / plan.counts


def _toeplitz(col, index):
    """T[p, q] = col[p - q] for p >= q and conj(col[q - p]) for p < q,
    gathered through index = _toeplitz_index(len(col) - 1)."""
    # values[u + k] is col[k] for k >= 0 and conj(col[-k]) for k < 0.
    values = np.concatenate((col[:0:-1].conj(), col))
    return values[index]


def coarray_autocorrelation(r, s):
    """Average covariance entries over all sensor pairs at each lag.

    Returns a lag -> complex map on the full difference coarray.  Averaging
    with the weight function keeps conjugate symmetry exact for Hermitian
    input.  The sums run over the pairs in row-major order, real and
    imaginary parts alike.  This is a map view of the lag means that
    estimate_doas computes as an array, entry for entry the same values.
    A covariance with a NaN or infinite entry is refused.
    """
    plan, means = _lag_means(np.asarray(r)[None], s)
    return dict(zip(plan.lags, means[0]))


def toeplitz_augment(ac, ula_segment):
    """(u+1) x (u+1) Hermitian Toeplitz matrix T[p, q] = ac(p - q).

    ``ula_segment`` is the symmetric interval (-u, u); every lag in it must
    be present in the autocorrelation map.  Only the lags 0 .. u are read:
    the entries above the diagonal are their conjugates, so T is exactly
    Hermitian.  estimate_doas does not form T: it gathers the real form
    that music_spectrum takes of T straight from the same lag means, bit
    for bit the same.
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
    return _toeplitz(col, _toeplitz_index(u))


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


def _gather_real_forms(cols):
    """_real_form of each Hermitian Toeplitz matrix whose first column col
    is a row of cols (col[0] real), g x dim x dim, straight from the cols
    through _real_form_index, bit for bit the same S."""
    g, dim = cols.shape
    parts = cols.view(float)
    v = np.concatenate((parts, -parts,
                        (np.sqrt(2.0) * cols.conj()).view(float),
                        np.full((g, 1), -0.0)), axis=1)
    i1, i2 = _real_form_index(dim)
    s = v[:, i1]
    s += v[:, i2]
    return s.reshape(g, dim, dim)


def _spectra(s, m, grid_size):
    """MUSIC pseudospectra from the real symmetric forms s (g x dim x dim)
    of augmented matrices, one MusicResult at a time, as music_spectrum
    describes: the noise eigenvectors of s mapped back by Q, the diagonal
    sums of their projectors, the folded Hermitian sequence and one
    np.fft.hfft, normalised to peak at 1.  Up to the diagonal sums each
    stage runs once on the whole stack."""
    g, dim, _ = s.shape
    _, vecs = np.linalg.eigh(s)
    # Q v for the noise eigenvectors v, with the Q of _real_form.
    v = vecs[:, :, :dim - m]
    k = dim // 2
    top = (v[:, :k] + 1j * v[:, dim - k:]) * np.sqrt(0.5)
    noise = np.empty(v.shape, dtype=complex)
    noise[:, :k] = top
    if dim % 2:
        noise[:, k] = v[:, k]
    noise[:, dim - k:] = top[:, ::-1].conj()
    proj = noise @ noise.conj().transpose(0, 2, 1)
    # y_k = (-1)^k c_k from the subdiagonal sums c_k (k >= 0), summed over
    # the entries p >= q.
    take, bins = _diagonal_bins(dim)
    ys = _complex_bincount(bins, proj.reshape(g, -1)[:, take], dim)
    ys[:, 1::2] *= -1.0
    fold_take, fold_bins = _fold_bins(dim, grid_size)
    for y in ys:
        # y_k at k and conj(y_k) at -k, folded modulo grid_size; only the
        # bins 0 .. grid_size // 2 that hfft reads are summed.
        both = np.concatenate((y[:0:-1].conj(), y))
        herm = _complex_bincount(fold_bins, both.take(fold_take)[None],
                                 grid_size // 2 + 1)[0]
        spectrum = np.fft.hfft(herm, grid_size)
        np.maximum(spectrum, np.finfo(float).tiny, out=spectrum)
        np.divide(1.0, spectrum, out=spectrum)
        spectrum /= spectrum.max()
        yield MusicResult(grid=_grid(grid_size), spectrum=spectrum)


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
    On grid point g, theta = -0.5 + g / grid_size, so it is the
    length-grid_size DFT of the Hermitian sequence y_0 = c_0,
    y_k = (-1)^k c_k and y_{-k} = conj(y_k), a real DFT.  np.fft.hfft
    computes it from the sequence's first grid_size // 2 + 1 entries, about
    half the work of a complex FFT.  Folding the sequence modulo grid_size
    first keeps it Hermitian, which makes this exact for any grid size,
    including one smaller than 2 dim - 1; only the entries that fold into
    those first grid_size // 2 + 1 bins are summed.  estimate_doas runs the
    same steps from a real form gathered straight from the lag means.
    """
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidParameterError(
            "need a square matrix, got shape %s" % (t.shape,))
    dim = t.shape[0]
    _check_count(m, "source count")
    if not m < dim:
        raise InvalidParameterError(
            "need 1 <= sources < matrix dimension, got m=%d, dim=%d"
            % (m, dim))
    _check_count(grid_size, "grid size")
    if not (np.array_equal(t, t.conj().T)
            and np.array_equal(t, t[::-1, ::-1].conj())):
        raise InvalidParameterError(
            "need an exactly Hermitian, persymmetric matrix")
    return next(_spectra(_real_form(t)[None], m, grid_size))


def pick_peaks(result, m):
    """The m largest strict local maxima of the grid spectrum.

    The grid is circular, like the theta' domain: the first and last points
    are neighbours, so a peak on either end is found.  Fewer than m maxima
    is flagged as under-resolution rather than raised; ties are broken by
    grid index so the output is deterministic.
    """
    _check_count(m, "source count")
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
    """Full coarray-MUSIC pass from a covariance matrix to DOA estimates.

    The lag means of r over the central segment, lags 0 .. u, are the first
    column col of the Hermitian Toeplitz matrix T that toeplitz_augment
    builds; the real symmetric form of T that music_spectrum decomposes is
    gathered from col directly, without forming T, and is bit for bit the
    same.  So this gives the spectrum and estimates of the public chain
    coarray_autocorrelation -> toeplitz_augment -> music_spectrum ->
    pick_peaks bit for bit.  A covariance whose lag-0 mean is not real, of
    which T would not be Hermitian, is refused, as music_spectrum refuses
    such a T; _lag_means refuses non-finite entries.
    """
    _music_summary(s, m, grid_size)
    return next(_estimates(s, np.asarray(r)[None], m, grid_size))


def _estimates(s, r, m, grid_size):
    """estimate_doas on each covariance of the g x N x N stack r, one
    result at a time, after the checks of _music_summary."""
    plan, means = _lag_means(r, s)
    cols = means[:, plan.zero:plan.zero + plan.summary.max_sources + 1]
    bad = np.flatnonzero(cols[:, 0].imag)
    if len(bad):
        raise InvalidParameterError(
            "need a Hermitian covariance: its lag-0 mean %r is not real"
            % cols[bad[0], 0])
    for result in _spectra(_gather_real_forms(cols), m, grid_size):
        yield pick_peaks(result, m)


@lru_cache(maxsize=_SHIFT_CACHE_SIZE)
def _shift_index(m):
    """Read-only m x m index whose row s rolls a length-m array by s
    places: (j - s) mod m."""
    idx = np.arange(m)
    shifts = (idx - idx[:, None]) % m
    shifts.flags.writeable = False
    return shifts


def _rmse(estimates, truths):
    """RMSE on the circle [-0.5, 0.5): the sorted estimates are matched to
    the sorted truths under the cyclic shift with the least squared error,
    and each difference is wrapped to the nearest turn.  Wrapping leaves a
    difference below 0.5 in size unchanged, so when the unshifted match is
    best the result is the linear sorted-order RMSE bit for bit."""
    return _sorted_rmse(estimates, np.sort(np.asarray(truths)))


def _sorted_rmse(estimates, tru):
    """_rmse against truths tru that are already sorted."""
    est = np.sort(np.asarray(estimates))
    d = est[_shift_index(len(est))] - tru
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


def run_trial_batch(s, scene, t, trials, seed, grid_size=DEFAULT_GRID_SIZE):
    """Repeat simulate -> coarray MUSIC over independent trials.

    Per-trial seeds are spawned deterministically from the batch seed, so
    the result does not depend on evaluation order.  The model covariance
    is factored once per batch and every trial draws its snapshots from
    that factor; the MUSIC stages run on groups of trials (see the module
    docstring).  Each trial's estimates equal, bit for bit, those of
    simulate -> sample_covariance -> estimate_doas at its seed.  The
    aggregate RMSE pools squared errors of all resolved trials, with
    estimates matched to the truth in sorted order around the circle (the
    cyclic shift with the least error) and errors wrapped to the nearest
    turn.
    """
    _check_count(t, "snapshot count")
    _check_count(trials, "trial count")
    m = scene.source_count
    dim = _music_summary(s, m, grid_size).max_sources + 1
    group = max(1, _GROUP_ENTRIES // dim ** 2)
    f = _snapshot_factor(s, scene)
    tru = np.sort(np.asarray(scene.normalized_doas))
    children = np.random.SeedSequence(seed).spawn(trials)
    per_rmse = []
    per_est = []
    resolved = 0
    pooled_sq = []
    first = None
    for start in range(0, trials, group):
        r = np.stack([sample_covariance(_draw(
            f, t, np.random.default_rng(child).integers(2 ** 63)))
            for child in children[start:start + group]])
        for result in _estimates(s, r, m, grid_size):
            if first is None:
                first = result
            per_est.append(result.estimates)
            if result.under_resolved:
                per_rmse.append(float("inf"))
                continue
            resolved += 1
            trial_rmse = _sorted_rmse(result.estimates, tru)
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
