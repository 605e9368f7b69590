"""Narrowband DOA simulation and coarray MUSIC.

Sources are uncorrelated circular complex Gaussians on a far-field
half-wavelength grid; directions are the normalized DOA
theta' = (d/lambda) sin(theta) in [-0.5, 0.5), a circular domain: 0.5
and -0.5 give the same steering vector.  The pipeline is:
snapshots -> sample covariance -> coarray autocorrelation -> Hermitian
Toeplitz augmentation on the central ULA segment -> MUSIC pseudospectrum
on a theta' grid (2048 points by default) -> peak picking, with each grid
peak refined off the grid from its two neighbours -> RMSE of the refined
estimates over Monte-Carlo trials.  Snapshots are a plain complex N x T
array, so measured data enters at sample_covariance as it is.  The
noiseless, infinite-snapshot check is the same pass on the model
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
theta' grid, the Toeplitz gather index, the diagonal bins of a dim x dim
matrix and the cyclic shifts of the RMSE) is computed once and kept in
small, bounded, read-only caches, so a Monte-Carlo batch pays for it on its
first trial.  Every complex sum is one np.bincount over the float view of
its terms.  estimate_doas runs the stages of the public
coarray_autocorrelation -> toeplitz_augment -> music_spectrum chain, the
same functions on arrays: lag means, Toeplitz gather, real form (below).

These stages run on a stack of covariances: estimate_doas on a stack of
one, run_trial_batch on groups of max(1, _GROUP_ENTRIES // dim**2)
consecutive trials (52 at dim 25, one at dim 181), each drawn alone.  Per
group the lag means, the Toeplitz matrices, their real forms, eigh, the
projectors and their diagonal sums run once; the FFT, peaks and RMSE run
per trial, so no spectra are stacked.  Every sum keeps its terms and their
order, so the estimates are bit for bit those of a trial alone.

The MUSIC denominator a(theta)^H E E^H a(theta) is a real trigonometric
polynomial of degree dim - 1 in theta (the algebra of root-MUSIC,
Barabell 1983), so it is evaluated on the whole grid by one half-length
Hermitian FFT (np.fft.hfft) of its coefficients instead of a
dim x grid_size steering-matrix product.

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
from numbers import Real

import numpy as np

from .geometry import InvalidParameterError, _check_count
from .coarray import CoarraySummary, difference_coarray, summarize

DEFAULT_GRID_SIZE = 2048
# Cache bounds.  A grid entry holds grid_size floats: 16 kB at 2048 points.
# The per-dim entries at dim 181: the diagonal bins hold 3 dim (dim + 1) / 2
# integers (393 kB) and the Toeplitz index dim**2 (262 kB); a shift entry
# holds m**2 integers (29 kB at m = 60).
_PLAN_CACHE_SIZE = 32
_GRID_CACHE_SIZE = 4
_DIAGONAL_CACHE_SIZE = 4
_SHIFT_CACHE_SIZE = 4
# Bound on the entries of one dim x dim matrix stack in a trial group.
_GROUP_ENTRIES = 2 ** 15
_TINY = np.finfo(float).tiny


class CoarrayHoleError(ValueError):
    """A lag inside the requested central segment has no sensor pair."""


class CapacityError(ValueError):
    """More sources requested than the coarray can support."""


def _real(value, what):
    """value as a float, after refusing one that is not a real number: a
    str, which float() would parse, and a bool are refused, not coerced."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise InvalidParameterError(
            "%s must be a real number, got %r" % (what, value))
    return float(value)


@dataclass(frozen=True)
class SourceScene:
    """Normalized DOAs with per-source powers and a common noise power.

    DOAs lie in the half-open [-0.5, 0.5): the domain is circular, so 0.5
    would be a second name for -0.5.  Every value must be a real number: a
    str or a bool, which float() would read as one, is refused.
    """

    normalized_doas: tuple
    powers: tuple
    noise_power: float

    def __post_init__(self):
        doas = tuple(_real(t, "a DOA") for t in self.normalized_doas)
        powers = tuple(_real(p, "a source power") for p in self.powers)
        if len(doas) == 0 or len(doas) != len(powers):
            raise InvalidParameterError(
                "need matching, non-empty DOA and power lists")
        if any(not -0.5 <= t < 0.5 for t in doas):
            raise InvalidParameterError("normalized DOAs must lie in [-0.5, 0.5)")
        if len(set(doas)) != len(doas):
            raise InvalidParameterError("normalized DOAs must be distinct")
        noise = _real(self.noise_power, "the noise power")
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

    The default separation is three grid steps, above the 1.4 to 2.25 steps
    at which two noiseless sources start to resolve on the grid, depending
    on where it falls between them.  SNR is per source against unit source
    power, so SNR 0 dB means sigma_i^2 = sigma^2 = 1.  The seed must be a
    non-negative integer, and the SNR and separation real numbers.

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
    _check_count(seed, "seed", low=0)
    _real(snr_db, "the SNR")
    if min_separation is None:
        min_separation = 3.0 / grid_size
    if not _real(min_separation, "the separation") >= 0:
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
    refined: tuple = ()


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
    normals.  Deterministic for a given seed, a non-negative integer.
    """
    _check_count(t, "snapshot count")
    _check_count(seed, "seed", low=0)
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


@lru_cache(maxsize=_DIAGONAL_CACHE_SIZE)
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
    gathered through index = _toeplitz_index(col.shape[-1] - 1); for a
    g x dim stack of first columns, the g x dim x dim stack of matrices."""
    # values[..., u + k] is col[k] for k >= 0 and conj(col[-k]) for k < 0.
    values = np.concatenate((col[..., :0:-1].conj(), col), axis=-1)
    return values[..., index]


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
    Hermitian.  estimate_doas builds T from the same lag means by the same
    gather, on a stack of covariances at once.
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
    t[:k, k], crossing at Re t[k, k].  A stack of matrices gives the stack
    of their real forms, each by the same arithmetic as alone.
    """
    n = t.shape[-1]
    k = n // 2
    a = t[..., :k, :k]
    bj = t[..., :k, n - k:][..., ::-1]
    s = np.empty(t.shape)
    s[..., :k, :k] = a.real + bj.real
    s[..., :k, n - k:] = bj.imag - a.imag
    s[..., n - k:, :k] = a.imag + bj.imag
    s[..., n - k:, n - k:] = a.real - bj.real
    if n % 2:
        mid = np.sqrt(2.0) * t[..., :k, k]
        s[..., :k, k] = s[..., k, :k] = mid.real
        s[..., n - k:, k] = s[..., k, n - k:] = mid.imag
        s[..., k, k] = t[..., k, k].real
    return s


def _spectra(s, m, grid_size):
    """MUSIC pseudospectra from the real symmetric forms s (g x dim x dim)
    of augmented matrices, one spectrum array at a time, as music_spectrum
    describes: the noise eigenvectors of s mapped back by Q, the diagonal
    sums of their projectors and one np.fft.hfft of the Hermitian
    sequence, normalised to peak at 1.  Up to the diagonal sums each stage
    runs once on the whole stack."""
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
    # The least multiple c G of the grid size that holds all 2 dim - 1
    # lags; every c-th point of that DFT is a grid point.
    c = -(-(2 * dim - 1) // grid_size)
    for y in ys:
        spectrum = np.fft.hfft(y, c * grid_size)[::c]
        np.maximum(spectrum, _TINY, out=spectrum)
        np.divide(1.0, spectrum, out=spectrum)
        spectrum /= spectrum.max()
        yield spectrum


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
    computes it from y_0 .. y_{dim-1}, zero-padded, about half the work of
    a complex FFT.  A grid of fewer than 2 dim - 1 points cannot hold the
    sequence, so the DFT is taken on the least multiple c grid_size that
    does, and every c-th point of it is read.
    estimate_doas runs the same steps on a stack of one.
    """
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidParameterError(
            "need a square matrix, got shape %s" % (t.shape,))
    dim = t.shape[0]
    _check_count(m, "source count", high=dim - 1)
    _check_count(grid_size, "grid size")
    if not (np.array_equal(t, t.conj().T)
            and np.array_equal(t, t[::-1, ::-1].conj())):
        raise InvalidParameterError(
            "need an exactly Hermitian, persymmetric matrix")
    return MusicResult(grid=_grid(grid_size),
                       spectrum=next(_spectra(_real_form(t)[None], m,
                                              grid_size)))


def pick_peaks(result, m):
    """The m largest strict local maxima of the grid spectrum: their grid
    points (``estimates``, in grid order) and, in the same order, each one
    refined off the grid (``refined``).

    The grid is circular, like the theta' domain: the first and last points
    are neighbours, so a peak on either end is found.  Fewer than m maxima
    is flagged as under-resolution rather than raised; ties are broken by
    grid index so the output is deterministic.  A refined estimate is the
    vertex of the parabola through the MUSIC denominator 1 / spectrum at the
    peak and its two neighbours (Jacobsen & Kootsookos, IEEE SPM 2007): with
    p = s[i - 1] / s[i] and q = s[i + 1] / s[i], it lies
    (q - p) / (2 (p + q - 2 p q)) grid steps off the peak, at most half a
    step.  The step is grid[1] - grid[0], and a refined estimate below
    grid[0] wraps up by G steps, into [-0.5, 0.5) on the theta' grid: so
    ``refined`` assumes a uniform grid over one period of the spectrum, as
    music_spectrum's is; ``estimates`` assumes nothing.  The ratios stay
    finite where 1 / spectrum overflows at a clipped null.  A grid of
    another length than the spectrum, or a NaN or negative spectrum value,
    is refused.
    """
    _check_count(m, "source count")
    spec = np.asarray(result.spectrum)
    grid = np.asarray(result.grid)
    if spec.ndim != 1 or grid.shape != spec.shape:
        raise InvalidParameterError(
            "need one grid point per spectrum value, got grid shape %s and "
            "spectrum shape %s" % (grid.shape, spec.shape))
    if len(spec) and not spec.min() >= 0.0:
        raise InvalidParameterError(
            "need a spectrum of non-negative numbers, without NaN")
    return _picked(grid, spec, m)


# Offsets of each peak's two neighbours in the padded ring of _picked.
_SIDES = np.array([[0], [2]])


def _picked(grid, spec, m):
    """pick_peaks after its checks."""
    ring = np.concatenate((spec[-1:], spec, spec[:1]))
    chosen = np.flatnonzero((spec > ring[:-2]) & (spec > ring[2:]))
    order = np.argsort(spec[chosen], kind="stable")[::-1]
    chosen = np.sort(chosen[order[:m]])
    estimates = grid[chosen]
    pq = ring[chosen + _SIDES] / spec[chosen]
    p, q = pq[0], pq[1]
    # p + q - 2 p q >= |q - p|, so where it is 0 the shift is 0 / tiny.
    shift = (q - p) / np.maximum(p + q - 2.0 * p * q, _TINY)
    step = float(grid[1] - grid[0]) if len(grid) > 1 else 0.0
    refined = (estimates + shift * (0.5 * step)).tolist()
    # Only a peak on the first point can move below the grid's start.
    if refined and refined[0] < grid[0]:
        refined[0] += len(spec) * step
    return MusicResult(grid=grid, spectrum=spec,
                       estimates=tuple(estimates.tolist()),
                       refined=tuple(refined), under_resolved=len(chosen) < m)


def estimate_doas(s, r, m, grid_size=DEFAULT_GRID_SIZE):
    """Full coarray-MUSIC pass from a covariance matrix to DOA estimates.

    The lag means of r over the central segment, lags 0 .. u, are the first
    column of the Hermitian Toeplitz matrix T that toeplitz_augment
    builds, by the same gather, and music_spectrum's stages run on T; so
    this gives the spectrum and estimates of the public chain
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
    u = plan.summary.max_sources
    cols = means[:, plan.zero:plan.zero + u + 1]
    bad = np.flatnonzero(cols[:, 0].imag)
    if len(bad):
        raise InvalidParameterError(
            "need a Hermitian covariance: its lag-0 mean %r is not real"
            % cols[bad[0], 0])
    t = _toeplitz(cols, _toeplitz_index(u))
    grid = _grid(grid_size)
    for spectrum in _spectra(_real_form(t), m, grid_size):
        yield _picked(grid, spectrum, m)


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

    ``per_trial_estimates`` are each trial's grid peaks and
    ``per_trial_refined`` the refined ones (see pick_peaks), which the RMSEs
    score.  ``first_trial`` is trial 0's full MusicResult (spectrum and
    picked peaks); only that one spectrum is kept.
    """

    rmse: float
    per_trial_rmse: tuple
    per_trial_estimates: tuple
    per_trial_refined: tuple
    resolved_trials: int
    trials: int
    seed: int
    first_trial: MusicResult = field(default=None, compare=False, repr=False)

    @property
    def resolved_fraction(self):
        return self.resolved_trials / self.trials


def run_trial_batch(s, scene, t, trials, seed, grid_size=DEFAULT_GRID_SIZE):
    """Repeat simulate -> coarray MUSIC over independent trials.

    Per-trial seeds are spawned deterministically from the batch seed, a
    non-negative integer, so the result does not depend on evaluation
    order.  The model covariance is factored once per batch and every trial
    draws its snapshots from that factor; the MUSIC stages run on groups of
    trials (see the module docstring).  Each trial's estimates and refined
    estimates equal, bit for bit, those of simulate -> sample_covariance ->
    estimate_doas at its seed.  Each trial is scored on its refined
    estimates, and the aggregate RMSE pools squared errors of all resolved
    trials, with estimates matched to the truth in sorted order around the
    circle (the cyclic shift with the least error) and errors wrapped to
    the nearest turn.
    """
    _check_count(t, "snapshot count")
    _check_count(trials, "trial count")
    _check_count(seed, "seed", low=0)
    m = scene.source_count
    dim = _music_summary(s, m, grid_size).max_sources + 1
    group = max(1, _GROUP_ENTRIES // dim ** 2)
    f = _snapshot_factor(s, scene)
    tru = np.sort(np.asarray(scene.normalized_doas))
    children = np.random.SeedSequence(seed).spawn(trials)
    per_rmse = []
    per_est = []
    per_refined = []
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
            per_refined.append(result.refined)
            if result.under_resolved:
                per_rmse.append(float("inf"))
                continue
            resolved += 1
            trial_rmse = _sorted_rmse(result.refined, tru)
            per_rmse.append(trial_rmse)
            pooled_sq.append(trial_rmse ** 2)
    rmse = float(np.sqrt(np.mean(pooled_sq))) if pooled_sq else float("inf")
    return TrialBatchResult(rmse=rmse,
                            per_trial_rmse=tuple(per_rmse),
                            per_trial_estimates=tuple(per_est),
                            per_trial_refined=tuple(per_refined),
                            resolved_trials=resolved,
                            trials=trials,
                            seed=seed,
                            first_trial=first)
