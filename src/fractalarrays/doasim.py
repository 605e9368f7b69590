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
and imaginary parts are standard normals.  Z is drawn through its LQ
factors Z = L Q^H: first the lower-triangular Bartlett factor L (Goodman
1963), N x min(N, T) with complex normals below a diagonal of chi roots,
then a Haar isometry Q (Mezzadri 2007).  A Monte-Carlo batch needs only
the sample covariance Y Y^H / T = W W^H / T with W = F L, so it factors R
once, draws L alone for every trial, about 2 N^2 random numbers instead of
2 N T, and never forms snapshots.  simulate draws the same L at the same
seed and then Q, so simulate -> sample_covariance reaches the batch's
covariance to rounding (Q^H Q = I holds exactly only in exact arithmetic).
Only a trial's own generator calls run trial by trial; the triangles, the
chi roots on the diagonals, the product with F and W W^H / T run once on
a group's stack of factors.

Everything that depends only on the array (the coarray plan: the lag
index of each ordered sensor pair and the coarray summary) or only on a
size (the theta' grid and the coefficient bin of each entry of a
dim x dim matrix) is computed once and kept in small, bounded, read-only
caches, so a Monte-Carlo batch pays for it on its first trial.  The
Toeplitz matrices and the cyclic shifts of the RMSE need no index: each is
a stack of sliding windows over one 1-D sequence, read as a view.  Every
complex sum over lags is one np.bincount of the real parts and one of the
imaginary parts on the lag indices.  estimate_doas runs the stages of the
public coarray_autocorrelation -> toeplitz_augment -> music_spectrum chain,
the same functions on arrays: lag means, Toeplitz windows, real form
(below).

These stages run on a stack of covariances: estimate_doas on a stack of
one, run_trial_batch on groups of max(1, _GROUP_ENTRIES // dim**2)
consecutive trials (52 at dim 25, one at dim 181), each from its own
seed's draws.  Per group the Bartlett factors and their covariances, the
lag means, the Toeplitz matrices, their real forms, their noise
eigenvectors V, the real products V V^T and their block sums, the FFT into
a g x grid_size stack of spectra, the peak picking and the RMSE run once;
pick_peaks and the RMSE of one trial are the same functions on a stack of
one.  Every sum keeps its terms and their order, so each trial's
covariance is bit for bit the one its seed draws alone, and its estimates
those of estimate_doas on that covariance alone.

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
of the cost of a complex one (Pesavento, Gershman & Haardt, "Unitary
root-MUSIC with a real-valued eigendecomposition", IEEE TSP 2000), and the
MUSIC coefficients of the noise projector Q V V^T Q^H, with Q the sparse
unitary matrix of the transform, come from the real V V^T alone: from
diagonal and anti-diagonal sums of its blocks, with no complex vector or
matrix formed (music_spectrum).  Every covariance the pipeline forms is
made exactly Hermitian, so every Toeplitz matrix it builds is exactly
centro-Hermitian, and this is the only MUSIC path.  At full capacity,
m = dim - 1, the noise subspace is one vector, and it comes from the
eigenvalues and two steps of inverse iteration rather than a full
eigendecomposition (Pisarenko's case; _noise_vectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import InvalidParameterError, _check_count, _integers
from .coarray import CoarraySummary, difference_coarray, summarize

DEFAULT_GRID_SIZE = 2048
# Cache bounds.  A grid entry holds grid_size floats: 16 kB at 2048 points.
# A block-bins entry holds dim^2 integers: 262 kB at dim 181.
_PLAN_CACHE_SIZE = 32
_GRID_CACHE_SIZE = 4
_BLOCK_CACHE_SIZE = 4
# Bound on the entries of one dim x dim matrix stack in a trial group.
_GROUP_ENTRIES = 2 ** 15
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


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


def _numeric(x, what):
    """x as an array, after refusing one whose dtype is not an integer,
    float or complex type: a bool, str, bytes or object array is refused,
    not read as 0/1 or parsed."""
    x = np.asarray(x)
    if x.dtype.kind not in "iufc":
        raise InvalidParameterError(
            "%s must be an array of numbers, got dtype %s" % (what, x.dtype))
    return x


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


def _complex_bincount(index, x, size):
    """g x size sums of each row of the g-row complex stack x: entry j of a
    row goes to bin index[j] < size.  With the indices offset by size i for
    row i, one np.bincount sums the real parts and one the imaginary parts,
    each adding a bin's terms in row order."""
    rows = len(x)
    index = (index + size * np.arange(rows)[:, None]).ravel()
    sums = np.empty(rows * size, dtype=complex)
    sums.real = np.bincount(index, weights=x.real.ravel(),
                            minlength=rows * size)
    sums.imag = np.bincount(index, weights=x.imag.ravel(),
                            minlength=rows * size)
    return sums.reshape(rows, size)


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_bins(dim):
    """The bin of each row-major entry of a real symmetric dim x dim matrix
    R in _coefficients' sums of the MUSIC coefficients c_0 .. c_{dim-1}, of
    4 dim + 1 bins, read-only.  Bins 2 d and 2 d + 1 take the terms added to
    Re c_d and Im c_d, bins 2 dim + 2 d and 2 dim + 2 d + 1 the terms taken
    from them, and bin 4 dim the entries that add nothing.

    With k = dim // 2, h = dim - k, A = R[:k, :k], D = R[h:, h:] and
    C = R[h:, :k] (so R[:k, h:] is C^T), the entries of A and D below the
    diagonal add to Re c_{p-q}, those above it, each standing for itself
    and its mirror, to Re c_{dim-1-p-q}, A's with a plus and D's with a
    minus sign.  C's entries below its diagonal add to Im c_{p-q}, those
    above it are taken from Im c_{q-p}, and C^T's are taken from
    Im c_{dim-1-p-q}.  R's diagonal adds to Re c_0.  C's diagonal and, for
    odd dim, the rest of the middle row and column go to the last bin."""
    k, h = dim // 2, dim - dim // 2
    p, q = np.indices((k, k))
    below, above = p > q, p < q
    diagonal = 2 * (p - q)
    anti = 2 * (dim - 1 - p - q)
    minus = 2 * dim
    bins = np.full((dim, dim), 4 * dim)
    a, d, c, ct = bins[:k, :k], bins[h:, h:], bins[h:, :k], bins[:k, h:]
    a[below] = d[below] = diagonal[below]
    a[above] = anti[above]
    d[above] = minus + anti[above]
    c[below] = diagonal[below] + 1
    c[above] = minus - diagonal[above] + 1
    ct[...] = minus + anti + 1
    np.fill_diagonal(bins, 0)
    bins = bins.ravel()
    bins.flags.writeable = False
    return bins


def _snapshot_factor(s, scene):
    """F with F F^H = R / 2 for the model covariance R, as V sqrt(lambda / 2)
    from R's eigendecomposition.  Rounding can leave the zero eigenvalues of
    a rank-deficient R (no noise, fewer sources than sensors) slightly
    negative, so the eigenvalues are clipped at 0."""
    lam, v = np.linalg.eigh(expected_covariance(s, scene))
    return v * np.sqrt(np.clip(lam, 0.0, None) / 2.0)


def _draw(f, t, seeds):
    """The g x N x min(N, T) stack of W = F L for T snapshots, one per
    trial seed in seeds, and the generator default_rng(seeds[-1]) that drew
    the last L, for simulate to draw on from.

    L is the lower-triangular factor of the LQ factorisation Z = L Q^H of
    an N x T matrix Z of complex numbers whose real and imaginary parts are
    standard normals (Bartlett's decomposition; Goodman 1963).  With
    k = min(N, T), L is N x k: its entries below the diagonal are such
    complex numbers, and its diagonal entry i is the root of a chi-square
    draw with 2 (T - i) degrees of freedom.  Each seed's generator draws
    them in that order: an N x 2k standard normal draw, read as N x k
    complex numbers (no copy), then the k chi-square draws.  Only these
    draws run per seed; the diagonal and upper triangle are dropped, the
    chi roots written on the diagonal and the product with F taken once
    for the whole stack, each row as it would be alone.  So W W^H / T has
    the law of the sample covariance of T snapshots F Z,
    E[W W^H] = 2 T F F^H = T R, from 2 N k + k random numbers, not 2 N T."""
    n, k = f.shape[1], min(f.shape[1], t)
    z = np.empty((len(seeds), n, 2 * k))
    chi = np.empty((len(seeds), k))
    dof = 2 * (t - np.arange(k))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=z[i])
        chi[i] = rng.chisquare(dof)
    lower = np.tril(z.view(complex), -1)
    diagonal = np.arange(k)
    lower[:, diagonal, diagonal] = np.sqrt(chi)
    return f @ lower, rng


def simulate(s, scene, t, seed):
    """Draw T snapshots of the narrowband model Y = A S + N, returned as
    the complex N x T matrix Y, one column per snapshot.

    Source waveforms and noise are zero-mean circular complex Gaussians
    with variances sigma_i^2 and sigma^2, so the snapshots are i.i.d.
    CN(0, R) with R = expected_covariance(s, scene).  They are drawn in
    that law as Y = F Z, with F F^H = R / 2 and Z = L Q^H an N x T matrix
    of complex numbers whose real and imaginary parts are independent
    standard normals, drawn through its LQ factors: the Bartlett factor L
    of _draw, then from the same generator a T x min(N, T) Haar isometry Q
    independent of L.  Q is the Q factor of a T x min(N, T) complex
    Gaussian draw with the phases of its R factor's diagonal divided out
    (Mezzadri, "How to generate random matrices from the classical compact
    groups", Notices AMS 2007).  So Y = W Q^H for the W = F L of _draw at
    the same seed, and Y Y^H = W W^H in exact arithmetic: the sample
    covariance of Y is the covariance that run_trial_batch draws at that
    seed, to rounding.  Deterministic for a given seed, a non-negative
    integer.
    """
    _check_count(t, "snapshot count")
    _check_count(seed, "seed", low=0)
    (w,), rng = _draw(_snapshot_factor(s, scene), t, [seed])
    q, r = np.linalg.qr(
        rng.standard_normal((t, 2 * w.shape[1])).view(complex))
    phases = r.diagonal() / np.abs(r.diagonal())
    return w @ (q * phases).conj().T


def _gram(w, t):
    """W W^H / T of a matrix W or of each matrix in a stack W, forced
    exactly Hermitian."""
    r = w @ w.conj().swapaxes(-1, -2) / t
    return (r + r.conj().swapaxes(-1, -2)) / 2.0


def sample_covariance(y):
    """R' = Y Y^H / T of an N x T snapshot matrix Y, forced exactly
    Hermitian.  Y may be simulated or measured; anything that is not 2-D
    or has no snapshot column is refused, and so is one of bools, strings
    or objects."""
    y = _numeric(y, "snapshots")
    if y.ndim != 2 or y.shape[1] == 0:
        raise InvalidParameterError(
            "need an N x T snapshot matrix with T >= 1, got shape %s"
            % (y.shape,))
    return _gram(y, y.shape[1])


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
    ordered-pair counts, the index into ``lags`` of each ordered pair
    (i, j)'s lag p_i - p_j in row-major order (read-only), the coarray
    summary and the index of lag 0 in ``lags``."""

    lags: tuple
    counts: np.ndarray
    pair_lags: np.ndarray
    summary: CoarraySummary
    zero: int


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _coarray_plan(positions):
    coarray = difference_coarray(positions)
    counts = np.array([coarray.weights[k] for k in coarray.lags])
    counts.flags.writeable = False
    p = np.asarray(positions)
    pair_lags = np.searchsorted(coarray.lags,
                                (p[:, None] - p[None, :]).ravel())
    pair_lags.flags.writeable = False
    return _CoarrayPlan(lags=coarray.lags, counts=counts, pair_lags=pair_lags,
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
    row-major order, one bincount for the real parts and one for the
    imaginary parts (_complex_bincount).  A stack of other than N x N
    matrices for the N sensors of s is refused, and so is a NaN or infinite
    entry, or a sum over a lag that overflows."""
    n = len(s.positions)
    if r.shape[1:] != (n, n):
        raise InvalidParameterError(
            "covariance shape %s does not match %d sensors" % (r.shape[1:], n))
    plan = _coarray_plan(s.positions)
    # np.bincount refuses long double weights; the cast reads them as doubles
    # and copies nothing for the complex stacks of the pipeline.
    sums = _complex_bincount(plan.pair_lags, r.astype(complex, copy=False),
                             len(plan.lags))
    if not np.isfinite(sums).all():
        raise InvalidParameterError(
            "covariance entries, and their sums over each lag, must be finite")
    return plan, sums / plan.counts


def _toeplitz(col):
    """T[p, q] = col[p - q] for p >= q and conj(col[q - p]) for p < q; for a
    g x dim stack of first columns, the g x dim x dim stack of matrices.
    With u = dim - 1, T[p, q] is values[u + p - q] of the 2u + 1 values at
    lags -u .. u: row p is the window values[p:p + dim] reversed.  So T is
    a read-only view of those windows, one step along values per row and one
    step back per column from values[u]; no entry is copied."""
    # values[..., u + k] is col[k] for k >= 0 and conj(col[-k]) for k < 0.
    dim = col.shape[-1]
    values = np.concatenate((col[..., :0:-1].conj(), col), axis=-1)
    *outer, step = values.strides
    return as_strided(values[..., dim - 1:], values.shape[:-1] + (dim, dim),
                      (*outer, step, -step), writeable=False)


def coarray_autocorrelation(r, s):
    """Average covariance entries over all sensor pairs at each lag.

    Returns a lag -> complex map on the full difference coarray.  Averaging
    with the weight function keeps conjugate symmetry exact for Hermitian
    input.  The sums run over the pairs in row-major order, real and
    imaginary parts alike.  This is a map view of the lag means that
    estimate_doas computes as an array, entry for entry the same values.
    A covariance with a NaN or infinite entry is refused, and so is one of
    bools, strings or objects.
    """
    plan, means = _lag_means(_numeric(r, "covariance")[None], s)
    return dict(zip(plan.lags, means[0]))


def toeplitz_augment(ac, ula_segment):
    """(u+1) x (u+1) Hermitian Toeplitz matrix T[p, q] = ac(p - q).

    ``ula_segment`` is the symmetric interval (-u, u), two integers; every
    lag in it must be present in the autocorrelation map.  Only the lags
    0 .. u are read: the entries above the diagonal are their conjugates, so
    T is exactly Hermitian.  estimate_doas reads T from the same lag means
    as the same windows (_toeplitz), on a stack of covariances at once; here
    they are copied into a new, writable array that the caller owns.
    """
    bounds = _integers(ula_segment, "the central segment")
    if len(bounds) != 2 or bounds[0] != -bounds[1] or bounds[1] < 0:
        raise InvalidParameterError(
            "central segment must be two integers (-u, u) with u >= 0, got %r"
            % (ula_segment,))
    u = bounds[1]
    missing = [k for k in range(-u, u + 1) if k not in ac]
    if missing:
        raise CoarrayHoleError(
            "lags %s missing from the central segment [-%d, %d]"
            % (missing, u, u))
    col = np.array([ac[k] for k in range(0, u + 1)], dtype=complex)
    return _toeplitz(col).copy()


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


def _noise_vectors(s, m):
    """The g x dim x (dim - m) stack of noise eigenvectors of the real
    symmetric stack s: for each matrix, the eigenvectors of its dim - m
    smallest eigenvalues.

    With more than one noise dimension they are eigh's.  With one, as at
    full coarray capacity (Pisarenko's case), each matrix needs only the
    eigenvector v of its least eigenvalue lambda_0: two steps of inverse
    iteration (Ipsen, "Computing an eigenvector with inverse iteration",
    SIAM Review 1997) from x = ones / sqrt(dim),
    y = delta (S - sigma I)^-1 x and x <- y / |y|, at the shift
    sigma = lambda_0 - delta just below lambda_0.  lambda_0 comes from
    eigvalsh, and delta = 64 eps max |lambda| lies well above its rounding
    error, so S - sigma I is positive definite.  The factor delta keeps y
    near unit size however small S is.  Each step shrinks x's component
    along any other eigenvector, against v's, by delta / (lambda_i - sigma),
    so two steps reach rounding level when the gap lambda_1 - lambda_0
    exceeds delta / sqrt(eps) and the start is not orthogonal to v.

    Rows whose gap is smaller, such as the zero matrix and multiples of I,
    or whose delta is not a normal number, keep eigh's vector, and so does
    every row whose last step fails its residual check.  After that step,
    (S - lambda_0 I) x = delta (x_prev - y) / |y| up to the solve's
    rounding, so |x_prev - y| <= |y| bounds the residual by delta, 64
    rounding units of max |lambda|.  The check fails where the start is
    orthogonal to v, as for a ULA of 4 sensors with sources at -0.25, 0 and
    0.25, whose v is the steering vector of -0.5.  Each row comes out bit
    for bit as it would alone."""
    g, dim, _ = s.shape
    if dim - m > 1:
        return np.linalg.eigh(s)[1][:, :, :dim - m]
    lam = np.linalg.eigvalsh(s)
    delta = 64.0 * _EPS * np.abs(lam).max(axis=1)
    done = (lam[:, 1] - lam[:, 0] > delta / np.sqrt(_EPS)) & (delta >= _TINY)
    shifted = s[done]
    diagonal = np.arange(dim)
    shifted[:, diagonal, diagonal] -= lam[done, :1] - delta[done, None]
    x = np.full((len(shifted), dim), dim ** -0.5)
    for _ in range(2):
        last = x
        y = np.linalg.solve(shifted, (delta[done, None] * last)[..., None])
        y = y[..., 0]
        size = np.sqrt(np.sum(y * y, axis=1))
        x = y / size[:, None]
    passed = np.sum((last - y) ** 2, axis=1) <= size ** 2
    done[done] = passed
    v = np.empty((g, dim, 1))
    v[done, :, 0] = x[passed]
    if not done.all():
        v[~done] = np.linalg.eigh(s[~done])[1][:, :, :1]
    return v


def _coefficients(v):
    """The g x dim stack of Hermitian coefficients c_0 .. c_{dim-1} of the
    projectors Q V V^T Q^H, c_d the sum of the d-th subdiagonal, for the
    g x dim x r stack v of real noise eigenvectors V and the Q of
    _real_form, in real arithmetic: R = V V^T, then the block sums of
    music_spectrum by one np.bincount on the bins of _block_bins, row i's
    bins offset by (4 dim + 1) i, and one subtraction.  The few terms no
    single entry of R carries are added after: the diagonals of A and D in
    1/2 a(A - D), and for odd dim the middle row of R."""
    g, dim, _ = v.shape
    r = v @ v.transpose(0, 2, 1)
    size = 4 * dim + 1
    index = (_block_bins(dim) + size * np.arange(g)[:, None]).ravel()
    sums = np.bincount(index, weights=r.ravel(), minlength=g * size)
    sums = sums.reshape(g, size)
    c = (sums[:, :2 * dim] - sums[:, 2 * dim:-1]).view(complex)
    k, h = dim // 2, dim - dim // 2
    diagonal = r.reshape(g, -1)[:, ::dim + 1]
    c.real[:, dim - 1::-2][:, :k] += 0.5 * (diagonal[:, :k] - diagonal[:, h:])
    if dim % 2:
        mid = np.sqrt(2.0) * r[:, k]
        c.real[:, 1:k + 1] += mid[:, k - 1::-1]
        c.imag[:, 1:k + 1] -= mid[:, :k:-1]
    return c


def _spectra(s, m, grid_size):
    """The g x grid_size stack of MUSIC pseudospectra from the real
    symmetric forms s (g x dim x dim) of augmented matrices, as
    music_spectrum describes: the noise eigenvectors of s (_noise_vectors),
    the Hermitian coefficients of their projectors (_coefficients), one
    np.fft.hfft of the stack of coefficient sequences, and each row clipped
    at _TINY, inverted and normalised to peak at 1, in place.  Every stage
    runs once on the whole stack, and each row comes out bit for bit as it
    would alone."""
    dim = s.shape[-1]
    ys = _coefficients(_noise_vectors(s, m))
    # y_d = (-1)^d c_d.
    ys[:, 1::2] *= -1.0
    # The least multiple c G of the grid size that holds all 2 dim - 1
    # lags; every c-th point of that DFT is a grid point.
    c = -(-(2 * dim - 1) // grid_size)
    spectra = np.fft.hfft(ys, c * grid_size)[:, ::c]
    np.maximum(spectra, _TINY, out=spectra)
    np.divide(1.0, spectra, out=spectra)
    spectra /= spectra.max(axis=1, keepdims=True)
    return spectra


def music_spectrum(t, m, grid_size=DEFAULT_GRID_SIZE):
    """MUSIC pseudospectrum of a centro-Hermitian matrix with m signal
    dimensions.

    The noise subspace is spanned by the eigenvectors E of the dim - m
    smallest eigenvalues; the spectrum is normalized to peak at 1 on a
    uniform theta' grid over [-0.5, 0.5).

    t must be exactly Hermitian and exactly persymmetric, t[::-1, ::-1]
    equal to conj(t), as every matrix toeplitz_augment builds from a
    Hermitian covariance is, and of finite numbers (not bools, strings or
    objects); any other t is refused.  Such a t
    has the same eigenvalues as the real symmetric S = Q^H t Q of
    _real_form, and eigenvectors Q V for the eigenvectors V of S (Lee 1980;
    Huarng & Yeh 1991).  So E comes from a real eigh of S, about a third of
    the work of a complex eigh of t.  With one noise dimension,
    m = dim - 1, E is one vector, and it comes from S's eigenvalues
    (eigvalsh) and two solves of inverse iteration instead, about 0.6 of
    the work of eigh at dim 25; a matrix with a near-double least
    eigenvalue, or whose vector fails the residual check, keeps eigh
    (_noise_vectors).  The two vectors agree to rounding, so the spectrum
    does too.

    With P = E E^H and c_d the sum of P's d-th subdiagonal, the denominator
    a(theta)^H P a(theta) is c_0 + 2 Re sum_{d>0} c_d exp(-2 pi j d theta).
    On grid point g, theta = -0.5 + g / grid_size, so it is the
    length-grid_size DFT of the Hermitian sequence y_0 = c_0,
    y_d = (-1)^d c_d and y_{-d} = conj(y_d), a real DFT.  np.fft.hfft
    computes it from y_0 .. y_{dim-1}, zero-padded, about half the work of
    a complex FFT.  A grid of fewer than 2 dim - 1 points cannot hold the
    sequence, so the DFT is taken on the least multiple c grid_size that
    does, and every c-th point of it is read.

    P = Q R Q^H for the real R = V V^T, so the c_d come from R in real
    arithmetic, and neither E nor P is formed.  With k = dim // 2,
    h = dim - k, the k x k blocks A = R[:k, :k], D = R[h:, h:] and
    C = R[h:, :k], s_j a block's sum over its entries with p - q = j,
    a_t its sum over those with p + q = t, and n = dim - 1 - d:
        Re c_d = s_d(A + D) + a_n(A - D) / 2,
        Im c_d = s_d(C) - s_{-d}(C) - a_n(C),
    and for odd dim, with R's middle row r = R[k], c_0 gains r[k] and c_d
    gains sqrt 2 (r[k - d] - j r[h + k - d]) for d = 1 .. k.  R is
    symmetric, so almost every term is one entry of R, and one np.bincount
    sums them all (_coefficients).
    estimate_doas runs the same steps on a stack of one.
    """
    t = _numeric(t, "matrix")
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
    if not np.isfinite(t).all():
        raise InvalidParameterError("need a matrix of finite numbers")
    return MusicResult(grid=_grid(grid_size),
                       spectrum=_spectra(_real_form(t)[None], m, grid_size)[0])


def pick_peaks(result, m):
    """The m largest strict local maxima of the grid spectrum: their grid
    points (``estimates``, in grid order) and, in the same order, each one
    refined off the grid (``refined``).

    The grid is circular, like the theta' domain: the first and last points
    are neighbours, so a peak on either end is found.  Fewer than m maxima
    is flagged as under-resolution rather than raised; of maxima of equal
    value the one at the higher grid index ranks first, so the output is
    deterministic.  A refined estimate is the
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

    This is the peak pass that run_trial_batch makes once over a group's
    whole stack of spectra, on a stack of one.
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
    estimates, refined, under = _picked(grid, spec[None], m)
    return MusicResult(grid=grid, spectrum=spec, estimates=estimates[0],
                       refined=refined[0], under_resolved=under[0])


def _picked(grid, spectra, m):
    """pick_peaks on each row of the g x G stack spectra, after its checks:
    the lists of each row's estimates and refined estimates, as tuples of
    floats, and of its under-resolution flag, as a bool."""
    g, size = spectra.shape
    # Strict circular local maxima: the interior against both neighbours,
    # then columns G - 1 and 0, whose outer neighbours wrap around (the
    # indices taken mod G, as column 0 is its own neighbour at G = 1).
    peak = np.empty((g, size), dtype=bool)
    mid = spectra[:, 1:-1]
    peak[:, 1:-1] = (mid > spectra[:, :-2]) & (mid > spectra[:, 2:])
    if size:
        last, first = spectra[:, -1], spectra[:, 0]
        peak[:, -1] = (last > spectra[:, -2 % size]) & (last > first)
        peak[:, 0] = (first > last) & (first > spectra[:, 1 % size])
    # Rank each row's maxima by value, then by index, both descending (a
    # stable ascending argsort reversed): the maxima in descending flat
    # order, sorted stably by row and by value, descending.  Keep the first
    # m of each row, in grid order.  The row key is cast to the narrowest
    # unsigned type that holds g, which numpy sorts stably by radix sort at
    # 8 and 16 bits, with the same order as the int64 rows.
    flat = np.flatnonzero(peak)[::-1]
    rows, cols = np.divmod(flat, size)
    order = np.lexsort((-spectra[rows, cols],
                        rows.astype(np.min_scalar_type(g))))
    found = np.bincount(rows, minlength=g)
    rank = np.arange(len(flat)) - (np.cumsum(found) - found)[rows[order]]
    rows, cols = np.divmod(np.sort(flat[order][rank < m]), size)
    centre = spectra[rows, cols]
    p = spectra[rows, cols - 1] / centre
    q = spectra[rows, (cols + 1) % size] / centre
    # p + q - 2 p q >= |q - p|, so where it is 0 the shift is 0 / tiny.
    shift = (q - p) / np.maximum(p + q - 2.0 * p * q, _TINY)
    step = float(grid[1] - grid[0]) if size > 1 else 0.0
    estimates = grid[cols]
    refined = estimates + shift * (0.5 * step)
    # At most half a step off its peak, only a refined estimate at column 0
    # can fall below the grid's start; it wraps up by G steps.
    refined[refined < grid[0]] += size * step
    ends = np.cumsum(np.minimum(found, m))
    est, ref = estimates.tolist(), refined.tolist()
    bounds = list(zip([0] + ends.tolist(), ends.tolist()))
    return ([tuple(est[a:b]) for a, b in bounds],
            [tuple(ref[a:b]) for a, b in bounds], (found < m).tolist())


def estimate_doas(s, r, m, grid_size=DEFAULT_GRID_SIZE):
    """Full coarray-MUSIC pass from a covariance matrix to DOA estimates.

    The lag means of r over the central segment, lags 0 .. u, are the first
    column of the Hermitian Toeplitz matrix T that toeplitz_augment
    builds, read as the same windows, and music_spectrum's stages run on
    T; so this gives the spectrum and estimates of the public chain
    coarray_autocorrelation -> toeplitz_augment -> music_spectrum ->
    pick_peaks bit for bit.  A covariance whose lag-0 mean is not real, of
    which T would not be Hermitian, is refused, as music_spectrum refuses
    such a T; _lag_means refuses non-finite entries.  A covariance of bools,
    strings or objects is refused.
    """
    _music_summary(s, m, grid_size)
    spectra, (estimates, refined, under) = _estimates(
        s, _numeric(r, "covariance")[None], m, grid_size)
    return MusicResult(grid=_grid(grid_size), spectrum=spectra[0],
                       estimates=estimates[0], refined=refined[0],
                       under_resolved=under[0])


def _estimates(s, r, m, grid_size):
    """estimate_doas on each covariance of the g x N x N stack r, after the
    checks of _music_summary: the g x grid_size stack of spectra and their
    peaks as _picked gives them."""
    plan, means = _lag_means(r, s)
    u = plan.summary.max_sources
    cols = means[:, plan.zero:plan.zero + u + 1]
    bad = np.flatnonzero(cols[:, 0].imag)
    if len(bad):
        raise InvalidParameterError(
            "need a Hermitian covariance: its lag-0 mean %r is not real"
            % cols[bad[0], 0])
    spectra = _spectra(_real_form(_toeplitz(cols)), m, grid_size)
    return spectra, _picked(_grid(grid_size), spectra, m)


def _rmse(estimates, truths):
    """RMSE on the circle [-0.5, 0.5): the sorted estimates are matched to
    the sorted truths under the cyclic shift with the least squared error,
    and each difference is wrapped to the nearest turn.  Wrapping leaves a
    difference below 0.5 in size unchanged, so when the unshifted match is
    best the result is the linear sorted-order RMSE bit for bit."""
    return float(_sorted_rmse(np.asarray(estimates)[None],
                              np.sort(np.asarray(truths)))[0])


def _sorted_rmse(estimates, tru):
    """_rmse of each row of the r x m stack estimates against truths tru
    that are already sorted: r values, each as _rmse gives it alone.  Shift
    s of a sorted row rolls it by s places, est[(j - s) mod m]: the window
    of its doubled row that starts at m - s, so the m shifts are windows
    m .. 1 of the doubled rows, read as a view: one step back per shift and
    one step on per place from the doubled row's column m."""
    est = np.sort(estimates, axis=1)
    r, m = est.shape
    doubled = np.concatenate((est, est), axis=1)
    row, step = doubled.strides
    d = as_strided(doubled[:, m:], (r, m, m), (row, -step, step),
                   writeable=False) - tru
    d -= np.rint(d)
    best = np.argmin(np.sum(d ** 2, axis=2), axis=1)
    return np.sqrt(np.mean(d[np.arange(len(d)), best] ** 2, axis=1))


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
    order.  Trial i's seed is default_rng(child i).integers(2 ** 63), read
    as PCG64(child i).random_raw() >> 1 without building a Generator: numpy
    draws an integer below 2^63 (Lemire's method) from one raw 64-bit draw
    and keeps its top 63 bits, so the two are equal.  The model covariance
    is factored once per batch, F F^H = R / 2, and each trial's sample
    covariance is W W^H / T, made exactly Hermitian as sample_covariance
    makes it, for the W = F L that _draw gives at the trial's seed: no
    snapshots are formed.  Trials run in groups (see the
    module docstring): one _draw call takes a group's trial seeds, one
    _gram call its stack of factors, and the MUSIC stages, up to the peaks
    and the RMSE, run once on its stack of covariances.  Only per-trial
    tuples of the results are kept, with a copy of the first trial's
    spectrum.  simulate at a trial's seed returns
    Y = W Q^H, so simulate -> sample_covariance -> estimate_doas gives the
    trial's spectrum and refined estimates to rounding; its grid estimates
    are the ones a spectrum that close picks, the same unless two spectrum
    values tie to within rounding.  Each trial is scored on its refined
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
    first = None
    for start in range(0, trials, group):
        seeds = [np.random.PCG64(child).random_raw() >> 1
                 for child in children[start:start + group]]
        r = _gram(_draw(f, t, seeds)[0], t)
        spectra, (estimates, refined, under) = _estimates(s, r, m, grid_size)
        if first is None:
            # A copy, so that the result does not keep the group's stack.
            first = MusicResult(grid=_grid(grid_size),
                                spectrum=spectra[0].copy(),
                                estimates=estimates[0], refined=refined[0],
                                under_resolved=under[0])
        per_est += estimates
        per_refined += refined
        scores = iter(_sorted_rmse(np.reshape(
            [x for x, low in zip(refined, under) if not low], (-1, m)),
            tru).tolist())
        per_rmse += [float("inf") if low else next(scores) for low in under]
    pooled_sq = [e ** 2 for e in per_rmse if e < float("inf")]
    rmse = float(np.sqrt(np.mean(pooled_sq))) if pooled_sq else float("inf")
    return TrialBatchResult(rmse=rmse,
                            per_trial_rmse=tuple(per_rmse),
                            per_trial_estimates=tuple(per_est),
                            per_trial_refined=tuple(per_refined),
                            resolved_trials=len(pooled_sq),
                            trials=trials,
                            seed=seed,
                            first_trial=first)
