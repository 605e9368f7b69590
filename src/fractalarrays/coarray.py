"""Difference coarrays, weight functions, and central-ULA summaries.

Positions are checked once.  A SensorArray's are taken as they are, since
the type already holds them as strictly increasing non-negative integers;
any other input is read by ``_sensor_positions``, which refuses a
non-integer or repeated position, and sorted by ``_positions``.  Every
view is then read from one kernel, the bare O(N^2) differencing loop: for
each sensor j of the sorted positions, the lags p_j - p_i over the sensors
i below it.  The coarray is 0 and the lags in some row, with their
negatives; w(0) = N, and w(l) = w(-l) is the number of rows' entries equal
to l.  Each view runs the kernel once per call and subtracts in its own
loop: difference_coarray counts the positive lags into a Counter, lag_set
adds them to a set.  The rows are slices of the positions, made one at a
time, and only the counts (for lag_set, only the lags) are kept, so the
views take memory in the number of lags, not in the number of pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import neg

from .geometry import InvalidParameterError, SensorArray, _integers

# summarize lists every hole, so it refuses a coarray with more than this.
_HOLE_LIMIT = 10 ** 6


def _sensor_positions(array):
    """Distinct positions of an array or a sequence, in their given order:
    a SensorArray's as they are, anything else read by _integers, with a
    repeated position refused."""
    if isinstance(array, SensorArray):
        return array.positions
    pos = _integers(getattr(array, "positions", array), "sensor positions")
    if len(set(pos)) < len(pos):
        raise InvalidParameterError("sensor positions must be distinct")
    return pos


def _positions(array):
    """_sensor_positions, sorted (a SensorArray's already are)."""
    pos = _sensor_positions(array)
    return pos if isinstance(array, SensorArray) else tuple(sorted(pos))


def _lag_rows(positions):
    """For each sensor j of the sorted, distinct positions that _positions
    returns, the pair (positions[j], positions[:j]): row j's lags are
    positions[j] - a over the a below it, in their order, and each caller
    subtracts them in its own loop.  The positions are not checked again
    here."""
    for j, b in enumerate(positions):
        yield b, positions[:j]


@dataclass(frozen=True)
class Coarray:
    """Symmetric integer lag set with ordered-pair weights.

    weights(k) counts ordered sensor pairs at separation k, so the weight
    function is even, weights(0) equals the sensor count, and the weights
    sum to the squared sensor count.
    """

    lags: tuple
    weights: dict

    def lag_set(self):
        return frozenset(self.lags)

    def weight(self, k):
        return self.weights.get(k, 0)

    def to_dict(self):
        summary = summarize(self)
        return {
            "lags": list(self.lags),
            "weights": {str(k): v for k, v in sorted(self.weights.items())},
            "ula_segment": list(summary.ula_segment),
            "holes": list(summary.holes),
            "hole_free": summary.hole_free,
        }


@dataclass(frozen=True)
class CoarraySummary:
    """Central ULA segment, aperture, and holes of a difference coarray."""

    ula_segment: tuple
    hole_free: bool
    aperture: int
    max_sources: int
    holes: tuple


def difference_coarray(array):
    """All pairwise position differences with ordered-pair multiplicities.

    The positions may come in any order and may be negative; they must be
    integers, at least one, and distinct.  A float or a bool is refused, not
    coerced."""
    pos = _positions(array)
    counts = Counter(b - a for b, below in _lag_rows(pos) for a in below)
    weights = {0: len(pos)}
    for lag, count in counts.items():
        weights[lag] = weights[-lag] = count
    return Coarray(lags=tuple(sorted(weights)), weights=weights)


def lag_set(array):
    """The coarray lag set alone (weights ignored), equal to
    difference_coarray(array).lag_set(); the positive lags are read from the
    kernel's rows into one set, and no weight is counted."""
    positive = {b - a for b, below in _lag_rows(_positions(array))
                for a in below}
    return frozenset(chain((0,), positive, map(neg, positive)))


def _segment_bound(lags):
    """u of the central segment [-u, u] of a coarray's sorted lags: the
    least missing positive lag less 1, or the aperture when none is missing.
    Lag k sits at lags[len(lags) // 2 + k] exactly when 1 .. k are all
    there, so u is found by bisection, and no hole is listed."""
    pos = lags[len(lags) // 2:]
    return bisect_left(range(1, len(pos)), True, key=lambda k: pos[k] > k)


def summarize(c):
    """Central contiguous segment [-u, u], holes, and source capacity.

    max_sources is u: a hole-free central segment of 2u+1 lags supports up
    to u sources through the coarray MUSIC pipeline.  The holes, the
    aperture less the len(lags) // 2 positive lags, are counted first, and
    1..aperture is scanned for them only when there is one.
    """
    aperture = max(c.lags)
    hole_count = aperture - len(c.lags) // 2
    if hole_count > _HOLE_LIMIT:
        raise InvalidParameterError(
            "the coarray of these positions has %d holes, more than the %d "
            "that summarize lists" % (hole_count, _HOLE_LIMIT))
    holes = ()
    if hole_count:
        lags = c.lag_set()
        holes = tuple(k for k in range(1, aperture + 1) if k not in lags)
    u = _segment_bound(c.lags)
    return CoarraySummary(ula_segment=(-u, u),
                          hole_free=not holes,
                          aperture=aperture,
                          max_sources=u,
                          holes=holes)


def coarrays_equal(a, b):
    """True when the two arrays generate identical lag sets (weights ignored)."""
    return lag_set(a) == lag_set(b)
