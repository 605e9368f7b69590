"""Difference coarrays, weight functions, and central-ULA summaries.

Every view is read from one kernel, found by direct O(N^2) differencing:
for each sensor j of the sorted positions, the row of lags
p_j - p_i over the sensors i below it.  The coarray is 0 and the lags in
some row, with their negatives; w(0) = N, and w(l) = w(-l) is the number
of rows' entries equal to l.  The rows are counted one at a time and only
the counts are kept, so the views take memory in the number of lags, not
in the number of pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .geometry import InvalidParameterError, _integers

# summarize lists every hole, so it refuses a coarray with more than this.
_HOLE_LIMIT = 10 ** 6


def _positions(array):
    """Sorted positions of an array or a sequence, read by _integers."""
    return tuple(sorted(_integers(getattr(array, "positions", array),
                                  "sensor positions")))


def _lag_rows(positions):
    """For each sensor j of sorted positions, the list of lags
    positions[j] - positions[i] over i < j, in the order of i.  A lag of 0,
    from a repeated position, is refused."""
    for j, b in enumerate(positions):
        row = [b - a for a in positions[:j]]
        if 0 in row:
            raise InvalidParameterError("sensor positions must be distinct")
        yield row


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
    # One Counter.update over the rows, which are made one at a time.
    counts = Counter(chain.from_iterable(_lag_rows(pos)))
    weights = {0: len(pos)}
    for lag, count in counts.items():
        weights[lag] = weights[-lag] = count
    return Coarray(lags=tuple(sorted(weights)), weights=weights)


def lag_set(array):
    """The coarray lag set alone (weights ignored)."""
    return difference_coarray(array).lag_set()


def summarize(c):
    """Central contiguous segment [-u, u], holes, and source capacity.

    max_sources is u: a hole-free central segment of 2u+1 lags supports up
    to u sources through the coarray MUSIC pipeline.  The holes, the
    aperture less the len(lags) // 2 positive lags, are counted first.
    """
    lags = c.lag_set()
    aperture = max(lags)
    hole_count = aperture - len(lags) // 2
    if hole_count > _HOLE_LIMIT:
        raise InvalidParameterError(
            "the coarray of these positions has %d holes, more than the %d "
            "that summarize lists" % (hole_count, _HOLE_LIMIT))
    holes = tuple(k for k in range(1, aperture + 1) if k not in lags)
    u = holes[0] - 1 if holes else aperture
    return CoarraySummary(ula_segment=(-u, u),
                          hole_free=not holes,
                          aperture=aperture,
                          max_sources=u,
                          holes=holes)


def coarrays_equal(a, b):
    """True when the two arrays generate identical lag sets (weights ignored)."""
    return lag_set(a) == lag_set(b)
