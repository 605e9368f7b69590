"""Difference coarrays, weight functions, and central-ULA summaries.

Every view is read from one kernel, the pair graph of each lag l > 0: its
sensor pairs, by direct O(N^2) differencing.  The coarray is 0 and the
lags with an edge, with their negatives; w(0) = N, and w(l) = w(-l) is
the edge count of l's graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import InvalidParameterError

# summarize lists every hole, so it refuses a coarray with more than this.
_HOLE_LIMIT = 10 ** 6


def _pair_graphs(positions):
    """The pair graph of each lag l > 0 of sorted, distinct positions: a dict
    from l, in the order its first pair (i, j), i < j, is met by j and then
    i, to its edges as bitmasks 1 << i | 1 << j over sensor indices."""
    graphs = {}
    for j, b in enumerate(positions):
        for i in range(j):
            graphs.setdefault(b - positions[i], []).append(1 << i | 1 << j)
    if 0 in graphs:
        raise InvalidParameterError("sensor positions must be distinct")
    return graphs


@dataclass(frozen=True)
class Coarray:
    """Symmetric integer lag set with ordered-pair weights.

    weights(k) counts ordered sensor pairs at separation k, so the weight
    function is even, weights(0) equals the sensor count, and the weights
    sum to the squared sensor count.
    """

    lags: tuple
    weights: dict
    source_cardinality: int

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

    The positions may come in any order; repeated ones are refused."""
    pos = tuple(sorted(getattr(array, "positions", array)))
    weights = {0: len(pos)} if pos else {}
    for lag, g in _pair_graphs(pos).items():
        weights[lag] = weights[-lag] = len(g)
    return Coarray(lags=tuple(sorted(weights)),
                   weights=weights,
                   source_cardinality=len(pos))


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
