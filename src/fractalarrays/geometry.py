"""Sparse and fractal linear array geometries on the half-wavelength grid.

All sensor positions are exact non-negative integers in units of the base
inter-element spacing d1 = lambda/2.  The cross-sum of a sparse subarray
with a scaled Cantor subarray produces the sparse fractal arrays analysed
by the rest of the library.  Every integer input of the library (positions,
sizes, counts, seeds, k) is read by _as_ints here: 1.0 and True are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index, lt

import numpy as np


class InvalidParameterError(ValueError):
    """A generator was called with parameters outside its domain."""


def _as_ints(values):
    """The tuple of values as Python ints, or () when one is not an integer:
    operator.index must take it, and a bool or numpy bool (True is an int to
    Python) is refused by its type."""
    try:
        ints = tuple(map(index, values))
    except TypeError:
        return ()
    return ints if {bool, np.bool_}.isdisjoint(map(type, values)) else ()


def _check_count(value, what, low=1, high=None):
    """Refuse a value that is not an integer in [low, high] (None: no cap)."""
    n = _as_ints((value,))
    if not n or n[0] < low or high is not None and n[0] > high:
        raise InvalidParameterError("%s must be a %s integer%s%s, got %r" % (
            what, "non-negative" if low == 0 else "positive",
            " >= %d" % low if low > 1 else "",
            "" if high is None else " <= %d" % high, value))


def _integers(values, what):
    """values as a non-empty tuple of Python ints; anything else, a value
    that is not a sequence among them, is refused."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidParameterError(
            "%s must be one or more integers, got %r" % (what, values)) from None
    ints = _as_ints(values)
    if not ints:
        raise InvalidParameterError(
            "%s must be one or more integers, got %r" % (what, values))
    return ints


@dataclass(frozen=True)
class SensorArray:
    """An immutable, named set of integer sensor positions.

    Positions are strictly increasing non-negative integers in units of d1,
    at most 2**63 - 1 so that numpy holds them as int64; a position that is
    not an integer, such as 1.7, 1.0 or a bool, is rejected, not coerced.
    ``kind`` is a free-form family tag (ULA, Nested, Coprime, ANA1, ANA2,
    SuperNested, Cantor, SFA, or custom); it and ``label`` must be strings.
    """

    positions: tuple
    kind: str = "custom"
    label: str = ""

    def __post_init__(self):
        pos = _integers(self.positions, "sensor positions")
        if not isinstance(self.kind, str) or not isinstance(self.label, str):
            raise InvalidParameterError(
                "kind and label must be strings, got %r and %r"
                % (self.kind, self.label))
        if min(pos) < 0 or max(pos) >= 2 ** 63:
            raise InvalidParameterError(
                "sensor positions must be non-negative and fit in int64")
        if not all(map(lt, pos, pos[1:])):
            raise InvalidParameterError(
                "sensor positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)

    def __len__(self):
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    @property
    def aperture(self):
        """Distance between the first and last sensor."""
        return self.positions[-1] - self.positions[0]

    def remove(self, sensors):
        """Return a copy with the given sensor positions deleted.

        ``sensors`` is a non-empty sequence of integer positions, read as
        the positions themselves are: 8.0 or True is refused, not taken
        for sensor 8 or 1, and the label names them as Python ints.
        """
        drop = set(_integers(sensors, "sensors to remove"))
        missing = drop - set(self.positions)
        if missing:
            raise InvalidParameterError(
                "cannot remove absent sensors: %s" % sorted(missing))
        kept = tuple(p for p in self.positions if p not in drop)
        return SensorArray(kept, kind=self.kind,
                           label=self.label + " minus %s" % sorted(drop))

    def to_dict(self):
        return {"label": self.label, "kind": self.kind,
                "positions": list(self.positions)}

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; ``d`` must be a dict with a positions list."""
        if not isinstance(d, dict) or not isinstance(d.get("positions"),
                                                     (list, tuple)):
            raise InvalidParameterError(
                "geometry must be an object with a 'positions' list")
        return cls(tuple(d["positions"]), kind=d.get("kind", "custom"),
                   label=d.get("label", ""))


def gen_ula(n):
    """Uniform linear array with sensors at 0 .. n-1."""
    _check_count(n, "ULA sensor count n")
    return SensorArray(tuple(range(n)), kind="ULA", label="ULA(%d)" % n)


def _nested_split(n):
    if n % 2 == 0:
        return n // 2, n // 2
    return (n - 1) // 2, (n + 1) // 2


def gen_nested(n):
    """Two-level nested array: dense ULA {1..N1} plus sparse {m(N1+1)}.

    N1 = N2 = n/2 for even n, N1 = (n-1)/2 and N2 = (n+1)/2 for odd n.
    """
    _check_count(n, "nested array size n", low=2)
    n1, n2 = _nested_split(n)
    pos = set(range(1, n1 + 1)) | {m * (n1 + 1) for m in range(1, n2 + 1)}
    return SensorArray(tuple(sorted(pos)), kind="Nested",
                       label="Nested(%d)" % n)


def gen_coprime(m, n):
    """Prototype coprime array {m*i : i < n} U {n*j : j < 2m}, 2m+n-1 sensors."""
    _check_count(m, "coprime m")
    _check_count(n, "coprime n")
    if m >= n or gcd(m, n) != 1:
        raise InvalidParameterError(
            "coprime array needs coprime integers with 0 < m < n")
    pos = {m * i for i in range(n)} | {n * j for j in range(2 * m)}
    return SensorArray(tuple(sorted(pos)), kind="Coprime",
                       label="Coprime(%d,%d)" % (m, n))


def gen_ana1(n):
    """Augmented nested array, Gen-I arrangement.

    The dense ULA of the parent nested array is split into left and right
    pieces placed on both sides of the sparse subarray: floor(N1/2) sensors
    stay at 1..floor(N1/2) and ceil(N1/2) sensors move beyond the last
    sparse element.
    """
    return _gen_ana(n, right_heavy=True, kind="ANA1")


def gen_ana2(n):
    """Augmented nested array, Gen-II arrangement (heavier left piece)."""
    return _gen_ana(n, right_heavy=False, kind="ANA2")


def _gen_ana(n, right_heavy, kind):
    _check_count(n, "augmented nested array size n", low=6)
    n1, n2 = _nested_split(n)
    small, big = n1 // 2, n1 - n1 // 2
    left, right = (small, big) if right_heavy else (big, small)
    top = n2 * (n1 + 1)
    pos = (set(range(1, left + 1))
           | {m * (n1 + 1) for m in range(1, n2 + 1)}
           | {top + l for l in range(1, right + 1)})
    return SensorArray(tuple(sorted(pos)), kind=kind,
                       label="%s(%d)" % (kind, n))


def gen_super_nested(n1, n2):
    """Second-order super-nested array with the nested(n1, n2) coarray.

    Liu & Vaidyanathan, "Super Nested Arrays: Linear Sparse Arrays With
    Reduced Mutual Coupling -- Part I", IEEE TSP 2016.  The dense ULA
    {1..n1} of the parent nested(n1, n2) array is rearranged into four runs
    of spacing 2, two on either side of n1+1, and the first sparse element
    n1+1 moves to n2(n1+1)-1, next to the last one.  The difference
    coarray is unchanged, while the unit-spacing pairs drop to one (odd
    n1) or two (even n1) once n1 >= 4 and n2 >= 3.  With g = n1+1 and
    (A1, B1, A2, B2) set by n1 mod 4, the positions are
    {1+2l : l <= A1}, {g-1-2l : l <= B1}, {g+2+2l : l <= A2},
    {2g-2-2l : l <= B2}, {lg : 2 <= l <= n2} and {n2 g - 1}, all l >= 0.
    n1 = 2 leaves nothing to rearrange, so it returns the parent nested
    array itself.

    For n1 >= 3 the six runs are disjoint, so there are n1 + n2 sensors,
    as for n1 = 2.  The first two lie in [1, g - 1], the first odd and the
    second of n1's parity; for odd n1 the first ends below the second, as
    2 (A1 + B1) < n1 - 1.  The next two lie in [g + 2, 2g - 2], the third
    of g's parity and the fourth even; for odd n1 the third ends below the
    fourth, as 2 (A2 + B2) < n1 - 3.  The sparse run is the multiples of g
    from 2g, and n2 g - 1 > 2g - 2 is no multiple of g.  A run with bound
    A holds A + 1 positions (none at A = -1), and
    A1 + B1 + A2 + B2 + 4 = n1 for every n1 mod 4.
    """
    _check_count(n1, "super-nested n1", low=2)
    _check_count(n2, "super-nested n2", low=2)
    g = n1 + 1
    if n1 == 2:
        pos = {1, 2} | {l * g for l in range(1, n2 + 1)}
    else:
        r, q = divmod(n1, 4)
        a1, b1, a2, b2 = {0: (r, r - 1, r - 1, r - 2),
                          1: (r, r - 1, r - 1, r - 1),
                          2: (r + 1, r - 1, r, r - 2),
                          3: (r, r, r, r - 1)}[q]
        pos = ({1 + 2 * l for l in range(a1 + 1)}
               | {g - 1 - 2 * l for l in range(b1 + 1)}
               | {g + 2 + 2 * l for l in range(a2 + 1)}
               | {2 * g - 2 - 2 * l for l in range(b2 + 1)}
               | {l * g for l in range(2, n2 + 1)}
               | {n2 * g - 1})
    return SensorArray(tuple(sorted(pos)), kind="SuperNested",
                       label="SuperNested(%d,%d)" % (n1, n2))


def gen_cantor(r):
    """Cantor fractal array at scale r: C1 = {0,1}, C_{r+1} = C_r U (C_r + 3^r)."""
    _check_count(r, "Cantor scale r")
    pos = [0, 1]
    step = 3
    for _ in range(r - 1):
        pos = pos + [p + step for p in pos]
        step *= 3
    return SensorArray(tuple(pos), kind="Cantor", label="Cantor(%d)" % r)


def _sorted_sums(xs, ys, label):
    """The sorted distinct sums x + y over the positions xs and ys, and
    label with the count of pairs that landed on a sum already taken."""
    sums = tuple(sorted({x + y for x in xs for y in ys}))
    collisions = len(xs) * len(ys) - len(sums)
    if collisions:
        label += " [%d collisions]" % collisions
    return sums, label


def cross_sum(a, b):
    """All pairwise sums of two arrays, as a deduplicated sorted set.

    Collisions (pairs landing on the same position) are silently merged;
    their count is recorded in the label so a shrunken SFA is visible at
    a glance.
    """
    sums, label = _sorted_sums(a.positions, b.positions, "%s (+) %s" % (
        a.label or a.kind, b.label or b.kind))
    return SensorArray(sums, kind="custom", label=label)


# Sparse subarray families of an SFA: generator and its parameter names.
_SFA_FAMILIES = {
    "ula": (gen_ula, ("n",)),
    "nested": (gen_nested, ("n",)),
    "coprime": (gen_coprime, ("m", "n")),
    "ana1": (gen_ana1, ("n",)),
    "ana2": (gen_ana2, ("n",)),
    "super_nested": (gen_super_nested, ("n1", "n2")),
}


def make_sfa(kind, params, fractal_scale=1):
    """Sparse fractal array: subarray 1 cross-summed with a scaled Cantor set.

    Subarray 1 is family ``kind`` built from ``params``, which must name
    exactly that family's parameters.  Subarray 2 is
    gen_cantor(fractal_scale) expanded by d2 = 2M + 1 where M is the sensor
    count of subarray 1, so the two lattices interleave without wasting
    aperture.  It equals cross_sum(sub1, sub2) relabelled, with only sub1,
    the Cantor array and the SFA itself built as SensorArrays.
    """
    if kind not in _SFA_FAMILIES:
        raise InvalidParameterError(
            "unknown subarray family %r (choose from %s)"
            % (kind, sorted(_SFA_FAMILIES)))
    generator, names = _SFA_FAMILIES[kind]
    if set(params) != set(names):
        raise InvalidParameterError(
            "subarray family %r takes parameters %s, got %s"
            % (kind, list(names), list(params)))
    _check_count(fractal_scale, "fractal scale")
    sub1 = generator(*(params[p] for p in names))
    d2 = 2 * len(sub1) + 1
    sub2 = [p * d2 for p in gen_cantor(fractal_scale).positions]
    sums, label = _sorted_sums(sub1.positions, sub2, "SFA[%s, r=%d]" % (
        sub1.label, fractal_scale))
    return SensorArray(sums, kind="SFA", label=label)
