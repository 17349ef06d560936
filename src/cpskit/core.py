"""Core data model: observations, their column form, predictive bands, and
seeded random streams.

A predictive band stores the two extreme members (``tau = 0`` and ``tau = 1``)
of a randomized predictive distribution as piecewise-constant curves over the
response axis.  Everything defined here is immutable after construction, so
values can be shared freely between threads or processes.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "VALUE_TOL",
    "Observation",
    "ExtendedObservation",
    "Columns",
    "PredictiveBand",
    "RandomStream",
    "derive_stream",
]

# Band values are IEEE doubles built from small-integer count ratios; two
# values that are equal as rationals agree to far better than this.
VALUE_TOL = 1e-12


def _finite(value, what: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return v


_NUMBER = (int, float, np.integer, np.floating)  # one coordinate of a predictor


def _predictor(x) -> tuple[float, ...]:
    """``x`` read as a predictor, a tuple of finite floats: a number is one
    coordinate, and anything else but a string is a sequence of them."""
    if not isinstance(x, tuple):  # a tuple, as the harness passes, is neither
        if isinstance(x, _NUMBER):
            return (_finite(x, "predictor component"),)
        if isinstance(x, (str, bytes)):
            raise ValueError(f"a predictor is a number or a sequence of numbers, got {x!r}")
    xs = tuple([_finite(v, "predictor component") for v in x])
    if not xs:
        raise ValueError("predictor must have dimension >= 1")
    return xs


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return tau


class _Record:
    """Immutable value: setting or deleting an attribute raises.  Equality,
    hashing, ``repr`` and pickling go by ``_values``, the tuple of the values
    of the fields named in ``__slots__``; PredictiveBand, stored otherwise,
    defines its own."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values


class Observation(_Record):
    """A predictor vector paired with a real response.

    ``x`` is a number (a numpy scalar included) for a one-dimensional
    problem, or a sequence of finite numbers of dimension at least 1; a
    string is rejected.  It is stored as a tuple of floats so that
    observations stay hashable.
    """

    __slots__ = ("x", "y")
    _values = property(attrgetter(*__slots__))

    def __init__(self, x, y):
        object.__setattr__(self, "x", _predictor(x))
        object.__setattr__(self, "y", _finite(y, "response"))

    @property
    def d(self) -> int:
        """Predictor dimension."""
        return len(self.x)


class ExtendedObservation(_Record):
    """An observation carrying a tie-break number ``theta`` in [0, 1]."""

    __slots__ = ("obs", "theta")
    _values = property(attrgetter(*__slots__))

    def __init__(self, obs, theta):
        if not isinstance(obs, Observation):
            raise TypeError("obs must be an Observation")
        t = _finite(theta, "theta")
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {t}")
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "theta", t)

    @property
    def x(self) -> tuple[float, ...]:
        return self.obs.x

    @property
    def y(self) -> float:
        return self.obs.y


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _checked(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 ``xs[n, d]`` (or ``xs[n]``, read as ``d = 1``) and ``ys[n]``, checked finite."""
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if xs.ndim != 2 or ys.ndim != 1 or len(xs) != len(ys):
        raise ValueError(
            f"need xs[n, d] and ys[n], got shapes {xs.shape} and {ys.shape}"
        )
    if xs.shape[1] < 1:
        raise ValueError("predictor must have dimension >= 1")
    if not np.isfinite(xs).all():
        raise ValueError("predictor components must be finite")
    if not np.isfinite(ys).all():
        raise ValueError("responses must be finite")
    return xs, ys


class Columns:
    """Observations in column form: float64 predictors ``xs[n, d]`` and
    responses ``ys[n]``.

    Construction copies the inputs, checks shape and finiteness once, and
    freezes the arrays.  A one-dimensional ``xs`` is read as ``d = 1``.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        self.xs, self.ys = _checked(_frozen(xs), _frozen(ys))

    @classmethod
    def _own(cls, xs: np.ndarray, ys: np.ndarray) -> "Columns":
        """Columns of float64 arrays that a sampler has just made and nothing
        else writes: checked as the constructor checks its copies, not copied."""
        return cls._adopt(*_checked(xs, ys))

    @classmethod
    def _adopt(cls, xs: np.ndarray, ys: np.ndarray) -> "Columns":
        """Columns of checked float64 arrays ``xs[n, d]`` and ``ys[n]``, frozen, not copied."""
        out = object.__new__(cls)
        xs.flags.writeable = ys.flags.writeable = False
        out.xs, out.ys = xs, ys
        return out

    @classmethod
    def from_observations(cls, observations: Sequence) -> "Columns":
        """Columns of a sequence of observations (plain or extended)."""
        return cls([o.x for o in observations], [o.y for o in observations])

    @property
    def d(self) -> int:
        """Predictor dimension."""
        return self.xs.shape[1]

    def __len__(self) -> int:
        return len(self.ys)

    def head(self, k: int) -> "Columns":
        """The first ``k`` rows, sharing the (frozen, checked) arrays."""
        return Columns._adopt(self.xs[:k], self.ys[:k])

    def row(self, i: int) -> Observation:
        """Row ``i`` as an Observation."""
        return Observation(self.xs[i].tolist(), self.ys[i])

    def observations(self) -> list[Observation]:
        """Every row as an Observation, in order."""
        return list(map(Observation, self.xs.tolist(), self.ys.tolist()))


_BAND_FIELDS = ("jumps", "lower", "upper", "at_jump_lower", "at_jump_upper")


def _reprs(*values: np.ndarray) -> list[list[str]]:
    """``repr`` of every entry of each array, one list per array.  A rank
    band of ``m`` jumps has about ``m`` distinct values among its ``4m + 2``
    value entries, so each is formatted once, keyed by its float64 bits
    (``-0.0`` and ``0.0`` stay apart)."""
    keys, where = np.unique(np.concatenate(values).view(np.int64), return_inverse=True)
    distinct = list(map(repr, keys.view(np.float64).tolist()))
    texts = np.array(distinct, dtype=object)[where].tolist()
    bounds = np.cumsum([0] + [len(a) for a in values]).tolist()
    return [texts[a:b] for a, b in zip(bounds, bounds[1:])]


class PredictiveBand(_Record):
    """Piecewise-constant lower/upper distribution-function pair.

    The band encodes ``Q_tau(y) = Q_0(y) + tau * (Q_1(y) - Q_0(y))`` for all
    ``tau`` in [0, 1].  ``jumps`` is the strictly increasing list of jump
    locations; ``lower`` and ``upper`` hold the plateau values of ``Q_0`` and
    ``Q_1`` on the ``len(jumps) + 1`` open intervals between consecutive jumps
    (the first and last extend to -inf and +inf); ``at_jump_lower`` and
    ``at_jump_upper`` hold the values at the jump locations themselves, which
    may be wider than the adjacent plateaus.

    The band is stored as ``arrays``, the five fields in that order as
    read-only float64 arrays, copied from the arguments.  The attributes of
    the same names are tuple views of them, built on first access.
    Equality and hashing compare values, so ``-0.0`` equals ``0.0``.

    Construction validates all structural invariants: values in [0, 1],
    ``lower <= upper`` pointwise, monotonicity in ``y`` of both curves, and
    extreme plateaus 0 and 1.
    """

    jumps, lower, upper, at_jump_lower, at_jump_upper = (
        cached_property(lambda band, k=k: tuple(band.arrays[k].tolist())) for k in range(5)
    )

    def __init__(self, jumps, lower, upper, at_jump_lower, at_jump_upper):
        arrays = tuple(map(_frozen, (jumps, lower, upper, at_jump_lower, at_jump_upper)))
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("band fields must be one-dimensional sequences")
        object.__setattr__(self, "arrays", arrays)
        self.validate()

    @classmethod
    def _adopt(cls, *arrays: np.ndarray) -> "PredictiveBand":
        """The band of a builder's own fresh 1-D float64 arrays, frozen, not copied."""
        for a in arrays:
            a.flags.writeable = False
        band = object.__new__(cls)
        object.__setattr__(band, "arrays", arrays)
        band.validate()
        return band

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self.arrays, other.arrays))

    def __hash__(self):
        # Adding 0.0 turns -0.0 into 0.0, so equal bands hash equal bytes.
        return hash(tuple((a + 0.0).tobytes() for a in self.arrays))

    def __repr__(self):
        views = ", ".join(f"{k}={getattr(self, k)!r}" for k in _BAND_FIELDS)
        return f"PredictiveBand({views})"

    def __reduce__(self):
        return PredictiveBand, self.arrays

    def validate(self) -> None:
        """Re-check every structural invariant; raises ValueError on failure.

        Exact comparisons of neighbouring values accept a band whose curves
        are monotone and ordered without tolerance, as every builder's are.
        Any other band is checked against each invariant in turn, with
        ``VALUE_TOL``, and the first one violated is named.
        """
        jumps, lower, upper, ajl, aju = self.arrays
        m = len(jumps)
        if len(lower) != m + 1 or len(upper) != m + 1:
            raise ValueError("plateau lists must have len(jumps) + 1 entries")
        if len(ajl) != m or len(aju) != m:
            raise ValueError("at-jump lists must have len(jumps) entries")
        # Strictly increasing jumps with finite ends are all finite.  Every
        # value enters a comparison, which fails on NaN; with both curves
        # monotone and Q_0 <= Q_1, all values lie in [lower[0], upper[-1]].
        # The comparisons fill one buffer, which one reduction reads.
        if (
            (m == 0 or math.isfinite(jumps.item(0)) and math.isfinite(jumps.item(-1)))
            and abs(lower.item(0)) <= VALUE_TOL
            and abs(upper.item(-1) - 1.0) <= VALUE_TOL
        ):
            ok, at = np.empty(7 * m + 1, dtype=bool), 0
            for compare, a, b in (
                (np.less, jumps[:-1], jumps[1:]),
                (np.less_equal, lower, upper), (np.less_equal, ajl, aju),
                (np.less_equal, lower[:-1], ajl), (np.less_equal, ajl, lower[1:]),
                (np.less_equal, upper[:-1], aju), (np.less_equal, aju, upper[1:]),
            ):
                compare(a, b, out=ok[at : at + len(a)])
                at += len(a)
            if ok[:at].all():
                return
        tol, values = VALUE_TOL, np.concatenate((lower, upper, ajl, aju))
        for bad, message in (
            (~np.isfinite(jumps), "jump locations must be finite"),
            (jumps[1:] <= jumps[:-1], "jumps must be strictly increasing"),
            (~((values >= -tol) & (values <= 1.0 + tol)), "band value {v!r} outside [0, 1]"),
            (lower > upper + tol, "lower plateau exceeds upper plateau"),
            (ajl > aju + tol, "lower jump value exceeds upper jump value"),
            ((lower[:-1] > ajl + tol) | (ajl > lower[1:] + tol),
             "lower curve is not monotone at jump {k}"),
            ((upper[:-1] > aju + tol) | (aju > upper[1:] + tol),
             "upper curve is not monotone at jump {k}"),
            (abs(lower[:1]) > tol, "leftmost lower plateau must be 0"),
            (abs(upper[-1:] - 1.0) > tol, "rightmost upper plateau must be 1"),
        ):
            if bad.any():
                k = int(bad.argmax())
                raise ValueError(message.format(k=k, v=values.item(k)))

    def evaluate(self, y: float, tau: float) -> float:
        """Value of ``Q_tau`` at ``y``; linear in ``tau`` with slope >= 0."""
        tau = _check_tau(tau)
        y = _finite(y, "query response")
        jumps, lower, upper, ajl, aju = self.arrays
        i = bisect.bisect_left(jumps, y)
        if i < len(jumps) and jumps.item(i) == y:
            lo, hi = ajl.item(i), aju.item(i)
        else:
            lo, hi = lower.item(i), upper.item(i)
        return lo + tau * (hi - lo)

    def slack(self, y: float) -> float:
        """Randomization width ``Q_1(y) - Q_0(y)`` at ``y``."""
        return self.evaluate(y, 1.0) - self.evaluate(y, 0.0)

    def integrate(self, f: Callable, tau: float = 0.0) -> float:
        """Integral of ``f`` against the measure of right-limit increments.

        The measure places mass ``Q_tau(j_k+) - Q_tau(j_{k-1}+)`` at jump
        ``j_k`` (right limits, i.e. plateau differences) and no mass at
        +-inf; when the extreme limits are not 0 and 1 the result is a
        sub-probability integral.

        ``f`` is called once on the float64 array of jump locations (a
        scalar result is broadcast); an integrand that rejects arrays with a
        TypeError or ValueError, such as ``math.cos``, is called per jump.
        The terms are summed in jump order, so the result does not depend on
        which of the two ways ``f`` was called.
        """
        tau = _check_tau(tau)
        jumps, lower, upper = self.arrays[:3]
        if not len(jumps):
            return 0.0
        try:
            values = np.asarray(f(jumps), dtype=np.float64)
            if values.shape != jumps.shape:
                values = np.broadcast_to(values, jumps.shape)
        except (TypeError, ValueError):
            values = np.array([float(f(y)) for y in jumps.tolist()])
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"integrand is not finite at jump {jumps.item(bad.argmax())!r}")
        q = lower + tau * (upper - lower)
        # cumsum adds left to right like a loop from 0.0; adding 0.0 turns
        # the one possible difference, a -0.0 total, into the loop's 0.0.
        return float(np.cumsum(values * (q[1:] - q[:-1]))[-1]) + 0.0

    def is_distribution_function(self) -> bool:
        """True when lower and upper coincide everywhere (no tau slack)."""
        _, lower, upper, ajl, aju = self.arrays
        return np.array_equal(lower, upper) and np.array_equal(ajl, aju)

    def to_dict(self) -> dict:
        return {k: a.tolist() for k, a in zip(_BAND_FIELDS, self.arrays)}

    @classmethod
    def from_dict(cls, d: dict) -> "PredictiveBand":
        return cls(*(d[k] for k in _BAND_FIELDS))

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, byte for byte: every value is
        finite, and ``json`` writes a finite float as its ``repr``."""
        jumps, *values = self.arrays
        fields = (map(repr, jumps.tolist()), *_reprs(*values))
        return "{" + ", ".join(f'"{k}": [{", ".join(t)}]' for k, t in zip(_BAND_FIELDS, fields)) + "}"

    @classmethod
    def from_json(cls, s: str) -> "PredictiveBand":
        import json

        return cls.from_dict(json.loads(s))

    def to_csv(self) -> str:
        """The at-jump table: a ``y,lower,upper`` header, then one line per
        jump with its location and ``Q_0``, ``Q_1`` there."""
        jumps, _, _, ajl, aju = self.arrays
        rows = zip(map(repr, jumps.tolist()), *_reprs(ajl, aju))
        return "\n".join(["y,lower,upper", *map(",".join, rows)]) + "\n"


def _integer(value, what: str) -> int:
    """``value`` as an int, if it is a Python or numpy integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class RandomStream:
    """Deterministic uniform stream addressed by a seed and a derivation path.

    Distinct paths under the same master seed give independent streams; the
    same (seed, path) pair always replays the same sequence of draws.  The
    seed is a Python or numpy integer, taken modulo ``2**64``; so are the
    path entries, ``child`` indices and the counts of ``uniforms``, ``skip``
    and ``permutation``, without the modulo.  Any other value, a float, a
    bool or a string included, raises ValueError naming it.
    """

    __slots__ = ("seed", "path", "draws", "_gen")

    def __init__(self, seed: int, path: Sequence[int] = ()):
        self.seed = _integer(seed, "seed") % (1 << 64)
        self.path = tuple([_integer(p, "derivation path entry") for p in path])
        if any(p < 0 for p in self.path):
            raise ValueError("derivation path entries must be non-negative")
        self.draws = 0
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        self.draws += 1
        return float(self._gen.random())

    def uniforms(self, k: int) -> np.ndarray:
        """``k`` draws from U[0, 1) as a float64 array."""
        out = self._gen.random(_integer(k, "draw count"))
        self.draws += len(out)
        return out

    def skip(self, k: int) -> None:
        """Count and move past the ``k`` draws of ``uniforms(k)`` without making them."""
        k = _integer(k, "draw count")
        if k < 0:
            raise ValueError(f"cannot skip {k} draws")
        self._gen.bit_generator.advance(k)  # a double takes one 64-bit state step
        self.draws += k

    def permutation(self, k: int) -> list[int]:
        """A uniformly random permutation of range(k)."""
        k = _integer(k, "permutation size")
        if k < 0:
            raise ValueError(f"cannot permute {k} items")
        self.draws += 1
        return [int(i) for i in self._gen.permutation(k)]

    def child(self, *indices: int) -> "RandomStream":
        """Independent sub-stream at ``path + indices``."""
        return RandomStream(self.seed, self.path + indices)

    def replica(self) -> "RandomStream":
        """Fresh stream at the same (seed, path), replaying from the start."""
        return RandomStream(self.seed, self.path)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path}, draws={self.draws})"


def derive_stream(master_seed: int, path: Sequence[int] = ()) -> RandomStream:
    """Stream for ``(master_seed, path)``; deterministic and replayable."""
    return RandomStream(master_seed, path)
