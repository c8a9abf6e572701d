"""Per-server latency models.

Each server is described by a fixed two-way path delay ``d`` (seconds), a
service rate ``mu`` (jobs/second) and, for the general single-server queue,
the coefficient of variation ``cv`` of its service time.  The mean latency
seen by traffic offered at rate ``x`` is

    l(x) = d + (1/mu) * (1 + a * x / (mu - x)),    a = (1 + cv^2)/2

which reduces to ``d + 1/(mu - x)`` for cv=1 (exponential service) and to
the deterministic-service form for cv=0.  ``ServerSpec`` derives ``a`` and
l(0) = d + 1/mu (``z0``) once, at construction.  The marginal cost

    h(x) = l(x) + x * l'(x)

is the quantity equalized across active servers at the socially optimal
split.  Both functions are strictly increasing and convex on [0, mu) and
are inverted in closed form.

A user-supplied curve is bisected on [0, mu (1 - eps_sat)], to ``resolution``
or to the last bit of the rate, whichever is coarser, by a ``_UserInverse``
walker: a public inverse walks a fresh one once, and a solve keeps one per
user curve, which resumes each walk where the new target leaves the last
one's path and walks only until the sign the solve asks for is settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import DomainError, InversionError, SaturationError

EPS_SAT = 1e-9  # evaluations are kept at or below mu * (1 - EPS_SAT)
DEFAULT_RESOLUTION = 1e-12  # rate-axis resolution of numeric inversions
_NEG_INF = -math.inf


class QueueModel(str, Enum):
    MM1 = "mm1"
    MG1 = "mg1"
    MD1 = "md1"
    GENERIC = "generic"


# Looking a member up on the enum class costs about 0.1 us, which the curve
# functions below would pay on every call.
_MM1 = QueueModel.MM1
_GENERIC = QueueModel.GENERIC


@dataclass(frozen=True)
class GenericLatencyModel:
    """User-supplied latency curve and its analytic derivative.

    ``latency_fn`` maps an offered rate in [0, mu) to seconds and must be
    strictly increasing and convex with latency_fn(0) = d + 1/mu;
    ``derivative_fn`` is its exact derivative (no finite differences, so
    that l + x*l' stays exactly monotone for the solver).  Both must give
    the same value each time they are called at the same rate: a solve
    reuses values it has already read, and calls the functions only at the
    rates the signs of its multiplier bisection need.
    """

    latency_fn: Callable[[float], float]
    derivative_fn: Callable[[float], float]


@dataclass(frozen=True, slots=True)  # no per-instance dict: a fleet holds thousands
class ServerSpec:
    """One reachable server.

    d: fixed two-way path delay, seconds.
    mu: service rate, jobs/second.
    cv: coefficient of variation of the service time (1 for MM1, 0 for MD1).
    z0, a: d + 1/mu and (1 + cv^2)/2, derived once; not in ==, hash or repr.
    """

    d: float
    mu: float
    cv: float = 1.0
    model: QueueModel = QueueModel.MM1
    generic: GenericLatencyModel | None = None
    z0: float = field(init=False, repr=False, compare=False)
    a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.d >= 0.0):
            raise ValueError(f"delay must be >= 0, got {self.d}")
        if not (self.mu > 0.0):
            raise ValueError(f"service rate must be > 0, got {self.mu}")
        if not (self.cv >= 0.0):
            raise ValueError(f"cv must be >= 0, got {self.cv}")
        if math.inf in (self.d, self.mu, self.cv * self.cv):  # NaN and -inf fail the checks above
            raise ValueError(f"d, mu and cv^2 must be finite, got {self.d}, {self.mu}, {self.cv}")
        if self.model is QueueModel.MM1 and self.cv != 1.0:
            raise ValueError("MM1 requires cv = 1")
        if self.model is QueueModel.MD1 and self.cv != 0.0:
            raise ValueError("MD1 requires cv = 0")
        if (self.generic is not None) != (self.model is QueueModel.GENERIC):
            raise ValueError("generic latency functions go with model=GENERIC only")
        object.__setattr__(self, "z0", self.d + 1.0 / self.mu)
        object.__setattr__(self, "a", 0.5 * (1.0 + self.cv * self.cv))

    @classmethod
    def mm1(cls, d: float, mu: float) -> "ServerSpec":
        return cls(d, mu, 1.0, QueueModel.MM1)

    @classmethod
    def md1(cls, d: float, mu: float) -> "ServerSpec":
        return cls(d, mu, 0.0, QueueModel.MD1)

    @classmethod
    def mg1(cls, d: float, mu: float, cv: float) -> "ServerSpec":
        return cls(d, mu, cv, QueueModel.MG1)

    @classmethod
    def from_functions(
        cls,
        d: float,
        mu: float,
        latency_fn: Callable[[float], float],
        derivative_fn: Callable[[float], float],
    ) -> "ServerSpec":
        return cls(d, mu, 1.0, QueueModel.GENERIC, GenericLatencyModel(latency_fn, derivative_fn))


def zero_load_latency(s: ServerSpec) -> float:
    """Latency of an empty server: path delay plus one service interval."""
    return s.z0


def _check_rate(s: ServerSpec, x: float) -> None:
    if not (0.0 <= x < s.mu):
        raise DomainError(f"rate {x} outside the stable region [0, {s.mu})")


def latency(s: ServerSpec, x: float) -> float:
    """Mean latency l(x) of server ``s`` under offered rate ``x``."""
    _check_rate(s, x)
    if s.model is _GENERIC:
        return s.generic.latency_fn(x)
    return closed_latency(s, x)


def latency_slope(s: ServerSpec, x: float) -> float:
    """First derivative l'(x), seconds per (jobs/second)."""
    _check_rate(s, x)
    if s.model is _GENERIC:
        return s.generic.derivative_fn(x)
    return closed_slope(s, x)


def marginal_cost(s: ServerSpec, x: float) -> float:
    """Marginal cost h(x) = l(x) + x * l'(x); equals l(0) at x=0."""
    _check_rate(s, x)
    if s.model is _GENERIC:
        return s.generic.latency_fn(x) + x * s.generic.derivative_fn(x)
    return closed_marginal_cost(s, x)


def _check_settings(resolution: float, eps_sat: float) -> None:
    """Raise ValueError unless 0 < resolution < inf and 0 < eps_sat < 1."""
    if not (0.0 < resolution < math.inf):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    if not (0.0 < eps_sat < 1.0):
        raise ValueError(f"eps_sat must be in (0, 1), got {eps_sat}")


def invert_latency(
    s: ServerSpec,
    target: float,
    resolution: float = DEFAULT_RESOLUTION,
    eps_sat: float = EPS_SAT,
) -> float:
    """Rate x with l(x) = target.  Requires target > l(0).

    A user curve is bisected and needs 0 < resolution < inf and 0 < eps_sat < 1
    (ValueError otherwise); the closed form uses neither.
    """
    if target <= s.z0:
        raise DomainError(f"target {target} not above the zero-load latency {s.z0}")
    if s.model is _GENERIC:
        return _invert_user(s, False, target, resolution, eps_sat)
    return closed_invert_latency(s, target)


def invert_marginal(
    s: ServerSpec,
    target: float,
    resolution: float = DEFAULT_RESOLUTION,
    eps_sat: float = EPS_SAT,
) -> float:
    """Rate x with h(x) = target.  Requires target > h(0) = l(0).

    Settings as for ``invert_latency``.
    """
    if target <= s.z0:
        raise DomainError(f"target {target} not above the zero-load marginal cost {s.z0}")
    if s.model is _GENERIC:
        return _invert_user(s, True, target, resolution, eps_sat)
    return closed_invert_marginal(s, target)


# The closed-form family.  Each formula below takes a float or a float64 array
# (one slot per load) and, given a float or a slot, performs the same
# floating-point operations in the same order, so the scalar solver and the
# lockstep one in solver.py agree bit for bit.  Callers check the domain:
# rates in [0, mu), inversion targets above the zero-load latency.
# solver._solve calls the two inverses here once per evaluation, guarding
# targets at or below the zero-load latency itself.

def closed_latency(s: ServerSpec, x):
    if s.model is _MM1:
        return s.d + 1.0 / (s.mu - x)
    return s.d + (1.0 + s.a * x / (s.mu - x)) / s.mu


def closed_slope(s: ServerSpec, x):
    g = s.mu - x
    return s.a / (g * g)


def closed_marginal_cost(s: ServerSpec, x):
    g = s.mu - x
    if s.model is _MM1:
        return s.d + s.mu / (g * g)
    return s.d + (1.0 + s.a * (2.0 * s.mu - x) * x / (g * g)) / s.mu


def closed_invert_latency(s: ServerSpec, target):
    if s.model is _MM1:
        return s.mu - 1.0 / (target - s.d)
    w = s.mu * (target - s.d) - 1.0
    return s.mu * w / (s.a + w)


def closed_invert_marginal(s: ServerSpec, target, sqrt=math.sqrt):
    """``sqrt`` is math.sqrt for a float target, numpy.sqrt for an array (both round correctly)."""
    if s.model is _MM1:
        return s.mu - sqrt(s.mu / (target - s.d))
    w = s.mu * (target - s.d) - 1.0
    return s.mu * (1.0 - 1.0 / sqrt(1.0 + w / s.a))


def _user_inverse(s: ServerSpec, marginal: bool, resolution: float, eps_sat: float) -> _UserInverse:
    """A fresh walker over the user curve of ``s``: l, or h(x) = l(x) + x l'(x) if ``marginal``."""
    l, dl = s.generic.latency_fn, s.generic.derivative_fn
    fn = (lambda x: l(x) + x * dl(x)) if marginal else l
    return _UserInverse(fn, s.mu * (1.0 - eps_sat), resolution)


def _invert_user(s: ServerSpec, marginal: bool, target: float, resolution: float, eps_sat: float) -> float:
    """One walk to ``target`` on the user curve of ``s``; SaturationError where fn(top) < target."""
    _check_settings(resolution, eps_sat)
    walker = _user_inverse(s, marginal, resolution, eps_sat)
    x = walker(target)
    if walker.f_top < target:
        raise SaturationError(f"target {target} exceeds the model's value {walker.f_top} at the saturation guard")
    return x


def _bad_value(f: float, x: float) -> InversionError:
    return InversionError(f"the curve being inverted is {f} at x = {x!r}; it must be a number above -inf")


class _UserInverse:
    """Inverse of an increasing curve ``fn`` on [0, top], by bisection; each call is one walk.

    A walk bisects [0, top] to ``resolution`` or to adjacent floats: its midpoints, its
    ``fn(mid) < t`` tests, its stops, and top itself where fn(top) < t (the saturation
    fallback), or 0.5 top where top <= resolution.  A midpoint depends only on the tests
    above it.  So the walker keeps the last target's path, one record per depth, and resumes
    it where a new target first branches off: there it reuses the kept value, and it calls fn
    only below.  fn(top) is probed once, and a NaN or -inf value raises ``InversionError``.

    A record is (fn(mid), lo, hi, gt, le): the step's value and the bracket it leaves, and
    the targets (gt, le] that take every kept branch down to it.  gt is the
    largest kept value below the target (-inf if none) and le the smallest other one (+inf
    if none).  These intervals are nested, so the depth at which a target branches off is
    found by bisection over the records in O(log depth).  A NaN target lies in no interval,
    so it walks again from the root: the branch at any depth the walk resumes from is
    taken by ``fn(mid) < t`` afresh, so a shallower depth changes no bit.
    """

    def __init__(self, fn: Callable[[float], float], top: float, resolution: float):
        self.fn = fn
        self.top = top
        self.resolution = resolution
        self.f_top = None
        self.path: list[tuple[float, float, float, float, float]] = []

    def __call__(self, t: float, total=None) -> float:
        """The inverse at ``t``; given ``total``, a float with the sign of total(inverse).

        ``total`` is non-decreasing in the inverse, which always ends inside the current
        bracket [lo, hi]: so before each call of fn the walk stops if total(lo) >= 0.0 or
        total(hi) < 0.0, each end's total computed once.  Both saturation outcomes lie in
        [0, top], so fn(top) is probed only once a step is needed.
        """
        lo, hi = 0.0, self.top
        r_lo = r_hi = None  # total(lo) and total(hi), until their end moves
        if self.f_top is None:
            if total is not None:
                if (r_lo := total(lo)) >= 0.0:
                    return r_lo
                if (r_hi := total(hi)) < 0.0:
                    return r_hi
            self.f_top = f = self.fn(hi)
            if not f > _NEG_INF:
                raise _bad_value(f, hi)
        if self.f_top < t:
            x = hi
        elif not hi > self.resolution:
            x = 0.5 * hi
        else:
            path, res, branch = self.path, self.resolution, None
            # the deepest record whose targets hold t, by bisection over the nested intervals
            m = len(path)
            depth, b = 0, m + 1
            while depth + 1 < b:
                k = (depth + b) >> 1
                rec = path[k - 1]
                if rec[3] < t <= rec[4]:
                    depth = k
                else:
                    b = k
            # a kept path means fn(top) was probed by an earlier call, so r_lo and r_hi are None
            if depth:
                _, lo, hi, gt, le = path[depth - 1]
            else:
                gt, le = _NEG_INF, math.inf
            if depth < m:
                # t leaves the kept path here (a NaN t may not): its branch from the kept value
                f = path[depth][0]
                mid = 0.5 * (lo + hi)
                if f < t:
                    lo, gt = mid, f if f > gt else gt
                else:
                    hi, le = mid, f if f < le else le
                branch = (f, lo, hi, gt, le)
            while True:
                # the walk starts from [0, top], top > resolution, or from a step's bracket,
                # so testing the resolution before the midpoint stops where testing it after does
                if hi - lo <= res:
                    x = 0.5 * (lo + hi)
                    break
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    x = mid
                    break
                if total is not None:
                    if r_lo is None:
                        r_lo = total(lo)
                    if r_lo >= 0.0:
                        return r_lo
                    if r_hi is None:
                        r_hi = total(hi)
                    if r_hi < 0.0:
                        return r_hi
                if branch is not None:
                    # written only now, so that a sign settled first keeps the kept path whole
                    del path[depth:]
                    path.append(branch)
                    branch = None
                f = self.fn(mid)
                if not f > _NEG_INF:
                    raise _bad_value(f, mid)
                if f < t:
                    lo, r_lo, gt = mid, None, f if f > gt else gt
                else:
                    hi, r_hi, le = mid, None, f if f < le else le
                path.append((f, lo, hi, gt, le))
        return x if total is None else total(x)
