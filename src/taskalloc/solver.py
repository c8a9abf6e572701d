"""Optimal and equilibrium task allocation across heterogeneous servers.

A scenario is a set of servers, each with its own latency curve, and a
total task arrival rate ``lam`` to be split among them.  Two splits are
computed:

* the social optimum, which minimizes the average latency
  U(p) = sum_j p_j * l_j(p_j lam) by equalizing the marginal cost
  h_j(x) = l_j(x) + x l_j'(x) across active servers (equalized-price
  method, EPM), and
* the Nash equilibrium (NEP), reached when every job selfishly picks the
  fastest server, which equalizes the latencies l_j themselves.

Both reduce to a one-dimensional root find for the common multiplier
(gamma for the optimum, alpha for the equilibrium): the sum of the
per-server inverse curves evaluated at the multiplier must add up to
lam.  Servers activate one by one as the load grows; the activation
thresholds are computed in closed form by inverting the curves of the
already-active servers at the next server's zero-load latency.  The
threshold table inverts server by server through ``_invert_or_zero``,
that is through ``latency.invert_*``, for every kind of curve.

A ``Scenario`` derives what its servers and config fix once, at
construction: the activation order, the total service rate, the load cap
and whether a server has a user-supplied curve.  They are not part of ==,
hash or repr, and ``dataclasses.replace`` derives them afresh.

A single solve calls ``latency.closed_invert_*`` directly for each active
closed-form server in the multiplier bisection, the Newton polish and the
final rates, 0.0 at or below its zero-load latency, bit for bit as
``_invert_or_zero``; a user curve goes through its walker (below).  Its
sums over servers are plain loops in activation order from 0.0 (the additions of
the builtin ``sum`` on Python 3.11), and the split and mean latency are
built from Python floats.
The total service rate is a plain loop in server order for the same
reason: from Python 3.12 on, ``sum`` compensates float additions, and
the bits would depend on the interpreter version.

A sweep of a closed-form scenario solves both kinds at every load of its
grid in one lockstep pass (``solve_lockstep``).  Each (kind, load) pair
is a slot, and each step evaluates every server at every slot as one
servers × slots array: servers are rows, grouped by formula (M/M/1 rows,
then M/D/1 and M/G/1 rows), with mu, d and a as columns fed to
``latency.closed_*``.  Its sums over servers add the rows in activation
order from 0.0, as the single solve's loops add servers, so every slot
is bit-identical to ``_solve``.

With a user curve among the active servers, each user curve gets one
``latency._UserInverse`` walker for the whole solve, and every inversion
of it in the solve goes through that walker: the bracket's low end, the
doubling of its high end, the multiplier bisection and the final rates.
``_settled_remaining`` gives the bracket and the bisection the
sign of ``remaining(t)`` with the same bits while calling the curves far
less: the last user curve in activation order is walked only until its
bracket settles the sign, that is until the in-order sum with the
bracket's low end is >= 0.0, or with its high end < 0.0.  Its inverse
ends inside the bracket, and rounded additions are monotone, so that is
the sign of the full sum.  The low end asks only whether remaining(lo) >
0.0, which the same walk settles once totals <= 0.0 read as -1.0.  The
final rates follow the path the bisection left, bit for bit
``_invert_or_zero``.

numpy is imported at first use, by the lockstep solve and by ``average_latency``
near the simplex tolerance: a result keeps the split as the Python floats it
was built from, and ``AllocationResult.p`` becomes a float64 array at first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from types import SimpleNamespace

from .errors import ConvergenceError, DomainError, InfeasibleLoadError, InversionError, SaturationError
from .latency import (
    DEFAULT_RESOLUTION,
    EPS_SAT,
    QueueModel,
    ServerSpec,
    _bad_value,
    _check_settings,
    _user_inverse,
    closed_invert_latency,
    closed_invert_marginal,
    closed_latency,
    closed_marginal_cost,
    closed_slope,
    invert_latency,
    invert_marginal,
    latency,
    latency_slope,
    marginal_cost,
)

SIMPLEX_TOL = 1e-9  # largest |sum(p) - 1| accepted for a split


class AllocationKind(str, Enum):
    OPTIMAL = "optimal"
    NEP = "nep"


@dataclass(frozen=True)
class SolverConfig:
    resolution: float = DEFAULT_RESOLUTION
    eps_sat: float = EPS_SAT

    def __post_init__(self):
        _check_settings(self.resolution, self.eps_sat)


@dataclass(frozen=True)
class Scenario:
    """A set of reachable servers plus numerical settings.

    Servers may be listed in any order; solver outputs are reported in
    this input order with the activation-order permutation attached.
    The activation order (``sort_servers``), ``total_mu``, ``load_cap``
    and ``has_generic()`` are derived once, at construction; they are not
    in ==, hash or repr, and ``dataclasses.replace`` derives them afresh.
    """

    servers: tuple[ServerSpec, ...]
    config: SolverConfig = field(default_factory=SolverConfig)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_mu: float = field(init=False, repr=False, compare=False)
    load_cap: float = field(init=False, repr=False, compare=False)  # largest admissible rate
    _generic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        servers = tuple(self.servers)
        if len(servers) == 0:
            raise ValueError("a scenario needs at least one server")
        total_mu = 0.0
        for s in servers:
            total_mu += s.mu
        object.__setattr__(self, "servers", servers)
        # stable, so servers with equal zero-load latency keep their input order
        object.__setattr__(self, "_order", tuple(sorted(range(len(servers)), key=lambda i: servers[i].z0)))
        object.__setattr__(self, "total_mu", float(total_mu))
        object.__setattr__(self, "load_cap", (1.0 - self.config.eps_sat) * self.total_mu)
        object.__setattr__(self, "_generic", any(s.model is QueueModel.GENERIC for s in servers))

    def has_generic(self) -> bool:
        return self._generic


@dataclass(frozen=True)
class ThresholdTable:
    """Arrival rates at which successive servers start receiving traffic.

    ``loads[k]`` is the threshold of the (k+1)-th server in activation
    order; ``order[k]`` is that server's index in the scenario's input
    order.  The first entry is always 0.
    """

    kind: AllocationKind
    order: tuple[int, ...]
    loads: tuple[float, ...]


class _Split(list):
    """A solved split as Python floats, in input order, until ``AllocationResult.p`` is read."""

    @property
    def shape(self) -> tuple[int]:
        return (len(self),)


class _ArrayOnRead:
    """``AllocationResult.p``: a solver's ``_Split`` becomes a float64 array at first read.

    A data descriptor used as the field's default (the dataclasses pattern for
    descriptor-typed fields).  Its class-level read raises AttributeError, so
    the field keeps no default.  The value lives in the instance dict under
    the field's name, which keeps pickling, ``replace`` and ``asdict`` as they
    are; any value other than a ``_Split`` is returned as passed.
    """

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if type(value) is _Split:
            import numpy as np

            value = obj.__dict__[self.name] = np.array(value)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class AllocationResult:
    """A task split over the scenario's servers, in input order."""

    kind: AllocationKind
    p: np.ndarray = _ArrayOnRead()
    multiplier: float
    active_count: int
    mean_latency: float
    order: tuple[int, ...]


def _split(res: AllocationResult):
    """``res.p``, but a solver's split as its Python floats while no array has been built."""
    value = res.__dict__["p"]
    return value if type(value) is _Split else res.p


def sort_servers(sc: Scenario) -> tuple[int, ...]:
    """Input-order indices sorted by ascending zero-load latency d + 1/mu.

    The sort is stable, so servers with equal zero-load latency keep
    their input order.  Every call on a scenario returns the same tuple.
    """
    return sc._order


def _invert_or_zero(s: ServerSpec, kind: AllocationKind, target: float, cfg: SolverConfig) -> float:
    """Rate at which the server's curve reaches ``target``, 0 if never below it."""
    if target <= s.z0:
        return 0.0
    inv = invert_marginal if kind is AllocationKind.OPTIMAL else invert_latency
    try:
        return inv(s, target, cfg.resolution, cfg.eps_sat)
    except SaturationError:
        # only the generic numeric path saturates; any other error is a fault
        return s.mu * (1.0 - cfg.eps_sat)


def activation_thresholds(sc: Scenario, kind: AllocationKind) -> ThresholdTable:
    """Per-server activation loads in activation (sorted) order.

    The j-th server starts receiving traffic once the already-active
    servers, driven to the j-th server's zero-load latency, absorb the
    whole arrival rate: the threshold is the sum of their inverse curves
    at that target (inverse marginal cost for the optimum, inverse
    latency for the equilibrium).
    """
    order = sort_servers(sc)
    loads = [0.0]
    for j in range(1, len(order)):
        target = sc.servers[order[j]].z0
        total = 0.0
        for i in range(j):
            total += _invert_or_zero(sc.servers[order[i]], kind, target, sc.config)
        loads.append(total)
    return ThresholdTable(kind=kind, order=order, loads=tuple(loads))


def _inverse_slope(s: ServerSpec, kind: AllocationKind, x, slope=latency_slope):
    """d(inverse curve)/d(target) at the point where the curve equals the target.

    ``x`` is a float, or an array of rates with ``slope=closed_slope``.
    """
    if kind is AllocationKind.NEP:
        return 1.0 / slope(s, x)
    # h'(x) = 2 a mu / (mu - x)^3 for the closed-form queue family
    g = s.mu - x
    return g * g * g / (2.0 * s.a * s.mu)


def _solve(sc: Scenario, lam: float, kind: AllocationKind) -> AllocationResult:
    if not (lam > 0.0):
        raise InfeasibleLoadError(f"arrival rate must be > 0, got {lam}")
    if lam > sc.load_cap:
        raise InfeasibleLoadError(
            f"arrival rate {lam} above the admissible cap {sc.load_cap} "
            f"((1 - eps_sat) * total capacity)"
        )
    cfg = sc.config
    table = activation_thresholds(sc, kind)
    order = table.order
    n = len(order)

    # strict comparison: at a threshold the newly activating server still idles
    j = sum(1 for t in table.loads if t < lam)

    # sums over servers are plain loops from 0.0 in activation order (see the module docstring)
    p = _Split([0.0] * n)
    if j == 1:
        # single active server: no equation to solve
        x = lam
        s = sc.servers[order[0]]
        mult = marginal_cost(s, x) if kind is AllocationKind.OPTIMAL else latency(s, x)
        p[order[0]] = 1.0
        mean = latency(s, x)
    else:
        active = [sc.servers[i] for i in order[:j]]
        user_curve = any(s.model is QueueModel.GENERIC for s in active)
        if user_curve:
            # one walker per user curve inverts it everywhere below; the signs settle early
            sign, rates_at = _settled_remaining(active, kind, lam, cfg)
            low_sign = partial(sign, strict=True)
        else:
            closed_inv = closed_invert_marginal if kind is AllocationKind.OPTIMAL else closed_invert_latency
            # each loop below evaluates "0.0 if t <= z0 else closed_inv(s, t)", bit for bit
            # _invert_or_zero; "t <= z0" is False for a NaN target, which then runs the formula, as there
            curves = [(s, s.z0) for s in active]

            def remaining(t: float) -> float:
                total = 0.0
                for s, z0 in curves:
                    total += 0.0 if t <= z0 else closed_inv(s, t)
                return total - lam

            sign = low_sign = remaining
        lo = active[-1].z0 + cfg.resolution
        if j < n:
            hi = sc.servers[order[j]].z0
        else:
            hi = 2.0 * active[-1].z0
            grow = 0
            while sign(hi) < 0.0:
                hi *= 2.0
                grow += 1
                if grow > 200:
                    raise InversionError(
                        "could not bracket the multiplier; a generic latency model "
                        "may not be strictly increasing"
                    )
        if low_sign(lo) > 0.0:
            # the +resolution shift overshot an extremely sharp curve
            lo = active[-1].z0
        mult = _bisect_multiplier(sign, lo, hi, cfg.resolution)
        closed = not sc.has_generic()
        if closed:
            # Newton polish to push the normalization residual to rounding level
            for _ in range(3):
                total = slope = 0.0
                for s, z0 in curves:
                    x = 0.0 if mult <= z0 else closed_inv(s, mult)
                    total += x
                    if x > 0.0:
                        slope += _inverse_slope(s, kind, x)
                if slope <= 0.0:
                    break
                nxt = mult - (total - lam) / slope
                if not (lo <= nxt <= hi):
                    break
                mult = nxt
        if user_curve:
            rates = rates_at(mult)
        else:
            rates = [0.0 if mult <= z0 else closed_inv(s, mult) for s, z0 in curves]
        total = 0.0
        for r in rates:
            total += r
        # The Newton polish leaves a closed-form split exact to rounding, except where the
        # multiplier's resolution (or last bit) outweighs the load and at rare loads just above
        # an activation threshold where the polish stops early.  Generic splits keep the
        # bisection's error.
        if closed and abs(total - lam) > SIMPLEX_TOL * lam:
            raise ConvergenceError(
                f"the {kind.value} split of arrival rate {lam} sums to {total / lam!r}, "
                f"not 1: the multiplier could not be resolved finely enough at this load"
            )
        mean = 0.0
        for i, s, r in zip(order, active, rates):
            q = r / lam
            p[i] = q
            mean += q * latency(s, r)

    return AllocationResult(
        kind=kind,
        p=p,
        multiplier=float(mult),
        active_count=j,
        mean_latency=float(mean),
        order=order,
    )


def _bisect_multiplier(residual, lo: float, hi: float, resolution: float) -> float:
    """Root of an increasing residual on [lo, hi], to ``resolution`` or the last bit; a NaN
    or -inf residual, which would steer the bisection, raises ``InversionError``."""
    # residual(hi) < 0 can only happen through rounding at an exact threshold load
    if residual(hi) < 0.0:
        return hi
    floor = -math.inf
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        f = residual(mid)
        if not f > floor:
            raise _bad_value(f, mid)
        if f < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= resolution:
            return 0.5 * (lo + hi)


def _settled_remaining(active: list[ServerSpec], kind: AllocationKind, lam: float, cfg: SolverConfig):
    """(residual, rates) for ``_solve`` on ``active``, the active servers in activation order,
    at least one with a user curve.

    Each user curve is inverted by one ``latency._UserInverse`` kept for the whole solve, and both
    functions go through it.  residual(t) has the sign of ``_solve``'s remaining(t), the
    in-order sum of ``_invert_or_zero`` minus the load, at every target: the last user curve
    is walked only until the sum, with its inverse as the one term still open, settles the
    sign.  residual(t, strict=True) is >= 0.0 exactly where remaining(t) > 0.0.  rates(t)
    is each server's ``_invert_or_zero`` at t, bit for bit.
    """
    optimal = kind is AllocationKind.OPTIMAL
    closed_inv = closed_invert_marginal if optimal else closed_invert_latency
    inverses = [(s.z0, _user_inverse(s, optimal, cfg.resolution, cfg.eps_sat) if s.model is QueueModel.GENERIC
                 else partial(closed_inv, s)) for s in active]
    last = max(k for k, s in enumerate(active) if s.model is QueueModel.GENERIC)
    head, (z_open, open_inverse), tail = inverses[:last], inverses[last], inverses[last + 1:]

    def residual(t: float, strict: bool = False) -> float:
        before = 0.0
        for z0, inv in head:
            before += 0.0 if t <= z0 else inv(t)
        after = [0.0 if t <= z0 else inv(t) for z0, inv in tail]

        def total(x: float) -> float:
            # remaining(t) with x for the open term: rounded additions are monotone in x
            r = before + x
            for v in after:
                r += v
            return r - lam

        if strict:
            # remaining(t) > 0.0 as a sign; the map to -1.0 keeps total non-decreasing in x
            signed = total
            total = lambda x: r if (r := signed(x)) > 0.0 else -1.0
        return total(0.0) if t <= z_open else open_inverse(t, total)

    def rates(t: float) -> list[float]:
        return [0.0 if t <= z0 else inv(t) for z0, inv in inverses]

    return residual, rates


def solve_lockstep(sc: Scenario, lams: np.ndarray):
    """``_solve`` of both kinds on every load of ``lams`` at once, for a closed-form scenario.

    Each (kind, load) pair has one slot of a servers × slots array, the
    optimum's loads first, and every slot goes through the scalar path's
    floating-point operations and branches in the same order.  Servers are
    rows, grouped by formula (M/M/1 rows, M/D/1 and M/G/1 rows) with mu, d
    and a as columns of ``latency.closed_*``.  Sums over servers add the
    rows in activation order and an exact 0.0 for a server that is idle or
    inactive in that slot, so a slot's multiplier, mean latency and active
    count are bit-identical to ``_solve``'s.

    Returns one tuple of arrays (multiplier, mean_latency, active_count, ok)
    per kind, the optimum's first.  ``ok`` is False where ``_solve`` raises
    or might raise: loads outside (0, load_cap], a failed bracket, a rate
    outside a server's stable region, a non-finite value or a split near
    the simplex tolerance.  Solve those loads per point.
    """
    import numpy as np

    tables = [activation_thresholds(sc, kind) for kind in (AllocationKind.OPTIMAL, AllocationKind.NEP)]
    servers = [sc.servers[i] for i in tables[0].order]
    s = servers[0]
    m = lams.size
    lam = np.concatenate((lams, lams))
    # strict comparison, as in _solve
    j = np.concatenate([np.count_nonzero(np.asarray(t.loads)[None, :] < lams[:, None], axis=1)
                        for t in tables])
    ok = (lam > 0.0) & (lam <= sc.load_cap)
    mult = np.zeros(2 * m)
    mean = np.zeros(2 * m)
    with np.errstate(all="ignore"):
        one = np.flatnonzero(ok & (j == 1))
        x = lam[one]
        mult[one] = np.where(one < m, closed_marginal_cost(s, x), closed_latency(s, x))
        mean[one] = closed_latency(s, x)
        ok[one] = x < s.mu
        many = np.flatnonzero(ok & (j > 1))
        mult[many], mean[many], bad = _lockstep_active(servers, lam[many], j[many],
                                                       np.count_nonzero(many < m), sc.config)
        ok[many] = ~bad
    return (mult[:m], mean[:m], j[:m], ok[:m]), (mult[m:], mean[m:], j[m:], ok[m:])


def _lockstep_active(servers, lam, j, n_opt, cfg):
    """The j > 1 branch of ``_solve`` on slots ``lam``: (multiplier, mean, bad).

    The first ``n_opt`` slots solve for the optimum, the rest for the equilibrium.
    """
    import numpy as np

    n = len(servers)
    z0 = np.array([s.z0 for s in servers])[:, None]
    columns = _rows(servers, QueueModel.MG1)  # mu and a of every server, for the slopes
    groups = []
    for mm1 in (True, False):
        rows = [k for k, s in enumerate(servers) if (s.model is QueueModel.MM1) == mm1]
        if rows:
            group = _rows([servers[k] for k in rows], QueueModel.MM1 if mm1 else QueueModel.MG1)
            groups.append((slice(None) if len(rows) == n else np.array(rows), group))
    active = np.arange(n)[:, None] < j
    bad = np.zeros(lam.size, dtype=bool)
    # the state of a set of slots: (slot indices, z0 where a server is active and +inf where
    # not, loads, number of optimum slots); "t > zm" is "active and t > z0"
    every = (np.arange(lam.size), np.where(active, z0, np.inf), lam, n_opt)

    def keep(slots, go):
        """The slots where ``go``."""
        sel, zm, lm, no = slots
        return sel[go], zm[:, go], lm[go], np.count_nonzero(go[:no])

    def rates(t, slots):
        """Each server's _invert_or_zero at the slots' targets ``t``, 0.0 where it is inactive."""
        _, zm, _, no = slots
        x = np.empty(zm.shape)
        for rows, group in groups:
            if no:
                x[rows, :no] = closed_invert_marginal(group, t[:no], np.sqrt)
            if no < t.size:
                x[rows, no:] = closed_invert_latency(group, t[no:])
        return np.where(t > zm, x, 0.0)

    def remaining(t, slots):
        """The bisection residual at the slots' targets ``t``; flags the non-finite ones."""
        r = _row_sum(rates(t, slots)) - slots[2]
        fin = np.isfinite(r)
        if not fin.all():
            bad[slots[0][~fin]] = True
        return r

    last = z0[j - 1, 0]
    lo = last + cfg.resolution
    hi = np.where(j == n, 2.0 * z0[n - 1, 0], z0[np.minimum(j, n - 1), 0])
    slots = keep(every, j == n)
    grow = 0
    while slots[0].size:
        slots = keep(slots, remaining(hi[slots[0]], slots) < 0.0)
        hi[slots[0]] *= 2.0
        grow += 1
        if grow > 200:
            bad[slots[0]] = True
            break
    shift = remaining(lo, every) > 0.0
    lo[shift] = last[shift]

    # _bisect_multiplier's loop, each slot stopping at its own return;
    # the slots' state is compacted on the steps where one stops
    mult = np.empty(lam.size)
    top = remaining(hi, every) < 0.0
    mult[top] = hi[top]
    slots, a, b = keep(every, ~top), lo[~top], hi[~top]
    while slots[0].size:
        mid = 0.5 * (a + b)
        stop = (mid <= a) | (mid >= b)
        if stop.any():
            mult[slots[0][stop]] = mid[stop]
            go = ~stop
            slots, a, b, mid = keep(slots, go), a[go], b[go], mid[go]
        below = remaining(mid, slots) < 0.0
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
        stop = b - a <= cfg.resolution
        if stop.any():
            mult[slots[0][stop]] = 0.5 * (a[stop] + b[stop])
            go = ~stop
            slots, a, b = keep(slots, go), a[go], b[go]

    # Newton polish; a slot leaves at its own break
    slots = every
    for _ in range(3):
        sel, _, lm, no = slots
        t = mult[sel]
        x = rates(t, slots)
        used = x > 0.0
        # latency_slope's domain check
        bad[sel[no:][(used[:, no:] & ~(x[:, no:] < columns.mu)).any(axis=0)]] = True
        slope = np.empty(x.shape)
        slope[:, :no] = _inverse_slope(columns, AllocationKind.OPTIMAL, x[:, :no], closed_slope)
        slope[:, no:] = _inverse_slope(columns, AllocationKind.NEP, x[:, no:], closed_slope)
        slope = _row_sum(np.where(used, slope, 0.0))
        r = _row_sum(x) - lm
        bad[sel[~np.isfinite(r)]] = True
        nxt = t - r / slope
        go = (slope > 0.0) & (lo[sel] <= nxt) & (nxt <= hi[sel])
        slots = keep(slots, go)
        mult[slots[0]] = nxt[go]

    x = rates(mult, every)
    bad |= (active & ~((0.0 <= x) & (x < columns.mu))).any(axis=0)  # latency's domain check
    latencies = np.empty(x.shape)
    for rows, group in groups:
        latencies[rows] = closed_latency(group, x[rows])
    mean = _row_sum(np.where(active, x / lam * latencies, 0.0))
    bad |= np.abs(_row_sum(x) - lam) > SIMPLEX_TOL * lam  # _solve's simplex check
    bad |= ~(np.isfinite(mult) & np.isfinite(mean))
    return mult, mean, bad


def _row_sum(x):
    """Sum of the rows of ``x`` in order from 0.0, as ``_solve``'s loops add servers."""
    total = 0.0
    for row in x:
        total = total + row
    return total


def _rows(servers, model: QueueModel) -> SimpleNamespace:
    """``servers`` as the rows of one closed-form formula: mu, d and a as (rows, 1) columns."""
    import numpy as np

    mu, d, a = np.array([[s.mu for s in servers], [s.d for s in servers], [s.a for s in servers]])[:, :, None]
    return SimpleNamespace(model=model, mu=mu, d=d, a=a)


def solve_optimal(sc: Scenario, lam: float) -> AllocationResult:
    """Latency-minimizing split of arrival rate ``lam`` (equalized marginal cost)."""
    return _solve(sc, lam, AllocationKind.OPTIMAL)


def solve_nep(sc: Scenario, lam: float) -> AllocationResult:
    """Nash-equilibrium split of arrival rate ``lam`` (equalized latency)."""
    return _solve(sc, lam, AllocationKind.NEP)


def average_latency(sc: Scenario, p, lam: float) -> float:
    """Average latency U(p) = sum_i p_i * l_i(p_i * lam) of an arbitrary split.

    A solver's split (``_split``) is read as its floats, anything else as a
    float64 array.  The simplex check decides as ``p.sum()`` would; numpy's own
    sum decides only where rounding could flip an in-order sum's decision.
    """
    if type(p) is not _Split:
        import numpy as np

        p = np.asarray(p, dtype=float)
    if p.shape != (len(sc.servers),):
        raise DomainError(f"probability vector has shape {p.shape}, expected ({len(sc.servers)},)")
    sum_p, sum_abs, low = 0.0, 0.0, False
    for q in p if type(p) is _Split else p.tolist():
        sum_p += q
        sum_abs += abs(q)
        low = low or q < -1e-12
    # Any order of summing n terms, this one and numpy's pairwise one alike, lies within
    # gamma_(n-1) * sum|p_i| of the exact sum (Higham 2002, section 4.2); 4 n u covers twice that
    # and the check's own rounding.  Nearer the tolerance, or when not finite, numpy's sum decides.
    if not (abs(abs(sum_p - 1.0) - SIMPLEX_TOL) > 4.0 * len(p) * 2.0**-53 * sum_abs):
        import numpy as np

        with np.errstate(all="ignore"):
            sum_p = float(np.add.reduce(np.asarray(p, dtype=float)))
    if low or abs(sum_p - 1.0) > SIMPLEX_TOL:
        raise DomainError("probability vector is not on the simplex")
    total = 0.0
    for q, s in zip(p, sc.servers):
        if q <= 0.0:
            continue
        x = q * lam
        if x >= s.mu:
            raise DomainError(f"rate {x} overloads a server with capacity {s.mu}")
        total += q * latency(s, x)
    return float(total)
