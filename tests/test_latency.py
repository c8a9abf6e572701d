"""Latency curves, marginal costs, and their inverses."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taskalloc import (
    DomainError,
    SaturationError,
    QueueModel,
    ServerSpec,
    invert_latency,
    invert_marginal,
    latency,
    latency_slope,
    marginal_cost,
    zero_load_latency,
)
from taskalloc.latency import EPS_SAT, _UserInverse
from taskalloc.solver import _bisect_multiplier

from conftest import random_server


def as_generic(s: ServerSpec) -> ServerSpec:
    """Wrap a closed-form server as a generic model with analytic derivatives."""
    a = 0.5 * (1.0 + s.cv * s.cv)
    d, mu = s.d, s.mu
    return ServerSpec.from_functions(
        d, mu,
        lambda x: d + (1.0 + a * x / (mu - x)) / mu,
        lambda x: a / (mu - x) ** 2,
    )


def power_server(d: float, mu: float, k: float = 1.5) -> ServerSpec:
    """A user curve outside the closed-form family: l(x) = d + mu^(k-1) / (mu - x)^k."""
    return ServerSpec.from_functions(d, mu, lambda x: d + mu ** (k - 1.0) / (mu - x) ** k,
                                     lambda x: k * mu ** (k - 1.0) / (mu - x) ** (k + 1.0))


def test_zero_load_latency_is_d_plus_service_time():
    for s in (ServerSpec.mm1(0.04, 15.0), ServerSpec.md1(0.02, 4.66),
              ServerSpec.mg1(0.1, 3.0, 2.5)):
        assert zero_load_latency(s) == pytest.approx(s.d + 1.0 / s.mu, rel=1e-15)
        assert latency(s, 0.0) == pytest.approx(zero_load_latency(s), rel=1e-15)
        assert marginal_cost(s, 0.0) == pytest.approx(zero_load_latency(s), rel=1e-15)


@st.composite
def any_server(draw):
    finite = st.floats(0.0, 1e300)
    # from mu = 1e-300 up, z0 = d + 1/mu stays finite; below about 5.6e-309, 1/mu overflows
    d, mu = draw(finite), draw(st.floats(1e-300, 1e300))
    model = draw(st.sampled_from(["mm1", "md1", "mg1", "generic"]))
    if model == "mm1":
        return ServerSpec.mm1(d, mu)
    if model == "md1":
        return ServerSpec.md1(d, mu)
    if model == "mg1":
        # above about 1.34e154, a = (1 + cv^2)/2 overflows and the constructor rejects the cv
        return ServerSpec.mg1(d, mu, draw(st.floats(0.0, 1e154)))
    return as_generic(ServerSpec.mm1(d, mu))


@settings(max_examples=300, deadline=None, database=None)
@given(any_server(), st.floats(0.0, 1e300))
def test_derived_fields_are_set_once_and_stay_out_of_identity(s, d):
    assert s.z0.hex() == (s.d + 1.0 / s.mu).hex()
    assert s.a.hex() == (0.5 * (1.0 + s.cv * s.cv)).hex()
    moved = replace(s, d=d)
    assert moved.z0.hex() == (d + 1.0 / s.mu).hex()
    assert moved.a.hex() == s.a.hex()
    with pytest.raises(ValueError):
        replace(s, z0=1.0)
    twin = replace(s)
    object.__setattr__(twin, "z0", -1.0)
    object.__setattr__(twin, "a", -1.0)
    assert twin == s and hash(twin) == hash(s)


def test_derived_fields_stay_out_of_repr():
    assert repr(ServerSpec.mg1(0.001, 11.0, 2.0)) == (
        "ServerSpec(d=0.001, mu=11.0, cv=2.0, model=<QueueModel.MG1: 'mg1'>, generic=None)"
    )


def test_latency_values():
    assert latency(ServerSpec.mm1(0.04, 15.0), 0.0) == pytest.approx(0.04 + 1.0 / 15.0, rel=1e-15)
    assert latency(ServerSpec.mm1(0.0, 2.0), 1.0) == pytest.approx(1.0, rel=1e-15)
    assert latency(ServerSpec.mg1(0.0, 1.0, 3.0), 0.5) == pytest.approx(6.0, rel=1e-15)


def test_marginal_cost_values():
    assert marginal_cost(ServerSpec.mm1(0.0, 2.0), 0.0) == pytest.approx(0.5, rel=1e-15)
    assert marginal_cost(ServerSpec.mm1(0.0, 2.0), 1.0) == pytest.approx(2.0, rel=1e-15)
    s_mm1 = ServerSpec.mm1(0.07, 11.0)
    s_mg1 = ServerSpec.mg1(0.07, 11.0, 1.0)
    for x in np.linspace(0.0, 10.9, 23):
        assert marginal_cost(s_mg1, x) == pytest.approx(marginal_cost(s_mm1, x), rel=1e-12)


def test_invert_latency_values():
    assert invert_latency(ServerSpec.mm1(0.0, 2.0), 1.0) == pytest.approx(1.0, rel=1e-15)
    x = invert_latency(ServerSpec.mm1(0.04, 15.0), 0.106667 + 1e-12)
    assert 0.0 < x < 1e-3
    assert invert_latency(ServerSpec.mg1(0.0, 1.0, 3.0), 6.0) == pytest.approx(0.5, rel=1e-12)


def test_invert_marginal_values():
    assert invert_marginal(ServerSpec.mm1(0.0, 2.0), 2.0) == pytest.approx(1.0, rel=1e-14)
    x = invert_marginal(ServerSpec.mm1(0.0, 2.0), 0.5 + 1e-12)
    assert 0.0 < x < 1e-4
    s_mm1 = ServerSpec.mm1(0.03, 9.0)
    s_mg1 = ServerSpec.mg1(0.03, 9.0, 1.0)
    for t in np.linspace(0.15, 40.0, 17):
        assert invert_marginal(s_mg1, t) == pytest.approx(invert_marginal(s_mm1, t), rel=1e-12)


def test_domain_errors():
    s = ServerSpec.mm1(0.0, 2.0)
    for x in (-0.1, 2.0, 2.5):
        with pytest.raises(DomainError):
            latency(s, x)
        with pytest.raises(DomainError):
            marginal_cost(s, x)
        with pytest.raises(DomainError):
            latency_slope(s, x)
    with pytest.raises(DomainError):
        invert_latency(s, 0.5)  # at l(0)
    with pytest.raises(DomainError):
        invert_marginal(s, 0.4)  # below h(0)
    # a rate inside [0, mu) where (mu - x)^2 underflows to 0: a DomainError, not ZeroDivisionError
    for tiny in (ServerSpec.mm1(0.01, 1e-300), ServerSpec.mg1(0.01, 1e-300, 2.0)):
        for f in (marginal_cost, latency_slope):
            with pytest.raises(DomainError, match=r"\(mu - x\)\^2 underflows to 0"):
                f(tiny, 5e-301)
        assert math.isfinite(latency(tiny, 5e-301))  # l itself divides by mu - x only


def test_round_trip_inversions():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s = random_server(rng)
        x = rng.uniform(1e-6, 1.0 - 1e-6) * s.mu
        assert invert_latency(s, latency(s, x)) == pytest.approx(x, rel=1e-11, abs=1e-11)
        assert invert_marginal(s, marginal_cost(s, x)) == pytest.approx(x, rel=1e-11, abs=1e-11)


def test_monotone_and_dominating():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = random_server(rng)
        xs = np.sort(rng.uniform(0.0, 1.0 - 1e-9, size=9)) * s.mu
        lats = [latency(s, x) for x in xs]
        margs = [marginal_cost(s, x) for x in xs]
        assert all(b > a for a, b in zip(lats, lats[1:]))
        assert all(b > a for a, b in zip(margs, margs[1:]))
        for x, lat in zip(xs, lats):
            if x > 0.0:
                assert lat > zero_load_latency(s)
                assert marginal_cost(s, x) > lat


def test_latency_convexity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = random_server(rng)
        x1, x2 = np.sort(rng.uniform(0.0, 0.999, size=2)) * s.mu
        mid = latency(s, 0.5 * (x1 + x2))
        assert mid <= 0.5 * (latency(s, x1) + latency(s, x2)) + 1e-12


def test_generic_matches_closed_form():
    # at 1e4 times the drawn mu (up to 3e6) the rate's float spacing is far above the resolution
    rng = np.random.default_rng(17)
    for _ in range(20):
        drawn = random_server(rng)
        for scale in (1.0, 1e2, 1e4):
            s = replace(drawn, mu=scale * drawn.mu)
            g = as_generic(s)
            for frac in (0.1, 0.5, 0.9):
                x = frac * s.mu
                assert latency(g, x) == pytest.approx(latency(s, x), rel=1e-12)
                assert marginal_cost(g, x) == pytest.approx(marginal_cost(s, x), rel=1e-12)
            t = latency(s, 0.7 * s.mu)
            assert invert_latency(g, t) == pytest.approx(invert_latency(s, t), rel=1e-8)
            t = marginal_cost(s, 0.7 * s.mu)
            assert invert_marginal(g, t) == pytest.approx(invert_marginal(s, t), rel=1e-8)


def _bisect_rate_loop(fn, target, hi, resolution):
    """The loop that once inverted user curves on [0, hi], for reference.

    It has no adjacent-float exit, so it never ends once the bracket's
    float spacing exceeds ``resolution``.
    """
    lo = 0.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def increasing_curve(draw):
    """(fn, target, hi): a power or queue-shaped increasing curve on [0, hi], target on its range."""
    hi = 10.0 ** draw(st.floats(-3.0, math.log10(8e3)))
    c = draw(st.floats(0.0, 10.0))
    if draw(st.booleans()):
        k = draw(st.floats(0.5, 4.0))

        def fn(x):
            return c + (x / hi) ** k
    else:
        wall = hi * (1.0 + 10.0 ** draw(st.floats(-9.0, 0.0)))

        def fn(x):
            return c + 1.0 / (wall - x)
    return fn, fn(draw(st.floats(0.0, 1.0)) * hi), hi


@settings(max_examples=300, deadline=None, database=None)
@given(increasing_curve(), st.floats(-12.0, math.log10(0.5)))
def test_bisect_keeps_the_bits_of_the_rate_loop(curve, log_resolution):
    # for hi <= 8e3 the float spacing stays below 1e-12, so the stand-alone loop ends;
    # where hi <= resolution both return 0.5 * hi without bisecting
    fn, target, hi = curve
    resolution = 10.0 ** log_resolution
    expected = _bisect_rate_loop(fn, target, hi, resolution).hex()
    assert _UserInverse(fn, hi, resolution)(target).hex() == expected


@settings(max_examples=300, deadline=None, database=None)
@given(increasing_curve())
def test_bisect_at_zero_resolution_ends_on_adjacent_floats(curve):
    fn, target, hi = curve
    assume(fn(0.0) < target)
    for x in (_UserInverse(fn, hi, 0.0)(target), _bisect_multiplier(lambda x: fn(x) - target, 0.0, hi, 0.0)):
        below = math.nextafter(x, -math.inf) if x > 0.0 else 0.0
        # x is the lower end (fn(x) < target) or the upper end (fn(x) >= target) of the last bracket
        assert fn(below) < target <= fn(math.nextafter(x, math.inf))


@settings(max_examples=200, deadline=None, database=None)
@given(st.floats(0.0, 0.2), st.floats(1.0, 8e3), st.floats(1.1, 3.0), st.floats(0.0, 1.0),
       st.floats(-12.0, 0.0), st.booleans())
def test_public_inversion_calls_as_the_loop_plus_one_probe(d, mu, k, u, log_resolution, marginal):
    """One probe of fn(top), then the reference loop's rates in its order, and its bits."""
    s = power_server(d, mu, k)
    calls = []
    fn = s.generic.latency_fn
    counted = ServerSpec.from_functions(d, mu, lambda x: calls.append(x) or fn(x), s.generic.derivative_fn)
    curve, invert = (marginal_cost, invert_marginal) if marginal else (latency, invert_latency)
    top = mu * (1.0 - EPS_SAT)
    target = curve(s, u * top)
    assume(target > s.z0)
    resolution = 10.0 ** log_resolution
    steps = []
    expected = _bisect_rate_loop(lambda x: steps.append(x) or curve(s, x), target, top, resolution)
    assert invert(counted, target, resolution).hex() == expected.hex()
    assert calls == [top] + steps


@pytest.mark.parametrize("bad", [
    dict(resolution=math.nan), dict(resolution=math.inf), dict(resolution=0.0),
    dict(eps_sat=math.nan), dict(eps_sat=0.0), dict(eps_sat=1.0),
])
def test_generic_inversions_reject_unusable_settings(bad):
    # these once gave 0.5 * mu * (1 - eps_sat) = 9.99999999 for the roots 2 and 15 alike, or nan
    s = ServerSpec.mm1(0.01, 20.0)
    g = as_generic(s)
    message = "resolution must be finite" if "resolution" in bad else "eps_sat must be in"
    for root in (2.0, 15.0):
        for invert, curve in ((invert_latency, latency), (invert_marginal, marginal_cost)):
            with pytest.raises(ValueError, match=message):
                invert(g, curve(s, root), **bad)
            # the closed form uses neither setting
            assert invert(s, curve(s, root), **bad) == pytest.approx(root, rel=1e-12)


def test_generic_saturation_error():
    # bounded latency model: saturates at 3.0 seconds
    g = ServerSpec.from_functions(0.0, 1.0, lambda x: 1.0 + 2.0 * x, lambda x: 2.0)
    with pytest.raises(SaturationError):
        invert_latency(g, 3.5)


def test_server_spec_validation():
    with pytest.raises(ValueError):
        ServerSpec(d=-0.1, mu=1.0)
    with pytest.raises(ValueError):
        ServerSpec(d=0.0, mu=0.0)
    with pytest.raises(ValueError):
        ServerSpec(d=0.0, mu=1.0, cv=-1.0)
    for bad in (dict(d=math.inf, mu=1.0), dict(d=0.0, mu=math.inf),
                dict(d=0.0, mu=1.0, cv=math.inf, model=QueueModel.MG1),
                dict(d=math.nan, mu=1.0), dict(d=0.0, mu=math.nan)):
        with pytest.raises(ValueError):
            ServerSpec(**bad)
    for cv in (1.35e154, 1e200, 1.7976931348623157e308):  # a = (1 + cv^2)/2 overflows
        with pytest.raises(ValueError, match=r"cv\^2 must be finite"):
            ServerSpec.mg1(0.0, 1.0, cv)
    assert ServerSpec.mg1(0.0, 1.0, 1.34e154).a < math.inf
    for d, mu in ((0.01, 5e-324), (1.7e308, 1e-308)):  # z0 = d + 1/mu overflows
        with pytest.raises(ValueError, match="zero-load latency d \\+ 1/mu must be finite"):
            ServerSpec.mm1(d, mu)
    assert ServerSpec.mm1(0.01, 1e-300).z0 < math.inf
    with pytest.raises(ValueError):
        ServerSpec(d=0.0, mu=1.0, cv=2.0, model=QueueModel.MM1)
    with pytest.raises(ValueError):
        ServerSpec(d=0.0, mu=1.0, cv=1.0, model=QueueModel.MD1)
    with pytest.raises(ValueError):
        ServerSpec(d=0.0, mu=1.0, cv=1.0, model=QueueModel.GENERIC)
    with pytest.raises(ValueError):
        ServerSpec(d=0.0, mu=1.0, cv=1.0, model=QueueModel.MM1,
                   generic=as_generic(ServerSpec.mm1(0.0, 1.0)).generic)


def test_slope_is_derivative():
    rng = np.random.default_rng(19)
    for _ in range(50):
        s = random_server(rng)
        x = rng.uniform(0.05, 0.9) * s.mu
        eps = 1e-7 * s.mu
        fd = (latency(s, x + eps) - latency(s, x - eps)) / (2.0 * eps)
        assert latency_slope(s, x) == pytest.approx(fd, rel=1e-5)
        assert latency_slope(as_generic(s), x) == pytest.approx(fd, rel=1e-5)
        assert marginal_cost(s, x) == pytest.approx(latency(s, x) + x * latency_slope(s, x),
                                                    rel=1e-14)


def test_md1_is_half_mm1_queue_growth():
    # deterministic service halves the queueing term's growth
    mm1 = ServerSpec.mm1(0.0, 2.0)
    md1 = ServerSpec.md1(0.0, 2.0)
    x = 1.0
    queue_mm1 = latency(mm1, x) - zero_load_latency(mm1)
    queue_md1 = latency(md1, x) - zero_load_latency(md1)
    assert queue_md1 == pytest.approx(0.5 * queue_mm1, rel=1e-13)
