"""An independent upper bound on every computed price of anarchy.

Correa, Schulz & Stier-Moses bound the price of anarchy of nonatomic
routing with nondecreasing latencies: with v_i the equilibrium rate of
server i,

    eta <= B = 1 / (1 - max_i beta(l_i, v_i)),
    beta(l, v) = max over 0 <= x <= v of x (l(v) - l(x)) / (v l(v)).

For a convex l the objective is concave in x, so its maximum is where the
derivative l(v) - l(x) - x l'(x) changes sign, found by bisection.  The
bound uses only the equilibrium rates and the curves, never the optimal
solver, so it checks U* from below where the oracle checks it from above.
Only delays as given apply: under the other delay modes the equilibrium is
solved on a transformed scenario and is not one of the evaluated game.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import Scenario, ServerSpec, latency, latency_slope, poa_at, solve_nep


def beta(s: ServerSpec, v: float) -> float:
    """Correa-Schulz-Stier-Moses beta(l, v) of a convex closed-form curve l."""
    if v <= 0.0:
        return 0.0
    lv = latency(s, v)
    lo, hi = 0.0, v  # the derivative is >= 0 at 0 and <= 0 at v
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if lv - latency(s, mid) - mid * latency_slope(s, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid * (lv - latency(s, mid)) / (v * lv)


def anarchy_bound(sc: Scenario, lam: float) -> float:
    p = solve_nep(sc, lam).p
    return 1.0 / (1.0 - max(beta(s, float(q) * lam) for s, q in zip(sc.servers, p)))


@st.composite
def closed_scenario_and_load(draw):
    servers = []
    for _ in range(draw(st.integers(1, 9))):
        d = draw(st.floats(0.0, 0.2))
        mu = draw(st.floats(1.0, 300.0))
        model = draw(st.sampled_from(["mm1", "md1", "mg1"]))
        if model == "mm1":
            servers.append(ServerSpec.mm1(d, mu))
        elif model == "md1":
            servers.append(ServerSpec.md1(d, mu))
        else:
            servers.append(ServerSpec.mg1(d, mu, draw(st.floats(0.01, 10.0))))
    sc = Scenario(tuple(servers))
    return sc, draw(st.floats(0.01, 0.995)) * sc.total_mu


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(closed_scenario_and_load())
def test_eta_is_below_the_anarchy_bound(case):
    sc, lam = case
    assert poa_at(sc, lam).eta <= anarchy_bound(sc, lam) * (1.0 + 1e-12)


def test_zero_delay_mm1_bound_is_roughgardens_anarchy_value():
    mu = 10.0
    s = ServerSpec.mm1(0.0, mu)
    for rho, printed in ((0.5, 1.2071), (0.9, 2.0811)):
        v = rho * mu
        bound = 1.0 / (1.0 - beta(s, v))
        assert math.isclose(bound, 0.5 * (1.0 + math.sqrt(mu / (mu - v))), rel_tol=1e-12)
        assert round(bound, 4) == printed
