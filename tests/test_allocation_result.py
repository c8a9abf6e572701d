"""``AllocationResult`` and ``average_latency`` pinned to their numpy-built originals.

The solver keeps a split as Python floats and builds ``AllocationResult.p``
when it is first read, and ``average_latency`` checks a split with an
in-order sum, leaving to numpy's own sum only the splits within that sum's
rounding bound of the tolerance.  The pins below were recorded when the
split was an array from the start and the sum was ``p.sum()``, so they hold
the lazy versions to the same bits, text and exceptions.
"""

import math
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import (
    AllocationKind,
    AllocationResult,
    DomainError,
    Scenario,
    ServerSpec,
    average_latency,
    latency,
    load_scenario_file,
    solve_nep,
    solve_optimal,
)
from taskalloc.solver import SIMPLEX_TOL, _Split, _split

from conftest import random_loads

SCENARIO1 = Path(__file__).resolve().parent.parent / "scenarios" / "scenario1.json"

# (reversed scenario1, rho, kind) -> (repr, p as float.hex), recorded with the split built as an array
PINNED = {
    (False, 0.05, "optimal"): (
        "AllocationResult(kind=<AllocationKind.OPTIMAL: 'optimal'>, p=array([1., 0., 0.]), "
        "multiplier=0.13155273437499998, active_count=1, mean_latency=0.11812500000000001, "
        "order=(0, 1, 2))",
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"]),
    (False, 0.6, "optimal"): (
        "AllocationResult(kind=<AllocationKind.OPTIMAL: 'optimal'>, "
        "p=array([0.35237435, 0.17552519, 0.47210046]), multiplier=0.5021154351202259, "
        "active_count=3, mean_latency=0.2548679473167484, order=(0, 1, 2))",
        ["0x1.68d4d279fe03ap-2", "0x1.6779c05f5ce47p-3", "0x1.e36e4d56538a1p-2"]),
    (False, 0.6, "nep"): (
        "AllocationResult(kind=<AllocationKind.NEP: 'nep'>, "
        "p=array([0.39848948, 0.1784928 , 0.42301772]), multiplier=0.26322037795442843, "
        "active_count=3, mean_latency=0.26322037795442843, order=(0, 1, 2))",
        ["0x1.980da05088562p-2", "0x1.6d8da2952fc27p-3", "0x1.b12b8e64dfc8bp-2"]),
    (True, 0.2, "optimal"): (
        "AllocationResult(kind=<AllocationKind.OPTIMAL: 'optimal'>, "
        "p=array([0.15637329, 0.21392646, 0.62970025]), multiplier=0.20766177837678365, "
        "active_count=3, mean_latency=0.16008889040560179, order=(2, 1, 0))",
        ["0x1.4040a3f8f763dp-3", "0x1.b61f132785643p-3", "0x1.42681237e0ce5p-1"]),
    (True, 0.2, "nep"): (
        "AllocationResult(kind=<AllocationKind.NEP: 'nep'>, "
        "p=array([0.        , 0.19186184, 0.80813816]), multiplier=0.16676867379792387, "
        "active_count=2, mean_latency=0.16676867379792387, order=(2, 1, 0))",
        ["0x0.0p+0", "0x1.88eedbf668c1fp-3", "0x1.9dc4490265cf8p-1"]),
}


def _scenario1(reverse: bool = False) -> Scenario:
    sc = load_scenario_file(SCENARIO1).scenario
    return Scenario(tuple(reversed(sc.servers))) if reverse else sc


def _solve(reverse: bool, rho: float, kind: str) -> AllocationResult:
    sc = _scenario1(reverse)
    solver = solve_optimal if kind == "optimal" else solve_nep
    return solver(sc, rho * sc.total_mu)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_solver_result_repr_and_bits(key):
    text, bits = PINNED[key]
    res = _solve(*key)
    assert repr(res) == text
    assert type(res.p) is np.ndarray
    assert res.p.dtype == np.float64 and res.p.shape == (3,)
    assert res.p.flags.c_contiguous and res.p.flags.writeable
    assert [float(q).hex() for q in res.p] == bits
    assert res.p is res.p  # built once, then the same array


def test_fields_and_constructor():
    assert [f.name for f in fields(AllocationResult)] == [
        "kind", "p", "multiplier", "active_count", "mean_latency", "order"]
    with pytest.raises(TypeError):
        AllocationResult(AllocationKind.NEP)  # every field is required
    res = AllocationResult(AllocationKind.NEP, p=[0.5, 0.5], multiplier=1.0, active_count=2,
                           mean_latency=1.0, order=(0, 1))
    assert res.p == [0.5, 0.5]
    with pytest.raises(FrozenInstanceError):
        res.p = np.ones(2)


@pytest.mark.parametrize("p", [np.array([0.25, 0.75]), [0.25, 0.75], (0.25, 0.75)])
def test_a_callers_split_comes_back_as_passed(p):
    res = AllocationResult(AllocationKind.OPTIMAL, p, 1.0, 2, 1.0, (0, 1))
    assert res.p is p
    assert replace(res, multiplier=2.0).p is p
    assert pickle.loads(pickle.dumps(res)).p == pytest.approx(p)


def test_eq_and_hash():
    a = _solve(False, 0.6, "nep")
    b = _solve(False, 0.6, "nep")
    assert a == a
    assert a != "not a result"
    with pytest.raises(ValueError, match="truth value of an array with more than one element"):
        a == b  # noqa: B015 - comparing is the point
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(a)
    one = Scenario((ServerSpec.mm1(0.01, 5.0),))
    assert solve_optimal(one, 2.0) == solve_optimal(one, 2.0)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_replace_asdict_and_pickle_round_trips(key):
    text, bits = PINNED[key]
    fresh = _solve(*key)
    thawed = pickle.loads(pickle.dumps(fresh))  # pickled before .p was ever read
    assert repr(thawed) == text
    assert [float(q).hex() for q in thawed.p] == bits

    res = _solve(*key)
    moved = replace(res, multiplier=-1.0)
    assert moved.p is res.p and moved.multiplier == -1.0
    d = asdict(res)
    assert list(d) == [f.name for f in fields(AllocationResult)]
    assert type(d["p"]) is np.ndarray and d["p"] is not res.p
    assert [float(q).hex() for q in d["p"]] == bits
    again = pickle.loads(pickle.dumps(res))
    assert repr(again) == text and again.p.dtype == np.float64


def _numpy_average_latency(sc, p, lam):
    """``average_latency`` as it was when it summed with numpy: the reference."""
    p = np.asarray(p, dtype=float)
    if p.shape != (len(sc.servers),):
        raise DomainError(f"probability vector has shape {p.shape}, expected ({len(sc.servers)},)")
    if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
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


def _outcome(fn, *args):
    try:
        return "value", fn(*args).hex()
    except Exception as exc:  # the type and the message are what is compared
        return type(exc).__name__, str(exc)


@st.composite
def split_case(draw):
    """A scenario, a split near the simplex's edge in some container, and a load."""
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    servers = tuple(ServerSpec.mm1(float(d), float(mu))
                    for d, mu in zip(rng.uniform(0.0, 0.2, n), rng.uniform(1.0, 50.0, n)))
    p = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 1.0, 20.0]))))
    # move one entry so the sum lands a few ulps from 1 - tol, 1 or 1 + tol
    target = 1.0 + draw(st.sampled_from([-SIMPLEX_TOL, 0.0, SIMPLEX_TOL]))
    target += draw(st.integers(-4, 4)) * np.spacing(1.0)
    k = draw(st.integers(0, n - 1))
    p[k] += target - float(p.sum())
    if draw(st.booleans()):
        p[draw(st.integers(0, n - 1))] = -draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, 1e-3]))
    length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    p = np.resize(p, max(length, 0)) if length != n else p
    container = draw(st.sampled_from([np.array, list, tuple]))
    values = container(p) if container is np.array else container(p.tolist())
    lam = float(sum(s.mu for s in servers)) * draw(st.floats(1e-6, 0.99))
    return Scenario(servers), values, lam


@settings(max_examples=300, deadline=None, database=None)
@given(split_case())
def test_average_latency_matches_the_numpy_sum(case):
    sc, p, lam = case
    assert _outcome(average_latency, sc, p, lam) == _outcome(_numpy_average_latency, sc, p, lam)


def test_average_latency_of_solver_splits_matches_the_numpy_sum(corpus):
    rng = np.random.default_rng(5)
    for sc, _ in corpus:
        for lam in random_loads(rng, sc, 3):
            for res in (solve_optimal(sc, lam), solve_nep(sc, lam)):
                floats = _split(res)
                assert type(floats) is not np.ndarray  # p not read yet: the solver's own floats
                expected = _numpy_average_latency(sc, res.p, lam).hex()
                assert average_latency(sc, floats, lam).hex() == expected
                assert average_latency(sc, res.p, lam).hex() == expected
                assert _split(res) is res.p  # once read, the array is the split



def _straddling_split(n: int, side: float) -> list:
    """n >= 8 entries whose in-order sum and numpy's sum fall on opposite sides of 1 + side * tol.

    The first entry is the float next to that bound whose next float up lies
    across it; the others are 3/8 of its ulp each, so an in-order sum rounds
    every one of them away, while numpy's pairwise sum adds them together
    first and moves the total up by at least 2 ulps.
    """
    edge = 1.0 + side * SIMPLEX_TOL
    edge = next(x for x in (edge + k * math.ulp(edge) for k in range(-4, 5))
                if (abs(x - 1.0) > SIMPLEX_TOL) != (abs(x + math.ulp(x) - 1.0) > SIMPLEX_TOL))
    return [edge] + [0.375 * math.ulp(edge)] * (n - 1)


@pytest.mark.parametrize("container, n, side", [(list, 9, -1.0), (np.array, 16, 1.0),
                                                (_Split, 130, 1.0), (_Split, 200, -1.0)],
                         ids=["list", "array", "split-high", "split-low"])
def test_average_latency_lets_numpy_decide_a_sum_near_the_tolerance(container, n, side):
    values = _straddling_split(n, side)
    in_order = 0.0
    for q in values:
        in_order += q
    numpy_sum = float(np.add.reduce(np.array(values)))
    assert (abs(in_order - 1.0) > SIMPLEX_TOL) != (abs(numpy_sum - 1.0) > SIMPLEX_TOL)
    sc = Scenario(tuple(ServerSpec.mm1(0.01, 10.0) for _ in range(n)))
    p = container(values)
    assert _outcome(average_latency, sc, p, 1.0) == _outcome(_numpy_average_latency, sc, p, 1.0)
