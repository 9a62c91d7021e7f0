import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from adiasearch.core import (
    MarkedState,
    MonotoneCubic,
    Precision,
    equal_splitting,
    linear_schedule,
    make_splitting,
    problem_from_dict,
    problem_to_dict,
    tabulated_schedule,
)


def test_make_splitting_examples():
    sp = make_splitting(6, [6])
    assert sp.num_blocks == 1
    assert sp.block_dims == (64,)
    assert sp.dim == 64

    sp = make_splitting(1, [1])
    assert sp.num_blocks == 1
    assert sp.block_dims == (2,)

    sp = make_splitting(6, [3, 2, 1])
    assert sp.num_blocks == 3
    assert sp.block_dims == (8, 4, 2)


def test_make_splitting_errors():
    with pytest.raises(ValueError):
        make_splitting(6, [3, 2])
    with pytest.raises(ValueError):
        make_splitting(6, [7, -1])
    with pytest.raises(ValueError):
        make_splitting(6, [])
    with pytest.raises(ValueError):
        make_splitting(0, [0])
    assert make_splitting(64, [1] * 64).num_blocks == 64
    with pytest.raises(ValueError, match="65 blocks exceed the cap of 64 blocks"):
        make_splitting(65, [1] * 65)


def test_equal_splitting():
    assert equal_splitting(30, 5).parts == (6,) * 5
    assert equal_splitting(6, 6).parts == (1,) * 6
    with pytest.raises(ValueError):
        equal_splitting(6, 4)
    # refused before the 10^9 block sizes are built
    with pytest.raises(ValueError, match="1000000000 blocks exceed the cap of 64 blocks"):
        equal_splitting(10**9, 10**9)
    assert equal_splitting(6, 1) == make_splitting(6, [6])


def test_block_dims_product_is_total_dim():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        parts = []
        left = n
        while left:
            p = int(rng.integers(1, left + 1))
            parts.append(p)
            left -= p
        sp = make_splitting(n, parts)
        assert np.prod([float(d) for d in sp.block_dims]) == 2.0**n
        assert sp.float_block_dims().tolist() == [float(d) for d in sp.block_dims]


def test_float_block_dims_cap():
    assert make_splitting(128, [64, 64]).float_block_dims().tolist() == [2.0**64] * 2
    # the splitting itself stays valid; only the floating-point paths refuse it
    for n, parts in [(65, [65]), (66, [1, 65]), (2000, [2000])]:
        with pytest.raises(ValueError, match="64 qubits per block"):
            make_splitting(n, parts).float_block_dims()


def test_marked_state_big_endian_index():
    marked = MarkedState.from_string("010110")
    assert marked.index == 0b010110 == 22
    assert marked.to_string() == "010110"
    assert marked.block_values(make_splitting(6, [3, 3])) == (0b010, 0b110)
    assert marked.block_values(make_splitting(6, [2, 2, 2])) == (0b01, 0b01, 0b10)
    assert MarkedState.zeros(4).index == 0


def test_marked_state_validation():
    with pytest.raises(ValueError):
        MarkedState.from_string("01a")
    with pytest.raises(ValueError):
        MarkedState.from_string("")
    with pytest.raises(ValueError):
        MarkedState((0, 2))
    with pytest.raises(ValueError):
        MarkedState.from_string("01").block_values(make_splitting(3, [3]))


def test_linear_schedule_values():
    sched = linear_schedule()
    assert (sched.f(0.0), sched.g(0.0)) == (1.0, 0.0)
    assert (sched.f(0.5), sched.g(0.5)) == (0.5, 0.5)
    for s in (0.0, 0.3, 1.0):
        assert sched.df(s) == -1.0
        assert sched.dg(s) == 1.0


def test_schedule_boundaries_every_kind():
    nodes = np.linspace(0.0, 1.0, 9)
    tab = tabulated_schedule(nodes, 1.0 - nodes**2, nodes**2)
    for sched in (linear_schedule(), tab):
        assert abs(float(sched.f(0.0)) - 1.0) <= 1e-12
        assert abs(float(sched.g(0.0))) <= 1e-12
        assert abs(float(sched.f(1.0))) <= 1e-12
        assert abs(float(sched.g(1.0)) - 1.0) <= 1e-12


def test_tabulated_schedule_derivative_matches_finite_difference():
    nodes = np.linspace(0.0, 1.0, 33)
    tab = tabulated_schedule(nodes, 1.0 - nodes**2, nodes**2)
    h = 1e-6
    for s in (0.21, 0.5, 0.83):
        fd_f = (tab.f(s + h) - tab.f(s - h)) / (2.0 * h)
        fd_g = (tab.g(s + h) - tab.g(s - h)) / (2.0 * h)
        assert float(tab.df(s)) == pytest.approx(fd_f, rel=1e-5, abs=1e-7)
        assert float(tab.dg(s)) == pytest.approx(fd_g, rel=1e-5, abs=1e-7)


def test_monotone_cubic_matches_scipy_pchip():
    rng = np.random.default_rng(11)
    samples = [(np.array([0.0, 1.0]), np.array([1.0, 0.0])), (np.array([-2.0, 3.5]), np.array([0.3, 0.3]))]
    for k in range(60):
        x = np.cumsum(rng.uniform(0.01, 1.0, int(rng.integers(3, 25)))) - 2.0
        if k % 3 == 0:
            y = np.cumsum(rng.uniform(0.0, 1.0, x.size))  # monotone
        elif k % 3 == 1:
            y = rng.normal(size=x.size) * 10.0 ** rng.integers(-3, 4)
        else:
            y = rng.integers(-1, 2, x.size).astype(float)  # flat runs and sign changes
        samples.append((x, y))
    for x, y in samples:
        ours, oracle = MonotoneCubic(x, y), PchipInterpolator(x, y)
        # nodes, points between them and points outside the ends
        q = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 50)])
        scale = max(np.max(np.abs(y)), 1.0e-300)
        assert np.max(np.abs(ours(q) - oracle(q))) <= 1e-12 * scale
        assert np.max(np.abs(ours.slope(q) - oracle.derivative()(q))) <= 1e-12 * scale / np.min(np.diff(x))


def test_tabulated_schedule_rejects_bad_samples():
    nodes = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        tabulated_schedule(nodes, [1.0, 0.5, 0.6, 0.2, 0.0], nodes)  # f not monotone
    with pytest.raises(ValueError):
        tabulated_schedule(nodes, 1.0 - nodes, [0.0, 0.3, 0.2, 0.6, 1.0])  # g not monotone
    with pytest.raises(ValueError):
        tabulated_schedule(nodes, 0.9 - 0.9 * nodes, nodes)  # f(0) != 1
    with pytest.raises(ValueError):
        tabulated_schedule([0.0, 0.5, 0.5, 0.7, 1.0], 1.0 - nodes, nodes)  # s not increasing
    # NaN fails every comparison, so only a finiteness check refuses it
    with pytest.raises(ValueError, match="s samples must be finite"):
        tabulated_schedule([0.0, math.nan, 1.0], [1.0, 0.5, 0.0], [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="f samples must be finite"):
        tabulated_schedule(nodes, [1.0, 0.7, math.nan, 0.2, 0.0], nodes)
    with pytest.raises(ValueError, match="g samples must be finite"):
        tabulated_schedule([0.0, 1.0], [1.0, 0.0], [math.nan, 1.0])


def test_precision_validation():
    prec = Precision()
    assert prec.epsilon == 0.2
    with pytest.raises(ValueError):
        Precision(epsilon=0.0)
    with pytest.raises(ValueError):
        Precision(epsilon=1.0)
    with pytest.raises(ValueError):
        Precision(ode_steps_per_unit_time=0)


def test_problem_descriptor_roundtrip():
    splitting = make_splitting(6, [3, 3])
    marked = MarkedState.from_string("010110")
    data = problem_to_dict(splitting, marked, linear_schedule())
    assert data == {"n": 6, "parts": [3, 3], "marked": "010110", "schedule": "linear"}
    back_split, back_marked, back_sched = problem_from_dict(data)
    assert back_split == splitting
    assert back_marked == marked
    assert back_sched.kind == "linear"


def test_problem_descriptor_tabulated_roundtrip():
    nodes = np.linspace(0.0, 1.0, 9)
    tab = tabulated_schedule(nodes, 1.0 - nodes**2, nodes**2)
    data = problem_to_dict(make_splitting(2, [2]), MarkedState.zeros(2), tab)
    _, _, back = problem_from_dict(data)
    assert back.kind == "tabulated"
    assert float(back.f(0.5)) == pytest.approx(0.75, abs=1e-12)


def test_problem_descriptor_rejects_bad_input():
    good = {"n": 2, "parts": [2], "marked": "00", "schedule": "linear"}
    with pytest.raises(ValueError):
        problem_from_dict({**good, "extra": 1})
    with pytest.raises(ValueError):
        problem_from_dict({"n": 2, "parts": [2], "schedule": "linear"})
    with pytest.raises(ValueError):
        problem_from_dict({**good, "marked": "000"})
    with pytest.raises(ValueError):
        problem_from_dict({**good, "schedule": "cubic"})
    with pytest.raises(ValueError, match="need the keys f, g and s"):
        problem_from_dict({**good, "schedule": {"s": [0.0, 1.0], "g": [0.0, 1.0]}})
    for field in ("n", "parts"):
        with pytest.raises(ValueError, match="wrong type"):
            problem_from_dict({**good, field: None})
    # non-integral counts are refused, not truncated, parsed or read as 0 and 1
    for bad in (
        {"n": 3.7, "parts": "12", "marked": "000"},
        {"n": 2.0},
        {"n": True, "parts": [1], "marked": "0"},
        {"parts": [1.5, 0.5]},
        {"parts": [True, 1]},
    ):
        with pytest.raises(ValueError, match="wrong type: expected an integer"):
            problem_from_dict({**good, **bad})
    for n, parts in ((2, [1.5, 1.5]), (2, [True, True]), (3, "12"), (3.0, [1, 2]), (np.True_, [1])):
        with pytest.raises(ValueError, match="wrong type: expected an integer"):
            make_splitting(n, parts)
    # Python and numpy integers are counts
    splitting = make_splitting(np.int64(3), [np.int32(1), 2])
    assert splitting == make_splitting(3, [1, 2]) and type(splitting.n) is int


def _spoiled(samples: list, how: str):
    """One way a tabulated sample list can be wrong, or the list unchanged."""
    if how == "nan":
        return samples[:1] + [math.nan] + samples[1:]
    if how == "inf":
        return samples[:-1] + [math.inf]
    if how == "short":
        return samples[:1]
    if how == "reversed":  # unsorted s, non-monotone f and g
        return samples[::-1]
    if how == "text":
        return samples[:-1] + ["x"]
    if how == "nested":
        return [samples]
    return {"none": None, "number": 1.0, "dict": [{}]}.get(how, samples)


@st.composite
def _descriptor(draw):
    """A problem descriptor, valid or malformed, as JSON would give it."""
    parts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(parts)
    data = {
        "n": draw(st.sampled_from((n, n, n, n + 1, 0, None, "x", 2.5, float(n), n + 0.7, True, str(n), math.inf, [n]))),
        "parts": draw(
            st.sampled_from(
                (parts, parts, parts, None, [], [0], [None], 5, [math.inf], "12",
                 [float(p) for p in parts], [p + 0.5 for p in parts], [True] * n, [str(p) for p in parts])
            )
        ),
        "marked": draw(st.sampled_from(("0" * n, "1" * n, "0" * n, "", "2" * n, None, 5, ["0"] * n))),
    }
    if draw(st.booleans()):
        data["schedule"] = draw(st.sampled_from(("linear", "cubic", None, [], {})))
    else:
        inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
        s = [0.0] + sorted(inner) + [1.0]
        table = {"s": s, "f": [1.0 - x for x in s], "g": list(s)}
        hows = ("keep",) * 4 + ("nan", "inf", "short", "reversed", "text", "nested", "none", "number", "dict")
        for key in table:
            table[key] = _spoiled(table[key], draw(st.sampled_from(hows)))
        if draw(st.booleans()):
            table.pop(draw(st.sampled_from(sorted(table))))
        if draw(st.booleans()):
            table["t"] = s
        data["schedule"] = table
    if draw(st.booleans()):
        data.pop(draw(st.sampled_from(sorted(data))))
    if draw(st.booleans()):
        data["extra"] = 1
    return data


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_descriptor())
def test_every_descriptor_parses_or_raises_value_error(data):
    try:
        splitting, marked, schedule = problem_from_dict(data)
    except ValueError:
        return
    assert marked.n == splitting.n
    # a parsed count is the integer given, never a truncated float, bool or string
    assert type(data["n"]) is int and all(type(p) is int for p in data["parts"])
    assert (splitting.n, list(splitting.parts)) == (data["n"], data["parts"])
    assert float(schedule.f(0.0)) == pytest.approx(1.0) and float(schedule.g(1.0)) == pytest.approx(1.0)
