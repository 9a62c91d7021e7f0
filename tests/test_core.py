import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from adiasearch.core import (
    LinearSchedule,
    MarkedState,
    Precision,
    equal_splitting,
    make_splitting,
)
from adiasearch.runtime import MonotoneCubic


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
        counts = sp.size_counts()
        # distinct sizes, ascending, whose counts rebuild the multiset of parts
        assert [size for size, _ in counts] == sorted(set(parts))
        assert [size for size, count in counts for _ in range(count)] == sorted(parts)
        # the same pairs for any order of the blocks
        assert make_splitting(n, parts[::-1]).size_counts() == counts


def test_size_counts_cap():
    assert make_splitting(128, [64, 64]).size_counts() == ((64, 2),)
    assert make_splitting(64, [1, 63]).size_counts() == make_splitting(64, [63, 1]).size_counts() == ((1, 1), (63, 1))
    # the splitting itself stays valid; only the floating-point paths refuse
    # it, before any dimension 2^size is built: 1 << 2^70 overflows
    for n, parts in [(65, [65]), (66, [1, 65]), (2000, [2000]), (2**70, [2**70]), (2**70 + 1, [1, 2**70])]:
        with pytest.raises(ValueError, match="64 qubits per block"):
            make_splitting(n, parts).size_counts()


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
    with pytest.raises(ValueError, match="marked state needs at least one bit"):
        MarkedState(())
    # truncated or parsed, these would search for a state nobody named
    for bits in ((1.9, 0.2), ("1", "0"), (True, False), (np.float64(1.0), 0)):
        with pytest.raises(ValueError, match="marked bit has the wrong type"):
            MarkedState(bits)
    assert MarkedState((np.int64(1), 0)).bits == (1, 0)
    assert type(MarkedState((np.int64(1), 0)).bits[0]) is int


def test_linear_schedule_values():
    sched = LinearSchedule()
    assert (sched.f(0.0), sched.f(0.5), sched.f(1.0)) == (1.0, 0.5, 0.0)


def test_monotone_cubic_matches_scipy_hermite_spline():
    rng = np.random.default_rng(11)
    for k in range(60):
        x = np.cumsum(rng.uniform(0.01, 1.0, int(rng.integers(2, 25)))) - 2.0
        y = np.cumsum(rng.uniform(0.01, 1.0, x.size)) * 10.0 ** rng.integers(-3, 4)
        m = np.diff(y) / np.diff(x)
        # below 3 times the chord on either side, so the cap does not bind
        slopes = rng.uniform(0.0, 2.9, x.size) * np.minimum(np.append(m[0], m), np.append(m, m[-1]))
        if k % 4 == 0:
            slopes[rng.integers(0, x.size)] = 0.0
        ours, oracle = MonotoneCubic(x, y, slopes), CubicHermiteSpline(x, y, slopes)
        # nodes, points between them and points outside the ends
        q = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 50)])
        assert np.max(np.abs(ours(q) - oracle(q))) <= 1e-12 * np.max(y)
        assert np.max(np.abs(ours.slope(q) - oracle.derivative()(q))) <= 1e-11 * np.max(np.abs(slopes))
        # a slope past its cap, infinite ones included, is the Hermite spline's through the capped slope
        steep = slopes.copy()
        steep[rng.integers(0, x.size, 2)] = [10.0 * np.max(m), np.inf]
        capped = np.minimum(steep, 3.0 * np.minimum(np.append(m[0], m), np.append(m, m[-1])))
        assert np.max(np.abs(MonotoneCubic(x, y, steep)(q) - CubicHermiteSpline(x, y, capped)(q))) <= 1e-12 * np.max(y)


def test_monotone_cubic_reads_one_node_as_a_constant():
    # the value at the node, wherever it is probed, and slope 0 whatever slope it is given
    constant = MonotoneCubic([0.3], [5.0], [2.0])
    assert constant(np.array([-1.0, 0.3, 7.0])).tolist() == [5.0] * 3
    assert constant.slope(np.array([-1.0, 0.3, 7.0])).tolist() == [0.0] * 3


def test_precision_validation():
    prec = Precision()
    assert prec.epsilon == 0.2
    with pytest.raises(ValueError):
        Precision(epsilon=0.0)
    with pytest.raises(ValueError):
        Precision(epsilon=1.0)
    with pytest.raises(ValueError):
        Precision(ode_steps_per_unit_time=0)
    # refused by type, not truncated: an infinite count would make evolve's
    # step size zero
    for steps in (math.inf, math.nan, 2.5, 64.0, True, "64"):
        with pytest.raises(ValueError, match="ode_steps_per_unit_time has the wrong type"):
            Precision(ode_steps_per_unit_time=steps)
    for eps in ("0.2", None, 0.2j, True):
        with pytest.raises(ValueError, match="epsilon has the wrong type"):
            Precision(epsilon=eps)
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
        Precision(epsilon=math.nan)
    numpy_args = Precision(epsilon=np.float32(0.25), ode_steps_per_unit_time=np.int64(8))
    assert (type(numpy_args.epsilon), type(numpy_args.ode_steps_per_unit_time)) == (float, int)
    assert numpy_args == Precision(epsilon=0.25, ode_steps_per_unit_time=8)


def test_splitting_refuses_non_integral_counts():
    # non-integral counts are refused, not truncated, parsed or read as 0 and 1
    for n, parts in ((2, [1.5, 1.5]), (2, [True, True]), (3, "12"), (3.0, [1, 2]), (np.True_, [1])):
        with pytest.raises(ValueError, match="wrong type: expected an integer"):
            make_splitting(n, parts)
    # Python and numpy integers are counts
    splitting = make_splitting(np.int64(3), [np.int32(1), 2])
    assert splitting == make_splitting(3, [1, 2]) and type(splitting.n) is int
