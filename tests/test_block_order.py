"""Every result is a function of the multiset of block sizes, bit for bit.

The blocks are independent, so reordering ``parts`` relabels them and
changes nothing else: the running time, the schedule's nodes and the success
probability keep every bit, and so do the gap columns, held one per size.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiasearch.core import MarkedState, Precision, make_splitting
from adiasearch.dynamics import evolve
from adiasearch.runtime import optimal_schedule, running_time_integral
from adiasearch.spectral import gap_profile


@st.composite
def _composition_and_order(draw):
    """(parts, order): a composition of n <= 12 and a permutation of its block indices."""
    n = draw(st.integers(1, 12))
    parts = []
    while sum(parts) < n:
        parts.append(draw(st.integers(1, n - sum(parts))))
    return parts, draw(st.permutations(range(len(parts))))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_composition_and_order())
@example(([1, 63], [1, 0]))
@example(([10, 54], [1, 0]))
@example(([1, 31, 32], [2, 0, 1]))
# orders that once moved eps_t and the success probability in their last bits
@example(([9, 1, 1, 1], [1, 2, 3, 0]))
@example(([3, 1, 2], [2, 1, 0]))
def test_results_depend_only_on_the_multiset_of_block_sizes(case):
    parts, order = case
    n = sum(parts)
    given_order = make_splitting(n, parts)
    reordered = make_splitting(n, [parts[i] for i in order])
    assert running_time_integral(reordered).eps_t == running_time_integral(given_order).eps_t

    schedules = [optimal_schedule(splitting) for splitting in (given_order, reordered)]
    for name in ("t_nodes", "s_nodes", "rate_nodes"):
        assert getattr(schedules[1], name).tobytes() == getattr(schedules[0], name).tobytes(), name

    gaps, gaps_reordered = gap_profile(given_order), gap_profile(reordered)
    assert gaps_reordered.size_gaps.tobytes() == gaps.size_gaps.tobytes()
    assert gaps_reordered.global_gap.tobytes() == gaps.global_gap.tobytes()
    assert gaps_reordered.omega_min == gaps.omega_min

    if n <= 6:
        precision = Precision(epsilon=0.5)
        p = [
            evolve(splitting, MarkedState.zeros(n), optimal_schedule(splitting, precision), precision).success_probability
            for splitting in (given_order, reordered)
        ]
        assert p[1] == p[0]
