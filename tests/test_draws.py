"""The registry's uniform draw against numpy's own.

``checks._uniform(rng, lo, hi)`` stands in for ``rng.uniform(lo, hi)``:
it must return the same bits and leave the generator at the same stream
position, or every stored reference would move.  A numpy release that
changes either side of that identity fails here first.
"""

import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from bispinor.harness.checks import _uniform

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
ranges = st.tuples(finite, finite).filter(lambda r: r[0] < r[1])
seeds = st.integers(min_value=0, max_value=2**63 - 1)
steps = st.lists(st.sampled_from(("uniform", "integers", "normal")), min_size=1, max_size=30)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


@given(seeds, ranges, steps)
# the registry's own ranges: gamma, the default momentum box, verify_deep's
# seed-1 box and the overflow test's box
@example(seed=7, lo_hi=(-0.999, 0.999), ops=["uniform"] * 20)
@example(seed=7, lo_hi=(-3.0, 3.0), ops=["uniform", "integers", "uniform", "normal"] * 5)
@example(seed=1, lo_hi=(-3.471653, 2.528347), ops=["uniform", "integers"] * 10)
@example(seed=3, lo_hi=(-1e160, 1e160), ops=["uniform", "normal"] * 10)
def test_uniform_matches_numpy_bit_for_bit(seed, lo_hi, ops):
    lo, hi = lo_hi
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        if op == "uniform":
            assert bits(_uniform(rng_a, lo, hi)) == bits(rng_b.uniform(lo, hi))
        elif op == "integers":
            assert rng_a.integers(7) == rng_b.integers(7)
        else:
            assert bits(rng_a.normal()) == bits(rng_b.normal())
    # both generators stay at the same stream position
    assert rng_a.bit_generator.state == rng_b.bit_generator.state

