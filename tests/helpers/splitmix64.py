"""Reference SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014), one output at a time in Python integers.

``tolalloc.surrogate._uniform`` computes the same outputs in one vectorised
pass of wrapping uint64 arithmetic, for sampling and for the multistart's
starts; the tests require the two to agree bit for bit.
"""

MASK = 2**64 - 1


def splitmix64(seed, count):
    """The first ``count`` 64-bit outputs of SplitMix64 from state ``seed``."""
    state, out = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def uniforms(seed, count):
    """Those outputs as doubles in [0, 1): the top 53 bits times 2**-53."""
    return [(z >> 11) * 2.0**-53 for z in splitmix64(seed, count)]
