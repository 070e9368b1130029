"""The channel's noise contract, written out use by use in plain Python.

It imports nothing from markovsim, so the package's array pass is checked
against code that shares none of its steps.  A row and direction's key is
``SeedSequence((seed, direction)).generate_state(1, np.uint64)[0]``;
``draw(key, c)`` is SplitMix64's output at counter c (Steele, Lea & Flood,
OOPSLA 2014).  Use p's 53-bit uniform takes its top 8 bits, most significant
first, from bit p % 64 of ``draw(8 * (p // 64) + i)`` for i = 0..7, and its
low 45 bits from ``draw(2**63 + p) >> 19``; the use flips when that uniform
is below ``ceil(eps * 2**53)``.
"""

import math

import numpy as np

MASK = (1 << 64) - 1


def key(seed, direction):
    return int(np.random.SeedSequence((seed, direction)).generate_state(1, np.uint64)[0])


def draw(key, counter):
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & MASK
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def uniform(key, p):
    """Use p's 53-bit uniform."""
    word, bit = divmod(p, 64)
    top = 0
    for i in range(8):
        top = top << 1 | draw(key, 8 * word + i) >> bit & 1
    return top << 45 | draw(key, (1 << 63) + p) >> 19


def uniforms(seed, direction, count):
    """The uniforms of a direction's first count uses."""
    k = key(seed, direction)
    return [uniform(k, p) for p in range(count)]


def threshold(eps):
    return math.ceil(eps * 2.0**53)
