"""The first uniform double of many runs' generators, in one numpy pass.

Run k of an estimate draws from default_rng(SeedSequence((seed, k))). A
shot run of a fixed program reads one double from it, and building that
Generator costs far more than the draw. first_doubles re-derives the double
for a range of k on arrays, following numpy's SeedSequence and PCG64 step
by step:

  1. The entropy is the little-endian uint32 words of seed, then of k (0 is
     one word). SeedSequence hashes them into a pool of 4 uint32 words
     (mix_entropy) and expands the pool into 8 words (generate_state(4,
     uint64)), read as four uint64 s0..s3. All of it is uint32 arithmetic
     whose multipliers depend only on the word position, so each step is
     one array operation over the runs.
  2. PCG64 takes initstate = s0:s1 and initseq = s2:s3 (high:low). It sets
     inc = 2 initseq + 1 and state = inc, adds initstate and steps once,
     where a step is state <- state * MULT + inc mod 2^128. The first draw
     steps again and outputs XSL-RR: (hi ^ lo) rotated right by the top six
     bits of the state. The double is (output >> 11) * 2^-53.

128-bit products run on uint64 pairs (hi, lo), each 64-bit product split
into 32-bit halves. Runs go through blocks of at most BLOCK runs, and the
entropy length changes only where k crosses a power of 2^32, so a block
never mixes lengths and the scratch is O(BLOCK) whatever the range.
NEP 19 keeps bit-generator streams stable across numpy versions, not
Generator methods, so estimates check run 0 against numpy before using it.
"""

import numpy as np

BLOCK = 1 << 14  # runs per array pass

_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # pool expansion hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG64 multiplier


def _words(value):
    """The uint32 words SeedSequence reads from a non-negative int, low first."""
    out = [value & _M32]
    value >>= 32
    while value:
        out.append(value & _M32)
        value >>= 32
    return out


def _hash(value, const):
    """SeedSequence's hashmix: (hashed word array, next multiplier)."""
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _M32
    value *= np.uint32(const)
    value ^= value >> np.uint32(16)
    return value, const


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    out ^= out >> np.uint32(16)
    return out


def _pool(entropy):
    """mix_entropy of a list of uint32 word arrays into the 4-word pool."""
    const = _INIT_A
    zeros = np.zeros_like(entropy[0])
    pool = []
    for i in range(_POOL):
        word, const = _hash(entropy[i] if i < len(entropy) else zeros, const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hash(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            word, const = _hash(entropy[src], const)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _state_words(pool):
    """generate_state(4, uint64) of the pool, as four uint64 arrays."""
    const = _INIT_B
    words = []
    for i in range(2 * _POOL):
        word = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        word *= np.uint32(const)
        word ^= word >> np.uint32(16)
        words.append(word.astype(np.uint64))
    return [words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(_POOL)]


def _mul64(a, b):
    """(hi, lo) of the 128-bit products of uint64 arrays a and the constant b."""
    a0, a1 = a & np.uint64(_M32), a >> np.uint64(32)
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    lo = (mid << np.uint64(32)) | (p00 & np.uint64(_M32))
    hi = a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, lo


def _add(a_hi, a_lo, b_hi, b_lo):
    """128-bit sums mod 2^128 of (hi, lo) pairs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step: state * MULT + inc mod 2^128."""
    top, low = _mul64(lo, _PCG_LO)
    top += lo * np.uint64(_PCG_HI) + hi * np.uint64(_PCG_LO)
    return _add(top, low, inc_hi, inc_lo)


def _block(seed_words, ks, k_words):
    """First doubles of the runs ks (uint64), whose k has k_words words."""
    entropy = [np.full(len(ks), w, dtype=np.uint32) for w in seed_words]
    entropy += [((ks >> np.uint64(32 * j)) & np.uint64(_M32)).astype(np.uint32) for j in range(k_words)]
    s0, s1, s2, s3 = _state_words(_pool(entropy))
    one = np.uint64(1)
    inc_hi = (s2 << one) | (s3 >> np.uint64(63))
    inc_lo = (s3 << one) | one
    hi, lo = _add(inc_hi, inc_lo, s0, s1)  # state 0 stepped once is inc
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)  # the first draw
    rot = hi >> np.uint64(58)
    mixed = hi ^ lo
    out = (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def first_doubles(seed, start, stop):
    """default_rng(SeedSequence((seed, k))).random() for k in [start, stop)."""
    seed, start, stop = int(seed), int(start), int(stop)
    if seed < 0 or start < 0 or stop > 1 << 64:
        raise ValueError("seed and run indices must be in [0, 2^64)")
    seed_words = _words(seed)
    out = np.empty(max(stop - start, 0))
    lo = start
    while lo < stop:
        k_words = len(_words(lo))
        hi = min(stop, lo + BLOCK, 1 << (32 * k_words))
        ks = np.arange(lo, hi, dtype=np.uint64)
        out[lo - start : hi - start] = _block(seed_words, ks, k_words)
        lo = hi
    return out
