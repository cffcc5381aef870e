"""Small shared values: INFINITE, report value text, seeded RNG, 64-bit mixing.

INFINITE is math.inf: it compares above every integer and prints as inf.
format_value and parse_value are the one text form of report values, and
VALUE_PATTERNS its one grammar, which the catalog's record pattern reuses.

The random generator is splitmix64 with the standard constants
(increment 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).  A (seed, budget) pair fully determines every
candidate sequence drawn from it, so search hits are replayable.
"""

from __future__ import annotations

import math
import re

from .errors import Malformed

_MASK64 = (1 << 64) - 1

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
FINGERPRINT_BASIS = 0xCBF29CE484222325

INFINITE = math.inf

# The text of each kind of report value: ASCII digits, no sign or padding,
# and no more than the 4,300 digits int() takes by default.
_DECIMAL = "[0-9]{1,4300}"
VALUE_PATTERNS = {"bool": "true|false", "int": _DECIMAL, "class": f"{_DECIMAL}|inf"}
_VALUE_TEXT = {kind: re.compile(pattern) for kind, pattern in VALUE_PATTERNS.items()}
_KIND_TEXT = {"bool": "true or false", "int": "a decimal integer", "class": "a decimal or inf"}
_WORDS = {"true": True, "false": False, "inf": INFINITE}


def is_finite(value) -> bool:
    """value is not INFINITE: an identity test, as every inf class is that object."""
    return value is not INFINITE


def format_value(value) -> str:
    """A report value as text: true/false, a decimal, or inf for INFINITE."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def values_of(texts) -> list:
    """The values of texts that each fit one of VALUE_PATTERNS (unchecked)."""
    return [_WORDS[t] if t in _WORDS else int(t) for t in texts]


def parse_value(text: str, kind: str, label: str = "value"):
    """format_value's inverse for the kind "bool", "int" or "class" (an int
    or INFINITE); text that does not fit VALUE_PATTERNS[kind] raises
    Malformed naming label."""
    if _VALUE_TEXT[kind].fullmatch(text):
        return values_of((text,))[0]
    raise Malformed(f"{label} needs {_KIND_TEXT[kind]}, got {text!r}")


def mix64(value: int) -> int:
    """splitmix64 output stage; a fixed 64-bit bijective mixer."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream; the draw order is part of the contract."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + SPLITMIX_GAMMA) & _MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Draw an integer in 0..n-1 as next_u64() mod n (documented bias)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


def hash_tokens(tokens) -> int:
    """Fold a token sequence into 64 bits: h = mix64(h xor token), FNV basis.
    mix64 is written out in the loop, a call fewer per token."""
    mask, mul_1, mul_2 = _MASK64, _MIX_MUL_1, _MIX_MUL_2
    h = FINGERPRINT_BASIS
    for v in tokens:
        z = h ^ (int(v) & mask)
        z = ((z ^ (z >> 30)) * mul_1) & mask
        z = ((z ^ (z >> 27)) * mul_2) & mask
        h = z ^ (z >> 31)
    return h


def prime_divisors(n: int, limit: int) -> tuple[int, ...]:
    """The primes dividing n >= 1 in increasing order, given that none
    exceeds limit (the order of a group of degree d divides d!, so d
    will do).  Trial division by 2..limit removes each prime before any
    of its multiples is tried."""
    out = []
    for p in range(2, limit + 1):
        if n == 1:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    return tuple(out)


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True
