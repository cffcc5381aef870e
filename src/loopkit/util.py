"""Small shared values: INFINITE, report value text, seeded RNG, 64-bit mixing.

INFINITE is math.inf: it compares above every integer and prints as inf.
format_value and parse_value are the one text form of report values.

The random generator is splitmix64 with the standard constants
(increment 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).  A (seed, budget) pair fully determines every
candidate sequence drawn from it, so search hits are replayable.
"""

from __future__ import annotations

import math

from .errors import Malformed

_MASK64 = (1 << 64) - 1

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
FINGERPRINT_BASIS = 0xCBF29CE484222325

INFINITE = math.inf

_KIND_TEXT = {"bool": "true or false", "int": "a decimal integer", "class": "a decimal or inf"}


def is_finite(value) -> bool:
    """value is not INFINITE: an identity test, as every inf class is that object."""
    return value is not INFINITE


def format_value(value) -> str:
    """A report value as text: true/false, a decimal, or inf for INFINITE."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_value(text: str, kind: str, label: str = "value"):
    """format_value's inverse for the kind "bool", "int" or "class" (an int
    or INFINITE); text that does not fit raises Malformed naming label."""
    if kind == "bool" and text in ("true", "false"):
        return text == "true"
    if kind == "class" and text == "inf":
        return INFINITE
    if kind != "bool" and text.isascii() and text.isdecimal():
        return int(text)
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
    """Fold a token sequence into 64 bits: h = mix64(h xor token), FNV basis."""
    h = FINGERPRINT_BASIS
    for v in tokens:
        h = mix64(h ^ (int(v) & _MASK64))
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
