"""Finite and infinite binary sequences, interleaving, hat coding, closed classes.

Words over {0,1} are plain Python strings of ``'0'``/``'1'`` characters, which
serialize directly as the ASCII text interface used by the rest of the package.
Infinite sequences ("reals") are wrapped in :class:`BitSource`, a deterministic
position -> bit function with a JSON-able spec that carries its kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

Bits = str


class BadWordError(ValueError):
    """Input is not a word over {0,1}."""


class HatDecodeError(ValueError):
    """Word contains a complete two-bit block that is not 01 or 10."""


class EndOfWordError(IndexError):
    """A literal bit source was read past its end."""


_DROP_BITS = str.maketrans("", "", "01")  # translate drops bits several times faster than strip
_HAT = str.maketrans({"0": "01", "1": "10"})


def check_bits(word: str) -> Bits:
    if not isinstance(word, str) or word.translate(_DROP_BITS):
        raise BadWordError(f"not a 0/1 word: {word!r}")
    return word


def interleave(z: Bits, y: Bits) -> Bits:
    """Join two words, z on even (0-indexed) positions and y on odd ones.

    Requires |z| == |y| or |z| == |y| + 1, so every prefix length of the join
    is reachable.
    """
    check_bits(z)
    check_bits(y)
    if len(z) - len(y) not in (0, 1):
        raise BadWordError(f"interleave needs |z| - |y| in {{0,1}}, got {len(z)}, {len(y)}")
    out = [""] * (len(z) + len(y))
    out[0::2], out[1::2] = z, y
    return "".join(out)


def deinterleave(x: Bits) -> tuple[Bits, Bits]:
    """Split a word into its even-position and odd-position halves."""
    check_bits(x)
    return x[0::2], x[1::2]


def hat_encode(word: Bits) -> Bits:
    """Digit replacement 0 -> 01, 1 -> 10."""
    check_bits(word)
    return word.translate(_HAT)


def hat_decode(word: Bits) -> Bits:
    """Inverse of :func:`hat_encode` on complete blocks; a trailing odd bit is ignored."""
    check_bits(word)
    out = []
    for i in range(0, len(word) - 1, 2):
        block = word[i : i + 2]
        if block == "01":
            out.append("0")
        elif block == "10":
            out.append("1")
        else:
            raise HatDecodeError(f"block {block!r} at position {i} is not a hat image block")
    return "".join(out)


@dataclass(frozen=True)
class BitSource:
    """A deterministic infinite (or literal finite) binary sequence.

    ``bit(i)`` is a pure function of the spec (its kind and constructor keywords)
    and the position, so sources can be shared, compared by spec, and replayed.
    """

    spec: dict
    _bit: Callable[[int], int] = field(repr=False, compare=False)
    _prefix: Optional[Callable[[int], Bits]] = field(default=None, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return self.spec["kind"]

    def bit(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative position")
        b = self._bit(i)
        if b not in (0, 1):
            raise BadWordError(f"source produced non-bit {b!r}")
        return b

    def prefix(self, n: int) -> Bits:
        """The first n bits: in one step (``_prefix``, asked for n >= 1) for a
        rational or hat-rational, bit by bit for every other source."""
        if self._prefix is None or n <= 0:
            return "".join(str(self.bit(i)) for i in range(n))
        return self._prefix(n)

    @classmethod
    def literal(cls, word: Bits) -> "BitSource":
        check_bits(word)

        def bit(i: int, _w: str = word) -> int:
            if i >= len(_w):
                raise EndOfWordError(f"literal source of length {len(_w)} read at {i}")
            return int(_w[i])

        return cls({"kind": "literal", "word": word}, bit)

    @classmethod
    def constant(cls, bit: int) -> "BitSource":
        if bit not in (0, 1):
            raise BadWordError(f"constant bit must be 0 or 1, got {bit!r}")
        return cls({"kind": "constant", "bit": bit}, lambda i: bit)

    @classmethod
    def periodic(cls, cycle: Bits, head: Bits = "") -> "BitSource":
        """head then cycle repeated forever; cycle must be nonempty."""
        check_bits(cycle)
        check_bits(head)
        if not cycle:
            raise BadWordError("empty cycle")

        def bit(i: int) -> int:
            if i < len(head):
                return int(head[i])
            return int(cycle[(i - len(head)) % len(cycle)])

        return cls({"kind": "periodic", "head": head, "cycle": cycle}, bit)

    @classmethod
    def rational(cls, value: Fraction) -> "BitSource":
        """Binary expansion of a rational in [0,1].

        Dyadic rationals get the terminating expansion (trailing zeros);
        the value 1 is the all-ones sequence by convention.  Bit i is
        floor(p 2^(i+1) / q) mod 2, read from p 2^(i+1) mod 2q, so it costs
        O(log i) products of numbers below 2q, not one (i+1)-bit product.  The
        n-bit prefix is floor(p 2^n / q), one big-int division.
        """
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError(f"expansion needs a value in [0,1], got {value}")
        p, q = value.numerator, value.denominator

        def bit(i: int) -> int:
            if p == q:
                return 1
            return p * pow(2, i + 1, 2 * q) % (2 * q) // q

        def prefix(n: int) -> Bits:
            return "1" * n if p == q else f"{(p << n) // q:0{n}b}"

        return cls({"kind": "rational", "value": f"{p}/{q}"}, bit, prefix)

    @classmethod
    def hat_rational(cls, value: Fraction) -> "BitSource":
        """Hat encoding of the binary expansion of a rational in [0,1]."""
        base = cls.rational(value)

        def bit(i: int) -> int:
            z = base.bit(i // 2)
            return z if i % 2 == 0 else 1 - z

        def prefix(n: int) -> Bits:
            return base.prefix((n + 1) // 2).translate(_HAT)[:n]

        return cls({**base.spec, "kind": "hat-rational"}, bit, prefix)


@dataclass(frozen=True)
class ClosedClass:
    """An effectively closed subset of Cantor space as a co-enumerated forbidden-prefix set.

    ``forbid_time(prefix)`` returns the stage at which the prefix is revealed to
    be forbidden, or None if it never is.  A word is alive at stage s iff no
    prefix of it has been revealed by stage s; liveness is antitone in s by
    construction.
    """

    name: str
    forbid_time: Callable[[Bits], Optional[int]] = field(compare=False)

    def forbidden(self, word: Bits, stage: int) -> bool:
        """Whether the word itself (not a shorter prefix) is revealed forbidden by the stage."""
        t = self.forbid_time(word)
        return t is not None and t <= stage

    def alive(self, word: Bits, stage: int) -> bool:
        check_bits(word)
        return not any(self.forbidden(word[:k], stage) for k in range(len(word) + 1))

    @classmethod
    def full(cls) -> "ClosedClass":
        return cls(name="full", forbid_time=lambda w: None)

    @classmethod
    def hat_image(cls) -> "ClosedClass":
        """Closure of the hat-image: words whose complete 2-blocks are all 01 or 10.

        Membership is decidable, so bad prefixes are revealed at stage 0.
        """

        def forbid_time(w: Bits) -> Optional[int]:
            if len(w) >= 2 and len(w) % 2 == 0 and w[-2:] in ("00", "11"):
                return 0
            return None

        return cls(name="hat-image", forbid_time=forbid_time)

    @classmethod
    def from_stage_sets(cls, stage_sets: dict[int, set[Bits]]) -> "ClosedClass":
        """Explicit stage-indexed forbidden sets; forbid[s] accumulates over stages.

        The name spells out each word's first stage, so two such classes share
        a name exactly when they forbid the same words at the same stages."""
        first: dict[Bits, int] = {}
        for s in sorted(stage_sets):
            for w in stage_sets[s]:
                check_bits(w)
                first.setdefault(w, s)
        name = "explicit" + json.dumps(dict(sorted(first.items())), separators=(",", ":"))
        return cls(name=name, forbid_time=lambda w: first.get(w))
