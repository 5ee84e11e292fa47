"""Finite and infinite binary sequences, interleaving, hat coding, closed classes.

Words over {0,1} are plain Python strings of ``'0'``/``'1'`` characters, which
serialize directly as the ASCII text interface used by the rest of the package.
Infinite sequences ("reals") are wrapped in :class:`BitSource`, a deterministic
length -> prefix function with a JSON-able spec that carries its kind.
"""

from __future__ import annotations

import json
import math
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


def _nonneg_int(name: str, value) -> int:
    """A delay, stage, seed, length or entry index, checked by type too: a bool or float would enter a spec."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be {'>= 0' if type(value) is int else 'an int >= 0'}, got {value!r}")
    return value


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


class BitSource:
    """A deterministic infinite (or literal finite) binary sequence.

    Its one read is ``_prefix(n)``, the first n bits in one step (fewer only where a
    literal's word ends), a pure function of the spec (its kind and constructor
    keywords), so sources can be shared, compared by spec, and replayed.
    """

    def __init__(self, spec: dict, _prefix: Callable[[int], Bits]):
        self.spec, self._prefix, self._held = spec, _prefix, ""

    def __eq__(self, other):
        return self.spec == other.spec if other.__class__ is self.__class__ else NotImplemented

    @property
    def kind(self) -> str:
        return self.spec["kind"]

    def bit(self, i: int) -> int:
        """Bit i of one held prefix.  A read at i past its end reads, and then holds
        for the source's life, the prefix whose length is the smallest power of
        two above max(3, i + 1): at most 2 * max(3, i + 1) characters."""
        if i < 0:
            raise IndexError("negative position")
        held = self._held
        if i >= len(held):
            held = self._held = self._prefix(1 << max(3, i + 1).bit_length())
            if i >= len(held):
                raise EndOfWordError(f"{self.kind} source of length {len(held)} read at {i}")
        if (b := held[i]) not in "01":
            raise BadWordError(f"source produced non-bit {b!r}")
        return int(b)

    def prefix(self, n: int) -> Bits:
        """The first n bits in one read ("" for n <= 0)."""
        if n <= 0:
            return ""
        got = check_bits(self._prefix(n))
        if len(got) < n:
            raise EndOfWordError(f"{self.kind} source of length {len(got)} read at {len(got)}")
        return got

    @classmethod
    def literal(cls, word: Bits) -> "BitSource":
        check_bits(word)
        return cls({"kind": "literal", "word": word}, lambda n: word[:n])

    @classmethod
    def constant(cls, bit: int) -> "BitSource":
        if type(bit) is not int or bit not in (0, 1):
            raise BadWordError(f"constant bit must be the int 0 or 1, got {bit!r}")
        return cls({"kind": "constant", "bit": bit}, lambda n: str(bit) * n)

    @classmethod
    def periodic(cls, cycle: Bits, head: Bits = "") -> "BitSource":
        """head then cycle repeated forever; cycle must be nonempty."""
        check_bits(cycle)
        check_bits(head)
        if not cycle:
            raise BadWordError("empty cycle")
        spec = {"kind": "periodic", "head": head, "cycle": cycle}
        return cls(spec, lambda n: (head + cycle * (n // len(cycle) + 1))[:n])

    @classmethod
    def rational(cls, value: Fraction) -> "BitSource":
        """Binary expansion of a rational in [0,1].

        Dyadic rationals get the terminating expansion (trailing zeros);
        the value 1 is the all-ones sequence by convention.  The n-bit
        prefix (n >= 1) is floor(p 2^n / q), one big-int division.
        """
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError(f"expansion needs a value in [0,1], got {value}")
        p, q = value.numerator, value.denominator

        def prefix(n: int) -> Bits:
            return "1" * n if p == q else f"{(p << n) // q:0{n}b}"

        return cls({"kind": "rational", "value": f"{p}/{q}"}, prefix)

    @classmethod
    def hat_rational(cls, value: Fraction) -> "BitSource":
        """Hat encoding of the binary expansion of a rational in [0,1]."""
        base = cls.rational(value)
        return cls({**base.spec, "kind": "hat-rational"}, lambda n: base._prefix((n + 1) // 2).translate(_HAT)[:n])


class ClosedClass:
    """An effectively closed subset of Cantor space as a co-enumerated forbidden-prefix set.

    ``forbid_time(prefix)`` defines the class: the stage at which the prefix is
    revealed to be forbidden, or None if it never is.  A word is alive at stage s
    iff no prefix of it has been revealed by stage s; liveness is antitone in s by
    construction.  ``extend`` reads one search level.  Classes compare and hash by name.
    """

    def __init__(self, name: str, forbid_time: Callable[[Bits], Optional[int]]):
        self.name, self.forbid_time = name, forbid_time

    def __eq__(self, other):
        return self.name == other.name if isinstance(other, ClosedClass) else NotImplemented

    def __hash__(self):
        return hash(self.name)

    def forbidden(self, word: Bits, stage: int) -> bool:
        """Whether the word itself (not a shorter prefix) is revealed forbidden by the stage."""
        t = self.forbid_time(word)
        return t is not None and t <= stage

    def alive(self, word: Bits, stage: int) -> bool:
        check_bits(word)
        return not any(self.forbidden(word[:k], stage) for k in range(len(word) + 1))

    def extend(self, frontier: list[Bits], stage: int, limit: float = math.inf) -> tuple[list[Bits], float]:
        """The one-bit extensions of the frontier's words (w + "0" before w + "1") that the
        stage does not reveal forbidden, stopping after limit + 1 of them, and the least
        forbid time above the stage among the extensions met (inf if there is none)."""
        out, soonest = [], math.inf
        for cand in (w + ch for w in frontier for ch in "01"):
            t = self.forbid_time(cand)
            if t is None or t > stage:
                out.append(cand)
                soonest = soonest if t is None else min(soonest, t)
                if len(out) > limit:
                    break
        return out, soonest

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

        return _HatImage(name="hat-image", forbid_time=forbid_time)

    @classmethod
    def from_stage_sets(cls, stage_sets: dict[int, set[Bits]]) -> "ClosedClass":
        """Explicit stage-indexed forbidden sets; forbid[s] accumulates over stages.

        The name spells out each word's first stage, so two such classes share
        a name exactly when they forbid the same words at the same stages: each stage must be
        an int, as a bool or float one would name the class apart from the same int's."""
        first: dict[Bits, int] = {}
        if bad := [s for s in stage_sets if type(s) is not int]:
            raise ValueError(f"stages must be ints, got {bad[0]!r}")
        for s in sorted(stage_sets):
            for w in stage_sets[s]:
                check_bits(w)
                first.setdefault(w, s)
        name = "explicit" + json.dumps(dict(sorted(first.items())), separators=(",", ":"))
        return cls(name=name, forbid_time=lambda w: first.get(w))


class _HatImage(ClosedClass):
    """The hat image, whose levels follow its block rule with no ``forbid_time`` read: a level's
    words share one length, one of odd length closes a block, so it keeps only the bit other than
    its last, and one of even length keeps both.  Every forbid time is 0, so below stage 0 the
    generic read runs, and from 0 on none lies above the stage."""

    def extend(self, frontier, stage, limit=math.inf):
        if stage < 0:
            return super().extend(frontier, stage, limit)
        if frontier and len(frontier[0]) % 2:
            out = [w + "01"[w[-1] == "0"] for w in frontier]
        else:
            out = [w + ch for w in frontier for ch in "01"]
        return (out if len(out) <= limit else out[: int(limit) + 1]), math.inf
