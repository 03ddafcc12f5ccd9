"""Sorts for the bit-vector/Boolean term language.

The paper models every program variable as a fixed-width bit vector and
every branch condition as a Boolean (Section 4: "we model each variable in
the path condition as a bit vector ... the length of each bit vector is the
bit width, e.g., 32, of the variable type").  Two sorts are therefore
enough: ``Bool`` and ``BitVec(w)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Sort:
    """A term sort: either Boolean or a fixed-width bit vector.

    ``width == 0`` encodes the Boolean sort; any positive width encodes a
    bit vector of that many bits.
    """

    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"sort width must be >= 0, got {self.width}")

    @property
    def is_bool(self) -> bool:
        return self.width == 0

    @property
    def is_bv(self) -> bool:
        return self.width > 0

    def __repr__(self) -> str:
        return "Bool" if self.is_bool else f"BitVec({self.width})"


BOOL = Sort(0)

# Default word width used by the front end when mapping program integers to
# bit vectors.  32 bits matches the paper's example; benchmarks may narrow
# this to keep bit-blasting tractable in pure Python.
DEFAULT_WIDTH = 32


@lru_cache(maxsize=None)
def bitvec(width: int) -> Sort:
    """Return the bit-vector sort of the given positive ``width``.

    Cached: one object per width, so building a variable or a literal
    allocates no sort.  It still compares equal to ``Sort(width)``.
    """
    if width <= 0:
        raise ValueError(f"bit-vector width must be positive, got {width}")
    return Sort(width)
