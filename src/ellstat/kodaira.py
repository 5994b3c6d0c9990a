"""Kodaira reduction types and their bookkeeping.

The tag set is exactly I0, I_n (n >= 1), II, III, IV, I0*, I_n* (n >= 1),
IV*, III*, II*.  Labels follow the wire format "I0", "In:3", "I*0",
"I*n:2", "IV*", ...  A type computes its label once and keeps it: Tate runs
return shared types (see localdata), so a sampler that counts labels reads
each one from the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = ["KodairaType", "parse_kodaira"]

# number of irreducible components of the special fibre (for Ogg's formula)
_COMPONENTS = {
    "I0": 1,
    "II": 1,
    "III": 2,
    "IV": 3,
    "I0*": 5,
    "IV*": 7,
    "III*": 8,
    "II*": 9,
}


@dataclass(frozen=True)
class KodairaType:
    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind in _COMPONENTS:
            if self.n != 0:
                raise ValueError(f"type {self.kind} carries no index")
        elif self.kind in ("In", "In*"):
            if self.n < 1:
                raise ValueError(f"type {self.kind} needs index n >= 1")
        else:
            raise ValueError(f"unknown Kodaira kind {self.kind!r}")

    @cached_property
    def label(self) -> str:
        if self.kind == "In":
            return f"In:{self.n}"
        if self.kind == "In*":
            return f"I*n:{self.n}"
        if self.kind == "I0*":
            return "I*0"
        return self.kind

    def __str__(self) -> str:
        return self.label

    @property
    def is_good(self) -> bool:
        return self.kind == "I0"

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "In"

    @property
    def is_additive(self) -> bool:
        return not (self.is_good or self.is_multiplicative)

    @property
    def components(self) -> int:
        if self.kind == "In":
            return self.n
        if self.kind == "In*":
            return self.n + 5
        return _COMPONENTS[self.kind]


def parse_kodaira(label: str) -> KodairaType:
    label = label.strip()
    if label == "I*0":
        return KodairaType("I0*")
    if label.startswith("In:"):
        return KodairaType("In", int(label[3:]))
    if label.startswith("I*n:"):
        return KodairaType("In*", int(label[4:]))
    return KodairaType(label)
