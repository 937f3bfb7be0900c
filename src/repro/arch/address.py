"""Address arithmetic: cache-block and page decomposition of byte ranges.

Simulated memory accesses are issued as byte ranges; the machines walk
the cache blocks (and TLB pages) a range covers. These helpers keep that
arithmetic in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class AddressRange:
    """A half-open byte range ``[start, start + length)``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 0:
            raise ValueError(f"invalid range: start={self.start} len={self.length}")

    @property
    def end(self) -> int:
        return self.start + self.length

    def blocks(self, block_bytes: int) -> Iterator[int]:
        """Block-aligned addresses of every cache block the range touches."""
        return block_span(self.start, self.length, block_bytes)

    def pages(self, page_bytes: int) -> Iterator[int]:
        """Page-aligned addresses of every page the range touches."""
        return page_span(self.start, self.length, page_bytes)


def block_span(start: int, length: int, block_bytes: int) -> Iterator[int]:
    """Yield block-aligned addresses covering ``[start, start+length)``."""
    if length <= 0:
        return
    first = start - (start % block_bytes)
    last = (start + length - 1) - ((start + length - 1) % block_bytes)
    for addr in range(first, last + 1, block_bytes):
        yield addr


def page_span(start: int, length: int, page_bytes: int) -> Iterator[int]:
    """Yield page-aligned addresses covering ``[start, start+length)``."""
    return block_span(start, length, page_bytes)


def align_up(value: int, alignment: int) -> int:
    """Smallest multiple of ``alignment`` that is >= ``value``."""
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + alignment - remainder
