"""On-disk record and page layout.

Fixed-width records packed into 4 KiB pages (a simplified DB2 page: no slot
indirection — record *i* of a page sits at ``i * record_size``). Fields are
integers (8-byte little-endian) or fixed-size byte strings, so encoding and
decoding is cheap and fully deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

PAGE_SIZE = 4096

FieldValue = Union[int, bytes]


@dataclass(frozen=True)
class Schema:
    """A table schema: ordered (name, width) pairs; width 0 means an
    8-byte integer, otherwise a fixed byte string of that many bytes."""

    name: str
    fields: Tuple[Tuple[str, int], ...]

    # derived once per schema (cached_property stores into the instance
    # __dict__, which a frozen dataclass allows): these sit on the
    # per-record path of every scan and loader
    @cached_property
    def codec(self) -> struct.Struct:
        """The whole record as one little-endian struct: ``q`` per integer
        field, ``<w>s`` (truncating, NUL-padding) per byte field."""
        return struct.Struct(
            "<" + "".join("q" if w == 0 else f"{w}s" for _n, w in self.fields))

    @cached_property
    def record_size(self) -> int:
        return self.codec.size

    @cached_property
    def records_per_page(self) -> int:
        return PAGE_SIZE // self.record_size

    @cached_property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _w in self.fields)

    def field_names(self) -> List[str]:
        return list(self.names)


class Record:
    """Encode/decode one record of a schema."""

    @staticmethod
    def encode(schema: Schema, values: Dict[str, FieldValue]) -> bytes:
        get = values.get
        return schema.codec.pack(*[
            int(get(name, 0)) if width == 0 else bytes(get(name, b""))
            for name, width in schema.fields])

    @staticmethod
    def decode(schema: Schema, data: bytes,
               offset: int = 0) -> Dict[str, FieldValue]:
        """The record at ``data[offset:offset + schema.record_size]``."""
        return dict(zip(schema.names,
                        schema.codec.unpack_from(data, offset)))


class Page:
    """A page image: a bytearray of PAGE_SIZE with record accessors."""

    __slots__ = ("schema", "data")

    def __init__(self, schema: Schema, data: bytes = b"") -> None:
        self.schema = schema
        self.data = bytearray(data.ljust(PAGE_SIZE, b"\0")[:PAGE_SIZE])

    def record(self, i: int) -> Dict[str, FieldValue]:
        rs = self.schema.record_size
        if i < 0 or i >= self.schema.records_per_page:
            raise IndexError(f"record {i} out of page range")
        return Record.decode(self.schema, self.data, i * rs)

    def put_record(self, i: int, values: Dict[str, FieldValue]) -> None:
        rs = self.schema.record_size
        if i < 0 or i >= self.schema.records_per_page:
            raise IndexError(f"record {i} out of page range")
        self.data[i * rs:(i + 1) * rs] = Record.encode(self.schema, values)

    def records(self) -> List[Dict[str, FieldValue]]:
        return [self.record(i) for i in range(self.schema.records_per_page)]


def rid_to_page(schema: Schema, rid: int) -> Tuple[int, int]:
    """Map a record id to (page number, slot within page)."""
    rpp = schema.records_per_page
    return rid // rpp, rid % rpp


def table_pages(schema: Schema, nrecords: int) -> int:
    """Pages needed for ``nrecords`` records."""
    rpp = schema.records_per_page
    return (nrecords + rpp - 1) // rpp
