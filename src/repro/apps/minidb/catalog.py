"""Table catalogs and data generation for the TPC-C-like and TPC-D-like
workloads (scaled down from the paper's 400 MB / 100 MB databases so a pure-
Python simulation finishes; the access *patterns* — random point access with
updates vs sequential scan — are preserved)."""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ...osim.filesystem import FileSystem
from .layout import PAGE_SIZE, Schema, table_pages


# ---------------------------------------------------------------------------
# TPC-C-like schema (OLTP)
# ---------------------------------------------------------------------------

WAREHOUSE = Schema("warehouse", (
    ("w_id", 0), ("w_ytd", 0), ("w_tax", 0), ("w_name", 16), ("w_pad", 32)))
DISTRICT = Schema("district", (
    ("d_id", 0), ("d_w_id", 0), ("d_ytd", 0), ("d_tax", 0),
    ("d_next_o_id", 0), ("d_name", 16), ("d_pad", 24)))
CUSTOMER = Schema("customer", (
    ("c_id", 0), ("c_d_id", 0), ("c_w_id", 0), ("c_balance", 0),
    ("c_ytd_payment", 0), ("c_payment_cnt", 0), ("c_name", 24),
    ("c_pad", 48)))
ITEM = Schema("item", (
    ("i_id", 0), ("i_price", 0), ("i_name", 24), ("i_pad", 16)))
STOCK = Schema("stock", (
    ("s_i_id", 0), ("s_w_id", 0), ("s_quantity", 0), ("s_ytd", 0),
    ("s_order_cnt", 0), ("s_pad", 24)))
ORDERS = Schema("orders", (
    ("o_id", 0), ("o_d_id", 0), ("o_w_id", 0), ("o_c_id", 0),
    ("o_ol_cnt", 0), ("o_entry_d", 0)))
ORDER_LINE = Schema("order_line", (
    ("ol_o_id", 0), ("ol_d_id", 0), ("ol_w_id", 0), ("ol_number", 0),
    ("ol_i_id", 0), ("ol_quantity", 0), ("ol_amount", 0)))

# ---------------------------------------------------------------------------
# TPC-D-like schema (decision support)
# ---------------------------------------------------------------------------

LINEITEM = Schema("lineitem", (
    ("l_orderkey", 0), ("l_partkey", 0), ("l_quantity", 0),
    ("l_extendedprice", 0), ("l_discount", 0), ("l_tax", 0),
    ("l_returnflag", 1), ("l_linestatus", 1), ("l_shipdate", 0),
    ("l_pad", 14)))
CUSTOMER_D = Schema("customer_d", (
    ("c_custkey", 0), ("c_mktsegment", 0), ("c_name", 24), ("c_pad", 8)))
ORDERS_D = Schema("orders_d", (
    ("o_orderkey", 0), ("o_custkey", 0), ("o_orderdate", 0),
    ("o_totalprice", 0), ("o_shippriority", 0)))


@dataclass
class TableInfo:
    """One table in a catalog: schema, cardinality, file path."""

    schema: Schema
    nrecords: int
    path: str

    @property
    def npages(self) -> int:
        return table_pages(self.schema, self.nrecords)

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE


@dataclass
class Catalog:
    """A workload's set of tables."""

    name: str
    tables: Dict[str, TableInfo] = field(default_factory=dict)

    def add(self, schema: Schema, nrecords: int, root: str) -> TableInfo:
        t = TableInfo(schema, nrecords, f"{root}/{schema.name}.tbl")
        self.tables[schema.name] = t
        return t

    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.tables.values())


def tpcc_catalog(warehouses: int = 1, scale: float = 0.02,
                 root: str = "/db/tpcc") -> Catalog:
    """TPC-C-like catalog. ``scale`` shrinks the per-warehouse cardinalities
    (1.0 would be the full 30k customers / 100k stock rows per warehouse)."""
    c = Catalog("tpcc")
    w = warehouses
    cust = max(30, int(30_000 * scale))
    stock = max(100, int(100_000 * scale))
    items = max(100, int(100_000 * scale))
    c.add(WAREHOUSE, w, root)
    c.add(DISTRICT, 10 * w, root)
    c.add(CUSTOMER, cust * w, root)
    c.add(ITEM, items, root)
    c.add(STOCK, stock * w, root)
    # orders / order_line grow at run time: reserve space
    c.add(ORDERS, max(64, cust * w), root)
    c.add(ORDER_LINE, max(640, 10 * cust * w), root)
    return c


def tpcd_catalog(scale: float = 0.001, root: str = "/db/tpcd") -> Catalog:
    """TPC-D-like catalog. ``scale`` is the fraction of SF=1 cardinalities
    (SF=1 lineitem is 6 M rows; the paper's Table 2 run used a 12 MB DB)."""
    c = Catalog("tpcd")
    li = max(200, int(6_000_000 * scale))
    orders = max(50, int(1_500_000 * scale))
    cust = max(15, int(150_000 * scale))
    c.add(LINEITEM, li, root)
    c.add(ORDERS_D, orders, root)
    c.add(CUSTOMER_D, cust, root)
    return c


# ---------------------------------------------------------------------------
# loaders (host-side: populate the simulated file system before simulating)
# ---------------------------------------------------------------------------

#: integer fields drawn from the table's stream: name -> (offset, bound),
#: the value is ``offset + randrange(bound)``. Every other integer field
#: holds the record id if named ``*_id`` / ``*key``, else draws
#: ``_DEFAULT_DRAW``; a one-byte field is an A/B/C flag, ``_FLAG_DRAW``.
_INT_DRAWS = {
    "l_quantity": (1, 50),
    "l_extendedprice": (100, 100_000),
    "l_discount": (0, 11),
    "l_shipdate": (0, 2_500),
    "o_orderdate": (0, 2_500),
    "c_mktsegment": (0, 5),
    "s_quantity": (10, 91),
    "i_price": (1, 10_000),
}
_DEFAULT_DRAW = (0, 1_000)
_FLAG_DRAW = (ord("A"), 3)


def _draw(slot: int, offset: int, bound: int) -> Tuple[int, int, int, int]:
    return slot, offset, bound, bound.bit_length()


def _draw_plan(schema: Schema, custkey_range: int):
    """How one table's records are generated: (a codec for the record,
    its value list with the constant fields filled in, the slots that hold
    the record id, the ordered draws ``(slot, offset, bound, bits)``).
    Built per :func:`load_table` call and never kept.

    The codec is the schema's, except that a one-byte field packs an
    unsigned byte (``B``), so a flag is drawn as an integer like every
    other field: ``B`` of 65 packs the same byte as ``1s`` of ``b"A"``."""
    fmt, values, rid_slots, draws = "<", [], [], []
    for slot, (name, width) in enumerate(schema.fields):
        if width == 0:
            fmt += "q"
            values.append(0)
            if name.endswith(("_id", "key")):
                rid_slots.append(slot)
            else:
                draws.append(_draw(slot, *_INT_DRAWS.get(name, _DEFAULT_DRAW)))
        elif width == 1:
            fmt += "B"
            values.append(0)
            draws.append(_draw(slot, *_FLAG_DRAW))
        else:
            fmt += f"{width}s"
            values.append((name.encode() * 8)[:width])
    if custkey_range and "o_custkey" in schema.names:
        # drawn after the record's other draws; overwrites its rid fill
        draws.append(_draw(schema.names.index("o_custkey"), 0, custkey_range))
    return struct.Struct(fmt), values, rid_slots, draws


def load_table(fs: FileSystem, info: TableInfo, seed: int = 7,
               custkey_range: int = 0) -> None:
    """Generate and write one table's pages into the simulated FS.

    Each draw is ``randrange(bound)`` made inline: ``getrandbits`` of the
    bound's bit length, drawn again while out of range. That is the stream
    ``random.Random.randrange`` consumes, so it yields the same values."""
    # crc32 keeps the stream stable across processes (str.__hash__ is
    # randomized per interpreter, which made generated data non-reproducible)
    rng = random.Random(zlib.crc32(f"{seed}:{info.schema.name}".encode()))
    getrandbits = rng.getrandbits
    codec, values, rid_slots, draws = _draw_plan(info.schema, custkey_range)
    pack_into = codec.pack_into
    rpp, rs = info.schema.records_per_page, codec.size
    out = bytearray(info.npages * PAGE_SIZE)
    for rid in range(info.nrecords):
        for slot in rid_slots:
            values[slot] = rid
        for slot, offset, bound, bits in draws:
            r = getrandbits(bits)
            while r >= bound:
                r = getrandbits(bits)
            values[slot] = offset + r
        page, pos = divmod(rid, rpp)
        pack_into(out, page * PAGE_SIZE + pos * rs, *values)
    if fs.exists(info.path):
        fs.unlink(info.path)
    fs.create(info.path, out, reserve=len(out) * 2)


def load_catalog(fs: FileSystem, catalog: Catalog, seed: int = 7) -> None:
    """Load every table of a catalog."""
    cust = catalog.tables.get("customer_d")
    ckr = cust.nrecords if cust else 0
    for info in catalog.tables.values():
        load_table(fs, info, seed=seed, custkey_range=ckr)
