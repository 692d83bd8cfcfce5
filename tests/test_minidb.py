"""minidb tests: layout, catalog, buffer pool, WAL, OLTP and DSS."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import Engine, ProcState, complex_backend
from repro.apps.minidb import (MiniDb, TpccDriver, TpcdDriver, load_table,
                               q1_scan_raw, q3_join_raw, tpcc_catalog,
                               tpcd_catalog)
from repro.apps.minidb.catalog import CUSTOMER, LINEITEM, load_catalog
from repro.apps.minidb.layout import (PAGE_SIZE, Page, Record, Schema,
                                      rid_to_page, table_pages)
from repro.osim.filesystem import FileSystem

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

#: sha256 of every generated table image, recorded with the per-field
#: ``randrange`` generator the draw plan replaced: (catalog, scale, seed) ->
#: table -> digest. tpcd at 0.01 is the e2e ``dss`` size (MiniDb's default
#: seed); tpcc at 0.02 with seed 3 is the e2e ``oltp`` size and input seed.
IMAGE_DIGESTS = {
    ("tpcd", 0.01, 7): {
        "customer_d": "dfa442fdb817566191ac9abc7496e4086b319f571a0f45a87d339e3359d0bc63",
        "lineitem": "8fc2065e60a0d34eca73da5268b4692a87f589d90d21b1f23a5258888bee0dfa",
        "orders_d": "12f1f48954f689411d64a6f87d654cae56946d0862d98e1972e92b36aef3ec7c",
    },
    ("tpcc", 0.02, 3): {
        "customer": "ca121e32c84fecb9f720c4edebdf2659fd3d840e0ab7c2f60f15b3ad8510caad",
        "district": "e955e9978a0dfdfa21f527b2f6dcdafdb8703a6c830262a6e0860af915e10390",
        "item": "ec764e1ee5cb2514d34c937126cff93d26ca120362f28545904f90032fa259b3",
        "order_line": "8fd159f4f4645b969d8c783283adce0cde73662f8701d7750c228def4a49fc1e",
        "orders": "67641207be1388fc458c5f81e0cad8d75f387ba9ca7721a5def73ec14123fe51",
        "stock": "54870c88424432c904bbf9f0aae252df74606e8cd58bec71e86e1601ffa9d447",
        "warehouse": "ad14c5871d69872843288c003794e79f3a52af9b15b2029bfc9cdc591d6706c0",
    },
}


def image_digests(kind, scale, seed):
    """table -> sha256 of its image, for one loaded catalog."""
    cat = (tpcd_catalog(scale=scale) if kind == "tpcd"
           else tpcc_catalog(1, scale))
    fs = FileSystem()
    load_catalog(fs, cat, seed=seed)
    return {name: hashlib.sha256(bytes(fs.lookup(t.path).data)).hexdigest()
            for name, t in cat.tables.items()}


class TestLayout:
    def test_record_roundtrip(self):
        s = Schema("t", (("a", 0), ("b", 4), ("c", 0)))
        vals = {"a": -5, "b": b"xy", "c": 1 << 40}
        data = Record.encode(s, vals)
        assert len(data) == s.record_size == 20
        back = Record.decode(s, data)
        assert back["a"] == -5 and back["c"] == 1 << 40
        assert back["b"] == b"xy\0\0"

    def test_field_truncation(self):
        s = Schema("t", (("b", 2),))
        assert Record.decode(s, Record.encode(s, {"b": b"abcdef"}))["b"] == b"ab"

    @staticmethod
    def _encode_by_field(schema, values):
        """The per-field codec the ``struct.Struct`` path replaced, kept as
        the reference."""
        import struct
        out = bytearray()
        for name, width in schema.fields:
            v = values.get(name, 0 if width == 0 else b"")
            if width == 0:
                out += struct.pack("<q", int(v))
            else:
                out += bytes(v)[:width].ljust(width, b"\0")
        return bytes(out)

    @staticmethod
    def _decode_by_field(schema, data):
        import struct
        vals, off = {}, 0
        for name, width in schema.fields:
            if width == 0:
                vals[name] = struct.unpack_from("<q", data, off)[0]
                off += 8
            else:
                vals[name] = bytes(data[off:off + width])
                off += width
        return vals

    def test_struct_codec_is_byte_identical_on_every_catalog_schema(self):
        import random
        schemas = {t.schema for cat in (tpcc_catalog(1, 0.005), tpcd_catalog())
                   for t in cat.tables.values()}
        assert len(schemas) >= 9
        rng = random.Random(17)
        ints = [0, 1, -1, -(1 << 63), (1 << 63) - 1, 1 << 62, True]
        for schema in sorted(schemas, key=lambda s: s.name):
            assert schema.record_size == sum(8 if w == 0 else w
                                             for _n, w in schema.fields)
            assert schema.records_per_page == PAGE_SIZE // schema.record_size
            for trial in range(40):
                vals = {}
                for name, width in schema.fields:
                    if rng.random() < 0.15:
                        continue                    # absent: the default
                    if width == 0:
                        vals[name] = rng.choice(ints + [rng.randrange(-999, 10**12)])
                    else:                           # short, exact, over-long
                        n = rng.choice([0, 1, width - 1, width, width + 1,
                                        3 * width])
                        vals[name] = rng.choice([bytes, bytearray])(
                            rng.randrange(256) for _ in range(max(n, 0)))
                data = Record.encode(schema, vals)
                assert data == self._encode_by_field(schema, vals)
                assert type(data) is bytes and len(data) == schema.record_size
                back = Record.decode(schema, data)
                assert back == self._decode_by_field(schema, data)
                assert list(back) == schema.field_names()
                assert all(type(v) in (int, bytes) for v in back.values())
                # at an offset inside a page image, as Page.record reads it
                page = bytearray(b"\xAA" * 7) + data + b"\xBB" * 5
                assert Record.decode(schema, page, 7) == back

    def test_page_record_slots(self):
        p = Page(CUSTOMER)
        p.put_record(0, {"c_id": 7, "c_balance": 100})
        p.put_record(1, {"c_id": 8})
        assert p.record(0)["c_id"] == 7
        assert p.record(1)["c_id"] == 8

    def test_page_bounds(self):
        p = Page(CUSTOMER)
        with pytest.raises(IndexError):
            p.record(CUSTOMER.records_per_page)

    def test_rid_mapping(self):
        rpp = CUSTOMER.records_per_page
        assert rid_to_page(CUSTOMER, 0) == (0, 0)
        assert rid_to_page(CUSTOMER, rpp) == (1, 0)
        assert rid_to_page(CUSTOMER, rpp + 3) == (1, 3)

    def test_table_pages(self):
        assert table_pages(CUSTOMER, 0) == 0
        assert table_pages(CUSTOMER, 1) == 1


class TestCatalog:
    def test_tpcc_tables_present(self):
        c = tpcc_catalog(1, 0.01)
        for t in ("warehouse", "district", "customer", "item", "stock",
                  "orders", "order_line"):
            assert t in c.tables

    def test_tpcd_scaling(self):
        small = tpcd_catalog(scale=0.0001)
        big = tpcd_catalog(scale=0.001)
        assert (big.tables["lineitem"].nrecords
                > small.tables["lineitem"].nrecords)

    def test_load_table_deterministic(self):
        c = tpcd_catalog(scale=0.0001)
        fs1, fs2 = FileSystem(), FileSystem()
        load_table(fs1, c.tables["lineitem"], seed=3)
        load_table(fs2, c.tables["lineitem"], seed=3)
        a = fs1.lookup(c.tables["lineitem"].path).data
        b = fs2.lookup(c.tables["lineitem"].path).data
        assert bytes(a) == bytes(b)

    def test_load_catalog_populates_fs(self):
        fs = FileSystem()
        c = tpcd_catalog(scale=0.0001)
        load_catalog(fs, c)
        for info in c.tables.values():
            assert fs.lookup(info.path).size == info.nbytes

    def test_id_fields_hold_the_record_id(self):
        """What the loader writes: every ``*_id`` / ``*key`` integer field
        holds the record id, ``d_next_o_id`` included; ``orders_d``'s
        ``o_custkey`` alone is drawn, below the customer count."""
        fs = FileSystem()
        tpcc, tpcd = tpcc_catalog(1, 0.005), tpcd_catalog(scale=0.0001)
        ncust = tpcd.tables["customer_d"].nrecords
        rid_fields = set()
        custkeys = []
        for cat in (tpcc, tpcd):
            load_catalog(fs, cat)
            for info in cat.tables.values():
                schema = info.schema
                ids = [n for n, w in schema.fields
                       if w == 0 and n.endswith(("_id", "key"))
                       and n != "o_custkey"]
                rid_fields.update(ids)
                data = fs.lookup(info.path).data
                for rid in range(info.nrecords):
                    page, slot = rid_to_page(schema, rid)
                    rec = Record.decode(schema, data, page * PAGE_SIZE
                                        + slot * schema.record_size)
                    assert [rec[n] for n in ids] == [rid] * len(ids)
                    if "o_custkey" in rec:
                        custkeys.append(rec["o_custkey"])
        assert {"d_next_o_id", "d_id", "c_custkey", "l_partkey"} <= rid_fields
        assert len(custkeys) == tpcd.tables["orders_d"].nrecords
        assert all(0 <= k < ncust for k in custkeys)
        assert custkeys != list(range(len(custkeys)))


class TestTableImages:
    """The generated data, pinned: the draw plan writes the images the
    per-field generator wrote, and no process-level hash seed moves them."""

    @pytest.mark.parametrize("key", list(IMAGE_DIGESTS),
                             ids=lambda k: f"{k[0]}-{k[1]}")
    def test_image_digests(self, key):
        assert image_digests(*key) == IMAGE_DIGESTS[key]

    def test_images_independent_of_hash_seed(self):
        code = ("import json; from tests.test_minidb import IMAGE_DIGESTS, "
                "image_digests; print(json.dumps([image_digests(*k) "
                "for k in IMAGE_DIGESTS]))")
        path = os.pathsep.join(filter(None, [
            os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")]))
        outs = [subprocess.run(
            [sys.executable, "-c", code], cwd=REPO, check=True, timeout=120,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hs)).stdout
            for hs in ("1", "2")]
        first, second = (json.loads(o) for o in outs)
        assert first == second == list(IMAGE_DIGESTS.values())

    @staticmethod
    def _image_by_field(info, seed, custkey_range):
        """The per-field ``randrange`` generator the draw plan replaced,
        kept as the reference (its two unreachable arms, ``o_custkey`` and
        ``d_next_o_id``, left out: ``*key`` / ``*_id`` caught them)."""
        import random
        import zlib
        draws = {"l_quantity": (1, 50), "l_extendedprice": (100, 100_000),
                 "l_discount": (0, 11), "l_shipdate": (0, 2_500),
                 "o_orderdate": (0, 2_500), "c_mktsegment": (0, 5),
                 "s_quantity": (10, 91), "i_price": (1, 10_000)}
        schema = info.schema
        rng = random.Random(zlib.crc32(f"{seed}:{schema.name}".encode()))
        out = bytearray(info.npages * PAGE_SIZE)
        for rid in range(info.nrecords):
            v = {}
            for name, width in schema.fields:
                if width == 0:
                    if name.endswith("_id") or name.endswith("key"):
                        v[name] = rid
                    else:
                        off, bound = draws.get(name, (0, 1_000))
                        v[name] = off + rng.randrange(bound)
                elif width == 1:
                    v[name] = bytes([65 + rng.randrange(3)])
                else:
                    v[name] = (name.encode() * 8)[:width]
            if custkey_range and "o_custkey" in v:
                v["o_custkey"] = rng.randrange(custkey_range)
            page, slot = rid_to_page(schema, rid)
            off = page * PAGE_SIZE + slot * schema.record_size
            out[off:off + schema.record_size] = Record.encode(schema, v)
        return bytes(out)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_images_equal_the_per_field_generator(self, seed):
        fs = FileSystem()
        for cat in (tpcc_catalog(2, 0.003), tpcd_catalog(scale=0.0002)):
            load_catalog(fs, cat, seed=seed)
            ckr = cat.tables["customer_d"].nrecords if cat.name == "tpcd" else 0
            for info in cat.tables.values():
                assert bytes(fs.lookup(info.path).data) == \
                    self._image_by_field(info, seed, ckr), info.schema.name


@pytest.fixture
def tpcd_db():
    eng = Engine(complex_backend(num_cpus=2))
    cat = tpcd_catalog(scale=0.0001)
    db = MiniDb(eng, cat, pool_frames=16)
    db.setup()
    return eng, cat, db


class TestDss:
    def test_q1_read_matches_raw(self, tpcd_db):
        eng, cat, db = tpcd_db
        drv = TpcdDriver(db, nagents=2, io="read", rows_work=50)
        drv.spawn_q1(eng)
        eng.run()
        assert drv.result == q1_scan_raw(eng.os_server.fs, cat)

    def test_q1_mmap_matches_raw(self, tpcd_db):
        eng, cat, db = tpcd_db
        drv = TpcdDriver(db, nagents=2, io="mmap", rows_work=50)
        drv.spawn_q1(eng)
        eng.run()
        assert drv.result == q1_scan_raw(eng.os_server.fs, cat)
        assert eng.memsys.vmm.major_faults > 0         # mmap path faulted
        assert eng.stats.syscall_counts.get("msync", 0) == 2

    def test_q3_join_matches_raw(self, tpcd_db):
        eng, cat, db = tpcd_db
        drv = TpcdDriver(db, nagents=2)
        drv.spawn_q3(eng, segment=1)
        eng.run()
        raw = q3_join_raw(eng.os_server.fs, cat, segment=1)
        assert drv.join_result == raw
        assert raw["matched"] > 0

    def test_bad_io_mode(self, tpcd_db):
        _eng, _cat, db = tpcd_db
        with pytest.raises(ValueError):
            TpcdDriver(db, io="directio")


class TestOltp:
    def test_transactions_commit_and_persist(self):
        eng = Engine(complex_backend(num_cpus=2))
        db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16)
        db.setup()
        drv = TpccDriver(db, nagents=2, tx_per_agent=4, think_cycles=0,
                         user_work=10_000)
        drv.spawn_agents(eng)
        eng.run()
        assert drv.committed == 8
        assert drv.neworders + drv.payments == 8
        assert db.wal.commits == 8
        assert all(p.state == ProcState.DONE for p in drv.agents)

    def test_orders_inserted_grow_heap(self):
        eng = Engine(complex_backend(num_cpus=2))
        db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16)
        db.setup()
        base = db.next_rid["orders"]
        drv = TpccDriver(db, nagents=1, tx_per_agent=6, think_cycles=0,
                         neworder_fraction=1.0, user_work=0)
        drv.spawn_agents(eng)
        eng.run()
        assert db.next_rid["orders"] == base + 6

    def test_pool_eviction_under_pressure(self):
        eng = Engine(complex_backend(num_cpus=2))
        db = MiniDb(eng, tpcc_catalog(1, 0.02), pool_frames=4)
        db.setup()
        drv = TpccDriver(db, nagents=2, tx_per_agent=3, think_cycles=0,
                         user_work=0)
        drv.spawn_agents(eng)
        eng.run()
        assert db.pool.writebacks > 0
        assert db.pool.misses > db.pool.nframes

    def test_hot_row_contention(self):
        """District rows are TPC-C's hot spot: row locks must serialise."""
        eng = Engine(complex_backend(num_cpus=4))
        db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16)
        db.setup()
        drv = TpccDriver(db, nagents=4, tx_per_agent=4, think_cycles=0,
                         neworder_fraction=1.0, user_work=0)
        drv.spawn_agents(eng)
        stats = eng.run()
        assert drv.committed == 16

    def test_run_raw_counts(self):
        eng = Engine(complex_backend(num_cpus=1))
        db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=8)
        db.setup()
        drv = TpccDriver(db, nagents=2, tx_per_agent=3)
        assert drv.run_raw() == 6

    def test_bad_fraction_rejected(self):
        eng = Engine(complex_backend(num_cpus=1))
        db = MiniDb(eng, tpcc_catalog(1, 0.005))
        with pytest.raises(ValueError):
            TpccDriver(db, neworder_fraction=1.5)


class TestBufferPoolShared:
    def test_frames_in_shared_segment(self):
        """Both agents' pool frames resolve to the same physical pages."""
        eng = Engine(complex_backend(num_cpus=2))
        cat = tpcd_catalog(scale=0.0001)
        db = MiniDb(eng, cat, pool_frames=8)
        db.setup()
        seen = {}

        def agent(name):
            def body(proc):
                yield from db.agent_init(proc)
                frame, _pg = yield from db.pool.get_page(
                    proc, db, "lineitem", 0, LINEITEM)
                seen[name] = (proc.process.pid, db.pool.frame_addr(frame))
                yield from proc.barrier(3, 2)
                yield from proc.exit(0)
            return body

        eng.spawn("a", agent("a"))
        eng.spawn("b", agent("b"))
        eng.run()
        (pid_a, addr_a), (pid_b, addr_b) = seen["a"], seen["b"]
        vmm = eng.memsys.vmm
        pa = vmm.translate(pid_a, addr_a, False, 0)[0]
        pb = vmm.translate(pid_b, addr_b, False, 1)[0]
        assert pa == pb

    def test_pool_hit_rate_reporting(self):
        eng = Engine(complex_backend(num_cpus=1))
        cat = tpcd_catalog(scale=0.0001)
        db = MiniDb(eng, cat, pool_frames=8)
        db.setup()

        def body(proc):
            yield from db.agent_init(proc)
            for _ in range(3):
                yield from db.pool.get_page(proc, db, "lineitem", 0, LINEITEM)
            yield from proc.exit(0)

        eng.spawn("a", body)
        eng.run()
        assert db.pool.hits == 2 and db.pool.misses == 1
