"""minidb tests: layout, catalog, buffer pool, WAL, OLTP and DSS."""

import pytest

from repro import Engine, ProcState, complex_backend
from repro.apps.minidb import (MiniDb, TpccDriver, TpcdDriver, load_table,
                               q1_scan_raw, q3_join_raw, tpcc_catalog,
                               tpcd_catalog)
from repro.apps.minidb.catalog import CUSTOMER, LINEITEM, load_catalog
from repro.apps.minidb.layout import (PAGE_SIZE, Page, Record, Schema,
                                      rid_to_page, table_pages)


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
        from repro.osim.filesystem import FileSystem
        c = tpcd_catalog(scale=0.0001)
        fs1, fs2 = FileSystem(), FileSystem()
        load_table(fs1, c.tables["lineitem"], seed=3)
        load_table(fs2, c.tables["lineitem"], seed=3)
        a = fs1.lookup(c.tables["lineitem"].path).data
        b = fs2.lookup(c.tables["lineitem"].path).data
        assert bytes(a) == bytes(b)

    def test_load_catalog_populates_fs(self):
        from repro.osim.filesystem import FileSystem
        fs = FileSystem()
        c = tpcd_catalog(scale=0.0001)
        load_catalog(fs, c)
        for info in c.tables.values():
            assert fs.lookup(info.path).size == info.nbytes


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
