"""Web-server app and SPLASH kernel tests."""

import pytest

from repro import DeadlockError, Engine, ProcState, complex_backend
from repro.apps.splash import spawn_kernel
from repro.apps.webserver import (TracePlayer, generate_fileset, make_trace,
                                  prefork_web_server)
from repro.apps.webserver.fileset import CLASS_BASE, FILES_PER_CLASS
from repro.apps.webserver.server import _parse_request, _response_header
from repro.traces import HttpRequest


def web_engine():
    return Engine(complex_backend(num_cpus=2, coherence="mesi", num_nodes=1))


class TestFileSet:
    def test_structure(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=2)
        assert len(fset.paths) == 2 * 4 * FILES_PER_CLASS
        for cls in range(4):
            assert len(fset.by_class[cls]) == 2 * FILES_PER_CLASS

    def test_sizes_match_classes(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1)
        for cls in range(4):
            for i, path in enumerate(sorted(fset.by_class[cls]), 1):
                assert fset.sizes[path] >= 64

    def test_files_exist_with_content(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.5)
        for path in fset.paths:
            node = eng.os_server.fs.lookup(path)
            assert node is not None and node.size == fset.sizes[path]

    def test_trace_weighted_and_deterministic(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1)
        t1 = make_trace(fset, 200, seed=5)
        t2 = make_trace(fset, 200, seed=5)
        assert t1 == t2
        # class 1 (50 %) should dominate class 3 (1 %)
        def cls_of(p):
            return int(p.path.split("class")[1][0])
        c1 = sum(1 for r in t1 if cls_of(r) == 1)
        c3 = sum(1 for r in t1 if cls_of(r) == 3)
        assert c1 > c3


class TestHttpPlumbing:
    def test_parse_request(self):
        assert _parse_request(b"GET /x HTTP/1.0\r\n\r\n") == "/x"
        assert _parse_request(b"POST /x HTTP/1.0\r\n\r\n") is None
        assert _parse_request(b"garbage") is None

    def test_response_header_fixed_size(self):
        from repro.apps.webserver import HEADER_BYTES
        h = _response_header(12345)
        assert len(h) == HEADER_BYTES
        assert b"12345" in h


class TestEndToEnd:
    def test_trace_served_completely(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.2)
        trace = make_trace(fset, 8, seed=1, think_mean_cycles=50_000)
        workers, wstats = prefork_web_server(eng, nworkers=2)
        player = TracePlayer(eng, trace, fset, nclients=2,
                             nworkers_to_quit=2)
        player.start()
        eng.run()
        assert player.completed == 8
        assert wstats["served"] >= 8
        assert all(w.state == ProcState.DONE for w in workers)

    def test_404_for_missing_file(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.2)
        trace = [HttpRequest(10, "/nonexistent")]
        workers, wstats = prefork_web_server(eng, nworkers=1)
        player = TracePlayer(eng, trace, fset, nclients=1,
                             nworkers_to_quit=1)
        player.start()
        eng.run()
        assert wstats.get("errors", 0) == 1

    def test_os_dominated_profile(self):
        """The paper's headline: web serving is >60 % OS time."""
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.2)
        trace = make_trace(fset, 10, seed=2)
        workers, _ = prefork_web_server(eng, nworkers=2)
        player = TracePlayer(eng, trace, fset, nclients=2,
                             nworkers_to_quit=2)
        player.start()
        stats = eng.run()
        b = stats.total_cpu().breakdown()
        assert b["os"] > 0.6
        assert stats.interrupt_cycles.get("eth:en0:rx", 0) > 0

    def test_response_time_recorded(self):
        eng = web_engine()
        fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.2)
        trace = make_trace(fset, 4, seed=3)
        prefork_web_server(eng, nworkers=1)
        player = TracePlayer(eng, trace, fset, nclients=1,
                             nworkers_to_quit=1)
        player.start()
        eng.run()
        assert len(player.response_cycles) >= 4
        assert player.mean_response_cycles() > 0


    def test_a_hang_with_only_timer_ticks_left_is_a_deadlock(self):
        """A trace seed that strands its workers (two in ``accept``, one in
        ``recv`` on a connection whose request never comes) leaves only
        the interval timer's ticks to run: named as a deadlock, not spun
        on forever."""
        from repro.service import SimulatorAdapter
        eng = SimulatorAdapter().prepare(
            {}, "webserver", dict(nrequests=40, nworkers=3, nclients=4,
                                  size_scale=2.0, seed=2))
        with pytest.raises(DeadlockError, match="timer ticks") as e:
            eng.run()
        waits = [(p["name"], p["state"], p["wait"])
                 for p in e.value.report["processes"]]
        assert waits == [("httpd-w0", "BLOCKED", "accept:1"),
                         ("httpd-w1", "BLOCKED", "accept:1"),
                         ("httpd-w2", "BLOCKED", "recv:39")]


class TestSplash:
    @pytest.mark.parametrize("kind,kw", [
        ("lu", dict(n=16, block=4)),
        ("ocean", dict(n=16, iters=2)),
        ("radix", dict(nkeys=256)),
    ])
    def test_kernels_complete(self, kind, kw):
        eng = Engine(complex_backend(num_cpus=4))
        procs = spawn_kernel(eng, kind, 4, **kw)
        eng.run()
        assert all(p.exit_status == 0 for p in procs)

    def test_kernels_are_user_dominated(self):
        """The paper's premise: scientific codes spend ~no time in the OS."""
        eng = Engine(complex_backend(num_cpus=4))
        spawn_kernel(eng, "ocean", 4, n=32, iters=3)
        stats = eng.run()
        b = stats.total_cpu().breakdown()
        assert b["kernel"] + b["interrupt"] < 0.25

    def test_kernel_sharing_creates_coherence_traffic(self):
        eng = Engine(complex_backend(num_cpus=4))
        spawn_kernel(eng, "ocean", 4, n=24, iters=2)
        eng.run()
        pc = eng.memsys.protocol.counters
        assert pc.get("invalidation", 0) + pc.get("write_miss", 0) > 0

    def test_unknown_kernel_rejected(self):
        eng = Engine(complex_backend(num_cpus=2))
        with pytest.raises(ValueError):
            spawn_kernel(eng, "fft", 2)

    def test_lu_requires_divisible_block(self):
        with pytest.raises(ValueError):
            from repro.apps.splash import lu_workers
            lu_workers(2, n=10, block=4)
