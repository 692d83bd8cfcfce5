"""Signal delivery and the §4.1 non-augmented wrapper."""

import pytest

from repro import Engine, complex_backend
from repro.core.events import EINVAL
from repro.osim.signals import SIGUSR1, SIGUSR2, SignalManager


def test_manager_install_post_pending():
    m = SignalManager()
    m.install(1, SIGUSR1, lambda p, s: None)
    assert m.post(1, SIGUSR1)
    assert m.has_pending(1)
    assert m.pending_for(1) == SIGUSR1
    assert m.pending_for(1) is None


def test_only_nonempty_queues_have_a_key():
    """``pid in pending`` is the engine's whole "signal due" test, so taking
    the last queued signal, and ``clear``, must drop the pid's key."""
    m = SignalManager()
    m.install(1, SIGUSR1, lambda p, s: None)
    m.install(1, SIGUSR2, lambda p, s: None)
    assert 1 not in m.pending
    m.post(1, SIGUSR1)
    m.post(1, SIGUSR2)
    assert m.pending_for(1) == SIGUSR1
    assert m.has_pending(1) and 1 in m.pending
    assert m.pending_for(1) == SIGUSR2
    assert not m.has_pending(1) and 1 not in m.pending
    m.post(1, SIGUSR1)
    m.clear(1)
    assert not m.has_pending(1) and 1 not in m.pending


def test_post_without_handler_dropped():
    m = SignalManager()
    assert not m.post(1, SIGUSR1)
    assert m.dropped == 1
    assert not m.has_pending(1)


def test_uninstall():
    m = SignalManager()
    m.install(1, SIGUSR1, lambda p, s: None)
    m.uninstall(1, SIGUSR1)
    assert not m.post(1, SIGUSR1)


def test_clear_on_exit():
    m = SignalManager()
    m.install(1, SIGUSR1, lambda p, s: None)
    m.post(1, SIGUSR1)
    m.clear(1)
    assert not m.has_pending(1)


class TestEngineDelivery:
    def _run(self, handler, nsignals=1):
        eng = Engine(complex_backend(num_cpus=2))
        log = []
        holder = {}

        def receiver(proc):
            yield from proc.call("sigaction", SIGUSR1, handler)
            for _ in range(30):
                proc.compute(10_000)
                yield from proc.advance()
            log.append(("done", proc.process.vtime))
            yield from proc.exit(0)

        def sender(proc):
            yield from proc.call("nanosleep", 40_000)
            for _ in range(nsignals):
                r = yield from proc.call("kill", holder["pid"], SIGUSR1)
                assert r.ok
            yield from proc.exit(0)

        rp = eng.spawn("recv", receiver)
        holder["pid"] = rp.pid
        eng.spawn("send", sender)
        eng.run()
        return eng, log

    def test_handler_runs_once(self):
        hits = []

        def handler(api, signo):
            hits.append(signo)
            yield from api.advance()     # suppressed

        eng, log = self._run(handler)
        assert hits == [SIGUSR1]
        assert eng.signals.delivered == 1

    def test_handler_generates_no_time(self):
        def handler(api, signo):
            api.compute(10**9)           # would dominate if charged
            yield from api.load(0x10_000)

        eng, log = self._run(handler)
        done = [e for e in log if e[0] == "done"][0]
        assert done[1] < 10**7

    def test_plain_function_handler_allowed(self):
        hits = []

        def handler(api, signo):        # not a generator
            hits.append(signo)

        eng, _log = self._run(handler)
        assert hits == [SIGUSR1]

    def test_multiple_signals_queue(self):
        hits = []

        def handler(api, signo):
            hits.append(signo)

        eng, _log = self._run(handler, nsignals=3)
        assert hits == [SIGUSR1] * 3

    def test_two_queued_signals_delivered_in_order(self):
        """Two signals posted back to back are both queued at the
        receiver's next event boundary. The engine takes them oldest
        first and pushes each wrapper frame above the previous one, so the
        handlers run newest first, in one boundary, and the queue's key
        goes only with the second signal."""
        eng = Engine(complex_backend(num_cpus=2))
        hits = []
        holder = {}

        def handler(api, signo):
            hits.append(signo)

        def receiver(proc):
            yield from proc.call("sigaction", SIGUSR1, handler)
            yield from proc.call("sigaction", SIGUSR2, handler)
            for _ in range(30):
                proc.compute(10_000)
                yield from proc.advance()
            yield from proc.exit(0)

        def sender(proc):
            yield from proc.call("nanosleep", 40_000)
            for signo in (SIGUSR2, SIGUSR1):
                r = yield from proc.call("kill", holder["pid"], signo)
                assert r.ok
            yield from proc.exit(0)

        holder["pid"] = eng.spawn("recv", receiver).pid
        eng.spawn("send", sender)
        eng.run()
        assert hits == [SIGUSR1, SIGUSR2]
        assert eng.signals.delivered == 2
        assert eng.signals.pending == {}

    def test_kill_unknown_pid(self):
        eng = Engine(complex_backend(num_cpus=1))
        out = {}

        def app(proc):
            out["r"] = yield from proc.call("kill", 424242, SIGUSR1)
            yield from proc.exit(0)

        eng.spawn("a", app)
        eng.run()
        assert out["r"].errno == EINVAL

    def test_kill_without_handler_einval(self):
        eng = Engine(complex_backend(num_cpus=2))
        out = {}
        holder = {}

        def receiver(proc):
            for _ in range(10):
                proc.compute(10_000)
                yield from proc.advance()
            yield from proc.exit(0)

        def sender(proc):
            out["r"] = yield from proc.call("kill", holder["pid"], SIGUSR2)
            yield from proc.exit(0)

        rp = eng.spawn("r", receiver)
        holder["pid"] = rp.pid
        eng.spawn("s", sender)
        eng.run()
        assert out["r"].errno == EINVAL

    def test_sigaction_bad_signo(self):
        eng = Engine(complex_backend(num_cpus=1))
        out = {}

        def app(proc):
            out["r"] = yield from proc.call("sigaction", 0, lambda a, s: None)
            yield from proc.exit(0)

        eng.spawn("a", app)
        eng.run()
        assert out["r"].errno == EINVAL

    def test_events_enabled_restored_after_handler(self):
        state = {}

        def handler(api, signo):
            state["inside"] = api.process.events_enabled

        eng = Engine(complex_backend(num_cpus=2))
        holder = {}

        def receiver(proc):
            yield from proc.call("sigaction", SIGUSR1, handler)
            for _ in range(20):
                proc.compute(5_000)
                yield from proc.advance()
            state["after"] = proc.process.events_enabled
            yield from proc.exit(0)

        def sender(proc):
            yield from proc.call("nanosleep", 30_000)
            yield from proc.call("kill", holder["pid"], SIGUSR1)
            yield from proc.exit(0)

        rp = eng.spawn("r", receiver)
        holder["pid"] = rp.pid
        eng.spawn("s", sender)
        eng.run()
        assert state["inside"] is False
        assert state["after"] is True
