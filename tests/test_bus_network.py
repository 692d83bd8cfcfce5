"""Occupancy-resource and mesh-network tests."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.mem.bus import OccupancyResource
from repro.mem.network import MeshNetwork


class TestOccupancy:
    def test_uncontended_latency_is_service(self):
        r = OccupancyResource("bus", 8)
        assert r.occupy(100) == 8
        assert r.busy_until == 108

    def test_back_to_back_queues(self):
        r = OccupancyResource("bus", 8)
        assert r.occupy(0) == 8
        assert r.occupy(0) == 16       # waits behind the first
        assert r.occupy(0) == 24
        assert r.wait_cycles == 8 + 16

    def test_gap_resets_queue(self):
        r = OccupancyResource("bus", 8)
        r.occupy(0)
        assert r.occupy(100) == 8

    def test_service_override(self):
        r = OccupancyResource("x", 8)
        assert r.occupy(0, service=3) == 3

    def test_utilisation(self):
        r = OccupancyResource("x", 10)
        r.occupy(0)
        r.occupy(50)
        assert r.utilisation(100) == pytest.approx(0.2)

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            OccupancyResource("x", -1)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    def test_busy_until_monotone(self, arrivals):
        r = OccupancyResource("x", 5)
        prev = 0
        for t in sorted(arrivals):
            r.occupy(t)
            assert r.busy_until >= prev
            prev = r.busy_until


class TestMesh:
    def test_single_node_free(self):
        n = MeshNetwork(1, 20)
        assert n.hops(0, 0) == 0
        assert n.transfer(0, 0, 0) == 0

    def test_hops_manhattan(self):
        n = MeshNetwork(4, 20)   # 2x2 mesh
        assert n.hops(0, 3) == 2
        assert n.hops(0, 1) == 1
        assert n.hops(2, 1) == 2

    def test_route_connects_endpoints(self):
        n = MeshNetwork(9, 10)   # 3x3
        route = n.route(0, 8)
        assert route[0][0] == 0 and route[-1][1] == 8
        assert len(route) == n.hops(0, 8)
        for (a, b), (c, d) in zip(route, route[1:]):
            assert b == c

    def test_transfer_latency_scales_with_hops(self):
        n = MeshNetwork(4, 20)
        one = n.transfer(0, 1, 0)
        two = n.transfer(0, 3, 10_000)
        assert two > one

    def test_contention_on_shared_link(self):
        n = MeshNetwork(2, 20)
        a = n.transfer(0, 1, 0)
        b = n.transfer(0, 1, 0)
        assert b > a            # second message queues on the link

    def test_message_and_hop_counters(self):
        n = MeshNetwork(4, 5)
        n.transfer(0, 3, 0)
        assert n.messages == 1
        assert n.total_hops == 2

    def test_bad_node_count(self):
        with pytest.raises(ValueError):
            MeshNetwork(0, 5)

    @given(st.integers(1, 16), st.data())
    def test_hops_symmetric(self, nnodes, data):
        n = MeshNetwork(nnodes, 10)
        a = data.draw(st.integers(0, nnodes - 1))
        b = data.draw(st.integers(0, nnodes - 1))
        assert n.hops(a, b) == n.hops(b, a)
        assert (n.hops(a, b) == 0) == (a == b)


class _ReferenceMesh:
    """``MeshNetwork.transfer`` as defined by ``route()``: the route is
    derived per message and every link is looked up per hop — what the
    memoised implementation must stay equal to."""

    def __init__(self, num_nodes, hop_latency, link_occupancy=2):
        self.geom = MeshNetwork(num_nodes, hop_latency, link_occupancy)
        self.hop_latency = hop_latency
        self.occ = link_occupancy
        self.links = {}
        self.messages = 0
        self.total_hops = 0
        self.fault_hook = None

    def transfer(self, src, dst, now, flits=1):
        if src == dst:
            return 0
        self.messages += 1
        latency = 0
        t = now
        route = self.geom.route(src, dst)
        self.total_hops += len(route)
        for link in route:
            r = self.links.get(link)
            if r is None:
                r = self.links[link] = OccupancyResource(f"link{link}",
                                                         self.occ)
            r.fault_hook = self.fault_hook
            d = self.hop_latency + r.occupy(t, self.occ * flits)
            latency += d
            t += d
        return latency

    def link_stats(self):
        return {k: v.transactions for k, v in self.links.items()}


def _messages(seed, nnodes, count):
    """``count`` random ``(src, dst, now, flits)`` messages, time-ordered
    and close enough together to queue on shared links."""
    rng = random.Random(seed)
    now = 0
    out = []
    for _ in range(count):
        now += rng.randrange(30)
        out.append((rng.randrange(nnodes), rng.randrange(nnodes), now,
                    rng.randint(1, 4)))
    return out


seeds = st.integers(0, 2 ** 32 - 1)


def _same_picture(net, ref):
    assert net.messages == ref.messages
    assert net.total_hops == ref.total_hops
    # same links, created in the same order (state_dict order follows it)
    assert list(net.link_stats().items()) == list(ref.link_stats().items())
    assert ({k: r.state_dict() for k, r in net._links.items()}
            == {k: r.state_dict() for k, r in ref.links.items()})


class TestMeshRouteMemo:
    @pytest.mark.parametrize("nnodes", [1, 2, 4, 6, 9])
    @given(seeds)
    def test_memoised_transfer_equals_route_definition(self, nnodes, seed):
        net = MeshNetwork(nnodes, 7, 3)
        ref = _ReferenceMesh(nnodes, 7, 3)
        for src, dst, now, flits in _messages(seed, nnodes, 40):
            assert (net.transfer(src, dst, now, flits)
                    == ref.transfer(src, dst, now, flits))
        _same_picture(net, ref)

    @pytest.mark.parametrize("nnodes", [2, 4, 6, 9])
    @given(seeds)
    def test_fault_hook_after_warm_memo_reaches_every_link(self, nnodes,
                                                           seed):
        net = MeshNetwork(nnodes, 7, 3)
        ref = _ReferenceMesh(nnodes, 7, 3)
        msgs = _messages(seed, nnodes, 40)
        for src, dst, now, flits in msgs[:20]:       # warm the memo
            net.transfer(src, dst, now, flits)
            ref.transfer(src, dst, now, flits)

        def hook(now):
            return 5 + now % 3

        net.set_fault_hook(hook)
        ref.fault_hook = hook
        for src, dst, now, flits in msgs[20:]:
            assert (net.transfer(src, dst, now, flits)
                    == ref.transfer(src, dst, now, flits))
        _same_picture(net, ref)
        assert all(r.fault_hook is hook for r in net._links.values())

    @pytest.mark.parametrize("nnodes", [2, 4, 6, 9])
    @given(seeds)
    def test_load_state_into_warm_memo_carries_on(self, nnodes, seed):
        msgs = _messages(seed, nnodes, 60)
        straight = MeshNetwork(nnodes, 7, 3)
        lat_straight = [straight.transfer(*m) for m in msgs]

        first = MeshNetwork(nnodes, 7, 3)
        for m in msgs[:30]:
            first.transfer(*m)
        snap = first.state_dict()
        # the restored network has a warm memo from a different history:
        # its cached link objects must not survive load_state
        second = MeshNetwork(nnodes, 7, 3)
        for m in reversed(msgs[30:]):
            second.transfer(m[0], m[1], 0, m[3])
        second.load_state(snap)
        lat_resumed = [second.transfer(*m) for m in msgs[30:]]
        assert lat_resumed == lat_straight[30:]
        assert second.state_dict() == straight.state_dict()
        assert (list(second.link_stats().items())
                == list(straight.link_stats().items()))
