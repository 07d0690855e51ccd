"""Deeper TCP tests: loss recovery properties, backoff, failure accounting."""

import bisect
import itertools
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.framing import MessageFramer
from repro.apps.kvstore import KvServer
from repro.apps.memaslap import Memaslap
from repro.experiments.config import scaled_tcp_params
from repro.host import EthernetHost, ethernet_testbed
from repro.net.fabric import connect_back_to_back
from repro.nic import RxMode
from repro.sim import Environment
from repro.sim.rng import Rng
from repro.sim.units import Gbps, KB, MB
from repro.transport import TcpParams
from repro.transport import tcp as tcp_module
from repro.transport.tcp import TcpConnection, TcpSegment


def build(loss_pattern=None, tcp_params=None, env=None):
    """Testbed with an optional deterministic packet-loss pattern applied
    to the client->server data direction."""
    env = env if env is not None else Environment()
    server, client, srv_user, cli_user = ethernet_testbed(
        env, RxMode.PIN, tcp_params=tcp_params
    )
    if loss_pattern is not None:
        # Intercept at the far end of the wire (the supported
        # ``Link.connect`` hook): serialization order equals send order,
        # so the transmission index matches the old send-side count.
        link = cli_user.host.nic.link
        original = link._receiver
        state = {"index": 0}

        def lossy(packet):
            seg = packet.payload
            if isinstance(seg, TcpSegment) and seg.length > 0:
                drop = state["index"] in loss_pattern
                state["index"] += 1
                if drop:
                    return  # swallowed by the wire
            original(packet)

        link.connect(lossy)
    return env, srv_user, cli_user


def transfer(env, srv_user, cli_user, n_bytes=0, until=120.0, messages=()):
    """Client -> server stream: ``n_bytes`` in one send, then one
    ``send(size, src_addr=addr)`` per ``(size, addr)`` in ``messages``."""
    got = []
    def accept(conn):
        conn.on_receive = lambda c, n: got.append(n)
    def start(conn):
        if n_bytes:
            conn.send(n_bytes)
        for size, addr in messages:
            conn.send(size, src_addr=addr)
    srv_user.stack.listen(accept)
    conn = cli_user.stack.connect("server", "srv0")
    conn.on_established = start
    env.run(until=until)
    return sum(got), conn


@settings(max_examples=15, deadline=None)
@given(losses=st.sets(st.integers(min_value=0, max_value=400), max_size=6))
def test_all_bytes_delivered_despite_arbitrary_loss(losses):
    """Property: TCP delivers everything whatever the loss pattern.

    The pattern drops *transmissions* (retransmissions included), so the
    set is kept small enough that a worst-case consecutive run recovers
    within the test horizon (RTO backoff is exponential in run length).
    """
    env, srv_user, cli_user = build(
        loss_pattern=losses, tcp_params=TcpParams(max_retries=20)
    )
    delivered, conn = transfer(env, srv_user, cli_user, 512 * KB)
    assert delivered == 512 * KB
    assert conn.state == conn.ESTABLISHED


def test_burst_loss_recovers_via_go_back_n():
    """A contiguous hole bigger than one window still completes.

    The dropped transmissions include the RTO retransmissions themselves,
    so recovery time is exponential in the hole length (each consecutive
    failure doubles the RTO) — the very dynamic behind the paper's
    cold-ring deadlock.  Keep the hole small enough to recover quickly.
    """
    env, srv_user, cli_user = build(
        loss_pattern=set(range(10, 18)),
        tcp_params=TcpParams(max_retries=16, rto_min=0.05),
    )
    delivered, conn = transfer(env, srv_user, cli_user, 1 * MB, until=60.0)
    assert delivered == 1 * MB
    assert conn.timeouts >= 1
    assert conn.state == conn.ESTABLISHED


def test_rto_backoff_doubles():
    params = TcpParams(rto_min=0.1)
    env, srv_user, cli_user = build(
        loss_pattern=set(range(0, 10_000)),  # black hole
        tcp_params=params,
    )
    got, conn = transfer(env, srv_user, cli_user, 64 * KB, until=20.0)
    assert got == 0
    assert conn.rto > params.rto_min  # backoff engaged
    assert conn.timeouts >= 3


def test_max_retries_aborts_connection():
    params = TcpParams(rto_min=0.05, max_retries=3)
    env, srv_user, cli_user = build(
        loss_pattern=set(range(0, 10_000)), tcp_params=params
    )
    _, conn = transfer(env, srv_user, cli_user, 64 * KB, until=30.0)
    assert conn.state == conn.FAILED
    assert conn.retries > params.max_retries


def test_max_total_timeouts_aborts_eventually():
    """lwIP-style lifetime accounting: flaky links kill the connection."""
    params = TcpParams(rto_min=0.05, max_total_timeouts=5)
    # Drop every 3rd data packet: individual retries succeed (resetting
    # the consecutive counter) but the lifetime counter keeps climbing.
    env, srv_user, cli_user = build(
        loss_pattern=set(range(0, 100_000, 3)), tcp_params=params
    )
    _, conn = transfer(env, srv_user, cli_user, 4 * MB, until=60.0)
    assert conn.state == conn.FAILED


def test_cwnd_capped_by_rwnd():
    params = TcpParams(rwnd=64 * KB)
    env, srv_user, cli_user = build(tcp_params=params)
    got = []
    def accept(conn):
        conn.on_receive = lambda c, n: got.append(n)
    srv_user.stack.listen(accept)
    conn = cli_user.stack.connect("server", "srv0")
    conn.on_established = lambda c: c.send(2 * MB)
    env.run(until=0.05)
    assert conn.inflight <= params.rwnd
    env.run(until=5.0)
    assert sum(got) == 2 * MB


def test_slow_start_then_congestion_avoidance():
    env, srv_user, cli_user = build()
    _, conn = transfer(env, srv_user, cli_user, 2 * MB, until=5.0)
    # cwnd grew past the initial window during the transfer.
    assert conn.cwnd > conn.params.init_cwnd_segments * conn.params.mss


def test_delivery_is_in_order_and_exactly_once():
    """Receiver-side accounting: delivered bytes == sent bytes, no dupes."""
    env, srv_user, cli_user = build(loss_pattern={5, 6, 7, 30, 31})
    delivered, conn = transfer(env, srv_user, cli_user, 256 * KB)
    assert delivered == 256 * KB
    # rcv_nxt on the server connection equals the byte count.
    server_conn = next(iter(srv_user.stack.connections.values()))
    assert server_conn.rcv_nxt == 256 * KB
    assert server_conn.delivered_bytes == 256 * KB


def test_two_connections_are_independent():
    env, srv_user, cli_user = build()
    per_conn = {}
    def accept(conn):
        conn.on_receive = lambda c, n: per_conn.__setitem__(
            c.conn_id, per_conn.get(c.conn_id, 0) + n)
    srv_user.stack.listen(accept)
    c1 = cli_user.stack.connect("server", "srv0")
    c2 = cli_user.stack.connect("server", "srv0")
    c1.on_established = lambda c: c.send(128 * KB)
    c2.on_established = lambda c: c.send(256 * KB)
    env.run(until=5.0)
    assert sorted(per_conn.values()) == [128 * KB, 256 * KB]


# -- the bounded fast path against the connection it replaced ---------------------

class _ReferenceConnection(TcpConnection):
    """The connection before its per-segment work was bounded: a linear
    scan over every source range ever queued, and a fresh timer process
    per arm whose stale timeouts stay queued until they fire."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._all_ranges = []

    def send(self, n_bytes, src_addr=None):
        if src_addr is not None and n_bytes > 0:
            self._all_ranges.append(
                (self.app_bytes, self.app_bytes + n_bytes, src_addr))
        super().send(n_bytes, src_addr)

    def _src_addr_for(self, seq):
        for start, end, addr in self._all_ranges:
            if start <= seq < end:
                return addr + (seq - start)
        return None

    def _arm_timer(self, delay, syn=False):
        self._timer_version += 1
        self._timer_running = True
        self.env.process(
            self._timer(self._timer_version, delay, syn),
            name=f"tcp{self.conn_id}-rto",
        )

    def _cancel_timer(self):
        self._timer_version += 1
        self._timer_running = False

    def _timer(self, version, delay, syn):
        yield self.env.timeout(delay)
        if version != self._timer_version:
            return
        self._timer_running = False
        if syn:
            self._on_syn_timeout()
        else:
            self._on_rto()


@contextmanager
def connection_class(cls):
    """Make both stacks build ``cls`` for every connection they open."""
    saved = tcp_module.TcpConnection
    tcp_module.TcpConnection = cls
    try:
        yield
    finally:
        tcp_module.TcpConnection = saved


class _TxRecorder:
    """Stands in for a stack's channel: logs each data segment handed to
    it as ``(now, seq, length, src_addr)``, then forwards it."""

    def __init__(self, env, channel):
        self.env = env
        self.channel = channel
        self.name = channel.name
        self.log = []

    def _record(self, packet, src_addr):
        segment = packet.payload
        if segment.length > 0:
            self.log.append((self.env.now, segment.seq, segment.length, src_addr))

    def send(self, packet, src_addr=None, src_size=0):
        self._record(packet, src_addr)
        self.channel.send(packet, src_addr=src_addr, src_size=src_size)

    def send_many(self, items):
        for packet, src_addr, _ in items:
            self._record(packet, src_addr)
        self.channel.send_many(items)


def _traced_stream(conn_cls, losses, messages, params, until):
    with connection_class(conn_cls):
        env, srv_user, cli_user = build(loss_pattern=losses, tcp_params=params)
        recorder = _TxRecorder(env, cli_user.stack.channel)
        cli_user.stack.channel = recorder
        delivered, conn = transfer(env, srv_user, cli_user, until=until,
                                   messages=messages)
    assert type(conn) is conn_cls
    stats = (conn.timeouts, conn.fast_retransmits, conn.rto, conn.state)
    return recorder.log, stats, delivered


_messages = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40_000),
              st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 40))),
    min_size=1, max_size=40,
)


@settings(max_examples=20, deadline=None)
@given(
    messages=_messages,
    scattered=st.sets(st.integers(min_value=0, max_value=600), max_size=8),
    black_hole=st.tuples(st.integers(min_value=0, max_value=300),
                         st.integers(min_value=0, max_value=10)),
    rto_min=st.sampled_from([0.0002, 0.002, 0.02]),
)
# A 10-transmission black hole mid-stream: RTO backoff to 2**10 x rto_min,
# then an ACK resets rto under a long pending deadline (the earlier-
# deadline path of the lazy timer).  The hole's go-back-N also ends in a
# cumulative ACK past snd_nxt, so _pump looks up ranges below snd_una.
@example(messages=[(30_000, 4096 * i) for i in range(30)], scattered=set(),
         black_hole=(40, 10), rto_min=0.002)
# Unsourced sends between sourced ones, one loss repaired by fast
# retransmit.
@example(messages=[(40_000, None if i % 3 else 4096 * i) for i in range(40)],
         scattered={3}, black_hole=(0, 0), rto_min=0.0002)
def test_fast_path_matches_reference_connection(messages, scattered,
                                                black_hole, rto_min):
    """Differential oracle for the bounded source lookup and the lazily
    re-armed RTO deadline: every data transmission (time, seq, length,
    DMA source), the loss-recovery counters and the delivered bytes
    match the replaced implementation exactly, including the order of
    same-time events."""
    start, run = black_hole
    losses = set(scattered) | set(range(start, start + run))
    params = TcpParams(rto_min=rto_min, max_retries=20)
    reference = _traced_stream(_ReferenceConnection, losses, messages,
                               params, until=60.0)
    fast = _traced_stream(TcpConnection, losses, messages, params, until=60.0)
    assert fast == reference
    assert fast[2] == sum(size for size, _ in messages)


# -- bounded per-connection state -------------------------------------------------

class _UnprunedConnection(TcpConnection):
    """Planted bug: acknowledged source ranges are never released."""

    def _prune_src_ranges(self):
        pass


def _stream_checking_src_ranges(conn_cls, n_messages=10_000):
    """Loss-free stream of ``n_messages`` sourced sends; after every
    packet the client handles, its range deque may hold at most one
    entry beyond the messages that still have unacknowledged bytes."""
    sizes = [512 + (i * 389) % 1536 for i in range(n_messages)]
    ends = list(itertools.accumulate(sizes))
    with connection_class(conn_cls):
        env, srv_user, cli_user = build()
        stack = cli_user.stack
        checked = []

        def on_packet(packet):
            stack._on_packet(packet)
            for conn in stack.connections.values():
                unacked = len(ends) - bisect.bisect_right(ends, conn.snd_una)
                held = len(conn._src_ranges)
                assert held <= unacked + 1, (
                    f"{held} source ranges for {unacked} unacked messages")
                checked.append(len(conn._src_ranges))

        stack.channel.set_rx_handler(on_packet)
        delivered, conn = transfer(
            env, srv_user, cli_user, until=1.0,
            messages=[(size, 4096 * i) for i, size in enumerate(sizes)])
    return delivered, ends[-1], conn, checked


def test_src_ranges_bounded_by_unacked_messages():
    delivered, total, conn, checked = _stream_checking_src_ranges(TcpConnection)
    assert delivered == total
    assert len(checked) > 1000  # the bound was checked throughout
    assert len(conn._src_ranges) == 0


def test_src_range_bound_catches_unpruned_ranges():
    """Planted bug: without pruning the bound check fails."""
    with pytest.raises(AssertionError, match="source ranges for"):
        _stream_checking_src_ranges(_UnprunedConnection)


class _TimerCountingEnv(Environment):
    """Counts the retransmit-timer events each connection schedules."""

    def __init__(self):
        super().__init__()
        self.timer_events = {}

    def at(self, t, callback, value=None):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, TcpConnection):
            self.timer_events[owner] = self.timer_events.get(owner, 0) + 1
        return super().at(t, callback, value)


def test_rto_timer_schedules_one_event_per_rto_not_per_ack():
    """A saturating stream ACKs thousands of times; the timer still
    schedules about one event per ``rto_min`` of simulated time (the
    replaced per-arm timer scheduled one per ACK)."""
    params = TcpParams(rto_min=0.002)
    elapsed = 0.02
    env, srv_user, cli_user = build(tcp_params=params, env=_TimerCountingEnv())
    acks = []
    cli_user.stack.channel.set_rx_handler(
        lambda packet: (acks.append(1), cli_user.stack._on_packet(packet)))
    delivered, conn = transfer(env, srv_user, cli_user, 64 * MB, until=elapsed)
    assert conn.timeouts == 0 and conn.inflight > 0  # still streaming
    assert len(acks) > 5000
    # The SYN timer, the first data arm, then one re-sleep per fire; the
    # fires come one rto_min apart less the gap since the last ACK
    # (microseconds), so at most one more than the whole intervals.
    assert env.timer_events[conn] <= 3 + elapsed / params.rto_min


def _kv_cell_peak_src_ranges(duration):
    """A reduced Figure 7 cell (memaslap -> KV server over TCP on the
    Ethernet backup ring, zero-copy sourced responses).  Returns the peak
    range-deque length over every server connection, and the ops served."""
    peak = [0]

    class _PeakTracking(TcpConnection):
        def send(self, n_bytes, src_addr=None):
            super().send(n_bytes, src_addr)
            peak[0] = max(peak[0], len(self._src_ranges))

    MessageFramer.reset_registry()
    with connection_class(_PeakTracking):
        env = Environment()
        params = scaled_tcp_params()
        server = EthernetHost(env, "server", 20 * MB)
        client = EthernetHost(env, "client", 256 * MB)
        to_server, to_client = connect_back_to_back(env, client, server,
                                                    rate_bps=12 * Gbps)
        server.nic.attach_link(to_client)
        client.nic.attach_link(to_server)
        vm = server.create_iouser("vm0", RxMode.BACKUP, ring_size=64,
                                  tcp_params=params)
        KvServer(vm, capacity_bytes=20 * MB, item_value_size=4 * KB - 256,
                 heap_bytes=18 * MB)
        cli = client.create_iouser("cli0", RxMode.PIN, ring_size=256,
                                   tcp_params=params)
        gen = Memaslap(cli, "server", "vm0", Rng(7), connections=2,
                       get_ratio=0.9, n_keys=3600, value_size=4 * KB - 256,
                       report_interval=0.5, think_time=0.002,
                       set_on_miss=True)
        gen.start()
        env.run(until=duration)
        gen.stop()
    return peak[0], gen.completed_ops


def test_src_ranges_do_not_grow_with_run_length():
    """Per-connection state is bounded by the window, not the run: an
    8x longer cell serves ~8x the operations at the same peak."""
    peak_short, ops_short = _kv_cell_peak_src_ranges(1.0)
    peak_long, ops_long = _kv_cell_peak_src_ranges(8.0)
    assert ops_long > 5 * ops_short
    assert 1 <= peak_long <= peak_short
