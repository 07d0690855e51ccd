"""A compact TCP model: slow start, AIMD, RTO backoff, fast retransmit.

This is the IOuser-side stack (the paper's lwIP analogue) driving a
direct Ethernet IOchannel.  It models exactly the mechanisms that make
packet dropping on rNPFs catastrophic (§5's *cold ring problem*):

* slow start from a small initial window;
* drops treated as congestion — RTO with exponential backoff, window
  collapse, and a bounded retry count after which the stack reports
  failure to the application;
* SYN retransmission with its own (longer) timeouts, so connections can
  fail to establish at all when the ring is cold;
* fast retransmit on three duplicate ACKs.

Byte streams are modelled by *count*, not content: applications send
``n`` bytes and receive ``n`` bytes in order; sequence numbers are real,
payload bytes are not materialized.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..net.packet import ETHERNET_HEADER, ETHERNET_MTU, Packet
from ..nic.ethernet import EthChannel
from ..sim.engine import Environment

__all__ = ["TcpParams", "TcpSegment", "TcpStack", "TcpConnection", "TcpError"]

_conn_ids = itertools.count(1)


class TcpError(Exception):
    """Connection failed (max retries exceeded) — surfaced to the app."""


@dataclass(frozen=True, slots=True)
class TcpParams:
    """Stack tunables; defaults follow the Linux/lwIP-era constants."""

    mss: int = ETHERNET_MTU - 52          # payload bytes per segment
    header: int = ETHERNET_HEADER
    init_cwnd_segments: int = 10          # Linux 3.x initial window
    rto_min: float = 0.200                # standardized minimum RTO
    rto_max: float = 60.0
    syn_timeout: float = 1.0
    max_syn_retries: int = 6
    max_retries: int = 8                  # consecutive retransmissions before abort
    #: lwIP-style failure accounting: total RTO events over the whole
    #: connection lifetime before the stack reports failure (None = never).
    max_total_timeouts: int | None = None
    dupack_threshold: int = 3
    ack_size: int = ETHERNET_HEADER       # pure-ACK wire size
    rwnd: int = 1024 * 1024               # receiver window: caps cwnd


@dataclass(slots=True)
class TcpSegment:
    """TCP header fields carried in :attr:`Packet.payload`."""

    conn_id: int
    seq: int = 0
    ack: int = 0
    length: int = 0
    syn: bool = False
    ack_flag: bool = False
    fin: bool = False
    #: sender's IOchannel name, so the peer knows where to address replies
    src_channel: str = ""


class TcpConnection:
    """One reliable byte-stream over an IOchannel."""

    __slots__ = ("stack", "env", "params", "conn_id", "remote",
                 "remote_channel", "is_initiator", "state", "snd_una",
                 "snd_nxt", "app_bytes", "cwnd", "ssthresh", "dupacks",
                 "retries", "rto", "_timer_version", "_timer_running",
                 "_timer_syn", "_deadline", "_timer_due", "_timer_cb",
                 "_flow", "_src_channel", "_src_ranges", "rcv_nxt",
                 "_out_of_order",
                 "on_established", "on_receive", "on_failed", "timeouts",
                 "fast_retransmits", "delivered_bytes")

    # Connection states.
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FAILED = "failed"

    def __init__(
        self,
        stack: "TcpStack",
        conn_id: int,
        remote: str,
        remote_channel: str,
        is_initiator: bool,
    ):
        self.stack = stack
        self.env = stack.env
        self.params = stack.params
        self.conn_id = conn_id
        self.remote = remote
        self.remote_channel = remote_channel
        self.is_initiator = is_initiator
        self.state = TcpConnection.CLOSED
        # Per-segment header constants, formatted once.
        self._flow = f"tcp-{conn_id}"
        self._src_channel = stack.channel.name

        # Send side (byte sequence space; content never materialized).
        self.snd_una = 0
        self.snd_nxt = 0
        self.app_bytes = 0          # total bytes the app has asked to send
        self.cwnd = self.params.init_cwnd_segments * self.params.mss
        self.ssthresh = 64 * 1024 * 1024
        self.dupacks = 0
        self.retries = 0
        self.rto = self.params.rto_min
        # Retransmission timer: one absolute deadline, served by at most
        # one pending event (see _arm_timer).
        self._timer_version = 0
        self._timer_running = False
        self._timer_syn = False
        self._deadline = 0.0
        self._timer_due = math.inf    # fire time of the pending event
        self._timer_cb = self._timer_fire
        # (seq, end, addr), sorted by seq (see _prune_src_ranges).
        self._src_ranges: Deque[Tuple[int, int, int]] = deque()

        # Receive side.
        self.rcv_nxt = 0
        self._out_of_order: Dict[int, int] = {}  # seq -> length

        # App callbacks.
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_receive: Optional[Callable[["TcpConnection", int], None]] = None
        self.on_failed: Optional[Callable[["TcpConnection"], None]] = None

        # Statistics.
        self.timeouts = 0
        self.fast_retransmits = 0
        self.delivered_bytes = 0

    # -- app interface -----------------------------------------------------------
    def send(self, n_bytes: int, src_addr: Optional[int] = None) -> None:
        """Queue ``n_bytes`` for in-order delivery to the peer.

        ``src_addr`` marks the (zero-copy) DMA source for these bytes; the
        NIC takes send NPFs on it as needed.
        """
        if n_bytes <= 0:
            raise ValueError("send size must be positive")
        if self.state == TcpConnection.FAILED:
            raise TcpError("send on a failed connection")
        if src_addr is not None:
            self._src_ranges.append((self.app_bytes, self.app_bytes + n_bytes, src_addr))
        self.app_bytes += n_bytes
        if self.state == TcpConnection.ESTABLISHED:
            self._pump()

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def unsent(self) -> int:
        return self.app_bytes - self.snd_nxt

    # -- connection setup --------------------------------------------------------
    def _send_syn(self) -> None:
        self.state = TcpConnection.SYN_SENT
        self._transmit_flags(syn=True)
        self._arm_timer(self.params.syn_timeout, syn=True)

    def _send_syn_ack(self) -> None:
        self.state = TcpConnection.SYN_RCVD
        self._transmit_flags(syn=True, ack=True)
        self._arm_timer(self.params.syn_timeout, syn=True)

    # -- segment transmission ----------------------------------------------------
    def _src_addr_for(self, seq: int) -> Optional[int]:
        for start, end, addr in self._src_ranges:
            if start > seq:
                break  # sorted: no later range can hold seq
            if seq < end:
                return addr + (seq - start)
        return None

    def _prune_src_ranges(self) -> None:
        """Drop the source ranges no transmission can ask for again.

        Retransmits start at ``snd_una`` and :meth:`_pump` at
        ``snd_nxt``, which a late ACK can leave *below* ``snd_una``
        (after an RTO's go-back-N), so the floor is the lower of the two.
        This bounds the deque by the messages in the window.
        """
        ranges = self._src_ranges
        floor = min(self.snd_una, self.snd_nxt)
        while ranges and ranges[0][1] <= floor:
            ranges.popleft()

    def _make_data(self, seq: int) -> Tuple[Packet, Optional[int], int]:
        """Build one data segment as a ``(packet, src_addr, src_size)``
        channel-TX item (see :meth:`EthChannel.send_many`)."""
        length = min(self.params.mss, self.app_bytes - seq)
        segment = TcpSegment(
            self.conn_id, seq=seq, ack=self.rcv_nxt, length=length, ack_flag=True,
            src_channel=self._src_channel,
        )
        packet = Packet(
            src=self.stack.name,
            dst=self.remote,
            size=length + self.params.header,
            kind="tcp",
            flow=self._flow,
            channel=self.remote_channel,
            payload=segment,
        )
        return packet, self._src_addr_for(seq), length

    def _transmit_data(self, seq: int) -> None:
        packet, src_addr, length = self._make_data(seq)
        self.stack.channel.send(packet, src_addr=src_addr, src_size=length)

    def _transmit_flags(self, syn: bool = False, ack: bool = False, ack_only: bool = False) -> None:
        segment = TcpSegment(
            self.conn_id, seq=self.snd_nxt, ack=self.rcv_nxt,
            syn=syn, ack_flag=ack or ack_only,
            src_channel=self._src_channel,
        )
        packet = Packet(
            src=self.stack.name,
            dst=self.remote,
            size=self.params.ack_size,
            kind="tcp",
            flow=self._flow,
            channel=self.remote_channel,
            payload=segment,
        )
        self.stack.channel.send(packet)

    def _pump(self) -> None:
        """Send as much as the congestion window allows.

        The window's worth of segments goes to the IOchannel as one
        batch — a single TX-queue extend instead of a ``send`` per
        segment (the segments are back-to-back anyway; pacing through
        the TX pipeline and onto the wire is unchanged).
        """
        limit = self.snd_una + min(int(self.cwnd), self.params.rwnd)
        batch: List[Tuple[Packet, Optional[int], int]] = []
        while self.snd_nxt < self.app_bytes and self.snd_nxt + 1 <= limit:
            batch.append(self._make_data(self.snd_nxt))
            self.snd_nxt += min(self.params.mss, self.app_bytes - self.snd_nxt)
        if batch:
            self.stack.channel.send_many(batch)
        if self.inflight > 0:
            self._ensure_timer()

    # -- retransmission timer ------------------------------------------------------
    def _arm_timer(self, delay: float, syn: bool = False) -> None:
        """(Re)start the timer to expire ``delay`` from now.

        Only the deadline moves.  A new event is scheduled only when
        none is pending or the deadline moved *earlier* than the pending
        one (an ACK after backoff resets ``rto`` to ``rto_min``); a later
        deadline is picked up when the pending event fires.
        """
        deadline = self.env.now + delay
        self._deadline = deadline
        self._timer_syn = syn
        self._timer_running = True
        if deadline < self._timer_due:
            self._timer_version += 1
            self._timer_due = deadline
            self.env.at(deadline, self._timer_cb, self._timer_version)

    def _ensure_timer(self) -> None:
        if not self._timer_running:
            self._arm_timer(self.rto)

    def _cancel_timer(self) -> None:
        self._timer_running = False

    def _timer_fire(self, event) -> None:
        version = event._value
        if version != self._timer_version:
            return  # superseded by an earlier deadline
        self._timer_due = math.inf
        if not self._timer_running:
            return
        deadline = self._deadline
        if deadline > self.env.now:
            # Re-armed since this event was scheduled: sleep on.
            self._timer_due = deadline
            self.env.at(deadline, self._timer_cb, version)
            return
        self._timer_running = False
        if self._timer_syn:
            self._on_syn_timeout()
        else:
            self._on_rto()

    def _on_syn_timeout(self) -> None:
        if self.state not in (TcpConnection.SYN_SENT, TcpConnection.SYN_RCVD):
            return
        self.retries += 1
        if self.retries > self.params.max_syn_retries:
            self._fail()
            return
        self.timeouts += 1
        if self.state == TcpConnection.SYN_SENT:
            self._transmit_flags(syn=True)
        else:
            self._transmit_flags(syn=True, ack=True)
        self._arm_timer(self.params.syn_timeout * (2 ** self.retries), syn=True)

    def _on_rto(self) -> None:
        if self.inflight <= 0 or self.state != TcpConnection.ESTABLISHED:
            return
        self.retries += 1
        if self.retries > self.params.max_retries:
            self._fail()
            return
        self.timeouts += 1
        if (self.params.max_total_timeouts is not None
                and self.timeouts > self.params.max_total_timeouts):
            self._fail()
            return
        # Classic Tahoe-style response: collapse to one segment and
        # go-back-N — everything past snd_una will be resent as the
        # window reopens (the receiver re-ACKs any duplicates).
        self.ssthresh = max(self.inflight // 2, 2 * self.params.mss)
        self.cwnd = self.params.mss
        self.dupacks = 0
        self.snd_nxt = self.snd_una
        self._transmit_data(self.snd_una)
        self.snd_nxt += min(self.params.mss, self.app_bytes - self.snd_una)
        self.rto = min(self.rto * 2, self.params.rto_max)
        self._arm_timer(self.rto)

    def _fail(self) -> None:
        self.state = TcpConnection.FAILED
        self._cancel_timer()
        self.stack.failed_connections += 1
        if self.on_failed is not None:
            self.on_failed(self)

    # -- segment reception -----------------------------------------------------------
    def handle(self, segment: TcpSegment) -> None:
        if self.state == TcpConnection.FAILED:
            return
        if segment.syn:
            self._handle_syn(segment)
            return
        if self.state == TcpConnection.SYN_SENT:
            return  # data before handshake completes: ignore
        if self.state == TcpConnection.SYN_RCVD:
            self._establish()
        if segment.ack_flag:
            self._handle_ack(segment.ack)
        if segment.length > 0:
            self._handle_data(segment)

    def _handle_syn(self, segment: TcpSegment) -> None:
        if segment.ack_flag:  # SYN-ACK (we initiated)
            if self.state == TcpConnection.SYN_SENT:
                self._establish()
                self._transmit_flags(ack_only=True)
        else:  # retransmitted SYN while we are SYN_RCVD
            if self.state == TcpConnection.SYN_RCVD:
                self._transmit_flags(syn=True, ack=True)

    def _establish(self) -> None:
        self.state = TcpConnection.ESTABLISHED
        self.retries = 0
        self.rto = self.params.rto_min
        self._cancel_timer()
        if self.on_established is not None:
            self.on_established(self)
        self._pump()

    def _handle_ack(self, ack: int) -> None:
        if ack > self.snd_una:
            self.snd_una = ack
            self._prune_src_ranges()
            self.retries = 0
            self.rto = self.params.rto_min
            self.dupacks = 0
            # Congestion window growth.
            if self.cwnd < self.ssthresh:
                self.cwnd += self.params.mss  # slow start
            else:
                self.cwnd += self.params.mss * self.params.mss / self.cwnd
            self._cancel_timer()
            if self.inflight > 0:
                self._ensure_timer()
            self._pump()
        elif ack == self.snd_una and self.inflight > 0:
            self.dupacks += 1
            if self.dupacks == self.params.dupack_threshold:
                self.fast_retransmits += 1
                self.ssthresh = max(self.inflight // 2, 2 * self.params.mss)
                self.cwnd = self.ssthresh
                self._transmit_data(self.snd_una)

    def _handle_data(self, segment: TcpSegment) -> None:
        if segment.seq > self.rcv_nxt:
            self._out_of_order[segment.seq] = max(
                self._out_of_order.get(segment.seq, 0), segment.length
            )
            self._transmit_flags(ack_only=True)  # dup ACK
            return
        if segment.seq + segment.length <= self.rcv_nxt:
            self._transmit_flags(ack_only=True)  # old retransmission
            return
        # In-order (possibly with overlap): advance rcv_nxt.
        delivered = segment.seq + segment.length - self.rcv_nxt
        self.rcv_nxt = segment.seq + segment.length
        while self.rcv_nxt in self._out_of_order:
            length = self._out_of_order.pop(self.rcv_nxt)
            self.rcv_nxt += length
            delivered += length
        self.delivered_bytes += delivered
        self._transmit_flags(ack_only=True)
        if self.on_receive is not None:
            self.on_receive(self, delivered)


class TcpStack:
    """Per-IOuser TCP: demultiplexes its channel's packets to connections."""

    __slots__ = ("env", "channel", "name", "params", "connections",
                 "on_accept", "failed_connections")

    def __init__(
        self,
        env: Environment,
        channel: EthChannel,
        name: str,
        params: Optional[TcpParams] = None,
    ):
        self.env = env
        self.channel = channel
        self.name = name
        self.params = params or TcpParams()
        self.connections: Dict[int, TcpConnection] = {}
        self.on_accept: Optional[Callable[[TcpConnection], None]] = None
        self.failed_connections = 0
        channel.set_rx_handler(self._on_packet)

    # -- app interface -------------------------------------------------------------
    def connect(self, remote: str, remote_channel: str = "") -> TcpConnection:
        """Open a connection; ``on_established`` fires when it completes."""
        conn_id = next(_conn_ids)
        conn = TcpConnection(self, conn_id, remote, remote_channel, is_initiator=True)
        self.connections[conn_id] = conn
        conn._send_syn()
        return conn

    def listen(self, on_accept: Callable[[TcpConnection], None]) -> None:
        """Accept incoming connections, invoking ``on_accept`` for each."""
        self.on_accept = on_accept

    # -- channel ingress ------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        conn = self.connections.get(segment.conn_id)
        if conn is None:
            if segment.syn and not segment.ack_flag and self.on_accept is not None:
                conn = TcpConnection(
                    self, segment.conn_id, packet.src, segment.src_channel,
                    is_initiator=False,
                )
                self.connections[segment.conn_id] = conn
                self.on_accept(conn)
                conn._send_syn_ack()
            return
        conn.handle(segment)
