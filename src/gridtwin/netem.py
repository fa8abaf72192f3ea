"""Emulated layer-2/3 network.

Hosts with MAC/IP addresses hang off one learning switch on a flat
/24.  Hosts keep their own ARP caches; any received ARP reply
(solicited or gratuitous) overwrites a cache entry — the vulnerability
the MITM attack exploits.  Frames queued during a simulation step are
delivered at the end of that step (one-step latency), in an order
independent of simulator registration: the queue is drained sorted by
sending host id, then per-host send sequence.

A host holds its network's clock, which stamps the packets and ARP
requests it queues, and three of its tables for its send path: the
addresses the subnet check accepted, the TCP sequence table and one
ip-id stream for the whole network, 1 to 65535, then 0, 1, ...  None
refers back to the network, and a host holds the network itself by a
weak proxy, so a dropped network is freed without a cycle collection.

A frame is a plain record of its MACs and its packet (an
``ArpMessage`` or an ``IpDelivery``, both tuples), which every receiving
host shares.  Its bytes, real Ethernet/IPv4/TCP with valid checksums,
are made once, by ``Capture.record_frame``, so captures decode in
standard protocol analyzers.  A link's constants (``tcp_link``) are
computed once; ``frame_header`` adds a packet's variable words to them
and packs its Ethernet, IPv4 and TCP headers in one call, for the
capture and ``build_ipv4_tcp`` alike.
"""

from __future__ import annotations

import ipaddress
import itertools
import re
import struct
import weakref
from functools import lru_cache
from typing import Callable, NamedTuple

from .cosim import SimClock

ETH_IPV4 = 0x0800
ETH_ARP = 0x0806
BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"
ZERO_MAC = "00:00:00:00:00:00"
MIN_FRAME_LEN = 60  # without FCS

ARP_REQUEST = 1
ARP_REPLY = 2
# steps an IPv4 packet waits for its ARP reply before it is dropped
ARP_TIMEOUT_STEPS = 3


class NetemError(Exception):
    pass


class ResolutionError(NetemError):
    """Destination IP cannot be resolved to a MAC address."""


class InputError(NetemError):
    pass


# six two-digit lower-case hex groups: the six bytes of an Ethernet address
MAC_RE = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}")

# The address helpers are memoised: a scenario uses a few hundred distinct
# addresses, and each is parsed and validated once.  A refused input is
# not cached, so it is refused on every call.

@lru_cache(maxsize=1024)
def mac_bytes(mac: str) -> bytes:
    return bytes(int(p, 16) for p in mac.split(":"))


@lru_cache(maxsize=1024)
def ip_bytes(ip: str) -> bytes:
    return ipaddress.IPv4Address(ip).packed


class ArpMessage(NamedTuple):
    op: int  # ARP_REQUEST | ARP_REPLY
    sender_mac: str
    sender_ip: str
    target_mac: str
    target_ip: str

    def to_bytes(self) -> bytes:
        return struct.pack(">HHBBH", 1, ETH_IPV4, 6, 4, self.op) \
            + mac_bytes(self.sender_mac) + ip_bytes(self.sender_ip) \
            + mac_bytes(self.target_mac) + ip_bytes(self.target_ip)


# -- IPv4 + TCP encapsulation --------------------------------------------
#
# RFC 1071 checksums.  Since 2**16 = 1 modulo 0xFFFF, bytes read as one
# big-endian number are congruent to the sum of their 16-bit words, so
# a sum can be kept modulo 0xFFFF and end-around-carry folded at the
# end as (s - 1) % 0xFFFF + 1: 0xFFFF, not 0, for a nonzero sum (and no
# sum here is zero).  On a link (MACs, IPs and ports) only the lengths,
# ip_id, seq, ack and payload vary, so its constant words are summed once.

# the Ethernet, IPv4 and TCP headers of a frame; the IPv4 addresses end
# the IPv4 header and the ports start the TCP one, so they are one field
_FRAME_HEADER = struct.Struct(">14sHHHHHH12sIIHHHH")


@lru_cache(maxsize=1024)
def tcp_link(src_mac: str, dst_mac: str, src_ip: str, dst_ip: str,
             src_port: int, dst_port: int) -> tuple[bytes, bytes, int, int]:
    """A link's Ethernet header, its packed addresses and ports, and its
    constant IPv4 and TCP (pseudo-header included) words, each summed
    modulo 0xFFFF."""
    addrs = ip_bytes(src_ip) + ip_bytes(dst_ip)
    a = int.from_bytes(addrs, "big")  # the four address words
    # version/IHL, DF, TTL/proto
    ip_sum = (0x4500 + 0x4000 + 0x4006 + a) % 0xFFFF
    # proto, ports, data offset/flags, window
    tcp_sum = (a + 6 + src_port + dst_port + 0x5018 + 8192) % 0xFFFF
    return (eth_header(dst_mac, src_mac, ETH_IPV4),
            addrs + struct.pack(">HH", src_port, dst_port), ip_sum, tcp_sum)


def frame_header(link: tuple[bytes, bytes, int, int], seq: int, ack: int,
                 payload: bytes, ip_id: int) -> bytes:
    """The Ethernet, IPv4 and TCP headers of one packet on a link."""
    eth, addrs, ip_sum, tcp_sum = link
    n = len(payload)
    ip_id &= 0xFFFF
    seq &= 0xFFFFFFFF
    ack &= 0xFFFFFFFF
    ip_sum += 40 + n + ip_id
    # an odd payload is summed as if padded with one zero byte
    tcp_sum += 20 + n + seq + ack \
        + (int.from_bytes(payload, "big") << (n & 1) * 8)
    return _FRAME_HEADER.pack(
        eth, 0x4500, 40 + n, ip_id, 0x4000, 0x4006,
        ~((ip_sum - 1) % 0xFFFF + 1) & 0xFFFF, addrs, seq, ack, 0x5018,
        8192, ~((tcp_sum - 1) % 0xFFFF + 1) & 0xFFFF, 0)


def build_ipv4_tcp(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                   seq: int, ack: int, payload: bytes, ip_id: int = 0) -> bytes:
    # a frame's headers without the Ethernet one
    link = tcp_link(ZERO_MAC, ZERO_MAC, src_ip, dst_ip, src_port, dst_port)
    return frame_header(link, seq, ack, payload, ip_id)[14:] + payload


class IpDelivery(NamedTuple):
    """An IPv4/TCP packet: sent as this record, handed to applications."""
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    payload: bytes
    ip_id: int


@lru_cache(maxsize=1024)
def eth_header(dst_mac: str, src_mac: str, ethertype: int) -> bytes:
    return mac_bytes(dst_mac) + mac_bytes(src_mac) + struct.pack(">H", ethertype)


class EthernetFrame(NamedTuple):
    src_mac: str
    dst_mac: str
    packet: ArpMessage | IpDelivery


def parse_ipv4_tcp(raw: bytes) -> dict:
    """Parse an IPv4/TCP packet (Ethernet padding tolerated via total length)."""
    if len(raw) < 40:
        raise InputError("truncated IPv4 packet")
    ihl = (raw[0] & 0x0F) * 4
    total = struct.unpack_from(">H", raw, 2)[0]
    if raw[9] != 6:
        raise InputError(f"not TCP (proto {raw[9]})")
    if total > len(raw) or ihl < 20:
        raise InputError("bad IPv4 length fields")
    src_ip = "%d.%d.%d.%d" % tuple(raw[12:16])
    dst_ip = "%d.%d.%d.%d" % tuple(raw[16:20])
    tcp = raw[ihl:total]
    if len(tcp) < 20:
        raise InputError("truncated TCP header")
    sport, dport, seq, ack = struct.unpack_from(">HHII", tcp)
    off = (tcp[12] >> 4) * 4
    return dict(src_ip=src_ip, dst_ip=dst_ip, src_port=sport, dst_port=dport,
                seq=seq, ack=ack, payload=tcp[off:])


# -- hosts and the network -----------------------------------------------

class Host:
    """One endpoint's addresses and network stack, driven by the Network
    transport.  Made by ``Network.attach``."""

    def __init__(self, net: "Network", id: str, mac: str, ip: str,
                 promiscuous: bool = False):
        # weak: the Network owns its hosts, and one dropped is freed
        # without waiting for a cycle collection
        self.net = weakref.proxy(net)
        self.clock = net.clock
        self._in_subnet, self._seqs, self._ip_ids = \
            net._in_subnet, net._seqs, net._ip_ids  # the send path's tables
        self.id = id
        self.mac = mac
        self.ip = ip
        # the attacker's receive mode: every ARP message it sees goes to
        # the tap, and IP packets addressed to others are delivered too
        self.promiscuous = promiscuous
        self.arp_cache: dict[str, tuple[str, int]] = {}  # ip -> (mac, step)
        self.outbox: list[EthernetFrame] = []
        self.inbox: list[IpDelivery] = []
        self.tap: list[ArpMessage] = []
        self.events: list[tuple[int, str, str]] = []  # (step, kind, detail)
        # IPv4 packets awaiting ARP: (packet, step queued)
        self._pending: list[tuple[IpDelivery, int]] = []
        self._arp_inflight: dict[str, int] = {}  # ip -> step requested

    # -- application API --------------------------------------------------

    def receive(self) -> list[IpDelivery]:
        out, self.inbox = self.inbox, []
        return out

    def read_tap(self) -> list[ArpMessage]:
        out, self.tap = self.tap, []
        return out

    def resolve(self, ip: str) -> str | None:
        """Cached MAC for ip, or None after starting ARP resolution."""
        self.net.check_subnet(ip)
        entry = self.arp_cache.get(ip)
        if entry is not None:
            return entry[0]
        if ip not in self._arp_inflight:
            self._arp_inflight[ip] = self.clock.now
            req = ArpMessage(ARP_REQUEST, self.mac, self.ip, ZERO_MAC, ip)
            self.send_arp(req, BROADCAST_MAC)
        return None

    def send_ip(self, dst_ip: str, payload: bytes,
                dst_port: int = 502, src_port: int = 50000) -> None:
        """Send an application payload over IPv4/TCP; resolves via ARP."""
        if not payload:
            raise InputError("zero-length payload")
        entry = self.arp_cache.get(dst_ip) if dst_ip in self._in_subnet else None
        # resolve refuses before any flow state moves
        dst_mac = self.resolve(dst_ip) if entry is None else entry[0]
        src_ip, seqs = self.ip, self._seqs
        key = (src_ip, src_port, dst_ip, dst_port)
        seq = seqs.get(key, 1000)
        seqs[key] = seq + len(payload)
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        pkt = tuple.__new__(IpDelivery, (
            src_ip, dst_ip, src_port, dst_port, seq,
            seqs.get((dst_ip, dst_port, src_ip, src_port), 1000), payload,
            next(self._ip_ids)))
        if dst_mac is None:
            self._pending.append((pkt, self.clock.now))
        else:
            self.outbox.append(tuple.__new__(EthernetFrame,
                                             (self.mac, dst_mac, pkt)))

    def forward_ip(self, d: IpDelivery, payload: bytes, dst_mac: str) -> None:
        """Re-emit an intercepted packet (MITM): original IPs/ports/seq are
        preserved, source MAC becomes ours, payload may be rewritten."""
        pkt = tuple.__new__(IpDelivery, (*d[:6], payload, next(self._ip_ids)))
        self.outbox.append(tuple.__new__(EthernetFrame,
                                         (self.mac, dst_mac, pkt)))

    def send_arp(self, msg: ArpMessage, dst_mac: str) -> None:
        """Emit an arbitrary ARP message (used by the attacker)."""
        self.outbox.append(EthernetFrame(self.mac, dst_mac, msg))

    # -- stack internals --------------------------------------------------

    def _learn(self, ip: str, mac: str, step: int) -> None:
        self.arp_cache[ip] = (mac, step)
        self._arp_inflight.pop(ip, None)
        for pkt, _ in self._pending:
            if pkt.dst_ip == ip:  # goes out next transport
                self.outbox.append(EthernetFrame(self.mac, mac, pkt))
        self._pending = [p for p in self._pending if p[0].dst_ip != ip]

    def _on_frame(self, frame: EthernetFrame, step: int) -> None:
        msg = frame.packet
        if isinstance(msg, IpDelivery):  # about nine frames in ten
            if msg.dst_ip == self.ip or self.promiscuous:
                self.inbox.append(msg)
            else:
                self.net.drop("foreign-ip")
            return
        if self.promiscuous:
            self.tap.append(msg)
        if msg.op == ARP_REPLY:
            # any reply overwrites the cache: the spoofing vulnerability
            self._learn(msg.sender_ip, msg.sender_mac, step)
        elif msg.op == ARP_REQUEST and msg.target_ip == self.ip:
            self._learn(msg.sender_ip, msg.sender_mac, step)
            reply = ArpMessage(ARP_REPLY, self.mac, self.ip,
                               msg.sender_mac, msg.sender_ip)
            self.send_arp(reply, msg.sender_mac)

    def _expire(self, step: int) -> None:
        """Drop what waited ARP_TIMEOUT_STEPS for a reply: queued packets
        and unanswered requests, so the next send asks again."""
        old = step - ARP_TIMEOUT_STEPS
        for pkt, since in self._pending:
            if since <= old:
                self.events.append((step, "resolution-error", pkt.dst_ip))
                self.net.drop("arp-timeout")
        self._pending = [p for p in self._pending if p[1] > old]
        inflight = self._arp_inflight
        for ip in [i for i, since in inflight.items() if since <= old]:
            del inflight[ip]
        if self.net.cache_expiry_steps is not None:
            cache = self.arp_cache
            for ip in [i for i, (_, t) in cache.items()
                       if step - t >= self.net.cache_expiry_steps]:
                del cache[ip]


class Network:
    """One learning switch and the hosts on it; transported once per step."""

    def __init__(self, clock: SimClock, subnet: str = "192.168.10.0/24",
                 cache_expiry_steps: int | None = None):
        self.clock = clock  # hosts stamp what they queue with its step
        self.subnet = ipaddress.IPv4Network(subnet)
        self.cache_expiry_steps = cache_expiry_steps
        self.hosts: dict[str, Host] = {}  # in attach order
        self.mac_table: dict[str, Host] = {}  # source MAC -> host it came from
        self._order: list[Host] = []      # hosts sorted by id
        self._in_subnet: set[str] = set()  # addresses check_subnet accepted
        self._seqs: dict[tuple, int] = {}  # flow -> next seq
        self._ip_ids = map((0xFFFF).__and__, itertools.count(1))
        self.frame_sink: Callable[[EthernetFrame, int], None] | None = None
        self.delivered = 0
        self.flooded = 0
        self.dropped: dict[str, int] = {}

    def attach(self, id: str, mac: str, ip: str,
               promiscuous: bool = False) -> Host:
        """A new host on the switch, flooded to after those before it."""
        if id in self.hosts:
            raise NetemError(f"duplicate host id {id!r}")
        if not MAC_RE.fullmatch(mac):
            raise NetemError(f"invalid MAC {mac!r}")
        for h in self.hosts.values():
            if h.ip == ip or h.mac == mac:
                raise NetemError(f"address collision with {h.id!r}")
        self.check_subnet(ip)
        host = Host(self, id, mac, ip, promiscuous)
        self.hosts[id] = host
        self._order = [self.hosts[hid] for hid in sorted(self.hosts)]
        return host

    def check_subnet(self, ip: str) -> None:
        if ip in self._in_subnet:
            return
        if ipaddress.IPv4Address(ip) not in self.subnet:
            raise ResolutionError(f"{ip} outside scenario subnet {self.subnet}")
        self._in_subnet.add(ip)

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def transport(self, step: int) -> None:
        """End-of-step hook: deliver all frames queued during this step.
        The switch learns each sender's MAC; a frame to a learned MAC
        reaches that host (none if it is the sender's own), any other is
        flooded to every other host in attach order."""
        # drain every outbox first: frames sent while these are delivered
        # go out at the next transport
        batch: list[tuple[Host, list[EthernetFrame]]] = []
        for host in self._order:
            if host.outbox:
                batch.append((host, host.outbox))
                host.outbox = []
        table, sink = self.mac_table, self.frame_sink
        for sender, frames in batch:
            for frame in frames:
                src_mac, dst_mac, _ = frame
                table[src_mac] = sender
                dst = None if dst_mac == BROADCAST_MAC else table.get(dst_mac)
                # a sink that raises leaves the frame uncounted, as the
                # capture left it unrecorded
                if sink:
                    sink(frame, step)
                if dst is None:
                    self.flooded += 1
                    for host in self.hosts.values():
                        if host is not sender:
                            host._on_frame(frame, step)
                else:
                    self.delivered += 1
                    if dst is not sender:
                        dst._on_frame(frame, step)
        # a host has something to expire only while it awaits ARP replies
        # or with cache expiry on
        expiring = self.cache_expiry_steps is not None
        for host in self._order:
            if host._arp_inflight or host._pending or expiring:
                host._expire(step)
