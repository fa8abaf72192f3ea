"""Emulated layer-2/3 network.

Endpoints with MAC/IP addresses hang off a learning switch on one flat
/24.  Hosts keep their own ARP caches; any received ARP reply
(solicited or gratuitous) overwrites a cache entry — the vulnerability
the MITM attack exploits.  Frames queued during a simulation step are
delivered at the end of that step (one-step latency), in an order
independent of simulator registration: the queue is drained sorted by
sending endpoint id, then per-host send sequence.

Application payloads travel as real Ethernet/IPv4/TCP frames (with
valid checksums) so captures decode in standard protocol analyzers.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

ETH_IPV4 = 0x0800
ETH_ARP = 0x0806
BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"
ZERO_MAC = "00:00:00:00:00:00"
MIN_FRAME_LEN = 60  # without FCS

ARP_REQUEST = 1
ARP_REPLY = 2


class NetemError(Exception):
    pass


class ResolutionError(NetemError):
    """Destination IP cannot be resolved to a MAC address."""


class InputError(NetemError):
    pass


# The address helpers are memoised: a scenario uses a few hundred distinct
# addresses, and each is parsed and validated once.  A refused input is
# not cached, so it is refused on every call.

@lru_cache(maxsize=1024)
def mac_bytes(mac: str) -> bytes:
    return bytes(int(p, 16) for p in mac.split(":"))


@lru_cache(maxsize=1024)
def mac_str(raw: bytes) -> str:
    return ":".join(f"{b:02x}" for b in raw)


@lru_cache(maxsize=1024)
def ip_bytes(ip: str) -> bytes:
    return ipaddress.IPv4Address(ip).packed


@lru_cache(maxsize=1024)
def ip_str(raw: bytes) -> str:
    if len(raw) != 4:
        raise ipaddress.AddressValueError(
            f"packed IPv4 address must be 4 bytes, got {len(raw)}")
    return socket.inet_ntoa(raw)


@dataclass(frozen=True)
class EthernetFrame:
    src_mac: str
    dst_mac: str
    ethertype: int
    payload: bytes

    @cached_property
    def ipv4(self) -> dict | None:
        """The parsed IPv4/TCP packet, or None if the frame is not IPv4 or
        is malformed.  Parsed on first use; the capture and every
        receiving host share the one dict, so none may change it."""
        if self.ethertype != ETH_IPV4:
            return None
        try:
            return parse_ipv4_tcp(self.payload)
        except InputError:
            return None

    def to_bytes(self) -> bytes:
        raw = mac_bytes(self.dst_mac) + mac_bytes(self.src_mac) \
            + struct.pack(">H", self.ethertype) + self.payload
        if len(raw) < MIN_FRAME_LEN:
            raw += bytes(MIN_FRAME_LEN - len(raw))
        return raw


@dataclass(frozen=True)
class ArpMessage:
    op: int  # ARP_REQUEST | ARP_REPLY
    sender_mac: str
    sender_ip: str
    target_mac: str
    target_ip: str

    def to_bytes(self) -> bytes:
        return struct.pack(">HHBBH", 1, ETH_IPV4, 6, 4, self.op) \
            + mac_bytes(self.sender_mac) + ip_bytes(self.sender_ip) \
            + mac_bytes(self.target_mac) + ip_bytes(self.target_ip)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ArpMessage":
        if len(raw) < 28:
            raise InputError("truncated ARP payload")
        htype, ptype, hlen, plen, op = struct.unpack(">HHBBH", raw[:8])
        if (htype, ptype, hlen, plen) != (1, ETH_IPV4, 6, 4):
            raise InputError("unsupported ARP header")
        return cls(op, mac_str(raw[8:14]), ip_str(raw[14:18]),
                   mac_str(raw[18:24]), ip_str(raw[24:28]))


# -- IPv4 + TCP encapsulation --------------------------------------------

def _checksum(data: bytes) -> int:
    """RFC 1071 checksum.  Read as one big-endian number, the data is
    congruent to the sum of its 16-bit words modulo 0xFFFF (2**16 = 1
    there), and end-around-carry folding keeps that residue, giving
    0xFFFF rather than 0 for a nonzero sum."""
    if len(data) % 2:
        data += b"\x00"
    n = int.from_bytes(data, "big")
    total = (n - 1) % 0xFFFF + 1 if n else 0
    return ~total & 0xFFFF


def build_ipv4_tcp(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                   seq: int, ack: int, payload: bytes, ip_id: int = 0) -> bytes:
    tcp = struct.pack(">HHIIBBHHH", src_port, dst_port, seq & 0xFFFFFFFF,
                      ack & 0xFFFFFFFF, 5 << 4, 0x18, 8192, 0, 0) + payload
    addrs = ip_bytes(src_ip) + ip_bytes(dst_ip)
    pseudo = addrs + struct.pack(">BBH", 0, 6, len(tcp))
    tcp = tcp[:16] + struct.pack(">H", _checksum(pseudo + tcp)) + tcp[18:]
    total = 20 + len(tcp)
    ip = struct.pack(">BBHHHBBH", 0x45, 0, total, ip_id & 0xFFFF, 0x4000, 64, 6, 0) \
        + addrs
    ip = ip[:10] + struct.pack(">H", _checksum(ip)) + ip[12:]
    return ip + tcp


@dataclass(frozen=True)
class IpDelivery:
    """A parsed IPv4/TCP packet handed to an application."""
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    payload: bytes
    src_mac: str
    dst_mac: str
    step: int


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
    src_ip, dst_ip = ip_str(raw[12:16]), ip_str(raw[16:20])
    tcp = raw[ihl:total]
    if len(tcp) < 20:
        raise InputError("truncated TCP header")
    sport, dport, seq, ack = struct.unpack_from(">HHII", tcp)
    off = (tcp[12] >> 4) * 4
    return dict(src_ip=src_ip, dst_ip=dst_ip, src_port=sport, dst_port=dport,
                seq=seq, ack=ack, payload=tcp[off:])


# -- endpoints, switch, network ------------------------------------------

@dataclass
class Endpoint:
    id: str
    mac: str
    ip: str
    port: int = -1                 # switch port, assigned on attach
    promiscuous: bool = False      # raw frame tap for the application
    accept_foreign: bool = False   # deliver IP packets not addressed to our IP
    arp_cache: dict[str, tuple[str, int]] = field(default_factory=dict)


class LearningSwitch:
    """MAC-learning switch: known unicast to one port, otherwise flood."""

    def __init__(self):
        self.mac_table: dict[str, int] = {}

    def forward(self, frame: EthernetFrame, ingress: int,
                ports: list[int]) -> tuple[list[int], bool]:
        """Returns (egress ports, flooded?)."""
        self.mac_table[frame.src_mac] = ingress
        if frame.dst_mac != BROADCAST_MAC and frame.dst_mac in self.mac_table:
            out = self.mac_table[frame.dst_mac]
            if out == ingress:
                return [], False
            return [out], False
        return [p for p in ports if p != ingress], True


@dataclass
class _Pending:
    dst_ip: str
    build: Callable[[str], EthernetFrame]  # true dst MAC -> frame
    since: int


class Host:
    """One endpoint's network stack, driven by the Network transport."""

    def __init__(self, net: "Network", endpoint: Endpoint):
        self.net = net
        self.endpoint = endpoint
        self.outbox: list[EthernetFrame] = []
        self.inbox: list[IpDelivery] = []
        self.tap: list[EthernetFrame] = []
        self.events: list[tuple[int, str, str]] = []  # (step, kind, detail)
        self._pending: list[_Pending] = []
        self._arp_inflight: set[str] = set()

    # -- application API --------------------------------------------------

    @property
    def id(self) -> str:
        return self.endpoint.id

    @property
    def mac(self) -> str:
        return self.endpoint.mac

    @property
    def ip(self) -> str:
        return self.endpoint.ip

    def receive(self) -> list[IpDelivery]:
        out, self.inbox = self.inbox, []
        return out

    def read_tap(self) -> list[EthernetFrame]:
        out, self.tap = self.tap, []
        return out

    def resolve(self, ip: str) -> str | None:
        """Cached MAC for ip, or None after starting ARP resolution."""
        self.net.check_subnet(ip)
        entry = self.endpoint.arp_cache.get(ip)
        if entry is not None:
            return entry[0]
        self._request_arp(ip)
        return None

    def send_ip(self, dst_ip: str, payload: bytes,
                dst_port: int = 502, src_port: int = 50000) -> None:
        """Send an application payload over IPv4/TCP; resolves via ARP."""
        if not payload:
            raise InputError("zero-length payload")
        self.net.check_subnet(dst_ip)
        seq, ack = self.net.next_seq(self.ip, src_port, dst_ip, dst_port,
                                     len(payload))
        pkt = build_ipv4_tcp(self.ip, dst_ip, src_port, dst_port, seq, ack,
                             payload, self.net.next_ip_id())

        def build(dst_mac: str) -> EthernetFrame:
            return EthernetFrame(self.mac, dst_mac, ETH_IPV4, pkt)

        cached = self.endpoint.arp_cache.get(dst_ip)
        if cached is not None:
            self.outbox.append(build(cached[0]))
        else:
            self._pending.append(_Pending(dst_ip, build, self.net.step))
            self._request_arp(dst_ip)

    def forward_ip(self, d: IpDelivery, payload: bytes, dst_mac: str) -> None:
        """Re-emit an intercepted packet (MITM): original IPs/ports/seq are
        preserved, source MAC becomes ours, payload may be rewritten."""
        pkt = build_ipv4_tcp(d.src_ip, d.dst_ip, d.src_port, d.dst_port,
                             d.seq, d.ack, payload, self.net.next_ip_id())
        self.outbox.append(EthernetFrame(self.mac, dst_mac, ETH_IPV4, pkt))

    def send_arp(self, msg: ArpMessage, dst_mac: str) -> None:
        """Emit an arbitrary ARP message (used by the attacker)."""
        self.outbox.append(EthernetFrame(self.mac, dst_mac, ETH_ARP,
                                         msg.to_bytes()))

    # -- stack internals --------------------------------------------------

    def _request_arp(self, ip: str) -> None:
        if ip in self._arp_inflight:
            return
        self._arp_inflight.add(ip)
        req = ArpMessage(ARP_REQUEST, self.mac, self.ip, ZERO_MAC, ip)
        self.outbox.append(EthernetFrame(self.mac, BROADCAST_MAC, ETH_ARP,
                                         req.to_bytes()))

    def _learn(self, ip: str, mac: str, step: int) -> None:
        self.endpoint.arp_cache[ip] = (mac, step)
        self._arp_inflight.discard(ip)
        still = []
        for p in self._pending:
            if p.dst_ip == ip:
                self.outbox.append(p.build(mac))  # goes out next transport
            else:
                still.append(p)
        self._pending = still

    def _on_frame(self, frame: EthernetFrame, step: int) -> None:
        if self.endpoint.promiscuous:
            self.tap.append(frame)
        if frame.ethertype == ETH_ARP:
            try:
                msg = ArpMessage.from_bytes(frame.payload)
            except InputError:
                self.net.drop("malformed-arp")
                return
            if msg.op == ARP_REPLY:
                # any reply overwrites the cache: the spoofing vulnerability
                self._learn(msg.sender_ip, msg.sender_mac, step)
            elif msg.op == ARP_REQUEST and msg.target_ip == self.ip:
                self._learn(msg.sender_ip, msg.sender_mac, step)
                reply = ArpMessage(ARP_REPLY, self.mac, self.ip,
                                   msg.sender_mac, msg.sender_ip)
                self.send_arp(reply, msg.sender_mac)
        elif frame.ethertype == ETH_IPV4:
            f = frame.ipv4
            if f is None:
                self.net.drop("malformed-ip")
                return
            if f["dst_ip"] != self.ip and not self.endpoint.accept_foreign:
                self.net.drop("foreign-ip")
                return
            self.inbox.append(IpDelivery(
                f["src_ip"], f["dst_ip"], f["src_port"], f["dst_port"],
                f["seq"], f["ack"], f["payload"], frame.src_mac,
                frame.dst_mac, step))
        else:
            self.net.drop("unknown-ethertype")

    def _expire(self, step: int) -> None:
        timeout = self.net.arp_timeout_steps
        still = []
        for p in self._pending:
            if step - p.since >= timeout:
                self._arp_inflight.discard(p.dst_ip)
                self.events.append((step, "resolution-error", p.dst_ip))
                self.net.drop("arp-timeout")
            else:
                still.append(p)
        self._pending = still
        if self.net.cache_expiry_steps is not None:
            cache = self.endpoint.arp_cache
            for ip in [i for i, (_, t) in cache.items()
                       if step - t >= self.net.cache_expiry_steps]:
                del cache[ip]


class Network:
    """The switch plus all attached hosts; transported once per step."""

    def __init__(self, subnet: str = "192.168.10.0/24",
                 arp_timeout_steps: int = 3,
                 cache_expiry_steps: int | None = None):
        self.subnet = ipaddress.IPv4Network(subnet)
        self.arp_timeout_steps = arp_timeout_steps
        self.cache_expiry_steps = cache_expiry_steps
        self.switch = LearningSwitch()
        self.hosts: dict[str, Host] = {}
        self._by_port: dict[int, Host] = {}
        self._ports: list[int] = []       # ascending switch ports
        self._order: list[Host] = []      # hosts sorted by endpoint id
        self._in_subnet: set[str] = set()  # addresses check_subnet accepted
        self.step = 0
        self.frame_sink: Callable[[EthernetFrame, int], None] | None = None
        self.delivered = 0
        self.flooded = 0
        self.dropped: dict[str, int] = {}
        self._ip_id = 0
        self._flows: dict[tuple, int] = {}

    def attach(self, endpoint: Endpoint) -> Host:
        if endpoint.id in self.hosts:
            raise NetemError(f"duplicate endpoint id {endpoint.id!r}")
        for h in self.hosts.values():
            if h.ip == endpoint.ip or h.mac == endpoint.mac:
                raise NetemError(f"address collision with {h.id!r}")
        self.check_subnet(endpoint.ip)
        endpoint.port = len(self.hosts)
        host = Host(self, endpoint)
        self.hosts[endpoint.id] = host
        self._by_port[endpoint.port] = host
        self._ports.append(endpoint.port)
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

    def next_ip_id(self) -> int:
        self._ip_id = (self._ip_id + 1) & 0xFFFF
        return self._ip_id

    def next_seq(self, src_ip, src_port, dst_ip, dst_port, nbytes) -> tuple[int, int]:
        key = (src_ip, src_port, dst_ip, dst_port)
        peer = (dst_ip, dst_port, src_ip, src_port)
        seq = self._flows.setdefault(key, 1000)
        self._flows[key] = seq + nbytes
        return seq, self._flows.get(peer, 1000)

    def transport(self, step: int) -> None:
        """End-of-step hook: deliver all frames queued during this step."""
        self.step = step
        # drain every outbox first: frames sent while these are delivered
        # go out at the next transport
        batch: list[tuple[Host, list[EthernetFrame]]] = []
        for host in self._order:
            if host.outbox:
                batch.append((host, host.outbox))
                host.outbox = []
        for sender, frames in batch:
            ingress = sender.endpoint.port
            for frame in frames:
                egress, flooded = self.switch.forward(frame, ingress,
                                                      self._ports)
                if flooded:
                    self.flooded += 1
                else:
                    self.delivered += 1
                if self.frame_sink:
                    self.frame_sink(frame, step)
                for port in egress:
                    self._by_port[port]._on_frame(frame, step)
        for host in self._order:
            host._expire(step)
