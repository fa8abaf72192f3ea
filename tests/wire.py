"""The tests' own reader and writer of the bytes gridtwin puts on the wire.

Standard library only, and no gridtwin byte helper: the reference that
the capture's records and the netem builders are checked against is
written here apart from them, one ``struct`` format per header.

A frame is ``(src_mac, dst_mac, packet)``, as an ``EthernetFrame`` is.
An IPv4/TCP packet is ``(src_ip, dst_ip, src_port, dst_port, seq, ack,
payload, ip_id)`` and an ARP message ``(op, sender_mac, sender_ip,
target_mac, target_ip)``, as ``IpDelivery`` and ``ArpMessage`` are, so a
decoded frame compares equal to the record it was made from.  Every
IPv4/TCP header field but those is fixed: IHL 5, DF, TTL 64, flags
PSH|ACK, window 8192, no options.
"""

import socket
import struct

from gridtwin.capture import day_epoch

DAY_EPOCH = int(day_epoch("2021-06-15"))  # Capture's default date

ETH_IPV4, ETH_ARP = 0x0800, 0x0806
MIN_FRAME = 60  # bytes, without the FCS
_ETH = struct.Struct(">6s6sH")
_IPV4 = struct.Struct(">BBHHHBBH4s4s")
_TCP = struct.Struct(">HHIIBBHHH")
_ARP = struct.Struct(">HHBBH6s4s6s4s")


def read_pcap(raw: bytes):
    """A classic little-endian pcap: (header fields, [(sec, usec, frame)])."""
    magic, major, minor, tz, sigfigs, snaplen, linktype = \
        struct.unpack("<IHHiIII", raw[:24])
    assert magic == 0xA1B2C3D4, "not a little-endian classic pcap"
    packets = []
    off = 24
    while off < len(raw):
        sec, usec, incl, orig = struct.unpack("<IIII", raw[off:off + 16])
        assert incl == orig <= snaplen
        packets.append((sec, usec, raw[off + 16:off + 16 + incl]))
        off += 16 + incl
    assert off == len(raw), "trailing bytes after last packet record"
    return (major, minor, tz, sigfigs, snaplen, linktype), packets


def ones_complement_sum(data: bytes) -> int:
    """RFC 1071 sum of 16-bit words, an odd byte padded with zero; a
    header with a valid checksum sums to 0xFFFF."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def _checksum(data: bytes) -> int:
    return ~ones_complement_sum(data) & 0xFFFF


def _mac(mac: str) -> bytes:
    return bytes.fromhex(mac.replace(":", ""))


def _mac_str(raw: bytes) -> str:
    return ":".join(f"{b:02x}" for b in raw)


# -- encoding -------------------------------------------------------------

def encode_ipv4_tcp(src_ip, dst_ip, src_port, dst_port, seq, ack, payload,
                    ip_id=0) -> bytes:
    """An IPv4/TCP packet: each header packed whole, then its checksum
    field filled in from a pass over the packed bytes.  A port or a total
    length past 16 bits raises ``struct.error``."""
    tcp = _TCP.pack(src_port, dst_port, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
                    5 << 4, 0x18, 8192, 0, 0) + payload
    addrs = socket.inet_aton(src_ip) + socket.inet_aton(dst_ip)
    pseudo = addrs + struct.pack(">BBH", 0, 6, len(tcp))
    tcp = tcp[:16] + struct.pack(">H", _checksum(pseudo + tcp)) + tcp[18:]
    ip = _IPV4.pack(0x45, 0, 20 + len(tcp), ip_id & 0xFFFF, 0x4000, 64, 6, 0,
                    addrs[:4], addrs[4:])
    ip = ip[:10] + struct.pack(">H", _checksum(ip)) + ip[12:]
    return ip + tcp


def encode_arp(op, sender_mac, sender_ip, target_mac, target_ip) -> bytes:
    """An Ethernet/IPv4 ARP message, 28 bytes."""
    return _ARP.pack(1, ETH_IPV4, 6, 4, op, _mac(sender_mac),
                     socket.inet_aton(sender_ip), _mac(target_mac),
                     socket.inet_aton(target_ip))


def encode_frame(src_mac, dst_mac, packet) -> bytes:
    """A frame's bytes, zero-padded to the 60-byte minimum."""
    if len(packet) == 5:
        body, ethertype = encode_arp(*packet), ETH_ARP
    else:
        body, ethertype = encode_ipv4_tcp(*packet), ETH_IPV4
    raw = _ETH.pack(_mac(dst_mac), _mac(src_mac), ethertype) + body
    return raw + bytes(MIN_FRAME - len(raw)) if len(raw) < MIN_FRAME else raw


# -- decoding -------------------------------------------------------------

def _check_padding(raw: bytes, end: int) -> None:
    assert len(raw) == max(MIN_FRAME, end)
    assert raw[end:] == bytes(len(raw) - end), "nonzero padding"


def decode_frame(raw: bytes):
    """A captured frame as ``(src_mac, dst_mac, packet)``, checking every
    fixed header field, both checksums and the zero padding."""
    dst, src, ethertype = _ETH.unpack_from(raw)
    if ethertype == ETH_ARP:
        htype, ptype, hlen, plen, op, smac, sip, tmac, tip = \
            _ARP.unpack_from(raw, 14)
        assert (htype, ptype, hlen, plen) == (1, ETH_IPV4, 6, 4)
        _check_padding(raw, 14 + _ARP.size)
        return _mac_str(src), _mac_str(dst), (
            op, _mac_str(smac), socket.inet_ntoa(sip), _mac_str(tmac),
            socket.inet_ntoa(tip))
    assert ethertype == ETH_IPV4, f"ethertype {ethertype:#06x}"
    vihl, tos, total, ip_id, frag, ttl, proto, _, sip, dip = \
        _IPV4.unpack_from(raw, 14)
    assert (vihl, tos, frag, ttl, proto) == (0x45, 0, 0x4000, 64, 6)
    assert ones_complement_sum(raw[14:34]) == 0xFFFF, "IPv4 checksum"
    sport, dport, seq, ack, offset, flags, window, _, urgent = \
        _TCP.unpack_from(raw, 34)
    assert (offset, flags, window, urgent) == (5 << 4, 0x18, 8192, 0)
    tcp = raw[34:14 + total]
    assert len(tcp) == total - 20 >= 20
    pseudo = sip + dip + struct.pack(">BBH", 0, 6, len(tcp))
    assert ones_complement_sum(pseudo + tcp) == 0xFFFF, "TCP checksum"
    _check_padding(raw, 14 + total)
    return _mac_str(src), _mac_str(dst), (
        socket.inet_ntoa(sip), socket.inet_ntoa(dip), sport, dport, seq, ack,
        tcp[20:], ip_id)


def decode_modbus_frame(raw: bytes):
    """The MBAP fields and function code of a captured Modbus/TCP frame,
    or None for any other frame; the frame is decoded whole either way."""
    _, _, packet = decode_frame(raw)
    if len(packet) == 5 or 502 not in packet[2:4] or not packet[6]:
        return None
    adu = packet[6]
    tx, proto, length, unit = struct.unpack(">HHHB", adu[:7])
    assert proto == 0 and length == len(adu) - 6
    return {"tx": tx, "unit": unit, "function": adu[7]}
