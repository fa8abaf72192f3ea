import ipaddress
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridtwin import netem
from gridtwin.capture import Capture
from gridtwin.netem import (ARP_REPLY, BROADCAST_MAC, ETH_ARP, ETH_IPV4,
                            ArpMessage, Endpoint, EthernetFrame, InputError,
                            LearningSwitch, NetemError, Network,
                            ResolutionError, build_ipv4_tcp, ip_bytes, ip_str,
                            mac_bytes, mac_str, parse_ipv4_tcp)


def two_hosts():
    net = Network()
    a = net.attach(Endpoint(id="a", mac="02:00:00:00:00:0a", ip="192.168.10.1"))
    b = net.attach(Endpoint(id="b", mac="02:00:00:00:00:0b", ip="192.168.10.2"))
    return net, a, b


def pump(net, steps, start=0):
    for i in range(steps):
        net.transport(start + i)


def ones_complement_sum(data: bytes) -> int:
    """Independent checksum oracle: a valid packet sums to 0xFFFF."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class TestWireFormats:
    def test_mac_round_trip(self):
        assert mac_str(mac_bytes("02:4d:73:00:00:10")) == "02:4d:73:00:00:10"

    def test_frame_padded_to_minimum(self):
        f = EthernetFrame("02:00:00:00:00:01", BROADCAST_MAC, ETH_ARP, b"x")
        assert len(f.to_bytes()) == 60

    def test_arp_round_trip(self):
        msg = ArpMessage(ARP_REPLY, "02:00:00:00:00:01", "192.168.10.1",
                         "02:00:00:00:00:02", "192.168.10.2")
        assert ArpMessage.from_bytes(msg.to_bytes()) == msg

    def test_truncated_arp_rejected(self):
        with pytest.raises(InputError):
            ArpMessage.from_bytes(b"\x00" * 10)

    def test_ipv4_header_checksum_valid(self):
        pkt = build_ipv4_tcp("192.168.10.1", "192.168.10.2", 50000, 502,
                             1000, 1000, b"payload")
        assert ones_complement_sum(pkt[:20]) == 0xFFFF

    def test_tcp_checksum_valid(self):
        pkt = build_ipv4_tcp("192.168.10.1", "192.168.10.2", 50000, 502,
                             1000, 1000, b"payload")
        tcp = pkt[20:]
        pseudo = ip_bytes("192.168.10.1") + ip_bytes("192.168.10.2") \
            + struct.pack(">BBH", 0, 6, len(tcp))
        assert ones_complement_sum(pseudo + tcp) == 0xFFFF

    def test_parse_inverts_build(self):
        pkt = build_ipv4_tcp("192.168.10.1", "192.168.10.2", 49152, 502,
                             1234, 5678, b"hello")
        f = parse_ipv4_tcp(pkt)
        assert (f["src_ip"], f["dst_ip"]) == ("192.168.10.1", "192.168.10.2")
        assert (f["src_port"], f["dst_port"]) == (49152, 502)
        assert (f["seq"], f["ack"]) == (1234, 5678)
        assert f["payload"] == b"hello"

    def test_parse_tolerates_ethernet_padding(self):
        pkt = build_ipv4_tcp("192.168.10.1", "192.168.10.2", 1, 2, 0, 0, b"x")
        assert parse_ipv4_tcp(pkt + bytes(10))["payload"] == b"x"

    def test_non_tcp_rejected(self):
        pkt = bytearray(build_ipv4_tcp("192.168.10.1", "192.168.10.2",
                                       1, 2, 0, 0, b"x"))
        pkt[9] = 17  # UDP
        with pytest.raises(InputError):
            parse_ipv4_tcp(bytes(pkt))

    @given(data=st.binary(max_size=80))
    @example(data=b"\xff\xff" * 3)  # a nonzero multiple of 0xFFFF
    @example(data=bytes(7))
    def test_checksum_matches_word_sum(self, data):
        assert netem._checksum(data) == ~ones_complement_sum(data) & 0xFFFF


class TestAddressHelpers:
    """The helpers are memoised; a refused input must stay refused."""

    @pytest.mark.parametrize("ip", ["192.168.10", "192.168.10.256",
                                    "192.168.010.1"])
    def test_ip_bytes_rejects_malformed(self, ip):
        for _ in range(2):
            with pytest.raises(ValueError):
                ip_bytes(ip)

    def test_ip_str_rejects_three_bytes(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                ip_str(b"\xc0\xa8\x0a")

    @given(raw=st.binary(min_size=4, max_size=4))
    def test_ip_str_matches_ipaddress(self, raw):
        assert ip_str(raw) == str(ipaddress.IPv4Address(raw))
        assert ip_bytes(ip_str(raw)) == raw

    def test_mac_bytes_rejects_non_hex(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                mac_bytes("zz:00:00:00:00:01")

    def test_check_subnet_refuses_on_every_call(self):
        net = Network()
        net.check_subnet("192.168.10.7")
        net.check_subnet("192.168.10.7")
        for _ in range(2):
            with pytest.raises(ResolutionError):
                net.check_subnet("10.0.0.1")


class TestLearningSwitch:
    def test_unknown_unicast_floods(self):
        sw = LearningSwitch()
        f = EthernetFrame("02:00:00:00:00:01", "02:00:00:00:00:02", ETH_IPV4, b"")
        egress, flooded = sw.forward(f, ingress=0, ports=[0, 1, 2])
        assert flooded and egress == [1, 2]

    def test_learned_unicast_single_port(self):
        sw = LearningSwitch()
        a = EthernetFrame("02:00:00:00:00:01", BROADCAST_MAC, ETH_ARP, b"")
        sw.forward(a, ingress=0, ports=[0, 1, 2])
        back = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                             ETH_IPV4, b"")
        egress, flooded = sw.forward(back, ingress=1, ports=[0, 1, 2])
        assert not flooded and egress == [0]

    def test_hairpin_discarded(self):
        sw = LearningSwitch()
        f = EthernetFrame("02:00:00:00:00:01", "02:00:00:00:00:01", ETH_IPV4, b"")
        sw.forward(f, ingress=0, ports=[0, 1])
        assert sw.forward(f, ingress=0, ports=[0, 1]) == ([], False)


class TestHostStack:
    def test_send_ip_delivers_after_arp(self):
        net, a, b = two_hosts()
        a.send_ip(b.ip, b"ping", dst_port=502, src_port=40000)
        # step 0: ARP request floods; step 1: reply returns; step 2: payload
        pump(net, 2)
        assert b.receive() == []
        pump(net, 1, start=2)
        [d] = b.receive()
        assert d.payload == b"ping" and d.src_ip == a.ip

    def test_cached_mac_skips_arp(self):
        net, a, b = two_hosts()
        a.send_ip(b.ip, b"one")
        pump(net, 3)
        b.receive()
        a.send_ip(b.ip, b"two")
        pump(net, 1, start=3)
        assert [d.payload for d in b.receive()] == [b"two"]

    def test_zero_length_payload_rejected(self):
        net, a, b = two_hosts()
        with pytest.raises(InputError):
            a.send_ip(b.ip, b"")

    def test_out_of_subnet_rejected(self):
        net, a, _ = two_hosts()
        with pytest.raises(ResolutionError):
            a.send_ip("10.0.0.1", b"x")

    def test_unanswered_arp_times_out(self):
        net, a, _ = two_hosts()
        a.send_ip("192.168.10.99", b"x")  # nobody home
        pump(net, 5)
        assert any(kind == "resolution-error" and detail == "192.168.10.99"
                   for _, kind, detail in a.events)

    def test_duplicate_address_rejected(self):
        net, a, _ = two_hosts()
        with pytest.raises(NetemError):
            net.attach(Endpoint(id="c", mac="02:00:00:00:00:0c", ip=a.ip))

    def test_frame_counter_conservation(self):
        net, a, b = two_hosts()
        seen = []
        net.frame_sink = lambda frame, step: seen.append(frame)
        a.send_ip(b.ip, b"ping")
        pump(net, 3)
        assert len(seen) == net.delivered + net.flooded == 3

    def test_malformed_ip_frame_flooded_to_several_hosts(self, monkeypatch):
        net, a, b = two_hosts()
        c = net.attach(Endpoint(id="c", mac="02:00:00:00:00:0c",
                                ip="192.168.10.3"))
        cap = Capture(step_s=1.0, epoch_s=0.0, deadband_kw=0.1)
        net.frame_sink = cap.record_frame
        parses = []

        def counted(raw):
            parses.append(raw)
            return parse_ipv4_tcp(raw)
        monkeypatch.setattr(netem, "parse_ipv4_tcp", counted)
        pkt = bytearray(build_ipv4_tcp(a.ip, b.ip, 1, 2, 0, 0, b"x"))
        pkt[9] = 17  # UDP
        frame = EthernetFrame(a.mac, b.mac, ETH_IPV4, bytes(pkt))
        a.outbox.append(frame)  # b's port is not learned yet: flooded
        pump(net, 1)
        assert net.dropped == {"malformed-ip": 2}  # one each for b and c
        assert (net.delivered, net.flooded) == (0, 1)
        assert cap.frames == [(0.0, frame.to_bytes())]
        assert len(cap.frames) == net.delivered + net.flooded
        assert cap.flows == {}
        assert b.receive() == [] and c.receive() == []
        assert len(parses) == 1  # shared by the capture and both hosts

    def test_tcp_seq_advances_per_flow(self):
        net, a, b = two_hosts()
        a.send_ip(b.ip, b"12345", src_port=40000)
        pump(net, 3)
        a.send_ip(b.ip, b"6789", src_port=40000)
        pump(net, 1, start=3)
        b.receive()
        seqs = [net.next_seq(a.ip, 40000, b.ip, 502, 0)[0]]
        assert seqs == [1000 + 5 + 4]


class TestArpSpoofing:
    def test_any_reply_overwrites_cache(self):
        net, a, b = two_hosts()
        mallory = net.attach(Endpoint(id="m", mac="02:00:00:00:00:ee",
                                      ip="192.168.10.66"))
        a.send_ip(b.ip, b"x")
        pump(net, 3)
        b.receive()
        assert a.endpoint.arp_cache[b.ip][0] == b.mac
        forged = ArpMessage(ARP_REPLY, mallory.mac, b.ip, a.mac, a.ip)
        mallory.send_arp(forged, a.mac)
        pump(net, 1, start=3)
        assert a.endpoint.arp_cache[b.ip][0] == mallory.mac

    def test_traffic_follows_poisoned_cache(self):
        net, a, b = two_hosts()
        mallory = net.attach(Endpoint(id="m", mac="02:00:00:00:00:ee",
                                      ip="192.168.10.66", accept_foreign=True))
        # prime the switch so mallory's port is known
        mallory.send_ip(a.ip, b"hi")
        pump(net, 3)
        a.receive()
        mallory.send_arp(ArpMessage(ARP_REPLY, mallory.mac, b.ip,
                                    a.mac, a.ip), a.mac)
        pump(net, 1, start=3)
        a.send_ip(b.ip, b"secret")
        pump(net, 1, start=4)
        [d] = mallory.receive()
        assert d.payload == b"secret" and d.dst_ip == b.ip
        assert b.receive() == []

    def test_promiscuous_tap_sees_broadcasts(self):
        net, a, b = two_hosts()
        spy = net.attach(Endpoint(id="spy", mac="02:00:00:00:00:ee",
                                  ip="192.168.10.66", promiscuous=True))
        a.send_ip(b.ip, b"x")
        pump(net, 1)
        taps = spy.read_tap()
        assert any(f.ethertype == ETH_ARP and f.dst_mac == BROADCAST_MAC
                   for f in taps)
