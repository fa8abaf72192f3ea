import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridtwin.capture import Capture
from gridtwin.cosim import Scheduler, SimClock, SimulatorHandle
from gridtwin.netem import (ARP_REPLY, ARP_REQUEST, BROADCAST_MAC, ETH_ARP,
                            ZERO_MAC, ArpMessage, EthernetFrame,
                            Host, InputError, IpDelivery, NetemError, Network,
                            ResolutionError, build_ipv4_tcp, ip_bytes,
                            mac_bytes, parse_ipv4_tcp)
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config
from tests.wire import (DAY_EPOCH, decode_frame, encode_arp,
                        encode_frame, encode_ipv4_tcp, ones_complement_sum,
                        read_pcap)


def two_hosts():
    net = Network(SimClock(epoch_s=0.0))
    a = net.attach("a", mac="02:00:00:00:00:0a", ip="192.168.10.1")
    b = net.attach("b", mac="02:00:00:00:00:0b", ip="192.168.10.2")
    return net, a, b


def pump(net, steps, start=0):
    """Transport steps start, start + 1, ...: each as the scheduler runs
    its hook, on the step's clock, which then moves to the next step."""
    for step in range(start, start + steps):
        net.clock.now = step
        net.transport(step)
        net.clock.now = step + 1


# inputs whose IPv4, and separately TCP, words sum to a nonzero multiple
# of 0xFFFF, so that checksum field is 0x0000
IP_SUM_ZERO = ("192.168.10.1", "192.168.10.2", 50000, 502, 1000, 1000,
               b"x", 107899)
TCP_SUM_ZERO = ("192.168.10.1", "192.168.10.2", 50000, 502, 4294980649,
                2**33, b"\x00\x06\x01", 7)


class TestWireFormats:
    def test_mac_round_trip(self):
        assert mac_bytes("02:4d:73:00:00:10") == bytes.fromhex("024d73000010")

    def test_frame_padded_to_minimum(self):
        msg = ArpMessage(ARP_REQUEST, "02:00:00:00:00:01", "192.168.10.1",
                         ZERO_MAC, "192.168.10.2")
        frame = EthernetFrame("02:00:00:00:00:01", BROADCAST_MAC, msg)
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        cap.record_frame(frame, 0)
        # the record's incl_len and orig_len, then its frame
        assert cap.pcap_records[8:16] == struct.pack("<II", 60, 60)
        raw = bytes(cap.pcap_records[16:])
        assert len(raw) == 60  # 14 + 28, padded with zeros
        assert raw[:14] == bytes.fromhex("ffffffffffff" "020000000001" "0806")
        assert raw[14:42] == msg.to_bytes() and raw[42:] == bytes(18)
        assert raw == encode_frame(*frame)

    def test_arp_round_trip(self):
        msg = ArpMessage(ARP_REPLY, "02:00:00:00:00:01", "192.168.10.1",
                         "02:00:00:00:00:02", "192.168.10.2")
        assert msg.to_bytes() == encode_arp(*msg)
        frame = ("02:00:00:00:00:01", "02:00:00:00:00:02", msg)
        assert decode_frame(encode_frame(*frame)) == frame

    def test_ipv4_header_checksum_valid(self):
        pkt = build_ipv4_tcp("192.168.10.1", "192.168.10.2", 50000, 502,
                             1000, 1000, b"payload")
        assert ones_complement_sum(pkt[:20]) == 0xFFFF

    def test_tcp_checksum_valid(self):
        pkt = build_ipv4_tcp("192.168.10.1", "192.168.10.2", 50000, 502,
                             1000, 1000, b"payload")
        tcp = pkt[20:]
        pseudo = pkt[12:20] + struct.pack(">BBH", 0, 6, len(tcp))
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

    @given(src_ip=st.ip_addresses(v=4).map(str),
           dst_ip=st.ip_addresses(v=4).map(str),
           src_port=st.integers(0, 0xFFFF), dst_port=st.integers(0, 0xFFFF),
           seq=st.integers(0, 2**33), ack=st.integers(0, 2**33),
           payload=st.binary(max_size=300), ip_id=st.integers(0, 2**17))
    @example(*IP_SUM_ZERO)
    @example(*TCP_SUM_ZERO)
    def test_build_matches_reference(self, src_ip, dst_ip, src_port,
                                     dst_port, seq, ack, payload, ip_id):
        args = (src_ip, dst_ip, src_port, dst_port, seq, ack, payload, ip_id)
        pkt = build_ipv4_tcp(*args)
        assert pkt == encode_ipv4_tcp(*args)
        tcp = pkt[20:]
        pseudo = pkt[12:20] + struct.pack(">BBH", 0, 6, len(tcp))
        assert ones_complement_sum(pkt[:20]) == 0xFFFF
        assert ones_complement_sum(pseudo + tcp) == 0xFFFF

    def test_checksum_field_can_be_zero(self):
        assert build_ipv4_tcp(*IP_SUM_ZERO)[10:12] == b"\x00\x00"
        assert build_ipv4_tcp(*TCP_SUM_ZERO)[36:38] == b"\x00\x00"


class TestAddressHelpers:
    """The helpers are memoised; a refused input must stay refused."""

    @pytest.mark.parametrize("ip", ["192.168.10", "192.168.10.256",
                                    "192.168.010.1"])
    def test_ip_bytes_rejects_malformed(self, ip):
        for _ in range(2):
            with pytest.raises(ValueError):
                ip_bytes(ip)

    def test_mac_bytes_rejects_non_hex(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                mac_bytes("zz:00:00:00:00:01")

    def test_check_subnet_refuses_on_every_call(self):
        net = Network(SimClock(epoch_s=0.0))
        net.check_subnet("192.168.10.7")
        net.check_subnet("192.168.10.7")
        for _ in range(2):
            with pytest.raises(ResolutionError):
                net.check_subnet("10.0.0.1")


class TestLearningSwitch:
    """The switch inside Network.transport: it learns each sender's MAC."""

    @staticmethod
    def hosts():
        """Four hosts attached out of id order: z, a, m, b."""
        net = Network(SimClock(epoch_s=0.0))
        return net, [net.attach(hid, mac=f"02:00:00:00:00:0{i}",
                                ip=f"192.168.10.{i + 1}")
                     for i, hid in enumerate("zamb")]

    @staticmethod
    def receivers(monkeypatch) -> list[str]:
        """The ids of the hosts handed a frame, in delivery order."""
        seen = []
        on_frame = Host._on_frame

        def recording(host, frame, step):
            seen.append(host.id)
            on_frame(host, frame, step)
        monkeypatch.setattr(Host, "_on_frame", recording)
        return seen

    def test_unknown_unicast_floods(self, monkeypatch):
        net, (z, a, m, b) = self.hosts()
        seen = self.receivers(monkeypatch)
        m.outbox.append(EthernetFrame(m.mac, a.mac, IpDelivery(
            m.ip, a.ip, 1, 2, 0, 0, b"x", 1)))  # a's MAC is not learned yet
        pump(net, 1)
        assert seen == ["z", "a", "b"]  # every other host, in attach order
        assert (net.delivered, net.flooded) == (0, 1)
        assert [d.payload for d in a.receive()] == [b"x"]
        assert net.dropped == {"foreign-ip": 2}  # z and b

    def test_learned_unicast_single_port(self, monkeypatch):
        net, (z, a, m, b) = self.hosts()
        a.send_ip(b.ip, b"x")
        pump(net, 1)  # the ARP request floods, and the switch learns a
        seen = self.receivers(monkeypatch)
        pump(net, 2, start=1)  # b's reply to a, then a's packet to b
        assert seen == ["a", "b"]
        assert (net.delivered, net.flooded) == (2, 1)
        assert [d.payload for d in b.receive()] == [b"x"]

    def test_hairpin_discarded(self, monkeypatch):
        net, (z, a, m, b) = self.hosts()
        seen = self.receivers(monkeypatch)
        sent = []
        net.frame_sink = lambda frame, step: sent.append(frame)
        a.outbox.append(EthernetFrame(a.mac, a.mac, IpDelivery(
            a.ip, a.ip, 1, 2, 0, 0, b"x", 1)))
        pump(net, 1)
        assert seen == [] and a.receive() == []  # reaches nobody
        assert (net.delivered, net.flooded) == (1, 0) and len(sent) == 1


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

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_packet_waits_three_steps_from_the_step_it_was_sent(self, k):
        net, a, _ = two_hosts()
        pump(net, k)
        a.send_ip("192.168.10.99", b"x")  # sent during step k
        pump(net, 3, start=k)
        assert a.events == [] and net.dropped == {}
        pump(net, 1, start=k + 3)
        assert a.events == [(k + 3, "resolution-error", "192.168.10.99")]
        assert net.dropped == {"arp-timeout": 1}

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_packet_queued_on_a_run_from_step_k_is_stamped_k(self, k):
        # a run resumed at step k: its first step is k, not 0
        clock = SimClock(epoch_s=0.0, now=k)
        net = Network(clock)
        a = net.attach("a", mac="02:00:00:00:00:0a", ip="192.168.10.1")
        b = net.attach("b", mac="02:00:00:00:00:0b", ip="192.168.10.2")
        sched = Scheduler(clock)
        sched.register(SimulatorHandle("sender", behavior=lambda step, _: (
            a.send_ip(b.ip, b"x") if step == k else None)))
        sched.add_hook(net.transport)
        for _ in range(5):
            sched.step_all()
        assert [d.payload for d in b.receive()] == [b"x"]
        assert net.dropped == {} and a.events == []

    def test_unanswered_resolve_is_asked_again(self):
        net, a, _ = two_hosts()
        assert a.resolve("192.168.10.3") is None  # nobody home yet
        pump(net, 4)
        c = net.attach("c", mac="02:00:00:00:00:0c", ip="192.168.10.3")
        a.send_ip(c.ip, b"late")  # a fresh ARP request, which c answers
        pump(net, 3, start=4)
        assert [d.payload for d in c.receive()] == [b"late"]
        assert a.events == [] and net.dropped == {}

    def test_duplicate_address_rejected(self):
        net, a, _ = two_hosts()
        with pytest.raises(NetemError):
            net.attach("c", mac="02:00:00:00:00:0c", ip=a.ip)

    @pytest.mark.parametrize("mac", ["02:00:00:00:00:01:ff",
                                     "zz:00:00:00:00:01", "02:00:00:00:00:0",
                                     "02:00:00:00:00:0C", "02:00:00:00:00:0c\n"])
    def test_malformed_mac_rejected(self, mac):
        # a seventh group would run into the ethertype of every frame
        net, a, b = two_hosts()
        a.send_ip(b.ip, b"ping")
        pump(net, 3)  # so the switch has learned both MACs
        tables = (dict(net.hosts), list(net._order), dict(net.mac_table))
        with pytest.raises(NetemError, match="invalid MAC"):
            net.attach("c", mac=mac, ip="192.168.10.3")
        assert (net.hosts, net._order, net.mac_table) == tables

    def test_frame_counter_conservation(self):
        net, a, b = two_hosts()
        seen = []
        net.frame_sink = lambda frame, step: seen.append(frame)
        a.send_ip(b.ip, b"ping")
        pump(net, 3)
        assert len(seen) == net.delivered + net.flooded == 3

    def test_malformed_ip_frame_flooded_to_several_hosts(self, tmp_path):
        net, a, b = two_hosts()
        # promiscuous, so that c also takes the packet to b below
        c = net.attach("c", mac="02:00:00:00:00:0c", ip="192.168.10.3",
                       promiscuous=True)
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        net.frame_sink = cap.record_frame
        frame = EthernetFrame(a.mac, b.mac, IpDelivery(
            a.ip, b.ip, 1, 2, 0, 0, b"y", 7))
        a.outbox.append(frame)  # b's MAC is not learned yet: flooded
        pump(net, 1)
        assert (net.delivered, net.flooded) == (0, 1) and net.dropped == {}
        _, packets = read_pcap(cap.export(tmp_path, ("pcap",))["pcap"]
                               .read_bytes())
        assert packets == [(DAY_EPOCH, 0, encode_frame(*frame))]
        assert len(packets) == net.delivered + net.flooded
        [to_b], [to_c] = b.receive(), c.receive()
        assert to_b is to_c is frame.packet  # one record for the capture too

    def test_tcp_seq_advances_per_flow(self):
        net, a, b = two_hosts()
        a.send_ip(b.ip, b"12345", src_port=40000)
        pump(net, 3)
        a.send_ip(b.ip, b"6789", src_port=40000)
        pump(net, 1, start=3)
        first, second = b.receive()
        assert [first.seq, second.seq] == [1000, 1000 + 5]


PEER_MAC, PEER_IP, OTHER_IP = "02:00:00:00:00:0b", "192.168.10.2", \
    "192.168.10.3"
TO_ME = IpDelivery(PEER_IP, "192.168.10.1", 50000, 502, 1000, 1000, b"x", 9)
TO_OTHER = TO_ME._replace(dst_ip=OTHER_IP)
REQUEST_ME = ArpMessage(ARP_REQUEST, PEER_MAC, PEER_IP, ZERO_MAC,
                        "192.168.10.1")
REQUEST_OTHER = ArpMessage(ARP_REQUEST, PEER_MAC, PEER_IP, ZERO_MAC,
                           OTHER_IP)
REPLY = ArpMessage(ARP_REPLY, PEER_MAC, PEER_IP, "02:00:00:00:00:0a",
                   "192.168.10.1")


FOREIGN = {"foreign-ip": 1}
# (case, packet, promiscuous, delivered, tapped, learned, replied, dropped)
ON_FRAME = [
    ("arp-request-to-me", REQUEST_ME, False, False, False, True, True, {}),
    ("arp-request-to-me", REQUEST_ME, True, False, True, True, True, {}),
    ("arp-request-to-other", REQUEST_OTHER, False, False, False, False,
     False, {}),
    ("arp-request-to-other", REQUEST_OTHER, True, False, True, False, False,
     {}),
    ("arp-reply", REPLY, False, False, False, True, False, {}),
    ("arp-reply", REPLY, True, False, True, True, False, {}),
    ("ipv4-to-me", TO_ME, False, True, False, False, False, {}),
    ("ipv4-to-me", TO_ME, True, True, False, False, False, {}),
    ("ipv4-to-other", TO_OTHER, False, False, False, False, False, FOREIGN),
    ("ipv4-to-other", TO_OTHER, True, True, False, False, False, {}),
]


class TestOnFrame:
    """What a host does with each kind of frame it is handed."""

    @pytest.mark.parametrize(
        "packet, promiscuous, delivered, tapped, learned, replied, dropped",
        [case[1:] for case in ON_FRAME],
        ids=[f"{case[0]}-{'promiscuous' if case[2] else 'plain'}"
             for case in ON_FRAME])
    def test_decision(self, packet, promiscuous, delivered, tapped, learned,
                      replied, dropped):
        net = Network(SimClock(epoch_s=0.0))
        h = net.attach("h", mac="02:00:00:00:00:0a", ip="192.168.10.1",
                       promiscuous=promiscuous)
        h._on_frame(EthernetFrame(PEER_MAC, BROADCAST_MAC, packet), 7)
        assert h.inbox == ([packet] if delivered else [])
        assert h.tap == ([packet] if tapped else [])
        assert h.arp_cache == ({PEER_IP: (PEER_MAC, 7)} if learned else {})
        assert h.outbox == ([EthernetFrame(h.mac, PEER_MAC, ArpMessage(
            ARP_REPLY, h.mac, h.ip, PEER_MAC, PEER_IP))] if replied else [])
        assert net.dropped == dropped


class ReferenceSequencer:
    """The network-wide sequencer hosts called before they held its
    tables: one seq per flow from 1000, acked with the reverse flow's, and
    one ip id counter for the whole network."""

    def __init__(self):
        self.flows: dict[tuple, int] = {}
        self.ip_id = 0

    def next_ip_id(self) -> int:
        self.ip_id = (self.ip_id + 1) & 0xFFFF
        return self.ip_id

    def next_seq(self, src_ip, src_port, dst_ip, dst_port, nbytes):
        key = (src_ip, src_port, dst_ip, dst_port)
        peer = (dst_ip, dst_port, src_ip, src_port)
        seq = self.flows.setdefault(key, 1000)
        self.flows[key] = seq + nbytes
        return seq, self.flows.get(peer, 1000)


PORT_PAIRS = ((50000, 502), (49152, 502))
OUTSIDE_IP, NOBODY_IP = "10.0.0.1", "192.168.10.99"

SEQ_OPS = st.lists(st.one_of(
    # (sender, receiver, port pair, reply?, payload length); receiver 3
    # is an address nobody holds, 4 one outside the subnet
    st.tuples(st.just("send"), st.integers(0, 2), st.integers(0, 4),
              st.integers(0, 1), st.booleans(), st.integers(1, 9)),
    # the sender re-emits the last packet sent, as the attacker does
    st.tuples(st.just("forward"), st.integers(0, 2), st.integers(1, 9)),
    st.just(("pump",))), max_size=40)


class TestSequencing:
    @given(SEQ_OPS)
    @example([("send", 0, 4, 0, False, 1), ("send", 0, 1, 0, False, 1)])
    @example([("send", 0, 1, 0, False, 3), ("pump",), ("pump",),
              ("send", 1, 0, 0, True, 2), ("forward", 2, 4),
              ("send", 0, 1, 0, False, 1)])
    def test_matches_the_reference_sequencer(self, ops):
        """Each packet's (seq, ack, ip_id) is what the reference gives;
        an out-of-subnet send is refused and takes neither."""
        net = Network(SimClock(epoch_s=0.0))
        hosts = [net.attach(hid, mac=f"02:00:00:00:00:0{i}",
                            ip=f"192.168.10.{i + 1}")
                 for i, hid in enumerate("abc")]
        ips = [h.ip for h in hosts] + [NOBODY_IP, OUTSIDE_IP]
        ref, sent, step = ReferenceSequencer(), [], 0

        def send(host, dst_ip, dst_port, src_port, n):
            before = len(host._pending)
            host.send_ip(dst_ip, bytes(n), dst_port, src_port)
            if len(host._pending) > before:  # awaiting ARP
                pkt = host._pending[-1][0]
            else:
                pkt = host.outbox[-1].packet
            seq, ack = ref.next_seq(host.ip, src_port, dst_ip, dst_port, n)
            assert pkt == (host.ip, dst_ip, src_port, dst_port, seq, ack,
                           bytes(n), ref.next_ip_id())
            sent.append(pkt)

        for op in ops:
            if op[0] == "pump":
                pump(net, 1, start=step)
                step += 1
            elif op[0] == "forward":
                _, i, n = op
                if sent:
                    hosts[i].forward_ip(sent[-1], bytes(n), PEER_MAC)
                    pkt = hosts[i].outbox[-1].packet
                    assert pkt == sent[-1]._replace(payload=bytes(n),
                                                    ip_id=ref.next_ip_id())
                    sent.append(pkt)
            else:
                _, i, j, pair, reply, n = op
                dst_port, src_port = PORT_PAIRS[pair]
                if reply:
                    src_port, dst_port = dst_port, src_port
                if ips[j] != OUTSIDE_IP:
                    send(hosts[i], ips[j], dst_port, src_port, n)
                    continue
                outbox, pending = list(hosts[i].outbox), \
                    list(hosts[i]._pending)
                with pytest.raises(ResolutionError):
                    hosts[i].send_ip(OUTSIDE_IP, bytes(n), dst_port, src_port)
                assert (hosts[i].outbox, hosts[i]._pending) == (outbox,
                                                                pending)
                assert hosts[i]._seqs == ref.flows  # no seq taken
        # the next id after any refusal is the one the refusal left
        send(hosts[0], hosts[1].ip, 502, 50000, 1)

    def test_ip_ids_wrap_across_hosts(self):
        """Ids are numbered 1 to 65535, then 0, 1, ... over all hosts."""
        net, a, b = two_hosts()
        a.send_ip(b.ip, b"x")  # id 1; after three steps a and b know
        pump(net, 3)           # each other (the ARP frames take no id)
        for _ in range(65533):  # ids 2 .. 65534
            a.send_ip(b.ip, b"x")
        a.outbox.clear()
        ids = []
        for host, peer in ((a, b), (b, a), (a, b), (b, a)):
            host.send_ip(peer.ip, b"x")
            ids.append(host.outbox[-1].packet.ip_id)
        assert ids == [65535, 0, 1, 2]


class TestArpSpoofing:
    def test_any_reply_overwrites_cache(self):
        net, a, b = two_hosts()
        mallory = net.attach("m", mac="02:00:00:00:00:ee",
                             ip="192.168.10.66")
        a.send_ip(b.ip, b"x")
        pump(net, 3)
        b.receive()
        assert a.arp_cache[b.ip][0] == b.mac
        forged = ArpMessage(ARP_REPLY, mallory.mac, b.ip, a.mac, a.ip)
        mallory.send_arp(forged, a.mac)
        pump(net, 1, start=3)
        assert a.arp_cache[b.ip][0] == mallory.mac

    def test_traffic_follows_poisoned_cache(self):
        net, a, b = two_hosts()
        mallory = net.attach("m", mac="02:00:00:00:00:ee",
                             ip="192.168.10.66", promiscuous=True)
        # prime the switch so that it knows mallory's MAC
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
        spy = net.attach("spy", mac="02:00:00:00:00:ee",
                         ip="192.168.10.66", promiscuous=True)
        a.send_ip(b.ip, b"x")
        pump(net, 3)  # the ARP request floods; the reply and packet do not
        assert spy.read_tap() == [
            ArpMessage(ARP_REQUEST, a.mac, a.ip, ZERO_MAC, b.ip)]
        assert spy.read_tap() == []


class TestCacheExpiry:
    def test_tiny_run_re_resolves_expired_entries(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(
            tmp_path, network={"subnet": "192.168.10.0/24",
                               "arp_cache_expiry_s": 20.0})))
        net = sim.network
        assert net.cache_expiry_steps == 20
        learned = {}  # (host, ip) -> the steps each entry was learned at

        def check(step):
            for host in net.hosts.values():
                for ip, (_, since) in host.arp_cache.items():
                    assert step - since < net.cache_expiry_steps
                    learned.setdefault((host.id, ip), set()).add(since)
        sim.scheduler.add_hook(check)
        sim.run()
        for peer in ("meter", "pv", "bss"):  # the EMS polls all three
            assert len(learned["ems", net.hosts[peer].ip]) > 1
        _, packets = read_pcap(sim.export(tmp_path / "out")["pcap"]
                               .read_bytes())
        arp = sum(1 for _, _, raw in packets
                  if raw[12:14] == struct.pack(">H", ETH_ARP))
        assert arp > 6  # 6 without expiry: one request and reply per peer
        assert not [ev for ev in sim.ems.events if ev[-1].endswith("-timeout")]


class TestWireFidelity:
    def test_captured_bytes_decode_to_the_carried_record(self, tmp_path):
        """Frames carry records and the capture makes their bytes: in the
        tiny attack run, every captured frame decodes, on this side, to
        the addresses and the record its frame carried, and is what the
        reference encoder makes of them."""
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path,
                                                          attack=True)))
        net = sim.network
        sink, carried = net.frame_sink, []

        def wrapped(frame, step):
            carried.append(frame)
            sink(frame, step)
        net.frame_sink = wrapped
        sim.run()
        _, packets = read_pcap(sim.export(tmp_path / "out")["pcap"]
                               .read_bytes())
        raws = [raw for _, _, raw in packets]
        assert len(raws) == len(carried) == net.delivered + net.flooded
        kinds = {"ipv4": 0, "arp": 0}
        for frame, raw in zip(carried, raws):
            assert decode_frame(raw) == frame
            assert raw == encode_frame(*frame)
            kinds["ipv4" if isinstance(frame.packet, IpDelivery)
                  else "arp"] += 1
        assert kinds["ipv4"] > 100 and kinds["arp"] > 6
        forwarded = [f for f in carried if f.src_mac == net.hosts[
            "attacker"].mac and isinstance(f.packet, IpDelivery)]
        assert forwarded  # the MITM's re-emitted packets are checked too
