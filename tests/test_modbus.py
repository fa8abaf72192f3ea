import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin import modbus as mb


def poll(regmap, addresses):
    """Read registers and apply the fixed-point scaling."""
    return [mb.fp_decode(regmap.registers[a]) for a in addresses]


class TestFixedPoint:
    def test_soc_scaling(self):
        assert mb.fp_decode(5000) == 50.0

    def test_negative_power_twos_complement(self):
        # independent oracle via struct signed round-trip
        word = struct.unpack(">H", struct.pack(">h", -123))[0]
        assert mb.fp_decode(word) == -1.23
        assert mb.fp_encode(-1.23) == word

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mb.fp_encode(400.0)

    @given(word=st.integers(0, 0xFFFF))
    def test_round_trip_all_words(self, word):
        assert mb.fp_encode(mb.fp_decode(word)) == word


class TestCodec:
    def test_read_request_golden_bytes(self):
        adu = mb.read_holding_request(0x0001, 1, 10, 1)
        assert mb.encode(adu) == bytes.fromhex("000100000006010300 0A0001".replace(" ", ""))

    def test_round_trip_golden(self):
        adu = mb.read_holding_request(0x0001, 1, 10, 1)
        assert mb.decode(mb.encode(adu)) == adu

    def test_nonzero_protocol_id_rejected(self):
        raw = bytearray(mb.encode(mb.read_holding_request(1, 1, 10, 1)))
        raw[2:4] = b"\x00\x01"
        with pytest.raises(mb.FrameError):
            mb.decode(bytes(raw))

    def test_truncated_frame(self):
        with pytest.raises(mb.FrameError):
            mb.decode(b"\x00\x01\x00\x00")

    def test_length_mismatch(self):
        raw = mb.encode(mb.read_holding_request(1, 1, 10, 1)) + b"\x00"
        with pytest.raises(mb.FrameError):
            mb.decode(raw)

    @given(tx=st.integers(0, 0xFFFF), unit=st.integers(0, 255),
           fc=st.sampled_from([0x03, 0x06, 0x10, 0x2B]),
           data=st.binary(min_size=0, max_size=64))
    @settings(max_examples=500)
    def test_fuzz_round_trip(self, tx, unit, fc, data):
        adu = mb.ModbusAdu(tx, unit, fc, data)
        assert mb.decode(mb.encode(adu)) == adu

    @given(raw=st.binary(min_size=0, max_size=64))
    @settings(max_examples=500)
    def test_decode_never_crashes(self, raw):
        try:
            mb.decode(raw)
        except mb.FrameError:
            pass


def pv_map():
    return mb.RegisterMap(mb.DEVICE_PV, {10: 0, 11: 0, 20: mb.NO_LIMIT})


def write_multiple_request(tx, unit, addr, values):
    """An FC 16 request: nothing in the program sends one, but devices
    serve it."""
    data = struct.pack(">HHB", addr, len(values), 2 * len(values))
    data += b"".join(struct.pack(">H", v & 0xFFFF) for v in values)
    return mb.ModbusAdu(tx, unit, mb.FC_WRITE_MULTIPLE, data)


def reference_read_response(request, registers):
    """The FC 3 response's bytes, one register at a time."""
    addr, qty = struct.unpack(">HH", request.data)
    data = bytes([2 * qty])
    for a in range(addr, addr + qty):
        data += registers[a].to_bytes(2, "big")
    return (struct.pack(">HHHBB", request.transaction_id, 0, 2 + len(data),
                        request.unit_id, 0x03) + data)


class TestServe:
    def test_pv_limit_write(self):
        m = pv_map()
        req = mb.write_single_request(7, 1, 20, 350)
        resp = mb.serve(req, m)
        assert resp.function == 0x06 and resp.data == req.data
        assert mb.fp_decode(m.registers[20]) == 3.5

    def test_bss_setpoint_write(self):
        m = mb.RegisterMap(mb.DEVICE_BSS, {10: 0, 11: 0, 20: 0})
        mb.serve(mb.write_single_request(8, 1, 20, 1400), m)
        assert mb.fp_decode(m.registers[20]) == 14.0

    def test_unmapped_read_is_exception_2(self):
        resp = mb.serve(mb.read_holding_request(9, 1, 9999), pv_map())
        assert resp.is_exception and resp.data == bytes([mb.EXC_ILLEGAL_ADDRESS])

    def test_register_zero_is_read_only(self):
        m = pv_map()
        resp = mb.serve(mb.write_single_request(1, 1, 0, 99), m)
        assert resp.is_exception
        assert m.registers[0] == mb.DEVICE_PV

    def test_device_type_poll(self):
        resp = mb.serve(mb.read_holding_request(2, 1, 0), pv_map())
        assert mb.parse_read_response(resp) == [mb.DEVICE_PV]

    @pytest.mark.parametrize("data", [
        b"", b"\x00", b"\x01\x00", b"\x02\x00", b"\x03\x00\x01\x02",
        b"\x04\x00\x01"], ids=["no-data", "count-0", "count-1", "short",
                             "odd-count", "count-past-data"])
    def test_malformed_read_response_is_a_frame_error(self, data):
        with pytest.raises(mb.FrameError):
            mb.parse_read_response(mb.ModbusAdu(1, 1, mb.FC_READ_HOLDING, data))

    @given(raw=st.binary(min_size=8, max_size=16))
    def test_a_decoded_read_response_gives_words_or_a_frame_error(self, raw):
        raw = raw[:7] + bytes([mb.FC_READ_HOLDING]) + raw[8:]
        raw = raw[:2] + b"\x00\x00" + struct.pack(">H", len(raw) - 6) + raw[6:]
        try:
            words = mb.parse_read_response(mb.decode(raw))
        except mb.FrameError:
            return
        assert 1 <= len(words) == (len(raw) - 9) // 2

    def test_unknown_function_is_exception_1(self):
        req = mb.ModbusAdu(3, 1, 0x2B, b"\x00")
        resp = mb.serve(req, pv_map())
        assert resp.is_exception and resp.data == bytes([mb.EXC_ILLEGAL_FUNCTION])

    def test_write_multiple(self):
        m = mb.RegisterMap(mb.DEVICE_BSS, {10: 0, 11: 0})
        resp = mb.serve(write_multiple_request(4, 1, 10, [100, 200]), m)
        assert not resp.is_exception
        assert m.registers[10] == 100 and m.registers[11] == 200

    @given(tx=st.integers(0, 0xFFFF), unit=st.integers(0, 255),
           addr=st.integers(0, 30), qty=st.integers(1, 5),
           kind=st.sampled_from(["read", "write-single", "write-multiple",
                                 "unknown"]),
           unknown_fc=st.sampled_from([0x01, 0x04, 0x05, 0x0F, 0x17, 0x2B]))
    @settings(max_examples=400)
    def test_totality_and_id_matching(self, tx, unit, addr, qty, kind,
                                      unknown_fc):
        request = {
            "read": mb.read_holding_request(tx, unit, addr, qty),
            "write-single": mb.write_single_request(tx, unit, addr, 0x1234),
            "write-multiple": write_multiple_request(
                tx, unit, addr, list(range(qty))),
            "unknown": mb.ModbusAdu(tx, unit, unknown_fc, b"\x00\x00"),
        }[kind]
        resp = mb.serve(request, pv_map())
        # exceptions included: every response echoes the request's ids
        assert (resp.transaction_id, resp.unit_id) == (tx, unit)
        assert resp.function & 0x7F == request.function
        assert resp.is_exception or kind != "unknown"
        assert mb.decode(mb.encode(resp)) == resp

    def test_poll_applies_scaling(self):
        m = mb.RegisterMap(mb.DEVICE_METER, {10: mb.fp_encode(-1.23)})
        assert poll(m, [10]) == [-1.23]


# a full map: every address an FC 3 request can name holds a word
FULL = {a: (a * 40503 + 7) & 0xFFFF for a in range(0x10000)}


class TestServeRead:
    """FC 3 answers byte for byte as a register-at-a-time server would."""

    @pytest.mark.parametrize("qty", range(1, 126))
    def test_every_quantity_matches_the_reference(self, qty):
        regmap = mb.RegisterMap(mb.DEVICE_METER, dict(FULL))
        for addr in (0, 1000, 0x10000 - qty):
            request = mb.read_holding_request(0xBEEF, 0x11, addr, qty)
            response = mb.encode(mb.serve(request, regmap))
            assert response == reference_read_response(request, FULL)

    # from 1: the map always holds register 0, the device type
    @given(addr=st.integers(1, 0xFFFF - 124), qty=st.integers(1, 125),
           gap=st.integers(0, 124), tx=st.integers(0, 0xFFFF),
           unit=st.integers(0, 255))
    def test_one_missing_register_is_exception_2(self, addr, qty, gap, tx,
                                                 unit):
        registers = {a: 1 for a in range(addr, addr + qty)}
        del registers[addr + gap % qty]
        regmap = mb.RegisterMap(mb.DEVICE_METER, registers)
        request = mb.read_holding_request(tx, unit, addr, qty)
        assert mb.serve(request, regmap) == mb.ModbusAdu(
            tx, unit, 0x83, bytes([mb.EXC_ILLEGAL_ADDRESS]))

    @pytest.mark.parametrize("qty", [0, 126, 0xFFFF])
    def test_quantity_out_of_range_is_exception_3(self, qty):
        regmap = mb.RegisterMap(mb.DEVICE_METER, dict(FULL))
        request = mb.read_holding_request(5, 1, 0, qty)
        assert mb.serve(request, regmap) == mb.ModbusAdu(
            5, 1, 0x83, bytes([mb.EXC_ILLEGAL_VALUE]))
