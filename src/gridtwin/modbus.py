"""Modbus TCP codec and holding-register maps.

Implements MBAP framing plus function codes 0x03 (read holding
registers), 0x06 (write single register) and 0x10 (write multiple
registers).  A message is one flat record, `ModbusAdu`; a response is
its request with the function and data replaced, so it keeps the
request's transaction and unit ids.  The register layout is shared by
the EMS, the devices and the attacker:

    register 0   device type (1=PV, 2=BSS, 3=LoadBank, 4=Meter), read-only
    10-block     measurements (signed fixed-point, 0.01 kW / 0.01 %)
    20-block     setpoints

PV register 20 holds the active-power limit; the sentinel 0x7FFF means
"no limit".  This layout is an artifact convention, not any vendor's.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

MODBUS_PORT = 502

FC_READ_HOLDING = 0x03
FC_WRITE_SINGLE = 0x06
FC_WRITE_MULTIPLE = 0x10

EXC_ILLEGAL_FUNCTION = 0x01
EXC_ILLEGAL_ADDRESS = 0x02
EXC_ILLEGAL_VALUE = 0x03

DEVICE_PV = 1
DEVICE_BSS = 2
DEVICE_LOAD = 3
DEVICE_METER = 4

REG_DEVICE_TYPE = 0
REG_MEAS = 10        # primary measurement (power, kW)
REG_MEAS_AUX = 11    # secondary measurement (PV availability / BSS SOC)
REG_SETPOINT = 20    # PV limit / BSS setpoint

NO_LIMIT = 0x7FFF    # PV limit sentinel
FP_MAX = 0x7FFF / 100.0  # largest value a 0.01-unit register word holds


class FrameError(ValueError):
    """Bytes on the wire do not form a valid Modbus TCP ADU."""


class ModbusAdu(NamedTuple):
    transaction_id: int
    unit_id: int
    function: int
    data: bytes

    @property
    def is_exception(self) -> bool:
        return bool(self.function & 0x80)


def fp_encode(value: float) -> int:
    """Signed fixed-point, 0.01 units per count, as an unsigned 16-bit word."""
    counts = round(value * 100.0)
    if not -0x8000 <= counts <= 0x7FFF:
        raise ValueError(f"value {value} out of 16-bit fixed-point range")
    return counts & 0xFFFF


def fp_decode(word: int) -> float:
    """Inverse of fp_encode (two's complement)."""
    if word >= 0x8000:
        word -= 0x10000
    return word / 100.0


# MBAP header (transaction id, protocol id, length, unit id), then the
# function code
_HEADER = struct.Struct(">HHHBB")


def encode(adu: ModbusAdu) -> bytes:
    tx, unit, function, data = adu
    return _HEADER.pack(tx & 0xFFFF, 0, 2 + len(data), unit & 0xFF,
                        function) + data


def decode(raw: bytes) -> ModbusAdu:
    if len(raw) < 8:
        raise FrameError(f"truncated ADU ({len(raw)} bytes)")
    tx, proto, length, unit, function = _HEADER.unpack_from(raw)
    if proto != 0:
        raise FrameError(f"protocol id {proto:#06x}, expected 0")
    if length != len(raw) - 6:
        raise FrameError(f"length field {length} != {len(raw) - 6} actual")
    data = raw[8:]
    if function & 0x80 and len(data) != 1:
        raise FrameError("exception response must carry exactly one code byte")
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(ModbusAdu, (tx, unit, function, data))


# -- request/response builders -------------------------------------------

def read_holding_request(tx: int, unit: int, addr: int, qty: int = 1) -> ModbusAdu:
    return tuple.__new__(ModbusAdu, (tx, unit, FC_READ_HOLDING,
                                     struct.pack(">HH", addr, qty)))


def write_single_request(tx: int, unit: int, addr: int, value: int) -> ModbusAdu:
    return ModbusAdu(tx, unit, FC_WRITE_SINGLE,
                     struct.pack(">HH", addr, value & 0xFFFF))


def parse_read_response(adu: ModbusAdu) -> list[int]:
    """The words of a 0x03 response: at least one, as its byte count says."""
    data = adu.data
    if adu.is_exception:
        raise FrameError(f"exception response, code {data[0]:#04x}")
    count = len(data) - 1
    if count < 2 or count % 2 or data[0] != count:
        raise FrameError("malformed read response byte count")
    return [v for (v,) in struct.iter_unpack(">H", data[1:])]


def parse_write_single(adu: ModbusAdu) -> tuple[int, int]:
    """(address, value) of a 0x06 request or echo response."""
    if len(adu.data) != 4:
        raise FrameError("write-single payload must be 4 bytes")
    return struct.unpack(">HH", adu.data)


# -- register maps and server --------------------------------------------

@dataclass
class RegisterMap:
    device_type: int
    registers: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.registers.setdefault(REG_DEVICE_TYPE, self.device_type)


def _exception(req: ModbusAdu, code: int) -> ModbusAdu:
    return ModbusAdu(req.transaction_id, req.unit_id, req.function | 0x80,
                     bytes([code]))


def serve(request: ModbusAdu, regmap: RegisterMap) -> ModbusAdu:
    """Handle one request against a register map; no authentication."""
    fc, data = request.function, request.data
    if fc == FC_READ_HOLDING:
        if len(data) != 4:
            return _exception(request, EXC_ILLEGAL_VALUE)
        addr, qty = struct.unpack(">HH", data)
        if not 1 <= qty <= 125:
            return _exception(request, EXC_ILLEGAL_VALUE)
        words = list(map(regmap.registers.get, range(addr, addr + qty)))
        if None in words:
            return _exception(request, EXC_ILLEGAL_ADDRESS)
        return tuple.__new__(ModbusAdu, (
            request.transaction_id, request.unit_id, fc,
            struct.pack(f">B{qty}H", 2 * qty, *words)))
    if fc == FC_WRITE_SINGLE:
        if len(data) != 4:
            return _exception(request, EXC_ILLEGAL_VALUE)
        addr, value = struct.unpack(">HH", data)
        if addr not in regmap.registers or addr == REG_DEVICE_TYPE:
            return _exception(request, EXC_ILLEGAL_ADDRESS)
        regmap.registers[addr] = value
        return request  # echo
    if fc == FC_WRITE_MULTIPLE:
        if len(data) < 5:
            return _exception(request, EXC_ILLEGAL_VALUE)
        addr, qty, bytecount = struct.unpack(">HHB", data[:5])
        if bytecount != 2 * qty or len(data) != 5 + bytecount or not 1 <= qty <= 123:
            return _exception(request, EXC_ILLEGAL_VALUE)
        addrs = range(addr, addr + qty)
        if any(a not in regmap.registers or a == REG_DEVICE_TYPE for a in addrs):
            return _exception(request, EXC_ILLEGAL_ADDRESS)
        values = [v for (v,) in struct.iter_unpack(">H", data[5:])]
        regmap.registers.update(zip(addrs, values))
        return ModbusAdu(request.transaction_id, request.unit_id, fc,
                         struct.pack(">HH", addr, qty))
    return _exception(request, EXC_ILLEGAL_FUNCTION)
