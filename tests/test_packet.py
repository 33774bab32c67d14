"""Packet format, CRC, segmentation tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.firmware.packet import (
    ChannelKind,
    Packet,
    PacketType,
    compute_crc,
    fragment_offsets,
    segment_message,
)


def make_packet(payload=b"data", ptype=PacketType.DATA, route=(1,)):
    return Packet(ptype=ptype, src_nic=0, dst_nic=1, route=route,
                  payload=payload, total_length=len(payload))


def test_crc_set_automatically_for_data():
    pkt = make_packet(b"hello")
    assert pkt.crc == compute_crc(b"hello")
    assert pkt.crc_ok()


def test_crc_detects_payload_corruption():
    pkt = make_packet(b"hello")
    tampered = dataclasses.replace(pkt, payload=b"hellO")
    assert not tampered.crc_ok()


def test_corrupted_flag_fails_crc():
    pkt = make_packet(b"x")
    bad = dataclasses.replace(pkt, corrupted=True)
    assert not bad.crc_ok()


def test_ack_has_no_crc_requirement():
    ack = Packet(ptype=PacketType.ACK, src_nic=0, dst_nic=1, route=(1,))
    assert ack.crc_ok()


def test_rma_response_payload_is_crc_protected():
    pkt = make_packet(b"rma-bytes", ptype=PacketType.RMA_READ_RESP)
    assert pkt.crc == compute_crc(b"rma-bytes")
    assert not dataclasses.replace(pkt, payload=b"rma-bytez").crc_ok()


def test_hop_consumes_route():
    pkt = make_packet(route=(3, 5))
    port, rest = pkt.hop()
    assert port == 3
    assert rest.route == (5,)
    port2, rest2 = rest.hop()
    assert port2 == 5
    with pytest.raises(ValueError):
        rest2.hop()


def test_hop_leaves_the_sent_packet_whole():
    """Each hop yields a new packet; the one a sender (or its
    retransmit buffer) holds keeps its full route and identity."""
    pkt = make_packet(b"abcd", route=(3, 5))
    _, rest = pkt.hop()
    assert pkt.route == (3, 5) and pkt.wire_bytes(8) == 8 + 4 + 2
    assert rest.wire_bytes(8) == 8 + 4 + 1
    assert rest.packet_id == pkt.packet_id and rest.crc == pkt.crc
    assert rest == dataclasses.replace(pkt, route=(5,))


def test_copy_with_matches_dataclasses_replace():
    pkt = make_packet(b"xyz", route=(1, 2))
    twin = pkt.copy_with(seq=7)
    assert twin == dataclasses.replace(pkt, seq=7)
    assert twin is not pkt and pkt.seq == 0
    assert type(twin) is Packet


def test_wire_bytes_includes_header_and_route():
    pkt = make_packet(b"abcd", route=(1, 2))
    assert pkt.wire_bytes(8) == 8 + 4 + 2


def test_last_fragment_detection():
    pkt = Packet(ptype=PacketType.DATA, src_nic=0, dst_nic=1, route=(0,),
                 offset=4096, total_length=8192, payload=b"x" * 4096)
    assert pkt.is_last_fragment
    first = dataclasses.replace(pkt, offset=0)
    assert not first.is_last_fragment


def test_segment_message_zero_length():
    assert segment_message(b"", 4096) == [(0, b"")]


def test_segment_message_exact_multiple():
    frags = segment_message(b"a" * 8192, 4096)
    assert [(o, len(p)) for o, p in frags] == [(0, 4096), (4096, 4096)]


def test_segment_message_remainder():
    frags = segment_message(b"a" * 5000, 4096)
    assert [(o, len(p)) for o, p in frags] == [(0, 4096), (4096, 904)]


def test_segment_reassembles():
    payload = bytes(i % 251 for i in range(10000))
    frags = segment_message(payload, 1024)
    assert b"".join(p for _, p in frags) == payload


def test_fragment_offsets_match_segments():
    payload = b"z" * 9999
    assert fragment_offsets(len(payload), 4096) == \
        [o for o, _ in segment_message(payload, 4096)]
    assert fragment_offsets(0, 4096) == [0]


def test_invalid_mtu_rejected():
    with pytest.raises(ValueError):
        segment_message(b"x", 0)
    with pytest.raises(ValueError):
        fragment_offsets(10, -1)


def test_channel_kinds_are_three():
    assert {k.value for k in ChannelKind} == {"system", "normal", "open"}
