"""Byte-identity gates for the compiled trace-line encoders.

The compiled fast path (``repro.trace.encode``) must be byte-identical
to the generic reference twin -- which is itself pinned to
``json.dumps(record, separators=(",", ":"))``.  The property tests here
drive all three encoder tiers (type-specialized fused, polymorphic twin,
key-set-miss fallback) against an independently built ``json.dumps``
reference over arbitrary scalar payloads; the mutation test proves the
differential digest gate actually fires when a float formatter is
deliberately broken.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim.bus import EventBus
from repro.sim.trace import EventTraceSink
from repro.trace import encode
from repro.trace.encode import (
    ID_KEYS,
    SCALARS,
    EncoderTable,
    compile_shape,
    encode_line_generic,
    format_float,
)


def fresh_maps():
    return {key: {} for key in ID_KEYS}


def make_normalize(maps):
    """The sink's id-map hook, detached from a sink."""

    def normalize(key, value):
        mapping = maps.get(key)
        if mapping is None:
            return value
        return mapping.setdefault(value, len(mapping) + 1)

    return normalize


def reference_line(seq, t, node, kind, data, maps):
    """Independent reimplementation of the byte contract: plain
    ``json.dumps`` over the record dict, ids normalized, floats rounded,
    non-scalars dropped."""
    record = {"seq": seq, "t": t, "node": node, "kind": kind}
    for key in sorted(data):
        value = data[key]
        if isinstance(value, SCALARS):
            if isinstance(value, float):
                value = round(value, 9)
            if key in maps:
                value = maps[key].setdefault(value, len(maps[key]) + 1)
            record[key] = value
    return json.dumps(record, sort_keys=False, separators=(",", ":"))


# ------------------------------------------------------------ float contract


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            1e-10,
            5e-324,
            1.7976931348623157e308,
            -123456.789012345,
            float("nan"),
            float("inf"),
            float("-inf"),
        ],
    )
    def test_matches_json_dumps(self, value):
        assert format_float(value) == json.dumps(value)


# ----------------------------------------------------- property: byte parity

_scalar_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=16),
    st.builds(object),  # non-scalar: must be dropped by every encoder
)

_keys = st.one_of(
    st.sampled_from(ID_KEYS),
    st.text(min_size=1, max_size=10),
)

_payloads = st.dictionaries(_keys, _scalar_values, max_size=5)

_kinds = st.text(min_size=1, max_size=12)

_times = st.floats(allow_nan=True, allow_infinity=True)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=_kinds,
    payload=_payloads,
    seq=st.integers(min_value=0, max_value=10**9),
    t=_times,
    node=st.integers(min_value=0, max_value=64),
)
# Payload keys that name an envelope field overwrite it in place.
@example(kind="0", payload={"t": None}, seq=0, t=0.0, node=0)
@example(kind="0", payload={"seq": 1.5}, seq=0, t=0.0, node=0)
def test_every_encoder_tier_matches_json_dumps(kind, payload, seq, t, node):
    if not (t != t or t in (math.inf, -math.inf)):
        t = round(t, 9)  # the sink rounds before either encoder runs

    expected = reference_line(seq, t, node, kind, payload, fresh_maps())
    generic = encode_line_generic(
        seq, t, node, kind, payload, make_normalize(fresh_maps())
    )
    fused = compile_shape(kind, tuple(payload), payload)(
        seq, t, node, payload, fresh_maps()
    )
    poly = compile_shape(kind, tuple(payload))(
        seq, t, node, payload, fresh_maps()
    )
    table = EncoderTable()
    via_kind = table.kind_encoder(kind, payload)(
        seq, t, node, payload, fresh_maps()
    )
    assert generic == expected
    assert fused == expected
    assert poly == expected
    assert via_kind == expected


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(first=_payloads, second=_payloads, t=st.floats(0, 1e6))
def test_kind_encoder_fallback_keeps_bytes_on_shape_change(first, second, t):
    """A kind re-emitted with a different key-set routes through the
    fallback dispatch -- and still byte-matches the reference."""
    t = round(t, 9)
    table = EncoderTable()
    encoder = table.kind_encoder("mutating", first)
    maps = fresh_maps()
    ref_maps = fresh_maps()
    for seq, payload in enumerate((first, second, first, second)):
        got = encoder(seq, t, seq % 4, payload, maps)
        want = reference_line(seq, t, seq % 4, "mutating", payload, ref_maps)
        assert got == want


# --------------------------------------------------------- id normalization


class TestIdNormalization:
    def test_dense_first_appearance_matches_generic(self):
        events = [
            ("a", {"request_id": 900, "instance_id": 17}),
            ("a", {"request_id": 901, "instance_id": 17}),
            ("a", {"request_id": 900, "instance_id": 18}),
            ("b", {"request_id": 902.5, "instance_id": 17}),  # float id
            ("b", {"request_id": 902.5000000001, "instance_id": 17}),
        ]
        table, fast_maps = EncoderTable(), fresh_maps()
        gen_maps = fresh_maps()
        normalize = make_normalize(gen_maps)
        for seq, (kind, data) in enumerate(events):
            enc = table.by_kind.get(kind) or table.kind_encoder(kind, data)
            fast = enc(seq, 1.5, 0, data, fast_maps)
            slow = encode_line_generic(seq, 1.5, 0, kind, data, normalize)
            assert fast == slow
        assert fast_maps == gen_maps
        # floats are rounded before keying the map, so the two nearby
        # request ids above collapsed to one dense index
        assert list(fast_maps["request_id"]) == [900, 901, 902.5]

    def test_indexes_start_at_one(self):
        table = EncoderTable()
        maps = fresh_maps()
        enc = table.kind_encoder("k", {"request_id": 5})
        line = enc(0, 0.0, 0, {"request_id": 5}, maps)
        assert '"request_id":1' in line


# ----------------------------------------------- subclasses + escape cache


class TestOddScalars:
    def test_scalar_subclasses_match_generic(self):
        class MyInt(int):
            pass

        class MyFloat(float):
            pass

        class MyStr(str):
            pass

        data = {"a": MyInt(7), "b": MyFloat(0.1234567891234), "c": MyStr("x")}
        fast = compile_shape("sub", tuple(data), data)(
            3, 1.25, 2, data, fresh_maps()
        )
        slow = encode_line_generic(
            3, 1.25, 2, "sub", data, make_normalize(fresh_maps())
        )
        assert fast == slow

    def test_escape_cache_overflow_stays_correct(self):
        """>1024 distinct strings exceed the per-encoder cache cap; bytes
        must not change when the cache stops filling."""
        table = EncoderTable()
        enc = table.kind_encoder("s", {"function": "seed"})
        maps = fresh_maps()
        normalize = make_normalize(fresh_maps())
        for i in range(1100):
            value = f"fn-{i}-é"
            data = {"function": value}
            assert enc(i, 0.5, 0, data, maps) == encode_line_generic(
                i, 0.5, 0, "s", data, normalize
            )


# ------------------------------------------------------------ mutation gate


def _stream_digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def _run_both_legs():
    """Encode the same small corpus with both encoders; return digests."""
    events = [
        ("thaw", {"instance_id": 7 + i % 3, "thaw_seconds": 0.001234567891 * (i + 1)})
        for i in range(64)
    ]
    table, fast_maps = EncoderTable(), fresh_maps()
    normalize = make_normalize(fresh_maps())
    fast_lines, slow_lines = [], []
    for seq, (kind, data) in enumerate(events):
        t = round(0.123456789123 * (seq + 1), 9)
        enc = table.by_kind.get(kind) or table.kind_encoder(kind, data)
        fast_lines.append(enc(seq, t, 0, data, fast_maps))
        slow_lines.append(encode_line_generic(seq, t, 0, kind, data, normalize))
    return _stream_digest(fast_lines), _stream_digest(slow_lines)


class TestMutationGate:
    def test_healthy_encoders_share_a_digest(self):
        fast, slow = _run_both_legs()
        assert fast == slow

    def test_broken_float_formatter_is_caught(self, monkeypatch):
        """Deliberately mutate the compiled float formatting (3 digits
        instead of 9): the differential digest gate must fire."""
        real = encode.compile_shape

        def broken_compile(kind, keys, sample=None, fallback=None):
            inner = real(kind, keys, sample, fallback)

            def wrap(seq, t, node, data, id_maps):
                return inner(seq, round(t, 3), node, data, id_maps)

            return wrap

        monkeypatch.setattr(encode, "compile_shape", broken_compile)
        fast, slow = _run_both_legs()
        assert fast != slow


# ------------------------------------------------------- sink-level parity

_KINDS = ("freeze", "thaw", "request-arrival")


def _publish_corpus(bus):
    from repro.sim.events import Event

    for i in range(300):
        t = 0.0012345 * (i + 1)
        if i % 3 == 0:
            bus.publish(Event("freeze", t, i % 4, {"instance_id": 30 + i % 7}))
        elif i % 3 == 1:
            bus.publish(
                Event(
                    "thaw",
                    t,
                    i % 4,
                    {"instance_id": 30 + i % 7, "thaw_seconds": t / 2},
                )
            )
        else:
            bus.publish(
                Event(
                    "request-arrival",
                    t,
                    i % 4,
                    {"request_id": 9000 + i, "function": f"fn{i % 5}"},
                )
            )


class TestSinkParity:
    def test_fast_and_generic_sinks_emit_identical_bytes(self):
        bus = EventBus()
        fast = EventTraceSink(bus, kinds=_KINDS)
        slow = EventTraceSink(bus, kinds=_KINDS, encoder="generic")
        _publish_corpus(bus)
        fast.detach()
        slow.detach()
        assert fast.count == slow.count == 300
        assert fast.to_jsonl() == slow.to_jsonl()

    def test_digest_only_sink_matches_stored_stream(self):
        bus = EventBus()
        stored = EventTraceSink(bus, kinds=_KINDS)
        digest = EventTraceSink(bus, kinds=_KINDS, store=False, digest_only=True)
        _publish_corpus(bus)
        stored.detach()
        digest.detach()
        assert digest.lines == []
        expected = hashlib.sha256(
            stored.to_jsonl().encode("utf-8")
        ).hexdigest()
        assert digest.sha256 == expected

    def test_streamed_file_matches_stored_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        sink = EventTraceSink(bus, kinds=_KINDS, path=path)
        _publish_corpus(bus)
        sink.detach()
        assert path.read_text(encoding="utf-8") == sink.to_jsonl()
