"""Lockstep message runtime: delivery timing, tracing, protocol errors."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_system
from structctl.runtime import (
    DeadlockError,
    ProtocolError,
    Recv,
    Send,
    Trace,
    TraceRecord,
    _encode_payload,
    _normalize_payload,
    flood,
    run,
)


@pytest.fixture
def line2():
    return build_system(
        [(1, 0, set(), set()), (1, 0, set(), set())],
        [(1, 0, {(0, 0)})],
    )


@pytest.fixture
def line3():
    return build_system(
        [(1, 0, set(), set()), (1, 0, set(), set()), (1, 0, set(), set())],
        [(1, 0, {(0, 0)}), (2, 1, {(0, 0)})],
    )


class TestDelivery:
    def test_pingpong_and_round_count(self, line2):
        def program(ctx):
            other = ctx.neighbors[0]
            yield Send(other, {"from": ctx.id})
            got = yield Recv(other)
            return got["from"]

        res = run(line2, program)
        assert res.outputs == {0: 1, 1: 0}
        assert res.rounds == 2  # sent in round 1, delivered in round 2

    def test_message_sent_in_round_k_arrives_in_round_k_plus_1(self, line2):
        def program(ctx):
            other = ctx.neighbors[0]
            for k in range(3):
                yield Send(other, k)
                got = yield Recv(other)
                assert got == k
            return True

        res = run(line2, program)
        assert all(res.outputs.values())
        for rec in res.trace:
            # payload k is sent in round k+1
            assert rec.round == json.loads(rec.payload) + 1

    def test_fifo_per_channel(self, line2):
        def program(ctx):
            other = ctx.neighbors[0]
            yield Send(other, "first")
            yield Send(other, "second")
            a = yield Recv(other)
            b = yield Recv(other)
            return [a, b]

        res = run(line2, program)
        assert res.outputs[0] == ["first", "second"]

    def test_relay_takes_one_round_per_hop(self, line3):
        def program(ctx):
            if ctx.id == 0:
                yield Send(1, "token")
                return None
            got = yield Recv(ctx.id - 1)
            if ctx.id == 1:
                yield Send(2, got)
            return got

        res = run(line3, program)
        assert res.outputs[1] == res.outputs[2] == "token"
        assert res.rounds == 3


class TestTrace:
    def test_records_and_jsonl_format(self, line2):
        def program(ctx):
            yield Send(ctx.neighbors[0], {"n": (1, 2)})
            got = yield Recv(ctx.neighbors[0])
            return got

        res = run(line2, program)
        assert res.outputs[0] == {"n": [1, 2]}  # tuples normalize to lists
        lines = res.trace.to_jsonl().strip().split("\n")
        assert len(lines) == len(res.trace) == 2
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "from", "to", "payload"}

    def test_filter_by_round_and_agent(self, line3):
        def program(ctx):
            for j in ctx.neighbors:
                yield Send(j, ctx.id)
            for j in ctx.neighbors:
                yield Recv(j)
            return None

        res = run(line3, program)
        only_round1 = res.trace.filter(round=1)
        assert all(rec.round == 1 for rec in only_round1)
        touching0 = res.trace.filter(agent=0)
        assert all(0 in (rec.sender, rec.receiver) for rec in touching0)
        assert len(res.trace.filter(round=99)) == 0

    def test_empty_trace_filter(self):
        assert len(Trace().filter(round=0)) == 0
        assert Trace().to_jsonl() == ""

    def test_record_line_is_stable(self):
        rec = TraceRecord(3, 0, 1, '{"a":1}')
        assert rec.to_json_line() == '{"round":3,"from":0,"to":1,"payload":{"a":1}}'


class TestProtocol:
    def test_send_to_non_neighbor(self, line3):
        def program(ctx):
            if ctx.id == 0:
                yield Send(2, "skip a hop")
            return None

        with pytest.raises(ProtocolError, match="not a neighbor"):
            run(line3, program)

    def test_non_json_payload(self, line2):
        def program(ctx):
            yield Send(ctx.neighbors[0], object())

        with pytest.raises(ProtocolError, match="not JSON-representable"):
            run(line2, program)

    def test_non_string_dict_keys(self, line2):
        def program(ctx):
            yield Send(ctx.neighbors[0], {1: "x"})

        with pytest.raises(ProtocolError, match="keys must be strings"):
            run(line2, program)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({True: 1}, "dict keys must be strings, got True"),
            ({1: "x"}, "dict keys must be strings, got 1"),
            ([{"a": [{2: "b"}]}], "dict keys must be strings, got 2"),
            ({"a": 1, 2: "b"}, "dict keys must be strings, got 2"),
            ([1.0, float("nan")], "Out of range float values are not JSON compliant"),
            ({"s": {3}}, "payload value {3} is not JSON-representable"),
        ],
        ids=["bool-key", "int-key", "nested-int-key", "mixed-keys", "nan", "set"],
    )
    def test_malformed_payload_names_the_fault(self, line2, payload, message):
        def program(ctx):
            yield Send(ctx.neighbors[0], payload)

        with pytest.raises(ProtocolError, match=re.escape(f"agent 0 -> 1: {message}")):
            run(line2, program)

    def test_yielding_garbage(self, line2):
        def program(ctx):
            yield "not an action"

        with pytest.raises(ProtocolError, match="expected Send or Recv"):
            run(line2, program)

    def test_deadlock_detected(self, line2):
        def program(ctx):
            if ctx.id == 0:
                yield Recv(1)  # 1 never sends
            return None

        with pytest.raises(DeadlockError, match="agent 0 awaits 1"):
            run(line2, program)

    def test_mutual_wait_deadlock(self, line2):
        def program(ctx):
            got = yield Recv(ctx.neighbors[0])
            return got

        with pytest.raises(DeadlockError):
            run(line2, program)


class TestTopologyGate:
    def test_disconnected_rejected_by_default(self):
        sysm = build_system(
            [(1, 0, set(), set()) for _ in range(4)],
            [(1, 0, {(0, 0)}), (3, 2, {(0, 0)})],
        )
        with pytest.raises(ValueError, match="weakly connected"):
            run(sysm, lambda ctx: iter(()))

    def test_disconnected_allowed_when_waived(self):
        sysm = build_system(
            [(1, 0, set(), set()) for _ in range(4)],
            [(1, 0, {(0, 0)}), (3, 2, {(0, 0)})],
        )

        def program(ctx):
            return ctx.id
            yield  # pragma: no cover

        res = run(sysm, program, require_weakly_connected=False)
        assert res.outputs == {0: 0, 1: 1, 2: 2, 3: 3}


class TestDeterminism:
    def test_identical_traces_across_runs(self, line3):
        def program(ctx):
            acc = ctx.id
            for _ in range(ctx.r):
                for j in ctx.neighbors:
                    yield Send(j, acc)
                for j in ctx.neighbors:
                    acc += yield Recv(j)
            return acc

        first = run(line3, program)
        for _ in range(3):
            again = run(line3, program)
            assert again.trace.to_jsonl() == first.trace.to_jsonl()
            assert again.outputs == first.outputs
            assert again.rounds == first.rounds


class TestFlood:
    def test_sends_the_value_held_at_the_start_of_each_round(self, line3):
        def program(ctx):
            return (yield from flood(ctx, [ctx.id], lambda v, heard: v + [len(v)]))

        res = run(line3, program)
        assert res.outputs == {i: [i, 1, 2, 3] for i in range(3)}
        sent = {}
        for rec in res.trace:
            sent.setdefault((rec.sender, rec.receiver), []).append(
                (rec.round, json.loads(rec.payload))
            )
        # one message per neighbor per round, each carrying that round's value
        assert set(sent) == {(0, 1), (1, 0), (1, 2), (2, 1)}
        for (i, _), msgs in sent.items():
            assert [v for _, v in msgs] == [[i], [i, 1], [i, 1, 2]]
            assert [rnd for rnd, _ in msgs] == [1, 2, 3]

    def test_merge_called_r_times_with_messages_in_neighbor_order(self, line3):
        calls = []

        def program(ctx):
            def merge(value, heard):
                calls.append((ctx.id, heard))
                return value + 1

            return (yield from flood(ctx, 10 * ctx.id, merge))

        res = run(line3, program)
        assert res.outputs == {0: 3, 1: 13, 2: 23}
        assert [sum(1 for i, _ in calls if i == a) for a in range(3)] == [3, 3, 3]
        assert [heard for i, heard in calls if i == 1] == [[0, 20], [1, 21], [2, 22]]

    def test_union_reaches_every_agent_on_a_path_of_r_agents(self):
        r = 5
        path = build_system(
            [(1, 0, set(), set()) for _ in range(r)],
            [(i + 1, i, {(0, 0)}) for i in range(r - 1)],
        )

        def union(value, heard):
            return sorted(set(value).union(*heard))

        def program(ctx):
            return (yield from flood(ctx, [ctx.id], union))

        res = run(path, program)
        assert res.outputs == {i: list(range(r)) for i in range(r)}
        assert res.rounds == r + 1


class TestPayloadCopies:
    def test_mutation_after_send_does_not_leak(self, line3):
        def program(ctx):
            if ctx.id == 1:
                sent = {"xs": [1, 2]}
                yield Send(0, sent)
                yield Send(2, sent)
                sent["xs"].append(3)
                sent["late"] = True
                return sent
            got = yield Recv(1)
            got["xs"].append(ctx.id)
            return got

        res = run(line3, program)
        assert res.outputs[1] == {"xs": [1, 2, 3], "late": True}
        assert res.outputs[0] == {"xs": [1, 2, 0]}
        assert res.outputs[2] == {"xs": [1, 2, 2]}
        assert [rec.payload for rec in res.trace] == ['{"xs":[1,2]}'] * 2


def _strict_encode(value):
    """The reference: walk the payload strictly, then encode the result."""
    normalized = _normalize_payload(value, "w")
    try:
        return json.dumps(
            normalized, separators=(",", ":"), sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        raise ProtocolError(f"w: {exc}") from None


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
_keys = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.booleans())
_payloads = st.recursive(
    _scalars | st.frozensets(st.integers(0, 3), max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=20,
)


class TestEncodeMatchesStrictWalk:
    @given(_payloads)
    def test_same_text_or_same_error(self, value):
        try:
            expected = _strict_encode(value)
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as got:
                _encode_payload(value, "w")
            assert str(got.value) == str(exc)
            return
        text, copy = _encode_payload(value, "w")
        assert text == expected
        assert copy == json.loads(expected)
