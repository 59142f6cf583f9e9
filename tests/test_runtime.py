"""Lockstep message runtime: delivery timing, tracing, protocol errors."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_system
from oracles import bfs_tree_parents, filter_trace, neighbors, undirected_distances
from structctl.runtime import (
    DeadlockError,
    DisconnectedError,
    ProtocolError,
    Recv,
    Trace,
    TraceRecord,
    _encode_payload,
    _normalize_payload,
    bfs,
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
            ctx.send(other, {"from": ctx.id})
            got = yield Recv(other)
            return got["from"]

        res = run(line2, program)
        assert res.outputs == {0: 1, 1: 0}
        assert res.rounds == 2  # sent in round 1, delivered in round 2

    def test_message_sent_in_round_k_arrives_in_round_k_plus_1(self, line2):
        def program(ctx):
            other = ctx.neighbors[0]
            for k in range(3):
                ctx.send(other, k)
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
            ctx.send(other, "first")
            ctx.send(other, "second")
            a = yield Recv(other)
            b = yield Recv(other)
            return [a, b]

        res = run(line2, program)
        assert res.outputs[0] == ["first", "second"]

    def test_relay_takes_one_round_per_hop(self, line3):
        def program(ctx):
            if ctx.id == 0:
                ctx.send(1, "token")
                return None
            got = yield Recv(ctx.id - 1)
            if ctx.id == 1:
                ctx.send(2, got)
            return got

        res = run(line3, program)
        assert res.outputs[1] == res.outputs[2] == "token"
        assert res.rounds == 3


class TestTrace:
    def test_records_and_jsonl_format(self, line2):
        def program(ctx):
            ctx.send(ctx.neighbors[0], {"n": (1, 2)})
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
                ctx.send(j, ctx.id)
            for j in ctx.neighbors:
                yield Recv(j)
            return None

        res = run(line3, program)
        only_round1 = filter_trace(res.trace, round=1)
        assert all(rec.round == 1 for rec in only_round1)
        touching0 = filter_trace(res.trace, agent=0)
        assert all(0 in (rec.sender, rec.receiver) for rec in touching0)
        assert len(filter_trace(res.trace, round=99)) == 0

    def test_empty_trace_filter(self):
        assert len(filter_trace(Trace(), round=0)) == 0
        assert Trace().to_jsonl() == ""

    def test_record_line_is_stable(self):
        rec = TraceRecord(3, 0, 1, '{"a":1}')
        assert rec.to_json_line() == '{"round":3,"from":0,"to":1,"payload":{"a":1}}'


class TestProtocol:
    def test_send_to_non_neighbor(self, line3):
        def program(ctx):
            if ctx.id == 0:
                ctx.send(2, "skip a hop")
                yield Recv(1)

        with pytest.raises(ProtocolError, match="not a neighbor"):
            run(line3, program)

    def test_receive_from_non_neighbor(self, line3):
        def program(ctx):
            if ctx.id == 0:
                yield Recv(0)
            return None

        with pytest.raises(
            ProtocolError, match="agent 0: receive from 0, which is not a neighbor"
        ):
            run(line3, program)

    def test_non_json_payload(self, line2):
        def program(ctx):
            ctx.send(ctx.neighbors[0], object())
            yield Recv(ctx.neighbors[0])

        with pytest.raises(ProtocolError, match="not JSON-representable"):
            run(line2, program)

    def test_non_string_dict_keys(self, line2):
        def program(ctx):
            ctx.send(ctx.neighbors[0], {1: "x"})
            yield Recv(ctx.neighbors[0])

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
            ctx.send(ctx.neighbors[0], payload)
            yield Recv(ctx.neighbors[0])

        with pytest.raises(ProtocolError, match=re.escape(f"agent 0 -> 1: {message}")):
            run(line2, program)

    def test_circular_payload_raises(self, line2):
        def program(ctx):
            payload = []
            payload.append(payload)
            ctx.send(ctx.neighbors[0], payload)
            yield Recv(ctx.neighbors[0])

        with pytest.raises(RecursionError):
            run(line2, program)

    def test_failed_encode_leaves_no_stale_markers(self):
        # after an encode that raises partway, a list the payload holds twice
        # is not taken for a circular reference
        with pytest.raises(ProtocolError):
            _encode_payload({"a": [1, {2, 3}]}, 0, 1)
        shared = [1]
        assert _encode_payload([shared, {"k": shared}], 0, 1)[0] == '[[1],{"k":[1]}]'

    def test_yielding_garbage(self, line2):
        def program(ctx):
            yield "not an action"

        with pytest.raises(ProtocolError, match="expected Recv"):
            run(line2, program)

    def test_recv_keeps_frm_and_its_repr(self):
        action = Recv(3)
        assert action.frm == 3
        assert repr(action) == "Recv(frm=3)"
        assert not hasattr(action, "__dict__")

    def test_a_lookalike_with_frm_is_not_a_recv(self, line2):
        class Lookalike:
            frm = 1

        def program(ctx):
            yield Lookalike()

        with pytest.raises(ProtocolError, match="agent 0: yielded .*; expected Recv"):
            run(line2, program)

    def test_program_that_is_not_a_generator(self, line2):
        with pytest.raises(
            ProtocolError, match="agent 0: program returned 5, not a generator"
        ):
            run(line2, lambda ctx: 5)

        def eager(ctx):  # no yield: the body runs, send included, when called
            ctx.send(ctx.neighbors[0], "early")

        with pytest.raises(ProtocolError, match="agent 0: program returned None"):
            run(line2, eager)

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


class TestRecvOverSenders:
    def test_oldest_deliverable_message_of_each_sender_in_ascending_order(self, line3):
        def program(ctx):
            if ctx.id == 1:
                first = yield Recv((2, 0))
                second = yield Recv((0, 2))
                return [first, second]
            for payload in ("a", "b"):
                ctx.send(1, f"{payload}{ctx.id}")
            return None

        res = run(line3, program)
        assert res.outputs[1] == [[(0, "a0"), (2, "a2")], [(0, "b0"), (2, "b2")]]
        assert res.rounds == 2  # both batches are deliverable in round 2

    def test_blocks_while_no_message_is_deliverable(self, line3):
        """Agent 1 waits on both neighbors from round 1; agent 0 answers its
        ping in round 2, so the batch comes in round 3 and holds only 0's
        message."""

        def program(ctx):
            if ctx.id == 0:
                yield Recv(1)
                ctx.send(1, "pong")
            elif ctx.id == 1:
                ctx.send(0, "ping")
                got = yield Recv((0, 2))
                ctx.send(2, "done")
                return got
            else:
                yield Recv(1)
            return None

        res = run(line3, program)
        assert res.outputs[1] == [(0, "pong")]
        assert [(rec.round, rec.sender, rec.receiver) for rec in res.trace] == [
            (1, 1, 0), (2, 0, 1), (3, 1, 2),
        ]
        assert res.rounds == 4

    @pytest.mark.parametrize(
        "frm, bad", [((1, 2), 2), ((1, "a"), "a"), ((1, (1,)), r"\(1,\)")]
    )
    def test_a_non_neighbor_in_the_tuple_is_a_protocol_error(self, line3, frm, bad):
        """Any sender that is not a neighbor, a tuple that names another
        awaited tuple included, is named."""

        def program(ctx):
            if ctx.id == 0:
                yield Recv((1,))
                yield Recv(frm)
            elif ctx.id == 1:
                ctx.send(0, "x")
            return None

        with pytest.raises(
            ProtocolError, match=f"agent 0: receive from {bad}, which is not a neighbor"
        ):
            run(line3, program)

    @pytest.mark.parametrize(
        "frm, bad", [([1], r"\[1\]"), ((1, [0]), r"\[0\]")], ids=["list", "list-in-tuple"]
    )
    def test_an_unhashable_sender_is_a_protocol_error(self, line3, frm, bad):
        """A list names no sender, alone or in a tuple: it is refused by
        name, not with a bare TypeError from looking it up."""

        def program(ctx):
            if ctx.id == 0:
                yield Recv(frm)
            return None

        with pytest.raises(
            ProtocolError, match=f"agent 0: receive from {bad}, which is not a neighbor"
        ):
            run(line3, program)

    def test_an_empty_tuple_is_a_protocol_error(self, line3):
        def program(ctx):
            yield Recv(())

        with pytest.raises(
            ProtocolError, match=r"agent 0: receive from \(\), which is not a neighbor"
        ):
            run(line3, program)

    def test_deadlock_names_every_awaited_sender(self, line3):
        def program(ctx):
            if ctx.id == 1:
                yield Recv((0, 2))
            elif ctx.id == 2:
                yield Recv(1)
            return None

        with pytest.raises(
            DeadlockError,
            match="no message in flight can unblock: agent 1 awaits 0, "
            "agent 1 awaits 2, agent 2 awaits 1$",
        ):
            run(line3, program)


class TestTopologyGate:
    def test_disconnected_rejected_by_default(self):
        sysm = build_system(
            [(1, 0, set(), set()) for _ in range(4)],
            [(1, 0, {(0, 0)}), (3, 2, {(0, 0)})],
        )
        with pytest.raises(ValueError, match="weakly connected") as caught:
            run(sysm, lambda ctx: iter(()))
        assert caught.type is DisconnectedError


class TestDeterminism:
    def test_identical_traces_across_runs(self, line3):
        def program(ctx):
            acc = ctx.id
            for _ in range(line3.r):
                for j in ctx.neighbors:
                    ctx.send(j, acc)
                for j in ctx.neighbors:
                    acc += yield Recv(j)
            return acc

        first = run(line3, program)
        for _ in range(3):
            again = run(line3, program)
            assert again.trace.to_jsonl() == first.trace.to_jsonl()
            assert again.outputs == first.outputs
            assert again.rounds == first.rounds


class TestBfs:
    def test_every_agent_gets_its_tree_in_max_distance_plus_1_exchanges(
        self, line3
    ):
        path5 = build_system(
            [(1, 0, set(), set()) for _ in range(5)],
            [(i + 1, i, {(0, 0)}) for i in range(4)],
        )
        for sysm in (line3, path5):
            res = run(sysm, bfs)
            parents = bfs_tree_parents(sysm)
            assert [tree.parent for tree in res.outputs.values()] == parents
            dist = undirected_distances(sysm, 0)
            sent: dict = {}
            for rec in res.trace:
                sent[rec.sender, rec.receiver] = sent.get((rec.sender, rec.receiver), 0) + 1
            edges = {(i, j) for i in range(sysm.r) for j in neighbors(sysm, i)}
            assert set(sent) == edges
            for (i, j), count in sent.items():
                assert count == max(dist[i], dist[j]) + 1, (sysm.r, i, j)


class TestPayloadCopies:
    def test_mutation_after_send_does_not_leak(self, line3):
        def program(ctx):
            if ctx.id == 1:
                sent = {"xs": [1, 2]}
                ctx.send(0, sent)
                ctx.send(2, sent)
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
    normalized = _normalize_payload(value, "agent 0 -> 1")
    try:
        return json.dumps(
            normalized, separators=(",", ":"), sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        raise ProtocolError(f"agent 0 -> 1: {exc}") from None


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
                _encode_payload(value, 0, 1)
            assert str(got.value) == str(exc)
            return
        text, copy = _encode_payload(value, 0, 1)
        assert text == expected
        assert copy == json.loads(expected)
