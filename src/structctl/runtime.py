"""Deterministic lockstep message-passing harness for per-subsystem agents.

An agent program is a callable taking an :class:`AgentContext` and returning a
generator.  The generator talks to the scheduler by yielding actions:

* ``yield Send(to, payload)`` — enqueue a message (never blocks).
* ``payload = yield Recv(frm)`` — block until a message from ``frm`` is
  deliverable, then resume with its payload.

Time advances in rounds (numbered from 1).  A message sent during round ``k``
is deliverable from round ``k + 1`` on; within a round agents run one after
the other in ascending id order, each until it blocks or returns.  Messages
between the same pair are delivered in send order.  All scheduling is
deterministic, so two runs of the same program on the same system produce
byte-identical traces.

Agents may only exchange messages with neighbors in the interconnection
topology (either direction).  :func:`flood` is the one r-round exchange with
every neighbor; size gossip, label census and AND-consensus all use it.

Payloads must be JSON-representable.  Each payload is encoded once at send
time, and the encoded text is decoded right away into the copy that is queued
for its one receiver; the text goes into the trace.  Later mutation by the
sender therefore cannot leak through, and every receiver gets a fresh copy.
A payload whose decoded copy does not equal it (tuples, non-string keys) or
that the encoder refuses is walked by a strict checker, which either accepts
it (tuples become lists) or raises :class:`ProtocolError` naming the fault.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generator, Iterator

from .model import (
    InterconnectedSystem,
    SparsityPattern,
    Subsystem,
    condensed_graph,
    is_weakly_connected,
)


class ProtocolError(RuntimeError):
    """An agent broke the messaging rules (bad action, target, or payload)."""


class DeadlockError(RuntimeError):
    """Every live agent is waiting for a message that can never arrive."""


@dataclass(frozen=True)
class Send:
    to: int
    payload: object


@dataclass(frozen=True)
class Recv:
    frm: int


@dataclass(frozen=True)
class AgentContext:
    """The strictly local view an agent program gets to see.

    ``incoming`` maps each neighbor that feeds this subsystem to the coupling
    pattern on that connection; ``outgoing`` maps each neighbor this subsystem
    feeds to the corresponding pattern.  Nothing else about the rest of the
    system is exposed.
    """

    id: int
    subsystem: Subsystem
    incoming: dict[int, SparsityPattern]
    outgoing: dict[int, SparsityPattern]
    r: int

    @cached_property
    def neighbors(self) -> tuple[int, ...]:
        """Every neighbor in either direction, ascending; computed once."""
        return tuple(sorted(set(self.incoming) | set(self.outgoing)))


AgentProgram = Callable[[AgentContext], Generator]


@dataclass(frozen=True)
class TraceRecord:
    round: int
    sender: int
    receiver: int
    payload: str  # compact JSON, frozen at send time

    def to_json_line(self) -> str:
        # Manual assembly keeps the key order and the embedded payload stable.
        return (
            f'{{"round":{self.round},"from":{self.sender},'
            f'"to":{self.receiver},"payload":{self.payload}}}'
        )


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(self, round: int | None = None, agent: int | None = None) -> "Trace":
        """Records from one round and/or touching one agent (as sender or receiver)."""
        kept = [
            rec
            for rec in self.records
            if (round is None or rec.round == round)
            and (agent is None or agent in (rec.sender, rec.receiver))
        ]
        return Trace(kept)

    def to_jsonl(self) -> str:
        return "".join(rec.to_json_line() + "\n" for rec in self.records)


@dataclass
class RunResult:
    outputs: dict[int, object]
    trace: Trace
    rounds: int


_JSON_SCALARS = (str, int, float, bool, type(None))


def _normalize_payload(value, where: str):
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalize_payload(v, where) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ProtocolError(f"{where}: dict keys must be strings, got {k!r}")
            out[k] = _normalize_payload(v, where)
        return out
    raise ProtocolError(f"{where}: payload value {value!r} is not JSON-representable")


_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False)


def _encode_payload(value, where: str) -> tuple[str, object]:
    """The compact JSON text of a payload and a fresh copy decoded from it."""
    try:
        text = _ENCODER.encode(value)
        copy = json.loads(text)
        if copy == value:
            return text, copy
    except (TypeError, ValueError):
        pass
    # The encoder coerces non-string keys and rejects sets and NaN without
    # saying which part of the payload is at fault; the strict walk does.
    normalized = _normalize_payload(value, where)
    try:
        text = _ENCODER.encode(normalized)
    except ValueError as exc:
        raise ProtocolError(f"{where}: {exc}") from None
    return text, json.loads(text)


def flood(ctx: AgentContext, value, merge: Callable):
    """``ctx.r`` rounds of exchange with every neighbor: each round sends
    the value held at the start of the round to every neighbor, receives one
    message from each in the same order, and sets ``value = merge(value,
    heard)`` with ``heard`` the list of those messages.  Returns the value."""
    for _ in range(ctx.r):
        for j in ctx.neighbors:
            yield Send(j, value)
        heard = []
        for j in ctx.neighbors:
            heard.append((yield Recv(j)))
        value = merge(value, heard)
    return value


def and_consensus(ctx: AgentContext, value: bool):
    """The AND of every agent's ``value``, flooded over ``ctx.r`` rounds."""
    return flood(ctx, bool(value), lambda v, heard: v and all(heard))


class _AgentState:
    __slots__ = ("gen", "awaiting", "done", "output")

    def __init__(self, gen: Generator):
        self.gen = gen
        self.awaiting: int | None = None
        self.done = False
        self.output: object = None


def run(
    sys: InterconnectedSystem,
    program: AgentProgram,
    *,
    require_weakly_connected: bool = True,
) -> RunResult:
    """Run one copy of ``program`` per subsystem to completion.

    Returns the per-agent return values, the full message trace, and the
    number of rounds the run took.  Raises :class:`DeadlockError` if the
    agents wait on each other forever and :class:`ProtocolError` on any
    rule violation.
    """
    if require_weakly_connected and not is_weakly_connected(condensed_graph(sys)):
        raise ValueError("interconnection topology is not weakly connected")

    contexts = {}
    for i in range(sys.r):
        contexts[i] = AgentContext(
            id=i,
            subsystem=sys.subsystem(i),
            incoming={c.from_: c.E for c in sys.incoming(i)},
            outgoing={c.to: c.E for c in sys.outgoing(i)},
            r=sys.r,
        )
    agents = {i: _AgentState(program(contexts[i])) for i in range(sys.r)}
    neighbors = {i: frozenset(ctx.neighbors) for i, ctx in contexts.items()}
    # Unconsumed messages per (sender, receiver): FIFO of (send_round, payload).
    queues: dict[tuple[int, int], deque] = {}
    trace = Trace()

    def drive(i: int, agent: _AgentState, current_round: int) -> None:
        """Advance agent i until it returns or blocks on an unavailable Recv."""
        while True:
            resume = None
            if agent.awaiting is not None:
                q = queues.get((agent.awaiting, i))
                if not (q and q[0][0] < current_round):
                    return  # nothing deliverable yet; stays blocked
                _, resume = q.popleft()
                agent.awaiting = None
            try:
                action = agent.gen.send(resume)
            except StopIteration as stop:
                agent.done = True
                agent.output = stop.value
                return
            if isinstance(action, Send):
                if action.to not in neighbors[i]:
                    raise ProtocolError(
                        f"agent {i}: send to {action.to}, which is not a neighbor"
                    )
                text, copy = _encode_payload(
                    action.payload, f"agent {i} -> {action.to}"
                )
                queues.setdefault((i, action.to), deque()).append(
                    (current_round, copy)
                )
                trace.records.append(TraceRecord(current_round, i, action.to, text))
            elif isinstance(action, Recv):
                agent.awaiting = action.frm
            else:
                raise ProtocolError(
                    f"agent {i}: yielded {action!r}; expected Send or Recv"
                )

    round_no = 0
    while True:
        round_no += 1
        for i in sorted(agents):
            if not agents[i].done:
                drive(i, agents[i], round_no)
        live = {i: a for i, a in agents.items() if not a.done}
        if not live:
            break
        # Every live agent is now blocked.  Anything still queued on an
        # awaited channel was sent this round and becomes deliverable next
        # round; if no such message exists, no future round changes anything.
        if not any(queues.get((a.awaiting, i)) for i, a in live.items()):
            waits = ", ".join(
                f"agent {i} awaits {a.awaiting}" for i, a in sorted(live.items())
            )
            raise DeadlockError(f"no message in flight can unblock: {waits}")

    outputs = {i: a.output for i, a in sorted(agents.items())}
    return RunResult(outputs=outputs, trace=trace, rounds=round_no)
