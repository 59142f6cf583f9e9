"""Deterministic lockstep message-passing harness for per-subsystem agents.

An agent program is a generator function taking an :class:`AgentContext`.
It sends with a call and receives by yielding the one action there is:

* ``ctx.send(to, payload)`` — enqueue a message; a send never blocks.
* ``payload = yield Recv(frm)`` — block until a message from ``frm`` is
  deliverable, then resume with its payload.
* ``got = yield Recv((j, k, ...))`` — block until a message from any of
  them is deliverable, then resume with ``[(sender, payload), ...]``: the
  oldest deliverable message of each sender, in ascending sender order.

Time advances in rounds (numbered from 1).  A message sent during round ``k``
is deliverable from round ``k + 1`` on; within a round agents run one after
the other in ascending id order, each until it blocks or returns.  Messages
between the same pair are delivered in send order.  All scheduling is
deterministic, so two runs of the same program on the same system produce
byte-identical traces.  Each agent keeps one inbox queue per neighbor, and a
blocked agent holds the queue it waits on, or the (sender, queue) pairs.

Agents may only exchange messages with neighbors in the interconnection
topology (either direction), which must be weakly connected.  An agent knows
its own subsystem and its incident couplings, not even how many agents there
are.  Agents agree through two primitives: :func:`bfs` floods hop distances
from agent 0 until each agent knows its parent and children in the BFS tree,
and :func:`tree_aggregate` folds one value per agent into a global one on
that tree.

Payloads must be JSON-representable.  Each payload is encoded once at send
time, and the encoded text is decoded right away into the copy that is queued
for its one receiver; the text goes into the trace as one
:class:`TraceRecord` row.  Later mutation by the sender therefore cannot
leak through, and every receiver gets a fresh copy.
A payload whose decoded copy does not equal it (tuples, non-string keys) or
that the encoder refuses is walked by a strict checker, which either accepts
it (tuples become lists) or raises :class:`ProtocolError` naming the fault.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generator, Iterator, NamedTuple

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


class DisconnectedError(ValueError):
    """The interconnection topology is not weakly connected."""


class Recv:
    """The one action an agent yields: wait for the next message from agent
    ``frm``, or from any agent of a tuple ``frm``.  A slots class, since
    every message costs one."""

    __slots__ = ("frm",)

    def __init__(self, frm: int):
        self.frm = frm

    def __repr__(self) -> str:
        return f"Recv(frm={self.frm!r})"


@dataclass(frozen=True)
class AgentContext:
    """The strictly local view an agent program gets to see.

    ``incoming`` maps each neighbor that feeds this subsystem to the coupling
    pattern on that connection; ``outgoing`` maps each neighbor this subsystem
    feeds to the corresponding pattern.  Nothing else about the rest of the
    system is exposed, not even the number of agents.  ``send(to, payload)``
    posts a message to a neighbor.
    """

    id: int
    subsystem: Subsystem
    incoming: dict[int, SparsityPattern]
    outgoing: dict[int, SparsityPattern]
    send: Callable[[int, object], None] = field(compare=False, repr=False)

    @cached_property
    def neighbors(self) -> tuple[int, ...]:
        """Every neighbor in either direction, ascending; computed once."""
        return tuple(sorted(set(self.incoming) | set(self.outgoing)))


AgentProgram = Callable[[AgentContext], Generator]


class TraceRecord(NamedTuple):
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


# One compact, sorted-keys, ASCII encoder and one scanner, built at import
# (json.dumps and json.loads build or dispatch to them on every call).  The
# encoder keeps no circular-reference markers: a marker dict shared across
# calls would keep stale ids after an encode that raises partway, and a
# payload that contains itself ends in RecursionError either way.
_encode = json.encoder.c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,  # raises TypeError on any non-JSON value
    json.encoder.encode_basestring_ascii,
    None, ":", ",",  # indent, key separator, item separator
    True, False, False,  # sort_keys, skipkeys, allow_nan
)
_scan = json.scanner.make_scanner(json.JSONDecoder())


def _encode_payload(value, sender: int, to: int) -> tuple[str, object]:
    """The compact JSON text of a payload that agent ``sender`` sends to agent
    ``to``, and a fresh copy decoded from it."""
    try:
        text = "".join(_encode(value, 0))
        copy = _scan(text, 0)[0]
        if copy == value:
            return text, copy
    except (TypeError, ValueError):
        pass
    # The encoder coerces non-string keys and rejects sets and NaN without
    # saying which part of the payload is at fault; the strict walk does.
    where = f"agent {sender} -> {to}"
    normalized = _normalize_payload(value, where)
    try:
        text = "".join(_encode(normalized, 0))
    except ValueError as exc:
        raise ProtocolError(f"{where}: {exc}") from None
    return text, _scan(text, 0)[0]


@dataclass(frozen=True)
class Tree:
    """An agent's place in the BFS tree that :func:`bfs` builds."""

    parent: int | None
    children: tuple[int, ...]


def bfs(ctx: AgentContext):
    """Build the BFS tree rooted at agent 0 by flooding hop distances.

    In each exchange the agent sends every open edge ``[]`` until it has a
    distance, then ``[distance, parent]`` (parent -1 at agent 0).  Its
    distance comes from the first exchange that brings any, and its parent
    is the lowest-id neighbor that sent one: only neighbors one hop closer
    to agent 0 can have sent by then.  A neighbor that names the agent as
    its parent is a child.  An edge closes once both ends have sent a
    distance, which both ends see in the same exchange, so the edge between
    agents at distances d_i and d_j carries max(d_i, d_j) + 1 messages each
    way."""
    dist, parent = (0, -1) if ctx.id == 0 else (None, None)
    children = []
    open_edges = list(ctx.neighbors)
    while open_edges:
        msg = [] if dist is None else [dist, parent]
        for j in open_edges:
            ctx.send(j, msg)
        still_open = []
        for j in open_edges:
            got = yield Recv(j)
            if got:
                if dist is None:  # neighbors are heard in ascending order
                    dist, parent = got[0] + 1, j
                if got[1] == ctx.id:
                    children.append(j)
            if not (msg and got):
                still_open.append(j)
        open_edges = still_open
    return Tree(None if parent == -1 else parent, tuple(children))


def tree_aggregate(
    ctx: AgentContext, tree: Tree, value, merge: Callable, keyed: bool = False
):
    """A global aggregate as one convergecast plus broadcast on ``tree``
    (Segall's PIF): receive each child's value in ascending order, fold them
    in with ``value = merge(value, heard)`` and send the result to the
    parent; then receive the root's value from the parent and send it on to
    each child.  Every agent returns the root's value, after 2(r - 1)
    messages in all.  Blocking receives on a tree cannot deadlock, so no
    agent needs a shared round count.

    With ``keyed`` every message is ``{"<sender id>": value}``, on the way
    down too, the census shape trace readers tell apart from the other
    phases; otherwise the bare value."""
    me = str(ctx.id)
    heard = []
    for j in tree.children:
        msg = yield Recv(j)
        heard.append(msg[str(j)] if keyed else msg)
    value = merge(value, heard)
    if tree.parent is not None:
        ctx.send(tree.parent, {me: value} if keyed else value)
        msg = yield Recv(tree.parent)
        value = msg[str(tree.parent)] if keyed else msg
    for j in tree.children:
        ctx.send(j, {me: value} if keyed else value)
    return value


class _AgentState:
    __slots__ = ("gen", "inbox", "awaiting", "output")

    def __init__(self, gen: Generator, inbox: dict):
        self.gen = gen
        # neighbor -> FIFO of (send round, payload) from it, and each tuple of
        # senders awaited so far -> its (sender, FIFO) pairs
        self.inbox = inbox
        # the inbox queue a Recv blocks on, or a list of (sender, queue) for a
        # tuple of senders; None before the first step and once returned
        self.awaiting: deque | list | None = None
        self.output: object = None


def _entry(inbox: dict, j):
    """``inbox.get(j)``, or None if ``j`` cannot be a key (a list, say)."""
    try:
        return inbox.get(j)
    except TypeError:
        return None


def _waits(agent: _AgentState) -> list:
    """The (sender, inbox queue) pairs a blocked agent waits on."""
    queue = agent.awaiting
    if type(queue) is list:
        return queue
    return [(j, q) for j, q in agent.inbox.items() if q is queue]


def run(sys: InterconnectedSystem, program: AgentProgram) -> RunResult:
    """Run one copy of ``program`` per subsystem to completion.

    Returns the per-agent return values, the full message trace, and the
    number of rounds the run took.  Raises :class:`DisconnectedError` (a
    :class:`ValueError`) if the topology is not weakly connected,
    :class:`DeadlockError` if the agents wait on each other forever and
    :class:`ProtocolError` on any rule violation.  Any other exception an
    agent raises propagates unchanged.
    """
    if not is_weakly_connected(condensed_graph(sys)):
        raise DisconnectedError("interconnection topology is not weakly connected")

    records = []
    round_no = 0  # a program that is not a generator may send as it is called

    def sender(i: int, outbox: dict) -> Callable[[int, object], None]:
        """Agent i's ``ctx.send``, given its neighbors' inbox queues of its
        messages: queue and trace a message sent this round."""

        def send(to: int, payload) -> None:
            queue = outbox.get(to)
            if queue is None:
                raise ProtocolError(f"agent {i}: send to {to}, which is not a neighbor")
            text, copy = _encode_payload(payload, i, to)
            queue.append((round_no, copy))
            records.append(tuple.__new__(TraceRecord, (round_no, i, to, text)))

        return send

    links = [
        ({c.from_: c.E for c in sys.incoming(i)}, {c.to: c.E for c in sys.outgoing(i)})
        for i in range(sys.r)
    ]
    # inboxes[i][j]: the messages from neighbor j that agent i has not yet
    # received, as (send round, payload) in send order
    inboxes = [{j: deque() for j in sorted({*inc, *out})} for inc, out in links]
    agents = []
    for i, (incoming, outgoing) in enumerate(links):
        outbox = {j: inboxes[j][i] for j in inboxes[i]}
        ctx = AgentContext(i, sys.subsystem(i), incoming, outgoing, sender(i, outbox))
        gen = program(ctx)
        if not isinstance(gen, Generator):
            raise ProtocolError(
                f"agent {i}: program returned {gen!r}, not a generator"
            )
        agents.append(_AgentState(gen, inboxes[i]))

    live = list(enumerate(agents))
    while live:
        round_no += 1
        finished = stepped = False
        for i, agent in live:
            # Advance agent i until it returns or blocks on an unavailable Recv.
            queue = agent.awaiting
            gen_send = agent.gen.send
            while True:
                resume = None
                if type(queue) is list:  # a tuple of senders
                    resume = [(j, q.popleft()[1]) for j, q in queue if q and q[0][0] < round_no]
                    if not resume:
                        break
                elif queue is not None:
                    if not (queue and queue[0][0] < round_no):
                        break  # nothing deliverable yet; stays blocked
                    resume = queue.popleft()[1]
                stepped = True
                try:
                    action = gen_send(resume)
                except StopIteration as stop:
                    agent.output = stop.value
                    finished = True
                    queue = None
                    break
                if not isinstance(action, Recv):
                    raise ProtocolError(f"agent {i}: yielded {action!r}; expected Recv")
                try:
                    queue = agent.inbox.get(action.frm)
                except TypeError:  # unhashable: no neighbor, named below
                    queue = None
                if queue is None:  # a new tuple of senders, or not a neighbor
                    frm = action.frm if type(action.frm) is tuple else (action.frm,)
                    bad = [j for j in frm if type(_entry(agent.inbox, j)) is not deque]
                    if bad or not frm:
                        raise ProtocolError(
                            f"agent {i}: receive from {bad[0] if bad else frm}, "
                            "which is not a neighbor"
                        )
                    queue = agent.inbox[frm] = [(j, agent.inbox[j]) for j in sorted(frm)]
            agent.awaiting = queue
        if finished:
            live = [(i, a) for i, a in live if a.awaiting is not None]
        # Every live agent is now blocked.  A round in which none could step
        # sent nothing, so every later round is the same.
        if live and not stepped:
            waits = ", ".join(f"agent {i} awaits {j}" for i, a in live for j, _ in _waits(a))
            raise DeadlockError(f"no message in flight can unblock: {waits}")

    outputs = {i: a.output for i, a in enumerate(agents)}
    return RunResult(outputs=outputs, trace=Trace(records), rounds=round_no)
