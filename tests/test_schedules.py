"""Schedule independence: outputs do not depend on message timing.

Every agent receives only from the neighbours it names, over FIFO channels,
so by Kahn's determinacy no delivery delay can change what it computes.
A ``Recv`` over a tuple of senders gives that up: which messages a batch
holds depends on timing, so a protocol that uses it must make its outputs
independent of the batches by design, as the relabel sweep does.
``oracles.run_delayed`` delays each message by 1 to 4 rounds and shuffles
the agents each round; the protocols must give the lockstep outputs under
every such schedule, and toys that read the schedule must not."""

from __future__ import annotations

import random

from oracles import neighbors, run_delayed
from structctl.distributed import controlled_program
from structctl.model import random_serial_system, random_system
from structctl.runtime import Recv, run
from structctl.serial import seq_strt_ctl

SCHEDULES = (1, 2, 3)
MAX_DELAY = 4


def corpus():
    for seed in range(24):
        rng = random.Random(seed * 97 + 5)
        yield random_system(
            rng.randint(2, 10), (1, 5), (0, 2), rng.uniform(0.15, 0.5),
            seed=8800 + seed, extra_conn_prob=rng.uniform(0, 0.4),
        )


def differing_schedules(sysm, make_program, counts: bool = False) -> list:
    """The schedules under which ``make_program()`` gives outputs other than
    lockstep's (and, with ``counts``, another number of messages)."""
    want = run(sysm, make_program())
    bad = []
    for seed in SCHEDULES:
        got = run_delayed(sysm, make_program(), random.Random(seed), MAX_DELAY)
        if got.outputs != want.outputs or (counts and len(got.trace) != len(want.trace)):
            bad.append(seed)
    return bad


def first_to_hear():
    """A toy that breaks the runtime's rule that agents share nothing: each
    agent notes in one shared list when it has heard every neighbour, and
    returns the first agent noted.  Lockstep runs agents in ascending id
    order, so that is always agent 0; a shuffled, delayed schedule picks
    others."""
    heard: list = []

    def program(ctx):
        for j in ctx.neighbors:
            ctx.send(j, ctx.id)
        for j in ctx.neighbors:
            yield Recv(j)
        heard.append(ctx.id)
        return heard[0]

    return program


def first_batch(ctx):
    """A toy whose output is its timing: every agent sends each neighbor a
    message and returns the senders of its first batch.  Lockstep delivers
    them all in round 2; delays split them up."""
    for j in ctx.neighbors:
        ctx.send(j, ctx.id)
    got = yield Recv(ctx.neighbors)
    return [j for j, _ in got]


class TestDelayedScheduler:
    def test_unit_delays_send_what_lockstep_sends(self):
        """With every delay 1 each agent sees what lockstep shows it, so
        only the order of the records within a round may differ."""
        program = controlled_program(collect_states=True)
        for sysm in list(corpus())[:4]:
            want = run(sysm, program)
            got = run_delayed(sysm, program, random.Random(7), 1)
            assert got.outputs == want.outputs and got.rounds == want.rounds
            assert sorted(got.trace) == sorted(want.trace)

    def test_delays_change_the_schedule(self):
        sysm = next(corpus())
        want = run(sysm, controlled_program())
        got = run_delayed(sysm, controlled_program(), random.Random(1), MAX_DELAY)
        assert got.rounds > want.rounds


class TestScheduleIndependence:
    def test_controlled_outputs_do_not_depend_on_the_schedule(self):
        swept = 0
        for k, sysm in enumerate(corpus()):
            full = lambda: controlled_program(collect_states=True)  # noqa: E731
            assert differing_schedules(sysm, full) == [], k
            swept += run(sysm, full()).outputs[0]["passes"] > 1
            # without the incoming boundary no sweep runs, and every other
            # phase sends a fixed set of messages
            dropped = lambda: controlled_program(  # noqa: E731
                drop_incoming_boundary=True, collect_states=True
            )
            assert differing_schedules(sysm, dropped, counts=True) == [], k
        assert swept >= 20  # most systems run relabel sweeps

    def test_serial_outputs_do_not_depend_on_the_schedule(self):
        for seed in range(20):
            sysm = random_serial_system(2 + seed % 6, (1, 4), (0, 2), 0.35, seed=seed)
            assert differing_schedules(sysm, lambda: seq_strt_ctl, counts=True) == [], seed

    def test_a_toy_that_reads_the_schedule_fails(self):
        """The check bites: the toy gives one answer under lockstep, every
        time, and other answers under delays."""
        sysm = random_system(6, (1, 2), (0, 1), 0.3, seed=3)
        assert run(sysm, first_to_hear()).outputs == dict.fromkeys(range(6), 0)
        assert differing_schedules(sysm, first_to_hear) != []

    def test_a_batch_over_senders_reads_the_schedule(self):
        """What one ``Recv`` over a tuple of senders brings depends on timing."""
        sysm = random_system(6, (1, 2), (0, 1), 0.3, seed=3)
        want = {i: neighbors(sysm, i) for i in range(sysm.r)}
        assert run(sysm, first_batch).outputs == want
        assert differing_schedules(sysm, lambda: first_batch) != []
