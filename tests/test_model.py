"""Data model: patterns, system assembly, graph views, JSON, generators."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_system, pat
from oracles import assemble_naive, dense, neighbors
from structctl.model import (
    InterconnectedSystem,
    Interconnection,
    ModelError,
    SparsityPattern,
    Subsystem,
    assemble_global,
    block_digraph,
    condensed_graph,
    dumps,
    is_weakly_connected,
    loads,
    random_serial_system,
    random_system,
    save,
    load,
    state_digraph,
    system_bipartite,
    system_digraph,
    system_from_obj,
)
from structctl.similar import expand, random_similar_spec


class TestSparsityPattern:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ModelError):
            SparsityPattern(2, 2, frozenset({(2, 0)}))
        with pytest.raises(ModelError):
            SparsityPattern(2, 2, frozenset({(0, -1)}))
        # rows and columns are ints, not values that truncate to one
        for bad in [(0.5, 1), (1.9, 0), (True, 0)]:
            with pytest.raises(ModelError):
                SparsityPattern(2, 2, frozenset({bad}))

    def test_rejects_bad_shape(self):
        with pytest.raises(ModelError):
            SparsityPattern(-1, 2, frozenset())

    def test_is_zero(self):
        assert not pat(3, 4, {(0, 1), (2, 1), (2, 3)}).is_zero
        assert pat(3, 4, set()).is_zero

    def test_union_requires_same_shape(self):
        assert (pat(2, 2, {(0, 0)}) | pat(2, 2, {(1, 1)})).nonzeros == {(0, 0), (1, 1)}
        with pytest.raises(ModelError):
            pat(2, 2, set()) | pat(2, 3, set())


class TestSystemValidation:
    def test_subsystem_shape_mismatch(self):
        with pytest.raises(ModelError):
            Subsystem(0, 2, 1, pat(3, 3, set()), pat(2, 1, set()))
        with pytest.raises(ModelError):
            Subsystem(0, 2, 1, pat(2, 2, set()), pat(2, 2, set()))

    def test_connection_shape_checked(self):
        s0 = Subsystem(0, 2, 0, pat(2, 2, set()), pat(2, 0, set()))
        s1 = Subsystem(1, 3, 0, pat(3, 3, set()), pat(3, 0, set()))
        with pytest.raises(ModelError) as err:
            # E must be n_to x n_from = 2 x 3
            InterconnectedSystem((s0, s1), (Interconnection(0, 1, pat(2, 2, {(0, 0)})),))
        assert "expected 2x3" in str(err.value)

    def test_empty_connection_pattern_rejected(self):
        s0 = Subsystem(0, 1, 0, pat(1, 1, set()), pat(1, 0, set()))
        s1 = Subsystem(1, 1, 0, pat(1, 1, set()), pat(1, 0, set()))
        with pytest.raises(ModelError):
            InterconnectedSystem((s0, s1), (Interconnection(1, 0, pat(1, 1, set())),))

    def test_self_connection_rejected(self):
        s0 = Subsystem(0, 2, 0, pat(2, 2, set()), pat(2, 0, set()))
        with pytest.raises(ModelError):
            InterconnectedSystem((s0,), (Interconnection(0, 0, pat(2, 2, set())),))

    def test_duplicate_connection_rejected(self):
        with pytest.raises(ModelError):
            build_system(
                [(1, 0, set(), set()), (1, 0, set(), set())],
                [(1, 0, {(0, 0)}), (1, 0, {(0, 0)})],
            )

    def test_ids_must_be_contiguous(self):
        s0 = Subsystem(0, 1, 0, pat(1, 1, set()), pat(1, 0, set()))
        s2 = Subsystem(2, 1, 0, pat(1, 1, set()), pat(1, 0, set()))
        with pytest.raises(ModelError):
            InterconnectedSystem((s0, s2), ())

    def test_incoming_outgoing_views(self):
        sysm = build_system(
            [(1, 0, set(), set()), (1, 0, set(), set()), (1, 0, set(), set())],
            [(1, 0, {(0, 0)}), (2, 1, {(0, 0)})],
        )
        assert [c.from_ for c in sysm.incoming(1)] == [0]
        assert [c.to for c in sysm.outgoing(1)] == [2]
        assert neighbors(sysm, 1) == [0, 2]


class TestAssembly:
    def test_matches_naive_assembly_on_random_systems(self):
        for seed in range(60):
            rng = random.Random(seed)
            sysm = random_system(rng.randint(2, 5), (1, 4), (0, 2), 0.4, seed=seed)
            gA, gB = assemble_global(sysm)
            A, B = assemble_naive(sysm)
            assert dense(gA) == A
            assert dense(gB) == B

    def test_offsets(self, serial_pair):
        assert serial_pair.state_offset(0) == 0
        assert serial_pair.state_offset(1) == 2
        assert serial_pair.n_total == 5
        assert serial_pair.p_total == 2


class TestGraphViews:
    def test_digraph_edge_direction(self):
        # A[k, l] nonzero means state l drives state k
        assert state_digraph(pat(2, 2, {(1, 0)})) == [[1], []]

    def test_system_digraph_isolated_inputs_kept(self):
        # input column j is vertex n + j; column 1 feeds nothing
        g = system_digraph(pat(1, 1, set()), pat(1, 2, {(0, 0)}))
        assert g == [[], [0], []]

    def test_bipartite_views(self, nine_state):
        A, B = nine_state
        assert sum(len(heads) for heads in state_digraph(A)) == len(A.nonzeros)
        fb = system_bipartite(A, B)
        assert len(fb) == 10 and sum(len(heads) for heads in fb) == 12
        # the input vertex is a left only: nothing points at it
        assert fb[9] == [0] and all(9 not in heads for heads in fb)

    def test_condensed_graph_and_degrees(self, ring4):
        g = condensed_graph(ring4)
        assert g == [[1], [2], [3], [0]]
        assert {h for heads in g for h in heads} == set(range(4))  # no sources
        assert is_weakly_connected(g)

    def test_weak_connectivity_detects_split(self):
        sysm = build_system(
            [(1, 0, set(), set()), (1, 0, set(), set()), (1, 0, set(), set()),
             (1, 0, set(), set())],
            [(1, 0, {(0, 0)}), (3, 2, {(0, 0)})],
        )
        assert not is_weakly_connected(condensed_graph(sysm))


def assembled_digraph(sysm):
    return system_digraph(*assemble_global(sysm))


class TestBlockDigraph:
    """``block_digraph`` is the graph of the assembled (A, B), vertex for
    vertex and successor list for successor list."""

    # inputs per subsystem: none anywhere, some input-free, at least one each
    @given(
        st.integers(1, 8),
        st.sampled_from([(0, 0), (0, 2), (1, 2)]),
        st.integers(0, 2**31),
    )
    def test_random_systems(self, r, p_range, seed):
        sysm = random_system(r, (1, 6), p_range, 0.35, seed=seed)
        assert block_digraph(sysm) == assembled_digraph(sysm)

    @given(st.integers(1, 8), st.integers(0, 2**31))
    def test_random_serial_systems(self, r, seed):
        sysm = random_serial_system(r, (1, 5), (0, 2), 0.35, seed=seed)
        assert block_digraph(sysm) == assembled_digraph(sysm)

    @given(st.integers(0, 2**31))
    def test_expanded_similar_systems(self, seed):
        sysm = expand(random_similar_spec((1, 5), (1, 5), (0, 2), 0.35, seed=seed))
        assert block_digraph(sysm) == assembled_digraph(sysm)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_benchmark_networks(self, monkeypatch, tmp_path, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads

        for call in workloads.central_large(seed, str(tmp_path), scale=0.02):
            sysm = load(call.path)
            assert sysm.r > 1 and sysm.connections
            assert block_digraph(sysm) == assembled_digraph(sysm)

    def test_state_and_input_offsets(self, serial_pair):
        # states 0-1 and 2-4, input vertices 5 (subsystem 0) and 6 (subsystem 1)
        assert block_digraph(serial_pair) == [[1], [4], [3, 4], [], [], [0], [2]]


class TestJson:
    def test_roundtrip_random_systems(self):
        for seed in range(40):
            sysm = random_system(3, (1, 4), (0, 2), 0.4, seed=seed)
            assert loads(dumps(sysm)) == sysm

    def test_save_load(self, tmp_path, serial_pair):
        path = tmp_path / "sys.json"
        save(serial_pair, path)
        assert load(path) == serial_pair

    def test_dumps_is_canonical(self, serial_pair):
        assert dumps(serial_pair) == dumps(loads(dumps(serial_pair)))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda o: o.pop("connections"), "top level"),
            (lambda o: o.update(extra=1), "top level"),
            (lambda o: o["subsystems"][0].pop("n"), "subsystems[0]"),
            (lambda o: o["subsystems"][0].update(n="2"), "subsystems[0]"),
            (lambda o: o["subsystems"][0]["A"].append([9, 0]), "A"),
            (lambda o: o["subsystems"][0].update(id=5), "id"),
            (lambda o: o["connections"][0].update(to=9), "connections[0]"),
            (lambda o: o["connections"][0]["E"].append([9, 0]), "E"),
        ],
    )
    def test_malformed_files_name_the_problem(self, serial_pair, mutate, fragment):
        import json

        obj = json.loads(dumps(serial_pair))
        mutate(obj)
        with pytest.raises(ModelError) as err:
            system_from_obj(obj)
        assert fragment in str(err.value)

    def test_similar_file_redirected(self):
        with pytest.raises(ModelError) as err:
            system_from_obj({"similar": {}})
        assert "similar" in str(err.value)

    def test_not_json_at_all(self):
        with pytest.raises(ModelError):
            loads("{nope")


class TestGenerators:
    def test_same_seed_same_system(self):
        a = random_system(4, (1, 5), (0, 2), 0.3, seed=11)
        b = random_system(4, (1, 5), (0, 2), 0.3, seed=11)
        assert a == b
        assert a != random_system(4, (1, 5), (0, 2), 0.3, seed=12)

    def test_random_system_shape_and_connectivity(self):
        for seed in range(30):
            sysm = random_system(5, (1, 6), (0, 2), 0.35, seed=seed)
            assert sysm.r == 5
            assert all(1 <= s.n <= 6 and 0 <= s.p <= 2 for s in sysm.subsystems)
            assert is_weakly_connected(condensed_graph(sysm))
            assert all(c.E.nonzeros for c in sysm.connections)

    def test_random_serial_system_is_serial(self):
        from structctl.serial import is_serial

        for seed in range(30):
            sysm = random_serial_system(5, (1, 4), (0, 2), 0.35, seed=seed)
            check = is_serial(sysm)
            assert check.is_serial, check.offenders
            assert is_weakly_connected(condensed_graph(sysm))
