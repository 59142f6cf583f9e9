"""Data model: patterns, system assembly, graph views, JSON, generators."""

from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_system, pat
from oracles import assemble_naive, dense, neighbors
from structctl import model
from structctl.model import (
    MAX_VERTICES,
    InterconnectedSystem,
    Interconnection,
    ModelError,
    Rows,
    SparsityPattern,
    Subsystem,
    assemble_global,
    block_digraph,
    condensed_graph,
    dumps,
    graph_from_obj,
    indented_json,
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
from structctl.similar import SimilarSystemSpec, expand, random_similar_spec, similar_from_obj


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


@st.composite
def system_objects(draw):
    """A valid decoded system file: subsystems in any order, some input-free,
    blocks with repeated pairs in any order, sorted, or strictly increasing."""
    r = draw(st.integers(1, 6))
    ns = [draw(st.integers(1, 5)) for _ in range(r)]
    ps = [draw(st.integers(0, 2)) for _ in range(r)]

    def block(rows, cols, min_size=0):
        if not rows * cols:
            return []
        pairs = draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)).map(list),
            min_size=min_size, max_size=2 * rows * cols,
        ))
        order = draw(st.sampled_from(["as drawn", "sorted", "increasing"]))
        if order == "sorted":
            pairs.sort()
        elif order == "increasing":
            pairs = [list(pair) for pair in sorted(set(map(tuple, pairs)))]
        return pairs

    subs = [{"id": i, "n": ns[i], "p": ps[i], "A": block(ns[i], ns[i]),
             "B": block(ns[i], ps[i])} for i in range(r)]
    links = [(t, f) for t in range(r) for f in range(r) if t != f]
    chosen = draw(st.lists(st.sampled_from(links), unique=True)) if links else []
    conns = [{"to": t, "from": f, "E": block(ns[t], ns[f], 1)} for t, f in chosen]
    return {"subsystems": draw(st.permutations(subs)), "connections": conns}


class TestGraphFromObj:
    """``graph_from_obj`` gives the graph and counts of the system that
    ``system_from_obj`` builds, and leaves the decoded file as it was."""

    @given(system_objects())
    def test_same_graph_as_the_system(self, obj):
        text = json.dumps(obj)
        graph, r, n, p = graph_from_obj(obj)
        sysm = system_from_obj(obj)
        assert graph == block_digraph(sysm)
        assert (r, n, p) == (sysm.r, sysm.n_total, sysm.p_total)
        assert json.dumps(obj) == text

    def test_a_bool_beside_its_equal_int_passes_as_before(self, serial_pair):
        # The frozenset keeps (0, 1) and drops the equal (0, True), so
        # system_from_obj accepts the block; the graph path follows it.
        obj = json.loads(dumps(serial_pair))
        obj["subsystems"][1].update(A=[[1, 0], [1, False], [2, 0]])
        sysm = system_from_obj(obj)
        assert sysm == serial_pair
        assert graph_from_obj(obj) == (block_digraph(sysm), 2, 5, 2)


class TestVertexLimit:
    """A file may declare at most MAX_VERTICES states plus inputs, checked
    before anything is allocated per state."""

    @staticmethod
    def one_subsystem(n, p):
        return {"subsystems": [{"id": 0, "n": n, "p": p, "A": [], "B": []}],
                "connections": []}

    @pytest.mark.parametrize("parse", [system_from_obj, graph_from_obj])
    def test_one_state_past_the_limit_is_rejected_without_allocating(self, parse):
        tracemalloc.start()
        try:
            with pytest.raises(ModelError) as err:
                parse(self.one_subsystem(MAX_VERTICES + 1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "subsystems[0]: states plus inputs reach 10000001, above the limit of 10000000"
        )
        assert peak < 1 << 20

    def test_the_limit_counts_states_and_inputs_of_every_subsystem(self, serial_pair):
        assert system_from_obj(self.one_subsystem(MAX_VERTICES - 1, 1)).n_total == MAX_VERTICES - 1
        obj = json.loads(dumps(serial_pair))
        obj["subsystems"][1].update(n=MAX_VERTICES - 3, A=[])
        for parse in (system_from_obj, graph_from_obj):
            with pytest.raises(ModelError, match=r"subsystems\[1\]: .* reach 10000001"):
                parse(obj)

    def test_expanding_a_template_past_the_limit_is_rejected(self):
        r = MAX_VERTICES // 2 + 1
        spec = SimilarSystemSpec(r, 1, 1, pat(1, 1, set()), pat(1, 1, {(0, 0)}),
                                 pat(1, 1, {(0, 0)}), pat(r, r, {(0, 1)}))
        with pytest.raises(ModelError, match="5000001 copies of 2 states plus inputs"):
            expand(spec)

    @staticmethod
    def template(r, n, p):
        return {"similar": {"r": r, "n": n, "p": p, "Aprime": [], "Bprime": [],
                            "H": [[0, 0]], "E": [[0, 1]]}}

    def test_a_template_past_the_limit_is_rejected_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ModelError) as err:
                similar_from_obj(self.template(MAX_VERTICES // 3 + 1, 2, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "similar spec: 3333334 copies of 3 states plus inputs "
            "are above the limit of 10000000"
        )
        assert peak < 1 << 20

    def test_a_template_at_the_limit_loads_without_allocating_per_copy(self):
        tracemalloc.start()
        try:
            spec = similar_from_obj(self.template(MAX_VERTICES, 1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.r == MAX_VERTICES
        assert peak < 1 << 20


class _Block(list):
    pass


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
            (lambda o: o["subsystems"][0]["B"].append([0, True]), "B[1]: expected"),
            (lambda o: o["subsystems"][1]["A"].insert(1, [False, 0]), "A[1]: expected"),
            (lambda o: o["subsystems"][1]["A"].append([1]), "A[2]: expected"),
            (lambda o: o["connections"][0]["E"].append([0, 0, 0]), "E[1]: expected"),
            (lambda o: o["subsystems"][0].update(A={"0": 1}), "A: expected a list"),
            (lambda o: o["subsystems"][0].update(n=0, A=[], B=[]), "state count"),
            (lambda o: o["subsystems"][1].update(p=-1, B=[]), "shape (3, -1)"),
            (lambda o: o["subsystems"][0].update(n=-1), "is negative"),
            (lambda o: o["subsystems"][1].pop("p"), "missing key(s) ['p']"),
            (lambda o: o["connections"].append(dict(o["connections"][0])), "duplicate"),
            (lambda o: o["connections"][0].update({"from": 1}), "self-loop"),
            (lambda o: o["connections"][0].update({"from": -1}), "unknown subsystem"),
            (lambda o: (o["connections"].clear(), o["subsystems"][1].update(id=0)),
             "got [0, 0]"),
            (lambda o: (o["subsystems"].clear(), o["connections"].clear()),
             "at least one subsystem"),
            (lambda o: o["connections"][0].update(E=[]), "empty pattern"),
            (lambda o: o["subsystems"][1]["A"].extend([[3, 0], [0, 5], [7, 7]]),
             "not an integer position in a 3x3"),
            (lambda o: o["connections"][0]["E"].extend([[0, 2], [3, 0]]), "in a 3x2"),
            (lambda o: o["subsystems"].append(3), "subsystems[2]: expected an object"),
            (lambda o: o["connections"].insert(0, []), "connections[0]: expected an"),
            (lambda o: o["connections"][0].update(to="1"), "key 'to'"),
            (lambda o: o.update(subsystems={}), "'subsystems' must be a list"),
            # Faults in two blocks: both paths name the first in walk order,
            # which takes every subsystem (A, then B) before any connection.
            (lambda o: (o["subsystems"][1]["A"].append([9, 0]),
                        o["subsystems"][0]["B"].append([0, 7])), "subsystems[0]: "),
            (lambda o: (o["subsystems"][0]["B"].append([0, 7]),
                        o["subsystems"][0]["A"].append([9, 0])), "subsystems[0].A: "),
            (lambda o: (o["connections"][0]["E"].append([9, 0]),
                        o["subsystems"][1]["B"].append([1])), "subsystems[1].B[1]: "),
            (lambda o: (o["subsystems"][1]["A"].append(None),
                        o["subsystems"][1]["B"].append([1])), "subsystems[1].A[2]: "),
            # A list subclass is a list.
            (lambda o: o["subsystems"][1].update(A=_Block(o["subsystems"][1]["A"] + [[3, 0]])),
             "subsystems[1]: subsystems[1].A: nonzero (3, 0)"),
            (lambda o: (o["subsystems"][1].update(A=_Block(o["subsystems"][1]["A"])),
                        o["connections"][0]["E"].append([0, 9])), "connections[0].E: "),
            # An unsorted or repeated block passes, and the next fault is named.
            (lambda o: (o["subsystems"][1]["A"].reverse(),
                        o["subsystems"][1]["B"].append([0, 7])), "subsystems[1].B: "),
            (lambda o: (o["subsystems"][1]["A"].extend(o["subsystems"][1]["A"]),
                        o["connections"][0]["E"].append([0, 9])), "connections[0].E: "),
        ],
    )
    def test_malformed_files_name_the_problem(self, serial_pair, mutate, fragment):
        # The graph path names every fault with the same text.
        obj = json.loads(dumps(serial_pair))
        mutate(obj)
        with pytest.raises(ModelError) as err:
            system_from_obj(obj)
        assert fragment in str(err.value)
        with pytest.raises(ModelError) as graph_err:
            graph_from_obj(obj)
        assert str(graph_err.value) == str(err.value)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o["subsystems"][1]["A"].reverse(),
            lambda o: o["subsystems"][1]["A"].extend(o["subsystems"][1]["A"]),
            lambda o: o["subsystems"][1]["A"].insert(0, [2, 0]),
            lambda o: o["subsystems"][1].update(A=_Block(o["subsystems"][1]["A"])),
            lambda o: o["connections"][0].update(E=_Block(o["connections"][0]["E"] * 2)),
            lambda o: o["subsystems"][1].update(A=[tuple(rc) for rc in o["subsystems"][1]["A"]]),
        ],
        ids=["unsorted", "repeated", "repeated-first", "subclass", "subclass-repeated",
             "tuples"],
    )
    def test_unsorted_repeated_and_subclassed_blocks_load_as_before(self, serial_pair, mutate):
        obj = json.loads(dumps(serial_pair))
        mutate(obj)
        assert system_from_obj(obj) == serial_pair
        assert graph_from_obj(obj) == (block_digraph(serial_pair), 2, 5, 2)

    @pytest.mark.parametrize("parse", [system_from_obj, graph_from_obj])
    def test_the_system_checks_run_once(self, monkeypatch, serial_pair, parse):
        calls = []
        check = model._check_system

        def spy(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(model, "_check_system", spy)
        parse(json.loads(dumps(serial_pair)))
        assert len(calls) == 1

    def test_similar_file_redirected(self):
        for parse in (system_from_obj, graph_from_obj):
            with pytest.raises(ModelError) as err:
                parse({"similar": {}})
            assert "similar" in str(err.value)

    def test_not_json_at_all(self):
        with pytest.raises(ModelError):
            loads("{nope")

    def test_too_deeply_nested_text_is_a_model_error(self, tmp_path):
        # json's decoder recurses once per nesting level
        text = "[" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        for parse in (lambda: loads(text), lambda: load(path)):
            with pytest.raises(ModelError) as err:
                parse()
            assert str(err.value) == "invalid JSON: nested too deeply to decode"


_INTS = st.integers(-(2**70), 2**70)
_VERTEX = ('"%s"', "%d")
_VERTICES = st.tuples(st.sampled_from(["x", "u", "tag"]), st.integers(0, 10**6)).map(list)
# Each Rows shape with a strategy for one row in its list form.
_SHAPES = [
    ("%d", _INTS),
    (_VERTEX, _VERTICES),
    ((_VERTEX, _VERTEX), st.lists(_VERTICES, min_size=2, max_size=2)),
    (("%d", "%d"), st.lists(_INTS, min_size=2, max_size=2)),
]
_SHAPE_IDS = ["ints", "vertex", "vertex-pair", "int-pair"]


def _flat(row) -> list:
    return [v for item in row for v in _flat(item)] if type(row) is list else [row]


class TestRows:
    """``Rows`` writes what ``indented_json`` writes for the list of its rows
    at any indentation, and the same text each time it is written."""

    NEWLINES = ["\n", "\n  ", "\n        "]

    @pytest.mark.parametrize("shape, row", _SHAPES, ids=_SHAPE_IDS)
    @given(data=st.data())
    def test_written_as_the_list(self, shape, row, data):
        rows = data.draw(st.lists(row, max_size=6))
        # an iterator, as dumps passes: the rows keep their values
        written = Rows(shape, len(rows), iter(_flat(rows)))
        for newline in self.NEWLINES:
            assert written.write(newline) == indented_json(rows, newline)
            assert written.write(newline) == written.write(newline)
        assert written.write("\n") == json.dumps(rows, indent=2)
        obj = {"b": written, "a": [written, {"c": written}]}
        plain = {"b": rows, "a": [rows, {"c": rows}]}
        assert indented_json(obj) == json.dumps(plain, indent=2, sort_keys=True)

    @pytest.mark.parametrize("shape", [shape for shape, _ in _SHAPES], ids=_SHAPE_IDS)
    def test_no_rows(self, shape):
        for newline in self.NEWLINES:
            assert Rows(shape, 0, []).write(newline) == "[]" == indented_json([], newline)


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
