import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gqbp import (
    Diagonal,
    GeneralLevel,
    Permutation,
    Program,
    QueryCircuit,
    RestrictedLevel,
    circuit_to_rgqbp,
    generalize,
    grover_promise_or,
    parity_program,
    random_rgqbp,
    rgqbp_to_circuit,
    split_layers,
)
from gqbp.circuit import Unitary, circuit_acceptances, validate_circuit
from gqbp.cli import main
from gqbp.formats import (
    FormatError,
    parse,
    parse_circuit,
    parse_program,
    serialize_circuit,
    serialize_program,
)

from helpers import deutsch_circuit, reference_serialize_circuit, reference_serialize_program


def test_minimal_program_roundtrip_bytes():
    prog = Program(n=1, initial=np.array([1.0 + 0j]), levels=(), accept=frozenset({0}))
    text = serialize_program(prog)
    assert serialize_program(parse_program(text)) == text


def test_general_program_roundtrip():
    prog = generalize(random_rgqbp(3, 2, 4, seed=8))
    text = serialize_program(prog)
    back = parse_program(text)
    assert back.kind == "general"
    assert serialize_program(back) == text


def test_old_alternating_key_is_ignored():
    split = split_layers(parity_program(4))
    text = serialize_program(split)
    assert '"alternating"' not in text
    old = json.loads(text)
    old["alternating"] = True
    back = parse_program(json.dumps(old))
    assert serialize_program(back) == text
    assert back.query_levels.tolist() == [0, 2]


def test_accept_out_of_range_names_field():
    text = serialize_program(parity_program(2)).replace(
        '"accept": [\n    1\n  ]', '"accept": [\n    7\n  ]')
    with pytest.raises(FormatError, match="accept"):
        parse_program(text)


def test_label_out_of_range_names_field():
    prog = parity_program(2)
    text = serialize_program(prog).replace('"n": 2', '"n": 1')
    with pytest.raises(FormatError, match="label"):
        parse_program(text)


def test_missing_field_diagnostic():
    with pytest.raises(FormatError, match="missing required field"):
        parse_program('{"format": "gqbp-v1"}')


def test_invalid_json_reports_line():
    with pytest.raises(FormatError, match="line"):
        parse_program("{not json")


def test_wrong_format_tag():
    with pytest.raises(FormatError, match="format"):
        parse_program('{"format": "else"}')


def test_empty_circuit_roundtrip_bytes():
    from gqbp import QueryCircuit
    c = QueryCircuit(q=1, n=1, gates=(), accept=frozenset())
    text = serialize_circuit(c)
    assert serialize_circuit(parse_circuit(text)) == text


def test_unknown_gate_type():
    text = serialize_circuit(deutsch_circuit()).replace("phase_oracle", "mystery")
    with pytest.raises(FormatError, match="unknown gate type"):
        parse_circuit(text)


def _edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


_GROVER4 = serialize_circuit(grover_promise_or(4))  # gates[3] is the readout bit oracle
_PARITY2 = serialize_program(parity_program(2))
REACHABLE_ERRORS = {  # document, field, message
    "bit oracle target among its index wires": (
        _edited(_GROVER4, lambda d: d["gates"][3].update(target_wire=0)), "gates[3]",
        "target wire must not be an index wire"),
    "target wire out of range": (
        _edited(_GROVER4, lambda d: d["gates"][3].update(target_wire=3)),
        "gates[3].target_wire", "wire 3 out of range [0, 3)"),
    "level with too few labels": (
        _edited(_PARITY2, lambda d: d["levels"][0].update(labels=[0])), "levels[0].labels",
        "expected 2 labels, got 1"),
    "phase oracle on too few wires": (
        json.dumps({"format": "qqc-v1", "qubits": 1, "n": 4,
                    "gates": [{"type": "phase_oracle"}], "accept": []}), "document",
        "phase oracle needs 2 index wires but circuit has 1"),
    "unknown format tag": (json.dumps({"format": "gqbp-v9"}), "format",
                           "unknown format 'gqbp-v9'"),
}


@pytest.mark.parametrize("text,field,message", REACHABLE_ERRORS.values(), ids=REACHABLE_ERRORS)
def test_reachable_parse_error_names_field_and_exits_2(tmp_path, capsys, text, field, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert info.value.field == field and message in str(info.value)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_schema_junk_never_escapes_format_error():
    # no mutation may surface a raw TypeError/KeyError: either the document
    # still parses (e.g. "accept": []) or the parser raises FormatError
    import json

    program_doc = json.loads(serialize_program(parity_program(2)))
    circuit_doc = json.loads(serialize_circuit(grover_promise_or(4)))
    junk = [None, True, 3.5, -1, "x", [], {}, [[1]], [None], [[None, None]]]
    for doc, parse in ((program_doc, parse_program), (circuit_doc, parse_circuit)):
        for key in list(doc):
            for value in junk:
                mutated = json.loads(json.dumps(doc))
                mutated[key] = value
                try:
                    parse(json.dumps(mutated))
                except FormatError:
                    pass


# --- amplitude blocks: junk entries, exact bits, and the older layout -------

HUGE_INT = 10 ** 400  # a JSON integer no float can hold


def _at(doc, path):
    """The block at ``path`` (a key/index tuple) of a parsed document."""
    for key in path:
        doc = doc[key]
    return doc


def _replace(r, c, i, value):
    def edit(m):
        m[r][c][i] = value
    return edit


def _put(r, c, value):
    def edit(m):
        m[r][c] = value
    return edit


# (name, edit of a 2x2-or-larger matrix, field suffix after the matrix path)
MATRIX_JUNK = [
    ("true", _replace(1, 0, 1, True), "[1][0]"),
    ("false", _replace(1, 0, 0, False), "[1][0]"),
    ("null", _replace(1, 0, 0, None), "[1][0]"),
    ("string", _replace(1, 0, 1, "x"), "[1][0]"),
    ("numeric string", _replace(1, 0, 1, "0.5"), "[1][0]"),
    ("huge int", _replace(1, 0, 0, HUGE_INT), "[1][0]"),
    ("NaN", _replace(1, 0, 0, math.nan), "[1][0]"),
    ("Infinity", _replace(1, 0, 1, -math.inf), "[1][0]"),
    ("3-element pair", _put(1, 0, [0.0, 0.0, 0.0]), "[1][0]"),
    ("1-element pair", _put(1, 0, [0.0]), "[1][0]"),
    ("bare number", _put(1, 0, 0.5), "[1][0]"),
    ("object", _put(1, 0, {}), "[1][0]"),
    ("short row", lambda m: m[1].pop(), "[1]"),
    ("long row", lambda m: m[1].append([0.0, 0.0]), "[1]"),
    ("row not a list", lambda m: m.__setitem__(1, "row"), "[1]"),
    ("wrong row count", lambda m: m.append(m[0]), ""),
    # the right number of entries in the wrong shape
    ("ragged rows, right total", lambda m: m[1].append(m[0].pop()), "[0]"),
    ("3-number pair next to 1-number pair", lambda m: m[1][0].append(m[1][1].pop()), "[1][0]"),
    ("pair nested too deep", lambda m: m[1].__setitem__(0, [m[1][0]]), "[1][0]"),
    ("number nested too deep", _replace(1, 0, 0, [0.5]), "[1][0]"),
]

MATRIX_SITES = [
    ("restricted base", lambda: serialize_program(parity_program(2)), parse_program,
     ("levels", 0, "base"), "levels[0].base"),
    ("general a1", lambda: serialize_program(generalize(random_rgqbp(3, 2, 4, seed=8))),
     parse_program, ("levels", 1, "a1"), "levels[1].a1"),
    ("circuit unitary", lambda: serialize_circuit(grover_promise_or(4)), parse_circuit,
     ("gates", 0, "matrix"), "gates[0].matrix"),
]


@pytest.mark.parametrize("site", MATRIX_SITES, ids=[s[0] for s in MATRIX_SITES])
@pytest.mark.parametrize("junk", MATRIX_JUNK, ids=[j[0] for j in MATRIX_JUNK])
def test_matrix_junk_names_entry(site, junk):
    _, make, parse, path, field = site
    _, edit, suffix = junk
    doc = json.loads(make())
    edit(_at(doc, path))
    with pytest.raises(FormatError) as info:
        parse(json.dumps(doc))
    assert info.value.field == field + suffix


VECTOR_JUNK = [
    ("true", lambda v: v[1].__setitem__(0, True), "initial[1]"),
    ("null", lambda v: v[1].__setitem__(1, None), "initial[1]"),
    ("string", lambda v: v[1].__setitem__(0, "x"), "initial[1]"),
    ("huge int", lambda v: v[0].__setitem__(0, HUGE_INT), "initial[0]"),
    ("NaN", lambda v: v[1].__setitem__(1, math.nan), "initial[1]"),
    ("3-element pair", lambda v: v[1].append(0.0), "initial[1]"),
    ("short vector", lambda v: v.pop(), "initial"),
    ("empty vector", lambda v: v.clear(), "initial"),
    ("numeric string", lambda v: v[1].__setitem__(0, "0.5"), "initial[1]"),
    ("3-number pair next to 1-number pair", lambda v: v[0].append(v[1].pop()), "initial[0]"),
    ("pair nested too deep", lambda v: v.__setitem__(1, [v[1]]), "initial[1]"),
]


@pytest.mark.parametrize("junk", VECTOR_JUNK, ids=[j[0] for j in VECTOR_JUNK])
def test_vector_junk_names_entry(junk):
    _, edit, field = junk
    doc = json.loads(serialize_program(parity_program(2)))
    edit(doc["initial"])
    with pytest.raises(FormatError) as info:
        parse_program(json.dumps(doc))
    assert info.value.field == field


@pytest.mark.parametrize("value,field", [
    (math.nan, "levels[0].thetas[1]"),
    (True, "levels[0].thetas[1]"),
    ("0.5", "levels[0].thetas[1]"),
    (HUGE_INT, "levels[0].thetas[1]"),
    ([0.0], "levels[0].thetas[1]"),
    ([[0.0]], "levels[0].thetas[1]"),
])
def test_angle_junk_names_entry(value, field):
    doc = json.loads(serialize_program(parity_program(2)))
    doc["levels"][0]["thetas"][1] = value
    with pytest.raises(FormatError) as info:
        parse_program(json.dumps(doc))
    assert info.value.field == field


def test_angles_in_the_wrong_shape_name_the_vector():
    # two angles packed into one entry: the right number of angles in total
    doc = json.loads(serialize_program(parity_program(2)))
    thetas = doc["levels"][0]["thetas"]
    doc["levels"][0]["thetas"] = [thetas]
    with pytest.raises(FormatError) as info:
        parse_program(json.dumps(doc))
    assert info.value.field == "levels[0].thetas"
    assert "expected 2 angles in radians, got 1" in str(info.value)


@pytest.mark.parametrize("key,value,field", [
    ("accept", [True], "accept[0]"),
    ("accept", [0, 1.0], "accept[1]"),
    ("labels", [0, HUGE_INT], "levels[0].labels[1]"),
])
def test_index_junk_names_entry(key, value, field):
    doc = json.loads(serialize_program(parity_program(2)))
    (doc["levels"][0] if key == "labels" else doc)[key] = value
    with pytest.raises(FormatError) as info:
        parse_program(json.dumps(doc))
    assert info.value.field == field


def test_huge_integer_amplitude_exits_2(tmp_path, capsys):
    doc = json.loads(serialize_program(parity_program(2)))
    doc["initial"][0][0] = HUGE_INT
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "initial[0]" in capsys.readouterr().err


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


def _program_blocks(prog):
    blocks = [prog.initial]
    for lv in prog.levels:
        blocks += [lv.base, lv.thetas] if isinstance(lv, RestrictedLevel) else [lv.a0, lv.a1]
    return blocks


def test_negative_zero_and_subnormal_keep_their_bits():
    tiny = 5e-324
    base = np.array([[complex(-0.0, tiny), complex(1.0, -0.0)],
                     [complex(tiny, -tiny), complex(-0.0, -0.0)]])
    prog = Program(n=1, initial=np.array([complex(-0.0, 0.0), complex(tiny, -0.0)]),
                   levels=(RestrictedLevel(labels=np.array([0, 0]), base=base,
                                           thetas=np.array([-0.0, tiny])),),
                   accept=frozenset({0}))
    text = serialize_program(prog)
    assert "-0.0" in text and "5e-324" in text
    back = parse_program(text)
    for a, b in zip(_program_blocks(prog), _program_blocks(back)):
        assert _bits(a) == _bits(b)
    assert serialize_program(back) == text


def test_compiled_grover_negative_zeros_roundtrip():
    prog = circuit_to_rgqbp(grover_promise_or(4))
    blocks = _program_blocks(prog)
    parts = np.concatenate([np.asarray(b, dtype=np.complex128).ravel().view(np.float64)
                            for b in blocks])
    assert (np.signbit(parts) & (parts == 0)).any()
    text = serialize_program(prog)
    back = parse_program(text)
    for a, b in zip(blocks, _program_blocks(back)):
        assert _bits(a) == _bits(b)
    assert serialize_program(back) == text


def test_one_line_per_row_layout():
    text = serialize_circuit(grover_promise_or(4))
    dim = 1 << grover_promise_or(4).q
    rows = [line for line in text.splitlines() if line.lstrip().startswith("[[")]
    assert rows and all(line.count("], [") == dim - 1 for line in rows)
    prog_text = serialize_program(parity_program(2))
    assert '"initial": [[' in prog_text


def _reindented(text: str) -> str:
    """The older layout: every number on its own line."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_older_layout_parses_bit_identically():
    prog = generalize(random_rgqbp(3, 2, 4, seed=8))
    for make, parse, serialize, blocks in (
            (lambda: prog, parse_program, serialize_program, _program_blocks),
            (lambda: circuit_to_rgqbp(grover_promise_or(4)), parse_program, serialize_program,
             _program_blocks),
            (lambda: grover_promise_or(4), parse_circuit, serialize_circuit,
             lambda c: [g.matrix for g in c.gates if hasattr(g, "matrix")])):
        text = serialize(make())
        old = _reindented(text)
        assert old != text
        new_blocks, old_blocks = blocks(parse(text)), blocks(parse(old))
        assert len(new_blocks) == len(old_blocks)
        for a, b in zip(new_blocks, old_blocks):
            assert a.dtype == b.dtype and a.shape == b.shape and _bits(a) == _bits(b)
        assert serialize(parse(old)) == text


def test_decoder_packs_each_level_as_it_reads_it():
    # each level's blocks are arrays once the decoder has read the level, so
    # a document's [re, im] lists are never all alive at once
    from gqbp.formats import _load

    for prog, fields in ((random_rgqbp(8, 64, 12, seed=4), ("base", "thetas")),
                         (generalize(random_rgqbp(8, 64, 12, seed=4)), ("a0", "a1"))):
        text = serialize_program(prog)
        doc = _load(text)
        assert isinstance(doc["initial"], list)
        for level, entry in zip(prog.levels, doc["levels"]):
            for field in fields:
                want = getattr(level, field)
                got = entry[field].view(np.complex128)[..., 0] if want.dtype.kind == "c" \
                    else entry[field]
                assert got.shape == want.shape and _bits(got) == _bits(want)
        del doc
        tracemalloc.start()
        try:
            json.loads(text)
            whole = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _load(text)
            packed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert packed < whole / 3, (packed, whole)


def test_decoder_leaves_a_malformed_block_as_lists():
    from gqbp.formats import _load

    junk, long = (json.loads(serialize_program(parity_program(2))) for _ in range(2))
    junk["levels"][0]["base"][1][0][1] = True
    long["levels"][0]["thetas"].append(0.5)   # well formed, so packed, but too long
    for doc, packed, field, message in (
            (junk, False, "levels[0].base[1][0]", "[re, im] pair of finite numbers"),
            (long, True, "levels[0].thetas", "expected 2 angles in radians, got 3")):
        entry = _load(json.dumps(doc))["levels"][0]
        assert isinstance(entry["base" if not packed else "thetas"], np.ndarray) == packed
        with pytest.raises(FormatError) as info:
            parse_program(json.dumps(doc))
        assert info.value.field == field and message in str(info.value)


def test_integer_amplitudes_parse():
    doc = json.loads(serialize_program(parity_program(2)))
    doc["initial"] = [[1, 0], [0, -2]]
    doc["levels"][0]["thetas"] = [0, 3]
    prog = parse_program(json.dumps(doc))
    assert prog.initial.tolist() == [1 + 0j, -2j]
    assert prog.levels[0].thetas.tolist() == [0.0, 3.0]


def test_label_beyond_int64_is_format_error(tmp_path, capsys):
    doc = json.loads(serialize_program(parity_program(2)))
    doc["n"] = 10**30
    doc["levels"][0]["labels"][1] = 2**63
    with pytest.raises(FormatError) as info:
        parse_program(json.dumps(doc))
    assert info.value.field == "levels[0].labels[1]"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "levels[0].labels[1]" in capsys.readouterr().err


def test_label_below_int64_end_parses_under_huge_n():
    doc = json.loads(serialize_program(parity_program(2)))
    doc["n"] = 10**30
    doc["levels"][0]["labels"][1] = 2**63 - 1
    prog = parse_program(json.dumps(doc))
    assert prog.levels[0].labels.tolist() == [0, 2**63 - 1]


@pytest.mark.parametrize("qubits", [0, 63, 10**30])
def test_qubit_count_out_of_range_is_format_error(tmp_path, capsys, qubits):
    doc = json.loads(serialize_circuit(QueryCircuit(q=1, n=1, gates=())))
    doc["qubits"] = qubits
    with pytest.raises(FormatError) as info:
        parse_circuit(json.dumps(doc))
    assert info.value.field == "qubits"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "qubits" in capsys.readouterr().err


def test_largest_qubit_count_parses_with_int64_indices():
    doc = json.loads(serialize_circuit(QueryCircuit(q=1, n=1, gates=())))
    doc["qubits"] = 62
    doc["accept"] = [2**62 - 1]
    doc["gates"] = [{"type": "bit_oracle", "index_wires": [61], "target_wire": 0}]
    circuit = parse_circuit(json.dumps(doc))
    assert circuit.q == 62 and circuit.accept == frozenset({2**62 - 1})


def _compiled_doc():
    """qqc-v2 document: gates[0] unitary on wires [0, 1], gates[1] permutation,
    gates[3] diagonal, over q=5 (32 basis states)."""
    return json.loads(serialize_circuit(rgqbp_to_circuit(random_rgqbp(3, 2, 4, seed=8))))


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(doc):
        _at(doc, path[:-1])[path[-1]] = value
    return edit


V2_JUNK = [
    ("perm out of range", _set("gates", 1, "perm", 7, 32), "gates[1].perm[7]"),
    ("perm negative", _set("gates", 1, "perm", 7, -1), "gates[1].perm[7]"),
    ("perm float", _set("gates", 1, "perm", 7, 7.0), "gates[1].perm[7]"),
    ("perm bool", _set("gates", 1, "perm", 7, True), "gates[1].perm[7]"),
    ("perm huge int", _set("gates", 1, "perm", 7, HUGE_INT), "gates[1].perm[7]"),
    ("perm short", lambda d: d["gates"][1]["perm"].pop(), "gates[1].perm"),
    ("perm not a list", _set("gates", 1, "perm", "0 1 2"), "gates[1].perm"),
    ("phase null", _set("gates", 3, "phases", 5, [None, 0.0]), "gates[3].phases[5]"),
    ("phase string", _set("gates", 3, "phases", 5, "1"), "gates[3].phases[5]"),
    ("phase NaN", _set("gates", 3, "phases", 5, [math.nan, 0.0]), "gates[3].phases[5]"),
    ("phase bool", _set("gates", 3, "phases", 5, [1.0, True]), "gates[3].phases[5]"),
    ("phases short", lambda d: d["gates"][3]["phases"].pop(), "gates[3].phases"),
    ("phase numeric string", _set("gates", 3, "phases", 5, ["0.5", 0.0]), "gates[3].phases[5]"),
    ("phase 3-number pair next to 1-number pair",
     lambda d: d["gates"][3]["phases"][5].append(d["gates"][3]["phases"][6].pop()),
     "gates[3].phases[5]"),
    ("phase nested too deep", _set("gates", 3, "phases", 5, [[1.0, 0.0]]), "gates[3].phases[5]"),
    ("phases merged, right total",
     lambda d: d["gates"][3]["phases"][5].extend(d["gates"][3]["phases"].pop(6)),
     "gates[3].phases"),
    ("wire repeated", _set("gates", 0, "wires", [1, 1]), "gates[0].wires"),
    ("wire out of range", _set("gates", 0, "wires", [0, 5]), "gates[0].wires[1]"),
    ("wire not an int", _set("gates", 0, "wires", [0, 1.0]), "gates[0].wires[1]"),
    ("wires not a list", _set("gates", 0, "wires", 3), "gates[0].wires"),
    ("matrix larger than its wires", _set("gates", 0, "wires", [0]), "gates[0].matrix"),
    ("matrix smaller than its wires", _set("gates", 0, "wires", [0, 1, 2]), "gates[0].matrix"),
    ("structured gate in qqc-v1", _set("format", "qqc-v1"), "gates[0]"),
]


@pytest.mark.parametrize("junk", V2_JUNK, ids=[j[0] for j in V2_JUNK])
def test_v2_junk_names_entry(junk):
    _, edit, field = junk
    doc = _compiled_doc()
    edit(doc)
    with pytest.raises(FormatError) as info:
        parse_circuit(json.dumps(doc))
    assert info.value.field == field


def test_v2_broken_numerics_still_load():
    doc = _compiled_doc()
    doc["gates"][1]["perm"][7] = doc["gates"][1]["perm"][6]
    doc["gates"][3]["phases"][5] = [2.0, 0.0]
    circuit = parse_circuit(json.dumps(doc))
    assert not validate_circuit(circuit).passed


def test_v2_roundtrip_keeps_bytes_and_bits():
    m = np.array([[complex(-0.0, 1.0), 5e-324], [1.0, complex(0.0, -0.0)]])
    circuit = QueryCircuit(q=2, n=3, gates=(
        Unitary(m, wires=(1,)),
        Diagonal([complex(-0.0, 1.0), 1.0, complex(1.0, -0.0), -1.0]),
        Permutation([1, 0, 3, 2]),
        Unitary(np.eye(4)),
        Unitary(np.eye(4), wires=(1, 0)),
    ), accept=frozenset({1}))
    text = serialize_circuit(circuit)
    assert json.loads(text)["format"] == "qqc-v2" and isinstance(parse(text), QueryCircuit)
    assert "-0.0" in text and "5e-324" in text
    back = parse_circuit(text)
    assert serialize_circuit(back) == text
    for a, b in zip(circuit.gates, back.gates):
        assert type(a) is type(b) and getattr(a, "wires", None) == getattr(b, "wires", None)
        for field in ("matrix", "phases", "perm"):
            if hasattr(a, field):
                assert _bits(getattr(a, field)) == _bits(getattr(b, field))
    doc = json.loads(text)
    lines = text.splitlines()
    assert sum(line.strip().startswith('"perm": [1, 0, 3, 2]') for line in lines) == 1
    assert sum(line.strip().startswith('"phases": [[-0.0, 1.0], ') for line in lines) == 1
    assert "wires" not in doc["gates"][3] and doc["gates"][4]["wires"] == [1, 0]


def test_circuit_format_tag_follows_content():
    assert json.loads(serialize_circuit(grover_promise_or(8)))["format"] == "qqc-v1"
    assert json.loads(serialize_circuit(deutsch_circuit()))["format"] == "qqc-v1"
    compiled = rgqbp_to_circuit(parity_program(2))
    assert json.loads(serialize_circuit(compiled))["format"] == "qqc-v2"
    # a qqc-v2 document may hold only dense gates
    doc = json.loads(serialize_circuit(deutsch_circuit()))
    doc["format"] = "qqc-v2"
    assert serialize_circuit(parse_circuit(json.dumps(doc))) == serialize_circuit(
        deutsch_circuit())


def test_compiled_q9_document_is_small():
    circuit = rgqbp_to_circuit(random_rgqbp(16, 8, 12, seed=0))
    assert circuit.q == 9
    text = serialize_circuit(circuit)
    assert len(text.encode()) < 1_000_000
    back = parse_circuit(text)
    xs = np.random.default_rng(0).integers(0, 2, size=(64, 12))
    assert np.array_equal(circuit_acceptances(back, xs), circuit_acceptances(circuit, xs))


# --- the writer: golden documents and the byte reference ----------------------

DATA = Path(__file__).parent / "data"


def _extreme_program() -> Program:
    """-0.0, the smallest subnormal and 1e308 in every kind of block."""
    tiny, big = 5e-324, 1e308
    base = np.array([[complex(-0.0, tiny), complex(big, -0.0)],
                     [complex(tiny, -big), complex(-0.0, -0.0)]])
    return Program(n=2, initial=np.array([complex(-0.0, big), complex(tiny, -0.0)]),
                   levels=(RestrictedLevel(labels=np.array([0, 1]), base=base,
                                           thetas=np.array([-0.0, tiny])),
                           RestrictedLevel(labels=np.array([1, 0]), base=base.T,
                                           thetas=np.array([big, -tiny]))),
                   accept=frozenset({0, 1}))


# file under tests/data: what its document holds (see tests/data/README.md)
GOLDEN = {
    "grover_or_n4.json": lambda: grover_promise_or(4),
    "grover_or_n4_bp.json": lambda: circuit_to_rgqbp(grover_promise_or(4)),
    "random_s3_l3_n5_seed7.json": lambda: random_rgqbp(3, 3, 5, seed=7),
    "random_s3_l3_n5_seed7_general.json": lambda: generalize(random_rgqbp(3, 3, 5, seed=7)),
    "compiled_random_s3_l2_n4_seed8.json":
        lambda: rgqbp_to_circuit(random_rgqbp(3, 2, 4, seed=8)),
    "extreme_amplitudes.json": _extreme_program,
}


def _serialize(artifact) -> str:
    if isinstance(artifact, QueryCircuit):
        return serialize_circuit(artifact)
    return serialize_program(artifact)


def _blocks(artifact) -> list:
    if isinstance(artifact, QueryCircuit):
        return [getattr(g, f) for g in artifact.gates for f in ("matrix", "phases", "perm")
                if hasattr(g, f)]
    return _program_blocks(artifact)


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_document_bytes(name):
    text = (DATA / name).read_bytes().decode()
    parsed, built = parse(text), GOLDEN[name]()
    assert _serialize(parsed) == text
    assert _serialize(built) == text
    assert len(_blocks(parsed)) == len(_blocks(built))
    for a, b in zip(_blocks(parsed), _blocks(built)):
        assert a.dtype == b.dtype and a.shape == b.shape and _bits(a) == _bits(b)


def test_golden_corpus_holds_the_edge_values():
    texts = {name: (DATA / name).read_text() for name in GOLDEN}
    assert "-0.0" in texts["grover_or_n4_bp.json"]
    assert all(v in texts["extreme_amplitudes.json"] for v in ("-0.0", "5e-324", "1e+308"))
    assert json.loads(texts["compiled_random_s3_l2_n4_seed8.json"])["format"] == "qqc-v2"
    assert sum(len(t) for t in texts.values()) < 100_000


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_writer_matches_reference_on_compiled_grover(n):
    circuit = grover_promise_or(n)
    program = circuit_to_rgqbp(circuit)
    assert serialize_circuit(circuit) == reference_serialize_circuit(circuit)
    assert serialize_program(program) == reference_serialize_program(program)


# every finite float64: -0.0, subnormals and the largest magnitudes included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _amplitudes(data, *shape) -> np.ndarray:
    pairs = data.draw(arrays(np.float64, shape + (2,), elements=FINITE))
    return pairs.view(np.complex128)[..., 0]


@given(data=st.data(), s=st.integers(1, 4), length=st.integers(0, 3), n=st.integers(1, 4),
       general=st.booleans())
@settings(max_examples=60, deadline=None)
def test_writer_matches_reference_on_drawn_programs(data, s, length, n, general):
    levels = []
    for _ in range(length):
        labels = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=s, max_size=s)))
        if general:
            levels.append(GeneralLevel(labels=labels, a0=_amplitudes(data, s, s),
                                       a1=_amplitudes(data, s, s)))
        else:
            thetas = data.draw(arrays(np.float64, (s,), elements=FINITE))
            levels.append(RestrictedLevel(labels=labels, base=_amplitudes(data, s, s),
                                          thetas=thetas))
    accept = data.draw(st.frozensets(st.integers(0, s - 1)))
    program = Program(n=n, initial=_amplitudes(data, s), levels=tuple(levels), accept=accept)
    text = serialize_program(program)
    assert text == reference_serialize_program(program)
    back = parse_program(text)
    for a, b in zip(_program_blocks(program), _program_blocks(back)):
        assert _bits(a) == _bits(b)


@given(data=st.data(), q=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_writer_matches_reference_on_drawn_circuits(data, q):
    dim = 1 << q
    wires = tuple(data.draw(st.permutations(range(q))))[:data.draw(st.integers(0, q))]
    circuit = QueryCircuit(q=q, n=2, gates=(
        Unitary(_amplitudes(data, dim, dim)),
        Diagonal(_amplitudes(data, dim)),
        Permutation(np.array(data.draw(st.permutations(range(dim))))),
        Unitary(_amplitudes(data, 1 << len(wires), 1 << len(wires)), wires=wires),
    ), accept=data.draw(st.frozensets(st.integers(0, dim - 1))))
    text = serialize_circuit(circuit)
    assert text == reference_serialize_circuit(circuit)
    assert serialize_circuit(parse_circuit(text)) == text
