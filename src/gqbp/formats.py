"""JSON document formats for programs ("gqbp-v1") and circuits ("qqc-v1",
"qqc-v2").

Serialisation is deterministic: sorted keys, two-space indent, shortest
round-trip decimals, trailing newline.  Amplitudes are [re, im] pairs and
matrices are row-major (column j holds node j's transition vector).  Each
amplitude vector and each matrix row is written on one line; every other
field keeps the one-value-per-line layout of the indent.  The writer emits
this text itself, formatting each distinct float of a document once; its
bytes are those of ``json.dumps(sort_keys=True, indent=2)`` with the rows
inlined.  Whitespace is not significant on input, so documents in any layout
(the older one with every number on its own line too) parse to the same
values, and serialize(parse(text)) == text for every document this module
writes.  Amplitudes keep their bits through the round trip, -0.0 included.

A circuit is written as "qqc-v1" when every gate is a full-width unitary or
an oracle, and as "qqc-v2" when it holds a structured gate: a permutation
(``"perm"``, one line of 2^q target indices), a diagonal (``"phases"``, one
line of 2^q [re, im] pairs) or a unitary that names its ``"wires"`` (a
2^k x 2^k matrix for k wires).  Each gate is encoded the same way under
both tags; a "qqc-v1" document holding a structured gate is refused.

Parsing validates schema, index ranges and that every amplitude and angle
is a finite number, with diagnostics naming the offending field down to the
matrix entry (``levels[0].base[2][1]``, ``gates[3].perm[7]``).  Other
numeric properties (normalisation, unitarity, a permutation's bijectivity)
are left to the validators so that broken files can still be loaded and
inspected.

Decoding turns each level's and gate's number blocks into arrays as soon as
they are read, and runs with Python's cyclic collector paused: the decoder
builds no reference cycles, so a collection set off by its thousands of
short-lived lists would free nothing.  The collector's prior state is
restored afterwards.  A document nested deeper than the decoder's
recursion limit is a ``FormatError`` on ``document``.
"""

from __future__ import annotations

import gc
import json
import math
from itertools import chain

import numpy as np

from .circuit import (BitOracle, Diagonal, Gate, Permutation, PhaseOracle, QueryCircuit,
                      Unitary)
from .core import GeneralLevel, Program, RestrictedLevel, _freeze

PROGRAM_FORMAT = "gqbp-v1"
CIRCUIT_FORMAT = "qqc-v1"
# Circuits with structured gates; qqc-v1 stays the tag of every circuit it
# can express, so those documents are written as before.
STRUCTURED_FORMAT = "qqc-v2"


class FormatError(ValueError):
    """Schema violation, carrying the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _emit(value, indent: str = "\n") -> str:
    """``value`` in the layout of ``json.dumps(sort_keys=True, indent=2)``,
    one line per item of each dict and non-empty list.  Keys are plain names;
    a str is JSON text (a number, a quoted tag, a row), written as it is."""
    if isinstance(value, str):
        return value
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f'"{key}": {_emit(value[key], inner)}' for key in sorted(value))
        return "{" + inner + f",{inner}".join(items) + indent + "}"
    return "[" + inner + f",{inner}".join(_emit(item, inner) for item in value) + indent + "]"


def _number_text(blocks: list[np.ndarray]) -> list:
    """JSON text of float and complex blocks as ``_emit`` lays them out: a
    float vector one number per line, a complex vector one line of [re, im]
    pairs, a complex matrix one such line per row.  Each distinct bit pattern
    (-0.0 apart from 0.0) is formatted once, by ``repr`` as json.dumps does."""
    if not blocks:
        return []
    keys = [np.ascontiguousarray(b).view(np.float64).ravel().view(np.int64) for b in blocks]
    bits = np.sort(np.concatenate(keys))  # np.unique would import numpy.ma on first use
    bits = bits[np.append(True, bits[1:] != bits[:-1])]
    words = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    texts = []
    for block, key in zip(blocks, keys):
        numbers = words[np.searchsorted(bits, key)]
        if block.dtype == np.float64:
            texts.append(numbers.tolist())
            continue
        rows = numbers.reshape(-1, 2 * block.shape[-1])
        cells = np.empty((rows.shape[0], 2 * rows.shape[1] - 1), dtype=object)
        cells[:, 0::2] = rows
        cells[:, 1::4] = ", "
        cells[:, 3::4] = "], ["
        lines = ["[[" + "".join(row) + "]]" for row in cells.tolist()]
        texts.append(lines if block.ndim == 2 else lines[0])
    return texts


def _load(text: str) -> dict:
    # The decoder and its hook build no reference cycles, so the cyclic
    # collector has nothing to free while they run; paused, it does not
    # sweep the thousands of lists a compiled document holds mid-decode.
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text, object_hook=_pack_blocks)
    except json.JSONDecodeError as e:
        raise FormatError("document", f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise FormatError("document", "nested too deeply to decode")
    finally:
        if enabled:
            gc.enable()
    if not isinstance(doc, dict):
        raise FormatError("document", "top level must be a JSON object")
    return doc


def _get(doc: dict, field: str, kind, where: str = ""):
    path = f"{where}.{field}" if where else field
    if field not in doc:
        raise FormatError(path, "missing required field")
    value = doc[field]
    if kind is int and isinstance(value, bool):
        raise FormatError(path, "expected an integer")
    if not isinstance(value, kind) and not (kind is list and isinstance(value, np.ndarray)):
        raise FormatError(path, f"expected {kind.__name__}")  # an array is lists packed on load
    return value


def _is_number(value) -> bool:
    """A finite JSON number: not a bool, null, string or container."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _first_bad(value, path: str, axes: tuple, entry_ok, message: str) -> FormatError | None:
    """Error naming the first list of ``value`` whose length differs from
    its axis in ``axes`` ((length, noun) pairs), or the first entry that
    fails ``entry_ok``; None when there is neither."""
    (length, noun), inner = axes[0], axes[1:]
    if not isinstance(value, list) or len(value) != length:
        got = f", got {len(value)}" if isinstance(value, list) else ""
        return FormatError(path, f"expected {length} {noun}{got}")
    for i, item in enumerate(value):
        where = f"{path}[{i}]"
        if inner:
            error = _first_bad(item, where, inner, entry_ok, message)
            if error:
                return error
        elif not entry_ok(item):
            return FormatError(where, message)
    return None


def _as_block(value) -> np.ndarray | None:
    """``value`` as a read-only float64 array when it is evenly nested lists of finite
    JSON numbers (true, null and strings refused), else None: each depth is
    flattened in one pass and the flat list converted in one call."""
    shape, leaves, kinds = [], [value], {type(value)}
    while kinds == {list} and len(set(map(len, leaves))) == 1:
        shape.append(len(leaves[0]))
        leaves = list(chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
    if not shape or not kinds <= {int, float}:
        return None
    try:
        block = np.array(leaves, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return _freeze(block.reshape(shape)) if np.isfinite(block).all() else None


# The fields that hold number blocks: a program's initial vector, its levels'
# matrices and angles, and a circuit gate's matrix or phases.
_BLOCK_FIELDS = frozenset(("initial", "base", "thetas", "a0", "a1", "matrix", "phases"))


def _pack_blocks(obj: dict) -> dict:
    """Decoder hook: a program's, level's or gate's blocks become arrays as soon
    as it is read, so a document's [re, im] lists live one level or gate at a time,
    not to the end of the decode; a block that is not well formed stays
    lists for ``_parse_block``."""
    for field in _BLOCK_FIELDS.intersection(obj):
        block = _as_block(obj[field])
        if block is not None:
            obj[field] = block
    return obj


def _parse_block(value, path: str, axes: tuple, pairs: bool) -> np.ndarray:
    """Float64 array of finite JSON numbers shaped by ``axes`` ((length,
    noun) pairs), plus a trailing axis of 2 when ``pairs``.

    ``value`` is the array ``_pack_blocks`` made of the lists, or the lists
    it left as they were.  Only on failure does ``_first_bad`` walk the
    lists to name the offending entry.
    """
    shape = tuple(length for length, _ in axes) + ((2,) if pairs else ())
    if isinstance(value, np.ndarray):
        if value.shape == shape:
            return value
        value = value.tolist()
    if pairs:
        error = _first_bad(value, path, axes, _is_pair,
                           "amplitude must be a [re, im] pair of finite numbers")
    else:
        error = _first_bad(value, path, axes, _is_number, "expected a finite number")
    raise error or FormatError(path, "expected a block of finite numbers")


def _parse_vector(value, path: str, size: int) -> np.ndarray:
    block = _parse_block(value, path, ((size, "amplitudes"),), pairs=True)
    return block.view(np.complex128).reshape(size)


def _parse_matrix(value, path: str, dim: int) -> np.ndarray:
    block = _parse_block(value, path, ((dim, "matrix rows"), (dim, "amplitudes")), pairs=True)
    return block.view(np.complex128).reshape(dim, dim)


# Indices are stored as int64; a document may declare a larger range.
_INDEX_END = 1 << 63
# Basis-state indices of a circuit run up to 2^qubits and must fit in int64.
MAX_QUBITS = 62


def _parse_index_list(value, path: str, upper: int, what: str) -> list[int]:
    if not isinstance(value, list):
        raise FormatError(path, "expected a list of integers")
    if not (set(map(type, value)) <= {int}
            and 0 <= min(value, default=0) and max(value, default=0) < min(upper, _INDEX_END)):
        for i, v in enumerate(value):
            if type(v) is not int:
                raise FormatError(f"{path}[{i}]", "expected an integer")
            if not 0 <= v < upper:
                raise FormatError(f"{path}[{i}]", f"{what} {v} out of range [0, {upper})")
            if v >= _INDEX_END:
                raise FormatError(f"{path}[{i}]", f"{what} {v} does not fit in int64")
    return value


def serialize_program(program: Program) -> str:
    blocks = [program.initial]
    for lv in program.levels:
        blocks += [lv.base, lv.thetas] if isinstance(lv, RestrictedLevel) else [lv.a0, lv.a1]
    text = iter(_number_text(blocks))
    doc = {
        "format": f'"{PROGRAM_FORMAT}"',
        "n": str(program.n),
        "kind": f'"{program.kind}"',
        "width": str(program.width),
        "initial": next(text),
        "levels": [],
        "accept": list(map(str, sorted(program.accept))),
    }
    for lv in program.levels:
        entry = {"labels": list(map(str, lv.labels.tolist()))}
        if isinstance(lv, RestrictedLevel):
            entry["base"], entry["thetas"] = next(text), next(text)
        else:
            entry["a0"], entry["a1"] = next(text), next(text)
        doc["levels"].append(entry)
    return _emit(doc) + "\n"


def parse_program(text: str) -> Program:
    return _read_program(_load(text))


def _read_program(doc: dict) -> Program:
    if _get(doc, "format", str) != PROGRAM_FORMAT:
        raise FormatError("format", f"expected {PROGRAM_FORMAT!r}, got {doc['format']!r}")
    n = _get(doc, "n", int)
    if n < 1:
        raise FormatError("n", f"must be >= 1, got {n}")
    kind = _get(doc, "kind", str)
    if kind not in ("restricted", "general"):
        raise FormatError("kind", f"must be 'restricted' or 'general', got {kind!r}")
    width = _get(doc, "width", int)
    if width < 1:
        raise FormatError("width", f"must be >= 1, got {width}")
    initial = _parse_vector(_get(doc, "initial", list), "initial", width)
    raw_levels = _get(doc, "levels", list)
    levels = []
    for i, entry in enumerate(raw_levels):
        where = f"levels[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(where, "expected an object")
        labels = _freeze(np.array(_parse_index_list(_get(entry, "labels", list, where),
                                                    f"{where}.labels", n, "label"),
                                  dtype=np.int64))
        if labels.size != width:
            raise FormatError(f"{where}.labels", f"expected {width} labels, got {labels.size}")
        if kind == "restricted":
            base = _parse_matrix(_get(entry, "base", list, where), f"{where}.base", width)
            thetas = _parse_block(_get(entry, "thetas", list, where), f"{where}.thetas",
                                  ((width, "angles in radians"),), pairs=False)
            levels.append(RestrictedLevel(labels=labels, base=base, thetas=thetas))
        else:
            a0 = _parse_matrix(_get(entry, "a0", list, where), f"{where}.a0", width)
            a1 = _parse_matrix(_get(entry, "a1", list, where), f"{where}.a1", width)
            levels.append(GeneralLevel(labels=labels, a0=a0, a1=a1))
    accept = _parse_index_list(_get(doc, "accept", list), "accept", width, "accept node")
    try:
        return Program(n=n, initial=initial, levels=tuple(levels), accept=frozenset(accept))
    except ValueError as e:
        raise FormatError("document", str(e))


def _needs_v2(gate: Gate) -> bool:
    """Whether ``gate`` is one that only ``qqc-v2`` can hold."""
    return (isinstance(gate, (Permutation, Diagonal))
            or (isinstance(gate, Unitary) and gate.wires is not None))


def serialize_circuit(circuit: QueryCircuit) -> str:
    text = iter(_number_text([gate.matrix if isinstance(gate, Unitary) else gate.phases
                              for gate in circuit.gates if isinstance(gate, (Unitary, Diagonal))]))
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, Unitary):
            entry = {"type": '"unitary"', "matrix": next(text)}
            if gate.wires is not None:
                entry["wires"] = list(map(str, gate.wires))
        elif isinstance(gate, Permutation):
            entry = {"type": '"permutation"', "perm": json.dumps(gate.perm.tolist())}
        elif isinstance(gate, Diagonal):
            entry = {"type": '"diagonal"', "phases": next(text)}
        elif isinstance(gate, PhaseOracle):
            entry = {"type": '"phase_oracle"'}
        else:
            entry = {"type": '"bit_oracle"',
                     "index_wires": list(map(str, gate.index_wires)),
                     "target_wire": str(gate.target_wire)}
        gates.append(entry)
    fmt = STRUCTURED_FORMAT if any(map(_needs_v2, circuit.gates)) else CIRCUIT_FORMAT
    doc = {
        "format": f'"{fmt}"',
        "qubits": str(circuit.q),
        "n": str(circuit.n),
        "gates": gates,
        "accept": list(map(str, sorted(circuit.accept))),
    }
    return _emit(doc) + "\n"


def _parse_gate(entry: dict, where: str, q: int) -> Gate:
    dim = 1 << q
    kind = _get(entry, "type", str, where)
    if kind == "unitary":
        wires = None
        if "wires" in entry:
            wires = _parse_index_list(_get(entry, "wires", list, where), f"{where}.wires", q,
                                      "wire")
            if len(set(wires)) != len(wires):
                raise FormatError(f"{where}.wires", "wires must be distinct")
        size = dim if wires is None else 1 << len(wires)
        matrix = _parse_matrix(_get(entry, "matrix", list, where), f"{where}.matrix", size)
        return Unitary(matrix=matrix, wires=wires)
    if kind == "permutation":
        perm = _get(entry, "perm", list, where)
        if len(perm) != dim:
            raise FormatError(f"{where}.perm", f"expected {dim} targets, got {len(perm)}")
        return Permutation(np.array(_parse_index_list(perm, f"{where}.perm", dim, "target"),
                                    dtype=np.int64))
    if kind == "diagonal":
        return Diagonal(_parse_vector(_get(entry, "phases", list, where), f"{where}.phases", dim))
    if kind == "phase_oracle":
        return PhaseOracle()
    if kind == "bit_oracle":
        wires = _parse_index_list(_get(entry, "index_wires", list, where),
                                  f"{where}.index_wires", q, "wire")
        target = _get(entry, "target_wire", int, where)
        if not 0 <= target < q:
            raise FormatError(f"{where}.target_wire", f"wire {target} out of range [0, {q})")
        try:
            return BitOracle(index_wires=tuple(wires), target_wire=target)
        except ValueError as e:
            raise FormatError(where, str(e))
    raise FormatError(f"{where}.type", f"unknown gate type {kind!r}")


def parse_circuit(text: str) -> QueryCircuit:
    return _read_circuit(_load(text))


def _read_circuit(doc: dict) -> QueryCircuit:
    fmt = _get(doc, "format", str)
    if fmt not in (CIRCUIT_FORMAT, STRUCTURED_FORMAT):
        raise FormatError("format", f"expected {CIRCUIT_FORMAT!r} or {STRUCTURED_FORMAT!r}, "
                                    f"got {fmt!r}")
    q = _get(doc, "qubits", int)
    if not 1 <= q <= MAX_QUBITS:
        raise FormatError("qubits", f"must be in [1, {MAX_QUBITS}], got {q}")
    n = _get(doc, "n", int)
    if n < 1:
        raise FormatError("n", f"must be >= 1, got {n}")
    raw_gates = _get(doc, "gates", list)
    gates: list[Gate] = []
    for i, entry in enumerate(raw_gates):
        where = f"gates[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(where, "expected an object")
        gate = _parse_gate(entry, where, q)
        if fmt == CIRCUIT_FORMAT and _needs_v2(gate):
            raise FormatError(where, f"this gate needs format {STRUCTURED_FORMAT!r}")
        gates.append(gate)
    accept = _parse_index_list(_get(doc, "accept", list), "accept", 1 << q, "accept state")
    try:
        return QueryCircuit(q=q, n=n, gates=tuple(gates), accept=frozenset(accept))
    except ValueError as e:
        raise FormatError("document", str(e))


def parse(text: str) -> Program | QueryCircuit:
    """Decode a document once and read it as a program or a circuit, as its
    format tag says."""
    doc = _load(text)
    fmt = _get(doc, "format", str)
    if fmt == PROGRAM_FORMAT:
        return _read_program(doc)
    if fmt in (CIRCUIT_FORMAT, STRUCTURED_FORMAT):
        return _read_circuit(doc)
    raise FormatError("format", f"unknown format {fmt!r}")
