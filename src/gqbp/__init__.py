"""Levelled quantum branching programs: exact simulation, circuit
translation, and deviation-bound experiments."""

from .circuit import (
    BitOracle,
    Diagonal,
    Permutation,
    PhaseOracle,
    QueryCircuit,
    Unitary,
    circuit_acceptance,
    circuit_acceptances,
    complete_unitary,
    count_queries,
    run_circuit,
    validate_circuit,
)
from .convert import circuit_to_rgqbp, rgqbp_to_circuit, roundtrip_check
from .core import (
    GeneralLevel,
    Program,
    RestrictedLevel,
    ValidationReport,
    as_bits,
    generalize,
    restrict,
    validate_general,
    validate_program,
    validate_restricted,
)
from .experiments import (
    DistinguishabilityReport,
    ExperimentReport,
    HybridTrace,
    ScanRow,
    distinguishability_check,
    hamming_expectation,
    hybrid_deviation,
    hybrid_run,
    promise_or_expectation,
    tradeoff_scan,
)
from .formats import (
    FormatError,
    parse_circuit,
    parse_program,
    serialize_circuit,
    serialize_program,
)
from .programs import (
    HammingFamily,
    grover_promise_or,
    hamming_family,
    parity_program,
    random_rgqbp,
    zeros_input,
)
from .simulate import (
    acceptance_probabilities,
    acceptance_probability,
    all_inputs,
    decide,
    evolve,
    final_state,
    final_states,
)
from .transform import pad_width, split_layers

__version__ = "0.1.0"
