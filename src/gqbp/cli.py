"""Command-line interface.

Exit codes: 0 on success/pass, 1 when a check or verdict fails, 2 on
usage, schema, or parse errors.  Reports go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import experiments, formats, programs
from .convert import circuit_to_rgqbp, rgqbp_to_circuit
from .core import DEFAULT_TOL, accept_mass, validate_program
from .circuit import circuit_acceptance, count_queries, validate_circuit
from .simulate import evolve
from .transform import split_layers


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _render_table(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_validate(args) -> int:
    text = _read(args.file)
    kind = formats.detect_format(text)
    if kind == "program":
        report = validate_program(formats.parse_program(text), tol=args.tol)
    else:
        report = validate_circuit(formats.parse_circuit(text), tol=args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} max_deviation={_fmt(report.max_deviation)} "
          f"checked={report.assignments_checked} convention={report.convention}")
    for err in report.errors:
        print(f"  {err}")
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    text = _read(args.file)
    kind = formats.detect_format(text)
    if kind == "circuit":
        circuit = formats.parse_circuit(text)
        prob = circuit_acceptance(circuit, args.input)
        print(f"acceptance_probability={_fmt(prob)} queries={count_queries(circuit)}")
        return 0
    program = formats.parse_program(text)
    states = evolve(program, args.input, record=True)[:, 0]
    if args.trace:
        for t, state in enumerate(states):
            amps = " ".join(f"({_fmt(z.real)},{_fmt(z.imag)})" for z in state)
            print(f"state[{t}] {amps}")
    print(f"acceptance_probability={_fmt(float(accept_mass(program, states[-1])))}")
    return 0


def cmd_convert(args) -> int:
    text = _read(args.file)
    if args.to == "circuit":
        program = formats.parse_program(text)
        sys.stdout.write(formats.serialize_circuit(rgqbp_to_circuit(program)))
    else:
        circuit = formats.parse_circuit(text)
        sys.stdout.write(formats.serialize_program(circuit_to_rgqbp(circuit)))
    return 0


def cmd_split(args) -> int:
    program = formats.parse_program(_read(args.file))
    sys.stdout.write(formats.serialize_program(split_layers(program)))
    return 0


def cmd_gen(args) -> int:
    if args.target == "parity":
        doc = formats.serialize_program(programs.parity_program(args.n))
    elif args.target == "grover-or":
        doc = formats.serialize_circuit(programs.grover_promise_or(args.n))
    else:
        doc = formats.serialize_program(
            programs.random_rgqbp(args.s, args.len, args.n, args.seed))
    sys.stdout.write(doc)
    return 0


def cmd_hybrid(args) -> int:
    program = formats.parse_program(_read(args.file))
    trace = experiments.hybrid_deviation(program, args.base, args.alt)
    print(f"final_distance={_fmt(trace.final_distance)} bound={_fmt(trace.bound)}")
    for t, dev in enumerate(trace.deviations):
        print(f"level[{t}] deviation={_fmt(dev)} l1={_fmt(trace.level_l1[t])}")
    return 0 if trace.bound_holds else 1


def _print_report(report: experiments.ExperimentReport, fmt: str) -> None:
    rows = [["empirical", _fmt(report.empirical)],
            ["bound", _fmt(report.bound)],
            ["slack", _fmt(report.slack)],
            ["verdict", report.verdict]]
    rows += [[f"meta.{k}", str(v)] for k, v in sorted(report.metadata.items())]
    sys.stdout.write(_render_table(["field", "value"], rows, fmt))


def cmd_expect(args) -> int:
    program = formats.parse_program(_read(args.file))
    if args.kind == "or":
        report = experiments.promise_or_expectation(program)
    else:
        if args.k is None or args.delta is None or args.fixed is None:
            raise ValueError("expect hamming requires --k, --delta and --fixed")
        report = experiments.hamming_expectation(program, args.k, args.delta,
                                                 args.fixed, seed=args.seed)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def cmd_scan(args) -> int:
    sizes = [int(v) for v in args.sizes.split(",") if v]
    if not sizes:
        raise ValueError("--sizes must list at least one size")
    rows = experiments.tradeoff_scan(args.family, sizes)
    table = [[r.n, r.width, r.length, _fmt(r.min_success),
              _fmt(r.query_space), _fmt(r.ratio)] for r in rows]
    sys.stdout.write(_render_table(
        ["n", "width", "length", "min_success", "L*sqrt(s)", "L*sqrt(s)/n"],
        table, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqbp",
        description="Simulate, validate, translate, and stress branching programs "
                    "and query circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="numeric well-formedness check")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="acceptance probability on one input")
    p.add_argument("file")
    p.add_argument("--input", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convert", help="translate between program and circuit")
    p.add_argument("--to", choices=("circuit", "bp"), required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("split", help="rewrite into alternating query/mixing form")
    p.add_argument("file")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("gen", help="emit a builtin program or circuit")
    p.add_argument("target", choices=("parity", "grover-or", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--len", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("hybrid", help="final-state drift between two inputs")
    p.add_argument("file")
    p.add_argument("--base", required=True)
    p.add_argument("--alt", required=True)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("expect", help="expectation vs analytic cap")
    p.add_argument("kind", choices=("or", "hamming"))
    p.add_argument("file")
    p.add_argument("--k", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("scan", help="query-space tradeoff table over sizes")
    p.add_argument("family", choices=sorted(experiments.FAMILIES))
    p.add_argument("--sizes", required=True)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (formats.FormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
