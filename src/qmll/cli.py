"""Command-line front end.

Exit codes: 0 success, 1 domain errors (check failures, precondition
violations), 2 usage and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

import numpy as np

from .circuits import circuit_from_json, circuit_to_json, encode, extract, json_complex
from .cutelim import normalize, trace_lines
from .errors import CheckFailure, QmllError, SyntaxLocationError
from .formulas import context_along, depth
from .matrices import StateVector, basis_state, is_basis_label, render_rows, zero_state
from .proofs import Proof, mll_axiom_link_matrix, parse_proof, print_proof, print_sequent
from .qiam import OccurrenceGraph, initial_state, negative_entries, run, semantics_relative


class InputError(ValueError):
    """A command-line value of the wrong shape, malformed JSON included; exits 2."""


def _read(path: str) -> str:
    """The text of file `path`, or of stdin for "-", read alike: strict UTF-8, universal newlines."""
    if path == "-":
        return io.StringIO(sys.stdin.buffer.read().decode("utf-8"), newline=None).read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _resolve_entry(proof: Proof, context_arg: str | None, entry_arg: int | None):
    concl = proof.conclusion
    if context_arg is None or context_arg == "auto":
        candidates = [(k, ctx) for k, ctx in negative_entries(proof)
                      if entry_arg is None or k == entry_arg]
        if len(candidates) != 1:
            raise QmllError(
                f"--context auto needs exactly one negative context, found {len(candidates)}")
        return candidates[0]
    parts = context_arg.split(".")
    try:
        k = int(parts[0])
    except ValueError:
        raise QmllError(f"context path must start with a formula index: {context_arg!r}")
    if not 1 <= k <= len(concl):
        raise QmllError(f"formula index {k} out of range")
    if entry_arg is not None and entry_arg != k:
        raise QmllError(f"--entry {entry_arg} conflicts with context path index {k}")
    return k, context_along(concl[k - 1], parts[1:])


def _parse_state(arg: str | None, n: int) -> StateVector:
    if arg is None:
        return zero_state(n)
    arg = arg.strip()
    if arg.startswith("|"):
        if not (arg.endswith(">") and is_basis_label(arg[1:-1])):
            raise InputError(f"--input label must be |bits> with bits 0 or 1, found {arg!r}")
        return basis_state(arg[1:-1])
    try:  # JSONDecodeError is a ValueError; too deep a nesting, a RecursionError
        amps = [json_complex(v) for v in json.loads(arg)]
    except (TypeError, ValueError, OverflowError, RecursionError) as e:
        raise InputError(f"--input must be a JSON list of [re,im] pairs: {e}") from e
    return StateVector(n, np.array(amps, dtype=complex))


def _cmd_check(args) -> int:
    # every node `parse_proof` returns was built by its checking constructor
    proof = parse_proof(_read(args.proof))
    _write(f"ok: |- {print_sequent(proof.conclusion)}", args.output)
    return 0


def _cmd_normalize(args) -> int:
    proof = parse_proof(_read(args.proof))
    trace = normalize(proof, strategy=args.strategy, seed=args.seed)
    if args.trace:
        for line in trace_lines(trace):
            print(line, file=sys.stderr)
    _write(print_proof(trace.final), args.output)
    return 0


def _cmd_run(args) -> int:
    proof = parse_proof(_read(args.proof))
    k, ctx = _resolve_entry(proof, args.context, args.entry)
    register = _parse_state(args.input, depth(ctx))
    graph = OccurrenceGraph(proof)
    start = initial_state(graph, k, ctx, register)
    result = run(graph, start, collect_trace=args.trace_machine)
    if args.trace_machine:
        for line in result.trace:
            print(line, file=sys.stderr)
    [amps] = render_rows(result.final.register.amplitudes)
    _write(f'{{"exit":{result.final.pos},"state":{amps}}}', args.output)
    return 0


def _cmd_semantics(args) -> int:
    proof = parse_proof(_read(args.proof))
    k, ctx = _resolve_entry(proof, args.context, args.entry)
    res = semantics_relative(proof, k, ctx)
    body = (f'{{"entry":{res.entry_pos},"exit":{res.exit_pos},'
            f'"dim_qubits":{res.unitary.dim_qubits},'
            f'"matrix":[{",".join(render_rows(res.unitary.data))}]}}')
    _write(body, args.output)
    return 0


def _cmd_encode(args) -> int:
    circuit = circuit_from_json(_read(args.circuit))
    _write(print_proof(encode(circuit)), args.output)
    return 0


def _cmd_extract(args) -> int:
    proof = parse_proof(_read(args.proof))
    k, ctx = _resolve_entry(proof, args.context, args.entry)
    circuit = extract(proof, k, ctx, prune_identity=args.prune_identity)
    _write(circuit_to_json(circuit), args.output)
    return 0


def _cmd_mll_matrix(args) -> int:
    proof = parse_proof(_read(args.proof))
    m = mll_axiom_link_matrix(proof)
    n = m.shape[0]  # each row holds one 1: an atom's axiom link
    rows = ",".join(f"[{'0,' * c}1{',0' * (n - 1 - c)}]" for c in m.argmax(axis=1).tolist())
    _write(f'{{"size":{n},"matrix":[{rows}]}}', args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qmll", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        return p

    p = add("check", _cmd_check, help="parse and check a proof file")
    p.add_argument("proof")

    p = add("normalize", _cmd_normalize, help="reduce a proof to cut-free normal form")
    p.add_argument("proof")
    p.add_argument("--strategy", choices=["leftmost-innermost", "random"],
                   default="leftmost-innermost")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print one line per step to stderr")

    p = add("run", _cmd_run, help="run the token machine on a register")
    p.add_argument("proof")
    p.add_argument("--entry", type=int, default=None)
    p.add_argument("--context", default="auto")
    p.add_argument("--input", default=None,
                   help="register as JSON [re,im] pairs or a |bits> label")
    p.add_argument("--trace-machine", action="store_true")

    p = add("semantics", _cmd_semantics, help="the unitary a proof denotes")
    p.add_argument("proof")
    p.add_argument("--entry", type=int, default=None)
    p.add_argument("--context", default="auto")

    p = add("encode", _cmd_encode, help="encode a circuit JSON as a proof")
    p.add_argument("circuit")

    p = add("extract", _cmd_extract, help="extract the circuit a proof denotes")
    p.add_argument("proof")
    p.add_argument("--entry", type=int, default=None)
    p.add_argument("--context", default="auto")
    p.add_argument("--prune-identity", action="store_true")

    p = add("mll-matrix", _cmd_mll_matrix,
            help="axiom-link permutation matrix of a cut-free multiplicative proof")
    p.add_argument("proof")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SyntaxLocationError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (QmllError, MemoryError) as e:  # numpy's MemoryError names the allocation
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, InputError) as e:  # unreadable input
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
