"""Closed-loop execution of the workloads, failure accounting and the correctness gate.

One client issues each operation after the previous one finishes. On `wide`
and `deep` an operation is one in-process `qmll.cli.main(argv)` call with
file arguments; on `corpus` it is the library call the CLI command wraps.
Every output is checked outside the timed region: against the circuit
oracle (`circuit_unitary`/`simulate`, which shares no code with the token
machine) wherever a circuit is known, and otherwise against the laws the
acceptance suite checks. A mismatch raises `Mismatch`, which fails the run.
An operation that raises or exits non-zero counts as failed, by exception
class, and is never retried or replaced.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from qmll import cli
from qmll.circuits import Circuit, circuit_from_json, circuit_unitary, simulate
from qmll.cutelim import canonical_form, compose_perms, find_redexes, normalize, weight
from qmll.formulas import depth, leading_run
from qmll.matrices import StateVector, basis_state, gate_by_name
from qmll.proofs import QRule, check, children, parse_proof, proofs_equal
from qmll.qiam import OccurrenceGraph, initial_state, negative_entries, run, semantics_relative

import inputs
from tracing import (Mismatch, Tracer, instrument, library, maybe_span, proof_nodes,
                     replay_normalize)

TOL = 1e-8
CLI_OPS = ("encode", "check", "normalize", "semantics", "run", "extract")
CORPUS_RANDOM_STRATEGIES = 3
CORPUS_REGISTERS = 3
# Entries deeper than this are left out of the machine operations: the
# recipe makes a few per thousand proofs with entries of up to 11 qubits,
# where one dense semantics call takes seconds and 300 MB and would set the
# run's throughput and peak memory by itself.
CORPUS_MAX_ENTRY_QUBITS = 8
FAILED = object()
UNTRACED = library(None)


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code = code


class Ledger:
    """Attempted and failed operations, and the latency of each that completed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # (operation, exception class) -> count
        self.messages: dict[tuple[str, str], str] = {}
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.busy_s = 0.0

    def fail(self, op: str, cls: str, message: str = "") -> None:
        self.failed += 1
        self.failures[(op, cls)] += 1
        self.messages.setdefault((op, cls), message[:300])

    def timed(self, op: str, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # the loop must go on; the class is what gets reported
            self.busy_s += time.perf_counter() - t0
            cls = f"exit{e.code}" if isinstance(e, CliExit) else type(e).__name__
            self.fail(op, cls, str(e))
            return FAILED
        dt = time.perf_counter() - t0
        self.busy_s += dt
        self.latency[op].append(dt)
        return out


def call_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliExit(code, err.getvalue())
    return out.getvalue()


def expect_close(what: str, got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or np.max(np.abs(got - want)) > TOL:
        raise Mismatch(f"{what} differs from its reference")


def json_complex(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def spine_depth(p) -> int:
    """Height of the proof tree; for an encoded circuit, its columns plus the tallest one."""
    best, stack = 0, [(p, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c in children(node))
    return best


def gate_dims(*ps) -> tuple[int, int]:
    """Largest gate, in qubits and in bytes, over the given proofs."""
    qubits, nbytes = 0, 0
    for p in ps:
        for node in proof_nodes(p):
            if isinstance(node, QRule):
                qubits = max(qubits, node.gate.dim_qubits)
                nbytes = max(nbytes, node.gate.data.nbytes)
    return qubits, nbytes


def random_register(rng: np.random.Generator, n: int) -> StateVector:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# wide and deep: the CLI pipelines over one circuit


def oracle_circuit(obj: dict) -> Circuit:
    return Circuit(obj["qubits"], tuple((gate_by_name(g["gate"]), tuple(g["targets"]))
                                        for g in obj["gates"]))


class CircuitWorkload:
    def __init__(self, workdir: Path, seed: int):
        self.work = workdir
        self.items = json.loads((workdir / "inputs.json").read_text())
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)
        self.seed = seed

    def files(self, item: dict) -> dict:
        o = self.out
        return {"circuit": self.work / item["circuit"], "proof": o / "p.proof",
                "nf": o / "nf.proof", "semantics": o / "sem.json", "run": o / "run.json",
                "extract": o / "ext.json"}

    def argv(self, op: str, item: dict, f: dict) -> list:
        return {
            "encode": ["encode", f["circuit"], "-o", f["proof"]],
            "check": ["check", f["proof"]],
            "normalize": ["normalize", f["proof"], "-o", f["nf"]],
            "semantics": ["semantics", f["proof"], "-o", f["semantics"]],
            "run": ["run", f["proof"], "--input", f"|{item['label']}>", "-o", f["run"]],
            "extract": ["extract", f["proof"], "-o", f["extract"]],
        }[op]

    def process(self, item: dict, ledger: Ledger, tracer: Tracer | None = None,
                record: dict | None = None) -> None:
        f = self.files(item)
        for key in ("proof", "nf", "semantics", "run", "extract"):
            f[key].unlink(missing_ok=True)
        outputs = {}
        for op in CLI_OPS:
            argv = self.argv(op, item, f)
            if tracer is None:
                outputs[op] = ledger.timed(op, call_cli, argv)
            else:
                tracer.results.clear()
                with instrument(tracer), tracer.span(f"cli.{op}"):
                    outputs[op] = ledger.timed(op, call_cli, argv)
                if outputs[op] is not FAILED and op != "encode":
                    decompose(tracer, op, dict(tracer.results), record)
            if record is not None and outputs[op] is not FAILED:
                record.setdefault("latency_s", {})[op] = ledger.latency[op][-1]
        self.verify(item, f, outputs, tracer)
        if record is not None:
            record["proof_bytes"] = f["proof"].stat().st_size if f["proof"].exists() else None

    def verify(self, item: dict, f: dict, outputs: dict, tracer: Tracer | None) -> None:
        circ = oracle_circuit(json.loads(f["circuit"].read_text()))
        m = circ.n_qubits
        with maybe_span(tracer, "circuits.oracle"):
            u = circuit_unitary(circ).data
        if outputs["check"] is not FAILED:
            want = f"ok: |- {'<> ' * m}~a, {'[] ' * m}a\n"
            if outputs["check"] != want:
                raise Mismatch(f"check printed {outputs['check'][:80]!r}, want {want!r}")
        if outputs["normalize"] is not FAILED:
            nf = parse_proof(f["nf"].read_text())
            if not check(nf).ok or find_redexes(nf):
                raise Mismatch("normal form fails check or has redexes left")
            (k, ctx), = negative_entries(nf)
            expect_close("semantics of the normal form",
                         semantics_relative(nf, k, ctx).unitary.data, u)
        if outputs["semantics"] is not FAILED:
            got = json.loads(f["semantics"].read_text())
            expect_close("semantics", json_complex(got["matrix"]), u)
        if outputs["run"] is not FAILED:
            got = json.loads(f["run"].read_text())
            want = basis_state(item["label"])
            with maybe_span(tracer, "circuits.oracle"):
                want = simulate(circ, want).amplitudes
            expect_close("run", json_complex(got["state"]), want)
        if outputs["extract"] is not FAILED:
            ext = circuit_from_json(f["extract"].read_text())
            reg = random_register(np.random.default_rng(item["id"]), m)
            with maybe_span(tracer, "circuits.oracle"):
                got = simulate(ext, reg).amplitudes
            expect_close("extracted circuit", got, u @ reg.amplitudes)

    def probe(self, probe: dict) -> str:
        path = self.out / "probe.proof"
        path.write_text(probe["text"])
        try:
            call_cli([probe["command"], path, "-o", self.out / "probe.out"])
        except CliExit as e:
            return f"exit{e.code}"
        except Exception as e:  # the outcome is the class; probes exist to show these
            return type(e).__name__
        return "exit0"


# ---------------------------------------------------------------------------
# corpus: the library calls behind the CLI, over many small proofs


class CorpusWorkload:
    def __init__(self, workdir: Path, seed: int):
        self.items = [{"id": k, "text": line} for k, line in
                      enumerate((workdir / "corpus.txt").read_text().splitlines())]
        self.seed = seed

    def process(self, item: dict, ledger: Ledger, tracer: Tracer | None = None,
                record: dict | None = None) -> None:
        lib = tracer.lib if tracer else UNTRACED
        rng = np.random.default_rng([self.seed, item["id"]])
        text = item["text"]

        def op(name, fn, *args, **kwargs):
            if tracer is None:
                return ledger.timed(name, fn, *args, **kwargs)
            with instrument(tracer), tracer.span(f"op.{name}"):
                return ledger.timed(name, fn, *args, **kwargs)

        def roundtrip():
            p = lib.parse_proof(text)
            return p, lib.print_proof(p)

        got = op("roundtrip", roundtrip)
        if got is FAILED:
            return
        proof, printed = got
        if printed != text:
            raise Mismatch(f"print(parse(text)) differs for proof {item['id']}")
        report = op("check", lib.check, proof)
        if report is not FAILED and not report.ok:
            raise Mismatch(f"check rejected generated proof {item['id']}: {report}")

        # normalize's default step bound, 2**rule_count, is too small for a
        # few generated proofs (probe (a) shows it); the proof's weight, which
        # every step must lower, is a bound no reduction can exceed
        bound = weight(proof)
        trace = op("normalize", lib.normalize, proof, bound=bound)
        canon = FAILED
        if trace is not FAILED:
            if tracer is not None:
                decompose(tracer, "normalize", {"proofs.parse_proof": proof,
                                                "cutelim.normalize": trace, "bound": bound},
                          record, time_canonical=False)
            canon = op("canonical_form", lib.canonical_form, trace.final)
        alts = []
        for s in range(CORPUS_RANDOM_STRATEGIES):
            alt = op("normalize_random", lib.normalize, proof, strategy="random", seed=s,
                     bound=bound)
            if alt is not FAILED:
                alts.append(op("canonical_form", lib.canonical_form, alt.final))

        entries = [(k, c) for k, c in negative_entries(proof)
                   if depth(c) <= CORPUS_MAX_ENTRY_QUBITS]
        checks = []
        for k, ctx in entries:
            n = depth(ctx)
            sem = op("semantics", lib.semantics_relative, proof, k, ctx)
            if tracer is not None and sem is not FAILED:
                decompose(tracer, "semantics", {"proofs.parse_proof": proof, "entry": (k, ctx)},
                          record)
            runs = []
            for _ in range(CORPUS_REGISTERS):
                reg = random_register(rng, n)

                def machine():
                    graph = lib.OccurrenceGraph(proof)
                    return lib.run(graph, lib.initial_state(graph, k, ctx, reg))

                res = op("run", machine)
                if tracer is not None and res is not FAILED:
                    decompose(tracer, "run", dict(tracer.results, entry=(k, ctx)), record)
                runs.append((reg, res))
            ext = op("extract", lambda: lib.circuit_to_json(lib.extract(proof, k, ctx)))
            if tracer is not None and ext is not FAILED:
                decompose(tracer, "extract", {"proofs.parse_proof": proof, "entry": (k, ctx)},
                          record)
            enc = FAILED
            if ext is not FAILED:
                enc = op("encode", encode_text, lib, ext)
            checks.append((k, ctx, sem, runs, ext, enc))

        if record is not None:
            record.update(rules=len(proof_nodes(proof)), spine_depth=spine_depth(proof),
                          qubits=max((depth(c) for _, c in negative_entries(proof)), default=0),
                          entries=len(entries),
                          proof_bytes=len(text),
                          gates=sum(isinstance(x, QRule) for x in proof_nodes(proof)))
            record["steps"] = len(trace.steps) if trace is not FAILED else None
            record["events"] = sum(len(s.events) for _, _, s, _, _, _ in checks
                                   if s is not FAILED)
            record["max_gate_qubits"], record["gate_bytes"] = gate_dims(
                proof, *([trace.final] if trace is not FAILED else []))
        self.verify(proof, trace, canon, alts, checks, tracer)

    def verify(self, proof, trace, canon, alts, checks, tracer) -> None:
        if trace is not FAILED:
            nf = trace.final
            if find_redexes(nf) or not check(nf).ok:
                raise Mismatch("normal form fails check or has redexes left")
            if canon is not FAILED and any(not proofs_equal(canon, a) for a in alts):
                raise Mismatch("random-strategy normal forms disagree modulo canonical_form")
            perm = compose_perms(trace.perms, len(proof.conclusion))
        # simulate on each entry's random registers; a matrix that maps three
        # random vectors like the oracle's does is the oracle's matrix
        for k, ctx, sem, runs, ext, enc in checks:
            if ext is FAILED:
                continue
            circ = circuit_from_json(ext)
            for idx, (reg, res) in enumerate(runs):
                with maybe_span(tracer, "circuits.oracle"):
                    want = simulate(circ, reg).amplitudes
                if sem is not FAILED:
                    expect_close("semantics", sem.unitary.data @ reg.amplitudes, want)
                if res is not FAILED:
                    expect_close("run", res.final.register.amplitudes, want)
                if idx:
                    continue
                if trace is not FAILED and preserves_entry(proof):
                    graph = OccurrenceGraph(nf)
                    got = run(graph, initial_state(graph, perm[k - 1], ctx, reg))
                    expect_close("semantics of the normal form", got.final.register.amplitudes,
                                 want)
                if enc is not FAILED:
                    ep, text = enc
                    if text != inputs.proof_text(ep):
                        raise Mismatch("encode printed another proof than it built")
                    (ek, ectx), = negative_entries(ep)
                    graph = OccurrenceGraph(ep)
                    got = run(graph, initial_state(graph, ek, ectx, reg))
                    expect_close("encoded circuit", got.final.register.amplitudes, want)

    @staticmethod
    def probe(probe: dict) -> str:
        try:
            trace = normalize(parse_proof(probe["text"]))
        except Exception as e:  # the outcome is the class; probes exist to show these
            return type(e).__name__
        return f"steps{len(trace.steps)}"


def encode_text(lib, circuit_json: str):
    """What `qmll encode` does after reading its file; returns the proof and its text."""
    p = lib.encode(lib.circuit_from_json(circuit_json))
    return p, lib.print_proof(p)


def preserves_entry(p) -> bool:
    """The proofs on which the acceptance suite checks semantic invariance (criterion 7)."""
    return len(p.conclusion) == 2 and all(leading_run(f)[1] for f in p.conclusion)


# ---------------------------------------------------------------------------
# traced decomposition of one operation, from the spans' captured results


def decompose(tracer: Tracer, op: str, results: dict, record: dict | None,
              time_canonical: bool = True) -> None:
    """Split an operation's library time the way the per-layer metrics need.

    Runs after the operation, under a `decompose.<op>` span, on the objects
    its own calls returned. `run` re-routes without a register on the graph
    the operation built; `semantics` and `extract` rebuild the graph and
    re-route, so the per-layer metrics can subtract both from the span that
    hid them. `normalize` is replayed through its public parts.
    """
    proof = results["proofs.parse_proof"]
    counts = tracer.counts
    with tracer.span(f"decompose.{op}"):
        if op == "check" and record is not None:
            record.update(rules=len(proof_nodes(proof)), spine_depth=spine_depth(proof))
        if op == "normalize":
            trace = results["cutelim.normalize"]
            got = replay_normalize(tracer, proof, results.get("bound"))
            if got["kinds"] != [s.redex.kind for s in trace.steps] or not proofs_equal(
                    got["final"], trace.final):
                raise Mismatch("replaying normalize gave another reduction")
            if time_canonical:
                with tracer.span("cutelim.canonical_form"):
                    canonical_form(trace.final)
            counts["cutelim.steps"] += len(trace.steps)
            for s in trace.steps:
                counts[f"cutelim.steps.{s.redex.kind}"] += 1
            counts["cutelim.nodes_rebuilt"] += got["nodes_rebuilt"]
            if record is not None:
                record["steps"] = len(trace.steps)
                record["max_gate_qubits"], record["gate_bytes"] = gate_dims(proof, trace.final)
        if op in ("run", "semantics", "extract"):
            k, ctx = results.get("entry") or negative_entries(proof)[0]
            if op == "run":
                graph = results["qiam.OccurrenceGraph"]
            else:
                with tracer.span("qiam.OccurrenceGraph"):
                    graph = OccurrenceGraph(proof)
            with maybe_span(tracer if op != "run" else None, "qiam.initial_state"):
                start = initial_state(graph, k, ctx)
            with tracer.span("qiam.route"):
                routed = run(graph, start)
            counts["qiam.route_steps"] += routed.steps
            counts["qiam.events"] += len(routed.events)
            if record is not None and op == "semantics":
                record["events"] = record.get("events", 0) + len(routed.events)
