"""Spans recorded from outside the program, around calls into its modules.

A `Tracer` keeps spans in memory: name, start, end, parent span and input
id. `instrument` swaps the public functions the CLI calls for wrappers that
open a span, and swaps them back on exit; untraced runs never call it, so
they run the program's own functions. Layer self time is a span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

from qmll import circuits, cli, cutelim, proofs, qiam, tokens

# public functions each operation calls, by the span name they are recorded as
LIBRARY = {
    "parse_proof": ("proofs.parse_proof", proofs.parse_proof),
    "check": ("proofs.check", proofs.check),
    "print_proof": ("proofs.print_proof", proofs.print_proof),
    "normalize": ("cutelim.normalize", cutelim.normalize),
    "canonical_form": ("cutelim.canonical_form", cutelim.canonical_form),
    "semantics_relative": ("qiam.semantics_relative", qiam.semantics_relative),
    "OccurrenceGraph": ("qiam.OccurrenceGraph", qiam.OccurrenceGraph),
    "initial_state": ("qiam.initial_state", qiam.initial_state),
    "run": ("qiam.run", qiam.run),
    "encode": ("circuits.encode", circuits.encode),
    "extract": ("circuits.extract", circuits.extract),
    "circuit_from_json": ("circuits.circuit_from_json", circuits.circuit_from_json),
    "circuit_to_json": ("circuits.circuit_to_json", circuits.circuit_to_json),
}
# the names among them that qmll.cli imports, which instrument() swaps
CLI_NAMES = tuple(key for key in LIBRARY if hasattr(cli, key))
_TOKENIZE = tokens.tokenize


class Mismatch(Exception):
    """An output disagrees with its reference; the run fails."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, input id]
        self.stack: list[int] = []
        self.input_id = None
        self.results: dict[str, object] = {}  # last return value per span name
        self.counts: Counter = Counter()
        self.lib = library(self)
        self.tokenize = self.wrap("tokens.tokenize", _TOKENIZE)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
               self.input_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.results[name] = out
            return out
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, input_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "input": input_id}) + "\n")


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def library(tracer: Tracer | None) -> SimpleNamespace:
    """The public functions, wrapped in spans when a tracer is given."""
    return SimpleNamespace(**{
        key: tracer.wrap(name, fn) if tracer else fn for key, (name, fn) in LIBRARY.items()})


@contextlib.contextmanager
def instrument(tracer: Tracer | None):
    """Record spans around tokenize and around each library call the CLI makes.

    Entered around single operations only, so that checks made outside the
    timed region never show up as layer time. A None tracer does nothing.
    """
    if tracer is None:
        yield
        return
    saved = [(tokens, "tokenize", tokens.tokenize)]
    saved += [(cli, key, getattr(cli, key)) for key in CLI_NAMES]

    def tokenize(text):
        toks = tracer.tokenize(text)
        tracer.counts["tokens.count"] += len(toks)
        tracer.counts["tokens.bytes"] += len(text)
        return toks

    tokens.tokenize = tokenize
    for key in CLI_NAMES:
        setattr(cli, key, getattr(tracer.lib, key))
    try:
        yield
    finally:
        for module, key, fn in saved:
            setattr(module, key, fn)


def is_instrumented() -> bool:
    return tokens.tokenize is not _TOKENIZE or any(
        getattr(cli, key) is not LIBRARY[key][1] for key in CLI_NAMES)


def self_times(spans: list[list]) -> tuple[dict[str, float], list[float]]:
    """Total self time per span name, and each span's own self time."""
    own = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    total: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(spans, own):
        total[name] += s
    return total, own


# ---------------------------------------------------------------------------
# per-layer metrics, per input processed

SELF_TIMES = {  # metric -> spans whose self time it sums
    "tokens.tokenize_s": ("tokens.tokenize",),
    "proofs.parse_s": ("proofs.parse_proof",),
    "proofs.check_s": ("proofs.check",),
    "proofs.print_s": ("proofs.print_proof",),
    "circuits.from_json_s": ("circuits.circuit_from_json",),
    "circuits.to_json_s": ("circuits.circuit_to_json",),
    "circuits.encode_s": ("circuits.encode",),
    "circuits.oracle_s": ("circuits.oracle",),
    "cutelim.normalize_s": ("cutelim.normalize",),
    "cutelim.find_redexes_s": ("cutelim.find_redexes",),
    "cutelim.step_s": ("cutelim.step",),
    "cutelim.weight_s": ("cutelim.weight",),
    "cutelim.rule_count_s": ("cutelim.rule_count",),
    "cutelim.canonical_form_s": ("cutelim.canonical_form",),
    "qiam.graph_s": ("qiam.OccurrenceGraph", "qiam.initial_state"),
    "qiam.route_s": ("qiam.route",),
}
REDEX_KINDS = ("EtaExpand", "AxiomRed", "QContract", "MultPrincipal", "QuantumPrincipal",
               "CommutePar", "CommuteTensorLeft", "CommuteTensorRight")
COUNTS = ("tokens.count", "tokens.bytes", "cutelim.steps",
          *(f"cutelim.steps.{k}" for k in REDEX_KINDS),
          "cutelim.nodes_rebuilt", "qiam.route_steps", "qiam.events")


def layer_metrics(tracer: Tracer, n_inputs: int, records: list[dict]) -> dict:
    """Self time and counts per layer, per input; name -> (value, unit)."""
    total, own = self_times(tracer.spans)
    names = [s[0] for s in tracer.spans]
    # time a decompose.<op> span re-measured, to subtract from the span that hid it
    hidden: dict[str, float] = defaultdict(float)
    for idx, (name, _, _, parent, _) in enumerate(tracer.spans):
        if parent is not None and names[parent].startswith("decompose."):
            if name.startswith("qiam."):
                hidden[names[parent]] += own[idx]
    per = 1.0 / n_inputs
    out = {m: (sum(total[s] for s in spans) * per, "s/input") for m, spans in SELF_TIMES.items()}
    out["circuits.extract_s"] = ((total["circuits.extract"] - hidden["decompose.extract"]) * per,
                                 "s/input")
    out["qiam.apply_s"] = ((total["qiam.run"] - hidden["decompose.run"]) * per, "s/input")
    out["qiam.compose_s"] = ((total["qiam.semantics_relative"] - hidden["decompose.semantics"])
                             * per, "s/input")
    out["cli.self_s"] = (sum(s for name, s in zip(names, own) if name.startswith(("cli.", "op.")))
                         * per, "s/input")
    for name in COUNTS:
        unit = "B/input" if name == "tokens.bytes" else "count/input"
        out[name] = (tracer.counts[name] * per, unit)

    def values(key):
        return [r[key] for r in records if r.get(key) is not None]

    out["proofs.rules"] = (statistics.fmean(values("rules")), "count")
    out["proofs.spine_depth"] = (statistics.fmean(values("spine_depth")), "count")
    out["matrices.max_gate_qubits"] = (max(values("max_gate_qubits")), "qubits")
    out["matrices.gate_bytes"] = (max(values("gate_bytes")), "B")
    return out


# ---------------------------------------------------------------------------
# replaying normalize through its public parts


def proof_nodes(p) -> list:
    out, stack = [], [p]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(proofs.children(node))
    return out


def replay_normalize(tracer: Tracer, p, bound: int | None = None) -> dict:
    """Run normalize's leftmost loop through find_redexes, step, weight and rule_count.

    Calls are made in normalize's order and each is recorded as a span;
    `bound` is the one normalize was given. The result carries the final
    proof, the redex kinds fired, and how many nodes of each reduct are new
    objects.
    """
    span = tracer.span
    if bound is not None:
        limit = bound
    else:
        with span("cutelim.rule_count"):
            limit = 2 ** cutelim.rule_count(p)
    with span("cutelim.weight"):
        w_cur = cutelim.weight(p)
    cur, kinds, rebuilt = p, [], 0
    while True:
        with span("cutelim.find_redexes"):
            redexes = cutelim.find_redexes(cur)
        if not redexes:
            return {"final": cur, "kinds": kinds, "nodes_rebuilt": rebuilt}
        r = redexes[0]
        with span("cutelim.step"):
            nxt, _ = cutelim.step(cur, r)
        with span("cutelim.weight"):
            w_nxt = cutelim.weight(nxt)
        if w_nxt >= w_cur:
            raise Mismatch(f"replay: weight failed to decrease on {r}")
        with span("cutelim.rule_count"):
            cutelim.rule_count(cur)
        old = {id(n) for n in proof_nodes(cur)}
        rebuilt += sum(1 for n in proof_nodes(nxt) if id(n) not in old)
        kinds.append(r.kind)
        cur, w_cur = nxt, w_nxt
        if len(kinds) > limit:
            raise Mismatch("replay: exceeded the step bound")
