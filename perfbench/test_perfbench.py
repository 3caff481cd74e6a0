"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from qmll import circuit_from_json, encode, normalize, parse_proof, proofs_equal  # noqa: E402
from qmll import cli  # noqa: E402


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["wide", "deep", "corpus"])
def test_inputs_are_byte_identical_for_a_seed(tmp_path, workload):
    inputs.write_inputs(workload, 5, tmp_path / "a")
    inputs.write_inputs(workload, 5, tmp_path / "b")
    inputs.write_inputs(workload, 6, tmp_path / "c")
    a = tree_bytes(tmp_path / "a")
    assert a == tree_bytes(tmp_path / "b")
    assert a != tree_bytes(tmp_path / "c")


def test_cnot_spans_follow_the_pair_distribution():
    assert inputs.cnot_spans(3, 3) == [2, 2, 3]  # 2 of the 3 pairs have span 2
    spans = inputs.cnot_spans(8, 280)
    assert [spans.count(s) for s in range(2, 9)] == [70, 60, 50, 40, 30, 20, 10]


def test_corpus_text_round_trips_through_the_parser():
    for p in inputs.random_corpus(3, 200):
        text = inputs.proof_text(p)
        assert proofs_equal(parse_proof(text), p)


def sample_proofs():
    out = inputs.random_corpus(11, 60)
    for slot in range(2):
        circ = inputs.random_circuit(random.Random(f"test:{slot}"), *inputs.SHAPES["deep"])
        out.append(encode(circuit_from_json(json.dumps(circ))))
    return out


def test_replay_matches_normalize_on_a_sample():
    replayed = 0
    for p in sample_proofs():
        try:
            trace = normalize(p)
        except Exception as e:  # defect (a) shows on a few generated proofs
            assert "step bound" in str(e)
            continue
        got = tracing.replay_normalize(tracing.Tracer(), p)
        assert got["kinds"] == [s.redex.kind for s in trace.steps]
        assert proofs_equal(got["final"], trace.final)
        replayed += 1
    assert replayed > 40


def test_probe_outcomes_are_classified(tmp_path):
    inputs.write_inputs("deep", 1, tmp_path)
    runners = {"deep": wl.CircuitWorkload(tmp_path, 1), "corpus": wl.CorpusWorkload}
    for workload, runner in runners.items():
        for probe in inputs.PROBES[workload]:
            outcome = runner.probe(probe)
            # the correct outcome, or the defect documented for it; anything
            # else means the probe table is out of date
            assert outcome in (probe["expect"], probe["defect"]), (probe["name"], outcome)


def test_instrument_swaps_and_restores_the_cli_functions():
    assert not tracing.is_instrumented()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert tracing.is_instrumented()
        cli.parse_proof("(ax a)")
    assert not tracing.is_instrumented()
    names = [s[0] for s in tracer.spans]
    assert names == ["proofs.parse_proof", "tokens.tokenize"]
    assert tracer.spans[1][3] == 0  # tokenize's parent is parse_proof


def test_untraced_processing_records_no_spans(tmp_path, monkeypatch):
    inputs.write_inputs("deep", 2, tmp_path)
    runner = wl.CircuitWorkload(tmp_path, 2)
    seen = []

    def spy(self, name):
        seen.append(name)
        raise AssertionError("a span was opened in an untraced pass")

    monkeypatch.setattr(tracing.Tracer, "span", spy)
    ledger = wl.Ledger()
    runner.process(runner.items[0], ledger, record={})
    assert not tracing.is_instrumented() and not seen
    assert ledger.attempted == len(wl.CLI_OPS) and ledger.failed == 0


def run_bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_emits_every_per_layer_metric():
    res = run_bench(HERE.parent, "--workload", "corpus", "--seed", "3", "--seconds", "0.3",
                    "--trace", "1")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # the probes stay out of the result line but are named in the record
    record = json.loads((HERE.parent / ".perfbench" / "corpus-seed3-trace1.json").read_text())
    assert {p["outcome"] for p in record["probes"]} <= {"MachineError", "steps3", "steps10"}
    assert record["failed_ratio"] == record["probes_failed"] / (
        record["attempted"] + record["probes_attempted"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = run_bench(tmp_path, "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert "{" not in res.stdout
