"""`qmll normalize --trace` output, byte for byte, on two seeded circuits.

The files under `golden/` were recorded with the recursive, unmemoized
normalizer; the memoized one must reproduce every trace line and every
character of the normal form. The `*.random7.trace` files were recorded
with `--strategy random --seed 7` while that strategy still picked from
`find_redexes` and fired with `step`; its normal forms are the leftmost
ones, byte for byte. The `*.machine.trace` files are the stderr of
`qmll run --trace-machine` on the encoded circuits, recorded while the
path-keyed `step_machine` still stood beside `run`.
"""

from pathlib import Path

import pytest

from qmll.cli import main

from gen import random_circuit

GOLDEN = Path(__file__).parent / "golden"
CASES = {  # name -> (seed, qubits, gates)
    "deep-3q-120g": (7001, 3, 120),
    "wide-7q-30g": (7002, 7, 30),
}


def normalize_outputs(tmp_path: Path, capsys, name: str, *options: str) -> tuple[str, str]:
    """The stderr trace and the normal-form text of `qmll normalize --trace [options]`."""
    circuit, proof, nf = (tmp_path / f"{name}.{ext}" for ext in ("json", "proof", "nf"))
    circuit.write_text(random_circuit(*CASES[name]))
    assert main(["encode", str(circuit), "-o", str(proof)]) == 0
    capsys.readouterr()
    assert main(["normalize", str(proof), "--trace", *options, "-o", str(nf)]) == 0
    return capsys.readouterr().err, nf.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_normalize_trace_and_normal_form_match_golden(tmp_path, capsys, name):
    trace, nf = normalize_outputs(tmp_path, capsys, name)
    assert trace == (GOLDEN / f"{name}.trace").read_text()
    assert nf == (GOLDEN / f"{name}.nf").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_random_strategy_trace_and_normal_form_match_golden(tmp_path, capsys, name):
    trace, nf = normalize_outputs(tmp_path, capsys, name, "--strategy", "random", "--seed", "7")
    assert trace == (GOLDEN / f"{name}.random7.trace").read_text()
    assert nf == (GOLDEN / f"{name}.nf").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_trace_matches_golden(tmp_path, capsys, name):
    circuit, proof = tmp_path / f"{name}.json", tmp_path / f"{name}.proof"
    circuit.write_text(random_circuit(*CASES[name]))
    assert main(["encode", str(circuit), "-o", str(proof)]) == 0
    capsys.readouterr()
    assert main(["run", str(proof), "--trace-machine"]) == 0
    assert capsys.readouterr().err == (GOLDEN / f"{name}.machine.trace").read_text()
