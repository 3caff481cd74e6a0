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

import hashlib
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


def writer_digests(tmp_path: Path, capsys, name: str) -> dict[str, str]:
    """The sha256 of the stdout of `encode`, `semantics`, `run` on |0…0> and on |1…1>,
    and `extract`."""
    seed, n, gates = CASES[name]
    circuit, proof = tmp_path / f"{name}.json", tmp_path / f"{name}.proof"
    circuit.write_text(random_circuit(seed, n, gates))
    commands = {
        "encode": ["encode", str(circuit)],
        "semantics": ["semantics", str(proof)],
        "run |0…0>": ["run", str(proof), "--input", f"|{'0' * n}>"],
        "run |1…1>": ["run", str(proof), "--input", f"|{'1' * n}>"],
        "extract": ["extract", str(proof)],
    }
    capsys.readouterr()
    digests = {}
    for command, argv in commands.items():
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "encode":
            proof.write_text(out)
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    return digests


WRITTEN = {  # name -> command -> sha256 of its stdout, recorded while `render_rows` formatted
    # each distinct double on its own
    "deep-3q-120g": {
        "encode": "fb6b1ba491a19f2a6c00c12d9268e530c546bfd4894cbfd56d46eabd90e1f8f6",
        "semantics": "afb469cfb772db0ed598dac09cb46211eea695a6b0d8c2031e1a4de0caa2ae00",
        "run |0…0>": "462a06eb39a6ee2c9e8925d513ac34ca738ce042076be5954138da9ee1dbe6bf",
        "run |1…1>": "e790fd47624b92ee69477966c870e11694d73f98b745bd7bfefe6ba018f514f2",
        "extract": "1f4dd1bf36ef0b8697388fde698f1e890490482abbf043d28f81163bc6c75199",
    },
    "wide-7q-30g": {
        "encode": "16d3c7966c6e87e566632b692794692cd8d4c78e5de93126af2d7e96e28682a7",
        "semantics": "969f03a618b76cc89d71b6ddd9273fa310dc984375854e9634142807f82c0978",
        "run |0…0>": "04d4dfb278e684230b078dfbbdaf0f6afeb9c862591efa493c4e617d91c5c7b0",
        "run |1…1>": "ff50173dc22d3f4e155aff002236c9a982b4cfcc52e397867bddff34577caf58",
        "extract": "9367c2f8d987e7d6ac51072464cef680475204b29316f56b672078b9ed43116b",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writers_print_the_recorded_bytes(tmp_path, capsys, name):
    assert writer_digests(tmp_path, capsys, name) == WRITTEN[name]
