import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qmll.cli import main

FIG4_JSON = ('{"qubits": 2, "gates": ['
             '{"gate": "H", "targets": [1]}, {"gate": "Z", "targets": [1]},'
             '{"gate": "X", "targets": [2]}, {"gate": "CNOT", "targets": [1, 2]}]}')


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_check_ok(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["check", f]) == 0
    assert "<> ~a, [] a" in capsys.readouterr().out


def test_check_failure_exit_1(tmp_path, capsys):
    f = write(tmp_path, "bad.proof", "(q 1 H (par 1 3 (tensor 1 1 (ax a) (ax [] b))))")
    assert main(["check", f]) == 1
    err = capsys.readouterr().err
    assert "modal" in err and "root" in err


def test_syntax_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.proof", "(ax a")
    assert main(["check", f]) == 2


def test_normalize_writes_proof(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(cut 2 1 (q 1 H (ax a)) (q 1 H (ax a)))")
    out = str(tmp_path / "n.proof")
    assert main(["normalize", f, "-o", out, "--trace"]) == 0
    text = (tmp_path / "n.proof").read_text().strip()
    assert text.startswith("(q 1 (mat ")
    assert "QuantumPrincipal" in capsys.readouterr().err


def test_normalize_deterministic_given_seed(tmp_path, capsys):
    f = write(tmp_path, "p.proof",
              "(cut 2 1 (q 1 I1 (q 1 H (ax a))) (q 1 X (q 1 Z (ax a))))")
    assert main(["normalize", f, "--strategy", "random", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["normalize", f, "--strategy", "random", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_encode_then_semantics_pipeline(tmp_path, capsys):
    cj = write(tmp_path, "fig4.json", FIG4_JSON)
    proof_file = str(tmp_path / "fig4.proof")
    assert main(["encode", cj, "-o", proof_file]) == 0
    assert main(["semantics", proof_file, "--context", "auto"]) == 0
    out = json.loads(capsys.readouterr().out)
    got = np.array([[complex(e[0], e[1]) for e in row] for row in out["matrix"]])
    from qmll import gate_by_name
    H, Z, X, CNOT = (gate_by_name(g).data for g in ("H", "Z", "X", "CNOT"))
    oracle = CNOT @ np.kron(Z, X) @ np.kron(H, np.eye(2))
    assert np.max(np.abs(got - oracle)) <= 1e-8
    assert out["entry"] == 1 and out["exit"] == 2 and out["dim_qubits"] == 2


def test_run_with_basis_input(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 I1 (q 1 H (q 1 I1 (ax a))))")
    assert main(["run", f, "--input", "|000>"]) == 0
    out = json.loads(capsys.readouterr().out)
    amps = [complex(e[0], e[1]) for e in out["state"]]
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b010] = 1 / np.sqrt(2)
    assert np.max(np.abs(np.array(amps) - want)) <= 1e-12


@pytest.mark.parametrize("register", ["[[1]]", "5", '[["a",0]]', '{"x":1}', "[[1"])
def test_run_malformed_input_exits_2(tmp_path, capsys, register):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["run", f, "--input", register]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_run_explicit_context_path(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["run", f, "--context", "1.L", "--input", "|0>"]) == 0
    out = json.loads(capsys.readouterr().out)
    amps = np.array([complex(e[0], e[1]) for e in out["state"]])
    assert np.max(np.abs(amps - np.array([1, 1]) / np.sqrt(2))) <= 1e-12


def test_extract_pipeline(tmp_path, capsys):
    cj = write(tmp_path, "fig4.json", FIG4_JSON)
    proof_file = str(tmp_path / "fig4.proof")
    main(["encode", cj, "-o", proof_file])
    assert main(["extract", proof_file, "--prune-identity"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["qubits"] == 2
    assert sorted(g["gate"] for g in out["gates"]) == ["CNOT", "H", "X", "Z"]


def test_run_trace_machine(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["run", f, "--trace-machine"]) == 0
    err = capsys.readouterr().err
    assert "<> ~a" in err and "apply H at offset 0" in err


def test_mll_matrix_cli(tmp_path, capsys):
    pi = write(tmp_path, "pi.proof", "(par 2 1 (par 1 2 (tensor 2 2 (ax a) (ax a))))")
    assert main(["mll-matrix", pi]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_mll_matrix_rejects_cuts(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(cut 2 1 (ax a) (ax a))")
    assert main(["mll-matrix", f]) == 1


def test_outputs_idempotent(tmp_path, capsys):
    cj = write(tmp_path, "fig4.json", FIG4_JSON)
    assert main(["encode", cj]) == 0
    first = capsys.readouterr().out
    assert main(["encode", cj]) == 0
    assert capsys.readouterr().out == first


def test_normalize_idempotent_on_own_output(tmp_path, capsys):
    f = write(tmp_path, "p.proof",
              "(cut 2 1 (q 1 I1 (q 1 H (ax a))) (q 1 X (q 1 Z (ax a))))")
    out1 = str(tmp_path / "n1.proof")
    assert main(["normalize", f, "-o", out1]) == 0
    assert main(["normalize", out1]) == 0
    assert capsys.readouterr().out.strip() == (tmp_path / "n1.proof").read_text().strip()


def test_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/file.proof"]) == 2


CONTEXT_ERRORS = [  # (proof, extra arguments, message)
    ("(tensor 1 1 (ax a) (ax b))", ["--context", "auto"],
     "--context auto needs exactly one negative context, found 2"),
    ("(tensor 1 1 (ax a) (ax b))", ["--entry", "1"],
     "--context auto needs exactly one negative context, found 0"),
    ("(q 1 H (ax a))", ["--context", "x.L"],
     "context path must start with a formula index: 'x.L'"),
    ("(q 1 H (ax a))", ["--context", "3.L"], "formula index 3 out of range"),
    ("(q 1 H (ax a))", ["--context", "1.L", "--entry", "2"],
     "--entry 2 conflicts with context path index 1"),
    ("(q 1 H (ax a))", ["--context", "1.L.L"], "context path descends below an atom"),
    ("(q 1 H (ax a))", ["--context", "1.R"], "'R' only descends binary connectives"),
    ("(q 1 H (ax a))", ["--context", "1.X"], "bad context path segment 'X' (use L or R)"),
    ("(q 1 H (ax a))", ["--context", "1"], "context path must end at an atom"),
]


@pytest.mark.parametrize("command", ["semantics", "run", "extract"])
@pytest.mark.parametrize("text,extra,message", CONTEXT_ERRORS)
def test_context_errors_exit_1(tmp_path, capsys, command, text, extra, message):
    f = write(tmp_path, "p.proof", text)
    assert main([command, f, *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


OVER_CAP = [  # (command, proof): each builds a 4-qubit gate first
    ("normalize", "(ax [] [] [] [] a)"),  # eta expansion: I4
    ("normalize", "(q 2 CNOT (q 2 CNOT (ax a)))"),  # QContract: CNOT (x) CNOT
    ("check", "(q 4 I4 (ax a))"),
    ("check", "(q 4 (mat " + " ".join(
        "[" + ",".join("[1,0]" if c == r else "[0,0]" for c in range(16)) + "]"
        for r in range(16)) + ") (ax a))"),
]


@pytest.mark.parametrize("command,text", OVER_CAP)
def test_gates_over_the_qubit_cap_exit_1(tmp_path, capsys, monkeypatch, command, text):
    f = write(tmp_path, "p.proof", text)
    assert main(["check", f]) == 0  # well-formed under the default cap
    capsys.readouterr()
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    assert main([command, f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4 qubits exceeds the configured cap of 3\n"


WRONG_SHAPED_CIRCUITS = [  # well-formed JSON whose values have the wrong JSON type
    '{"qubits": 2, "gates": [5]}',
    '{"qubits": 2, "gates": [{"gate": "H", "targets": 5}]}',
    '{"qubits": "x", "gates": []}',
    '{"qubits": 2, "gates": [{"gate": 5, "targets": [1]}]}',
    '{"qubits": null}',
    '{"qubits": 1e400}',
    '{"qubits": 2, "gates": 5}',
    '{"qubits": 2, "gates": ["targets"]}',
    '{"qubits": 2, "gates": [{"gate": "H", "targets": [[1]]}]}',
    '{"qubits": 1, "gates": [{"matrix": 5, "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[1, 0], [0, 1]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[[1]], [[0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[["a", 0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[[1, 0]], [[0, 0], [1, 0]]], "targets": [1]}]}',
]


@pytest.mark.parametrize("text", WRONG_SHAPED_CIRCUITS)
def test_wrong_shaped_circuit_json_exits_1_with_one_line(tmp_path, capsys, text):
    f = write(tmp_path, "c.json", text)
    assert main(["encode", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


NUMPY_MESSAGE = "Unable to allocate 64.0 GiB for an array with shape (65536, 65536)"


@pytest.mark.parametrize("exc,message", [(MemoryError(NUMPY_MESSAGE), NUMPY_MESSAGE),
                                         (MemoryError(), "out of memory")])
def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch, exc, message):
    import qmll.cli

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(qmll.cli, "normalize", exhausted)
    f = write(tmp_path, "p.proof", "(cut 2 1 (q 1 H (ax a)) (q 1 H (ax a)))")
    assert main(["normalize", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", [
    '{"qubits": 2.7, "gates": [{"gate": "H", "targets": [1]}]}',
    '{"qubits": 2, "gates": [{"gate": "CNOT", "targets": "12"}]}',
    '{"qubits": true, "gates": [{"gate": "H", "targets": [1]}]}',
    '{"qubits": 2, "gates": [{"gate": "H", "targets": [1.9]}]}',
])
def test_circuit_json_numbers_must_be_json_integers(tmp_path, capsys, text):
    f = write(tmp_path, "c.json", text)
    assert main(["encode", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad circuit JSON: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["semantics", "run", "extract"])
def test_machine_commands_refuse_a_3000_deep_chain_over_the_cap(tmp_path, capsys, command):
    from qmll import AxiomRule, CutRule, QRule, identity_gate, print_proof
    from qmll.formulas import Atom
    p = CutRule(2, 1, AxiomRule(Atom("a")), AxiomRule(Atom("a")))
    for _ in range(3000):
        p = QRule(1, identity_gate(1), p, flip=True)
    f = write(tmp_path, "chain.proof", print_proof(p))
    assert main([command, f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 3000 qubits exceeds the configured cap of 16\n"


def test_an_axiom_1500_modalities_deep_checks_and_normalize_refuses_it(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QMLL_MAX_QUBITS", raising=False)
    f = write(tmp_path, "boxes.proof", "(ax " + "[] " * 1500 + "a)")
    assert main(["check", f]) == 0
    assert capsys.readouterr().out == "ok: |- " + "<> " * 1500 + "~a, " + "[] " * 1500 + "a\n"
    assert main(["normalize", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1500 qubits exceeds the configured cap of 16\n"


NAN_PROOF = "(q 1 (mat [[1e400,0],[0,0]] [[0,0],[1,0]]) (ax a))"  # 1e400 reads as inf


@pytest.mark.parametrize("command", ["check", "semantics"])
def test_a_matrix_literal_with_an_infinite_entry_is_refused(tmp_path, capsys, command):
    f = write(tmp_path, "nan.proof", NAN_PROOF)
    assert main([command, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("syntax error: bad matrix literal: matrix has a NaN or infinite "
                            "entry (at offset 5)\n")


@pytest.mark.parametrize("text", [
    '{"qubits": 1, "gates": [{"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[{"a": 1}, [0, 0]], [[0, 0], [1, 0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"matrix": [[[1], [0, 0]], [[0, 0], [1, 0]]], "targets": [1]}]}',
    '{"qubits": 1, "gates": [{"gate": "I0", "targets": []}]}',
    "[" * 100000 + "]" * 100000,
])
def test_circuit_json_entries_and_gate_names_are_read_exactly(tmp_path, capsys, text):
    f = write(tmp_path, "c.json", text)
    assert main(["encode", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_run_input_too_deep_or_too_large_exits_2(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    for register in ["[" * 100000 + "]" * 100000, "[[1" + "0" * 400 + ", 0], [0, 0]]"]:
        assert main(["run", f, "--input", register]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input must be ") and err.count("\n") == 1


def test_run_refuses_a_nan_register(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["run", f, "--input", "[[NaN, 0], [0, 0]]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: register is not normalized\n"


def exit_code(argv):
    """`main(argv)`'s exit code, argparse's usage errors included; any other exception escapes."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(st.text(max_size=5), sub, max_size=4),
    max_leaves=12)
# each case below sets QMLL_MAX_QUBITS=3, so that no input can make a gate bigger than 8x8
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(ops=st.lists(st.sampled_from(["[] ", "<> "]), min_size=1, max_size=30),
       n=st.integers(1, 2000), command=st.sampled_from(["check", "semantics", "normalize"]))
def test_deep_modal_axioms_get_an_answer_or_one_error_line(
        tmp_path, capsys, monkeypatch, ops, n, command):
    """An axiom on the first n modalities of `ops` repeated: up to 2000 deep."""
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    f = write(tmp_path, "p.proof", "(ax " + "".join((ops * n)[:n]) + "a)")
    code = exit_code([command, f])
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err
    assert code == 0 or err.startswith("error: ")
    if command == "check":
        assert code == 0


@FUZZ
@given(register=st.text(max_size=20) | JSON.map(json.dumps))
def test_any_run_input_gets_an_answer_or_one_error_line(tmp_path, capsys, monkeypatch, register):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert exit_code(["run", f, f"--input={register}"]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@FUZZ
@given(path=st.text(alphabet="012LRX.-x ", max_size=12) | st.text(max_size=12),
       command=st.sampled_from(["run", "semantics", "extract"]))
def test_any_context_path_gets_an_answer_or_one_error_line(
        tmp_path, capsys, monkeypatch, path, command):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    f = write(tmp_path, "p.proof", "(par 1 2 (tensor 1 1 (q 1 H (ax a)) (ax [] b)))")
    assert exit_code([command, f, f"--context={path}"]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


GATE = st.fixed_dictionaries({}, optional={
    "gate": st.sampled_from(["H", "CNOT", "I0", "I1", "I2", "Q"]) | JSON,
    "targets": st.lists(st.integers(-1, 4), max_size=3) | JSON,
    "matrix": st.lists(st.lists(st.lists(st.integers(-1, 1) | JSON, max_size=3), max_size=3),
                       max_size=3) | JSON})


@FUZZ
@given(circuit=st.fixed_dictionaries({}, optional={
    "qubits": st.integers(-1, 4) | JSON, "gates": st.lists(GATE, max_size=3) | JSON}) | JSON)
def test_any_circuit_json_gets_an_answer_or_one_error_line(tmp_path, capsys, monkeypatch,
                                                            circuit):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    f = write(tmp_path, "c.json", json.dumps(circuit))
    code = exit_code(["encode", f])
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err
    assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("name, content, argv, code, err", [
    ("p.proof", b"\xff(ax a)", ["check"], 2,
     "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    ("p.proof", b"(q 1 H (ax a))", ["run", "--input", "[[1e308,1e308],[1e308,0]]"], 1,
     "error: register is not normalized\n"),
    ("p.proof", b"(q 1 (mat [[1e300,0],[0,0]] [[0,0],[1e300,0]]) (ax a))", ["check"], 2,
     "syntax error: bad matrix literal: matrix is not unitary"),
    ("c.json", b'{"qubits":1,"gates":[{"matrix":[[[1e300,0],[0,0]],[[0,0],[1e300,0]]],'
               b'"targets":[1]}]}', ["encode"], 1, "error: matrix is not unitary"),
    ("p.proof", b"(q 1 H (ax a))", ["run", "--input", "[[true,false],[false,false]]"], 2,
     "error: --input must be a JSON list of [re,im] pairs: "
     "expected an entry [re,im] of two JSON numbers, found [true, false]\n"),
])
def test_undecodable_overflowing_or_boolean_input_writes_one_error_line(
        tmp_path, capsys, name, content, argv, code, err):
    """No numpy warning and no traceback: the error line is all of stderr."""
    f = tmp_path / name
    f.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], str(f), *argv[1:]]) == code
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err) and captured.err.count("\n") == 1


def test_stdin_is_read_as_utf8_like_a_file(tmp_path, capsys, monkeypatch):
    content = b"\xff(ax a)"
    f = tmp_path / "p.proof"
    f.write_bytes(content)
    assert main(["check", str(f)]) == 2
    from_file = capsys.readouterr()
    # stdin's text layer, here Latin-1, must not decide how its bytes are read
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), encoding="latin-1"))
    assert main(["check", "-"]) == 2
    assert capsys.readouterr() == from_file
    assert from_file.err.startswith("error: 'utf-8' codec") and from_file.err.count("\n") == 1


def test_a_file_and_stdin_count_carriage_returns_alike(tmp_path, capsys, monkeypatch):
    content = b"(par 1 2\r\n (tensor 1 1 (ax a) (ax b))\r\n x)"
    f = tmp_path / "p.proof"
    f.write_bytes(content)
    assert main(["check", str(f)]) == 2
    from_file = capsys.readouterr()
    # a POSIX stdin's text layer splits lines at "\n" and keeps each "\r"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), newline="\n"))
    assert main(["check", "-"]) == 2
    assert capsys.readouterr() == from_file
    assert from_file.err == "syntax error: expected ')', found 'x' (at offset 38)\n"


@pytest.mark.parametrize("label", ["|2>", "|>", "|0 1>"])
def test_a_malformed_input_label_exits_2_with_one_line(tmp_path, capsys, label):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["run", f, "--input", label]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --input ") and captured.err.count("\n") == 1


def test_an_input_label_over_the_qubit_cap_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMLL_MAX_QUBITS", "3")
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["run", f, "--input", "|0101>"]) == 1
    err = capsys.readouterr().err
    assert err == "error: 4 qubits exceeds the configured cap of 3\n"


@pytest.mark.parametrize("position", ["1.2.3", ".", "1e", "+.", "\u00b2"])
def test_a_position_that_is_no_integer_exits_2_with_one_line(tmp_path, capsys, position):
    f = tmp_path / "p.proof"
    f.write_bytes(f"(par {position} 2 (tensor 1 1 (ax a) (ax b)))".encode())
    assert main(["check", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("syntax error: ") and captured.err.count("\n") == 1


def test_check_writes_its_line_to_the_output_file(tmp_path, capsys):
    f = write(tmp_path, "p.proof", "(q 1 H (ax a))")
    assert main(["check", f]) == 0
    printed = capsys.readouterr()
    assert printed.out == "ok: |- <> ~a, [] a\n" and printed.err == ""
    out = tmp_path / "out.txt"
    assert main(["check", f, "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == printed.out


def test_check_runs_each_rules_side_conditions_once(tmp_path, capsys, monkeypatch):
    from gen import random_circuit
    from qmll.proofs import CutRule, ParRule, QRule, Rule, TensorRule, parse_proof, rule_count

    circuit, proof = tmp_path / "wide.json", tmp_path / "wide.proof"
    circuit.write_text(random_circuit(7002, 7, 30))
    assert main(["encode", str(circuit), "-o", str(proof)]) == 0
    nodes = rule_count(parse_proof(proof.read_text()))
    calls = []
    for cls in (Rule, CutRule, ParRule, TensorRule, QRule):
        def counted(self, _violations=cls.__dict__["_violations"]):
            calls.append(type(self))
            return _violations(self)
        monkeypatch.setattr(cls, "_violations", counted)
    assert main(["check", str(proof)]) == 0
    assert capsys.readouterr().out.startswith("ok: |- ")
    assert len(calls) == nodes
