"""Generated circuit text and preparation strings through the command line:
every case ends with an exit code in 0..3, never with an exception."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from interfersim.cli import main

# about half of the indices and values are valid ones
INDICES = st.one_of(st.sampled_from(["1", "2", "3"]),
                    st.sampled_from(["0", "4", "-1", "x", "1.5", ""]))
VALUES = st.one_of(st.sampled_from(["0", "0.5", "1", "0.25"]),
                   st.sampled_from(["1.5", "-0.1", "nan", "inf", "1e400", "x", ""]))
GATES = st.one_of(
    st.builds("BS {} {} R={}".format, INDICES, INDICES, VALUES),
    st.builds("S {} w={}".format, INDICES, VALUES),
    st.builds("D {}".format, INDICES),
    st.sampled_from(["BS 1 2", "S 1", "D", "Q 1", "BS 1 2 w=1", "S 1 R=0.5",
                     "D 1 R=0.5", ""]),
)
LAYER = st.lists(GATES, min_size=0, max_size=2).map(
    lambda gates: "layer " + " | ".join(gates))
LINES = st.one_of(
    LAYER, LAYER, LAYER, LAYER, LAYER, LAYER,
    st.builds("paths {}".format, st.sampled_from(["0", "1", "2", "3", "x", "-2"])),
    st.sampled_from(["name fuzz", "info text", "", "# comment", "layer", "paths"]),
    st.text(alphabet="abcDSBRw=|:.-0123 \t", max_size=12),
)
CIRCUIT_TEXT = st.builds(
    lambda head, lines: "\n".join(head + lines) + "\n",
    st.sampled_from([["paths 2"], ["paths 3"], ["paths 4"], []]),
    st.lists(LINES, max_size=6),
)
ITEMS = st.one_of(
    st.sampled_from(["path=1", "path=2", "mode=sieve", "junk=disk", "junk=zero"]),
    st.builds("{}={}".format, st.sampled_from(["path", "mode", "junk", "pth", ""]),
              st.sampled_from(["1", "2", "3", "0", "-1", "x", "source", "sieve",
                               "zero", "disk", "", "1=2"])),
    st.text(alphabet="pathmodejunk=,01 ", max_size=8),
)
PREPARE = st.one_of(st.none(), st.lists(ITEMS, min_size=1, max_size=3).map(",".join))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CIRCUIT_TEXT, prepare=PREPARE,
       command=st.sampled_from(["run", "compare"]),
       shots=st.integers(1, 40), seed=st.integers(0, 3))
def test_cli_never_raises(tmp_path, text, prepare, command, shots, seed):
    circuit = tmp_path / "fuzz.circ"
    circuit.write_text(text, encoding="utf-8")
    argv = [command, str(circuit), "--shots", str(shots), "--seed", str(seed),
            "--out", str(tmp_path / "out")]
    if prepare is not None:
        argv.append(f"--prepare={prepare}")
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2, 3), (argv, text, sink.getvalue())
