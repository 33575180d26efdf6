import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohkit as ck
from cohkit.cli import main
from cohkit.qstate import dumps_json
from cohkit import rand, selftest

from conftest import h2


def save_json(obj: dict, path) -> None:
    """Write ``obj`` as a CLI input file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj) + "\n")


@pytest.fixture
def files(tmp_path):
    paths = {}
    save_json(ck.maximally_coherent(2).to_dict(), tmp_path / "phi2.json")
    paths["phi2"] = str(tmp_path / "phi2.json")
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    save_json(rho.to_dict(), tmp_path / "rho.json")
    paths["rho"] = str(tmp_path / "rho.json")
    tgt = ck.PureState(np.sqrt([0.7, 0.3]).astype(complex))
    save_json(tgt.to_dict(), tmp_path / "target.json")
    paths["target"] = str(tmp_path / "target.json")
    ens = ck.Ensemble(np.array([0.5, 0.5]),
                      [ck.PureState([1.0, 0.0]),
                       ck.PureState(np.sqrt([0.5, 0.5]).astype(complex))])
    save_json(ens.to_dict(), tmp_path / "ensemble.json")
    paths["ensemble"] = str(tmp_path / "ensemble.json")
    save_json(ck.dephasing_channel(2).to_dict(), tmp_path / "channel.json")
    paths["channel"] = str(tmp_path / "channel.json")
    paths["dir"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment for ``python -m cohkit.cli``: this checkout's
    package first on the path."""
    src = str(Path(ck.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# -- measure ------------------------------------------------------------------------

def test_measure_cr_on_phi2(capsys, files):
    code, out, _ = run(capsys, ["measure", "--state", files["phi2"],
                                "--which", "cr"])
    assert code == 0
    report = json.loads(out)
    assert np.isclose(report["value"], 1.0, atol=1e-12)
    assert report["cr"] == report["value"]
    assert report["seed"] == 0


def test_measure_c_requires_pure_state(capsys, files):
    code, _, err = run(capsys, ["measure", "--state", files["rho"],
                                "--which", "c"])
    assert code == 2
    assert "pure_state" in err


def test_measure_cf_reports_ensemble(capsys, files):
    code, out, _ = run(capsys, ["measure", "--state", files["rho"],
                                "--which", "cf", "--restarts", "8",
                                "--seed", "3"])
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"] - h2(0.9)) <= 5e-3
    assert report["bound_kind"] == "upper"
    assert len(report["ensemble"]["members"]) == len(
        report["ensemble"]["weights"])


def test_measure_cf_reports_bracket(capsys, files):
    # A pure state's roof is certified at once: its value meets C_r.
    code, out, _ = run(capsys, ["measure", "--state", files["phi2"],
                                "--which", "cf"])
    assert code == 0
    report = json.loads(out)
    assert report["certified"] and report["converged"]
    assert report["restarts"] == 1
    assert np.isclose(report["lower_bound"], 1.0, atol=1e-12)
    assert report["lower_by"] == "cr"
    assert abs(report["value"] - report["lower_bound"]) <= 1e-12
    # The mixed qubit has C_r < C_f; the closed-form bound is exact on
    # qubits, so the first restart certifies against it.
    code, out, _ = run(capsys, ["measure", "--state", files["rho"],
                                "--which", "cf", "--restarts", "4"])
    report = json.loads(out)
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    assert report["lower_bound"] == ck.cf_lower_bound(rho)
    assert report["lower_bound"] > ck.relative_entropy_of_coherence(rho)
    assert report["lower_by"] == "l1_bound"
    assert 0.0 <= report["value"] - report["lower_bound"] <= 1e-12
    assert report["certified"]
    assert report["restarts"] == 1


def compact(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True,
                      separators=(",", ":")) + "\n"


def test_json_output_is_compact_and_sorted(capsys, files):
    out_path = files["dir"] / "report.json"
    code, out, _ = run(capsys, ["measure", "--state", files["rho"],
                                "--which", "cf", "--restarts", "2",
                                "--out", str(out_path)])
    assert code == 0
    assert out == compact(out) == out_path.read_text()
    code, _, err = run(capsys, ["measure", "--state", files["rho"],
                                "--which", "c"])
    assert code == 2
    assert err == compact(err)


def test_measure_emits_full_precision(capsys, files):
    code, out, _ = run(capsys, ["measure", "--state", files["rho"],
                                "--which", "cr"])
    report = json.loads(out)
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    # parsing the emitted text recovers the double exactly (>= 12 digits)
    assert report["value"] == ck.relative_entropy_of_coherence(rho)


# -- exit codes ------------------------------------------------------------------------

def test_malformed_json_is_exit_1(capsys, files):
    bad = files["dir"] / "bad.json"
    bad.write_text('{"dim": 2, "matrix": [[')
    code, _, err = run(capsys, ["measure", "--state", str(bad),
                                "--which", "cr"])
    assert code == 1
    assert "line 1" in err


def test_deeply_nested_json_is_exit_1(files):
    # Valid JSON nested past the decoder's recursion limit cannot be read:
    # a clean exit 1 naming the file, not a RecursionError traceback.
    deep = files["dir"] / "deep.json"
    deep.write_text('{"dim": 2, "amplitudes": ' + "[" * 100000
                    + "]" * 100000 + "}")
    proc = subprocess.run([sys.executable, "-m", "cohkit.cli", "measure",
                           "--state", str(deep), "--which", "cr"],
                          env=subprocess_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert str(deep) in proc.stderr


def test_invariant_violation_is_exit_2(capsys, files):
    bad = files["dir"] / "trace.json"
    rho = {"dim": 2, "matrix": [[{"re": 0.9, "im": 0}, {"re": 0, "im": 0}],
                                [{"re": 0, "im": 0}, {"re": 0.3, "im": 0}]]}
    bad.write_text(json.dumps(rho))
    code, _, err = run(capsys, ["measure", "--state", str(bad),
                                "--which", "cr"])
    assert code == 2
    assert "unit_trace" in err


def test_nan_state_is_exit_2(capsys, files):
    bad = files["dir"] / "nan.json"
    nan = {"re": math.nan, "im": 0.0}
    bad.write_text(json.dumps({"dim": 2, "matrix": [
        [{"re": 0.5, "im": 0.0}, nan], [nan, {"re": 0.5, "im": 0.0}]]}))
    code, out, err = run(capsys, ["measure", "--state", str(bad),
                                  "--which", "cr"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "finite"


@pytest.mark.parametrize("matrix,invariant", [
    pytest.param([[1e308, 1e308], [1e308, 0.5]], "unit_trace",
                 id="sums-overflow"),
    pytest.param([[1.7e308, 0, 0], [0, 1.7e308, 0], [0, 0, 1.7e308]],
                 "unit_trace", id="trace-overflows"),
    # Hermitian with unit trace, but eigh overflows inside and returns NaN.
    pytest.param([[0.5, {"re": 1.7e308, "im": 1.7e308}],
                   [{"re": 1.7e308, "im": -1.7e308}, 0.5]],
                 "positive_semidefinite", id="eigh-overflows"),
])
def test_entries_near_the_float_maximum_are_exit_2(capsys, files, matrix,
                                                   invariant):
    # Finite entries whose arithmetic overflows: an invariant is named, no
    # RuntimeWarning is printed, and python -W error exits 2 as well.
    big = files["dir"] / "big.json"
    big.write_text(json.dumps({"dim": len(matrix), "matrix": matrix}))
    argv = ["measure", "--which", "cr", "--state", str(big)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == invariant
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cohkit.cli"]
                          + argv, env=subprocess_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["invariant"] == invariant


@pytest.mark.parametrize("extra", [[], ["--tolerance", "1e-8"]])
def test_partition_file_as_state_is_exit_2(capsys, files, extra):
    path = files["dir"] / "partition.json"
    save_json(ck.BasisPartition(4, [[0, 1], [2, 3]]).to_dict(), path)
    code, _, err = run(capsys, ["measure", "--state", str(path),
                                "--which", "cr"] + extra)
    assert code == 2
    assert json.loads(err)["invariant"] == "json_schema"


@pytest.mark.parametrize("content", [
    pytest.param({"dim": 2, "matrix": 5}, id="matrix-not-a-list"),
    pytest.param({"dim": 2, "amplitudes": [None, {"re": 1.0, "im": 0.0}]},
                 id="null-amplitude"),
    pytest.param({"matrix": [[1]]}, id="missing-dim"),
    # A misspelled part must not be read as 0 (here: a diagonal state).
    pytest.param({"dim": 2, "matrix": [[{"re": 0.5}, {"Re": 0.5}],
                                       [{"Re": 0.5}, {"re": 0.5}]]},
                 id="unknown-complex-key"),
    pytest.param({"dim": 2, "amplitudes": [{}, 1.0]}, id="empty-complex"),
    # Valid JSON, but no float holds a 400-digit integer.
    pytest.param({"dim": 2, "amplitudes": [10 ** 400, 0]},
                 id="amplitude-overflows-float"),
    # Entries, parts and dim are JSON numbers, never bools or strings.
    pytest.param({"dim": 2, "matrix": [[True, 0], [0, False]]},
                 id="bool-entries"),
    pytest.param({"dim": 2, "matrix": [["0.5", 0.5], [0.5, 0.5]]},
                 id="string-entry"),
    pytest.param({"dim": 2, "matrix": [[0.5, 0.5], [0.5, {"re": "0.5"}]]},
                 id="string-real-part"),
    pytest.param({"dim": 2, "amplitudes": [{"im": True}, 1.0]},
                 id="bool-imaginary-part"),
    pytest.param({"dim": "2", "amplitudes": [0.6, 0.8]}, id="string-dim"),
    pytest.param({"dim": 2.7, "matrix": [[0.5, 0.5], [0.5, 0.5]]},
                 id="non-integral-dim"),
])
def test_wrong_typed_state_field_is_exit_2(capsys, files, content):
    path = files["dir"] / "state.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, ["measure", "--state", str(path),
                                  "--which", "cr"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "json_schema"


def test_integral_float_dim_is_accepted(capsys, files):
    path = files["dir"] / "state.json"
    path.write_text(json.dumps({"dim": 2.0, "amplitudes": [0.6, 0.8]}))
    code, out, _ = run(capsys, ["measure", "--state", str(path),
                                "--which", "c"])
    assert code == 0
    assert np.isclose(json.loads(out)["value"], h2(0.36), atol=1e-12)


def _channel_with_birkhoff():
    target = ck.PureState(np.sqrt([0.7, 0.3]).astype(complex))
    return ck.synthesize_pure_transformation(ck.maximally_coherent(2),
                                             target).to_dict()


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@pytest.mark.parametrize("kind,field,value", [
    pytest.param("ensemble", ("weights", 0), "0.5", id="weight-string"),
    pytest.param("ensemble", ("weights", 1), True, id="weight-bool"),
    pytest.param("partition", ("dim",), 2.5, id="partition-dim-fraction"),
    pytest.param("partition", ("blocks", 0, 0), False, id="block-index-bool"),
    pytest.param("partition", ("blocks", 1, 0), "1", id="block-index-string"),
    pytest.param("channel", ("kraus", 0, 0, 0), True, id="kraus-entry-bool"),
    pytest.param("channel", ("kraus", 0, 0, 0, "re"), "0.5",
                 id="kraus-real-part-string"),
    pytest.param("channel", ("certificates", 0, "j", 0), 0.5,
                 id="certificate-j-fraction"),
    pytest.param("channel", ("certificates", 0, "j", 1), "1",
                 id="certificate-j-string"),
    pytest.param("channel", ("certificates", 0, "c", 0), False,
                 id="certificate-c-bool"),
    pytest.param("channel", ("birkhoff", 0, "weight"), "0.5",
                 id="birkhoff-weight-string"),
    pytest.param("channel", ("birkhoff", 0, "perm", 0), True,
                 id="birkhoff-perm-bool"),
    pytest.param("channel", ("birkhoff", 0, "perm", 1), 1.5,
                 id="birkhoff-perm-fraction"),
])
def test_wrong_typed_field_in_other_files_is_exit_2(capsys, files, kind,
                                                     field, value):
    channel = _channel_with_birkhoff()
    data = {"ensemble": json.loads((files["dir"] / "ensemble.json")
                                   .read_text()),
            "partition": ck.BasisPartition(2, [[0], [1]]).to_dict(),
            "channel": channel}[kind]
    _set(data, field, value)
    path = files["dir"] / f"{kind}.json"
    path.write_text(json.dumps(data))
    argv = {"ensemble": ["simulate", "cover", "--state", str(path),
                         "--n", "4", "--subset-size", "2", "--trials", "1"],
            "partition": ["classify", "--channel", str(path.with_name(
                "channel.json")), "--partition", str(path)],
            "channel": ["classify", "--channel", str(path)]}[kind]
    if kind == "partition":
        path.with_name("channel.json").write_text(json.dumps(channel))
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "json_schema"


@pytest.mark.parametrize("j", [[0, 2], [0, -1]])
def test_certificate_row_outside_kraus_is_exit_2(capsys, files, j):
    path = files["dir"] / "channel.json"
    data = ck.dephasing_channel(2).to_dict()
    data["certificates"][1]["j"] = j
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["classify", "--channel", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "certificate"


def test_non_object_channel_file_is_exit_2(capsys, files):
    path = files["dir"] / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, ["classify", "--channel", str(path)])
    assert code == 2
    assert json.loads(err)["invariant"] == "json_schema"


def test_complex_entries_take_numbers_and_partial_objects(capsys, files):
    path = files["dir"] / "partial.json"
    path.write_text(json.dumps({"dim": 2, "matrix": [
        [{"re": 0.5}, 0.5], [{"im": 0.0, "re": 0.5}, 0.5]]}))
    code, out, _ = run(capsys, ["measure", "--state", str(path),
                                "--which", "cr"])
    assert code == 0
    assert np.isclose(json.loads(out)["value"], 1.0, atol=1e-12)


def test_short_certificate_list_is_exit_2(capsys, files):
    path = files["dir"] / "short_certs.json"
    data = ck.dephasing_channel(2).to_dict()
    data["certificates"] = data["certificates"][:1]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["classify", "--channel", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "json_schema"


def test_nan_ensemble_weight_is_exit_2(capsys, files):
    path = files["dir"] / "nan_ensemble.json"
    data = json.loads((files["dir"] / "ensemble.json").read_text())
    data["weights"] = [math.nan, 1.0]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["simulate", "cover", "--state", str(path),
                                  "--n", "6", "--subset-size", "4",
                                  "--trials", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "finite"


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "concentrate", "--state", "@target",
                  "--n", "0"], id="concentrate-n"),
    pytest.param(["simulate", "form", "--state", "@rho", "--n", "0"],
                 id="form-n"),
    pytest.param(["simulate", "concentrate", "--state", "@target",
                  "--n", "100", "--trials", "0"], id="trials"),
    pytest.param(["measure", "--state", "@rho", "--which", "cf",
                  "--restarts", "0"], id="restarts"),
    pytest.param(["simulate", "cover", "--state", "@ensemble", "--n", "6",
                  "--subset-size", "0"], id="subset-size"),
])
def test_count_argument_below_one_is_exit_2(capsys, files, argv):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2  # argparse rejects it, as it does a bad --tolerance
    assert out == ""
    assert "0 is not >= 1" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "dilute", "--state", "@target", "--n", "5",
                  "--delta"], id="delta"),
    pytest.param(["simulate", "form", "--state", "@rho", "--n", "5",
                  "--delta2"], id="delta2"),
    pytest.param(["reversibility", "--state", "@rho", "--threshold"],
                 id="threshold"),
])
def test_non_finite_or_negative_float_argument_is_exit_2(capsys, files,
                                                         argv, value):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, argv + [value])
    assert code == 2  # a usage error: no report with NaN in it
    assert out == ""
    assert "is not a finite number >= 0" in err


@pytest.mark.parametrize("protocol", ["concentrate", "dilute"])
def test_simulate_pure_protocol_rejects_density_matrix(capsys, files,
                                                       protocol):
    code, out, err = run(capsys, ["simulate", protocol, "--state",
                                  files["rho"], "--n", "100"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "pure_state"


def test_impossible_transform_is_exit_3(capsys, files):
    code, _, err = run(capsys, ["transform", "--source", files["target"],
                                "--target", files["phi2"]])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "transformation_impossible"
    witness = payload["witness"]
    assert witness["holds"] is False
    # the witness exhibits the first violated partial sum
    partial_p = np.cumsum(witness["target_spectrum"])
    partial_q = np.cumsum(witness["source_spectrum"])
    assert np.any(partial_p < partial_q - 1e-10)


# -- output files and I/O failures --------------------------------------------

TRACE_HEADER = "trial,n,rate,fidelity,seed"


@pytest.mark.parametrize("argv,kind", [
    pytest.param(["measure", "--state", "@rho", "--which", "cr"], "report",
                 id="measure"),
    pytest.param(["classify", "--channel", "@channel"], "report",
                 id="classify"),
    pytest.param(["reversibility", "--state", "@rho", "--restarts", "2"],
                 "report", id="reversibility"),
    pytest.param(["transform", "--source", "@phi2", "--target", "@target"],
                 "channel", id="transform"),
    pytest.param(["simulate", "concentrate", "--state", "@target", "--n",
                  "100", "--trials", "3"], (TRACE_HEADER, 3),
                 id="simulate-concentrate"),
    pytest.param(["simulate", "dilute", "--state", "@target", "--n", "100"],
                 (TRACE_HEADER, 1), id="simulate-dilute"),
    pytest.param(["simulate", "form", "--state", "@rho", "--n", "50",
                  "--trials", "2", "--delta", "0.2", "--delta2", "0.2",
                  "--restarts", "2"], (TRACE_HEADER, 2), id="simulate-form"),
    # C(8, 4) = 70 sequences in 7 subsets of 10, over 2 trials.
    pytest.param(["simulate", "cover", "--state", "@ensemble", "--n", "8",
                  "--subset-size", "10", "--trials", "2"],
                 ("subset,n,deviation,seed", 14), id="simulate-cover"),
])
def test_out_file_holds_what_each_command_writes(capsys, files, argv, kind):
    out_path = files["dir"] / "out"
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, _ = run(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    if kind == "report":
        assert out_path.read_text() == out
    elif kind == "channel":
        channel = ck.IncoherentChannel.from_dict(
            json.loads(out_path.read_text()))
        assert channel.to_dict() == json.loads(out)["channel"]
    else:
        header, rows = kind
        lines = out_path.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows


@pytest.mark.parametrize("case", ["state-is-a-directory", "state-not-utf8",
                                  "integer-past-digit-limit",
                                  "out-in-missing-directory"])
def test_unreadable_input_or_unwritable_out_is_exit_1(capsys, files, case):
    # One error line, no report and no traceback, in-process and as a
    # program run with warnings as errors.
    latin1 = files["dir"] / "latin1.json"
    latin1.write_bytes(b'{"dim": 2, "amplitudes": [1, 0], "note": "\xe9"}')
    # json parses integers with int(), which refuses past 4300 digits.
    digits = files["dir"] / "digits.json"
    digits.write_text('{"dim": 2, "amplitudes": [' + "1" * 5000 + ", 0]}")
    argv = ["measure", "--which", "cr", "--state"] + {
        "state-is-a-directory": [str(files["dir"])],
        "state-not-utf8": [str(latin1)],
        "integer-past-digit-limit": [str(digits)],
        "out-in-missing-directory": [
            files["phi2"], "--out", str(files["dir"] / "absent" / "r.json")],
    }[case]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot ")
    assert len(err.splitlines()) == 1
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cohkit.cli"]
                          + argv, env=subprocess_env(), capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


# -- transform / classify round trip ------------------------------------------------------

def test_transform_writes_loadable_channel(capsys, files):
    out_path = str(files["dir"] / "channel.json")
    code, out, _ = run(capsys, ["transform", "--source", files["phi2"],
                                "--target", files["target"],
                                "--out", out_path])
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "strictly_incoherent"
    assert report["completeness_defect"] <= 1e-9
    code2, out2, _ = run(capsys, ["classify", "--channel", out_path])
    assert code2 == 0
    assert json.loads(out2)["class"] == "strictly_incoherent"


def test_transform_report_and_channel_file_are_canonical_json(capsys,
                                                              tmp_path):
    # The channel is encoded once and spliced into the report; both must
    # still be the compact, key-sorted encoding of their content.
    source, target = rand.random_majorizing_pair(12, np.random.default_rng(3))
    save_json(source.to_dict(), tmp_path / "source.json")
    save_json(target.to_dict(), tmp_path / "target.json")
    out_path = tmp_path / "channel.json"
    code, out, _ = run(capsys, ["transform", "--source",
                                str(tmp_path / "source.json"), "--target",
                                str(tmp_path / "target.json"), "--out",
                                str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert out == dumps_json(report) + "\n"
    assert out_path.read_text() == dumps_json(report["channel"]) + "\n"
    assert report["kraus_count"] == len(report["channel"]["kraus"]) > 1


def test_classify_partition_dimension_mismatch_is_exit_2(capsys, files):
    rect = files["dir"] / "rect.json"
    save_json(ck.IncoherentChannel([np.array([[1.0, 0.0]]),
                                    np.array([[0.0, 1.0]])]).to_dict(), rect)
    part = files["dir"] / "part2.json"
    save_json(ck.BasisPartition(2, [[0], [1]]).to_dict(), part)
    code, out, err = run(capsys, ["classify", "--channel", str(rect),
                                  "--partition", str(part)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "DimensionMismatchError"


def test_partition_with_an_empty_block_is_exit_2(capsys, files):
    part = files["dir"] / "empty_block.json"
    save_json({"dim": 2, "blocks": [[0, 1], []]}, part)
    code, out, err = run(capsys, ["classify", "--channel", files["channel"],
                                  "--partition", str(part)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["invariant"] == "partition_empty"


# -- simulate -------------------------------------------------------------------------------

def test_simulate_concentrate_writes_csv(capsys, files):
    out_path = files["dir"] / "trace.csv"
    code, out, _ = run(capsys, ["simulate", "concentrate",
                                "--state", files["target"],
                                "--n", "2000", "--trials", "10",
                                "--seed", "5", "--out", str(out_path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 10
    assert np.isclose(summary["target_rate"], h2(0.7), atol=1e-9)
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "trial,n,rate,fidelity,seed"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2000" and first[4] == "5"


def test_simulate_dilute(capsys, files):
    code, out, _ = run(capsys, ["simulate", "dilute", "--state",
                                files["target"], "--n", "4000",
                                "--delta", "0.05"])
    assert code == 0
    summary = json.loads(out)
    assert np.isclose(summary["mean_rate"], h2(0.7) + 0.05, atol=1e-9)
    assert summary["mean_fidelity"] >= 0.9


def test_simulate_cover(capsys, files):
    code, out, _ = run(capsys, ["simulate", "cover", "--state",
                                files["ensemble"], "--n", "8",
                                "--trials", "1", "--subset-size", "10",
                                "--seed", "2"])
    assert code == 0
    summary = json.loads(out)
    assert summary["S"] == 10
    assert summary["median_deviation"] >= 0.0


def test_simulate_cover_single_member_beyond_64_positions(capsys, files):
    # One member admits any n within the m**n sequence budget, including
    # lengths past numpy's 64-axis limit.
    path = files["dir"] / "one.json"
    save_json(ck.Ensemble(np.array([1.0]),
                          [ck.PureState([0.6, 0.8])]).to_dict(), path)
    code, out, _ = run(capsys, ["simulate", "cover", "--state", str(path),
                                "--n", "70", "--subset-size", "1",
                                "--trials", "1"])
    assert code == 0
    summary = json.loads(out)
    assert summary["M"] == 1
    assert summary["median_deviation"] <= 1e-9


def test_simulate_form(capsys, files):
    code, out, _ = run(capsys, ["simulate", "form", "--state", files["rho"],
                                "--n", "4000", "--trials", "10",
                                "--delta", "0.01", "--delta2", "0.01",
                                "--restarts", "6", "--seed", "4"])
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["mean_rate"] - h2(0.9)) <= 0.06


# -- reversibility ----------------------------------------------------------------------------

def test_reversibility_report(capsys, files):
    code, out, _ = run(capsys, ["reversibility", "--state", files["rho"],
                                "--restarts", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["reversible"] is False
    assert abs(report["gap_upper"]
               - (h2(0.9) - (1 - h2(0.8)))) <= 5e-3
    assert report["decomposition"]["blocks"][0]["indices"] == [0, 1]


# -- determinism ------------------------------------------------------------------------------

def test_reports_are_byte_identical(capsys, files):
    argv = ["measure", "--state", files["rho"], "--which", "cf",
            "--restarts", "6", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_simulation_reports_deterministic(capsys, files):
    argv = ["simulate", "concentrate", "--state", files["target"],
            "--n", "1000", "--trials", "5", "--seed", "21"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_env_seed_fallback(capsys, files, monkeypatch):
    monkeypatch.setenv("COHKIT_SEED", "77")
    code, out, _ = run(capsys, ["measure", "--state", files["phi2"],
                                "--which", "cr"])
    assert json.loads(out)["seed"] == 77


def test_env_seed_change_between_calls(capsys, files, monkeypatch):
    # The parser is built once per COHKIT_SEED value, not once per process.
    argv = ["measure", "--state", files["phi2"], "--which", "cr"]
    seeds = []
    for value in ("5", "6", "5"):
        monkeypatch.setenv("COHKIT_SEED", value)
        seeds.append(json.loads(run(capsys, argv)[1])["seed"])
    monkeypatch.delenv("COHKIT_SEED")
    seeds.append(json.loads(run(capsys, argv)[1])["seed"])
    assert seeds == [5, 6, 5, 0]


def test_bad_env_seed_is_usage_error(capsys, files, monkeypatch):
    monkeypatch.setenv("COHKIT_SEED", "abc")
    code, out, err = run(capsys, ["measure", "--state", files["phi2"],
                                  "--which", "cr"])
    assert code == 2
    assert out == ""
    assert "invalid int value: 'abc'" in err


def test_tolerance_flag_range(capsys, files):
    code = main(["measure", "--state", files["phi2"], "--which", "cr",
                 "--tolerance", "0.5"])
    assert code == 2  # argparse rejects out-of-range tolerances
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    pytest.param(["selftest", "--out", "@out"], id="selftest-out"),
    pytest.param(["selftest", "--tolerance", "1e-8"], id="selftest-tolerance"),
    pytest.param(["classify", "--channel", "@channel", "--tolerance", "1e-8"],
                 id="classify-tolerance"),
    # Each simulate protocol takes only the options it reads.
    *[pytest.param(["simulate", protocol, "--state", state, "--n", "4",
                    option, "1"], id=f"{protocol}{option}")
      for protocol, state, unread in [
          ("concentrate", "@target",
           ["--delta", "--delta2", "--subset-size", "--restarts"]),
          ("dilute", "@target",
           ["--trials", "--delta2", "--subset-size", "--restarts"]),
          ("form", "@rho", ["--subset-size"]),
          ("cover", "@ensemble", ["--delta", "--delta2", "--restarts"])]
      for option in unread],
])
def test_option_a_command_does_not_read_is_a_usage_error(capsys, files, argv):
    files = dict(files, out=str(files["dir"] / "out"))
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_cover_subset_larger_than_type_class_is_exit_2(capsys, files):
    # The class of n = 4 over weights (1/2, 1/2) has C(4, 2) = 6 sequences.
    code, out, err = run(capsys, ["simulate", "cover", "--state",
                                  files["ensemble"], "--n", "4",
                                  "--subset-size", "100"])
    assert (code, out) == (2, "")
    assert json.loads(err)["invariant"] == "subset_size"


@pytest.mark.parametrize("dims,code", [
    pytest.param({"dim_in": 3, "dim_out": 5}, 2, id="mismatch"),
    pytest.param({}, 0, id="absent"),
])
def test_channel_file_dimensions_match_kraus(capsys, files, dims, code):
    path = files["dir"] / "dims.json"
    path.write_text(json.dumps(dict(dims, kraus=[[[1, 0], [0, 1]]])))
    got, out, err = run(capsys, ["classify", "--channel", str(path)])
    assert got == code
    if code:
        assert out == ""
        assert json.loads(err)["invariant"] == "json_shape"
    else:
        assert json.loads(out)["class"] == "strictly_incoherent"


def test_cover_validates_members_at_tolerance(capsys, files):
    # |a|^2 = 1 + 1e-10: outside the default norm tolerance, inside 1e-9.
    a = math.sqrt(1 + 1e-10)
    path = files["dir"] / "loose.json"
    path.write_text(json.dumps({"weights": [0.5, 0.5], "members": [
        {"dim": 2, "amplitudes": [a, 0]},
        {"dim": 2, "amplitudes": [0, 1]}]}))
    argv = ["simulate", "cover", "--state", str(path), "--n", "4",
            "--subset-size", "2", "--trials", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["invariant"] == "unit_norm"
    code, out, _ = run(capsys, argv + ["--tolerance", "1e-9"])
    assert code == 0
    assert json.loads(out)["S"] == 2


def test_cli_import_leaves_scipy_optimize_unloaded():
    # The variational C_r oracle, once the only user of scipy.optimize, now
    # runs on numpy alone, so starting the CLI does not load the optimizer.
    probe = "import sys, cohkit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_scipy(files):
    # The variational C_r oracle is numpy alone, so neither starting the CLI
    # nor a call that runs the oracle loads any of scipy.
    argvs = [["measure", "--state", files["rho"], "--which", "cr",
              "--variational"],
             ["selftest", "--seed", "0"]]
    probe = ("import sys\nfrom cohkit.cli import main\n"
             "scipy = lambda: sorted(name for name in sys.modules "
             "if name.split('.')[0] == 'scipy')\n"
             "loaded = scipy()\n"
             f"codes = [main(argv) for argv in {argvs!r}]\n"
             "print(loaded, codes, scipy())")
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[] [0, 0] []"


def test_simulate_loads_no_scipy(files):
    # The asymptotic layer's log-factorials are numpy alone, so no
    # protocol simulation loads any of scipy.
    argvs = [["simulate", "concentrate", "--state", files["target"],
              "--n", "50", "--trials", "3"],
             ["simulate", "dilute", "--state", files["target"], "--n", "40"],
             ["simulate", "form", "--state", files["rho"], "--n", "20",
              "--trials", "3", "--restarts", "2"],
             ["simulate", "cover", "--state", files["ensemble"], "--n", "6",
              "--subset-size", "4", "--trials", "1"]]
    probe = ("import sys\nfrom cohkit.cli import main\n"
             f"codes = [main(argv) for argv in {argvs!r}]\n"
             "print(codes, sorted(name for name in sys.modules "
             "if name.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] []"


# -- selftest ----------------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code = main(["selftest", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "unit_measures" in out
    assert "(seed=3)" in out


def test_failed_selftest_is_exit_4(capsys, monkeypatch):
    checks = list(selftest.CHECKS)
    checks[0] = ("unit_measures", lambda seed: (False, "injected failure"))
    monkeypatch.setattr(selftest, "CHECKS", checks)
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL unit_measures (seed=0) injected failure" in out
    assert out.count("PASS ") == len(checks) - 1


def test_selftest_fails_synthesis_on_a_short_witness(capsys, monkeypatch):
    # Fault injection: a witness missing its last term no longer rebuilds
    # diag(source); synthesis_soundness is the check that must catch it.
    from cohkit import incoherent
    original = incoherent._permutohedron_terms
    monkeypatch.setattr(incoherent, "_permutohedron_terms",
                        lambda p, q: original(p, q)[:-1])
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL synthesis_soundness (seed=0)" in out


def test_selftest_fails_when_cf_falls_below_cr(capsys, monkeypatch):
    # Fault injection: every roof ensemble averages 2e-6 below C_r of the
    # state it rebuilds, beyond the check's 1e-6 slack and far beyond a
    # rounding dip; cost_dominates_distillation must report it.
    from cohkit import measures
    monkeypatch.setattr(
        measures.Ensemble, "average_coherence",
        lambda ens: measures.relative_entropy_of_coherence(ens.reconstruct())
        - 2e-6)
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL cost_dominates_distillation (seed=0)" in out


def test_selftest_flags_wrong_log_base(monkeypatch):
    # Fault injection: entropy in nats makes C_r(Phi_2) = ln 2, not 1.
    from cohkit import measures
    original = measures.relative_entropy_of_coherence
    monkeypatch.setattr(measures, "relative_entropy_of_coherence",
                        lambda rho: original(rho) * math.log(2.0))
    ok, detail = selftest.check_unit_measures(seed=0)
    assert not ok
