"""``cli`` workload: ``cohkit.cli.main([...])`` in-process, on input files
generated at set-up, covering every subcommand and the documented exit
codes for invalid input.

One operation is known to fail on every run: a density matrix with NaN
entries passes validation, so ``measure --which cr`` exits 0 with a number
where exit 2 is documented.  It is counted in ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from cohkit import cli, incoherent, qstate, reversibility

import inputs
import reference as ref
from harness import OUT, Op, OpFailed, Workload, excess_sum, mismatch
from wl_roof import PANEL_SEED, cf_problems, product_with_cf, qubit_with_cf

RESTARTS = 4
TRANSFORM_DIM = 12
CONC_N, CONC_TRIALS = 1000, 20
DILUTE_DELTA, DILUTE_EPS = 0.1, 0.1
FORM_N, FORM_TRIALS, FORM_DELTA = 200, 20, 0.05
COVER_N, COVER_S, COVER_TRIALS = 8, 4, 2
# Known-answer panel behind cf_excess_bits, measured through the CLI.
PANEL = (("qubit", qubit_with_cf),) * 2 \
    + (("product", partial(product_with_cf, 2)),) * 2 \
    + (("product", partial(product_with_cf, 3)),)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def capture(main, argv) -> CliResult:
    """Call the CLI in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _run(main, argv, expect: int) -> CliResult:
    result = capture(main, argv)
    if result.code != expect:
        raise OpFailed(f"exit {result.code}, documented {expect}: "
                       f"{(result.stdout or result.stderr)[:120]!r}")
    return result


def _write(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return str(path)


def _report(result):
    return json.loads(result.stdout)


# -- checks -------------------------------------------------------------------

def _check_value(expected, tol, result):
    return mismatch("value", _report(result)["value"], expected, tol)


def _check_variational(expected, result):
    rep = _report(result)
    return (mismatch("value", rep["value"], expected, 1e-10)
            + mismatch("variational", rep["variational"], expected, 1e-6))


def _cf_report_problems(matrix, exact, rep):
    ens = rep["ensemble"]
    members = [np.array([complex(z["re"], z["im"]) for z in m["amplitudes"]])
               for m in ens["members"]]
    return cf_problems(matrix, exact, rep["value"], ens["weights"], members)


def _check_cf(matrix, exact, result):
    return _cf_report_problems(matrix, exact, _report(result))


def _load_kraus(path):
    data = json.loads(open(path, encoding="utf-8").read())
    return [np.array([[complex(z["re"], z["im"]) for z in row] for row in k])
            for k in data["kraus"]]


def _check_transform(channel_path, source, target, result):
    """The channel file, reloaded with numpy, is complete, strictly
    incoherent and maps the source onto the target."""
    problems = []
    rep = _report(result)
    if rep["class"] != "strictly_incoherent":
        problems.append(f"class {rep['class']}")
    kraus = _load_kraus(channel_path)
    d = source.size
    completeness = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(completeness - np.eye(d))) > 1e-9:
        problems.append("channel file is not complete")
    for k in kraus:
        nz = np.abs(k) > 1e-12
        if nz.sum(axis=0).max() > 1 or nz.sum(axis=1).max() > 1:
            problems.append("Kraus operator not strictly incoherent")
            break
    image = sum(k @ inputs.projector(source) @ k.conj().T for k in kraus)
    if np.max(np.abs(image - inputs.projector(target))) > 1e-9:
        problems.append("channel does not map source to target")
    return problems


def _check_class(expected, result):
    got = _report(result)["class"]
    return [] if got == expected else [f"class {got}, built as {expected}"]


def _check_reversibility(expected, blocks, result):
    rep = _report(result)
    problems = []
    if rep["reversible"] != expected:
        problems.append(f"reversible = {rep['reversible']}, built "
                        f"{'block-pure' if expected else 'generic'}")
    found = [b["indices"] for b in rep["decomposition"]["blocks"]]
    if blocks is not None and found != blocks:
        problems.append(f"blocks {found} != built {blocks}")
    return problems


def _check_concentration(probs, result):
    rep = _report(result)
    h = ref.shannon_bits(probs)
    problems = mismatch("target_rate", rep["target_rate"], h, 1e-12)
    if rep["mean_rate"] > math.log2(len(probs)) + 1e-12:
        problems.append("mean rate above log2 d")
    if abs(rep["mean_rate"] - h) > ref.concentration_slack(probs, CONC_N,
                                                          CONC_TRIALS):
        problems.append(f"mean rate {rep['mean_rate']!r} far from H {h!r}")
    return problems


def _check_dilution(probs, n, result):
    rep = _report(result)
    h = ref.shannon_bits(probs)
    fid2 = rep["mean_fidelity"] ** 2
    problems = (mismatch("target_rate", rep["target_rate"], h, 1e-12)
                + mismatch("fidelity^2", fid2, ref.typical_set_probability(
                    probs, n, DILUTE_DELTA), 1e-10))
    if fid2 < 1.0 - DILUTE_EPS:
        problems.append(f"fidelity^2 {fid2!r} below 1 - eps")
    return problems


def _check_formation(matrix, result):
    rep = _report(result)
    problems = []
    if rep["mean_rate"] < rep["target_rate"] - 1e-12:
        problems.append("mean rate below the target rate")
    exact = ref.qubit_cf(matrix)
    if rep["target_rate"] < exact - 1e-9:
        problems.append(f"target {rep['target_rate']!r} below C_f {exact!r}")
    return problems


def _check_cover(result):
    rep = _report(result)
    problems = []
    if rep["M"] != math.comb(COVER_N, COVER_N // 2) // COVER_S:
        problems.append(f"M = {rep['M']}")
    if not 0.0 <= rep["median_deviation"] <= 2.0:
        problems.append(f"median deviation {rep['median_deviation']!r}")
    return problems


def _check_selftest(result):
    lines = result.stdout.splitlines() or ["(no output)"]
    return [f"selftest line {ln!r}" for ln in lines
            if not ln.startswith("PASS ")]


def _check_version(result):
    if not result.stdout.startswith("cohkit "):
        return [f"version output {result.stdout[:60]!r}"]
    return []


def _check_error(invariant, result):
    if invariant and invariant not in result.stderr:
        return [f"stderr does not name {invariant}: {result.stderr[:80]!r}"]
    return []


def fingerprint(result) -> bytes:
    return json.dumps([result.code, result.stdout, result.stderr]).encode()


# -- set-up -------------------------------------------------------------------

def inputs_dir(seed: int):
    return OUT / "inputs" / f"cli-s{seed}"


def prepare(seed: int, tracer) -> Workload:
    """Write the input files for ``seed`` and build the round."""
    rng = inputs.rng_for(seed)
    d = inputs_dir(seed)
    d.mkdir(parents=True, exist_ok=True)
    density = tracer.wrap(qstate.DensityMatrix, "qstate.DensityMatrix")

    def state_file(name, matrix):
        density(matrix)  # validated as a user's input would be
        return _write(d / f"{name}.json", inputs.density_json(matrix))

    pure3 = inputs.pure_amplitudes(3, rng, floor=0.3)
    f_pure3 = _write(d / "pure3.json", inputs.pure_json(pure3))
    qubit = inputs.ginibre_state(2, rng)
    f_qubit = state_file("qubit", qubit)
    gen4 = inputs.ginibre_state(4, rng)
    f_gen4 = state_file("generic4", gen4)
    split = int(rng.integers(2, 4))
    block, _, _ = inputs.block_pure_state((split, 5 - split), rng)
    f_block = state_file("block5", block)
    block_indices = [list(range(split)), list(range(split, 5))]

    pairs = []
    for tag in ("a", "b", "c"):
        src, tgt = inputs.majorizing_pair(TRANSFORM_DIM, rng)
        pairs.append((tag, src, tgt,
                      _write(d / f"source_{tag}.json", inputs.pure_json(src)),
                      _write(d / f"target_{tag}.json", inputs.pure_json(tgt)),
                      str(d / f"channel_{tag}.json")))
    f_merge = _write(d / "channel_merge.json",
                     inputs.channel_json(inputs.merge_kraus(4, rng)))
    f_mixed = _write(d / "channel_mixed.json", inputs.channel_json(
        inputs.mixed_kraus(inputs.strict_kraus(4, 3, rng), rng)))
    f_partition = _write(d / "partition.json",
                         {"dim": 4, "blocks": [[0, 1], [2, 3]]})

    conc = inputs.pure_amplitudes(3, rng, floor=0.3)
    f_conc = _write(d / "concentrate.json", inputs.pure_json(conc))
    dil = inputs.pure_amplitudes(2, rng, floor=0.3)
    f_dil = _write(d / "dilute.json", inputs.pure_json(dil))
    dil_probs = np.abs(dil) ** 2
    dil_n = ref.hoeffding_blocklength(dil_probs, DILUTE_DELTA, DILUTE_EPS)
    cover_members = [np.array([1.0, 0.0]), np.sqrt([0.5, 0.5])]
    f_cover = _write(d / "cover.json",
                     inputs.ensemble_json([0.5, 0.5], cover_members))

    f_malformed = d / "malformed.json"
    f_malformed.write_text('{"dim": 2, "matrix": [[1, 0], [0, 0]\n')
    f_nonpsd = _write(d / "non_psd.json",
                      inputs.density_json(inputs.non_psd_matrix(3, rng)))
    basis = np.zeros(4, dtype=complex)
    basis[0] = 1.0
    f_basis = _write(d / "basis4.json", inputs.pure_json(basis))
    f_target4 = _write(d / "target4.json",
                       inputs.pure_json(inputs.pure_amplitudes(4, rng, 0.3)))
    nan = np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex)
    f_nan = _write(d / "nan.json", inputs.density_json(nan))

    seed_args = ["--seed", str(seed)]
    ops = []

    def op(name, argv, check, expect=0, layer="cli", **tags):
        sub = tags.setdefault("subcommand", argv[0] if expect == 0
                              else "invalid")
        main = tracer.wrap(cli.main, f"cli.{sub}")
        ops.append(Op(name=name, layer=layer,
                      fn=partial(_run, main, argv, expect), check=check,
                      fingerprint=fingerprint, tags=dict(tags, argv=argv)))

    op("measure.c", ["measure", "--state", f_pure3, "--which", "c"],
       partial(_check_value, ref.coherence_of_pure(pure3), 1e-12))
    op("measure.cr", ["measure", "--state", f_qubit, "--which", "cr"],
       partial(_check_value, ref.relative_entropy_of_coherence(qubit), 1e-10))
    op("measure.cr_block", ["measure", "--state", f_block, "--which", "cr"],
       partial(_check_value, ref.relative_entropy_of_coherence(block), 1e-10))
    op("measure.cr_variational", ["measure", "--state", f_gen4, "--which",
                                  "cr", "--variational"],
       partial(_check_variational, ref.relative_entropy_of_coherence(gen4)))
    op("measure.cf", ["measure", "--state", f_qubit, "--which", "cf",
                      "--restarts", str(RESTARTS)] + seed_args,
       partial(_check_cf, qubit, ref.qubit_cf(qubit)),
       exact=ref.qubit_cf(qubit), **{"class": "qubit"})
    for tag, src, tgt, f_src, f_tgt, f_ch in pairs:
        op(f"transform.{tag}", ["transform", "--source", f_src, "--target",
                                f_tgt, "--out", f_ch],
           partial(_check_transform, f_ch, src, tgt))
    op("classify.strict", ["classify", "--channel", pairs[0][5]],
       partial(_check_class, "strictly_incoherent"),
       channel_class="strictly_incoherent")
    op("classify.incoherent", ["classify", "--channel", f_merge],
       partial(_check_class, "incoherent"), channel_class="incoherent")
    op("classify.ncg", ["classify", "--channel", f_mixed],
       partial(_check_class, "non_coherence_generating"),
       channel_class="non_coherence_generating")
    op("classify.partition", ["classify", "--channel", f_merge,
                              "--partition", f_partition],
       partial(_check_class, "incoherent"))
    op("reversibility.block", ["reversibility", "--state", f_block,
                               "--restarts", str(RESTARTS)] + seed_args,
       partial(_check_reversibility, True, block_indices), kind="block")
    op("reversibility.generic", ["reversibility", "--state", f_qubit,
                                 "--restarts", str(RESTARTS)] + seed_args,
       partial(_check_reversibility, False, None), kind="generic")
    op("simulate.concentrate", ["simulate", "concentrate", "--state", f_conc,
                                "--n", str(CONC_N), "--trials",
                                str(CONC_TRIALS)] + seed_args,
       partial(_check_concentration, np.abs(conc) ** 2))
    op("simulate.dilute", ["simulate", "dilute", "--state", f_dil, "--n",
                           str(dil_n), "--delta", str(DILUTE_DELTA)]
       + seed_args, partial(_check_dilution, dil_probs, dil_n))
    op("simulate.form", ["simulate", "form", "--state", f_qubit, "--n",
                         str(FORM_N), "--trials", str(FORM_TRIALS),
                         "--delta", str(FORM_DELTA), "--delta2",
                         str(FORM_DELTA), "--restarts", str(RESTARTS)]
       + seed_args, partial(_check_formation, qubit))
    op("simulate.cover", ["simulate", "cover", "--state", f_cover, "--n",
                          str(COVER_N), "--subset-size", str(COVER_S),
                          "--trials", str(COVER_TRIALS)] + seed_args,
       _check_cover)
    # The self-test draws its own states from its seed; a fixed seed keeps
    # its work the same on every run.
    op("selftest", ["selftest", "--seed", "0"], _check_selftest)
    op("version", ["--version"], _check_version, subcommand="version")
    op("invalid.malformed_json", ["measure", "--state", str(f_malformed),
                                  "--which", "cr"],
       partial(_check_error, "malformed JSON"), expect=1)
    op("invalid.missing_file", ["measure", "--state", str(d / "absent.json"),
                                "--which", "cr"],
       partial(_check_error, "no such file"), expect=1)
    op("invalid.non_psd", ["measure", "--state", f_nonpsd, "--which", "cr"],
       partial(_check_error, "positive_semidefinite"), expect=2)
    op("invalid.impossible_transform", ["transform", "--source", f_basis,
                                        "--target", f_target4],
       partial(_check_error, "transformation_impossible"), expect=3)
    op("invalid.nan_state", ["measure", "--state", f_nan, "--which", "cr"],
       partial(_check_error, None), expect=2, layer="qstate")

    # Warm-up: first calls through the parser, JSON and the linear algebra.
    _run(cli.main, ["measure", "--state", f_qubit, "--which", "cr"], 0)
    _run(cli.main, ["classify", "--channel", f_merge], 0)
    return Workload(rounds=[ops], quality=partial(_quality, d),
                    record_metrics=_record_metrics,
                    patches=_patches())


def _patches():
    """Layer entry points, wrapped where cohkit.cli (or the layer calling
    them) looks them up, so CLI self time is separated from layer time."""
    out = [(cli, name, f"{module}.{name}") for module, name in (
        ("qstate", "state_from_dict"),
        ("measures", "entropy_of_coherence"),
        ("measures", "relative_entropy_of_coherence"),
        ("measures", "relative_entropy_of_coherence_variational"),
        ("measures", "coherence_of_formation"),
        ("incoherent", "synthesize_pure_transformation"),
        ("incoherent", "classify_channel"),
        ("reversibility", "is_reversible"),
        ("asymptotic", "simulate_concentration"),
        ("asymptotic", "simulate_dilution"),
        ("asymptotic", "simulate_formation"),
        ("asymptotic", "covering_check"),
        ("selftest", "run_selftest"))]
    out += [(cli, "IncoherentChannel", "incoherent.IncoherentChannel.from_dict",
             "from_dict"),
            (cli, "Ensemble", "measures.Ensemble.from_dict", "from_dict"),
            (incoherent, "majorization_check",
             "incoherent.majorization_check"),
            (reversibility, "detect_blocks", "reversibility.detect_blocks")]
    return out


def _quality(d):
    """cf_excess_bits: ``measure --which cf`` over the fixed panel."""
    pairs, problems = [], []
    rng = inputs.rng_for(PANEL_SEED)
    for i, (cls, build) in enumerate(PANEL):
        matrix, exact = build(rng)
        path = _write(d / f"panel_{i}.json", inputs.density_json(matrix))
        try:
            result = _run(cli.main, ["measure", "--state", path, "--which",
                                     "cf", "--restarts", str(RESTARTS)], 0)
        except OpFailed as exc:
            problems.append(f"panel {cls}: {exc}")
            continue
        rep = _report(result)
        problems += [f"panel {cls}: {p}"
                     for p in _cf_report_problems(matrix, exact, rep)]
        pairs.append((rep["value"], exact))
    return excess_sum(pairs), problems


def _record_metrics(records) -> dict:
    """Answer quality of the round's ``measure --which cf`` call."""
    for rec in records:
        if rec.op.name == "measure.cf" and rec.error is None:
            return {"measures.cf_excess_bits.qubit": excess_sum(
                [(_report(rec.result)["value"], rec.op.tags["exact"])])}
    return {}
