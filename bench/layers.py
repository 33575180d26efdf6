"""Per-layer metrics from the spans of a traced run.

Spans are recorded in the benchmark's own code: around each operation, and
around the layer entry points the operation reaches, wrapped where their
callers look them up.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from harness import median_of

LAYERS = ("qstate", "measures", "incoherent", "asymptotic", "reversibility",
          "cli")
CF_CLASSES = ("qubit", "product", "block", "pure", "lowrank", "generic")
CLASSIFY_KINDS = {"strict": "strictly_incoherent", "incoherent": "incoherent",
                  "ncg": "non_coherence_generating"}
SUBCOMMANDS = ("measure", "transform", "classify", "reversibility",
               "simulate", "selftest")
US, MS = 1e-3, 1e-6  # nanoseconds to microseconds / milliseconds


def _tag(span, key):
    return span.op.tags.get(key) if span.op is not None else None


def per_layer(spans, records, imports) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def med(name, scale, **tags):
        return median_of((s.duration_ns for s in by_name[name]
                          if all(_tag(s, k) == v for k, v in tags.items())),
                         scale)

    out = {
        "qstate.density_matrix_us": med("qstate.DensityMatrix", US),
        "qstate.state_from_dict_us": med("qstate.state_from_dict", US),
        "qstate.fidelity_us": med("qstate.fidelity", US),
        "measures.cr_us": med("measures.relative_entropy_of_coherence", US),
        "measures.cr_variational_ms": med(
            "measures.relative_entropy_of_coherence_variational", MS),
        "incoherent.majorization_ms": med("incoherent.majorization_check", MS),
        "incoherent.synthesize_ms": med(
            "incoherent.synthesize_pure_transformation", MS),
        "incoherent.channel_from_dict_ms": med(
            "incoherent.IncoherentChannel.from_dict", MS),
        "asymptotic.frequency_typical_ms": med(
            "asymptotic.frequency_typical_probability", MS),
        "asymptotic.concentration_ms": med("asymptotic.simulate_concentration",
                                           MS),
        "asymptotic.formation_ms": med("asymptotic.simulate_formation", MS,
                                       reconstruct=False),
        "asymptotic.formation_reconstruct_ms": med(
            "asymptotic.simulate_formation", MS, reconstruct=True),
        "reversibility.detect_blocks_us": med("reversibility.detect_blocks",
                                              US),
    }
    for cls in CF_CLASSES:
        out[f"measures.cf_ms.{cls}"] = med("measures.coherence_of_formation",
                                           MS, **{"class": cls})
    for short, label in CLASSIFY_KINDS.items():
        out[f"incoherent.classify_us.{short}"] = med(
            "incoherent.classify_channel", US, channel_class=label)
    for d in (2, 3, 4, 5):
        out[f"asymptotic.typical_set_ms.d{d}"] = med(
            "asymptotic.typical_set_probability", MS, d=d)
    for size in (8, 16, 32, 64):
        out[f"asymptotic.covering_ms.S{size}"] = med(
            "asymptotic.covering_check", MS, S=size)
    for kind in ("block", "generic"):
        out[f"reversibility.is_reversible_ms.{kind}"] = med(
            "reversibility.is_reversible", MS, kind=kind)
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = med(f"cli.{sub}", MS)
        out[f"cli.self_ms.{sub}"] = median_of(
            (s.self_ns for s in by_name[f"cli.{sub}"]), MS)
    out["cli.report_bytes.transform"] = median_of(
        (len(rec.result.stdout) for rec in records
         if rec.error is None and rec.op.tags.get("subcommand") == "transform"),
        1.0)
    for part in ("numpy", "scipy_optimize", "cohkit"):
        out[f"cli.import_ms.{part}"] = imports[part] * 1e3
    for layer in LAYERS:
        out[f"{layer}.failed"] = float(sum(
            rec.error is not None and rec.op.layer == layer for rec in records))
    return out
