"""Per-layer metrics from the spans of a traced run.

Every total is over one traced pass of the workload's pool.  Self time
is a span's duration minus the durations of its direct children; calls
are sequential, so the children never overlap.

``MOVES`` records, for each metric, the end-to-end metric it should move
and the workload that exercises it.  A layer a workload does not reach
reads 0 there.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

MOVES = {
    "cli.process_start_s": ("setup_s, latency_p50_ms", "all"),
    "cli.main_self_s": ("terms_per_s", "generate, analyze (trim)"),
    "cli.format_ns_per_line": ("terms_per_s", "generate, analyze (trim)"),
    "cli.output_bytes": ("terms_per_s", "generate, analyze (trim)"),
    "signature.surd_ns_per_term": ("terms_per_s, latency_tail_ms, peak_rss_mb", "generate"),
    "signature.rational_ns_per_term": ("terms_per_s, latency_tail_ms, peak_rss_mb", "generate"),
    "signature.generate_terms": ("terms_per_s, latency_tail_ms, peak_rss_mb", "generate"),
    "signature.parse_theta_s": ("latency_p50_ms", "generate"),
    "seqcore.parse_terms_ns_per_term": ("terms_per_s", "analyze"),
    "seqcore.trim_ns_per_term": ("terms_per_s", "analyze"),
    "seqcore.check_calls": ("terms_per_s", "analyze"),
    "seqcore.check_terms_scanned": ("terms_per_s", "analyze"),
    "seqcore.check_ns_per_term": ("terms_per_s", "analyze"),
    "seqcore.annotate_ranks_s": ("latency_tail_ms", "analyze"),
    "inverse.invert_ns_per_term": ("terms_per_s, latency_tail_ms", "analyze"),
    "inverse.empty_share": ("terms_per_s, latency_tail_ms", "analyze"),
    "inverse.diverge_ns_per_term": ("terms_per_s", "analyze"),
    "inverse.diverge_terms": ("terms_per_s", "analyze"),
    "construction.validate_s": ("terms_per_s, latency_tail_ms", "construct"),
    "construction.validate_terms_scanned": ("terms_per_s, latency_tail_ms", "construct"),
    "construction.validate_scan_ratio": ("terms_per_s, latency_tail_ms", "construct"),
    "construction.merge_s": ("latency_p50_ms", "construct"),
    "construction.seam_s": ("latency_p50_ms", "construct"),
    "construction.seam_calls_per_block": ("latency_p50_ms", "construct"),
    "construction.extend_self_s": ("terms_per_s", "construct"),
    "construction.blocks": ("terms_per_s", "construct"),
    "construction.forks": ("terms_per_s", "construct"),
    "construction.runs_per_op": ("latency_p50_ms", "construct"),
    "trace.overhead_ratio": ("none: cost of tracing", "each"),
}


@dataclass
class TracedOp:
    kind: str
    wall: float            # traced child, spawn to reap
    untraced_wall: float   # the same op through python -m fractalseq
    spans: list[dict]
    out_bytes: int
    out_lines: int
    terms: int


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[TracedOp]) -> dict[str, float]:
    dur = defaultdict(float)      # span name -> total duration
    self_s = defaultdict(float)   # span name -> total self time
    n = defaultdict(int)          # span name -> total work count
    calls = defaultdict(int)
    flags = defaultdict(int)      # "empty" and "fork" attributes set
    main_self_format = 0.0
    process_start = []
    generate_kinds = defaultdict(lambda: [0.0, 0])   # kind -> [seconds, terms]
    for op in ops:
        child = defaultdict(float)
        for s in op.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(op.spans):
            name, d = s["name"], s["end"] - s["start"]
            dur[name] += d
            self_s[name] += d - child[i]
            n[name] += s.get("n", 0)
            calls[name] += 1
            flags[name] += bool(s.get("empty") or s.get("fork"))
            if name == "cli.main":
                process_start.append(op.wall - d)
                if op.kind in ("generate", "trim"):
                    main_self_format += d - child[i]
            elif name == "cli.generate_signature":
                generate_kinds[s["kind"]][0] += d
                generate_kinds[s["kind"]][1] += s["n"]

    format_lines = sum(op.out_lines for op in ops if op.kind in ("generate", "trim"))
    trims = ("cli.upper_trim", "cli.lower_trim")
    seams = ("construction.seam_below", "construction.seam_above")
    runs = ("cli.construct_ramp_state", "cli.construct_ones", "cli.enumerate_ramp")
    extend = "construction.extend_next_block"
    validate = "construction.check_doubly_fractal_prefix"
    construct_ops = [op for op in ops if op.kind == "construct"]
    ns = 1e9
    return {
        "cli.process_start_s": statistics.median(process_start) if process_start else 0.0,
        "cli.main_self_s": self_s["cli.main"],
        "cli.format_ns_per_line": ns * _ratio(main_self_format, format_lines),
        "cli.output_bytes": sum(op.out_bytes for op in ops),
        "signature.surd_ns_per_term": ns * _ratio(*generate_kinds["surd"]),
        "signature.rational_ns_per_term": ns * _ratio(*generate_kinds["rational"]),
        "signature.generate_terms": n["cli.generate_signature"],
        "signature.parse_theta_s": dur["cli.parse_theta"],
        "seqcore.parse_terms_ns_per_term": ns * _ratio(dur["cli.parse_terms"],
                                                       n["cli.parse_terms"]),
        "seqcore.trim_ns_per_term": ns * _ratio(sum(dur[t] for t in trims),
                                                sum(n[t] for t in trims)),
        "seqcore.check_calls": calls["cli.check_doubly_fractal_prefix"],
        "seqcore.check_terms_scanned": n["cli.check_doubly_fractal_prefix"],
        "seqcore.check_ns_per_term": ns * _ratio(dur["cli.check_doubly_fractal_prefix"],
                                                 n["cli.check_doubly_fractal_prefix"]),
        "seqcore.annotate_ranks_s": dur["inverse.annotate_ranks"],
        "inverse.invert_ns_per_term": ns * _ratio(self_s["cli.theta_interval_from_prefix"],
                                                  n["cli.theta_interval_from_prefix"]),
        "inverse.empty_share": _ratio(flags["cli.theta_interval_from_prefix"],
                                      calls["cli.theta_interval_from_prefix"]),
        "inverse.diverge_ns_per_term": ns * _ratio(dur["cli.first_divergence"],
                                                   n["cli.first_divergence"]),
        "inverse.diverge_terms": n["cli.first_divergence"],
        "construction.validate_s": dur[validate],
        "construction.validate_terms_scanned": n[validate],
        "construction.validate_scan_ratio": _ratio(n[validate],
                                                   sum(op.terms for op in construct_ops)),
        "construction.merge_s": dur["construction.merge_seams"],
        "construction.seam_s": sum(dur[s] for s in seams),
        "construction.seam_calls_per_block": _ratio(sum(calls[s] for s in seams),
                                                    calls[extend]),
        "construction.extend_self_s": self_s[extend],
        "construction.blocks": calls[extend],
        "construction.forks": flags[extend],
        "construction.runs_per_op": _ratio(sum(calls[r] for r in runs), len(construct_ops)),
        "trace.overhead_ratio": _ratio(sum(op.wall for op in ops),
                                       sum(op.untraced_wall for op in ops)),
    }


def span_counts(ops: list[TracedOp]) -> dict[str, int]:
    """Calls and work counts per span name; these must repeat exactly."""
    out: dict[str, int] = defaultdict(int)
    for op in ops:
        for s in op.spans:
            out[s["name"] + ".calls"] += 1
            out[s["name"] + ".n"] += s.get("n", 0)
            out[s["name"] + ".flags"] += bool(s.get("empty") or s.get("fork"))
    return dict(out)
