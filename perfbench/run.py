"""Benchmark of the fractalseq CLI as a user runs it.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the children run that checkout's
``src`` through ``python -m fractalseq``.  Each workload is a closed
loop: one client, one child at a time.  The seed draws the inputs; the
pool holds ``passes`` passes of each workload's operations, each pass at
fresh sizes within the same strata, where ``passes`` is ``--seconds``
divided by a pass's nominal duration at the commit that defined the
benchmark, so a given seed and ``--seconds`` always ask for the same
work.  The pool runs in one seeded random order.  Outputs are checked
after the timed loop, against oracles the timed path does not use (see
``workloads.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics from
one traced pass, where every op runs once untraced and once through
``tracer.py``.  A fuller record of each run is appended to
``perfbench/results/runs.jsonl`` for ``compare.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Nominal seconds of one pass of each workload at the commit that defined
# the benchmark (2-core VM, Python 3.11).  Only sets how many passes a run
# makes, so that a run there measures about --seconds.
PASS_SECONDS = {"generate": 3.0, "analyze": 11.0, "construct": 8.0}
PROBES = 25          # set-up probes and host-score samples per run
OP_TIMEOUT_S = 120   # a child still running after this is killed and fails
SETUP_ARGV = ["generate", "--theta", "1", "--count", "1"]


@dataclass
class Sample:
    wall: float
    out: bytes
    code: int
    maxrss_kb: int
    cpu_s: float
    err: bytes

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out).hexdigest() + f":{self.code}"


class Spawner:
    """Runs one child at a time with stdout piped back.

    Children are spawned and reaped by ``launcher.py``, which stays small,
    so their max-RSS is their own and not this process's peak.
    """

    def __init__(self, workdir: Path) -> None:
        env = dict(os.environ)
        env.pop("FRACTALSEQ_MAX_TERMS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.errpath = workdir / "stderr"
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.launcher = subprocess.Popen(
                [sys.executable, "-S", str(BENCH / "launcher.py"), str(theirs.fileno()),
                 str(OP_TIMEOUT_S)], pass_fds=[theirs.fileno()], env=env, cwd=ROOT)

    def close(self) -> None:
        self.sock.send(b"")
        self.sock.close()
        self.launcher.wait(timeout=OP_TIMEOUT_S)

    def run(self, args: list[str]) -> Sample:
        with open(self.errpath, "w+b") as err:
            r, w = os.pipe()
            t0 = time.perf_counter()
            socket.send_fds(self.sock, [json.dumps([sys.executable] + args).encode()],
                            [w, err.fileno()])
            os.close(w)
            with open(r, "rb") as stdout:
                out = stdout.read()
            code, maxrss_kb, cpu_s = json.loads(self.sock.recv(4096))
            wall = time.perf_counter() - t0
            err.seek(0)
            return Sample(wall, out, code, maxrss_kb, cpu_s, err.read()[:2000])

    def cli(self, argv: list[str]) -> Sample:
        return self.run(["-m", "fractalseq"] + argv)

    def traced(self, argv: list[str], spans_path: Path, op_id: str) -> Sample:
        return self.run([str(BENCH / "tracer.py"), str(spans_path), op_id, "--"] + argv)


def cpu_score() -> float:
    """Million iterations per second of a fixed integer and dict loop."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return 0.05 / (time.perf_counter() - t0)


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples above its
    nearest-rank value, and that value."""
    xs = sorted(latencies)
    for p in range(99, 0, -1):
        rank = math.ceil(p * len(xs) / 100)
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git so nothing outside it is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "fractalseq").rglob("*.py")))


def shares(ops, empty: int) -> dict:
    """Share of the pool with each categorical property."""
    counts: Counter = Counter()
    for op in ops:
        counts[f"kind={op.kind}"] += 1
        for k, v in op.props.items():
            if v is True:
                counts[k] += 1
            elif isinstance(v, str):
                counts[f"{k}={v}"] += 1
    out = {k: v / len(ops) for k, v in sorted(counts.items())}
    inverts = counts["kind=invert"]
    if inverts:
        out["invert_empty"] = empty / inverts
    return out


def verify(samples):
    """Check the first output of each op against its oracle and every
    repeat against the first by digest.  Returns per-sample (ok, terms),
    failure notes, the oracle time and the EMPTY count."""
    t0 = time.perf_counter()
    first: dict[tuple, tuple[str, Optional[str], int]] = {}
    results, failures, empty = [], [], 0
    for op, sample in samples:
        if op.key not in first:
            try:
                error, terms = op.verify(sample.out, sample.code)
            except Exception as exc:   # an oracle crash is a failed op, not a dead run
                error, terms = f"oracle raised {exc!r}", 0
            first[op.key] = (sample.digest, error, terms)
            empty += op.kind == "invert" and sample.out.strip() == b"EMPTY"
        digest, error, terms = first[op.key]
        if error is None and sample.digest != digest:
            error = "output differs from an earlier run of the same op"
        if error is not None:
            failures.append({"argv": op.argv, "error": error, "code": sample.code,
                             "stderr": sample.err.decode("utf-8", "replace")})
        results.append((error is None, terms))
    return results, failures, time.perf_counter() - t0, empty


def run_workload(name: str, seed: int, seconds: int, trace: bool, scale: float = 1.0) -> dict:
    import workloads
    import layers

    workdir = BENCH / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(workdir)
    try:
        resolved = spawner.run(["-c", "import fractalseq; print(fractalseq.__file__)"])
        path = resolved.out.decode().strip()
        if resolved.code != 0 or not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"fractalseq does not resolve to {SRC}: {path or resolved.err!r}")

        rng = random.Random(f"{name}:{seed}")
        t0 = time.perf_counter()
        passes = 1 if trace else max(1, round(seconds / PASS_SECONDS[name]))
        pool = workloads.WORKLOADS[name](rng, workdir, passes, scale)
        input_s = time.perf_counter() - t0
        sequence = list(pool)
        rng.shuffle(sequence)

        spawner.cli(SETUP_ARGV)   # warm-up: byte-compile, fill the page cache
        t0 = time.perf_counter()
        probe_at = {round(j * len(sequence) / PROBES) for j in range(PROBES)}
        samples, probes, scores, traced = [], [], [], []
        for i, op in enumerate(sequence):
            if i in probe_at:
                if not trace:
                    probes.append(spawner.cli(SETUP_ARGV))
                scores.append(cpu_score())
            if trace:
                # Alternate which of the pair runs first, so warm caches
                # favour neither side of trace.overhead_ratio.
                spans_path = workdir / "spans.json"
                if i % 2:
                    t_sample = spawner.traced(op.argv, spans_path, str(i))
                    sample = spawner.cli(op.argv)
                else:
                    sample = spawner.cli(op.argv)
                    t_sample = spawner.traced(op.argv, spans_path, str(i))
                spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
                spans_path.unlink(missing_ok=True)
                traced.append((op, sample, t_sample, spans))
            else:
                sample = spawner.cli(op.argv)
            samples.append((op, sample))
        loop_s = time.perf_counter() - t0

        results, failures, oracle_s, empty = verify(samples)
        ok_probe = [p.out == b"1\n" and p.code == 0 for p in probes]
        failed = sum(not ok for ok, _ in results) + ok_probe.count(False)
        attempted = len(results) + len(probes)
        if not all(ok_probe):
            failures.append({"argv": SETUP_ARGV, "error": "set-up probe output"})
        extra = {}
        if trace:
            traced_ops = []
            for (op, sample, t_sample, spans), (_, terms) in zip(traced, results):
                if t_sample.digest != sample.digest:
                    failed += 1
                    failures.append({"argv": op.argv, "error": "traced output differs"})
                traced_ops.append(layers.TracedOp(
                    op.kind, t_sample.wall, sample.wall, spans, len(t_sample.out),
                    t_sample.out.count(b"\n"), terms))
            attempted += len(traced)
            metrics = layers.layer_metrics(traced_ops)
            extra["span_counts"] = layers.span_counts(traced_ops)
            constructs = sum(op.kind == "construct" for op in traced_ops)
            if constructs:
                extra["forks_per_construct_op"] = metrics["construction.forks"] / constructs
        else:
            walls = [s.wall for _, s in samples]
            pct, tail_s = tail(walls)
            metrics = {
                "terms_per_s": sum(t for _, t in results) / sum(walls),
                "latency_p50_ms": 1000 * statistics.median(walls),
                "latency_tail_ms": 1000 * tail_s,
                "peak_rss_mb": max(s.maxrss_kb for _, s in samples) / 1024,
                "setup_s": statistics.median(p.wall for p in probes),
            }
            extra.update(tail_percentile=pct, probes=len(probes))

        context = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "passes": passes, "ops_per_pass": len(pool) // passes, "samples": len(samples),
            "python": sys.version.split()[0], "executable": sys.executable,
            "nproc": os.cpu_count(), "commit": git_commit(), "src_lines": src_lines(),
            "fractalseq_file": path,
            "host_score_mips": statistics.median(scores),
            "input_s": input_s, "loop_s": loop_s, "oracle_s": oracle_s,
            "error_rate": failed / attempted,
            "cpu_s": sum(s.cpu_s for _, s in samples),
            "workload_props": shares(pool, empty),
            **extra,
        }
        return {"workload": name, "correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics, "context": context,
                "failures": failures[:20]}
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["generate", "analyze", "construct", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fractalseq" / "__init__.py").is_file():
        print(f"error: no fractalseq package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    sys.path[:0] = [str(SRC), str(BENCH)]

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace))
        with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        print(f"== {name}  seed={args.seed}  trace={args.trace}")
        for metric, unit in units.items():
            print(f"  {metric:38s} {record['metrics'][metric]:>16.6g} {unit}")
        if not args.trace:
            print(f"  {'error_rate':38s} {record['context']['error_rate']:>16.6g} "
                  f"({record['failed']}/{record['attempted']})")
            print(f"  latency_tail_ms is p{record['context']['tail_percentile']} "
                  f"of {record['context']['samples']} ops")
        for failure in record["failures"]:
            print(f"  FAILED {' '.join(failure['argv'])[:120]}: {failure['error']}")
        print("context: " + json.dumps(record["context"]))
        prefix = f"{name}." if len(names) > 1 else ""
        final["correct"] &= record["correct"]
        final["attempted"] += record["attempted"]
        final["failed"] += record["failed"]
        final["metrics"].update({prefix + m: {"value": record["metrics"][m], "unit": u}
                                 for m, u in units.items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
