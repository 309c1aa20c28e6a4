"""Run ``fractalseq.cli.main`` once with spans around the calls into each
module, then write the spans as JSON.

    python perfbench/tracer.py SPANS_OUT OP_ID -- fractalseq-args...

The CLI and the construction loops look their collaborators up as
module globals at call time, so rebinding those names here puts a span
around every call without touching the package.  Each span records its
name, start, end, parent span index, the op id and, where one exists, a
count of the work it was handed.  Spans stay in memory until ``main``
returns.  stdout and the exit code are exactly those of
``python -m fractalseq``.
"""
import json
import sys
import time
from fractions import Fraction


def _len_arg(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


# (module, attribute, count of work, extra attributes)
TRACED = [
    ("cli", "generate_signature", lambda a, r: a[1],
     lambda a, r: {"kind": "rational" if isinstance(a[0], Fraction) else "surd"}),
    ("cli", "parse_theta", None, None),
    ("cli", "parse_terms", _len_result, None),
    ("cli", "check_doubly_fractal_prefix", _len_arg, None),
    ("cli", "upper_trim", _len_arg, None),
    ("cli", "lower_trim", _len_arg, None),
    ("cli", "theta_interval_from_prefix", _len_arg,
     lambda a, r: {"empty": r.is_empty}),
    ("cli", "first_divergence", lambda a, r: a[2] if r is None else r, None),
    ("cli", "construct_ramp_state", lambda a, r: len(r.terms), None),
    ("cli", "construct_ones", _len_result, None),
    ("cli", "enumerate_ramp", lambda a, r: sum(len(t) for _, t in r), None),
    ("inverse", "annotate_ranks", _len_arg, None),
    ("construction", "merge_seams", None, None),
    ("construction", "seam_below", None, None),
    ("construction", "seam_above", None, None),
    ("construction", "needs_branch", None, None),
    ("construction", "extend_next_block", None,
     lambda a, r: {"fork": len(a) > 1 and a[1] is not None}),
    ("construction", "check_doubly_fractal_prefix", _len_arg, None),
]


class Tracer:
    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def call(self, name, fn, args, kwargs, count=None, attrs=None):
        span = {"name": name, "op": self.op_id,
                "parent": self.stack[-1] if self.stack else None}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
        if count is not None:
            span["n"] = count(args, result)
        if attrs is not None:
            span.update(attrs(args, result))
        return result

    def wrap(self, module, attr, count, attrs) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, attrs)

        setattr(module, attr, traced)


def main() -> int:
    out_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT OP_ID -- args...")
    from fractalseq import cli, construction, inverse
    modules = {"cli": cli, "construction": construction, "inverse": inverse}
    tracer = Tracer(op_id)
    for module, attr, count, attrs in TRACED:
        tracer.wrap(modules[module], attr, count, attrs)
    code = tracer.call("cli.main", cli.main, (argv,), {})
    sys.stdout.flush()
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
