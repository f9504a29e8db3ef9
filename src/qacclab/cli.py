"""Command-line entry points for reproducible runs.

Exit codes: 0 success/accept/equivalent, 1 reject/counterexample/invalid
outcome, 2 usage or input error, 3 a memory or work budget was exceeded.
Reports are byte-deterministic; --json switches to machine-readable form.
main(argv) may be called any number of times in one process: the parser is
built on the first call and reused, so a shell run, which calls it once, is
unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import circuit as cir, dsl, statevec, tensorgraph, transforms
from .algebra import ContextError, load_context
from .budget import CapExceededError
from .circuit import ValidationError, circuit_stats
from .statevec import AcceptanceError


def _load_circuit(args):
    with open(args.circuit, encoding="utf-8") as fh:
        text = fh.read()
    context = load_context(args.context_file) if args.context_file else None
    return dsl.parse_circuit(text, context=context)


def _emit(args, payload: dict, human: str | None) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _scalar_report(amp) -> dict:
    approx = amp.numeric()
    return {"exact": amp.to_json(), "approx": [approx.real, approx.imag]}


def _scalar_human(amp) -> str:
    try:
        exact = dsl.scalar_to_text(amp)
    except ValueError:
        exact = repr(amp)
    a = amp.numeric()
    return f"{exact} ~ ({a.real:+.9f}{a.imag:+.9f}i)"


def cmd_simulate(args) -> int:
    c = _load_circuit(args)
    state = statevec.run(c, args.input)
    if args.json:
        print(json.dumps(state.to_json(), sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(state.entries):
            print(f"|{cir.key_to_bits(key, state.width)}>  {_scalar_human(state.entries[key])}")
    return 0


def cmd_amplitude(args) -> int:
    c = _load_circuit(args)
    amp = statevec.amplitude(c, args.input, args.target)
    _emit(args, _scalar_report(amp), f"<{args.target}|C|{args.input}> = {_scalar_human(amp)}")
    return 0


def cmd_accept(args) -> int:
    c = _load_circuit(args)
    result = statevec.accept(c, args.input, args.target, args.mode)
    payload = {"decision": result.decision, "mode": result.mode}
    if result.probability is not None:
        payload["probability"] = str(result.probability)
    _emit(args, payload, result.decision)
    return 0 if result.decision == "accept" else 1


class UsageError(ValueError):
    pass


def cmd_build(args) -> int:
    spec = transforms.builder_spec(args.builder, args.n, args.q, args.r)
    built = spec.build(args.n, args.q, args.r)
    text = dsl.serialize_circuit(built)
    if args.json:
        print(json.dumps({"dsl": text}, sort_keys=True, separators=(",", ":")))
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    report = transforms.check_builder(args.builder, args.n, args.q, args.r)
    human = report.verdict
    if report.counterexample is not None:
        x, y, _lhs, _rhs = report.counterexample
        human += f" at input {x}, output {y}"
    _emit(args, report.to_json(), human)
    return 0 if report.equivalent else 1


def cmd_graph(args) -> int:
    if args.method is not None and args.target is None:
        raise UsageError(f"--method {args.method} needs --target")
    c = _load_circuit(args)
    g = tensorgraph.tg_build(c, args.input)
    if args.target is None:
        payload = tensorgraph.tg_to_json(g)
        # the indented dump costs more than the graph; make it only to print it
        human = None if args.json else json.dumps(payload, sort_keys=True, indent=1)
        _emit(args, payload, human)
        return 0
    method = args.method or "dp"
    if method == "paths":
        amp = tensorgraph.tg_amplitude_paths(g, args.target)
    else:
        amp = tensorgraph.tg_amplitude_dp(g, args.target)
    _emit(
        args,
        {"method": method, **_scalar_report(amp)},
        f"amplitude[{method}] of |{args.target}> = {_scalar_human(amp)}",
    )
    return 0


def cmd_metrics(args) -> int:
    c = _load_circuit(args)
    g = tensorgraph.tg_build(c, args.input)
    m = tensorgraph.tg_metrics(g)
    payload = {**m.to_json(), "circuit": circuit_stats(c)}
    human = (
        f"width={m.width} height={m.height} paths={m.path_count} "
        f"color_depth={m.color_depth} color_consistent={m.color_consistent} "
        f"dense_lowered_gates={m.dense_lowered_gates}"
    )
    _emit(args, payload, human)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qacc` parser, built (and set_defaults(fn=...) bound to the cmd_*
    functions) on the first call and reused by every main(argv) after it: no
    command changes it, and parse_args returns a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="qacc",
        description="Exact simulation, tensor graphs, and gate-equivalence "
        "checks for constant-depth QACC circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_circuit_flags(p, target=False, target_required=False):
        p.add_argument("--circuit", required=True, help="DSL circuit file")
        p.add_argument("--input", required=True, help="input bitstring")
        if target:
            p.add_argument(
                "--target", required=target_required, default=None, help="target basis bits"
            )
        p.add_argument("--context-file", default=None, help="JSON context overriding the header")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="exact state dump")
    add_circuit_flags(p)
    add_json(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("amplitude", help="one exact amplitude")
    add_circuit_flags(p, target=True, target_required=True)
    add_json(p)
    p.set_defaults(fn=cmd_amplitude)

    p = sub.add_parser("accept", help="E/N/B acceptance decision")
    add_circuit_flags(p, target=True, target_required=True)
    p.add_argument("--mode", required=True, choices=("E", "N", "B"))
    add_json(p)
    p.set_defaults(fn=cmd_accept)

    for name, help_text in (("build", "emit a builder circuit as DSL"),
                            ("check", "equivalence-check a builder against its target")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--builder", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--r", type=int, default=0)
        add_json(p)
        p.set_defaults(fn=cmd_build if name == "build" else cmd_check)

    p = sub.add_parser("graph", help="tensor-graph dump or amplitude")
    add_circuit_flags(p, target=True)
    p.add_argument("--method", choices=("dp", "paths"), help="with --target; dp by default")
    add_json(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("metrics", help="tensor-graph metrics")
    add_circuit_flags(p)
    add_json(p)
    p.set_defaults(fn=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        dsl.ParseError,
        ValidationError,
        ContextError,
        OSError,
        UnicodeDecodeError,
        UsageError,
        transforms.BuilderArgumentError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AcceptanceError, tensorgraph.GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
