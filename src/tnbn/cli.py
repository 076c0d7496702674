"""Command line interface.

Subcommands: validate, infer, session, simulate, evaluate. Exit code 0 on
success, 1 for domain errors (invalid network, unknown node or state,
impossible evidence), 2 for files or arguments that cannot be read at all.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Optional

from .errors import ModelFormatError, TNBNError
from .inference import CompiledNetwork, Distribution, compile_network, posterior
from .model import NetworkSpec, NodeState, format_time, validate
from .modelfile import load_event_log, load_network
from .session import Forecast, Session, open_session
from .simulate import CONDITIONS, _trajectories, evaluate


def _window_text(window: tuple[float, float]) -> str:
    return f"[{format_time(window[0])},{format_time(window[1])}]"


def _sampled_time_text(t: Optional[float]) -> str:
    """A sampled time to three decimals; '-' for none, and `repr` from 1e16
    in size, as `format_time` switches (so 1e300 is `1e+300`, not 304 digits)."""
    if t is None:
        return "-"
    return f"{t:.3f}" if abs(t) < 1e16 else repr(t)


def _print_distribution(
    spec: NetworkSpec,
    dist: Distribution,
    forecast: Optional[Forecast] = None,
    indent: str = "  ",
) -> None:
    node = spec.node(dist.node)
    labels = [node.state_label(s) for s in dist.states]
    width = max(len(l) for l in labels)
    for i, (state, p) in enumerate(dist.items()):
        line = f"{indent}{labels[i]:<{width}}  {p:.4f}"
        if forecast is not None and forecast.windows[i] is not None:
            line += f"  window {_window_text(forecast.windows[i])}"
        print(line)


def _parse_evidence(spec: NetworkSpec, items: list[str]) -> dict[str, NodeState]:
    evidence: dict[str, NodeState] = {}
    for item in items:
        name, sep, label = item.partition("=")
        if not sep or not name or not label:
            raise ModelFormatError(f"evidence {item!r} is not of the form NODE=STATE")
        if name in evidence:
            raise ModelFormatError(f"evidence names node {name!r} twice")
        evidence[name] = spec.node(name).parse_state_label(label)
    return evidence


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = load_network(args.model)
    violations = validate(spec)
    if not violations:
        print(f"{args.model}: ok ({len(spec.nodes)} nodes, {len(spec.edges)} edges)")
        return 0
    for v in violations:
        print(f"{args.model}: {v}")
    print(f"{args.model}: {len(violations)} problem(s) found")
    return 1


def _cmd_infer(args: argparse.Namespace) -> int:
    spec = load_network(args.model)
    net = compile_network(spec)
    evidence = _parse_evidence(spec, args.evidence)
    dist = posterior(net, args.query, evidence)
    given = ", ".join(
        f"{nid}={spec.node(nid).state_label(s)}" for nid, s in evidence.items()
    )
    print(f"P({args.query} | {given})" if given else f"P({args.query})")
    _print_distribution(spec, dist)
    return 0


def _print_session(spec: NetworkSpec, session: Session) -> None:
    anchor = session.anchor
    assert anchor is not None
    print(f"anchor: {anchor.node}={anchor.value} at {format_time(anchor.tc)}")
    print("resolved:")
    if not session.resolved:
        print("  (none)")
    for nid, r in session.resolved.items():
        line = f"  {nid} = {spec.node(nid).state_label(r.state)} at {format_time(r.tc)}"
        if r.window is not None:
            line += f", window {_window_text(r.window)}"
        print(line)
    if session.pending:
        node = spec.node(anchor.node)
        print("pending:")
        print(f"  {anchor.node} = {anchor.value} at {format_time(anchor.tc)}, interval unknown")
        print("scenarios:")
        for s in session.scenarios():
            print(f"  {s.weight:.4f}  {anchor.node}={node.state_label(s.state)}")
    if session.inconsistent:
        print("inconsistent:")
        for e, reason in session.inconsistent:
            print(f"  {e.node} = {e.value} at {format_time(e.tc)}: {reason}")


def _cmd_session(args: argparse.Namespace) -> int:
    spec = load_network(args.model)
    net = compile_network(spec)
    events = load_event_log(args.log)
    session = open_session(net)
    for event in events:
        session = session.observe(event)
    if not session.events:
        print(f"{args.log}: no events")
        return 0
    _print_session(spec, session)
    report = session.diagnose() if args.diagnose else session.predict()
    print("diagnosis:" if args.diagnose else "forecasts:")
    if not report.forecasts:
        print("  (none)")
    for nid, forecast in report.forecasts.items():
        print(f"  P({nid})")
        _print_distribution(spec, forecast.distribution, forecast, indent="    ")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    net = compile_network(load_network(args.model))
    trajectories = _trajectories(net, args.seed, args.trials)  # checked before -o is opened
    spec = net.spec
    # each trajectory is written as it is sampled, one blank line between two
    with (open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)) as handle:
        for t, trajectory in enumerate(trajectories):
            lines = [f"# trajectory {t} (seed {trajectory.seed})", "node\tstate\ttime"]
            for entry in trajectory.entries:
                label = spec.node(entry.node).state_label(entry.state)
                lines.append(f"{entry.node}\t{label}\t{_sampled_time_text(entry.time)}")
            handle.write(("\n" if t else "") + "\n".join(lines) + "\n")
    if args.out:
        print(f"wrote {args.trials} trajectories to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    net = compile_network(load_network(args.model))
    report = evaluate(net, args.condition, args.trials, args.seed)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.format_table())
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnbn",
        description="Work with temporal nodes Bayesian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file and report every problem")
    p.add_argument("model", help="network JSON file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("infer", help="print a posterior distribution")
    p.add_argument("model", help="network JSON file")
    p.add_argument("--query", "-q", required=True, help="node to query")
    p.add_argument(
        "--evidence",
        "-e",
        action="append",
        default=[],
        metavar="NODE=STATE",
        help="observed state, e.g. C=severe or VS=unstable@[10,30]; repeatable",
    )
    p.set_defaults(handler=_cmd_infer)

    p = sub.add_parser("session", help="replay an event log and print forecasts")
    p.add_argument("model", help="network JSON file")
    p.add_argument("log", help="event log file with 'tc node value' lines")
    p.add_argument(
        "--diagnose",
        action="store_true",
        help="report candidate causes instead of all unobserved nodes",
    )
    p.set_defaults(handler=_cmd_session)

    p = sub.add_parser("simulate", help="sample timed trajectories")
    p.add_argument("model", help="network JSON file")
    p.add_argument("--trials", "-n", type=int, default=1, help="number of trajectories")
    p.add_argument("--seed", "-s", type=int, default=0, help="random seed")
    p.add_argument("--out", "-o", help="write trajectories to this file")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("evaluate", help="score forecasts against sampled truths")
    p.add_argument("model", help="network JSON file")
    p.add_argument(
        "--condition",
        "-c",
        required=True,
        help=f"which tier to reveal: {', '.join(CONDITIONS)}",
    )
    p.add_argument("--trials", "-n", type=int, default=1000, help="number of trials")
    p.add_argument("--seed", "-s", type=int, default=0, help="random seed")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(handler=_cmd_evaluate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # ModelFormatError is a TNBNError, so it must be caught first
    except (ModelFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TNBNError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
