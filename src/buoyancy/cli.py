"""Command-line entry points.

Subcommands:

* ``serve``          run the node agent and HTTP endpoints
* ``analyze``        headroom comparison from a medians table or a replay
* ``surface``        dump the buoyancy (P, r) surface as CSV
* ``controller-sim`` closed-loop extremum-seeking run against the plant

``serve`` serves HTTP on the thread that runs it and steps the engine on
one more; SIGINT, SIGTERM and an error that ends the engine loop each
stop serving at once. Each command loads only the modules it runs.

Exit codes: 0 clean, 1 configuration error, 2 runtime error.
"""

import argparse
import json
import logging
import signal
import sys

from .config import AgentConfig, build, plant_config_from_dict, read_json
from .errors import BuoyancyError, ConfigError
from .engine import DEFAULT_ALPHA
from .server import MetricsAgent, report_to_json
from .sources import Allocation

log = logging.getLogger(__name__)


def _parse_listen(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not (sep and len(port) <= 5 and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigError(f"--listen must be HOST:PORT with a port in 0-65535, got {value!r}")
    return (host or "127.0.0.1", int(port))


def _write_out(text: str, out_path, mode: str = "w"):
    if out_path:
        try:
            with open(out_path, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_serve(args) -> int:
    # Each command imports the modules only it runs: serve loads no analysis stack, the others no sockets.
    from .httpd import make_server

    config = AgentConfig.from_file(args.config)
    host, port = _parse_listen(args.listen)
    agent = MetricsAgent(config)
    try:
        server = make_server(agent, host, port)
    except ConfigError:
        agent.stop()  # close the source the agent opened
        raise
    signal.signal(signal.SIGINT, lambda signum, frame: server.shutdown())
    signal.signal(signal.SIGTERM, lambda signum, frame: server.shutdown())
    agent.start(on_error=server.shutdown)  # a normal end of the replay keeps serving
    log.info("listening on %s:%s", *server.server_address[:2])
    server.serve_forever()
    agent.stop()
    server.server_close()
    if agent.error is not None:
        raise BuoyancyError(f"engine loop stopped: {agent.error}")
    final = agent.snapshot()
    if final is not None:
        sys.stdout.write(report_to_json(final) + "\n")
    return 0


def cmd_analyze(args) -> int:
    from . import analysis

    if args.input.endswith(".jsonl"):
        if not args.slo:
            raise ConfigError("replay analysis needs --slo CONFIG for SLOs and topology")
        config = AgentConfig.from_file(args.slo)
        segments = None
        if args.segments:
            try:
                raw = json.loads(args.segments)
            except ValueError as exc:
                raise ConfigError(f"--segments is not valid JSON: {exc}") from None
            segments = build(analysis.Segments, raw, "--segments")
        report = analysis.analyze_replay(args.input, config, segments=segments)
    else:
        report = analysis.analyze_medians(analysis.load_medians_file(args.input))
    if args.format == "csv":
        _write_out(analysis.format_headroom_csv(report), args.out)
    else:
        _write_out(analysis.format_headroom_table(report), args.out)
    return 0


def cmd_surface(args) -> int:
    from . import analysis

    try:
        points = analysis.surface_points(alpha=args.alpha, step=args.step)
    except ValueError as exc:
        raise ConfigError(f"surface: {exc}") from None
    _write_out(analysis.format_csv(analysis.SurfacePoint, points), args.out)
    return 0


def cmd_controller_sim(args) -> int:
    import statistics

    from . import analysis, controller

    plant_config = plant_config_from_dict(read_json(args.plant, "plant config"))
    ctrl_config, experiment = controller.controller_config_from_dict(
        read_json(args.ctrl, "controller config")
    )
    schedule = controller.InterferenceSchedule.from_file(args.schedule)
    if experiment.workload_id not in {w.id for w in plant_config.workloads}:
        raise ConfigError(
            f"controller.experiment.workload_id: {experiment.workload_id!r} is not in {args.plant!r}"
        )
    widest = Allocation(cores=ctrl_config.max_cores, llc_kib=experiment.llc_alloc_kib)
    try:
        plant_config.check_allocations({experiment.workload_id: widest})
    except ValueError as exc:
        raise ConfigError(
            f"controller: actuation_bounds.max_cores with experiment.llc_alloc_kib "
            f"does not fit {args.plant!r}: {exc}"
        ) from None
    try:
        plant_config.check_windows(experiment.windows)
    except ValueError as exc:
        raise ConfigError(f"controller: experiment.windows does not fit {args.plant!r}: {exc}") from None
    _write_out("", args.out, mode="a")  # an unwritable --out fails before the run and truncates nothing
    records = controller.run_experiment(plant_config, ctrl_config, schedule, experiment)
    _write_out(analysis.format_csv(controller.ControlRecord, records), args.out)
    last = [r for r in records if r.window == records[-1].window]
    sys.stderr.write(
        f"{len(records)} records over {experiment.repetitions} runs; final window "
        f"median cores {statistics.median(r.cores for r in last):.2f}, "
        f"median p95 {statistics.median(r.p95_ms for r in last):.2f} ms, "
        f"median buoyancy {statistics.median(r.buoyancy for r in last):.3f}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buoyancy",
        description="Workload resource scores, buoyancy headroom, and tooling.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the node agent")
    p.add_argument("--config", required=True, help="agent config JSON")
    p.add_argument("--listen", default="127.0.0.1:9500", help="HOST:PORT to bind")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("analyze", help="low/high-load headroom comparison")
    p.add_argument("--input", required=True, help="medians JSON or replay .jsonl")
    p.add_argument("--slo", help="agent config JSON (required for replay input)")
    p.add_argument("--segments", help='window ranges JSON, e.g. {"low":[0,5],"high":[5,10]}')
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("surface", help="dump the buoyancy surface grid")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("controller-sim", help="extremum-seeking closed loop")
    p.add_argument("--plant", required=True, help="plant config JSON")
    p.add_argument("--ctrl", required=True, help="controller config JSON")
    p.add_argument("--schedule", required=True, help="interference schedule JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_controller_sim)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except BuoyancyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
