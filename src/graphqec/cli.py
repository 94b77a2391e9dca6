"""Command-line front end for the experiment runner.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime error.
Flags override fields loaded from a ``--config`` JSON file.
"""
from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys

from . import kernel
from .code import PROBE_NAMES, parse_error_spec
from .graphs import (Graph, RESOURCE, build_resource, graph_state, resource_state_expansion,
                     stabilizer_generators)
from .pauli import pauli_expectations
from .runner import ConfigError, ExperimentConfig, ReportBundle, run_experiment, _sanitize
from .sampling import (MAX_TRIALS, _probability, _witness_estimate, counts_from_csv_rows,
                       witness_records)
from .witnesses import builtin_witnesses, fidelity_lower_bound


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise _UsageError(message)


_KIND_BY_COMMAND = {
    "witness": "resource-witness",
    "encode": "encode-tomography",
    "channel": "encode-channel",
    "loss": "loss-recovery",
    "syndrome": "syndrome-table",
    "sweep": "noise-sweep",
}


def _add_common(p: _Parser):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--out", help="directory for the report bundle")
    p.add_argument("--format", action="append",
                   choices=["json", "csv", "svg"], help="output formats (repeatable)")
    p.add_argument("--counts", type=float, help="expected counts per setting")
    p.add_argument("--trials", type=int, help="Monte Carlo trials")
    p.add_argument("--visibility", type=float, help="white-noise visibility v")
    p.add_argument("--ideal", action="store_true",
                   help="no noise (v = 1, no depolarizing, dephasing or white noise)")
    p.add_argument("--byproduct", choices=["condition0", "correct", "raw"])


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphqec",
                     description="Four-qubit graph-code simulator and analysis runner")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build-resource", help="resource-state self check")
    p.add_argument("--graph", help="JSON graph literal {vertices, edges}: report its "
                                   "graph state's stabilizer expectations instead")

    for cmd, help_text in [
        ("witness", "resource witness with Monte Carlo error bars"),
        ("encode", "logical tomography of the encoded probe states"),
        ("channel", "process tomography of the encoding channel"),
        ("loss", "loss of one qubit and recovery as a channel"),
        ("syndrome", "stabilizer sign table under injected errors"),
        ("sweep", "white-noise sweep and visibility calibration"),
    ]:
        p = sub.add_parser(cmd, help=help_text)
        _add_common(p)
        if cmd in ("encode", "syndrome"):
            p.add_argument("--probe", choices=list(PROBE_NAMES),
                           help="restrict to a single probe state")
        if cmd == "loss":
            p.add_argument("--lost", type=int, help="code qubit to lose: 1, 2, 4 or 5")
        if cmd == "syndrome":
            p.add_argument("--error", help="single error spec like Z@1, or none")

    p = sub.add_parser("analyze-counts", help="evaluate a witness on recorded counts")
    p.add_argument("--in", dest="infile", required=True, help="counts CSV (setting,outcome,count)")
    p.add_argument("--witness", required=True,
                   choices=["resource5", "box4", "ghz4", "pair2"])
    p.add_argument("--as-printed", action="store_true",
                   help="use the literally printed resource witness coefficients")
    p.add_argument("--trials", type=int, default=200, help="Monte Carlo trials (100 to 100000)")
    p.add_argument("--seed", type=int, default=12345)
    return parser


def _open(path: str, flag: str, **kwargs):
    """``open(path)`` for reading; a path that cannot be opened (missing, a
    directory, unreadable) is a usage error naming ``flag``."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise ConfigError({flag: f"cannot open {path!r}: {exc.strerror}"}) from None


# Flag --name -> the config field it sets as given.
_FLAG_FIELDS = {"seed": "seed", "counts": "counts_per_setting", "trials": "trials",
                "format": "formats", "byproduct": "byproduct", "lost": "lost", "error": "error"}


def _config_from_args(args) -> ExperimentConfig:
    data = {}
    if args.config:
        with _open(args.config, "--config") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError({"--config": f"not valid JSON: {exc}"}) from None
        if not isinstance(data, dict):
            raise ConfigError({"--config": f"must hold a JSON object, got {data!r}"})
    data["kind"] = _KIND_BY_COMMAND[args.command]
    flagged = {}  # config field -> the flag that set it
    for flag, name in _FLAG_FIELDS.items():
        if getattr(args, flag, None) is not None:
            data[name], flagged[name] = getattr(args, flag), f"--{flag}"
    if args.ideal:
        data["noise"] = {"visibility": 1.0}
    elif args.visibility is not None:
        noise = data.get("noise", {})
        if not isinstance(noise, dict):
            raise ConfigError({"noise": f"must be an object of noise fields, got {noise!r}"})
        try:  # checked here, so that a problem in the file's noise names only the field
            _probability(args.visibility, "visibility")
        except ValueError as exc:
            raise ConfigError({"--visibility (noise)": str(exc)}) from None
        data["noise"] = noise | {"visibility": args.visibility}
    if getattr(args, "probe", None):
        data["probes"] = [args.probe]
    if _single_error(args):
        data["probes"] = [args.probe or "+"]
    try:
        return ExperimentConfig.from_dict(data)
    except ConfigError as exc:
        raise ConfigError({f"{flagged[k]} ({k})" if k in flagged else k: problem
                           for k, problem in exc.fields.items()}) from None


def _single_error(args) -> bool:
    """``syndrome --error E`` with E a Pauli error rather than the identity:
    the command runs E on one probe and prints its sign pattern."""
    try:
        return args.command == "syndrome" and parse_error_spec(args.error or "").weight > 0
    except ValueError:
        return False  # the config check reports the bad spec


def _emit(bundle: ReportBundle, args, report: str | None = None) -> None:
    """Write the bundle if an output directory is set, then print ``report``
    if given, else the written paths or, with no directory, the summary."""
    out = args.out or bundle.provenance["config"].get("out_dir")
    written = []
    if out:
        flag = "--out" if args.out else "out_dir"
        try:
            pathlib.Path(out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError({flag: f"cannot create directory {out!r}: {exc.strerror}"}) \
                from None
        try:
            written = bundle.write(out)
        except OSError as exc:
            raise ConfigError({flag: f"cannot write {exc.filename or out!r}: "
                                     f"{exc.strerror or exc}"}) from None
    if report is not None:
        print(report)
    elif out:
        for path in written:
            print(f"wrote {path}")
    else:
        print(bundle.summary_json(), end="")


def _stabilizer_expectations(state, graph) -> dict:
    """<K_v> of each stabilizer generator of ``graph``, keyed by its word."""
    gens = stabilizer_generators(graph)
    return dict(zip(map(str, gens), pauli_expectations(state, gens)))


def _cmd_build_resource(args) -> int:
    if args.graph:
        with _open(args.graph, "--graph") as fh:
            try:
                g = Graph.from_dict(json.load(fh))
                state = graph_state(g)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError({"graph": f"bad graph literal: {exc}"}) from exc
        report = {
            "graph": g.to_dict(),
            "stabilizer_expectations": _stabilizer_expectations(state, g),
        }
    else:
        built = build_resource()
        report = {
            "overlap_graph_state": kernel.overlap(built, graph_state(RESOURCE)),
            "overlap_explicit_expansion": kernel.overlap(built, resource_state_expansion()),
            "stabilizer_expectations": _stabilizer_expectations(built, RESOURCE),
        }
    print(json.dumps(_sanitize(report), sort_keys=True, indent=2))
    return 0


def _cmd_analyze_counts(args) -> int:
    problems = {}
    if not 100 <= args.trials <= MAX_TRIALS:
        problems["--trials"] = f"must be an integer in [100, {MAX_TRIALS}], got {args.trials}"
    if args.seed < 0:
        problems["--seed"] = f"must be a non-negative integer, got {args.seed}"
    if problems:
        raise ConfigError(problems)
    with _open(args.infile, "--in", newline="") as fh:
        rows = list(csv.reader(fh))
    spec = builtin_witnesses(resource_as_printed=args.as_printed)[args.witness]
    records = witness_records(counts_from_csv_rows(rows), spec)
    value, _, std = _witness_estimate(records, spec, args.trials, args.seed)
    bound = fidelity_lower_bound(value)
    print(f"witness {spec.name}: value = {value:.4f} +/- {std:.4f} "
          f"(fidelity lower bound {bound:.4f})")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        if args.command == "build-resource":
            return _cmd_build_resource(args)
        if args.command == "analyze-counts":
            return _cmd_analyze_counts(args)
        config = _config_from_args(args)
        bundle = run_experiment(config)
        if args.command == "encode":
            for probe in config.probes:
                fid = bundle.summary["probes"][probe]["fidelity_logical"]
                print(f"probe {probe}: logical fidelity = {fid:.6f}")
        report = None
        if _single_error(args):
            (row,) = bundle.tables["syndrome_table"][1:]
            report = "({:+d}, {:+d}, {:+d})".format(*row[6:9])
        _emit(bundle, args, report)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
