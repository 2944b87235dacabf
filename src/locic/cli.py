"""Command-line driver: check, arch, split, run, sim.

Exit codes: 0 ok, 1 check/split error, 2 usage error, 3 runtime failure.
Diagnostics go to stderr; data output goes to stdout. Only `run` and `sim`
import the runtime, which is most of the import time: `check`, `arch` and
`split` load no transport.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import arch as arch_mod
from . import checker, parser, splitter
from .diagnostics import Diagnostic, Pos, SourceError

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _print_diagnostics(diags: list[Diagnostic], path: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([d.to_json(path) for d in diags]), file=sys.stderr)
    else:
        for d in diags:
            print(d.text(path), file=sys.stderr)


def _read_source(path: str) -> str:
    """A module file's text, with newlines read as `open` reads text.
    OSError when the file cannot be read; SourceError at the first byte
    that is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        pos = Pos(before.count("\n") + 1, len(before) - before.rfind("\n"))
        raise SourceError([Diagnostic(pos, "source is not valid UTF-8")]) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def compile_file(path: str):
    """Parse, resolve, and check a module file; returns its architecture,
    its effective ties and the checked module.

    A file may declare several modules; the last one is compiled and the
    earlier ones are available for inclusion.
    """
    modules = parser.parse_program(_read_source(path))
    registry = {m.name: m for m in modules[:-1]}
    main_module = modules[-1]
    architecture = arch_mod.resolve_architecture(main_module, registry)
    ties = arch_mod.effective_ties(architecture)
    typed = checker.check_module(main_module, architecture, ties)
    return architecture, ties, typed


def cmd_check(args) -> int:
    try:
        _, _, typed = compile_file(args.file)
    except SourceError as e:
        _print_diagnostics(e.diagnostics, args.file, args.format)
        return EXIT_CHECK
    if typed.diagnostics:
        _print_diagnostics(typed.diagnostics, args.file, args.format)
        return EXIT_CHECK
    print("ok")
    return EXIT_OK


def cmd_arch(args) -> int:
    try:
        architecture, ties, _ = compile_file(args.file)
    except SourceError as e:
        _print_diagnostics(e.diagnostics, args.file, args.format)
        return EXIT_CHECK
    if args.format == "json":
        doc = {
            "module": architecture.module_name,
            "peers": [
                {"name": str(p), "supers": sorted(str(s) for s in info.supers)}
                for p, info in sorted(architecture.peers.items())
            ],
            "ties": [
                {"from": str(left), "to": str(right), "multiplicity": mult.keyword}
                for (left, right), mult in sorted(ties.items())
            ],
            "placements": {
                name: str(peer) for name, peer in sorted(architecture.placements.items())
            },
            "defOrder": architecture.def_order,
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
        return EXIT_OK
    print(f"module {architecture.module_name}")
    for p, info in sorted(architecture.peers.items()):
        line = f"peer {p}"
        if info.supers:
            line += " : " + ", ".join(sorted(str(s) for s in info.supers))
        print(line)
    for (left, right), mult in sorted(ties.items()):
        print(f"tie {left} -> {right}: {mult.keyword}")
    for name, peer in sorted(architecture.placements.items()):
        print(f"placement {name} -> {peer}")
    print("order: " + ", ".join(architecture.def_order))
    return EXIT_OK


def _split_checked(args):
    """The components of the checked module, or EXIT_CHECK once the errors
    that stop it are reported."""
    try:
        _, _, typed = compile_file(args.file)
        if typed.diagnostics:
            raise SourceError(typed.diagnostics)
        return splitter.split(typed)
    except SourceError as e:
        _print_diagnostics(e.diagnostics, args.file, "text")
    except splitter.SplitError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
    return EXIT_CHECK


def cmd_split(args) -> int:
    components = _split_checked(args)
    if components == EXIT_CHECK:
        return EXIT_CHECK
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for pid in sorted(components):
            pc = components[pid]
            target = out / splitter.component_filename(pc)
            target.write_text(splitter.emit_component(pc), encoding="utf-8")
            print(target)
    except OSError as e:  # say, --out names a file
        print(f"cannot write {e.filename or out}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_run(args) -> int:
    from . import runtime, transmit, transport
    components = _split_checked(args)
    if components == EXIT_CHECK:
        return EXIT_CHECK
    pid = arch_mod.parse_peer_name(args.peer)
    if pid not in components:
        print(f"unknown peer '{args.peer}'", file=sys.stderr)
        return EXIT_RUNTIME
    connects = []
    for spec in args.connect or []:
        target, sep, peer = spec.partition("=")
        if not sep:
            print(f"--connect needs SPEC=PEER, got '{spec}'", file=sys.stderr)
            return EXIT_USAGE
        connects.append((target, peer))
    timeout = runtime.DEFAULT_TIMEOUT if args.timeout is None else args.timeout
    try:
        instance = runtime.start(components[pid], args.listen or [], connects,
                                 timeout=timeout)
    except (runtime.StartError, transport.CommError) as e:
        print(f"start failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:  # `start` has stopped the half-started instance
        return EXIT_OK

    loop = transport.loop()
    printed = loop.call(_print_as_settled, instance)
    try:
        if args.settle_exit:
            return EXIT_OK if loop.run_until(printed, timeout) else EXIT_RUNTIME
        loop.run_until(transmit.FutureSlot())  # never settles: serve until interrupted
        return EXIT_OK
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        instance.stop()


def _print_as_settled(instance: runtime.PeerInstance) -> transmit.FutureSlot:
    """Print each evaluated slot once its futures settle.

    Runs on the event loop, which also runs the settle callbacks, so lines
    print one at a time. Returns a slot that settles once every line is out.
    A future that fails because the instance stopped prints nothing.
    """
    from . import runtime, transmit

    def print_line(name: str) -> None:
        if instance.state != runtime.STOPPED:
            print(instance.slot_line(name), flush=True)

    printed = []
    for name in instance.slot_names:
        futures = ([] if instance.slot_state(name) == "error"
                   else runtime.slot_futures(instance.slot(name)))
        settled = transmit.all_settled(futures)
        settled.on_settle(lambda _all, n=name: print_line(n))
        printed.append(settled)
    return transmit.all_settled(printed)


def cmd_sim(args) -> int:
    from . import runtime, transport
    components = _split_checked(args)
    if components == EXIT_CHECK:
        return EXIT_CHECK
    peer_names = [p for p in args.peers.split(",") if p]
    if not peer_names:
        print("--peers needs at least one peer name", file=sys.stderr)
        return EXIT_USAGE
    timeout = runtime.DEFAULT_TIMEOUT if args.timeout is None else args.timeout
    try:
        instances = runtime.simulate(components, peer_names, timeout=timeout)
    except (runtime.StartError, transport.CommError) as e:
        print(f"sim failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        settled = all(i.wait_settled(timeout) for i in instances)
        if args.format == "json":
            doc = [{"peer": i.label, "slots": i.slot_report()} for i in instances]
            print(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False))
        else:
            for instance in instances:
                for line in instance.settled_lines():
                    print(f"[{instance.label}] {line}")
        return EXIT_OK if settled else EXIT_RUNTIME
    finally:
        for instance in instances:
            instance.stop()


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="locic", description="multitier language toolchain")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-check a module file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("arch", help="print the resolved architecture and tie table")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_arch)

    p = sub.add_parser("split", help="write one component document per peer")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("run", help="run one peer until interrupted")
    p.add_argument("file")
    p.add_argument("--peer", required=True)
    p.add_argument("--listen", action="append", metavar="SPEC")
    p.add_argument("--connect", action="append", metavar="SPEC=PEER")
    p.add_argument("--timeout", type=float)  # default: runtime.DEFAULT_TIMEOUT
    p.add_argument("--settle-exit", action="store_true",
                   help="exit once all slots have settled (useful for scripting)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sim", help="run several peers in-process on the mem transport")
    p.add_argument("file")
    p.add_argument("--peers", required=True, metavar="NAME[,NAME...]")
    p.add_argument("--timeout", type=float)  # default: runtime.DEFAULT_TIMEOUT
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_sim)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except OSError as e:
        if e.filename != args.file:  # not the module file
            raise
        print(f"cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
