"""Command-line driver: check, arch, split, run, sim.

Exit codes: 0 ok, 1 check/split error, 2 usage error, 3 runtime failure.
Diagnostics go to stderr; data output goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from . import arch as arch_mod
from . import checker, parser, runtime, splitter, transport
from .diagnostics import Diagnostic, SourceError

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


def compile_file(path: str):
    """Parse, resolve, and check a module file.

    A file may declare several modules; the last one is compiled and the
    earlier ones are available for inclusion.
    """
    source = Path(path).read_text(encoding="utf-8")
    modules = parser.parse_program(source)
    registry = {m.name: m for m in modules[:-1]}
    main_module = modules[-1]
    architecture = arch_mod.resolve_architecture(main_module, registry)
    ties = arch_mod.effective_ties(architecture)
    typed = checker.check_module(main_module, architecture, ties)
    return main_module, architecture, ties, typed


def cmd_check(args) -> int:
    try:
        _, _, _, typed = compile_file(args.file)
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
        _, architecture, ties, _ = compile_file(args.file)
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
    _, _, _, typed = compile_file(args.file)
    if typed.diagnostics:
        raise SourceError(typed.diagnostics)
    return typed, splitter.split(typed)


def cmd_split(args) -> int:
    try:
        _, components = _split_checked(args)
    except SourceError as e:
        _print_diagnostics(e.diagnostics, args.file, "text")
        return EXIT_CHECK
    except splitter.SplitError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return EXIT_CHECK
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for pid in sorted(components):
        pc = components[pid]
        target = out / splitter.component_filename(pc)
        target.write_text(splitter.emit_component(pc), encoding="utf-8")
        print(target)
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        _, components = _split_checked(args)
    except SourceError as e:
        _print_diagnostics(e.diagnostics, args.file, "text")
        return EXIT_CHECK
    except splitter.SplitError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
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
    try:
        instance = runtime.start(components[pid], args.listen or [], connects,
                                 timeout=args.timeout)
    except (runtime.StartError, transport.CommError) as e:
        print(f"start failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME

    print_lock = threading.Lock()

    def emit(name: str, text: str) -> None:
        with print_lock:
            print(f"{name} = {text}", flush=True)

    printed = _print_as_settled(instance, emit)
    try:
        if args.settle_exit:
            instance.wait_settled(args.timeout)
            for event in printed:
                event.wait(args.timeout)
            return EXIT_OK
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        instance.stop()


def _print_as_settled(instance: runtime.PeerInstance, emit) -> list[threading.Event]:
    """Print each evaluated slot once its futures settle.

    Returns one event per slot, set after that slot's line was printed.
    """
    from .transmit import FutureSlot

    printed: list[threading.Event] = []
    for name in instance.slot_names:
        state = instance.slot_state(name)
        if state == "placeholder":
            continue
        done = threading.Event()
        printed.append(done)
        if state == "error":
            emit(name, f"<failed: {instance.slot_error(name)}>")
            done.set()
            continue
        value = instance.slot(name)
        if isinstance(value, FutureSlot):
            def on_future(fut, n=name, d=done):
                emit(n, instance.format_value(fut))
                d.set()

            value.on_settle(on_future)
        elif isinstance(value, list) and value:
            remaining = [len(value)]
            lock = threading.Lock()

            def one_settled(_fut, n=name, v=value, r=remaining, lk=lock, d=done):
                with lk:
                    r[0] -= 1
                    if r[0] > 0:
                        return
                emit(n, instance.format_value(v))
                d.set()

            for _, fut in value:
                fut.on_settle(one_settled)
        else:
            emit(name, instance.format_value(value))
            done.set()
    return printed


def cmd_sim(args) -> int:
    try:
        _, components = _split_checked(args)
    except SourceError as e:
        _print_diagnostics(e.diagnostics, args.file, "text")
        return EXIT_CHECK
    except splitter.SplitError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return EXIT_CHECK
    peer_names = [p for p in args.peers.split(",") if p]
    if not peer_names:
        print("--peers needs at least one peer name", file=sys.stderr)
        return EXIT_USAGE
    try:
        instances = runtime.simulate(components, peer_names, timeout=args.timeout)
    except (runtime.StartError, transport.CommError) as e:
        print(f"sim failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        settled = all(i.wait_settled(args.timeout) for i in instances)
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
    p.add_argument("--timeout", type=float, default=runtime.DEFAULT_TIMEOUT)
    p.add_argument("--settle-exit", action="store_true",
                   help="exit once all slots have settled (useful for scripting)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sim", help="run several peers in-process on the mem transport")
    p.add_argument("file")
    p.add_argument("--peers", required=True, metavar="NAME[,NAME...]")
    p.add_argument("--timeout", type=float, default=runtime.DEFAULT_TIMEOUT)
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
    except FileNotFoundError as e:
        print(f"cannot read {e.filename}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
