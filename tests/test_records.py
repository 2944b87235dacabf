import os
import random
import subprocess
import sys

import helpers
from locic import ast, splitter, wire
from locic.codecs import parse_codec
from locic.diagnostics import Diagnostic, Pos
from locic.sigs import ModuleSig, PeerSig, ValueSig


def test_record_contract():
    # equality and hashing ignore `pos` on AST nodes, not on diagnostics
    assert ast.IntLit(1, Pos(1, 2)) == ast.IntLit(1, Pos(3, 4))
    assert Diagnostic(Pos(1, 2), "m") != Diagnostic(Pos(3, 4), "m")
    # records of different classes never compare equal
    sig = ValueSig("i:Int", ModuleSig("M"))
    assert ast.IntLit(1) != ast.BoolLit(True)
    assert wire.Request(1, sig) != wire.ChanOpen(1, sig)
    # the hash is the hash of the compared fields
    ref = ast.Ref("mon", "interval", Pos(5, 6))
    assert hash(ref) == hash(("mon", "interval"))
    assert hash(ast.IntLit(7, Pos(1, 1))) == hash((7,))
    assert hash(Diagnostic(Pos(1, 2), "m")) == hash((Pos(1, 2), "m", None))
    assert repr(ast.IntLit(1, Pos(1, 2))) == "IntLit(value=1, pos=Pos(line=1, col=2))"
    # signatures sort as their field tuples
    modules = [ModuleSig(n, p) for n in ("N", "M") for p in ((), ("x",), ("a", "b"))]
    values = [ValueSig(c, m) for c in ("b:Int", "a:Str") for m in modules]
    peers = [PeerSig(c, m) for c in ("B", "A") for m in modules]
    for sigs, fields in (
        (modules, lambda s: (s.name, s.path)),
        (values, lambda s: (s.canonical, (s.module.name, s.module.path))),
        (peers, lambda s: (s.peer_name, (s.module.name, s.module.path))),
    ):
        random.Random(1).shuffle(sigs)
        assert sorted(sigs) == sorted(sigs, key=fields)
    # derived values are computed once per record
    _, arch, _, typed = helpers.compile_clean(helpers.SIMPLE_MODULE)
    (component,) = splitter.split(typed).values()
    codec = parse_codec("(Int, Str)")
    for owner, name in ((codec, "_coders"), (component.module, "slots_json"),
                        (arch, "closures"), (component, "closures")):
        assert getattr(owner, name) is getattr(owner, name)


def test_importing_the_cli_skips_dataclasses_and_inspect():
    # building value classes with `dataclasses` cost ~75 ms per process start,
    # and the runtime with its transport is most of what is left: `check`,
    # `arch` and `split` do not load it. The runtime itself carries payloads
    # raw, so it does not load `base64`, and it reads no codec id, so it does
    # not load the parser that `codecs.parse_codec` imports when it is called.
    # Below the runtime, each layer loads none above it: connection state is
    # read downward, never reached for upward.
    env = dict(os.environ, PYTHONPATH=str(helpers.ROOT / "src"))
    for imported, unwanted in (
            ("locic.cli", {"dataclasses", "inspect", "locic.transport", "socket", "selectors"}),
            ("locic.runtime", {"dataclasses", "inspect", "base64", "locic.parser"}),
            ("locic.wire", {"locic.transport", "locic.transmit", "locic.runtime"}),
            ("locic.transport", {"locic.transmit", "locic.runtime"}),
            ("locic.transmit", {"locic.runtime"})):
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {imported}; print(sorted({unwanted!r} & set(sys.modules)))"],
            capture_output=True, text=True, env=env, timeout=60, check=True).stdout
        assert out == "[]\n", imported
