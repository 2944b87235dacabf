import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
from locic.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

BAD_SELF_ACCESS = """\
module Bad {
  peer Registry { tie: multiple Node }
  peer Node { tie: single Registry }
  val i: Int on Registry = 1
  val j: Future[Int] on Registry = i.asLocal
}
"""


@pytest.fixture
def simple_file(tmp_path):
    path = tmp_path / "simple.loci"
    path.write_text(helpers.SIMPLE_MODULE, encoding="utf-8")
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.loci"
    path.write_text(BAD_SELF_ACCESS, encoding="utf-8")
    return str(path)


def test_check_ok(simple_file, capsys):
    assert main(["check", simple_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_self_access_one_diagnostic(bad_file, capsys):
    assert main(["check", bad_file]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{bad_file}:5:")
    assert "[peer=Registry]" in err[0]
    assert "no tie from Registry to Registry" in err[0]


def test_check_explicitness_diagnostic(tmp_path, capsys):
    path = tmp_path / "bare.loci"
    path.write_text("""
module Bare {
  peer A { }
  peer B { }
  val x: Int on A = 1
  val y: Int on B = x
}
""", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "remote access must be explicit" in err


@pytest.mark.parametrize("ty, body", [("(Int, " * 250 + "Str" + ")" * 250, "1"),
                                      ("Int", "(" * 200 + "1" + ")" * 200),
                                      ("Stream[Int]", "s.map(x => " * 120 + "x" + ")" * 120)])
def test_check_refuses_nesting_too_deep_with_one_diagnostic(tmp_path, capsys, ty, body):
    path = tmp_path / "deep.loci"
    path.write_text(f"module Deep {{\n  peer P {{ }}\n  source s: Stream[Int] on P\n"
                    f"  val x: {ty} on P = {body}\n}}\n", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"{path}:4:")
    assert err[0].endswith("nesting deeper than 100 levels")


def test_check_json_diagnostics(bad_file, capsys):
    assert main(["check", bad_file, "--format", "json"]) == 1
    diags = json.loads(capsys.readouterr().err)
    assert len(diags) == 1
    assert diags[0]["peer"] == "Registry"
    assert diags[0]["line"] == 5
    assert "no tie" in diags[0]["message"]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.loci"
    path.write_text("module {", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert "syntax error" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["check"]) == 2


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/nope.loci"]) == 2
    assert capsys.readouterr().err == "cannot read /nonexistent/nope.loci: No such file or directory\n"


def _argv(command, path, tmp_path):
    extra = {"split": ["--out", str(tmp_path / "out")], "sim": ["--peers", "A"]}
    return [command, str(path), *extra.get(command, [])]


@pytest.mark.parametrize("command", ["check", "arch", "split", "sim"])
def test_a_module_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "d.loci"
    path.mkdir()
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr() == ("", f"cannot read {path}: Is a directory\n")


@pytest.mark.parametrize("command", ["check", "arch", "split", "sim"])
def test_invalid_utf8_is_one_diagnostic_at_its_first_bad_byte(tmp_path, capsys, command):
    # CRLF line ends count as one newline each, as when the file is read as text
    before = 'module M {\r\n  peer A { }\r\n  val s: Str on A = "é'
    path = tmp_path / "bad.loci"
    path.write_bytes(before.encode("utf-8") + b'\xff\xfe"\r\n}\r\n')
    assert main(_argv(command, path, tmp_path)) == 1
    col = len(before.rsplit("\n", 1)[1]) + 1
    assert capsys.readouterr() == ("", f"{path}:3:{col} source is not valid UTF-8\n")


def test_arch_text_output(simple_file, capsys):
    assert main(["arch", simple_file]) == 0
    out = capsys.readouterr().out
    assert "module SimpleModule" in out
    assert "tie MyPeer -> MyPeer: single" in out
    assert "placement i -> MyPeer" in out
    assert "order: i, j" in out


def test_arch_json_output(simple_file, capsys):
    assert main(["arch", simple_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["module"] == "SimpleModule"
    assert doc["ties"] == [{"from": "MyPeer", "to": "MyPeer", "multiplicity": "single"}]
    assert doc["defOrder"] == ["i", "j"]


def test_arch_output_is_deterministic(simple_file, capsys):
    main(["arch", simple_file])
    first = capsys.readouterr().out
    main(["arch", simple_file])
    assert capsys.readouterr().out == first


def test_split_writes_component_files(simple_file, tmp_path, capsys):
    out_dir = tmp_path / "components"
    assert main(["split", simple_file, "--out", str(out_dir)]) == 0
    target = out_dir / "SimpleModule.MyPeer.component"
    assert target.exists()
    first = target.read_bytes()
    assert main(["split", simple_file, "--out", str(out_dir)]) == 0
    assert target.read_bytes() == first


def test_split_reports_check_errors(bad_file, tmp_path, capsys):
    assert main(["split", bad_file, "--out", str(tmp_path / "x")]) == 1


def test_split_into_a_path_that_names_a_file_is_a_usage_error(simple_file, tmp_path, capsys):
    taken = tmp_path / "taken.md"
    taken.write_text("kept", encoding="utf-8")
    assert main(["split", simple_file, "--out", str(taken)]) == 2
    assert capsys.readouterr() == ("", f"cannot write {taken}: File exists\n")
    assert taken.read_text(encoding="utf-8") == "kept"


# a remote access to a value with no codec checks clean, and cannot be split:
# the first such target in source order is named
UNSENDABLE = {
    "j": """\
module M {
  peer P { tie: single P }
  val i: Int on P = 1
  val j: Future[Int] on P = i.asLocal
  val k: Future[Future[Int]] on P = j.asLocal
}
""",
    "t": """\
module M {
  peer P { tie: single P }
  val i: Int on P = 1
  val j: Future[Int] on P = i.asLocal
  val t: (Future[Int], Int) on P = (j, 1)
  val u: (Future[(Future[Int], Int)], Future[Future[Int]]) on P = (t.asLocal, j.asLocal)
}
""",
}


@pytest.mark.parametrize("target, declared", [("j", "Future[Int]"), ("t", "(Future[Int], Int)")])
def test_a_remote_access_to_a_value_with_no_codec_checks_but_does_not_split(
        tmp_path, capsys, target, declared):
    path = tmp_path / "unsendable.loci"
    path.write_text(UNSENDABLE[target], encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == ("ok\n", "")
    refusal = (f"{path}: definition '{target}': type {declared} is not serializable "
               f"(no codec for Future[Int])\n")
    assert main(["split", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", refusal)
    assert main(["sim", str(path), "--peers", "P"]) == 1
    assert capsys.readouterr() == ("", refusal)


def test_sim_simple_module(simple_file, capsys):
    assert main(["sim", simple_file, "--peers", "MyPeer,MyPeer", "--timeout", "5"]) == 0
    out = capsys.readouterr().out
    assert "[MyPeer#1] i = 1" in out
    assert "[MyPeer#1] j = 1" in out
    assert "[MyPeer#2] j = 1" in out


def test_sim_json_output(simple_file, capsys):
    assert main(["sim", simple_file, "--peers", "MyPeer,MyPeer",
                 "--timeout", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 2
    assert doc[0]["peer"] == "MyPeer#1"
    assert {"name": "j", "status": "settled", "value": "1"} in doc[0]["slots"]


def test_sim_composition_module(tmp_path, capsys):
    path = tmp_path / "p2p.loci"
    path.write_text(helpers.MONITORING_P2P, encoding="utf-8")
    assert main(["sim", str(path), "--peers", "Registry,Node", "--timeout", "5"]) == 0
    out = capsys.readouterr().out
    assert "[Registry#1] localRead = 6" in out
    assert "[Node#1] fromNode = 5" in out


SAMPLE_SIM_PEERS = {"simple.loci": "MyPeer,MyPeer", "p2p.loci": "Registry,Node,Node",
                    "streams.loci": "Sensor,Display,Display"}
CLI_GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_samples.json"


def sample_outputs(run, out_dir: Path) -> dict:
    """Exit code, stdout and stderr of check, arch, split and sim on every
    sample, run from the repository root; `run(argv)` returns all three."""
    outputs = {}
    for sample, peers in SAMPLE_SIM_PEERS.items():
        path = f"samples/{sample}"
        split_dir = out_dir / sample
        for name, argv in {
            "check": ["check", path], "check json": ["check", path, "--format", "json"],
            "arch": ["arch", path], "arch json": ["arch", path, "--format", "json"],
            "split": ["split", path, "--out", str(split_dir)],
            "sim": ["sim", path, "--peers", peers, "--timeout", "5"],
            "sim json": ["sim", path, "--peers", peers, "--timeout", "5", "--format", "json"],
        }.items():
            code, out, err = run(argv)
            outputs[f"{sample} {name}"] = [code, out.replace(str(out_dir), "OUT"), err]
        for doc in sorted(split_dir.iterdir()):
            outputs[f"{sample} split {doc.name}"] = doc.read_text(encoding="utf-8")
    return outputs


def test_sample_outputs_match_the_recorded_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(SRC_DIR.parent)

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    recorded = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    assert sample_outputs(run, tmp_path) == recorded


def _run_cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return subprocess.Popen([sys.executable, "-m", "locic", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, **kwargs)


def test_run_over_tcp_two_processes(tmp_path):
    module_file = tmp_path / "pair.loci"
    module_file.write_text("""
module Pair {
  peer Server { tie: multiple Client }
  peer Client { tie: single Server }
  val answer: Int on Server = 41 + 1
  val fetched: Future[Int] on Client = answer.asLocal
}
""", encoding="utf-8")
    port = _free_port()
    server = _run_cli(["run", str(module_file), "--peer", "Server",
                       "--listen", f"tcp:127.0.0.1:{port}", "--timeout", "10"])
    try:
        deadline = time.time() + 10
        client = None
        while time.time() < deadline:
            client = _run_cli(["run", str(module_file), "--peer", "Client",
                               "--connect", f"tcp:127.0.0.1:{port}=Server",
                               "--timeout", "10", "--settle-exit"])
            out, err = client.communicate(timeout=15)
            if client.returncode == 0:
                break
            time.sleep(0.2)
        assert client is not None and client.returncode == 0, err
        assert "fetched = 42" in out
    finally:
        server.terminate()
        server.communicate(timeout=10)  # reaps the process and closes its pipes


def _free_port() -> int:
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_run_unknown_peer_is_runtime_failure(simple_file, capsys):
    assert main(["run", simple_file, "--peer", "Ghost", "--settle-exit"]) == 3


def test_run_settle_exit_fails_when_slots_do_not_settle_in_time(tmp_path, capsys):
    # the server accepts the client but never evaluates, so the pull stays deferred
    from locic import runtime, splitter

    source = """
module Pair {
  peer Server { tie: multiple Client }
  peer Client { tie: single Server }
  val answer: Int on Server = 42
  val fetched: Future[Int] on Client = answer.asLocal
}
"""
    path = tmp_path / "pair.loci"
    path.write_text(source, encoding="utf-8")
    _, _, _, typed = helpers.compile_clean(source)
    (server_component,) = [pc for pid, pc in splitter.split(typed).items()
                           if pid.name == "Server"]
    server = runtime.PeerInstance(server_component)
    server.listen("mem:cli-settle-exit")
    try:
        began = time.monotonic()
        assert main(["run", str(path), "--peer", "Client", "--connect",
                     "mem:cli-settle-exit=Server", "--timeout", "0.5", "--settle-exit"]) == 3
        assert time.monotonic() - began < 5
    finally:
        server.stop()
    # the pull the client abandons at its deadline prints no line
    assert capsys.readouterr() == ("", "")


def test_an_interrupt_while_run_starts_exits_quietly_and_unbinds(simple_file, capsys,
                                                                 monkeypatch):
    from locic import runtime, transport

    def interrupted(instance, timeout=None):
        raise KeyboardInterrupt  # Ctrl-C while the peer waits for its single tie

    monkeypatch.setattr(runtime.PeerInstance, "activate", interrupted)
    assert main(["run", simple_file, "--peer", "MyPeer", "--listen", "mem:cli-interrupt"]) == 0
    assert capsys.readouterr().err == ""
    transport.listen("mem:cli-interrupt", lambda conn: None).close()  # the hub is free again


def test_run_refuses_a_non_ascii_digit_in_a_listen_spec():
    proc = _run_cli(["run", str(SRC_DIR.parent / "samples" / "simple.loci"), "--peer", "MyPeer",
                     "--listen", "tcp:1.2.3.\u00b2:80"])
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 3
    assert "malformed transport spec" in err and "Traceback" not in err


def test_sim_prints_every_digit_of_an_int_past_the_str_limit(tmp_path, capsys):
    nines = "9" * 3000
    path = tmp_path / "big.loci"
    path.write_text(f"module Big {{\n  peer A {{ tie: single A }}\n"
                    f"  val x: Int on A = {nines} * {nines}\n}}\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert main(["sim", str(path), "--peers", "A,A"]) == 0
    assert sys.get_int_max_str_digits() == limit  # the process-wide limit is left alone
    # (10**3000 - 1)**2 == 10**6000 - 2 * 10**3000 + 1: 6,000 digits, past the limit
    square = "9" * 2999 + "8" + "0" * 2999 + "1"
    assert capsys.readouterr().out.splitlines() == [f"[A#1] x = {square}", f"[A#2] x = {square}"]


def test_sim_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "lonely.loci"
    path.write_text("""
module Lonely {
  peer Node { tie: single Registry }
  peer Registry { }
  val r: Int on Registry = 1
  val pulled: Future[Int] on Node = r.asLocal
}
""", encoding="utf-8")
    assert main(["sim", str(path), "--peers", "Node", "--timeout", "0.4"]) == 3
    assert "sim failed" in capsys.readouterr().err
