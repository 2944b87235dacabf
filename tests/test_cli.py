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
