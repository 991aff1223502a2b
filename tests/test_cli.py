import io
import json
import re
import subprocess
import sys
import tracemalloc

import pytest

from slidingsuffix import cli
from slidingsuffix.cli import main
from slidingsuffix.plp import PlpMaintenance
from slidingsuffix.verify import VerifyConfig, run_verify

from conftest import subprocess_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_stream_reports_slide_counts(tmp_path, capsys):
    path = tmp_path / "t.bin"
    path.write_bytes(b"abacabaca")
    code, (report,) = run_cli(capsys, "stream", str(path), "--window", "5")
    assert code == 0
    assert report["appends"] == 9
    assert report["deletes"] == 4
    assert report["final_window_len"] == 5
    assert report["plp_field_writes_max_event"] <= 4
    assert report["leaves_created"] >= 4


def test_stream_final_window_is_last_bytes(tmp_path, capsys):
    # T[5..9] of abacabaca is abaca again; drive it with checks enabled
    path = tmp_path / "t.bin"
    path.write_bytes(b"abacabaca")
    code, (report,) = run_cli(capsys, "stream", str(path), "--window", "5",
                              "--check-every", "1")
    assert code == 0 and report["appends"] == 9


def test_stream_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    code, (report,) = run_cli(capsys, "stream", str(path), "--window", "4")
    assert code == 0
    assert report["appends"] == 0 and report["deletes"] == 0
    assert report["leaves_created"] == 0


def test_stream_reads_standard_input(tmp_path, capsys):
    data = b"abcabcababababcbcbca" * 5
    path = tmp_path / "t.bin"
    path.write_bytes(data)
    _, (from_file,) = run_cli(capsys, "stream", str(path), "--window", "6")
    proc = subprocess.run(
        [sys.executable, "-m", "slidingsuffix", "stream", "-", "--window", "6",
         "--check-every", "7"],
        input=data, env=subprocess_env(), capture_output=True, check=True)
    (from_stdin,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert from_stdin["file"] == "-" and from_stdin["bytes"] == len(data)
    for report in (from_file, from_stdin):
        del report["file"], report["elapsed_s"]
    assert from_stdin == from_file


def test_stream_chunks_do_not_change_the_result(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.bin"
    path.write_bytes(b"abacabacabbabacab")
    _, (whole,) = run_cli(capsys, "stream", str(path), "--window", "5",
                          "--check-every", "2")
    monkeypatch.setattr(cli, "STREAM_CHUNK", 3)
    _, (chunked,) = run_cli(capsys, "stream", str(path), "--window", "5",
                            "--check-every", "2")
    del whole["elapsed_s"], chunked["elapsed_s"]
    assert chunked == whole and whole["deletes"] == 12


def test_stream_missing_file_fails(tmp_path, capsys):
    code = main(["stream", str(tmp_path / "nope.bin"), "--window", "4"])
    capsys.readouterr()
    assert code != 0


def test_stream_modes_agree_on_topology_counters(tmp_path, capsys):
    path = tmp_path / "t.bin"
    path.write_bytes(b"abcabcababababcbcbca")
    _, (plp,) = run_cli(capsys, "stream", str(path), "--window", "6", "--mode", "plp")
    _, (credit,) = run_cli(capsys, "stream", str(path), "--window", "6",
                           "--mode", "credit")
    for key in ("nodes_created", "nodes_deleted", "leaves_created",
                "leaves_deleted", "explicit_extensions"):
        assert plp[key] == credit[key]


def test_stream_check_every_stops_at_the_first_finding(tmp_path, capsys, monkeypatch):
    # the audit finds nothing at byte K and one fault at byte 2K: the stream
    # stops there with the failure object and gives no final report
    path = tmp_path / "t.bin"
    path.write_bytes(b"abacabadabacabae" * 4)
    real = cli.checks.audit
    calls = 0

    def audit(tree, expected=None):
        nonlocal calls
        calls += 1
        found = real(tree, expected)
        if calls == 2:
            found.structure.append("injected finding")
        return found

    monkeypatch.setattr(cli.checks, "audit", audit)
    code, lines = run_cli(capsys, "stream", str(path), "--window", "8",
                          "--check-every", "7")
    assert code == 1
    assert lines == [{"ok": False, "at_byte": 14, "violations": ["injected finding"]}]
    assert calls == 2


def interact(lines, window=8, mode="plp"):
    proc = subprocess.run(
        [sys.executable, "-m", "slidingsuffix", "interact",
         "--window", str(window), "--mode", mode],
        input="\n".join(lines) + "\n", env=subprocess_env(), capture_output=True,
        text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def test_interact_append_query_roundtrip():
    lines = [json.dumps({"op": "append", "sym": s}) for s in "abaab"]
    lines.append(json.dumps({"op": "query", "pattern": "a"}))
    out = interact(lines)
    assert out[0] == {"ok": True, "tail": 1, "head": 1}
    assert out[4] == {"ok": True, "tail": 1, "head": 5}
    assert out[5] == {"occurrences": [1, 3, 4], "absolute": [1, 3, 4]}


def test_interact_query_before_any_append():
    out = interact([json.dumps({"op": "query", "pattern": "a"})])
    assert out[0]["occurrences"] == []


def test_interact_pattern_longer_than_window():
    lines = [json.dumps({"op": "append", "sym": "a"}),
             json.dumps({"op": "query", "pattern": "aaaa"})]
    out = interact(lines)
    assert out[1]["occurrences"] == []


def test_interact_slide_moves_window_and_reports_absolute():
    lines = [json.dumps({"op": "slide", "sym": s}) for s in "abcab"]
    lines.append(json.dumps({"op": "query", "pattern": "ab"}))
    lines.append(json.dumps({"op": "stats"}))
    out = interact(lines, window=3)
    assert out[4] == {"ok": True, "tail": 3, "head": 5}  # window "cab"
    assert out[5] == {"occurrences": [2], "absolute": [4]}
    assert "leaves_created" in out[6] and "plp_field_writes_max_event" in out[6]


def test_interact_append_on_full_window_reports_error():
    lines = [json.dumps({"op": "append", "sym": "a"}) for _ in range(3)]
    out = interact(lines, window=2)
    assert out[0]["ok"] is True and out[1]["ok"] is True
    assert "error" in out[2]


def test_interact_survives_malformed_lines():
    out = interact(["this is not json",
                    json.dumps({"op": "warp"}),
                    json.dumps({"op": "append", "sym": "a"}),
                    json.dumps({"op": "append", "sym": "toolong"})])
    assert "error" in out[0]
    assert "error" in out[1]
    assert out[2]["ok"] is True
    assert "error" in out[3]


def test_interact_rejects_non_text_pattern_and_bool_symbol():
    bad = [2, 0, False, None, []]
    out = interact([json.dumps({"op": "append", "sym": "a"})]
                   + [json.dumps({"op": "query", "pattern": p}) for p in bad]
                   + [json.dumps({"op": "append", "sym": True}),
                      json.dumps({"op": "query", "pattern": "a"}),
                      json.dumps({"op": "query", "pattern": ""})])
    assert out[0]["ok"] is True
    assert all("error" in r for r in out[1:len(bad) + 2]), out
    assert out[-2]["occurrences"] == [1]
    assert out[-1]["occurrences"] == []


def test_interact_stops_at_an_internal_fault(monkeypatch, capsys):
    # a hook that raises mid-append leaves the tree half-mutated; the loop
    # must report the fault once and answer nothing after it
    calls = 0
    real = PlpMaintenance.on_leaf_inserted

    def failing(self, *args):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("injected")
        return real(self, *args)

    monkeypatch.setattr(PlpMaintenance, "on_leaf_inserted", failing)
    lines = [json.dumps({"op": "append", "sym": s}) for s in "abc"]
    lines += [json.dumps({"op": "query", "pattern": "a"}), json.dumps({"op": "stats"}),
              "not json", json.dumps({"op": "append", "sym": "d"})]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out = run_cli(capsys, "interact", "--window", "8")
    assert code != 0
    assert out[:2] == [{"ok": True, "tail": 1, "head": 1}, {"ok": True, "tail": 1, "head": 2}]
    assert len(out) == 3
    assert out[2]["fatal"] is True and "injected" in out[2]["error"]


def test_interact_closed_reader_exits_without_a_traceback(tmp_path):
    requests = tmp_path / "stats.jsonl"
    requests.write_text((json.dumps({"op": "stats"}) + "\n") * 3000)
    with requests.open("rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "slidingsuffix", "interact", "--window", "8"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=subprocess_env())
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader goes away with output still to come
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
        proc.stderr.close()
    assert json.loads(first)["leaves_created"] == 0
    assert b"Traceback" not in err, err.decode()
    assert code == 1


def test_interact_bounds_an_over_long_line(tmp_path, monkeypatch, capsys):
    # a multi-megabyte line is answered as a client error without being held
    # whole, and the request after it is served
    size = 4 << 20
    path = tmp_path / "requests.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"op": "append", "sym": "a"}) + "\n")
        fh.write('{"op": "query", "pattern": "' + "a" * size + '"}\n')
        fh.write(json.dumps({"op": "query", "pattern": "a"}) + "\n")
    with path.open() as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "interact", "--window", "8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and len(out) == 3
    assert out[0] == {"ok": True, "tail": 1, "head": 1}
    assert "longer than" in out[1]["error"] and "fatal" not in out[1]
    assert out[2] == {"occurrences": [1], "absolute": [1]}
    assert peak < size // 4, peak  # reading the line whole would take over size


def test_interact_line_cap_follows_the_window():
    # 6 * window + 256 characters hold a window-long pattern written as
    # \u00XX escapes, with room for the framing; one more is refused
    cap = 6 * 8 + 256
    req = json.dumps({"op": "query", "pattern": "\u0000" * 8})
    assert len(req) < cap
    out = interact([req.ljust(cap), req.ljust(cap + 1), req])
    assert out[0] == out[2] == {"occurrences": [], "absolute": []}
    assert "longer than" in out[1]["error"]


def test_interact_validates_before_touching_the_tree():
    # each client error is answered and the tree stays as it was
    lines = [json.dumps({"op": "append", "sym": s}) for s in "ab"]
    lines += [json.dumps(r) for r in ({"op": "append", "sym": "c"},
                                      {"op": "slide"}, {"op": "query"}, ["op"], 5,
                                      {"op": "append", "sym": 300})]
    lines += [json.dumps({"op": "query", "pattern": "ab"}), json.dumps({"op": "stats"})]
    out = interact(lines, window=2)
    assert all("error" in r and "fatal" not in r for r in out[2:8]), out
    assert "full" in out[2]["error"]
    assert out[8] == {"occurrences": [1], "absolute": [1]}
    assert out[9]["leaves_created"] == 2


@pytest.mark.parametrize("argv", [
    ["stream", "-", "--window", "0"],
    ["stream", "-", "--window", "5", "--check-every", "-1"],
    ["stream", "-", "--window", "x"],
    ["interact", "--window", "0"],
    ["verify", "--window", "0"],
    ["verify", "--sigma", "0"],
    ["verify", "--sigma", "160"],
    ["verify", "--iters", "-1"],
    ["verify", "--patterns", "-1"],
    ["worstcase", "--n", "1"],
])
def test_invalid_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and ("must be" in err or "invalid int" in err)


def test_verify_command_passes(capsys):
    code, (report,) = run_cli(capsys, "verify", "--seed", "1", "--iters", "2000",
                              "--sigma", "2", "--window", "8")
    assert code == 0
    assert report["ok"] is True and report["events"] == 2000


def test_verify_degenerate_alphabet(capsys):
    code, (report,) = run_cli(capsys, "verify", "--seed", "5", "--iters", "400",
                              "--sigma", "1", "--window", "6")
    assert code == 0 and report["ok"] is True


def test_verify_window_one(capsys):
    code, (report,) = run_cli(capsys, "verify", "--seed", "2", "--iters", "300",
                              "--sigma", "3", "--window", "1")
    assert code == 0 and report["ok"] is True


def test_verify_failure_reports_the_event_log(capsys, monkeypatch):
    # a plp deletion hook that writes nothing leaves a stale path behind the
    # first primary leaf to go; at seed 4 a secondary one goes first
    monkeypatch.setattr(PlpMaintenance, "on_leaf_deleting", lambda *args: None)
    result = run_verify(VerifyConfig(seed=4, iters=300))
    assert not result.ok and result.events == len(result.event_log)
    assert all(re.fullmatch(r"\+[a-b]|-", entry) for entry in result.event_log)
    assert result.event_log.count("-") == 2 and result.event_log[-1] == "-"
    assert result.violations and all(v.startswith("[plp] ") for v in result.violations)
    code, (report,) = run_cli(capsys, "verify", "--seed", "4", "--iters", "300")
    assert code == 1 and report["ok"] is False
    assert report["event_log"] == result.event_log
    assert report["violations"] == result.violations


@pytest.mark.parametrize("n,variant,bound", [(100, "insert", 100), (2, "delete", 1)])
def test_worstcase_credit_chains(capsys, n, variant, bound):
    code, (report,) = run_cli(capsys, "worstcase", "--n", str(n),
                              "--mode", "credit", "--variant", variant)
    assert code == 0
    assert report["critical_event_value"] >= bound


def test_worstcase_plp_stays_constant(capsys):
    code, (report,) = run_cli(capsys, "worstcase", "--n", "100",
                              "--mode", "plp", "--variant", "insert")
    assert code == 0
    assert report["critical_event_value"] <= 4
