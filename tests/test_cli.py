import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import coverpack
from coverpack.cli import (REPORT_SCHEMA, RESULT_KEYS, SchemaError, build_parser, emit_report,
                           main, parse_graph_spec)
from coverpack.graphs import complete, cycle, encode_graph6, path, star
from coverpack.tconn import cycle_cover_gens
from oracles import brute_cover_ideal


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_graph_spec():
    assert parse_graph_spec("path:5") == path(5)
    assert parse_graph_spec("cycle:6") == cycle(6)
    assert parse_graph_spec("star:4") == star(4)
    assert parse_graph_spec("complete:4") == complete(4)
    assert parse_graph_spec("DQc").n == 5


def test_parse_graph_spec_file(tmp_path):
    p = tmp_path / "g.g6"
    p.write_text("EhEG\n")
    assert parse_graph_spec(f"file:{p}") == cycle(6)


def test_parse_graph_spec_errors():
    from coverpack.cli import UsageError
    with pytest.raises(UsageError):
        parse_graph_spec("path:x")
    with pytest.raises(UsageError):
        parse_graph_spec("???")
    with pytest.raises(UsageError):
        parse_graph_spec("file:/nonexistent/nope")


def test_gens_command(capsys):
    code, out, _ = run_cli(capsys, "gens", "--graph", "path:7", "--t", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "gens"
    assert payload["result"]["generators"] == [
        "x4", "x3*x7", "x3*x6", "x3*x5", "x2*x6", "x2*x5", "x1*x5"]


def test_gens_routes_agree(capsys):
    # the transversal report against the subset-scan oracle and the closed form
    expect = brute_cover_ideal(cycle(9), 3).to_json()
    assert cycle_cover_gens(9, 3).to_json() == expect
    code, out, _ = run_cli(capsys, "gens", "--graph", "cycle:9", "--t", "3")
    payload = json.loads(out)
    assert code == 0 and payload["config"]["route"] == "transversal"
    assert payload["result"]["generators"] == expect


def test_gens_brute_force_flag_gone(capsys):
    code, out, err = run_cli(capsys, "gens", "--graph", "path:5", "--t", "3", "--brute-force")
    assert code == 2 and out == "" and "--brute-force" in err


def test_gens_closed_form_requires_canonical(capsys):
    # gens has one route, so --closed-form is an unknown argument
    code, out, err = run_cli(capsys, "gens", "--graph", "cycle:9", "--t", "3", "--closed-form")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --closed-form" in err


def test_simis_command(capsys):
    code, out, _ = run_cli(capsys, "simis", "--graph", "star:4", "--t", "3", "--smax", "2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "witness_at" and res["s"] == 2
    assert res["witness"] == "x2*x3*x4"


def test_konig_command(capsys):
    code, out, _ = run_cli(capsys, "konig", "--graph", "cycle:9", "--t", "3")
    res = json.loads(out)["result"]
    assert code == 0 and res["konig"] is True
    assert res["certificate"] == ["x1*x4*x7", "x2*x5*x8", "x3*x6*x9"]


def test_packing_command(capsys):
    code, out, _ = run_cli(capsys, "packing", "--graph", "cycle:7", "--t", "3")
    res = json.loads(out)["result"]
    assert code == 0 and res["packed"] is False
    assert res["witness"]["minor"] == {"zeros": [], "ones": []}


def test_lp_command(capsys):
    code, out, _ = run_cli(capsys, "lp", "--graph", "cycle:7", "--t", "3")
    res = json.loads(out)["result"]
    assert code == 0
    assert res["tau"] == 3 and res["nu"] == 2 and res["equal"] is False


def test_lp_custom_alpha(capsys):
    code, out, _ = run_cli(capsys, "lp", "--graph", "path:5", "--t", "2",
                           "--alpha", "1,2,1,2,1")
    res = json.loads(out)["result"]
    assert code == 0 and res["equal"] is True
    code, _, _ = run_cli(capsys, "lp", "--graph", "path:5", "--t", "2", "--alpha", "1,2")
    assert code == 2


def test_gap_search_command(capsys):
    code, out, _ = run_cli(capsys, "gap-search", "--graph", "cycle:7", "--t", "3",
                           "--entry-bound", "1")
    res = json.loads(out)["result"]
    assert code == 0
    assert res["witness"] == [0, 1, 1, 0, 1, 1, 1]


def test_verify_theorem_command(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--nmax", "4")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["disagreements"] == 0
    assert res["summary"]["instances"] == 80
    assert res["rows"] == []           # omitted without --rows


def test_verify_theorem_rows_flag(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--nmax", "3", "--rows")
    res = json.loads(out)["result"]
    assert code == 0 and len(res["rows"]) == res["summary"]["instances"]


def test_verify_theorem_paths_cycles(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--paths-cycles", "6",
                           "--tmin", "3", "--tmax", "4")
    assert code == 0
    assert json.loads(out)["result"]["disagreements"] == 0


def test_verify_theorem_paths_cycles_bound_is_honoured(capsys):
    # --paths-cycles 0 checks no families; it must not fall back to the sweep
    code, out, _ = run_cli(capsys, "verify-theorem", "--paths-cycles", "0", "--nmax", "4")
    payload = json.loads(out)
    assert code == 0 and payload["config"]["paths_cycles"] == 0
    assert payload["result"]["summary"]["instances"] == 0
    code, out, _ = run_cli(capsys, "verify-theorem", "--paths-cycles", "3", "--rows")
    rows = json.loads(out)["result"]["rows"]
    assert code == 0
    assert [(r["graph6"], r["t"]) for r in rows] == [
        (encode_graph6(path(3)), 3), (encode_graph6(cycle(3)), 3)]


def test_reports_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "packing", "--graph", "cycle:12", "--t", "3")
    _, out2, _ = run_cli(capsys, "packing", "--graph", "cycle:12", "--t", "3")
    assert out1 == out2


# one small invocation of every command
EVERY_COMMAND = [
    ["gens", "--graph", "cycle:6", "--t", "3"],
    ["simis", "--graph", "cycle:6", "--t", "3"],
    ["konig", "--graph", "cycle:6", "--t", "3"],
    ["packing", "--graph", "cycle:6", "--t", "3"],
    ["lp", "--graph", "cycle:6", "--t", "3"],
    ["gap-search", "--graph", "cycle:6", "--t", "3", "--entry-bound", "1"],
    ["verify-theorem", "--nmax", "4", "--rows"],
]


def test_out_file_matches_stdout(capsys, tmp_path):
    assert [argv[0] for argv in EVERY_COMMAND] == list(RESULT_KEYS)
    for argv in EVERY_COMMAND:
        _, out1, _ = run_cli(capsys, *argv)
        target = tmp_path / f"{argv[0]}.json"
        code, out2, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out2 == "", argv
        assert target.read_text() == out1, argv


def test_pretty_same_payload(capsys):
    for argv in EVERY_COMMAND:
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv, "--pretty")
        assert json.loads(out1) == json.loads(out2), argv
        assert out1 != out2, argv


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gens", "--graph", "nonsense:9", "--t", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "gens", "--graph", "path:5", "--t", "9")
    assert code == 2 and "error" in err


def test_resource_guard_exit(capsys, monkeypatch):
    monkeypatch.setenv("COVERPACK_SCAN_CAP", "10")
    code, _, err = run_cli(capsys, "gap-search", "--graph", "cycle:6", "--t", "3")
    assert code == 3 and "resource guard" in err


def test_gen_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("COVERPACK_GEN_CAP", "5")
    code, _, err = run_cli(capsys, "simis", "--graph", "cycle:9", "--t", "3")
    assert code == 3


@pytest.mark.parametrize("var,raw", [
    pytest.param(var, raw, id=var if raw == "abc" else f"{var}-{raw}")
    for raw in ("abc", "0", "-1")
    for var in ("COVERPACK_GEN_CAP", "COVERPACK_SCAN_CAP")])
def test_bad_cap_env_is_usage_error(var, raw):
    # run as a process so an uncaught exception would show as a traceback;
    # a cap below 1 is a usage error, not a resource-guard abort
    env = dict(os.environ, **{var: raw})
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", "lp", "--graph", "path:4", "--t", "2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and var in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_out_is_usage_error(tmp_path):
    # run as a process so an uncaught exception would show as a traceback
    out = str(tmp_path / "missing" / "x.json")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", "gens", "--graph", "path:4", "--t", "3",
         "--out", out],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {out}:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tmin", ["2", "0", "-1"])
def test_tmin_below_three_is_usage_error(tmin):
    # the harness starts at t = 3; verify_theorem refuses a lower t_min,
    # rather than echoing it in the config over rows that start at 3
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", "verify-theorem", "--paths-cycles", "5",
         "--tmin", tmin],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: t_min must be at least 3, got {tmin}\n"


def test_gen_cap_env_bounds_dualization():
    # J_3(C_20) has 851 generators; the transversal route must stop at the cap
    env = dict(os.environ, COVERPACK_GEN_CAP="100")
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", "gens", "--graph", "cycle:20", "--t", "3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("resource guard:")
    assert "Traceback" not in proc.stderr


def test_gen_cap_env_bounds_verify_theorem_dualization():
    # J_3 of C_4, P_6, P_7 and C_7 has more than 5 generators: those rows
    # abort in the dualization and the run goes on
    env = dict(os.environ, COVERPACK_GEN_CAP="5")
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", "verify-theorem", "--paths-cycles", "7",
         "--tmax", "3", "--rows"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    result = json.loads(proc.stdout)["result"]
    dual_aborts = [r for r in result["rows"] if r["packed"] is None]
    assert {r["graph6"] for r in dual_aborts} == {"Cl", "EhCG", "FhCGG", "FhCKG"}
    assert all(r["simis_verdict"] == "aborted" for r in dual_aborts)
    assert result["summary"]["aborted"] == 8
    assert result["disagreements"] == 0


def test_scan_cap_env_bounds_packing_scan():
    # J_3(P_14) is packed, so only the memo cap can stop its 3^14 scan early
    env = dict(os.environ, COVERPACK_SCAN_CAP="100")
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", "packing", "--graph", "path:14", "--t", "3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("resource guard:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["konig", "lp"])
def test_long_column_list_exits_cleanly(command):
    # J_4(C_22) has 1 892 generators; the packing search behind both commands
    # must not nest one call per column it skips
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverpack.cli", command, "--graph", "cycle:22", "--t", "4"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["konig" if command == "konig" else "equal"] is False


@pytest.mark.parametrize("argv, guard", [
    # J_1100(P_1100) is generated by the 1 100 variables, and both searches
    # pack all of them, one recursion level per column
    (["konig", "--graph", "path:1100", "--t", "1100"], "nests past the recursion limit"),
    (["lp", "--graph", "path:1100", "--t", "1100"], "nests past the recursion limit"),
    # nu of J_4(C_22) at alpha = 2000 everywhere is far past any exact
    # search; the step budget stops it after about 3 s
    (["lp", "--graph", "cycle:22", "--t", "4", "--alpha", ",".join(["2000"] * 22)],
     "exceeds 2000000 steps"),
])
def test_packing_search_guards_exit_cleanly(argv, guard):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coverpack.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"resource guard: packing search {guard}\n"


@pytest.mark.parametrize("command", [["gens"], ["konig"], ["packing"], ["lp"], ["simis"],
                                     ["gap-search", "--entry-bound", "1"]])
def test_gen_cap_env_reaches_cover_ideal(capsys, monkeypatch, command):
    # J_3(C_9) has more than 5 generators, so every route stops at dualization
    monkeypatch.setenv("COVERPACK_GEN_CAP", "5")
    code, out, err = run_cli(capsys, command[0], "--graph", "cycle:9", "--t", "3",
                             *command[1:])
    assert code == 3 and out == ""
    assert "minimal transversal count exceeds cap 5" in err


def test_field_capacity_exit(capsys, monkeypatch):
    # with a capacity of 5, s = 2 over the 3-variable primes of J_3(P_4)
    # (weight up to 6) no longer fits and symbolic_power refuses it
    import coverpack.duality
    monkeypatch.setattr(coverpack.duality, "FIELD_MAX", 5)
    code, out, err = run_cli(capsys, "simis", "--graph", "path:4", "--t", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "capacity" in err


def test_weak_duality_violation_exit(capsys, monkeypatch):
    import coverpack.lpdual
    monkeypatch.setattr(coverpack.lpdual, "max_packing", lambda rows, alpha: (sum(alpha) + 1, []))
    code, out, err = run_cli(capsys, "gap-search", "--graph", "cycle:6", "--t", "3",
                             "--entry-bound", "1")
    assert code == 1 and out == ""
    assert err.startswith("verification failed:") and "weak duality" in err
    assert "Traceback" not in err


def test_numpy_not_imported():
    # neither numpy nor jsonschema is a dependency: importing the CLI and
    # running every subcommand loads neither
    src = os.path.dirname(os.path.dirname(coverpack.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, coverpack\n"
        "from coverpack.cli import main\n"
        "def loaded():\n"
        "    return [m for m in ('numpy', 'jsonschema') if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "g = ['--graph', 'cycle:7', '--t', '3']\n"
        "for argv in (['gens', *g], ['simis', *g],\n"
        "             ['konig', *g], ['packing', *g], ['lp', *g],\n"
        "             ['gap-search', *g, '--entry-bound', '1'],\n"
        "             ['verify-theorem', '--nmax', '4']):\n"
        "    assert main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(seen, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == str([[]] * 8)


def _real_reports():
    # one report per command, as the CLI emits it
    g = ["--graph", "cycle:6", "--t", "3"]
    argvs = [["gens", *g], ["simis", *g], ["konig", *g], ["packing", *g], ["lp", *g],
             ["gap-search", *g, "--entry-bound", "1"], ["verify-theorem", "--nmax", "3"]]
    reports = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        reports.append(json.loads(out.getvalue()))
    assert [r["command"] for r in reports] == list(RESULT_KEYS)
    return reports


def _broken_reports(report):
    # every way a report can break the schema, one at a time
    for key in ("command", "config", "result"):
        yield {k: v for k, v in report.items() if k != key}
    yield {**report, "extra": 1}
    yield {**report, "command": "bogus"}
    yield {**report, "command": ["gens"]}
    for key in ("config", "result"):
        yield {**report, key: []}
        yield {**report, key: "x"}
    for key in RESULT_KEYS[report["command"]]:
        yield {**report, "result": {k: v for k, v in report["result"].items() if k != key}}


def _accepts(payload) -> bool:
    try:
        emit_report(payload, out=os.devnull)
    except SchemaError:
        return False
    return True


def test_emit_report_agrees_with_jsonschema():
    # the built-in check rejects exactly what a full validator of the
    # published schema rejects
    import jsonschema
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    corpus = [[], "report", None]
    for report in _real_reports():
        corpus.append(report)
        corpus.extend(_broken_reports(report))
    rejected = 0
    for payload in corpus:
        assert _accepts(payload) == validator.is_valid(payload), payload
        rejected += not validator.is_valid(payload)
    assert rejected == len(corpus) - len(RESULT_KEYS)


def test_emit_report_validates():
    with pytest.raises(SchemaError):
        emit_report({"command": "gens", "config": {}, "result": {}},
                    out="/dev/null")
    with pytest.raises(SchemaError):
        emit_report({"command": "bogus", "config": {}, "result": {}},
                    out="/dev/null")


def test_schema_violation_exit(capsys, monkeypatch):
    # a result missing its keys is reported, not written, and exits 2
    import coverpack.cli
    from coverpack.packing import KonigResult
    monkeypatch.setattr(KonigResult, "to_json", lambda self: {"height": self.height})
    code, out, err = run_cli(capsys, "konig", "--graph", "cycle:6", "--t", "3")
    assert code == 2 and out == ""
    assert err.startswith("schema violation:") and "konig" in err
    assert "Traceback" not in err
    assert issubclass(coverpack.cli.SchemaError, ValueError)


def test_report_round_trip(capsys):
    # parse -> re-emit is byte identical for the compact encoding
    _, out, _ = run_cli(capsys, "simis", "--graph", "cycle:6", "--t", "3")
    payload = json.loads(out)
    assert json.dumps(payload, separators=(",", ":")) + "\n" == out


def test_parser_subcommand_required(capsys):
    assert main([]) == 2


def test_schema_requires_result_keys():
    # the published schema is built from the one key table
    assert REPORT_SCHEMA["properties"]["command"]["enum"] == list(RESULT_KEYS)
    assert [c["then"]["properties"]["result"]["required"] for c in REPORT_SCHEMA["allOf"]] \
        == list(RESULT_KEYS.values())
    for command in REPORT_SCHEMA["properties"]["command"]["enum"]:
        with pytest.raises(SchemaError):
            emit_report({"command": command, "config": {}, "result": {}},
                        out="/dev/null")


def test_schema_shape():
    assert set(REPORT_SCHEMA["required"]) == {"command", "config", "result"}
    parser = build_parser()
    assert parser.prog == "coverpack"
