import dataclasses
import inspect
import itertools
import json
import shlex
from pathlib import Path

import pytest

from tightcycles import acceptance, cli
from tightcycles.hypercore import TightPath, read_h3


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_oracle_roundtrip(tmp_path, capsys):
    out = tmp_path / "k10.h3"
    code, stdout, _ = run(
        capsys, "gen", "--family", "complete", "--n", "10", "-o", str(out)
    )
    assert code == 0
    H = read_h3(str(out))
    assert H.n == 10 and H.m == 120
    code, stdout, _ = run(capsys, "oracle", "hamilton", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["result"]["hamiltonian"] is True


def test_oracle_extract_reverifies(tmp_path, capsys):
    out = tmp_path / "c12.h3"
    run(capsys, "gen", "--family", "tight_cycle", "--n", "12", "-o", str(out))
    code, stdout, _ = run(capsys, "oracle", "hamilton", "--extract", str(out))
    assert code == 0
    cyc = json.loads(stdout)["result"]["cycle"]
    assert sorted(cyc) == list(range(12))


def test_hamilton_find_absent_is_exit_1(tmp_path, capsys):
    out = tmp_path / "e1.h3"
    run(capsys, "gen", "--family", "example1", "--n", "16", "--seed", "3",
        "-o", str(out))
    code, stdout, _ = run(
        capsys, "hamilton", "find", "--seed", "1", "--retries", "2", str(out)
    )
    assert code == 1
    payload = json.loads(stdout)
    assert payload["result"]["cycle"] is None
    assert payload["result"]["trace"]["attempts"]


def test_hamilton_find_success(tmp_path, capsys):
    out = tmp_path / "k30.h3"
    run(capsys, "gen", "--family", "complete", "--n", "30", "-o", str(out))
    code, stdout, _ = run(capsys, "hamilton", "find", "--seed", "4", str(out))
    assert code == 0
    cyc = json.loads(stdout)["result"]["cycle"]
    assert sorted(cyc) == list(range(30))


def test_hamilton_find_with_a_reversed_absorber_piece(tmp_path, capsys):
    out = tmp_path / "r60.h3"
    run(capsys, "gen", "--family", "random", "--n", "60", "--p", "0.6",
        "--seed", "31", "-o", str(out))
    code, stdout, _ = run(
        capsys, "hamilton", "find", "--seed", "31", "--retries", "2", str(out)
    )
    assert code == 0
    assert sorted(json.loads(stdout)["result"]["cycle"]) == list(range(60))


def test_density_budget_error_is_exit_3(tmp_path, capsys):
    out = tmp_path / "k25.h3"
    run(capsys, "gen", "--family", "complete", "--n", "25", "-o", str(out))
    code, stdout, err = run(
        capsys, "density", "--notion", "ev", "--d", "0.25", "--mode", "exact",
        str(out)
    )
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "BudgetError"


@pytest.mark.parametrize("notion", ["ev", "vvv", "ee"])
def test_density_search_that_runs_nothing_is_exit_3(tmp_path, capsys, notion):
    out = tmp_path / "ex1.h3"
    run(capsys, "gen", "--family", "example1", "--n", "24", "--seed", "1", "-o", str(out))
    for flags in (["--mode", "sampled", "--samples", "-5"],
                  ["--mode", "sampled", "--samples", "0"],
                  ["--mode", "heuristic", "--restarts", "0"]):
        code, stdout, err = run(capsys, "density", "--notion", notion, "--d", "0.3",
                                *flags, str(out))
        assert code == 3 and stdout == ""
        assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ["motifs", "--find", "turn", "--samples", "0"],
        ["motifs", "--find", "k333", "--samples", "0"],
        ["motifs", "--find", "c8", "--budget", "0"],
        ["motifs", "--find", "c8", "--budget", "-3"],
        ["motifs", "--find", "c84", "--budget", "0"],
        ["motifs", "--count", "k4minus", "--sampled", "--samples", "0"],
        ["hamilton", "connect", "--from", "0,1", "--to", "2,3", "--budget", "0"],
        ["hamilton", "connect", "--from", "0,1", "--to", "2,3", "--max-inner", "0"],
        ["hamilton", "find", "--retries", "0"],
        ["hamilton", "find", "--retries", "-2"],
    ],
    ids=" ".join,
)
def test_search_that_runs_nothing_is_exit_3(tmp_path, capsys, argv):
    out = tmp_path / "k12.h3"
    run(capsys, "gen", "--family", "complete", "--n", "12", "-o", str(out))
    code, stdout, err = run(capsys, *argv, str(out))
    assert code == 3 and stdout == ""
    assert json.loads(err)["error"] == "ValueError"


def test_density_exact_json(tmp_path, capsys):
    out = tmp_path / "k4.h3"
    run(capsys, "gen", "--family", "complete", "--n", "4", "-o", str(out))
    code, stdout, _ = run(
        capsys, "density", "--notion", "ev", "--d", "1", "--mode", "exact",
        str(out)
    )
    assert code == 0
    rep = json.loads(stdout)["result"]["report"]
    assert rep["raw"] == -24.0 and rep["exact"] is True


def test_density_fraction_input(tmp_path, capsys):
    out = tmp_path / "r.h3"
    run(capsys, "gen", "--family", "random", "--n", "8", "--p", "0.5",
        "--seed", "2", "-o", str(out))
    code, stdout, _ = run(
        capsys, "density", "--notion", "ev", "--d", "1/3", "--mode", "exact",
        str(out)
    )
    assert code == 0
    rep = json.loads(stdout)["result"]["report"]
    assert rep["raw_den"] % 3 == 0 or rep["raw_num"] == 0


def test_density_long_decimal_sampled(tmp_path, capsys):
    """A 22-digit decimal has a denominator beyond int64; the sampled search
    still runs in exact arithmetic."""
    out = tmp_path / "r.h3"
    run(capsys, "gen", "--family", "random", "--n", "8", "--p", "0.5",
        "--seed", "2", "-o", str(out))
    code, stdout, _ = run(
        capsys, "density", "--notion", "ev", "--d", "0.3333333333333333333333",
        "--mode", "sampled", "--samples", "2000", "--seed", "1", str(out)
    )
    assert code == 0
    rep = json.loads(stdout)["result"]["report"]
    assert rep["raw_den"] >= 2**63 and rep["samples"] >= 2000


def test_motifs_count_and_find(tmp_path, capsys):
    out = tmp_path / "k5.h3"
    run(capsys, "gen", "--family", "complete", "--n", "5", "-o", str(out))
    code, stdout, _ = run(capsys, "motifs", "--count", "cherries", str(out))
    assert code == 0
    assert json.loads(stdout)["result"]["report"]["count"] == 120
    code, stdout, _ = run(capsys, "motifs", "--count", "k4minus", str(out))
    assert json.loads(stdout)["result"]["report"]["count"] == 20
    out9 = tmp_path / "k9.h3"
    run(capsys, "gen", "--family", "complete", "--n", "9", "-o", str(out9))
    code, stdout, _ = run(
        capsys, "motifs", "--find", "k333", "--seed", "1", str(out9)
    )
    assert code == 0
    assert json.loads(stdout)["result"]["gadget"] is not None


def test_motifs_sampled_k4minus(tmp_path, capsys):
    out = tmp_path / "k8.h3"
    run(capsys, "gen", "--family", "complete", "--n", "8", "-o", str(out))
    code, stdout, _ = run(
        capsys, "motifs", "--count", "k4minus", "--sampled",
        "--samples", "20000", "--seed", "1", str(out)
    )
    assert code == 0
    rep = json.loads(stdout)["result"]["report"]
    assert not rep["exact"]
    # complete host: every sorted 4-tuple qualifies: density = C(8,4)*... / 8^4
    assert abs(rep["normalized"] - 8 * 7 * 6 * 5 / 6 / 8**4) < 0.02


def test_motifs_absence_is_exit_1(tmp_path, capsys):
    out = tmp_path / "empty.h3"
    run(capsys, "gen", "--family", "random", "--n", "10", "--p", "0",
        "--seed", "0", "-o", str(out))
    code, stdout, _ = run(capsys, "motifs", "--find", "c8", str(out))
    assert code == 1


def test_hamilton_connect_cli(tmp_path, capsys):
    out = tmp_path / "k12.h3"
    run(capsys, "gen", "--family", "complete", "--n", "12", "-o", str(out))
    code, stdout, _ = run(
        capsys, "hamilton", "connect", "--from", "0,1", "--to", "2,3",
        "--seed", "0", str(out)
    )
    assert code == 0
    path = json.loads(stdout)["result"]["path"]
    assert path[:2] == [0, 1] and path[-2:] == [2, 3]


def test_hamilton_cover_cli(tmp_path, capsys):
    out = tmp_path / "k14.h3"
    run(capsys, "gen", "--family", "complete", "--n", "14", "-o", str(out))
    code, stdout, _ = run(
        capsys, "hamilton", "cover", "--seed", "0", str(out)
    )
    assert code == 0
    res = json.loads(stdout)["result"]
    assert res["paths"] and not res["shortfall"]


@pytest.mark.parametrize("target,shortfall", [(-1.0, True), (15.0, False)])
def test_hamilton_cover_shortfall_follows_the_library_target(
    tmp_path, capsys, monkeypatch, target, shortfall
):
    # k14 is covered with nothing left; a target of 15 > n leaves every
    # vertex uncovered, and neither is short of it
    out = tmp_path / "k14.h3"
    run(capsys, "gen", "--family", "complete", "--n", "14", "-o", str(out))
    monkeypatch.setattr(cli.hamilton, "cover_target", lambda gamma, n: target)
    code, stdout, _ = run(capsys, "hamilton", "cover", "--seed", "0", str(out))
    assert code == 0
    res = json.loads(stdout)["result"]
    assert res["shortfall"] is shortfall
    assert bool(res["paths"]) is shortfall


def test_hamilton_find_json_is_schema_3_with_flat_attempts(tmp_path, capsys):
    out = tmp_path / "r30.h3"
    run(capsys, "gen", "--family", "random", "--n", "30", "--p", "0.9", "--seed", "0",
        "-o", str(out))
    code, stdout, _ = run(capsys, "hamilton", "find", "--seed", "3", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema_version"] == 3 and "backend" not in payload
    (at,) = payload["result"]["trace"]["attempts"]
    assert {"absorbers", "trim", "leftover", "absorbed"} <= set(at)
    assert not {"absorbing", "absorb", "fail_stage", "gadget", "gadget_removed"} & set(at)
    assert not any(isinstance(value, dict) for key, value in at.items() if key != "cover")


@pytest.mark.parametrize(
    "command", [("hamilton", "cover"), ("hamilton", "find")], ids=["cover", "find"]
)
@pytest.mark.parametrize(
    "flags",
    [("--beta", "2"), ("--beta", "0"), ("--gamma", "1.5"), ("--gamma", "-0.1")],
    ids=" ".join,
)
def test_beta_gamma_outside_unit_interval_is_exit_3(tmp_path, capsys, command, flags):
    # before, cover took --gamma 1.5 as a target above n and returned no
    # paths, every vertex uncovered and "shortfall": false, with exit 0
    out = tmp_path / "r30.h3"
    run(capsys, "gen", "--family", "random", "--n", "30", "--p", "0.9", "--seed", "1",
        "-o", str(out))
    code, stdout, err = run(capsys, *command, "--seed", "0", *flags, str(out))
    assert code == 3 and stdout == ""
    diag = json.loads(err)
    assert diag["error"] == "ValueError" and "(0, 1)" in diag["message"]


@pytest.mark.parametrize("family", ["random", "complete"])
def test_gen_negative_vertex_count_is_exit_3(tmp_path, capsys, family):
    code, stdout, err = run(capsys, "gen", "--family", family, "--n", "-5", "--seed", "1",
                            "-o", str(tmp_path / "x.h3"))
    assert code == 3 and stdout == ""
    assert json.loads(err)["message"] == "vertex count must be nonnegative"


def test_hamilton_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    pipeline = cli.hamilton.PipelineParams()
    find = vars(parser.parse_args(["hamilton", "find", "f.h3"]))
    # the find flags are the pipeline's fields, each with the library's
    # default, so a field added or removed on one side only fails here; the
    # parser's seed default None means seed 0
    parsed = {"seed": lambda v: 0 if v is None else v}
    fields = dataclasses.fields(cli.hamilton.PipelineParams)
    assert set(find) - {"format", "strict", "command", "action", "file"} == {
        f.name for f in fields
    }
    for field in fields:
        value = parsed.get(field.name, lambda v: v)(find[field.name])
        assert value == getattr(pipeline, field.name), field.name
    # the pipeline hands almost_cover its own beta and gamma
    cover = parser.parse_args(["hamilton", "cover", "f.h3"])
    assert (cover.beta, cover.gamma) == (pipeline.beta, pipeline.gamma)
    connect = parser.parse_args(
        ["hamilton", "connect", "--from", "0,1", "--to", "2,3", "f.h3"]
    )
    defaults = inspect.signature(cli.hamilton.connect).parameters
    assert connect.budget == defaults["budget"].default
    assert connect.max_inner == defaults["max_inner"].default


@pytest.mark.parametrize("flag", [False, True])
def test_hamilton_find_gadget_flag_reaches_params(tmp_path, capsys, monkeypatch, flag):
    # the pipeline has one parity mechanism and no gadget switch: without
    # --gadget the parsed flags reach the pipeline, with it the parser stops
    # at a usage error and the pipeline is never called
    out = tmp_path / "k12.h3"
    run(capsys, "gen", "--family", "complete", "--n", "12", "-o", str(out))
    seen = []

    def record(H, params):
        seen.append(params)
        return None, {"attempts": []}

    monkeypatch.setattr(cli.hamilton, "find_tight_hamilton", record)
    argv = ["hamilton", "find", "--seed", "1"] + (["--gadget"] if flag else [])
    if flag:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, str(out)])
        assert exc.value.code == 2
        assert seen == []
    else:
        code, _, _ = run(capsys, *argv, str(out))
        assert code == 1
        assert seen == [cli.hamilton.PipelineParams(seed=1)]


def test_oracle_count_paths_cli(tmp_path, capsys):
    out = tmp_path / "k6.h3"
    run(capsys, "gen", "--family", "complete", "--n", "6", "-o", str(out))
    code, stdout, _ = run(
        capsys, "oracle", "count-paths", "--from", "0,1", "--to", "2,3",
        "--inner", "1", str(out)
    )
    assert code == 0
    assert json.loads(stdout)["result"]["count"] == 2


@pytest.mark.parametrize("bad", ["0,12", "0,-1"])
@pytest.mark.parametrize(
    "command",
    [("hamilton", "connect", "--seed", "0"), ("oracle", "count-paths", "--inner", "2")],
    ids=["connect", "count-paths"],
)
def test_endpoint_outside_host_is_exit_3(tmp_path, capsys, command, bad):
    # u*n+v would alias another pair: on 10 vertices, (0, 12) reads as (1, 2)
    out = tmp_path / "k10.h3"
    run(capsys, "gen", "--family", "complete", "--n", "10", "-o", str(out))
    for ends in (("--from", bad, "--to", "5,6"), ("--from", "5,6", "--to", bad)):
        code, stdout, stderr = run(capsys, *command, *ends, str(out))
        assert code == 3 and stdout == ""
        diag = json.loads(stderr)
        assert diag["error"] == "ValueError" and "0..9" in diag["message"]


def test_connect_allowed_outside_host_is_exit_3(tmp_path, capsys):
    # before, the allowed vertex 10 on ten vertices was dropped silently
    out = tmp_path / "k10.h3"
    run(capsys, "gen", "--family", "complete", "--n", "10", "-o", str(out))
    code, stdout, stderr = run(capsys, "hamilton", "connect", "--from", "0,1",
                               "--to", "2,3", "--allowed", "4,5,10", "--seed", "0",
                               str(out))
    assert code == 3 and stdout == ""
    diag = json.loads(stderr)
    assert (diag["error"], diag["message"]) == ("ValueError", "allowed must lie in 0..9")


def test_readme_commands_parse():
    # a flag removed from the parser but left in an example fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#")[0].strip() for line in readme.read_text().splitlines()]
    commands = [line for line in lines if line.startswith("tightcycles ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


def test_strict_requires_seed(tmp_path, capsys):
    out = tmp_path / "x.h3"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--strict", "gen", "--family", "complete", "--n", "5",
                  "-o", str(out)])
    assert exc.value.code == 2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--notion", "zzz", "--d", "1", "--mode", "exact", "f"])
    assert exc.value.code == 2


def test_missing_file_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "absent.h3"
    code, stdout, err = run(capsys, "hamilton", "find", str(missing))
    assert code == 2
    assert stdout == ""
    diag = json.loads(err)
    assert diag["error"] == "FileNotFoundError"
    assert str(missing) in diag["message"]


def test_internal_error_is_exit_4(tmp_path, capsys, monkeypatch):
    out = tmp_path / "k6.h3"
    run(capsys, "gen", "--family", "complete", "--n", "6", "-o", str(out))

    def broken(*args, **kwargs):
        raise RuntimeError("kernel blew up")

    monkeypatch.setattr(cli.density, "ev_deviation", broken)
    code, stdout, err = run(
        capsys, "density", "--notion", "ev", "--d", "1/4", "--mode", "exact", str(out)
    )
    assert code == 4
    assert stdout == ""
    diag = json.loads(err)
    assert diag["error"] == "RuntimeError"
    assert diag["message"] == "kernel blew up"
    assert "broken" in diag["traceback"]


def test_uncertified_result_is_exit_4(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c8.h3"
    run(capsys, "gen", "--family", "tight_cycle", "--n", "8", "-o", str(out))
    monkeypatch.setattr(
        cli.oracle, "extract_tight_hamilton",
        lambda H: TightPath((0, 2, 1, 3, 4, 5, 6, 7), is_cycle=True),
    )
    code, stdout, err = run(capsys, "oracle", "hamilton", "--extract", str(out))
    assert code == 4
    assert stdout == ""
    assert json.loads(err)["error"] == "UncertifiedResult"


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.h3", tmp_path / "b.h3"
    run(capsys, "gen", "--family", "example1", "--n", "20", "--seed", "9",
        "-o", str(a))
    run(capsys, "gen", "--family", "example1", "--n", "20", "--seed", "9",
        "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_blowup_needs_host(tmp_path, capsys):
    out = tmp_path / "b.h3"
    code, _, err = run(capsys, "gen", "--family", "blowup", "-o", str(out))
    assert code == 3
    host = tmp_path / "c5.h3"
    run(capsys, "gen", "--family", "tight_cycle", "--n", "5", "-o", str(host))
    code, stdout, _ = run(
        capsys, "gen", "--family", "blowup", "--host", str(host), "--t", "2",
        "-o", str(out)
    )
    assert code == 0
    assert read_h3(str(out)).n == 10


def test_text_format(tmp_path, capsys):
    out = tmp_path / "k6.h3"
    run(capsys, "gen", "--family", "complete", "--n", "6", "-o", str(out))
    code, stdout, _ = run(
        capsys, "--format", "text", "oracle", "hamilton", str(out)
    )
    assert code == 0
    assert "hamiltonian: True" in stdout


def test_timings_ignore_wall_clock_steps(tmp_path, capsys, monkeypatch):
    """The criteria and the CLI time with a monotonic clock: a wall clock
    that steps back a day on every read moves neither."""
    wall = itertools.count(0, -86_400)
    monkeypatch.setattr(cli.time, "time", lambda: float(next(wall)))
    assert 0 <= acceptance._timed(0, "noop", lambda: (True, {})).seconds < 60
    code, stdout, _ = run(capsys, "gen", "--family", "complete", "--n", "5",
                          "-o", str(tmp_path / "k5.h3"))
    assert code == 0 and 0 <= json.loads(stdout)["timings"]["total"] < 60


def test_bench_one_criterion(capsys):
    code, stdout, _ = run(capsys, "bench", "--criteria", "8")
    assert code == 0
    rows = json.loads(stdout)["result"]["criteria"]
    assert [row["criterion"] for row in rows] == [8] and rows[0]["passed"]


# the documented code of each edge input; none of them is an internal error
EDGE_INPUTS = [
    *[
        (f"{argv} {{{host}}}", code)
        for host in ("empty", "one")
        for argv, code in [
            ("density --notion ev --d 1/2 --mode exact", 0),
            ("density --notion vvv --d 1/2 --mode exact", 0),
            ("density --notion ee --d 1/2 --mode exact", 0),
            ("density --notion ev --d 1/2 --mode sampled --samples 50", 0),
            ("motifs --count k4minus", 0),
            ("motifs --count cherries", 0),
            ("motifs --find k333", 1),
            ("motifs --find c8", 1),
            ("hamilton cover", 0),
        ]
    ],
    *[
        (f"motifs --find {motif} --avoid {bad} {{k12}}", 3)
        for motif in ("k333", "c8", "c84")
        for bad in (-1, 99)
    ],
    ("hamilton connect --from 0,1 --to 2,3 --allowed -1 {k12}", 3),
    ("hamilton connect --from 0,1 --to 2,3 --lengths -1 {k12}", 3),
    ("gen --family complete --n -1 -o {out}", 3),
    ("gen --family random --n -1 -o {out}", 3),
    ("gen --family tight_cycle --n 4 -o {out}", 3),
    ("gen --family example1 --n 4 -o {out}", 3),
    ("gen --family hp --n 4 -o {out}", 3),
    ("density --notion ev --d 1/0 --mode exact {k12}", 3),
    ("density --notion ev --d nan --mode exact {k12}", 3),
    ("bench --criteria 99", 3),
    ("bench --criteria 0", 3),
    ("bench --criteria 8,12", 3),
    ("bench --criteria ,", 3),
]

# the option a precondition diagnostic must name, where the input has one
NAMED = {"--avoid": "avoid must lie in 0..11", "--criteria": "criteria must name some of 1..11"}


@pytest.mark.parametrize("argv,expected", EDGE_INPUTS, ids=[a for a, _ in EDGE_INPUTS])
def test_edge_inputs_exit_with_their_documented_code(tmp_path, capsys, argv, expected):
    files = {name: str(tmp_path / f"{name}.h3") for name in ("empty", "one", "k12", "out")}
    Path(files["empty"]).write_text("0 0\n")
    Path(files["one"]).write_text("3 1\n0 1 2\n")
    run(capsys, "gen", "--family", "complete", "--n", "12", "-o", files["k12"])
    code, _, err = run(capsys, *shlex.split(argv.format(**files)))
    assert code == expected
    if code >= 2:
        assert "traceback" not in json.loads(err)
    for option, message in NAMED.items():
        if option in argv:
            assert message in json.loads(err)["message"]
