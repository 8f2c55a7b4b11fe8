import json
import time

import jsonschema
import pytest

from ramspace import cli, forcing, matrix_space, partition_space, ramsey
from ramspace.audit import AxiomCheck, AxiomReport, AuditBounds
from ramspace.ramsey import verify_witness


@pytest.fixture(scope="module")
def schema():
    import importlib.resources

    ref = importlib.resources.files("ramspace") / "schemas" / "cli_output.schema.json"
    return json.loads(ref.read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, schema, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return code, payload


# ----- audit -----

def test_audit_ellentuck_ok(capsys, schema):
    code, payload = run_json(
        capsys, schema, "audit", "--space", "ellentuck", "--ground", "6",
        "--depth", "4", "--a6",
    )
    assert code == 0
    assert payload["outcome"] == "bounded-pass"
    assert any(row["axiom"] == "A6" for row in payload["report"])


def test_audit_matrix_ok(capsys, schema):
    code, payload = run_json(
        capsys, schema, "audit", "--space", "matrix", "--q", "2",
        "--max-cols", "3", "--depth", "3",
    )
    assert code == 0 and payload["outcome"] == "bounded-pass"


def test_audit_usage_error(capsys):
    code, _ = run(capsys, "audit", "--space", "ellentuck", "--ground", "0")
    assert code == 2


def test_audit_missing_param(capsys):
    code, _ = run(capsys, "audit", "--space", "ellentuck")
    assert code == 2


def test_audit_refusal(capsys):
    code, _ = run(capsys, "audit", "--space", "ellentuck", "--ground", "25")
    assert code == 4


def test_audit_counterexample_exit(capsys, monkeypatch):
    # exit-code mapping for a failing report (real spaces all pass)
    report = AxiomReport("space=test", AuditBounds())
    report.checks.append(
        AxiomCheck("A1", "empty-base", "counterexample", 1, witness="w")
    )
    monkeypatch.setattr(cli, "audit_axioms", lambda space, bounds: report)
    code, out = run(capsys, "audit", "--space", "ellentuck", "--ground", "4")
    assert code == 1
    assert "counterexample" in out


# ----- galvin -----

def test_galvin_family_file(tmp_path, capsys, schema):
    path = tmp_path / "family.txt"
    path.write_text(
        "space=ellentuck;ground=20\nlength_bound=1\n"
        + "\n".join("{%d}" % x for x in range(0, 20, 2))
        + "\n"
    )
    code, payload = run_json(capsys, schema, "galvin", "--family", str(path))
    assert code == 0
    assert payload["outcome"] == "alt1"
    assert payload["stem"] == "{1,3,5,7,9,11,13,15,17,19}"


def test_galvin_inline_members(capsys, schema):
    code, payload = run_json(
        capsys, schema, "galvin", "--space", "ellentuck", "--ground", "8",
        "--member", "{0}", "--member", "{2}", "--member", "{4}", "--member", "{6}",
    )
    assert code == 0
    assert payload["outcome"] == "alt1"
    assert payload["stem"] == "{1,3,5,7}"


def test_galvin_alt2(capsys, schema):
    argv = ["galvin", "--space", "ellentuck", "--ground", "6"]
    for x in range(6):
        argv += ["--member", "{%d}" % x]
    code, payload = run_json(capsys, schema, *argv)
    assert code == 0 and payload["outcome"] == "alt2"


def test_galvin_malformed_family(tmp_path, capsys):
    path = tmp_path / "family.txt"
    path.write_text("space=ellentuck;ground=5\nnot-a-member\n")
    code, _ = run(capsys, "galvin", "--family", str(path))
    assert code == 2


def test_galvin_removed_options_are_unknown_arguments(capsys):
    for extra in (["--horizon", "1"], ["--no-greedy"]):
        code = cli.main([
            "galvin", "--space", "ellentuck", "--ground", "5",
            "--member", "{0,1}", *extra,
        ])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in err


def _inconclusive_search(*args, **kwargs):
    return forcing.DichotomyResult(
        forcing.INCONCLUSIVE, None, "", diagnostics="stuck", stats={}
    )


def test_galvin_inconclusive_exit(capsys, schema, monkeypatch):
    monkeypatch.setattr(cli, "galvin_search", _inconclusive_search)
    code, payload = run_json(
        capsys, schema, "galvin", "--space", "ellentuck", "--ground", "5",
        "--member", "{0,1}",
    )
    assert code == 3
    assert payload["outcome"] == "inconclusive"
    assert payload["diagnostics"] == "stuck"


def test_galvin_refusal_without_greedy(capsys):
    # Partitions have no greedy exclusion, so an over-ceiling search
    # refuses with its estimate.
    code = cli.main([
        "galvin", "--space", "partition", "--domain", "6",
        "--member", "({0},{1})", "--max-reducts", "3",
    ])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "refused: reduct sweep too large (estimated 4 > ceiling 3)\n"


def test_galvin_family_file_takes_no_inline_family(tmp_path, capsys):
    path = tmp_path / "family.txt"
    path.write_text("space=ellentuck;ground=8\n{0}\n")
    for extra, named in (
        (["--length-bound", "5"], "--length-bound"),
        (["--member", "{1}"], "--member"),
        (["--space", "ellentuck"], "--space"),
        (["--space", "partition", "--domain", "4"], "--space, --domain"),
        (["--q", "3"], "--q"),
    ):
        code = cli.main(["galvin", "--family", str(path), *extra])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", extra
        assert err == f"error: --family takes no {named}\n"


@pytest.mark.parametrize("argv, err", [
    (["audit", "--space", "ellentuck", "--ground", "3", "--q", "7", "--depth", "2"],
     "the ellentuck space takes no --q"),
    (["audit", "--space", "ellentuck", "--ground", "3", "--domain", "9",
      "--max-cols", "4", "--depth", "2"],
     "the ellentuck space takes no --max-cols, --domain"),
    (["audit", "--space", "partition", "--domain", "3", "--ground", "5", "--depth", "2"],
     "the partition space takes no --ground"),
    (["audit", "--space", "matrix", "--max-cols", "2", "--domain", "3"],
     "the matrix space takes no --domain"),
    (["galvin", "--space", "ellentuck", "--ground", "4", "--q", "7", "--member", "{0}"],
     "the ellentuck space takes no --q"),
])
def test_space_options_of_another_space_exit_2(capsys, argv, err):
    code = cli.main(argv)
    out, got = capsys.readouterr()
    assert code == 2 and out == ""
    assert got == f"error: {err}\n"


def test_matrix_space_options_default_q_to_2(capsys):
    _, text = run(capsys, "audit", "--space", "matrix", "--max-cols", "2", "--depth", "2")
    assert text.splitlines()[0] == "audit space=matrix;q=2;max_cols=2"


@pytest.mark.parametrize("space", [
    ["--space", "ellentuck", "--ground", "8", "--member", "{0}"],
    ["--space", "matrix", "--max-cols", "3", "--member", "q=2;1"],
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_galvin_max_reducts_below_one_exits_2(capsys, space, value):
    # A usage error on every space, before any sweep: neither the
    # ellentuck greedy fallback nor the matrix refusal is reached.
    code = cli.main(["galvin", *space, "--max-reducts", value])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: need max_reducts >= 1, got {value}\n"


def test_galvin_negative_length_bound_exits_2(tmp_path, capsys):
    # An empty family passes any length bound's member check, so the
    # bound itself must be refused, inline and in a family file.
    path = tmp_path / "family.txt"
    path.write_text("space=ellentuck;ground=3\nlength_bound=-2\n")
    for argv, value in (
        (["--space", "ellentuck", "--ground", "3", "--length-bound", "-3"], -3),
        (["--family", str(path)], -2),
    ):
        code = cli.main(["galvin", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err == f"error: need length_bound >= 0, got {value}\n"


@pytest.mark.parametrize("flag, key", [("--depth", "max_depth"), ("--max-len", "max_len")])
def test_audit_negative_bound_exits_2(capsys, flag, key):
    code = cli.main(["audit", "--space", "ellentuck", "--ground", "4", flag, "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: need {key} >= 0, got -1\n"


# ----- ramsey -----

def test_ramsey_classical_found(capsys, schema):
    code, payload = run_json(
        capsys, schema, "ramsey", "classical",
        "--k", "2", "--n", "3", "--s", "2", "--bound", "8",
    )
    assert code == 0
    assert payload["value"] == 6
    assert "found" in payload["certificates"]
    assert "lower_bound" in payload["certificates"]


def test_ramsey_glr_found(capsys, schema):
    code, payload = run_json(
        capsys, schema, "ramsey", "glr",
        "--q", "2", "--k", "1", "--n", "2", "--s", "2", "--bound", "4",
    )
    assert code == 0 and payload["value"] == 3
    # every field of the removed csv row: instance, outcome, value,
    # count_checked and seconds (empty without --timing)
    assert payload["parameters"]["instance"] == "glr;q=2;k=1;n=2;s=2"
    assert payload["outcome"] == "found"
    assert payload["stats"]["colorings_checked"] == 2**7
    assert payload["seconds"] is None


def test_ramsey_glr_three_colors_replays(capsys, schema):
    # GLR_2(1,2;3) = 5: its found claim is 3^31 colorings, far above the
    # ceiling, but the replay visits only the search's 545,795 nodes.
    code, payload = run_json(
        capsys, schema, "ramsey", "glr", "--q", "2", "--k", "1", "--n", "2",
        "--s", "3", "--bound", "5", "--mode", "backtracking",
    )
    assert code == 0 and payload["value"] == 5
    certs = payload["certificates"]
    assert "nodes=545795" in certs["found"].splitlines()
    assert set(certs) == {"found", "lower_bound"}
    assert all(verify_witness(c) for c in certs.values())


def test_ramsey_exhausted(capsys, schema):
    code, payload = run_json(
        capsys, schema, "ramsey", "classical",
        "--k", "2", "--n", "3", "--s", "2", "--bound", "4",
    )
    assert code == 3
    assert payload["outcome"] == "exhausted"
    assert payload["value"] is None


def test_ramsey_lower_bound_exit(capsys, schema):
    code, payload = run_json(
        capsys, schema, "ramsey", "classical",
        "--k", "2", "--n", "3", "--s", "2", "--bound", "8",
        "--mode", "backtracking", "--node-budget", "5",
    )
    assert code == 1
    assert payload["outcome"] == "lower_bound"


def test_ramsey_node_budget_needs_backtracking(capsys):
    code = cli.main([
        "ramsey", "classical", "--k", "2", "--n", "3", "--s", "2",
        "--bound", "8", "--node-budget", "1",
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: a node budget needs backtracking mode\n"


def test_ramsey_bound_below_the_first_level_exits_2(capsys):
    code = cli.main([
        "ramsey", "classical", "--k", "1", "--n", "2", "--s", "2", "--bound", "1",
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: need bound >= n: the first level is 2\n"


@pytest.mark.parametrize("space", ["ellentuck", "partition"])
@pytest.mark.parametrize("q", ["2", "7"])
def test_ramsey_witness_q_needs_the_matrix_space(capsys, space, q):
    code = cli.main([
        "ramsey", "witness", "--space", space, "--q", q,
        "--k", "1", "--n", "2", "--s", "2", "--bound", "3",
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: only matrix levels take a field order q, not {space}\n"


def test_ramsey_one_instance_one_certificate(capsys, schema):
    # The witness variant and the named variant of one instance print
    # the same certificates; a matrix level without --q is over GF(2).
    args = ["--k", "1", "--s", "2", "--bound", "3"]
    _, witness = run_json(
        capsys, schema, "ramsey", "witness", "--space", "partition", "--n", "2", *args
    )
    _, paramset = run_json(capsys, schema, "ramsey", "paramset", "--m", "2", *args)
    assert witness["certificates"] == paramset["certificates"]
    assert "instance=partition;k=1;n=2" in witness["certificates"]["found"].splitlines()
    _, matrix = run_json(
        capsys, schema, "ramsey", "witness", "--space", "matrix", "--n", "2", *args
    )
    _, glr = run_json(capsys, schema, "ramsey", "glr", "--n", "2", *args)
    assert matrix["certificates"] == glr["certificates"]
    assert "instance=matrix;k=1;n=2;q=2" in glr["certificates"]["found"].splitlines()


@pytest.mark.parametrize("q, named", [([], "q=2"), (["--q", "3"], "q=3")])
def test_ramsey_witness_matrix_instance_names_q(capsys, schema, q, named):
    args = ["--k", "1", "--n", "2", "--s", "2", "--bound", "3"]
    _, payload = run_json(capsys, schema, "ramsey", "witness", "--space", "matrix", *q, *args)
    assert payload["parameters"]["instance"] == f"witness;space=matrix;{named};k=1;n=2;s=2"
    cert = next(iter(payload["certificates"].values()))
    assert f"instance=matrix;k=1;n=2;{named}" in cert.splitlines()
    _, payload = run_json(capsys, schema, "ramsey", "witness", "--space", "partition", *args)
    assert payload["parameters"]["instance"] == "witness;space=partition;k=1;n=2;s=2"


def test_ramsey_ceiling_refusal(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_CEILING, "4")
    code, _ = run(
        capsys, "ramsey", "classical",
        "--k", "2", "--n", "3", "--s", "2", "--bound", "8",
    )
    assert code == 4
    monkeypatch.delenv(cli.ENV_CEILING)
    # A level too large to build is refused before it is built, with the
    # size of its level space.
    for argv, estimate in [
        ("witness --space ellentuck --k 1 --n 25 --s 2 --bound 25", 2**25),
        ("paramset --k 1 --m 12 --s 2 --bound 12", 5034585),
    ]:
        code = cli.main(["ramsey", *argv.split()])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert err.startswith("refused: level ") and err.count("\n") == 1
        assert f"(estimated {estimate} > ceiling {ramsey.LEVEL_CEILING})" in err
    # An estimate past Python's 4,300-digit int-to-string limit is
    # written as a power of two, and the refusal still exits 4.
    for argv, line in [
        (
            "classical --k 2 --n 200 --s 2 --bound 200",
            "refused: exhaustive mode needs 2^19900 colorings; use backtracking "
            f"(estimated 2^19900 > ceiling {ramsey.EXHAUSTIVE_CEILING})\n",
        ),
        (
            "witness --space ellentuck --k 1 --n 20000 --s 2 --bound 20000",
            "refused: level 20000 of ellentuck too large "
            f"(estimated 2^20000 > ceiling {ramsey.LEVEL_CEILING})\n",
        ),
    ]:
        code = cli.main(["ramsey", *argv.split()])
        assert (code, *capsys.readouterr()) == (4, "", line)
    # Refusing a large partition level takes one pass over the Bell
    # triangle, not one triangle per domain size.
    start = time.perf_counter()
    code = cli.main(["ramsey", *"paramset --k 1 --m 1000 --s 2 --bound 1000".split()])
    out, err = capsys.readouterr()
    assert code == 4 and out == "" and err.count("\n") == 1
    assert err.startswith("refused: level 1000 of partition too large (estimated ")
    assert time.perf_counter() - start < 10


def test_ramsey_paramset(capsys, schema):
    code, payload = run_json(
        capsys, schema, "ramsey", "paramset",
        "--k", "1", "--m", "3", "--s", "2", "--bound", "5",
    )
    assert code == 0 and payload["value"] == 3


def test_ramsey_generic_witness(capsys, schema):
    code, payload = run_json(
        capsys, schema, "ramsey", "witness", "--space", "ellentuck",
        "--k", "2", "--n", "3", "--s", "2", "--bound", "6",
    )
    assert code == 0 and payload["value"] == 4


def test_ramsey_csv_format(capsys):
    # JSON is the one machine format, on every command.
    for argv in (
        ["audit", "--space", "ellentuck", "--ground", "3"],
        ["galvin", "--space", "ellentuck", "--ground", "3", "--member", "{0}"],
        ["ramsey", "classical", "--k", "2", "--n", "3", "--s", "2", "--bound", "8"],
        ["reduce", "--coloring", "coloring.txt"],
    ):
        code = cli.main(argv + ["--format", "csv"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.endswith(
            "error: argument --format: invalid choice: 'csv' "
            "(choose from 'text', 'json')\n"
        ), argv


def test_ramsey_budget_before_any_bound_is_inconclusive(capsys, schema):
    # The budget runs out on the first level, so no level is refuted and
    # there is no lower bound to report: exit 3, not 1.
    code, payload = run_json(
        capsys, schema, "ramsey", "glr", "--q", "2", "--k", "1", "--n", "2",
        "--s", "3", "--bound", "5", "--mode", "backtracking", "--node-budget", "3",
    )
    assert code == 3 and payload["exit_code"] == 3
    assert payload["outcome"] == "inconclusive"
    assert payload["value"] is None and payload["certificates"] == {}
    assert payload["stats"]["undecided_level"] == 2


# ----- reduce -----

def _write_parity_coloring(tmp_path):
    path = tmp_path / "coloring.txt"
    lines = ["space=ellentuck;ground=10", "k=1;s=2"]
    lines += ["{%d}:%d" % (x, x % 2) for x in range(10)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_reduce_parity(tmp_path, capsys, schema):
    path = _write_parity_coloring(tmp_path)
    code, payload = run_json(capsys, schema, "reduce", "--coloring", str(path))
    assert code == 0
    assert payload["outcome"] == "mono"
    assert payload["stem"] == "{1,3,5,7,9}"
    assert payload["color"] == 1


def test_reduce_inconclusive_exit(tmp_path, capsys, schema, monkeypatch):
    monkeypatch.setattr(ramsey, "galvin_search", _inconclusive_search)
    path = _write_parity_coloring(tmp_path)
    code, payload = run_json(capsys, schema, "reduce", "--coloring", str(path))
    assert code == 3
    assert payload["outcome"] == "inconclusive"
    assert payload["diagnostics"] == "stuck"


def test_reduce_bad_file(tmp_path, capsys):
    path = tmp_path / "coloring.txt"
    path.write_text("space=ellentuck;ground=5\n")
    code, _ = run(capsys, "reduce", "--coloring", str(path))
    assert code == 2


# ----- output plumbing -----

def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code = cli.main([
        "ramsey", "glr", "--q", "2", "--k", "1", "--n", "2", "--s", "2",
        "--bound", "4", "--format", "json", "--output", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["value"] == 3
    assert capsys.readouterr().out == ""


def test_byte_identical_output_without_timing(capsys):
    argv = (
        "ramsey", "classical", "--k", "2", "--n", "3", "--s", "2", "--bound", "8",
    )
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    _, jfirst = run(capsys, *argv, "--format", "json")
    _, jsecond = run(capsys, *argv, "--format", "json")
    assert jfirst == jsecond


def test_cross_process_determinism_under_hash_randomization(tmp_path):
    import os
    import subprocess
    import sys

    fam = tmp_path / "family.txt"
    fam.write_text(
        "space=ellentuck;ground=12\nlength_bound=1\n"
        + "\n".join("{%d}" % x for x in range(0, 12, 2))
        + "\n"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "ramspace.cli", "galvin",
             "--family", str(fam), "--format", "json"],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
        proc = subprocess.run(
            [sys.executable, "-m", "ramspace.cli", "ramsey", "classical",
             "--k", "2", "--n", "3", "--s", "2", "--bound", "8",
             "--format", "json"],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def test_timing_flag_adds_seconds(capsys):
    code, out = run(
        capsys, "ramsey", "glr", "--q", "2", "--k", "1", "--n", "2",
        "--s", "2", "--bound", "4", "--timing",
    )
    assert code == 0
    assert "seconds:" in out


def test_json_seconds_null_without_timing(capsys, schema):
    _, payload = run_json(
        capsys, schema, "ramsey", "glr", "--q", "2", "--k", "1", "--n", "2",
        "--s", "2", "--bound", "4",
    )
    assert payload["seconds"] is None


# ----- error mapping -----

def run_err(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("galvin", "space=matrix;q=2\nq=2;1\n", "max_cols"),
        ("reduce", "space=partition\nk=1;s=2\n({0}):0\n", "max_domain"),
        ("reduce", "space=ellentuck;ground=3\ns=2\n{0}:0\n", "k"),
        ("reduce", "space=ellentuck;ground=3\nk=1\n{0}:0\n", "s"),
    ],
)
def test_header_and_meta_errors_exit_2(tmp_path, capsys, command, text, key):
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--family" if command == "galvin" else "--coloring"
    code, err = run_err(capsys, command, flag, str(path))
    assert code == 2
    assert repr(key) in err
    assert "Traceback" not in err


def test_matrix_digit_not_below_q_exits_2(capsys):
    # 4 is not a GF(3) digit; the literal must not be read as q=3;110.
    code, err = run_err(
        capsys, "galvin", "--space", "matrix", "--q", "3", "--max-cols", "3",
        "--member", "q=3;140", "--length-bound", "1",
    )
    assert code == 2
    assert "q=3;140" in err
    assert "Traceback" not in err


def test_non_canonical_member_exits_2(capsys):
    # {0, 2} names {0,2} but is not its canonical text.
    code, err = run_err(
        capsys, "galvin", "--space", "ellentuck", "--ground", "8",
        "--member", "{0, 2}", "--length-bound", "2",
    )
    assert code == 2
    assert err == "error: non-canonical literal '{0, 2}'; write '{0,2}'\n"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_ceiling_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv(cli.ENV_CEILING, value)
    code, err = run_err(
        capsys, "ramsey", "classical", "--k", "2", "--n", "3", "--s", "2",
        "--bound", "8",
    )
    assert code == 2
    assert cli.ENV_CEILING in err


@pytest.mark.parametrize(
    "flags", [("--s", "0"), ("--mode", "backtracking", "--node-budget", "-1")]
)
def test_bad_search_numbers_exit_2(capsys, flags):
    code, err = run_err(
        capsys, "ramsey", "classical", "--k", "2", "--n", "3", "--s", "2",
        "--bound", "8", *flags,
    )
    assert code == 2
    assert err.startswith("error: need ")


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(space, bounds):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "audit_axioms", broken)
    code, err = run_err(capsys, "audit", "--space", "ellentuck", "--ground", "4")
    assert code == cli.EXIT_INTERNAL
    assert err == "internal error: KeyError: 'boom'\n"


# ----- default ambient stems -----

@pytest.mark.parametrize(
    "space, stem, k",
    [
        (matrix_space(2, 3), matrix_space(2, 3).full_stem(), 1),
        (partition_space(4), partition_space(4).full_stem(), 2),
    ],
    ids=["matrix", "partition"],
)
def test_reduce_defaults_to_the_full_stem(tmp_path, capsys, space, stem, k):
    path = tmp_path / "coloring.txt"
    items = [a for a in space.fin_below(stem.top) if a.length == k]
    lines = [space.params_str(), f"k={k};s=2"]
    lines += [f"{space.serialize(a)}:{i % 2}" for i, a in enumerate(items)]
    path.write_text("\n".join(lines) + "\n")
    argv = ["reduce", "--coloring", str(path), "--format", "json"]
    code, default = run(capsys, *argv)
    assert code == 0
    _, explicit = run(capsys, *argv, "--stem", stem.serialize())
    assert default == explicit
