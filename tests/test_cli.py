import itertools
import json
import time

import jsonschema
import pytest

from ramspace import cli, forcing, matrix_space, partition_space, ramsey
from ramspace.audit import AxiomCheck, AxiomReport
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


def test_audit_json_bounds_are_the_five_settings(capsys, schema):
    _, payload = run_json(
        capsys, schema, "audit", "--space", "ellentuck", "--ground", "4",
        "--depth", "3", "--max-len", "1", "--a6",
    )
    assert payload["parameters"]["bounds"] == {
        "max_len": 1,
        "max_depth": 3,
        "include_a6": True,
        "transitivity_cap": 100_000,
        "amalgamation_cap": 800,
    }


def test_audit_usage_error(capsys):
    code, _ = run(capsys, "audit", "--space", "ellentuck", "--ground", "0")
    assert code == 2


def test_audit_missing_param(capsys):
    code, _ = run(capsys, "audit", "--space", "ellentuck")
    assert code == 2


def test_audit_refusal(capsys):
    code, _ = run(capsys, "audit", "--space", "ellentuck", "--ground", "25")
    assert code == 4


def _identity_reducts(q, cols):
    """The reducts of the `cols`-column identity top over GF(q):
    1 + sum over c of (G_c - 1), G_c the number of subspaces of
    GF(q)^c.  The count sums q-Pascal rows, not the package's Galois
    recurrence."""
    row, count = [1], 1
    for c in range(1, cols + 1):
        row = [1, *(row[k - 1] + q**k * row[k] for k in range(1, c)), 1]
        count += sum(row) - 1
    return count


def test_audit_refuses_a_200_column_matrix_space(capsys):
    count = _identity_reducts(2, 200)
    code = cli.main(["audit", "--space", "matrix", "--q", "2", "--max-cols", "200"])
    assert (code, *capsys.readouterr()) == (4, "", (
        "refused: audit universe for space=matrix;q=2;max_cols=200 too large "
        f"(estimated {count} > ceiling 16384)\n"
    ))


def test_audit_counterexample_exit(capsys, monkeypatch):
    # exit-code mapping for a failing report (real spaces all pass)
    report = AxiomReport("space=test")
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


def test_galvin_wide_matrix_search_is_pinned(capsys, schema):
    # Six columns, past the five that the all-pairs child-list oracle
    # tests reach: a change to a child list or to the walk shows in
    # `walk_nodes` or the certificate.
    code, payload = run_json(
        capsys, schema, "galvin", "--space", "matrix", "--q", "2",
        "--max-cols", "6", "--member", "q=2;1",
    )
    ambient = "q=2;100000;010000;001000;000100;000010;000001"
    stem = "q=2;010000;001000;000100;000010;000001"
    assert code == 0
    assert payload == {
        "certificates": {
            "dichotomy": "galvin-certificate v1\nspace=matrix;q=2;max_cols=6\n"
            f"family=q=2;1\nlength_bound=1\nambient={ambient}\noutcome=ALT1\n"
            f"stem={stem}\nchecked=1\n"
        },
        "command": "galvin",
        "exit_code": 0,
        "outcome": "alt1",
        "parameters": {
            "ambient": ambient,
            "family": "q=2;1",
            "length_bound": 1,
            "space": "space=matrix;q=2;max_cols=6",
        },
        "seconds": None,
        "stats": {"reducts_scanned": 2, "walk_nodes": 5},
        "stem": stem,
    }


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


def test_galvin_refusal_without_greedy(capsys):
    # Partitions have no greedy exclusion, so an over-ceiling search
    # refuses with its estimate: the 279 reducts of the domain-6 stem.
    code = cli.main([
        "galvin", "--space", "partition", "--domain", "6",
        "--member", "({0},{1})", "--max-reducts", "3",
    ])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "refused: reduct sweep too large (estimated 279 > ceiling 3)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--space", "matrix", "--q", "2", "--max-cols", "8"],
        ["--space", "partition", "--domain", "6", "--max-reducts", "3"],
        ["--space", "matrix", "--q", "2", "--max-cols", "8", "--member", "q=2;1",
         "--stem", "q=2;01", "--max-reducts", "1"],
    ],
    ids=["matrix-no-members", "partition-no-members", "matrix-member-off-stem"],
)
def test_galvin_over_the_ceiling_with_no_member_below_answers(capsys, schema, argv):
    # No member lies below the ambient stem, so no greedy edit is needed:
    # the ambient is the alternative-1 stem on every space.
    code, payload = run_json(capsys, schema, "galvin", *argv)
    assert code == 0 and payload["outcome"] == "alt1"
    assert payload["stem"] == payload["parameters"]["ambient"]
    assert forcing.verify_dichotomy(payload["certificates"]["dichotomy"])


def _one_gigabyte_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args, refusal",
    [
        (["--space", "ellentuck", "--ground", "400", "--member", "{0}"], None),
        (["--space", "ellentuck", "--ground", "3000", "--member", "{0}"], None),
        (["--space", "matrix", "--q", "2", "--max-cols", "8", "--member", "q=2;1"],
         "refused: reduct sweep too large (estimated 449693 > ceiling 65536)\n"),
        (["--space", "matrix", "--q", "2", "--max-cols", "20", "--member", "q=2;1"],
         "refused: reduct sweep too large (estimated "
         "9334239813471146416714589768591 > ceiling 65536)\n"),
        (["--space", "matrix", "--q", "2", "--max-cols", "200", "--member", "q=2;1"],
         "refused: reduct sweep too large (estimated "
         f"{_identity_reducts(2, 200)} > ceiling 65536)\n"),
        (["--space", "matrix", "--q", "7", "--max-cols", "9", "--member", "q=7;1"],
         "refused: reduct sweep too large (estimated "
         "194636871263068140 > ceiling 65536)\n"),
        # Past the interpreter's 4,300-digit limit the count is bracketed
        # by its leading power of two.
        (["--space", "matrix", "--q", "7", "--max-cols", "200", "--member", "q=7;1"],
         "refused: reduct sweep too large (estimated over "
         f"2^{_identity_reducts(7, 200).bit_length() - 1} > ceiling 65536)\n"),
        (["--space", "partition", "--domain", "10", "--member", "({0},{1})"],
         "refused: reduct sweep too large (estimated 142418 > ceiling 65536)\n"),
        (["--space", "partition", "--domain", "40", "--member", "({0},{1})"],
         "refused: reduct sweep too large (estimated "
         "168992694259134874599518802213062420 > ceiling 65536)\n"),
    ],
    ids=["ellentuck-400", "ellentuck-3000", "matrix-2-8", "matrix-2-20", "matrix-2-200",
         "matrix-7-9", "matrix-7-200", "partition-10", "partition-40"],
)
def test_wide_galvin_searches_answer_before_sweeping(args, refusal):
    # The reducts of each ambient stem number far past the ceiling
    # (2^3000 at ground 3000).  The search counts them before it builds
    # any, so each row answers within a 1 GB address space and 30 s:
    # ellentuck by greedy exclusion, the others by refusing with the
    # exact count.  One child process per row holds the limit.  Only
    # the first question, whether every chain below the ambient meets
    # the family, comes before the count: at domain 40 its walk reads
    # the first 3 of the 2^38 children of ({0}), and on a wide matrix
    # top only the first child of the empty matrix.
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ramspace.cli", "galvin", *args, "--format", "json"],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_one_gigabyte_address_space,
    )
    if refusal is None:
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["outcome"] == "alt1"
        assert forcing.verify_dichotomy(payload["certificates"]["dichotomy"])
    else:
        assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", refusal)


# Runs the CLI in a child and reports, last on stderr, the child's
# `ru_maxrss` in kB from `os.wait4`.  A process keeps the peak RSS of
# the one it was forked from, so the child is forked from this small
# launcher, not from the test process.
_CLI_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "ramspace.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_wide_matrix_search_reads_its_reducts_by_length():
    # The q=3 six-column stem has 59,539 reducts and stage 1 stops at
    # the second it reads.  Stage 1 and the alternative-1 scan read
    # them one length group at a time, so the search stays under 36 MB;
    # building and sorting the whole list took it to about 51 MB.
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PEAK_RSS, "galvin", "--space", "matrix",
         "--q", "3", "--max-cols", "6", "--member", "q=3;1", "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["outcome"] == "alt1"
    assert forcing.verify_dichotomy(payload["certificates"]["dichotomy"])
    peak_kb = int(proc.stderr.split()[-1])
    assert peak_kb <= 36 * 1024, peak_kb


@pytest.mark.parametrize(
    "space_args, space, members, ambient, stem, stats",
    [
        (
            ["--space", "ellentuck", "--ground", "16"],
            "space=ellentuck;ground=16",
            ["{1,2}", "{3,4}"],
            "{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}",
            "{0,1,3,5,6,7,8,9,10,11,12,13,14,15}",
            {"reducts_scanned": 2, "walk_nodes": 6},
        ),
        (
            ["--space", "partition", "--domain", "9"],
            "space=partition;max_domain=9",
            ["({0},{1})"],
            "({0},{1},{2},{3},{4},{5},{6},{7},{8})",
            "({0,1},{2},{3},{4},{5},{6},{7},{8})",
            {"reducts_scanned": 3, "walk_nodes": 8},
        ),
    ],
    ids=["ellentuck-16", "partition-9"],
)
def test_galvin_stops_at_a_short_rejecting_reduct(
    capsys, schema, space_args, space, members, ambient, stem, stats
):
    # Stage 1 asks the reducts shortest first, so it meets a short
    # rejecting reduct before it walks below any long one: a handful of
    # walk nodes, where asking longest first walked 196,590 (ellentuck
    # 16) and 74,031 (partition 9).
    code, payload = run_json(
        capsys, schema, "galvin", *space_args,
        *itertools.chain.from_iterable(("--member", m) for m in members),
    )
    certificate = (
        f"galvin-certificate v1\n{space}\nfamily={'|'.join(members)}\n"
        f"length_bound=2\nambient={ambient}\noutcome=ALT1\nstem={stem}\n"
        f"checked={len(members)}\n"
    )
    assert code == 0
    assert payload == {
        "certificates": {"dichotomy": certificate},
        "command": "galvin",
        "exit_code": 0,
        "outcome": "alt1",
        "parameters": {
            "ambient": ambient,
            "family": "|".join(members),
            "length_bound": 2,
            "space": space,
        },
        "seconds": None,
        "stats": stats,
        "stem": stem,
    }
    assert forcing.verify_dichotomy(certificate)


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


@pytest.mark.parametrize("q", ["0", "1", "4", "9"])
@pytest.mark.parametrize(
    "variant", [["glr"], ["witness", "--space", "matrix"]], ids=["glr", "witness"]
)
def test_ramsey_q_outside_the_supported_fields_exits_2(capsys, variant, q):
    # The refusal `galvin` and `audit` give: GF(0) is not read as GF(2),
    # and a composite or unit q is refused by the space, not by gflinalg.
    code = cli.main([
        "ramsey", *variant, "--q", q, "--k", "1", "--n", "2", "--s", "2", "--bound", "3",
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: q must be one of (2, 3, 5, 7), got {q}\n"


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


def test_ramsey_ceiling_refusal(capsys):
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


def test_unwritable_output_exits_2_before_the_work(tmp_path, capsys, monkeypatch):
    # --output is opened before the command runs: a path in a missing
    # directory exits 2 without calling the command at all.
    key = ("ramsey", "glr")
    calls = []
    _, options = cli._COMMANDS[key]
    monkeypatch.setitem(cli._COMMANDS, key, (lambda args: calls.append(args), options))
    code = cli.main([
        "ramsey", "glr", "--q", "3", "--k", "1", "--n", "2", "--s", "2",
        "--bound", "4", "--mode", "backtracking",
        "--output", str(tmp_path / "missing" / "x.json"),
    ])
    assert code == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")


def test_failing_command_leaves_its_output_as_it_was(tmp_path, capsys):
    # --output is opened for append before the command runs: a command
    # that fails leaves an existing file as it was and a new one empty.
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("an earlier result\n")
    for path in (kept, new):
        code = cli.main([
            "galvin", "--space", "ellentuck", "--ground", "4", "--member", "{9}",
            "--output", str(path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert kept.read_text() == "an earlier result\n"
    assert new.read_text() == ""


def _envelope_argv(tmp_path, command):
    """One small job per command; the `ramsey` one exits 1."""
    if command == "audit":
        return ["audit", "--space", "ellentuck", "--ground", "4", "--depth", "3"]
    if command == "galvin":
        return ["galvin", "--space", "ellentuck", "--ground", "6", "--member", "{0,1}"]
    if command == "reduce":
        return ["reduce", "--coloring", str(_write_parity_coloring(tmp_path))]
    return [
        "ramsey", "classical", "--k", "2", "--n", "3", "--s", "2", "--bound", "8",
        "--mode", "backtracking", "--node-budget", "5",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, exit_code", [("audit", 0), ("galvin", 0), ("reduce", 0), ("ramsey", 1)]
)
def test_every_command_writes_one_envelope(tmp_path, capsys, schema, command, exit_code, fmt):
    argv = [*_envelope_argv(tmp_path, command), "--format", fmt]
    assert cli.main(argv) == exit_code
    stdout = capsys.readouterr().out
    # --output gets the bytes stdout would get, and stdout stays empty.
    out_path = tmp_path / "result.out"
    assert cli.main([*argv, "--output", str(out_path)]) == exit_code
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == stdout.encode()
    # --timing adds the wall time and changes nothing else.
    assert cli.main([*argv, "--timing"]) == exit_code
    timed = capsys.readouterr().out
    if fmt == "text":
        *rest, last = timed.splitlines()
        assert rest == stdout.splitlines()
        assert last.startswith("seconds: ")
        float(last.removeprefix("seconds: "))
        return
    payload, timed = json.loads(stdout), json.loads(timed)
    for got in (payload, timed):
        jsonschema.validate(got, schema)
    assert (payload["command"], payload["exit_code"]) == (command, exit_code)
    assert payload["seconds"] is None
    seconds = timed.pop("seconds")
    assert type(seconds) in (int, float) and seconds >= 0
    assert dict(timed, seconds=None) == payload


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


@pytest.mark.parametrize(
    "command, text, stem, err",
    [
        # Every color is checked, not only those below the ambient stem.
        (
            "reduce", "space=ellentuck;ground=3\nk=1;s=2\n{0}:0\n{1}:1\n{2}:5\n",
            ["--stem", "{0,1}"], "error: color 5 out of range for s=2\n",
        ),
        (
            "reduce", "space=ellentuck;ground=3\nk=1;s=2\n{0}:0\n{0}:1\n",
            [], "error: coloring lists {0} twice\n",
        ),
        (
            "galvin", "space=ellentuck;ground=3\nlength_bound=x\n{0}\n",
            [], "error: the family file needs an integer 'length_bound'\n",
        ),
        (
            "reduce", "space=ellentuck;ground=3\nk=1;s=2\n{0}:x\n",
            [], "error: coloring line '{0}:x' needs an integer 'color'\n",
        ),
        (
            "reduce", "space=ellentuck;ground=3\nk=1;s=2\n{0}:0\n{1}:1\n{2}:0\n{0,1}:1\n",
            [], "error: coloring line '{0,1}:1' has length 2, not k=1\n",
        ),
    ],
    ids=[
        "color-out-of-range", "approximation-twice", "length-bound",
        "color-not-an-integer", "length-not-k",
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, command, text, stem, err):
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--family" if command == "galvin" else "--coloring"
    assert run_err(capsys, command, flag, str(path), *stem) == (2, err)


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
