from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from relac.cli import main


@pytest.fixture
def course_files(tmp_path):
    files = {
        "model": helpers.COURSE_MODEL,
        "graph": helpers.COURSE_GRAPH,
        "policy": helpers.COURSE_POLICY,
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def common(paths, *extra):
    return ["--model", paths["model"], "--graph", paths["graph"], "--policy", paths["policy"], *extra]


@pytest.fixture
def wall_files(tmp_path):
    (tmp_path / "model.txt").write_text(helpers.WALL_MODEL)
    (tmp_path / "graph.txt").write_text(helpers.WALL_GRAPH)
    (tmp_path / "policy.txt").write_text(helpers.WALL_POLICY)
    (tmp_path / "requests.txt").write_text(
        "\n".join(" ".join(q) for q in helpers.WALL_SEQUENCE) + "\n"
    )
    return {name: str(tmp_path / f"{name}.txt") for name in ("model", "graph", "policy", "requests")}


@pytest.fixture
def sod_files(tmp_path):
    model, graph, _ = helpers.sod_example()
    (tmp_path / "model.txt").write_text(helpers.SOD_MODEL)
    lines = [f"entity u{i} user" for i in (1, 2, 3)] + ["entity o doc"] + [
        f"edge u{i} o r" for i in (1, 2, 3)
    ]
    (tmp_path / "graph.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "policy.txt").write_text(
        "pmp set\nrule p : r ! none\nauth p o * allow\ncrs deny-overrides\n"
        "default system deny\nsod o a1 a2 a3\n"
    )
    (tmp_path / "requests.txt").write_text(
        "\n".join(" ".join(q) for q in helpers.SOD_SEQUENCE) + "\n"
    )
    return {name: str(tmp_path / f"{name}.txt") for name in ("model", "graph", "policy", "requests")}


README_WORKSPACE = {
    "model": "type user\ntype doc\nrel wrote\nperm user doc wrote\naction read\n",
    "graph": "entity u1 user\nentity d1 doc\nedge u1 d1 wrote\n",
    "policy": "pmp set\nrule owner : wrote ! none\nauth owner * read allow\n"
              "crs deny-overrides\ndefault system deny\n",
}


@pytest.fixture
def readme_files(tmp_path):
    """The minimal workspace shown in the README."""
    for name, text in README_WORKSPACE.items():
        (tmp_path / f"{name}.txt").write_text(text)
    return {name: str(tmp_path / f"{name}.txt") for name in README_WORKSPACE}


def source_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_relac(*argv: str) -> subprocess.CompletedProcess:
    """``relac`` in a fresh interpreter, as a shell would run it."""
    return subprocess.run(
        [sys.executable, "-m", "relac.cli", *argv],
        env=source_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


# --- validate --------------------------------------------------------------------

def test_validate_clean(course_files, capsys):
    assert main(["validate", *common(course_files)]) == 0
    assert "# ok" in capsys.readouterr().out


def test_validate_reports_schema_violation(course_files, tmp_path, capsys):
    bad = tmp_path / "bad-graph.txt"
    bad.write_text(helpers.COURSE_GRAPH + "edge a1 u1 is-enrolled-on\n")
    course_files["graph"] = str(bad)
    assert main(["validate", *common(course_files)]) == 1
    assert "permissible" in capsys.readouterr().err


def test_validate_notices_dag_fixup(course_files, tmp_path, capsys):
    policy = tmp_path / "dagpolicy.txt"
    policy.write_text(
        "pmp dag\nrule p1 : is-creator-of ! none\nrule p2 : all ! none\n"
        "auth p1 * read allow\ndefault system deny\n"
    )
    course_files["policy"] = str(policy)
    assert main(["validate", *common(course_files)]) == 0
    out = capsys.readouterr().out
    assert "notice" in out and "root" in out


def test_validate_missing_file(course_files, capsys):
    course_files["graph"] = course_files["graph"] + ".missing"
    assert main(["validate", *common(course_files)]) == 2


def assert_one_error_line(done: subprocess.CompletedProcess) -> None:
    """Exit 2, the error code, with one ``error:`` line and no traceback."""
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["validate", "batch"])
def test_graph_file_that_is_not_utf8_is_an_error(course_files, tmp_path, command):
    graph = Path(course_files["graph"])
    graph.write_bytes(graph.read_bytes() + b"\xff\xfe")
    requests = tmp_path / "requests.txt"
    requests.write_text("u1 a1 read\n")
    extra = [str(requests)] if command == "batch" else []
    done = run_relac(command, *common(course_files), *extra)
    assert_one_error_line(done)
    assert "utf-8" in done.stderr
    assert str(graph) in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("bad", ["model", "graph", "policy", "requests", "pairs"])
def test_input_that_is_not_utf8_is_named(course_files, tmp_path, capsys, bad):
    inputs = {**course_files,
              "requests": str(tmp_path / "requests.txt"), "pairs": str(tmp_path / "pairs.txt")}
    Path(inputs["requests"]).write_text("u1 a1 read\n")
    Path(inputs["pairs"]).write_text("u1 a1\n")
    path = Path(inputs[bad])
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    command = ["warm", inputs["pairs"]] if bad == "pairs" else ["batch", inputs["requests"]]
    assert main([command[0], *common(inputs), command[1]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "utf-8" in err
    assert len(err.splitlines()) == 1


def test_batch_requests_path_that_is_a_directory_is_an_error(course_files, tmp_path):
    done = run_relac("batch", *common(course_files), str(tmp_path))
    assert_one_error_line(done)
    assert str(tmp_path) in done.stderr
    assert done.stdout == ""


# --- eval ------------------------------------------------------------------------

def test_eval_allow_exit_zero(course_files, capsys):
    code = main(["eval", *common(course_files), "u1", "a2", "read"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "allow\tauthor\tauthorization"


def test_eval_deny_exit_one(course_files, capsys):
    code = main(["eval", *common(course_files), "u1", "a1", "read"])
    out = capsys.readouterr().out.strip()
    assert code == 1
    assert out == "deny\t-\tdefault-no-principals"


def test_eval_unknown_subject_exit_two(course_files, capsys):
    assert main(["eval", *common(course_files), "u9", "a1", "read"]) == 2
    assert "u9" in capsys.readouterr().err


def test_eval_trace_lines_prefixed(course_files, capsys):
    main(["eval", *common(course_files, "--trace"), "u1", "a3", "read"])
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("# ") for line in out)
    assert out[-1] == "allow\tcourse-ta\tauthorization"


def test_eval_commit_persists_history(course_files, capsys):
    main(["eval", *common(course_files, "--commit"), "u1", "a2", "read"])
    text = open(course_files["graph"]).read()
    assert "edge u1 a2 @allow:read" in text
    assert "epoch" in text
    # without --commit nothing is persisted
    main(["eval", *common(course_files), "u1", "a3", "read"])
    assert "@allow:grade" not in open(course_files["graph"]).read()


@pytest.mark.parametrize("action", ["read#x", "read x"])
def test_eval_commit_rejects_an_action_the_graph_file_cannot_carry(sod_files, action, capsys):
    """The model declares no actions, so any action is admissible, but an
    audit label with ``#`` or whitespace would not reload as written."""
    graph = Path(sod_files["graph"])
    before = graph.read_bytes()
    assert main(["eval", *common(sod_files, "--commit"), "u1", "o", action]) == 2
    assert "invalid action" in capsys.readouterr().err
    assert graph.read_bytes() == before
    assert main(["validate", *common(sod_files)]) == 0


def test_eval_target_opt_is_accepted_and_changes_nothing(readme_files, capsys):
    outputs = []
    for extra in ((), ("--target-opt",)):
        code = main(["eval", *common(readme_files, "--trace", *extra), "u1", "d1", "read"])
        assert code == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    assert outputs[1][-1] == "allow\towner\tauthorization"
    assert "# cache write" in outputs[1]


@pytest.mark.parametrize(
    "command", [["validate"], ["eval", "u1", "d1", "read"]], ids=["validate", "eval"]
)
def test_negative_cache_cap_is_a_usage_error(readme_files, command):
    done = run_relac(command[0], *common(readme_files, "--cache-cap", "-1"), *command[1:])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "--cache-cap" in done.stderr


# --- batch -----------------------------------------------------------------------

def test_batch_sod_golden(sod_files, capsys):
    code = main(["batch", *common(sod_files), sod_files["requests"]])
    out = capsys.readouterr().out
    decisions = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
    assert decisions == helpers.SOD_DECISIONS
    assert code == 0
    assert "# summary requests=6 allow=3 deny=3" in out


def test_batch_wall_golden(wall_files, capsys):
    main(["batch", *common(wall_files), wall_files["requests"]])
    out = capsys.readouterr().out
    decisions = [line.split("\t")[1] for line in out.splitlines() if "\t" in line]
    assert decisions == helpers.WALL_DECISIONS


def test_batch_deterministic_output(course_files, tmp_path, capsys):
    requests = tmp_path / "requests.txt"
    requests.write_text("u1 a1 read\nu1 a2 read\nu1 a3 read\nu1 a3 grade\n")
    main(["batch", *common(course_files), str(requests)])
    first = capsys.readouterr().out
    main(["batch", *common(course_files), str(requests)])
    second = capsys.readouterr().out
    assert first == second
    assert "cache-hits=1" in first


def test_batch_reports_line_errors_and_continues(course_files, tmp_path, capsys):
    requests = tmp_path / "requests.txt"
    requests.write_text("u1 a2 read\nu9 a1 read\nu2 a1 read\n")
    code = main(["batch", *common(course_files), str(requests)])
    captured = capsys.readouterr()
    assert code == 2
    assert "errors=1" in captured.out
    decisions = [l.split("\t")[1] for l in captured.out.splitlines() if "\t" in l and not l.startswith("#")]
    assert decisions == ["allow", "error", "allow"]


def test_batch_empty_file(course_files, tmp_path, capsys):
    requests = tmp_path / "requests.txt"
    requests.write_text("")
    assert main(["batch", *common(course_files), str(requests)]) == 0
    assert "requests=0" in capsys.readouterr().out


def test_batch_no_cache_flag(course_files, tmp_path, capsys):
    requests = tmp_path / "requests.txt"
    requests.write_text("u1 a3 read\nu1 a3 grade\n")
    main(["batch", *common(course_files, "--no-cache"), str(requests)])
    assert "cache-hits=0" in capsys.readouterr().out


# --- warm ------------------------------------------------------------------------

def test_warm_counts_and_idempotence(course_files, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("u1 a3\nu1 a3\n")
    assert main(["warm", *common(course_files), str(pairs)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_warm_commit_feeds_later_batch(course_files, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("u1 a3\n")
    main(["warm", *common(course_files, "--commit"), str(pairs)])
    capsys.readouterr()
    requests = tmp_path / "requests.txt"
    requests.write_text("u1 a3 grade\n")
    main(["batch", *common(course_files), str(requests)])
    out = capsys.readouterr().out
    assert "cache-hits=1" in out
    assert "principal-computations=0" in out


def test_warmed_cache_does_not_outlive_a_policy_edit(readme_files, tmp_path, capsys):
    """Warming twice under one policy writes the caching edge once; after
    the principal-matching rule changes, the committed caching edge is not
    used: the request is decided as without the cache."""
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("u1 d1\n")
    for written in ("1", "0"):
        assert main(["warm", *common(readme_files, "--commit"), str(pairs)]) == 0
        assert capsys.readouterr().out == f"{written}\n"
    policy = Path(readme_files["policy"])
    policy.write_text(policy.read_text().replace("rule owner : wrote", "rule owner : ~wrote"))
    for extra in ((), ("--no-cache",)):
        assert main(["eval", *common(readme_files, *extra), "u1", "d1", "read"]) == 1
        assert capsys.readouterr().out == "deny\t-\tdefault-no-principals\n"


def test_warm_reports_bad_pairs(course_files, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("u1 ghost\n")
    assert main(["warm", *common(course_files), str(pairs)]) == 2


def test_import_does_not_load_numpy():
    # numpy is a test-only dependency: the package must import without it.
    subprocess.run(
        [sys.executable, "-c", "import relac, sys; assert 'numpy' not in sys.modules"],
        env=source_env(),
        check=True,
        timeout=60,
    )


GOLDEN = Path(__file__).parent / "golden" / "cw_sod"


def check_golden_batch(tmp_path, capsys, graph: str, out: str, committed: str) -> None:
    """``batch --commit`` of the golden requests on ``graph`` prints
    ``out`` and commits ``committed``. Only the summary's product-visits
    count is left out: it depends on set iteration order."""
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("model", "graph", "policy", "requests")}
    for name in ("model", "policy", "requests"):
        Path(paths[name]).write_text((GOLDEN / f"{name}.txt").read_text())
    Path(paths["graph"]).write_text((GOLDEN / graph).read_text())
    code = main(["batch", *common(paths), "--commit", paths["requests"]])
    assert code == 0

    def visits_dropped(text: str) -> list[str]:
        return [re.sub(r" product-visits=\d+$", "", line) for line in text.splitlines()]

    expected = (GOLDEN / out).read_text()
    assert visits_dropped(capsys.readouterr().out) == visits_dropped(expected)
    assert Path(paths["graph"]).read_bytes() == (GOLDEN / committed).read_bytes()


def test_batch_commit_golden_wall_and_sod_workspace(tmp_path, capsys):
    """``batch --commit`` on a small Chinese Wall plus separation-of-duty
    workspace (two files each belong to two companies, rivals in one case)
    reproduces the recorded decisions and committed graph file."""
    check_golden_batch(tmp_path, capsys, "graph.txt", "expected-out.txt", "expected-graph.txt")


def test_batch_commit_golden_second_round(tmp_path, capsys):
    """The same requests again on the committed graph, which has history
    and cache lines, so the loader's history-edge and cache-line paths feed
    the recorded decisions and the second committed file."""
    check_golden_batch(
        tmp_path, capsys, "expected-graph.txt", "expected-out-round2.txt", "expected-graph-round2.txt"
    )
