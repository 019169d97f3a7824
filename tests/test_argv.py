"""The command line's argv reader, `cli.read_argv`, against the argparse
parser it replaced (`argv_oracle.build_parser`).

Valid argv must give equal namespaces, and bad argv must exit 2 in both.
The argv corpus is every README example, every argv form of the
benchmark's task lists, and the spellings the grammar allows: `--no-json`,
`--opt=value` and options before positionals.  The intended differences
(decimal integers only, exact option names) are pinned as their own
cases."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from birkhoffsym import cli
from birkhoffsym.cli import COMMANDS, read_argv

from argv_oracle import build_parser, readme_examples

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def bench_argv_forms(directory: Path) -> list[list[str]]:
    """The argv of every command-line task in one draw of each benchmark
    workload, its input files written under `directory`."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [task["argv"] for workload in inputs.WORKLOADS
            for task in inputs.write_workload(workload, 1,
                                              directory / workload)
            if task["kind"] == "cli"]


SPELLINGS = [
    ["verify-table", "3", "--no-json"],
    ["verify-table", "--no-json", "3"],
    ["verify-table", "3", "--no-json", "--json"],
    ["verify-table", "--json", "3", "--no-json"],
    ["verify-table", "-3"],
    ["decompose", "3", "--identity"],
    ["decompose", "--identity", "3"],
    ["decompose", "--identity", "4", "-"],
    ["normalizer", "--group=other.txt"],
    ["wreath", "--group", "a", "--group", "-"],
    ["regular-pairs", "--group="],
    ["cd-lattice", "--group=s4"],
    ["sn-cent-est", "-1"],
    ["verify-transform", "007"],
    ["uniqueness", "9" * 400],
    ["wreath", "--no-json", "--group", "q8"],
    ["hull", "--no-json", "square.json"],
    ["rep-polytope", "--group=c4"],
]

BAD = [
    [],
    ["no-such-command"],
    ["--json", "verify-table", "3"],
    ["verify-table"],
    ["verify-table", "3", "4"],
    ["decompose", "3", "a", "b"],
    ["hull"],
    ["verify-table", "three"],
    ["verify-table", "3.0"],
    ["verify-table", ""],
    ["cd-lattice", "--group", "s4", "--bound", "x"],
    ["cd-lattice", "--group", "s4", "--bound=1e3"],
    ["verify-table", "3", "--verbose"],
    ["verify-table", "3", "-x"],
    ["wreath", "--group", "s3", "--bound", "5"],
    ["wreath", "--group"],
    ["cd-lattice", "--group", "s4", "--bound"],
    ["decompose", "3", "--alpha", "--identity"],
    ["wreath", "--group", "--no-json"],
    ["wreath"],
    ["cd-lattice", "--bound", "24"],
    ["rep-polytope", "--no-json"],
    ["wreath", "--json=yes", "--group", "s3"],
]

# argparse reads these; the reader refuses them: integers are decimal
# literals, and options are named in full
DIFFERENCES = [
    ["verify-table", "+3"],
    ["verify-table", "0_3"],
    ["verify-table", "３"],
    ["verify-table", " 3 "],
    ["wreath", "--gro", "s3"],
    ["decompose", "3", "--iden"],
]


def oracle_exit(argv) -> int:
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def reader_exit(argv) -> int:
    try:
        read_argv(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def assert_same_namespace(argv):
    assert vars(read_argv(argv)) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", readme_examples() + SPELLINGS, ids=" ".join)
def test_valid_argv_reads_as_argparse_read_it(argv):
    assert_same_namespace(argv)


def test_bench_argv_forms_read_as_argparse_read_them(tmp_path):
    forms = bench_argv_forms(tmp_path)
    assert {argv[0] for argv in forms} == set(COMMANDS) - {"uniqueness"}
    for argv in forms:
        assert_same_namespace(argv)


@pytest.mark.parametrize("argv", BAD, ids=" ".join)
def test_bad_argv_exits_2_in_both(argv, capsys):
    assert oracle_exit(argv) == 2
    capsys.readouterr()
    assert reader_exit(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: birkhoffsym")
    assert error.startswith("birkhoffsym: error: ")


@pytest.mark.parametrize("argv", DIFFERENCES, ids=" ".join)
def test_intended_differences_exit_2(argv, capsys):
    assert oracle_exit(argv) == 0
    assert reader_exit(argv) == 2
    assert "birkhoffsym: error: " in capsys.readouterr().err


def test_usage_errors_name_the_argument(capsys):
    cases = {
        ("verify-table", "+3"): "argument n: not an integer: '+3'",
        ("uniqueness", "007x"): "argument n: not an integer: '007x'",
        ("cd-lattice",): "the following arguments are required: --group",
        ("decompose",): "the following arguments are required: n",
        ("wreath", "--group"): "argument --group: expected one argument",
        ("decompose", "3", "--identity=1"):
            "argument --identity: takes no value",
        ("wreath", "--gro", "s3"): "unrecognized arguments: --gro",
    }
    for argv, reason in cases.items():
        assert reader_exit(list(argv)) == 2
        assert capsys.readouterr().err.splitlines()[1] == \
            f"birkhoffsym: error: {reason}"


def test_usage_line_lists_the_arguments(capsys):
    assert reader_exit(["decompose"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == (
        "usage: birkhoffsym decompose [-h] [--json | --no-json] "
        "[--identity] n [alpha-file]")
    assert reader_exit(["cd-lattice"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == (
        "usage: birkhoffsym cd-lattice [-h] [--json | --no-json] "
        "--group GROUP")


def test_dropped_options_are_unrecognized(capsys):
    # the table's ceiling bounds cd-lattice's group, and decompose reads
    # its alpha file from the positional argument alone
    for argv in (["cd-lattice", "--group", "s4", "--bound", "24"],
                 ["decompose", "3", "f", "--alpha", "g"]):
        assert oracle_exit(argv) == 2
        capsys.readouterr()
        assert reader_exit(argv) == 2
        assert capsys.readouterr().err.splitlines()[1] == (
            f"birkhoffsym: error: unrecognized arguments: {argv[-2]}")


def test_help_prints_to_stdout_and_exits_0(capsys):
    for argv in (["-h"], ["--help"]):
        assert reader_exit(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for name, spec in COMMANDS.items():
            assert f"  {name}" in out and spec.help in out
    for argv in (["decompose", "-h"], ["cd-lattice", "--group", "s4", "--help"],
                 ["verify-table", "--help", "x"]):
        assert reader_exit(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: birkhoffsym {argv[0]} ")


def test_handler_is_read_off_the_module(monkeypatch):
    # a wrapper rebound on the module, as a tracer installs it, is called
    original = cli._cmd_verify_table

    def wrapped(args):
        return original(args)

    monkeypatch.setattr(cli, "_cmd_verify_table", wrapped)
    assert read_argv(["verify-table", "3"]).handler is wrapped
    monkeypatch.setattr(cli, "_cmd_verify_table", original)
    assert read_argv(["verify-table", "3"]).handler is original


def test_readme_examples_read_without_usage_error():
    # the README's command-line block and COMMANDS cannot drift apart
    examples = readme_examples()
    assert {argv[0] for argv in examples} == set(COMMANDS)
    for argv in examples:
        assert reader_exit(argv) == 0, argv


def test_help_runs_from_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "birkhoffsym.cli", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: birkhoffsym")
