"""Command-line surface: exit codes, formats, determinism."""

import json

from btb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "1", "--word", "")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "invariant", "--strands", "1", "--word", "r")
    assert code == 0 and out.strip() == "y"
    code, out, _ = run(capsys, "invariant", "--strands", "2", "--word", "s1")
    assert code == 0 and out.strip() == "1"


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "1", "--word", "r", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pretty"] == "y" and obj["s_parity"] == 0


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", "--strands", "2", "--word", "s1 r")
    assert code == 0 and out.strip() == "y z"


def test_compare_equal_and_distinct(capsys):
    code, out, _ = run(capsys, "compare", "--strands-a", "3", "--word-a", "s1 s2",
                       "--strands-b", "3", "--word-b", "s2 s1")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "compare", "--strands-a", "1", "--word-a", "",
                       "--strands-b", "2", "--word-b", "s1")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "compare", "--strands-a", "1", "--word-a", "",
                       "--strands-b", "1", "--word-b", "r")
    assert code == 1 and out.strip() == "distinct"


def test_compare_conjugates_on_many_strands(capsys):
    # equal strand counts share every z and L power, which cancel unexpanded
    code, out, _ = run(capsys, "compare", "--strands-a", "1000", "--word-a", "r s1 s2 s1'",
                       "--strands-b", "1000", "--word-b", "s1' r s1 s2")
    assert code == 0 and out.strip() == "equal"


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "invariant", "--strands", "2", "--word", "s5")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "invariant", "--strands", "2", "--word", "zz")
    assert code == 2
    code, _, _ = run(capsys, "bogus-command")
    assert code == 2


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--n", "1")
    assert code == 0 and "4" in out
    code, out, _ = run(capsys, "dims", "--n", "2")
    assert code == 0
    lines = dict(line.split(":") for line in out.strip().splitlines())
    assert int(lines["formula  "].strip()) == int(lines["enumerated"].strip()) == 40


def test_selfcheck_quick_and_determinism(capsys):
    code, out1, _ = run(capsys, "selfcheck", "--level", "quick", "--seed", "5", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "selfcheck", "--level", "quick", "--seed", "5", "--format", "json")
    assert code == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["failures"] == 0


def test_selfcheck_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("BTB_SEED", "9")
    code, out, _ = run(capsys, "selfcheck", "--level", "quick", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 9
