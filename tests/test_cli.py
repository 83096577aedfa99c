import argparse
import itertools
import json
import re
import sys

import pytest

from seidelspectra import cli
from seidelspectra.cli import main, run
from seidelspectra.verify import DENSE_N_MAX, N_MAX

CSV_HEADER = "h,p,k,n,exact_match,max_dev,elapsed_ms"


def test_spectrum_human_output(capsys):
    code = main(["spectrum", "--h", "3", "--p", "1", "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h=3 p=1 k=2 n=4"
    assert lines[1] == "eigenvalues:"
    assert "  2.2360679775  x1" in lines
    assert "  1  x1" in lines
    assert "  -1  x1" in lines
    assert "  -2.2360679775  x1" in lines
    assert lines[-1] == "cubic coefficients (ascending): [5, 5, -1, -1]"


def test_spectrum_json_output(capsys):
    code = main(["spectrum", "--h", "2", "--p", "1", "--k", "3",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h"] == 2 and payload["p"] == 1 and payload["k"] == 3
    assert payload["n"] == 4
    assert payload["eigenvalues"] == [
        {"value": 3, "multiplicity": 1},
        {"value": -1, "multiplicity": 3},
    ]
    assert payload["cubic"] == [3, 5, 1, -1]


def test_invalid_params_exit_code(capsys):
    code = main(["spectrum", "--h", "3", "--p", "4", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "p must satisfy 1 <= p <= h" in captured.err


def test_degenerate_family_exit_code(capsys):
    code = main(["charpoly", "--h", "3", "--p", "1", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "factored form needs k >= 2" in captured.err


def test_charpoly_human_expanded(capsys):
    code = main(["charpoly", "--h", "3", "--p", "1", "--k", "2", "--expanded"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(1 - x)^1 * (-x^3 - x^2 + 5*x + 5)"
    assert lines[1] == "degree: 4"
    assert lines[2] == "coefficients (ascending): [5, 0, -6, 0, 1]"


def test_charpoly_star_factorization(capsys):
    code = main(["charpoly", "--h", "2", "--p", "1", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "(-1 - x)^1 * (-x^3 + x^2 + 5*x + 3)"


def test_charpoly_json(capsys):
    code = main(["charpoly", "--h", "2", "--p", "1", "--k", "3",
                 "--expanded", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 4
    assert payload["factors"] == [
        {"root": -1, "exponent": 1},
        {"root": 1, "exponent": 0},
    ]
    assert payload["cubic"] == [3, 5, 1, -1]
    assert payload["coefficients"] == [-3, -8, -6, 0, 1]


def test_verify_human_passes(capsys):
    code = main(["verify", "--h", "2", "--p", "1", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "charpoly exact match: yes" in out
    assert "  -1  x3" in out
    assert "max numeric deviation:" in out
    assert "invariants: trace_zero=pass sum_squares=pass degree=pass vieta_trace=pass" in out
    assert "notes:" in out


def test_verify_json_payload(capsys):
    code = main(["verify", "--h", "3", "--p", "1", "--k", "2",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["charpoly_exact_match"] is True
    assert payload["coefficient_diffs"] == []
    assert payload["spectrum_max_deviation"] <= 1e-9
    assert all(payload["invariants"].values())
    assert len(payload["eigenvalues"]) == 4
    assert len(payload["notes"]) == 3


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_verify_exit_code_counts_failed_invariants(fmt, capsys, monkeypatch):
    from seidelspectra import cli

    real = cli.verify_instance

    def broken(params):
        report = real(params)
        bad = report.invariant_results._replace(vieta_trace=False)
        return report._replace(invariant_results=bad)

    monkeypatch.setattr(cli, "verify_instance", broken)
    code = main(["verify", "--h", "3", "--p", "1", "--k", "2", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 1
    if fmt == "json":
        payload = json.loads(out)
        assert payload["charpoly_exact_match"] is True
        assert payload["invariants"]["vieta_trace"] is False
    else:
        assert "charpoly exact match: yes" in out
        assert "vieta_trace=FAIL" in out


def test_sweep_csv_file(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code = main(["sweep", "--h-max", "3", "--k-max", "3",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "10 passed, 0 failed, 0 skipped"
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    row = re.compile(r"^\d+,\d+,\d+,\d+,true,[0-9.e+-]+,\d+\.\d{3}$")
    assert all(row.match(line) for line in lines[1:])


def test_sweep_csv_deterministic_columns(tmp_path, capsys):
    paths = (tmp_path / "a.csv", tmp_path / "b.csv")
    for path in paths:
        assert main(["sweep", "--h-max", "3", "--k-max", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    stable = lambda p: [
        line.rsplit(",", 1)[0]
        for line in p.read_text(encoding="utf-8").splitlines()
    ]
    assert stable(paths[0]) == stable(paths[1])


def test_sweep_stdout_and_stderr_split(capsys):
    code = main(["sweep", "--h-max", "2", "--k-max", "2"])
    captured = capsys.readouterr()
    assert code == 0
    body = captured.out.splitlines()
    assert body[0] == CSV_HEADER
    assert len(body) == 3
    assert captured.err.strip() == "2 passed, 0 failed, 0 skipped"


def test_sweep_unwritable_path(capsys):
    code = main(["sweep", "--h-max", "2", "--k-max", "2",
                 "--out", "/nonexistent-dir/grid.csv"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:")


def test_sweep_n_cap_flag_skips_points(tmp_path, capsys):
    out_path = tmp_path / "capped.csv"
    code = main(["sweep", "--h-max", "3", "--k-max", "3", "--n-cap", "4",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "4 passed, 0 failed, 6 skipped"
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 5


def test_sweep_json_rows(capsys):
    code = main(["sweep", "--h-max", "3", "--k-max", "3", "--n-cap", "4",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    rows = json.loads(captured.out)
    ran = [r for r in rows if not r.get("skipped")]
    skipped = [r for r in rows if r.get("skipped")]
    assert len(ran) == 4 and len(skipped) == 6
    assert all(r["exact_match"] is True for r in ran)
    assert all(r["n"] > 4 for r in skipped)


def _boom_on_3_1_2(monkeypatch):
    from seidelspectra import verify

    real = verify.verify_instance

    def boom(params):
        if params[:3] == (3, 1, 2):
            raise ValueError("boom")
        return real(params)

    monkeypatch.setattr(verify, "verify_instance", boom)


def test_sweep_csv_gives_a_raising_point_a_row(capsys, monkeypatch):
    _boom_on_3_1_2(monkeypatch)
    assert main(["sweep", "--h-max", "3", "--k-max", "2"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[:3] for line in lines[1:5]] == [
        ["2", "1", "2"], ["2", "2", "2"], ["3", "2", "2"], ["3", "3", "2"]]
    assert lines[5:] == ["3,1,2,4,false,ValueError,"]
    assert captured.err == ("error: h=3 p=1 k=2 n=4: ValueError: boom\n"
                            "4 passed, 1 failed, 0 skipped\n")


def test_sweep_json_gives_a_raising_point_a_row(capsys, monkeypatch):
    _boom_on_3_1_2(monkeypatch)
    assert main(["sweep", "--h-max", "3", "--k-max", "3", "--n-cap", "4",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert [r["exact_match"] for r in rows[:3]] == [True] * 3
    assert rows[3] == {"h": 3, "p": 1, "k": 2, "n": 4, "error": "ValueError: boom"}
    assert len(rows) == 10 and all(r["skipped"] for r in rows[4:])
    assert captured.err == ("error: h=3 p=1 k=2 n=4: ValueError: boom\n"
                            "3 passed, 1 failed, 6 skipped\n")


def test_spectrum_and_charpoly_refuse_k_one(capsys):
    for command in ("spectrum", "charpoly"):
        assert main([command, "--h", "3", "--p", "1", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k = 1: the factored form needs k >= 2\n"


def test_export_dot(capsys):
    code = main(["export", "--h", "3", "--p", "1", "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph G {"
    assert lines[-1] == "}"
    assert '  0 [label="v1_1"];' in lines
    assert '  1 [label="u1"];' in lines
    assert out.count('sign="-"') == 5
    assert out.count('sign="+"') == 1


def test_export_json_edge_lists(capsys):
    assert main(["export", "--h", "3", "--p", "1", "--k", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "n": 4,
        "negative_edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]],
    }
    assert main(["export", "--h", "2", "--p", "1", "--k", "3",
                 "--format", "json"]) == 0
    star = json.loads(capsys.readouterr().out)
    assert len(star["negative_edges"]) == 3
    assert all(2 in edge for edge in star["negative_edges"])
    assert main(["export", "--h", "2", "--p", "2", "--k", "1",
                 "--format", "json"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert single == {"n": 2, "negative_edges": [[0, 1]]}


def test_run_entry_point(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "argv",
        ["seidelspectra", "spectrum", "--h", "2", "--p", "1", "--k", "2"],
    )
    with pytest.raises(SystemExit) as excinfo:
        run()
    assert excinfo.value.code == 0
    assert "eigenvalues:" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def _count_closed_form_solves(monkeypatch):
    """Wrap spectrum_closed where the CLI and verify call it; return the call list."""
    from seidelspectra import cli, verify

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "spectrum_closed", counted(cli.spectrum_closed))
    monkeypatch.setattr(verify, "spectrum_closed", counted(verify.spectrum_closed))
    return calls


def test_verify_solves_the_closed_form_once(capsys, monkeypatch):
    calls = _count_closed_form_solves(monkeypatch)
    assert main(["verify", "--h", "5", "--p", "2", "--k", "4"]) == 0
    assert len(calls) == 1
    assert "eigenvalues (closed form):" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_one_cubic_solve_per_command(command, capsys, monkeypatch):
    calls = _count_closed_form_solves(monkeypatch)
    for fmt in ("human", "json"):
        calls.clear()
        # (3, 1, 2) has two irrational cubic roots, printed in both formats
        assert main([command, "--h", "3", "--p", "1", "--k", "2", "--format", fmt]) == 0
        assert len(calls) == 1
    assert "2.2360679775" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_verify_reports_a_closed_cubic_without_real_roots(fmt, capsys, monkeypatch):
    from seidelspectra import closedform

    real = closedform.cubic_s
    oracle = [5, 0, -6, 0, 1]  # (1 - x)(5 + 5x - x^2 - x^3) for (3, 1, 2)
    for index, shift in itertools.product(range(4), (-1, 1)):
        def moved(params, index=index, shift=shift):
            # shifting c_i moves s(1 - 2p) by +-(1 - 2p)^i, odd and never 0,
            # so s no longer splits off the factor (1 - 2p - x)
            coeffs = list(real(params))
            coeffs[index] += shift
            return tuple(coeffs)

        closed = oracle[index] + shift
        monkeypatch.setattr(closedform, "cubic_s", moved)
        code = main(["verify", "--h", "3", "--p", "1", "--k", "2", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 1
        if fmt == "json":
            payload = _strict_json(out)
            assert payload["charpoly_exact_match"] is False
            assert payload["coefficient_diffs"][0] == [index, closed, oracle[index]]
            assert payload["spectrum_max_deviation"] is None
            assert payload["eigenvalues"] == []
            assert main(["sweep", "--h-max", "3", "--k-max", "2", "--format", "json"]) == 1
            rows = _strict_json(capsys.readouterr().out)
            assert rows and all(r["max_dev"] is None for r in rows)
        else:
            assert "charpoly exact match: no" in out
            assert f"degree {index}: closed form {closed} vs oracle {oracle[index]}" in out
            assert "eigenvalues (closed form):\nmax numeric deviation: inf" in out


def _strict_json(text):
    """json.loads that rejects Infinity and NaN, which RFC 8259 does not allow."""
    def reject(token):
        raise ValueError(f"not valid JSON: {token}")
    return json.loads(text, parse_constant=reject)


# h = cap gives n = cap + 1 with p = 1, k = 2
@pytest.mark.parametrize("argv", [
    ["verify", "--h", str(N_MAX), "--p", "1", "--k", "2"],
    ["verify", "--h", str(N_MAX), "--p", "1", "--k", "2", "--format", "json"],
    ["verify", "--h", str(10**400), "--p", "1", "--k", "2"],
    ["charpoly", "--h", str(DENSE_N_MAX), "--p", "1", "--k", "2", "--expanded"],
    ["charpoly", "--h", str(DENSE_N_MAX), "--p", "1", "--k", "2", "--expanded",
     "--format", "json"],
    ["export", "--h", str(DENSE_N_MAX), "--p", "1", "--k", "2"],
    ["export", "--h", str(10**400), "--p", "1", "--k", "2", "--format", "json"],
])
def test_n_above_n_max_is_refused_before_any_work(argv, capsys, monkeypatch):
    import time

    from seidelspectra import closedform, verify

    def no_work(*args):
        raise AssertionError("a matrix, an edge list or an expansion was started")

    monkeypatch.setattr(verify, "seidel_matrix", no_work)
    monkeypatch.setattr(closedform.FactoredCharPoly, "expand", no_work)
    monkeypatch.setattr(cli, "signed_edges", no_work)
    monkeypatch.setattr(cli, "vertex_labels", no_work)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    cap = f"N_MAX = {N_MAX}" if argv[0] == "verify" else f"DENSE_N_MAX = {DENSE_N_MAX}"
    assert f"is above {cap}\n" in captured.err


def test_factored_charpoly_above_n_max_still_prints(capsys):
    h = DENSE_N_MAX
    assert main(["charpoly", "--h", str(h), "--p", "1", "--k", "2"]) == 0
    assert f"(1 - x)^{h - 2}" in capsys.readouterr().out


def test_verify_marks_a_skipped_numeric_referee(capsys):
    argv = ["verify", "--h", str(DENSE_N_MAX), "--p", "1", "--k", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "charpoly exact match: yes" in out.splitlines()
    assert f"numeric referee: skipped (n > DENSE_N_MAX = {DENSE_N_MAX})" in out.splitlines()
    assert "max numeric deviation" not in out
    assert main([*argv, "--format", "json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["numeric_referee"] == "skipped"
    assert payload["spectrum_max_deviation"] is None
    assert payload["charpoly_exact_match"] and all(payload["invariants"].values())
    # at n <= DENSE_N_MAX the key is absent
    assert main(["verify", *FAMILY, "--format", "json"]) == 0
    assert "numeric_referee" not in _strict_json(capsys.readouterr().out)


def test_sweep_rows_mark_a_skipped_numeric_referee(capsys, monkeypatch):
    from seidelspectra import verify

    monkeypatch.setattr(verify, "DENSE_N_MAX", 6)
    assert main(["sweep", "--h-max", "3", "--k-max", "3"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert {int(r[3]) > 6 for r in rows} == {True, False}
    for row in rows:
        assert (row[5] == "skipped") is (int(row[3]) > 6)
    assert captured.err == f"{len(rows)} passed, 0 failed, 0 skipped\n"
    assert main(["sweep", "--h-max", "3", "--k-max", "3", "--format", "json"]) == 0
    for row in _strict_json(capsys.readouterr().out):
        skipped = row["n"] > 6
        assert (row.get("numeric_referee") == "skipped") is skipped
        assert (row["max_dev"] is None) is skipped


def _outcome(capsys, argv, fresh=False, parse=main):
    """(exit code, stdout, stderr) of one ``parse`` call, by default main;
    ``fresh`` rebuilds the parsers first."""
    if fresh:
        cli._parser.cache_clear()
        cli._command_parser.cache_clear()
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAMILY = ["--h", "3", "--p", "1", "--k", "2"]


@pytest.mark.parametrize("command", [
    ["spectrum", "--h", "5", "--p", "2", "--k", "3"],
    ["verify", "--h", "5", "--p", "2", "--k", "3"],
    ["sweep", "--h-max", "3", "--k-max", "2"],
])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1e-30", "5e-324"])
def test_tol_that_cannot_be_honoured_is_refused(command, tol, capsys):
    code, out, err = _outcome(capsys, [*command, "--tol", tol])
    assert code == 2
    assert out == ""
    assert f"argument --tol: must be finite and >= 2^-50, got '{tol}'" in err


def test_tol_floor_and_a_large_tol_are_accepted(capsys):
    assert main(["spectrum", *FAMILY, "--tol", repr(2.0**-50)]) == 0
    assert "2.2360679775" in capsys.readouterr().out
    assert main(["verify", *FAMILY, "--tol", "1e300"]) == 0
    # below eigvalsh's rounding error the bound is that error: a correct
    # instance passes (it deviates by about 1.1e-14)
    assert main(["verify", "--h", "10", "--p", "3", "--k", "5", "--tol", "1e-15"]) == 0


def test_large_tol_never_merges_an_irrational_root(capsys):
    code = main(["spectrum", "--h", "5", "--p", "2", "--k", "3", "--tol", "1e300",
                 "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == [
        {"value": 5.4244289009, "multiplicity": 1},
        {"value": 1, "multiplicity": 5},
        {"value": -3, "multiplicity": 2},
        {"value": -4.4244289009, "multiplicity": 1},
    ]


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    calls = (
        ["spectrum", *FAMILY],
        ["charpoly", *FAMILY, "--format", "json"],
        ["verify", *FAMILY],
        ["export", *FAMILY],
        ["sweep", "--h-max", "3", "--k-max", "2", "--out", str(tmp_path / "grid.csv")],
    )
    for argv in calls * 2:
        assert _outcome(capsys, argv)[0] == 0
    # one parser per command and process, and never the whole tree
    assert sorted(built) == sorted(f"seidelspectra {argv[0]}" for argv in calls)


@pytest.mark.parametrize("name", ["spectrum", "charpoly", "verify", "sweep", "export"])
def test_command_parser_matches_its_subparser(name):
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert cli._command_parser(name).format_help() == sub.choices[name].format_help()


@pytest.mark.parametrize("argv", [
    ["spectrum", *FAMILY, "--bogus"],
    ["spectrum", "extra", *FAMILY],
    ["bogus"],
    ["--help"],
    [],
])
def test_fallback_prints_what_the_whole_tree_prints(argv, capsys):
    tree = _outcome(capsys, argv, parse=lambda argv: cli._parser().parse_args(argv))
    assert tree[0] == (0 if argv == ["--help"] else 2)
    assert _outcome(capsys, argv) == tree
    assert _outcome(capsys, argv, fresh=True) == tree


def test_no_option_leaks_between_calls(tmp_path, capsys):
    for first, second in (
        (["charpoly", *FAMILY, "--expanded"], ["charpoly", *FAMILY]),
        (["verify", *FAMILY, "--format", "json"], ["verify", *FAMILY]),
    ):
        _outcome(capsys, first)
        after = _outcome(capsys, second)
        assert after == _outcome(capsys, second, fresh=True)

    out_file = tmp_path / "grid.csv"
    code, out, _ = _outcome(capsys, ["sweep", "--h-max", "3", "--k-max", "2",
                                     "--out", str(out_file)])
    assert code == 0 and out.endswith("0 failed, 0 skipped\n")
    assert out_file.read_text().startswith(CSV_HEADER)
    code, out, err = _outcome(capsys, ["sweep", "--h-max", "3", "--k-max", "2"])
    assert code == 0 and out.startswith(CSV_HEADER)
    assert err.endswith("0 failed, 0 skipped\n")


def test_usage_error_leaves_the_parser_intact(capsys):
    calls = (["spectrum", "--h", "3"], ["spectrum", *FAMILY])
    fresh = [_outcome(capsys, argv, fresh=True) for argv in calls]
    shared = [_outcome(capsys, argv) for argv in calls]
    assert fresh[0][0] == 2 and "required: --p, --k" in fresh[0][2]
    assert shared == fresh


@pytest.mark.parametrize("command", [[], ["spectrum"], ["charpoly"], ["verify"],
                                     ["sweep"], ["export"]])
def test_help_is_the_same_on_every_call(command, capsys):
    first = _outcome(capsys, [*command, "--help"], fresh=True)
    assert first[0] == 0
    assert first[1].startswith(" ".join(["usage: seidelspectra", *command]))
    _outcome(capsys, ["spectrum", *FAMILY])
    assert _outcome(capsys, [*command, "--help"]) == first
