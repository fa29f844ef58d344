import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayleysrg.cli as cli
import cayleysrg.regularity as regularity
from cayleysrg import (
    BRUTE_FORCE_MAX_MODULUS,
    PermutationGroup,
    from_graph6,
    translation,
)
from cayleysrg.cli import (
    ANALYZE_MAX_MODULUS,
    EXPORT_MAX_MODULUS,
    analyze_report,
    main,
    predicted_values,
    verify_range,
)

REPORT_KEYS = [
    "n", "srg_params", "intersection_array", "claimed_group_order",
    "stabilizer_order", "transitivity", "oracle", "timings",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestAnalyze:
    def test_report_shape_and_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "5", "--oracle")
        assert code == 0
        report = json.loads(out)
        assert list(report) == REPORT_KEYS
        assert report["srg_params"] == {"v": 25, "k": 12, "lambda": 5, "mu": 6}
        assert report["intersection_array"] == {"b": [12, 6], "c": [1, 6], "diameter": 2}
        assert report["claimed_group_order"] == 600
        assert report["stabilizer_order"] == 24
        assert report["oracle"] == {"brute_order": 600, "agreement": True}
        assert "matched" in err

    def test_orbit_stabilizer_invariant(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "9")
        assert code == 0
        report = json.loads(out)
        assert report["claimed_group_order"] == 81 * report["stabilizer_order"]
        assert report["oracle"] is None

    def test_transitivity_block(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "6")
        trans = json.loads(out)["transitivity"]
        assert trans["vertex_transitive"] is True
        assert trans["edge_transitive"] is False
        assert trans["witnesses"]["edge"] is not None
        assert trans["witnesses"]["vertex"] is None
        assert sum(trans["orbit_counts"]["edges"]) == 36 * 15 // 2

    def test_deterministic_modulo_timings(self):
        first, ok1 = analyze_report(6)
        second, ok2 = analyze_report(6)
        assert ok1 == ok2 == []
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first) == json.dumps(second)

    @pytest.mark.parametrize("n", range(4, 42))
    def test_intersection_array_is_read_off_the_srg_parameters(self, n, graph,
                                                              monkeypatch):
        # analyze scans the rows once; the layer scan stays as the oracle
        def refuse(g):
            raise AssertionError("analyze_report scanned for the intersection array")

        monkeypatch.setattr(cli, "intersection_array", refuse)
        report, failures = analyze_report(n)
        assert failures == []
        arr = regularity.intersection_array(graph(n))
        assert report["intersection_array"] == {
            "b": list(arr.b), "c": list(arr.c), "diameter": arr.diameter}

    def test_modulus_bounds_are_usage_errors(self, capsys):
        for argv in (["analyze", "3"], ["analyze", "1001"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_analyze_and_verify_share_the_measured_cap(self, capsys, monkeypatch):
        # parsed only: stubs stand in for the analysis, so nothing is built
        seen = []
        monkeypatch.setattr(cli, "build_graph", None)
        monkeypatch.setattr(cli, "analyze_report", lambda n, with_oracle=False:
                            seen.append(("analyze", n)) or ({"n": n}, []))
        monkeypatch.setattr(cli, "verify_range", lambda lo, hi, oracle_upto=None:
                            seen.append(("verify", hi)) or {"all_passed": True})
        assert ANALYZE_MAX_MODULUS == 246
        assert main(["analyze", "246"]) == 0
        assert main(["verify", "4..246"]) == 0
        for argv in (["analyze", "247"], ["verify", "4..247"], ["verify", "247..247"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert seen == [("analyze", 246), ("verify", 246)]
        capsys.readouterr()

    def test_oracle_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(BRUTE_FORCE_MAX_MODULUS + 1), "--oracle"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n, with_oracle, message", [
        (3, False, "between 4 and"), (ANALYZE_MAX_MODULUS + 1, False, "between 4 and"),
        (250, False, "between 4 and"), (BRUTE_FORCE_MAX_MODULUS + 1, True, "oracle needs"),
        (40, True, "oracle needs"),
    ])
    def test_analyze_report_refuses_before_any_stage(self, n, with_oracle, message,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "connection_indices", None)
        monkeypatch.setattr(cli, "claimed_aut_group", None)
        with pytest.raises(ValueError, match=message):
            analyze_report(n, with_oracle=with_oracle)

    def test_oracle_refuses_a_proper_subgroup(self, capsys, monkeypatch):
        def translations(n):
            return PermutationGroup.from_generators(
                [translation(n, 1, 0).perm, translation(n, 0, 1).perm])

        monkeypatch.setattr(cli, "claimed_aut_group", translations)
        code, out, err = run_cli(capsys, "analyze", "5", "--oracle")
        assert code == 1
        report = json.loads(out)
        assert report["claimed_group_order"] == 25
        assert report["oracle"] == {"brute_order": 600, "agreement": False}
        _, failures = analyze_report(5, with_oracle=True)
        assert "oracle" in failures
        assert "MISMATCH" in err and "oracle" in err


class TestExport:
    def test_graph6_output_decodes_to_the_graph(self, capsys, graph):
        code, out, _ = run_cli(capsys, "export", "4", "--format", "graph6")
        assert code == 0
        vc, adjacency = from_graph6(out.strip())
        assert vc == 16
        assert adjacency == list(graph(4).adjacency)

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "export", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("graph cayley_4 {")
        assert sum(1 for l in out.splitlines() if " -- " in l) == 72

    def test_graph6_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", "111", "--format", "graph6"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_dot_has_the_same_cap(self, capsys, monkeypatch):
        # refused before any row is built
        monkeypatch.setattr(cli, "build_graph", None)
        with pytest.raises(SystemExit) as exc:
            main(["export", str(EXPORT_MAX_MODULUS + 1), "--format", "dot"])
        assert exc.value.code == 2
        assert EXPORT_MAX_MODULUS == 110
        capsys.readouterr()

    def test_format_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["export", "4"])
        capsys.readouterr()


class TestVerify:
    def test_small_range_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "4..6", "--oracle-upto", "5")
        assert code == 0
        summary = json.loads(out)
        assert summary["all_passed"] is True
        assert [row["n"] for row in summary["results"]] == [4, 5, 6]
        oracle_rows = [row["oracle"] for row in summary["results"]]
        assert oracle_rows[0] == {"brute_order": 192, "agreement": True}
        assert oracle_rows[2] is None
        assert "result" in err and "ok" in err

    def test_predictions_table(self):
        expected = predicted_values(4)
        assert expected["transitivity"]["edge_transitive"] is False
        assert predicted_values(5)["transitivity"]["distance_transitive"] is True
        assert predicted_values(7)["transitivity"]["arc_transitive"] is True
        assert predicted_values(7)["claimed_group_order"] == 6 * 49 * 6

    def test_verify_range_rows(self):
        summary = verify_range(5, 5, oracle_upto=5)
        row = summary["results"][0]
        assert row["passed"] and row["failed_checks"] == []
        assert row["transitivity"]["distance_transitive"] is True

    @pytest.mark.parametrize("lo, hi", [(10, 4), (3, 5), (0, 0)])
    def test_verify_range_refuses_bad_ranges(self, lo, hi, capsys):
        with pytest.raises(ValueError, match="4 <= lo <= hi"):
            verify_range(lo, hi)
        assert capsys.readouterr().err == ""

    def test_verify_range_refuses_a_range_past_the_cap(self, capsys):
        with pytest.raises(ValueError, match=f"hi <= {ANALYZE_MAX_MODULUS}"):
            verify_range(ANALYZE_MAX_MODULUS - 1, ANALYZE_MAX_MODULUS + 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("bound", [3, BRUTE_FORCE_MAX_MODULUS + 1])
    def test_verify_range_refuses_an_oracle_bound_past_the_cap(self, bound, capsys,
                                                               monkeypatch):
        # refused before the header, and before any modulus is analyzed
        monkeypatch.setattr(cli, "analyze_report", None)
        with pytest.raises(ValueError, match="oracle_upto must be between 4"):
            verify_range(30, 33, oracle_upto=bound)
        assert capsys.readouterr().err == ""

    def test_bad_ranges_are_usage_errors(self, capsys):
        for rng in ("6..4", "x..y", "10", "3..5", "4..1001"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", rng])
            assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("rng", ["\uff14..\uff15", "\u00b2..5", "4..\u0665",
                                     " 4..5", "4..+5"])
    def test_ranges_other_than_ascii_digits_are_usage_errors(self, rng, capsys,
                                                             monkeypatch):
        # full-width, superscript and Arabic-Indic digits pass str.isdigit
        monkeypatch.setattr(cli, "verify_range", None)  # parse only
        with pytest.raises(SystemExit) as exc:
            main(["verify", rng])
        assert exc.value.code == 2
        assert "range must look like 4..10" in capsys.readouterr().err

    def test_oracle_upto_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "4..5", "--oracle-upto", str(BRUTE_FORCE_MAX_MODULUS + 1)])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bound", [-3, 0, 3])
    def test_oracle_upto_below_four_refused(self, bound, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_range", None)  # parse only
        with pytest.raises(SystemExit) as exc:
            main(["verify", "4..5", "--oracle-upto", str(bound)])
        assert exc.value.code == 2
        assert "--oracle-upto must be between 4" in capsys.readouterr().err

    def test_rows_are_printed_as_each_modulus_finishes(self, monkeypatch):
        err = io.StringIO()
        seen_before = {}
        inner = cli.analyze_report

        def spy(n, with_oracle=False):
            seen_before[n] = err.getvalue()
            return inner(n, with_oracle=with_oracle)

        monkeypatch.setattr(cli, "analyze_report", spy)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "4..6", "--oracle-upto", "4"])
        assert code == 0
        lines = err.getvalue().splitlines()
        assert len(lines) == 4 and lines[0].split() == [
            "n", "order", "edge", "arc", "dist", "2arc", "oracle", "result"]
        # the header precedes the first modulus, and each row the next one
        assert seen_before[4].splitlines() == lines[:1]
        assert seen_before[5].splitlines() == lines[:2]
        assert seen_before[6].splitlines() == lines[:3]
        assert lines[1].split() == ["4", "192", "False", "False", "False", "False", "192", "ok"]
        assert lines[3].split()[-2:] == ["-", "ok"]
        assert json.loads(out.getvalue())["all_passed"] is True


def test_a_cold_start_never_imports_numpy_ma():
    # NumPy 2.4 imports numpy.ma on the first np.unique, about 13 ms that
    # every fresh interpreter would pay; no command may need it.
    script = (
        "import contextlib, io, sys\n"
        "from cayleysrg import cli\n"
        "for argv in (['analyze', '9'], ['verify', '4..6', '--oracle-upto', '5'],\n"
        "             ['export', '9', '--format', 'graph6'],\n"
        "             ['export', '9', '--format', 'dot']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
