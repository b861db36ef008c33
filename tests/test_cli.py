import argparse
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import condrand.cli as cli
import condrand.distributions as distributions
import condrand.sampling as sampling
from condrand import experiments
from condrand.cli import build_parser, main


def _env_with_src() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _never_called(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


def _one_look_schedule(r, n1) -> str:
    return json.dumps({"design": {"kind": "bcd", "p": 0.75}, "looks": [{"r": r, "n1": n1}]})


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


RANK_OR_RAW = ("simple-rank", "raw")

# (default, choices, required, type) of every option, by subcommand
CLI_SURFACE = {
    "dist": {
        "--design": (None, None, True, "parse"),
        "--n": (None, None, True, "int"),
        "--target": (None, None, False, "int"),
        "--given": (None, None, False, "_look_pair"),
        "--backend": ("float", ("float", "exact"), False, None),
        "--out": (None, None, False, None),
    },
    "sample": {
        "--design": (None, None, False, "parse"),
        "--n": (None, None, False, "int"),
        "--n1": (None, None, False, "int"),
        "--schedule": (None, None, False, None),
        "--count": (1, None, False, "_non_negative"),
        "--seed": (None, None, False, "_non_negative"),
        "--out": (None, None, False, None),
    },
    "pvalue": {
        "--design": (None, None, True, "parse"),
        "--responses": (None, None, True, None),
        "--assignments": (None, None, True, None),
        "--scores": ("simple-rank", RANK_OR_RAW, False, None),
        "--method": ("direct", ("direct", "rejection"), False, None),
        "--reps": (2500, None, False, "_positive"),
        "--seed": (None, None, False, "_non_negative"),
        "--exact": (False, None, False, None),
        "--stratified": (False, None, False, None),
        "--out": (None, None, False, None),
    },
    "boundaries": {
        "--design": (None, None, False, "parse"),
        "--schedule": (None, None, True, None),
        "--responses": (None, None, True, None),
        "--alpha": (0.05, None, False, "float"),
        "--spending": ("obf", ("obf", "pocock"), False, None),
        "--reps": (2500, None, False, "_positive"),
        "--seed": (None, None, False, "_non_negative"),
        "--quantile": ("smooth", ("smooth", "ecdf"), False, None),
        "--info": ("full", ("full", "interim"), False, None),
        "--bootstrap": (100, None, False, "_positive"),
        "--scores": ("simple-rank", RANK_OR_RAW, False, None),
        "--out": (None, None, False, None),
    },
    "info": {
        "--design": (None, None, False, "parse"),
        "--schedule": (None, None, True, None),
        "--responses": (None, None, True, None),
        "--bootstrap": (100, None, False, "_positive"),
        "--mode": ("interim", ("interim", "full"), False, None),
        "--seed": (None, None, False, "_non_negative"),
        "--scores": ("simple-rank", RANK_OR_RAW, False, None),
        "--out": (None, None, False, None),
    },
    "tables": {
        "--which": (None, (1, 2, 3), True, "int"),
        "--seed": (None, None, False, "_non_negative"),
        "--reps": (2500, None, False, "_positive"),
        "--runs": (None, None, False, "_positive"),
        "--n": (None, None, False, "int"),
        "--full": (False, None, False, None),
        "--out": (None, None, False, None),
    },
}


def test_cli_surface_is_pinned():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {
            " ".join(a.option_strings): (
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.required,
                getattr(a.type, "__name__", None),
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_SURFACE


@pytest.fixture
def trial_files(tmp_path):
    rng = np.random.default_rng(31)
    n = 12
    responses = rng.standard_normal(n)
    resp = tmp_path / "data.csv"
    resp.write_text("\n".join(f"{x:.6f}" for x in responses) + "\n")
    seq = tmp_path / "seq.txt"
    seq.write_text("110100101001\n")
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"looks": [{"r": 6, "n1": 3}, {"r": 12, "n1": 6}]}))
    return {"responses": resp, "assignments": seq, "schedule": schedule}


class TestDist:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--design", "bcd:0.6", "--n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n1,probability"
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(probs) == 7 and sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_conditional_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--design", "bcd:0.6667", "--n", "4", "--given", "1:1",
            "--target", "2",
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(16 / 27, abs=1e-4)

    def test_exact_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--design", "bcd:0.5", "--n", "2", "--backend", "exact"
        )
        assert code == 0
        assert [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]] == [0.25, 0.5, 0.25]

    @pytest.mark.parametrize("n, backend", [("-3", "float"), ("-3", "exact"), ("0", "float")])
    def test_horizon_below_one_exit_2(self, capsys, n, backend):
        code, out, err = run_cli(
            capsys, "dist", "--design", "bcd:0.75", "--n", n, "--backend", backend
        )
        assert code == 2
        assert out == "" and f"horizon must be >= 1, got {n}" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--target", "9"), "target count 9 out of range for horizon 5"),
            (("--target", "9", "--given", "2:1"), "target count 9 out of range for horizon 5"),
            (("--given", "7:3"), "step 7 out of range for horizon 5"),
            (("--given", "7:3", "--target", "2"), "step 7 out of range for horizon 5"),
            (("--given", "2:3"), "interim count 3 out of range for step 2"),
            (("--given", "2:3", "--target", "2"), "interim count 3 out of range for step 2"),
        ],
    )
    def test_bad_counts_exit_2_alike_under_both_backends(self, capsys, extra, message):
        errors = []
        for backend in ("float", "exact"):
            code, out, err = run_cli(
                capsys, "dist", "--design", "bcd:0.75", "--n", "5", *extra, "--backend", backend
            )
            assert code == 2 and out == "", backend
            errors.append(err)
        assert errors[0] == errors[1]
        assert errors[0].strip().splitlines()[-1] == f"error: {message}"


class TestSampleAndPvalue:
    def test_round_trip(self, capsys, tmp_path, trial_files):
        seq_out = tmp_path / "draws.txt"
        code, _, _ = run_cli(
            capsys, "sample", "--design", "bcd:0.6", "--n", "12", "--n1", "6",
            "--count", "3", "--seed", "7", "--out", str(seq_out),
        )
        assert code == 0
        text = seq_out.read_text()
        assert text.startswith("# design=bcd:0.6")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(body) == 3 and all(len(l) == 12 for l in body)
        argv = [
            "pvalue", "--design", "bcd:0.6", "--responses", str(trial_files["responses"]),
            "--assignments", str(seq_out), "--reps", "500", "--seed", "5",
        ]
        # one test takes one sequence: the second, on line 3, is refused
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"error: {seq_out}:3: a second sequence needs --stratified\n"
        # a sequence is accepted verbatim as the observed assignments
        seq_out.write_text("".join(text.splitlines(keepends=True)[:2]))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["estimate"] <= 1.0
        assert payload["seed"] == 5
        assert payload["n_effective"] == 500

    def test_sample_from_schedule(self, capsys, trial_files):
        code, out, _ = run_cli(
            capsys, "sample", "--design", "bcd:0.75",
            "--schedule", str(trial_files["schedule"]), "--count", "5", "--seed", "3",
        )
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        for line in body:
            assert sum(int(c) for c in line[:6]) == 3
            assert sum(int(c) for c in line) == 6

    def test_exact_pvalue(self, capsys, trial_files):
        code, out, _ = run_cli(
            capsys, "pvalue", "--design", "bcd:0.6667",
            "--responses", str(trial_files["responses"]),
            "--assignments", str(trial_files["assignments"]), "--exact",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "exact"
        assert 0.0 <= payload["pvalue"] <= 1.0

    def test_rejection_method(self, capsys, trial_files):
        code, out, _ = run_cli(
            capsys, "pvalue", "--design", "complete",
            "--responses", str(trial_files["responses"]),
            "--assignments", str(trial_files["assignments"]),
            "--method", "rejection", "--reps", "4000", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "rejection"
        assert payload["n_effective"] < 4000

    def test_deterministic_output(self, capsys, trial_files):
        argv = (
            "pvalue", "--design", "bcd:0.6",
            "--responses", str(trial_files["responses"]),
            "--assignments", str(trial_files["assignments"]),
            "--reps", "400", "--seed", "11",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_stratified(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        rows = [f"{x:.4f},A" for x in rng.standard_normal(6)]
        rows += [f"{x:.4f},B" for x in rng.standard_normal(4)]
        resp = tmp_path / "strat.csv"
        resp.write_text("\n".join(rows) + "\n")
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("101010\n0110\n")
        code, out, _ = run_cli(
            capsys, "pvalue", "--design", "bcd:0.6", "--responses", str(resp),
            "--assignments", str(seqs), "--stratified", "--reps", "300", "--seed", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stratified"] is True


class TestBoundariesAndInfo:
    def test_boundaries_json(self, capsys, trial_files):
        code, out, _ = run_cli(
            capsys, "boundaries", "--design", "bcd:0.6667",
            "--schedule", str(trial_files["schedule"]),
            "--responses", str(trial_files["responses"]),
            "--alpha", "0.1", "--reps", "2000", "--seed", "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["d"]) == 2
        assert payload["info_fractions"][-1] == 1.0
        assert payload["seed"] == 9

    def test_info_json(self, capsys, trial_files):
        code, out, _ = run_cli(
            capsys, "info", "--design", "bcd:0.6667",
            "--schedule", str(trial_files["schedule"]),
            "--responses", str(trial_files["responses"]),
            "--bootstrap", "20", "--seed", "13",
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["look"] for row in payload["per_look"]] == [1, 2]
        assert payload["per_look"][-1]["t"] == 1.0
        assert 0.0 < payload["per_look"][0]["t"] < 1.0

    def test_unseeded_full_mode_info_prints_null_seed(self, capsys, trial_files):
        # full mode draws nothing, so two runs without --seed are the same bytes
        argv = [
            "info", "--design", "bcd:0.6667", "--schedule", str(trial_files["schedule"]),
            "--responses", str(trial_files["responses"]),
        ]
        first, second = (run_cli(capsys, *argv, "--mode", "full") for _ in range(2))
        assert first == second and first[0] == 0
        assert json.loads(first[1])["seed"] is None
        assert json.loads(run_cli(capsys, *argv, "--mode", "full", "--seed", "4")[1])["seed"] == 4
        code, out, _ = run_cli(capsys, *argv, "--bootstrap", "5")
        assert code == 0 and isinstance(json.loads(out)["seed"], int)

    @pytest.mark.parametrize("command", ["sample", "info", "boundaries"])
    def test_schedule_file_design_is_the_default(self, capsys, tmp_path, trial_files, command):
        bare = trial_files["schedule"]
        own = tmp_path / "own.json"
        looks = json.loads(bare.read_text())["looks"]
        own.write_text(json.dumps({"looks": looks, "design": {"kind": "bcd", "p": 0.6}}))
        extra = {
            "sample": ("--count", "3"),
            "info": ("--responses", str(trial_files["responses"]), "--bootstrap", "5"),
            "boundaries": ("--responses", str(trial_files["responses"]), "--reps", "300"),
        }[command]

        def run(schedule, *design):
            code, out, err = run_cli(capsys, command, "--schedule", str(schedule), *design,
                                     *extra, "--seed", "1")
            assert (code, err) == (0, ""), err
            return out

        assert run(own) == run(bare, "--design", "bcd:0.6")
        assert run(own, "--design", "bcd:0.9") == run(bare, "--design", "bcd:0.9") != run(own)

    def test_boundary_that_spends_nothing_is_null(self, capsys, tmp_path):
        # a first look at 2 of 40 carries so little information that the
        # O'Brien-Fleming-like spend is zero there and the boundary infinite
        resp = tmp_path / "r.csv"
        resp.write_text("\n".join(f"{v:.6f}" for v in np.random.default_rng(3).standard_normal(40)))
        schedule = tmp_path / "s.json"
        schedule.write_text(json.dumps({"looks": [{"r": 2, "n1": 1}, {"r": 40, "n1": 20}]}))
        code, out, _ = run_cli(
            capsys, "boundaries", "--design", "bcd:0.75", "--schedule", str(schedule),
            "--responses", str(resp), "--reps", "500", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["incremental_alpha"][0] == 0.0
        assert payload["d"][0] is None and payload["d"][1] > 0.0


class TestTables:
    def test_planning_grid(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "design,n,n1,ratio,k"
        cells = {tuple(l.split(",")[:3]): int(l.split(",")[-1]) for l in lines[1:]}
        assert cells[("bcd:0.666667", "100", "50")] == 5117
        assert cells[("bcd:0.75", "100", "50")] == 3822

    def test_repeatability_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--which", "2", "--runs", "5", "--reps", "400", "--seed", "1"
        )
        assert code == 0
        assert "n,n1,v_star,exact,mean,sd,runs" in out


class TestErrorPaths:
    def test_missing_file_exit_4(self, capsys, trial_files):
        code, _, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.6",
            "--responses", "/nonexistent/data.csv",
            "--assignments", str(trial_files["assignments"]),
        )
        assert code == 4
        assert "/nonexistent/data.csv" in err

    def test_parse_error_names_line(self, capsys, tmp_path, trial_files):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n")
        code, _, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.6", "--responses", str(bad),
            "--assignments", str(trial_files["assignments"]),
        )
        assert code == 4
        assert "bad.csv:2" in err

    def test_infeasible_exit_3(self, capsys, tmp_path):
        resp = tmp_path / "r.csv"
        resp.write_text("1.0\n2.0\n3.0\n4.0\n")
        seq = tmp_path / "s.txt"
        seq.write_text("1111\n")
        code, _, err = run_cli(
            capsys, "pvalue", "--design", "bcd:1.0", "--responses", str(resp),
            "--assignments", str(seq), "--reps", "100", "--seed", "1",
        )
        assert code == 3
        assert err == (
            "infeasible: look (position 4, count 4) is unreachable "
            "from count 0 at position 0 under bcd:1\n"
        )

    def test_transition_guard_exit_3(self, capsys, monkeypatch, empty_memo):
        # doubled assignment probabilities push transitions above 1; the
        # empty memo makes the chain build its table
        real = sampling._imbalance_probabilities
        monkeypatch.setattr(sampling, "_imbalance_probabilities", lambda *a: 2.0 * real(*a))
        code, out, err = run_cli(
            capsys, "sample", "--design", "bcd:0.75", "--n", "20", "--n1", "10", "--seed", "1",
        )
        assert (code, out, err) == (3, "", "error: transition probability exceeds 1\n")

    def test_ballot_guard_exit_3(self, capsys, monkeypatch, empty_memo):
        # a remainder where the ballot numerator divides exactly; the empty
        # memo makes the table price its law
        monkeypatch.setattr(distributions, "divmod", lambda a, b: (a // b, 1), raising=False)
        code, out, err = run_cli(capsys, "dist", "--design", "bcd:0.75", "--n", "20")
        assert (code, out) == (3, "")
        assert err.startswith("error: ballot numerator ")

    def test_oversized_horizon_exit_3(self):
        # the chain table's band would take 7.28 TiB.  The address-space cap makes
        # its allocation fail at once; without it, a host that always
        # overcommits would let numpy touch the pages.
        code = (
            "import resource, sys\n"
            "from condrand.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["sample", "--design", "bcd:0.75", "--n", "2000000", "--n1", "1000000"]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv, "--count", "1"], env=_env_with_src(),
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (3, ""), done.stderr
        assert done.stderr.startswith("error: out of memory: Unable to allocate 7.28 TiB ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")

    def test_bare_memory_error_exit_3(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "MultilookSampler", exhausted)
        code, out, err = run_cli(
            capsys, "sample", "--design", "bcd:0.75", "--n", "20", "--n1", "10", "--seed", "1",
        )
        assert (code, out, err) == (3, "", "error: out of memory: an allocation failed\n")

    @pytest.mark.parametrize(
        "bad, scores", [("nan", "simple-rank"), ("nan", "raw"), ("inf", "raw")]
    )
    def test_non_finite_response_exit_2(self, capsys, tmp_path, bad, scores):
        values = [f"{v:.6f}" for v in np.random.default_rng(1).standard_normal(39)]
        resp = tmp_path / "r.csv"
        resp.write_text("\n".join(values[:20] + [bad] + values[20:]) + "\n")
        seq = tmp_path / "s.txt"
        seq.write_text("01" * 20 + "\n")
        code, out, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.75", "--responses", str(resp),
            "--assignments", str(seq), "--scores", scores, "--reps", "100", "--seed", "1",
        )
        assert code == 2
        assert out == "" and "finite" in err

    def test_off_lattice_exact_scores_print_the_plain_float_exit_2(self, capsys):
        golden = Path(__file__).parent / "golden"
        code, out, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.75", "--exact", "--scores", "raw",
            "--responses", str(golden / "responses40.csv"),
            "--assignments", str(golden / "assignments40.txt"),
        )
        assert code == 2 and out == ""
        assert err == (
            "error: score -0.24745599999999995 is not representable on a small rational lattice\n"
        )

    def test_stratified_exact_exit_2(self, capsys, tmp_path):
        resp = tmp_path / "strat.csv"
        resp.write_text("0.1,A\n0.5,A\n0.3,B\n0.9,B\n")
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("10\n01\n")
        code, out, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.6", "--responses", str(resp),
            "--assignments", str(seqs), "--stratified", "--exact", "--seed", "1",
        )
        assert code == 2
        assert out == "" and "--stratified" in err

    def test_exact_with_rejection_exit_2(self, capsys):
        golden = Path(__file__).parent / "golden"
        code, out, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.75", "--exact", "--method", "rejection",
            "--responses", str(golden / "responses40.csv"),
            "--assignments", str(golden / "assignments40.txt"), "--seed", "1",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: --exact computes the exact p-value; it does not take --method rejection\n"
        )

    def test_zero_horizon_tables_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--which", "3", "--n", "0", "--seed", "1")
        assert code == 2
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("n", ["2", "3", "4", "5"])
    def test_horizon_too_short_for_three_looks_exit_2(self, capsys, monkeypatch, n):
        monkeypatch.setattr(experiments, "monitored_trial_type_i_error", _never_called)
        code, out, err = run_cli(capsys, "tables", "--which", "3", "--n", n, "--seed", "1")
        assert code == 2
        assert out == "" and f"--n must be >= 6 for three distinct looks, got {n}" in err

    @pytest.mark.parametrize(
        "which, flag",
        [("1", ["--n", "5"]), ("1", ["--runs", "3"]), ("1", ["--full"]),
         ("2", ["--n", "50"]), ("2", ["--n", "0"])],
    )
    def test_flag_the_study_ignores_exit_2(self, capsys, monkeypatch, which, flag):
        monkeypatch.setattr(experiments, "sample_size_grid", _never_called)
        monkeypatch.setattr(experiments, "tail_estimate_repeatability", _never_called)
        code, out, err = run_cli(capsys, "tables", "--which", which, *flag, "--seed", "1")
        assert code == 2
        assert out == "" and f"{flag[0]} does not apply to --which {which}" in err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["tables", "--which", "2", "--runs", "2"], "--reps", "0"),
            (["tables", "--which", "1"], "--reps", "0"),
            (["tables", "--which", "2"], "--runs", "0"),
            (["tables", "--which", "3", "--n", "70"], "--runs", "0"),
            (["tables", "--which", "1"], "--runs", "0"),
            (["info", "--schedule", "s.json", "--responses", "r.csv"], "--bootstrap", "-2"),
            (["boundaries", "--schedule", "s.json", "--responses", "r.csv"], "--bootstrap", "0"),
            (["pvalue", "--design", "complete", "--responses", "r", "--assignments", "a"],
             "--reps", "x"),
            (["sample", "--design", "bcd:0.75", "--n", "10", "--n1", "5"], "--count", "-1"),
        ],
    )
    def test_count_flags_name_themselves_exit_2(self, capsys, monkeypatch, argv, flag, value):
        # each once reached a library check whose message does not name the flag
        monkeypatch.setattr(experiments, "sample_size_grid", _never_called)
        monkeypatch.setattr(experiments, "tail_estimate_repeatability", _never_called)
        monkeypatch.setattr(experiments, "monitored_trial_type_i_error", _never_called)
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value, "--seed", "1"])
        assert exc.value.code == 2
        kind = "non-negative" if flag == "--count" else "positive"
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a {kind} integer, got {value!r}" in err

    @pytest.mark.parametrize(
        "study, kwargs, message",
        [
            ("tail_estimate_repeatability", {"runs": 0, "n_c": 100}, "runs must be >= 1, got 0"),
            ("tail_estimate_repeatability", {"runs": 2, "n_c": 0}, "n_c must be >= 1, got 0"),
            ("monitored_trial_type_i_error", {"n": 70, "look_positions": (50, 60, 70),
             "replications": 0}, "replications must be >= 1, got 0"),
            ("monitored_trial_type_i_error", {"n": 70, "look_positions": (50, 60, 65)},
             "the last look must sit at the horizon"),
        ],
    )
    def test_studies_check_counts_before_any_work(self, monkeypatch, study, kwargs, message):
        # the CLI's flag types refuse these counts first; the studies still do
        monkeypatch.setattr(experiments, "MultilookSampler", _never_called)
        monkeypatch.setattr(experiments, "estimate_boundaries", _never_called)
        with pytest.raises(ValueError, match=message):
            getattr(experiments, study)(**kwargs)

    def test_zero_sample_count_prints_the_header_only(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--design", "bcd:0.75", "--n", "10", "--n1", "5", "--count", "0",
            "--seed", "1",
        )
        assert code == 0 and err == ""
        assert out == "# design=bcd:0.75 schedule=10:5 seed=1\n\n"

    def test_one_run_repeatability_has_zero_sd(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "tables", "--which", "2", "--runs", "1", "--reps", "100", "--seed", "1"
            )
        assert code == 0 and err == "" and not caught, [str(w.message) for w in caught]
        rows = out.splitlines()[2:]
        assert len(rows) == 6 and "nan" not in out
        assert all(row.split(",")[5:] == ["0.000000", "1"] for row in rows)

    def test_usage_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--design", "bcd:0.6"])  # missing --n
        assert exc.value.code == 2

    @pytest.mark.parametrize("given", ["3", "1:2:3", "1:x"])
    def test_given_needs_j_colon_m_exit_2(self, capsys, given):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--design", "bcd:0.6", "--n", "4", "--given", given])
        assert exc.value.code == 2
        assert "expected J:M" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-5", "x", "1.5"])
    def test_seed_must_be_a_non_negative_integer_exit_2(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--design", "bcd:0.75", "--n", "10", "--n1", "5", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: expected a non-negative integer, got {seed!r}" in err

    @pytest.mark.parametrize("command", ["sample", "boundaries", "info"])
    @pytest.mark.parametrize("design", [{"p": 0.7}, {"kind": "bcd"}, 3, {"kind": 3}])
    def test_malformed_schedule_design_exit_4(self, capsys, tmp_path, trial_files, command, design):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"looks": [{"r": 12, "n1": 6}], "design": design}))
        argv = [command, "--schedule", str(schedule), "--seed", "1"]
        if command != "sample":
            argv += ["--responses", str(trial_files["responses"])]
        code, _, err = run_cli(capsys, *argv)
        assert code == 4
        assert f"{schedule}: invalid design (" in err

    @pytest.mark.parametrize("command", ["sample", "boundaries", "info"])
    @pytest.mark.parametrize("design", [{"kind": "urn", "p": 0.8}, {"kind": "weird"}])
    def test_unknown_schedule_design_kind_exit_4(
        self, capsys, tmp_path, trial_files, command, design
    ):
        # an unknown kind with a p was once drawn as the biased coin
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"looks": [{"r": 12, "n1": 6}], "design": design}))
        argv = [command, "--schedule", str(schedule), "--seed", "1"]
        if command != "sample":
            argv += ["--responses", str(trial_files["responses"])]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        kind = design["kind"]
        assert err == f"error: {schedule}: invalid design (unknown design kind {kind!r})\n"

    @pytest.mark.parametrize("p", [True, "0.75"])
    def test_schedule_design_p_must_be_a_json_number_exit_4(self, capsys, tmp_path, p):
        # each was once sampled as the float() of p, bcd:1 or bcd:0.75
        schedule = tmp_path / "schedule.json"
        design = {"kind": "bcd", "p": p}
        schedule.write_text(json.dumps({"looks": [{"r": 12, "n1": 6}], "design": design}))
        code, out, err = run_cli(capsys, "sample", "--schedule", str(schedule), "--seed", "1")
        assert (code, out) == (4, "")
        message = f"invalid design (design field p must be a JSON number, got {p!r})"
        assert err == f"error: {schedule}: {message}\n"

    def test_out_into_a_missing_directory_exit_4(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "dist.csv"
        code, out, err = run_cli(
            capsys, "dist", "--design", "bcd:0.75", "--n", "6", "--out", str(out_path)
        )
        assert (code, out) == (4, "")
        assert err.startswith(f"error: cannot write {out_path}: ")

    STRATUM_COLUMN = "{r}: a stratum column (column 2) needs --stratified"

    @pytest.mark.parametrize(
        "responses, assignments, message",
        [
            ("1,A\n2\n3,B\n4\n", "0101\n", "{r}: stratum column must be present on every row"),
            ("y,site\n", "0101\n", "{r}: no data rows"),
            ("1\n2\n3\n4\n", "0121\n", "{a}:1: expected a 0/1 string, got '0121'"),
            ("1\n2\n3\n4\n", "", "{a}: no assignment sequences"),
            ("1\n2\n3\n4\n", "01\n", "4 responses but the assignment sequence has length 2"),
            # one test reads one sequence and no strata, unless --stratified
            ("1\n2\n3\n4\n", "0101\n1111\n", "{a}:2: a second sequence needs --stratified"),
            ("1\n2\n3\n4\n", "# seen\n0101\n\n11\n", "{a}:4: a second sequence needs --stratified"),
            ("1,A\n2,A\n3,B\n4,B\n", "0101\n", STRATUM_COLUMN),
            ("x,site\n1,A\n2,A\n3,B\n4,B\n", "0101\n1111\n", STRATUM_COLUMN),
        ],
    )
    def test_unusable_pvalue_input_exit_4(self, capsys, tmp_path, responses, assignments, message):
        resp, seqs = tmp_path / "r.csv", tmp_path / "s.txt"
        resp.write_text(responses)
        seqs.write_text(assignments)
        code, out, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.75", "--responses", str(resp),
            "--assignments", str(seqs), "--seed", "1",
        )
        assert (code, out) == (4, "")
        assert err == f"error: {message.format(r=resp, a=seqs)}\n"

    def test_constant_responses_info_exit_3(self, capsys, tmp_path):
        # no completion of 60 equal responses varies, so the final
        # statistic's variance is zero at the interim looks
        golden = Path(__file__).parent / "golden"
        resp = tmp_path / "constant.csv"
        resp.write_text("1.5\n" * 60)
        code, out, err = run_cli(
            capsys, "info", "--design", "bcd:0.75", "--schedule",
            str(golden / "schedule60.json"), "--responses", str(resp), "--seed", "1",
        )
        assert (code, out, err) == (3, "", "error: final-statistic variance is zero\n")

    @pytest.mark.parametrize("command", ["info", "boundaries"])
    @pytest.mark.parametrize("header", ["", "y,site\n"])
    def test_stratum_column_outside_pvalue_exit_4(
        self, capsys, monkeypatch, tmp_path, command, header
    ):
        # once read as if the labels were not there: the golden 60
        # responses, each labelled A or B, printed the unlabelled bytes
        golden = Path(__file__).parent / "golden"
        values = (golden / "responses60.csv").read_text().split()
        resp = tmp_path / "labelled.csv"
        resp.write_text(header + "".join(f"{v},{'AB'[i % 2]}\n" for i, v in enumerate(values)))
        monkeypatch.setattr(cli, "estimate_boundaries", _never_called)
        monkeypatch.setattr(cli, "information_at_look", _never_called)
        code, out, err = run_cli(
            capsys, command, "--design", "bcd:0.75", "--schedule",
            str(golden / "schedule60.json"), "--responses", str(resp), "--seed", "1",
        )
        assert (code, out) == (4, "")
        assert err == f"error: {resp}: only pvalue --stratified reads a stratum column (column 2)\n"

    @pytest.mark.parametrize(
        "assignments, message",
        [
            ("01\n", "2 strata but 1 assignment sequences"),
            ("010\n10\n", "stratum of size 2 has a sequence of length 3"),
        ],
    )
    def test_stratified_sequences_that_do_not_fit_exit_4(
        self, capsys, tmp_path, assignments, message
    ):
        resp, seqs = tmp_path / "r.csv", tmp_path / "s.txt"
        resp.write_text("1,A\n2,A\n3,B\n4,B\n")
        seqs.write_text(assignments)
        code, out, err = run_cli(
            capsys, "pvalue", "--design", "bcd:0.75", "--responses", str(resp),
            "--assignments", str(seqs), "--stratified", "--seed", "1",
        )
        assert (code, out, err) == (4, "", f"error: {message}\n")

    NOT_AN_INTEGER = "{s}: invalid schedule (look fields must be JSON integers, got "

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read {s}: "),
            ("not json", "{s}: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
            ('{"looks": [{"r": 4}]}', "{s}: invalid schedule ('n1')"),
            # each once sampled as the int() of its fields, 10:5 or 1:0
            (_one_look_schedule(10.7, 5.9), NOT_AN_INTEGER + "10.7)"),
            (_one_look_schedule(True, False), NOT_AN_INTEGER + "True)"),
            (_one_look_schedule("10", "5"), NOT_AN_INTEGER + "'10')"),
        ],
    )
    def test_unusable_schedule_file_exit_4(self, capsys, tmp_path, text, message):
        schedule = tmp_path / "schedule.json"
        if text is not None:
            schedule.write_text(text)
        code, out, err = run_cli(capsys, "sample", "--schedule", str(schedule), "--seed", "1")
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {message.format(s=schedule)}")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", ["pvalue", "info", "boundaries"])
    def test_third_response_field_exit_4(self, capsys, monkeypatch, tmp_path, command):
        # once read as the value and the stratum, the third field dropped:
        # each command ran on, pvalue --stratified over strata A and B
        golden = Path(__file__).parent / "golden"
        if command == "pvalue":
            values, labels = (golden / "responses40.csv").read_text().split(), "AB"
            seqs = tmp_path / "s.txt"
            seqs.write_text("01" * 10 + "\n" + "10" * 10 + "\n")
            argv = ["--assignments", str(seqs), "--stratified", "--reps", "100"]
        else:
            values, labels = (golden / "responses60.csv").read_text().split(), ("", "")
            argv = ["--schedule", str(golden / "schedule60.json")]
        monkeypatch.setattr(cli, "estimate_boundaries", _never_called)
        monkeypatch.setattr(cli, "information_at_look", _never_called)
        rows = [f"{v},{labels[i % 2]}" for i, v in enumerate(values)]
        rows[7] += ",junk"
        resp = tmp_path / "r.csv"
        resp.write_text("".join(row + "\n" for row in rows))
        code, out, err = run_cli(
            capsys, command, "--design", "bcd:0.75", "--responses", str(resp), *argv, "--seed", "1"
        )
        assert (code, out) == (4, "")
        assert err == f"error: {resp}:8: expected a value and a stratum, got {rows[7]!r}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--schedule", "{s}"], "no design given on the command line or in the schedule file"),
            (["--design", "bcd:0.75", "--n", "4"], "need either --schedule or both --n and --n1"),
            (["--n", "4", "--n1", "2"], "--design is required without a schedule file"),
        ],
    )
    def test_sample_without_a_design_or_look_exit_2(self, capsys, tmp_path, argv, message):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"looks": [{"r": 4, "n1": 2}]}))
        argv = [a.format(s=schedule) for a in argv]
        code, out, err = run_cli(capsys, "sample", *argv, "--seed", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")


_FAULTS = (
    "none", "nan", "inf", "-inf", "1e999", "text", "blank-value", "tied",
    "ragged-strata", "one-stratum", "header-only", "empty", "short",
)


@st.composite
def _trial_input(draw):
    """(response CSV text, horizon): clean rows with at most one fault."""
    n = draw(st.integers(1, 39))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    rows = [f"{v:.6g}" for v in values]
    fault = draw(st.sampled_from(_FAULTS))
    at = draw(st.integers(0, n - 1))
    if fault in ("nan", "inf", "-inf", "1e999"):
        rows[at] = fault
    elif fault == "text":
        rows[at] = "abc"
    elif fault == "blank-value":
        rows[at] = ",A"
    elif fault == "tied":
        rows = ["1"] * n
    elif fault == "ragged-strata":
        rows = [f"{r},{'AB'[i % 2]}" for i, r in enumerate(rows)]
        rows[at] = f"{values[at]:.6g}"
    elif fault == "one-stratum":
        rows = [f"{r},A" for r in rows]
    if fault == "empty":
        text = ""
    elif fault == "header-only":
        text = "value,stratum\n"
    else:
        header = "value,stratum\n" if draw(st.booleans()) else ""
        text = header + "".join(r + "\n" for r in rows)
    return text, n + 1 if fault == "short" else n


class TestMalformedInputFuzz:
    """Any response file ends in JSON output or a documented exit code."""

    @settings(max_examples=80, deadline=None)
    @given(
        trial=_trial_input(),
        command=st.sampled_from(["pvalue", "info", "boundaries"]),
        scores=st.sampled_from(["simple-rank", "raw"]),
        stratified=st.booleans(),
        bits=st.randoms(use_true_random=False),
    )
    def test_exit_code_or_valid_json(self, trial, command, scores, stratified, bits):
        text, n = trial
        assignments = [bits.randint(0, 1) for _ in range(n)]
        counts = np.cumsum(assignments)
        looks = sorted({max(1, n // 2), n})
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "r.csv").write_text(text)
            (tmp / "s.txt").write_text("".join(map(str, assignments)) + "\n")
            (tmp / "schedule.json").write_text(
                json.dumps({"looks": [{"r": r, "n1": int(counts[r - 1])} for r in looks]})
            )
            argv = [command, "--design", "bcd:0.75", "--responses", str(tmp / "r.csv"),
                    "--scores", scores, "--seed", "1", "--out", str(tmp / "out.json")]
            if command == "pvalue":
                argv += ["--assignments", str(tmp / "s.txt"), "--reps", "200"]
                if stratified:
                    argv.append("--stratified")
            else:
                argv += ["--schedule", str(tmp / "schedule.json"), "--bootstrap", "3"]
            if command == "boundaries":
                argv += ["--reps", "150", "--info", "interim"]
            code = main(argv)
            event(f"{command} exit {code}")
            if code == 0:
                json.loads((tmp / "out.json").read_text(), parse_constant=_reject_constant)
            else:
                assert code in (2, 3, 4)


def test_module_runs_the_command_line(capsys):
    argv = ["dist", "--design", "bcd:0.75", "--n", "20"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    done = subprocess.run(
        [sys.executable, "-m", "condrand", *argv], env=_env_with_src(), capture_output=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == want
