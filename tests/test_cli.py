"""Tests for the ``python -m repro.evaluation`` command-line interface."""

from __future__ import annotations

import tempfile

import pytest

from repro.evaluation.cli import build_parser, main


class TestArgumentParsing:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.repetitions == 100
        assert args.table == "all"
        # No-seed means "default 7" for the paper tables but "the full
        # default sweep" for --table chaos, so the parser keeps it None.
        assert args.seed is None
        assert args.chaos_live is False

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--table", "fig99"])


class TestExecution:
    def test_fig12a_only(self, capsys):
        assert main(["--table", "fig12a", "--repetitions", "3"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 12(a)" in output
        assert "SLP" in output and "UPnP" in output
        assert "Fig. 12(b)" not in output

    def test_fig12b_only(self, capsys):
        assert main(["--table", "fig12b", "--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 12(b)" in output
        assert "6. Bonjour to SLP" in output

    def test_all_tables_include_overhead_analysis(self, capsys):
        assert main(["--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 12(a)" in output
        assert "Fig. 12(b)" in output
        assert "Overhead relative" in output
        assert "%" in output

    def test_seed_changes_samples_but_not_shape(self, capsys):
        main(["--table", "fig12a", "--repetitions", "2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["--table", "fig12a", "--repetitions", "2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second
        assert "Paper median" in first and "Paper median" in second

    def test_chaos_table_runs_one_explicit_seed(self, capsys, tmp_path, monkeypatch):
        """`--table chaos --seed N` is the failing-seed repro path: it
        replays exactly one schedule and writes the BENCH artifact."""
        monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(tmp_path))
        assert main(["--table", "chaos", "--seed", "13"]) == 0
        output = capsys.readouterr().out
        assert "Chaos harness" in output
        assert "chaos-case-2-seed-13" in output
        assert "chaos-case-2-seed-7" not in output  # one seed, not the sweep
        assert "All runs loss-free" in output
        artifact = tmp_path / "BENCH_chaos.json"
        assert artifact.exists()
        payload = artifact.read_text()
        assert '"seeds": [' in payload and "13" in payload

    def test_table_artifacts_default_to_a_scratch_dir_not_the_cwd(
        self, capsys, tmp_path, monkeypatch
    ):
        """With ``REPRO_BENCH_RESULTS_DIR`` unset, a ``--table`` run
        leaves the working directory untouched: the artifact lands in
        ``repro-results`` under the temporary directory instead."""
        workdir = tmp_path / "checkout"
        scratch = tmp_path / "tmp"
        workdir.mkdir()
        scratch.mkdir()
        monkeypatch.delenv("REPRO_BENCH_RESULTS_DIR", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.chdir(workdir)
        assert main(["--table", "chaos", "--seed", "13"]) == 0
        capsys.readouterr()
        assert list(workdir.iterdir()) == []
        assert (scratch / "repro-results" / "BENCH_chaos.json").exists()

    def test_chaos_table_reports_bad_case_as_config_error(self, capsys):
        assert main(["--table", "chaos", "--concurrency-case", "9"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown case 9" in captured.err
        assert "FAILED seed" not in captured.out
