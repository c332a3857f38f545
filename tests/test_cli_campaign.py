"""CLI coverage for the campaign engine flags.

``campaign`` / ``cdf`` / ``report`` with ``--workers`` and
``--cache-dir``: exit codes, table output smoke checks, and the
progress stream on stderr.
"""

import pytest

from repro.cli import build_parser, main


class TestCampaignFlags:
    def test_campaign_with_workers(self, capsys):
        code = main(["campaign", "--runs", "2", "--seed", "3",
                     "--start-distance", "4.0", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table II analogue" in captured.out
        assert "Table III analogue" in captured.out
        assert "simulated" in captured.err

    def test_campaign_cache_roundtrip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        argv = ["campaign", "--runs", "2", "--seed", "3",
                "--start-distance", "4.0", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "simulated" in cold.err
        from repro.core.artifacts import ArtifactStore

        assert len(ArtifactStore(cache_dir).keys()) == 2

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "cached" in warm.err
        assert "simulated" not in warm.err
        # The cached campaign prints the identical tables.
        assert warm.out == cold.out

    def test_cdf_reuses_campaign_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        common = ["--runs", "3", "--seed", "5",
                  "--start-distance", "4.0", "--cache-dir", cache_dir]
        assert main(["campaign"] + common) == 0
        capsys.readouterr()
        assert main(["cdf"] + common) == 0
        captured = capsys.readouterr()
        assert "AIC" in captured.out
        assert "cached" in captured.err
        assert "simulated" not in captured.err

    def test_cdf_with_workers(self, capsys):
        code = main(["cdf", "--runs", "3", "--seed", "5",
                     "--start-distance", "4.0", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "AIC" in captured.out

    def test_report_with_engine_flags(self, tmp_path, capsys):
        out_path = tmp_path / "r.md"
        code = main(["report", "--quick", "--output", str(out_path),
                     "--workers", "2",
                     "--cache-dir", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert code == 0
        assert out_path.exists()
        assert "Reproduction report" in captured.out

    def test_workers_must_be_non_negative(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--workers", "-1"])

    def test_workers_zero_parses_as_auto(self):
        args = build_parser().parse_args(
            ["campaign", "--workers", "0"])
        assert args.workers == 0

    def test_cache_dir_not_a_directory_fails_cleanly(self, tmp_path):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(SystemExit, match="usable directory"):
            main(["campaign", "--runs", "1",
                  "--cache-dir", str(blocker)])

    def test_default_is_serial_no_cache(self):
        args = build_parser().parse_args(["campaign"])
        assert args.workers == 1
        assert args.cache_dir is None
