"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["figure", "1"],
            ["tables"],
            ["classify", "hydro_fragment"],
            ["sweep", "iccg", "--pes", "4", "8"],
            ["advise", "hydro_2d"],
            ["serve", "--campaign", "spec.json"],
            ["store", "stats"],
        ):
            assert parser.parse_args(argv).fn is not None

    def test_serve_requires_a_campaign_or_listen(self, capsys):
        # The parser accepts a bare `serve` (listen mode has no
        # --campaign), but running it without either flag is a usage
        # error at dispatch time.
        assert build_parser().parse_args(["serve"]).fn is not None
        assert main(["serve"]) == 2
        assert "--campaign" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hydro_fragment" in out
        assert "LFK#" in out

    def test_classify(self, capsys):
        assert main(["classify", "pic_1d_fragment", "--n", "200"]) == 0
        out = capsys.readouterr().out
        assert "Matched" in out
        assert "agrees" in out

    def test_classify_verbose(self, capsys):
        assert main(["classify", "first_diff", "--n", "200", "-v"]) == 0
        assert "stmt 0" in capsys.readouterr().out

    def test_classify_unknown_kernel(self, capsys):
        assert main(["classify", "fft"]) == 2
        assert "error" in capsys.readouterr().err

    def test_figure_bad_number(self, capsys):
        assert main(["figure", "9"]) == 2

    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Cache, ps 32" in out

    def test_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "first_diff",
                    "--n", "300",
                    "--pes", "1", "4",
                    "--page-sizes", "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "first_diff" in out
        assert "No Cache, ps 32" in out

    def test_sweep_no_cache(self, capsys):
        assert (
            main(
                [
                    "sweep", "first_diff", "--n", "200",
                    "--pes", "4", "--page-sizes", "32", "--cache", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Cache" in out  # the no-cache series

    def test_sweep_timed_backend_parallel_json(self, capsys, tmp_path):
        """The acceptance command shape: a timed mesh sweep, parallel,
        with backend-tagged JSON records."""
        out_path = tmp_path / "out.json"
        assert (
            main(
                [
                    "sweep", "iccg", "--n", "64",
                    "--backend", "timed", "--topology", "mesh",
                    "--pes", "2", "4", "--page-sizes", "32",
                    "--parallel", "--json", str(out_path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "topology" in captured.out  # record table, timed columns
        assert "[4/4]" in captured.err  # streamed progress line
        data = json.loads(out_path.read_text())
        assert data["backend"] == "timed"
        assert len(data["results"]) == 4
        for row in data["results"]:
            assert row["backend"] == "timed"
            assert row["topology"] == "mesh2d"
            assert "finish_time" in row and "speedup" in row

    def test_sweep_multi_topology_modes(self, capsys):
        assert (
            main(
                [
                    "sweep", "first_diff", "--n", "96",
                    "--backend", "timed",
                    "--topology", "mesh", "torus",
                    "--mode", "blocking", "multithreaded",
                    "--pes", "2", "--page-sizes", "32", "--cache", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "torus2d" in out
        assert "multithreaded" in out

    def test_sweep_untimed_vec_backend(self, capsys):
        """The columnar engine, end to end through the CLI, under its
        old spelling: ``untimed-vec`` resolves to the default
        ``untimed`` backend, which is series-friendly — a plain sweep
        keeps the paper's figure-style table."""
        assert (
            main(
                [
                    "sweep", "first_diff", "--n", "300",
                    "--backend", "untimed-vec",
                    "--pes", "1", "4", "--page-sizes", "32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "first_diff" in out
        assert "% of reads remote" in out

    def test_sweep_untimed_vec_record_table(self, capsys, tmp_path):
        """A multi-policy grid is not series-friendly — the columnar
        backend's extra metric column lands in the record table."""
        spec = {
            "name": "vec-records",
            "backend": "untimed-vec",
            "kernels": [{"name": "first_diff", "n": 300}],
            "pes": [4],
            "page_sizes": [32],
            "cache_elems": [64],
            "cache_policies": ["lru", "fifo"],
        }
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--campaign", str(path)]) == 0
        out = capsys.readouterr().out
        assert "first_diff" in out
        assert "page_fetches" in out  # the record table, not the series view
        assert "fifo" in out and "lru" in out

    def test_sweep_refuses_a_malformed_campaign_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kernels": ["iccg"], "pes": 4}))
        assert main(["sweep", "--campaign", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "$.pes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "document, needle",
        [
            ({"kernels": ["iccg"], "cache_policies": ["lur"]}, "'lur'"),
            ({"kernels": ["hydro_fragmnet"]}, "unknown kernel"),
        ],
    )
    def test_campaign_validate_refuses_typos(
        self, capsys, tmp_path, document, needle
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        assert main(["campaign", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and needle in out

    def test_sweep_unknown_backend(self, capsys):
        # "service" is an executor, not a backend.
        for backend in ("quantum", "service"):
            assert main(["sweep", "iccg", "--backend", backend]) == 2
            assert "unknown backend" in capsys.readouterr().err

    def _write_spec(self, path, name, pes):
        path.write_text(
            json.dumps(
                {
                    "name": name,
                    "kernels": [{"name": "first_diff", "n": 96}],
                    "pes": pes,
                    "page_sizes": [16],
                    "cache_elems": [0, 64],
                }
            )
        )

    def test_serve_runs_campaigns_over_one_service(self, capsys, tmp_path):
        spec_a, spec_b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_spec(spec_a, "serve-a", [1, 2])
        self._write_spec(spec_b, "serve-b", [2, 4])
        out_path = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve",
                    "--campaign", str(spec_a),
                    "--campaign", str(spec_b),
                    "--workers", "0",
                    "--json", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaigns over one evaluation service" in out
        assert "service stats" in out
        document = json.loads(out_path.read_text())
        assert len(document["campaigns"]) == 2
        assert document["service"]["completed_total"] >= 1
        for campaign in document["campaigns"]:
            assert campaign["backend"] == "untimed"  # the spec default
            assert campaign["executor"].startswith("service[")

    def test_serve_runs_each_spec_on_its_own_backend(self, capsys, tmp_path):
        """A timed spec is evaluated on the timed machine — no flag
        chooses the physics for it."""
        spec = tmp_path / "timed.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "serve-timed",
                    "backend": "timed",
                    "kernels": [{"name": "first_diff", "n": 96}],
                    "pes": [2],
                    "page_sizes": [32],
                    "cache_elems": [64],
                }
            )
        )
        out_path = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve", "--campaign", str(spec), "--workers", "0",
                    "--json", str(out_path),
                ]
            )
            == 0
        )
        (campaign,) = json.loads(out_path.read_text())["campaigns"]
        assert campaign["backend"] == "timed"
        assert all("finish_time" in row for row in campaign["results"])

    def test_advise(self, capsys):
        assert main(["advise", "first_diff", "--n", "300"]) == 0
        assert "recommended" in capsys.readouterr().out

    def test_show(self, capsys):
        assert main(["show", "hydro_fragment", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "DO k = 1, 10" in out
        assert "PROGRAM hydro_fragment" in out

    def test_report_parses(self):
        # The full report is exercised end-to-end by the benchmark
        # harness; here we only check the subcommand is wired up.
        args = build_parser().parse_args(["report"])
        assert args.fn is not None
