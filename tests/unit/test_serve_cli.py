"""CLI surface of the serving layer: ``repro serve`` and ``repro jobs``."""

import json

import pytest

from repro.campaign.spec import CampaignSpec, GridSpace
from repro.campaign.store import ResultStore
from repro.cli import build_parser, main
from repro.serve import job_id_for


def _partial_store(path, done=2):
    spec = CampaignSpec.create(
        name="cli-map",
        space=GridSpace.of(separation=[2.0, 4.0], ratio=[0.05, 0.1]),
        task="stability_cell",
    )
    store = ResultStore.create(path, spec)
    for point_id, params in list(spec.points())[:done]:
        store.append_point(
            {
                "kind": "point",
                "id": point_id,
                "status": "ok",
                "params": params,
                "metrics": {"z_stable": 1.0},
                "elapsed": 0.0,
            }
        )
    store.close()
    return spec


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080 and args.host == "127.0.0.1"
        assert args.workers == 4 and args.max_inflight == 64
        assert args.cache_bytes is None and args.cache_ttl is None
        assert args.jobs_dir is None

    def test_serve_all_knobs(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--workers", "2",
                "--max-inflight", "8",
                "--cache-bytes", "1000000",
                "--cache-ttl", "30",
                "--cache-shards", "2",
                "--spill-threshold", "10",
                "--jobs-dir", "jobs",
                "--manifest", "m.json",
            ]
        )
        assert args.cache_bytes == 1_000_000 and args.cache_ttl == 30.0
        assert args.spill_threshold == 10 and args.jobs_dir == "jobs"

    def test_jobs_positional_and_id(self):
        args = build_parser().parse_args(["jobs", "some/dir", "--id", "abc"])
        assert args.command == "jobs"
        assert args.store == "some/dir" and args.id == "abc"

    def test_help_mentions_serving(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["serve", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "--max-inflight" in out and "429" in out
        assert "--cache-bytes" in out and "--jobs-dir" in out


class TestServeErrors:
    def test_bad_port_is_clean_error(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "port" in err
        assert main(["serve", "--port", "-1"]) == 2

    def test_bad_workers_and_inflight(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        assert main(["serve", "--max-inflight", "0"]) == 2
        assert "max-inflight" in capsys.readouterr().err

    def test_bad_cache_bytes(self, capsys):
        assert main(["serve", "--cache-bytes", "0"]) == 2
        assert "cache-bytes" in capsys.readouterr().err

    def test_port_in_use_is_clean_error(self, capsys):
        import socket

        sock = socket.socket()
        try:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            sock.close()


class TestJobs:
    def test_missing_path_is_clean_error(self, capsys):
        assert main(["jobs", "/nonexistent/jobs-dir"]) == 2
        assert "no jobs directory" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["jobs", str(tmp_path)]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_directory_lists_jobs(self, tmp_path, capsys):
        spec = _partial_store(tmp_path / "aaaa.jsonl", done=2)
        _ = spec
        assert main(["jobs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aaaa" in out and "running/partial" in out
        assert "2 ok" in out and "2 pending" in out

    def test_single_store_prints_json(self, tmp_path, capsys):
        _partial_store(tmp_path / "bbbb.jsonl", done=1)
        assert main(["jobs", str(tmp_path / "bbbb.jsonl")]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["done"] == 1 and status["pending"] == 3
        assert status["task"] == "stability_cell"

    def test_id_selects_store_in_directory(self, tmp_path, capsys):
        spec = _partial_store(tmp_path / "x.jsonl", done=1)
        job_id = job_id_for(spec)
        (tmp_path / "x.jsonl").rename(tmp_path / f"{job_id}.jsonl")
        assert main(["jobs", str(tmp_path), "--id", job_id]) == 0
        assert json.loads(capsys.readouterr().out)["done"] == 1

    def test_id_on_a_file_is_clean_error(self, tmp_path, capsys):
        _partial_store(tmp_path / "cc.jsonl", done=1)
        assert main(["jobs", str(tmp_path / "cc.jsonl"), "--id", "cc"]) == 2
        assert "jobs directory" in capsys.readouterr().err

    def test_unknown_id_is_clean_error(self, tmp_path, capsys):
        assert main(["jobs", str(tmp_path), "--id", "nope"]) == 2
        assert "no job" in capsys.readouterr().err

    def test_store_that_is_a_directory_is_clean_error(self, tmp_path, capsys):
        """A directory named like a store: ResultStore.open's pointed error
        surfaces through ``repro jobs`` as a clean exit-2 message."""
        bad = tmp_path / "weird.jsonl"
        bad.mkdir()
        assert main(["jobs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "unreadable" in out or "no jobs" in out
