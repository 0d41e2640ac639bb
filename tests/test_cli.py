"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _pipeline_config, build_parser, main


class TestGenerateInspect:
    def test_generate_npz(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        assert main(["generate", str(path), "--flows", "200"]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "200 flows" in out

    def test_generate_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert main(["generate", str(path), "--flows", "100"]) == 0
        assert path.read_text().startswith("timestamp,")

    def test_inspect(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        main(["generate", str(path), "--flows", "150", "--seed", "3"])
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flows          : 150" in out
        assert "entropy" in out


class TestRun:
    @pytest.mark.parametrize(
        "task,solution,line",
        [
            ("cardinality", "lc", "relative error"),
            # Heavy changer runs the trace's halves as consecutive epochs.
            ("heavy_changer", "deltoid", "recall"),
        ],
        ids=["cardinality", "heavy_changer"],
    )
    def test_run_generated(self, capsys, task, solution, line):
        code = main(
            [
                "run",
                "--task",
                task,
                "--solution",
                solution,
                "--flows",
                "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert line in out
        assert "throughput" in out

    def test_shared_flags_keep_per_command_defaults(self):
        """The pipeline commands share parent parsers; a command's own
        defaults must not leak into the others."""
        parser = build_parser()
        args = {
            command: parser.parse_args([command])
            for command in ("run", "dash", "serve")
        }
        assert [a.flows for a in args.values()] == [5000, 2000, 2000]
        assert [a.hosts for a in args.values()] == [1, 2, 2]
        assert [a.solution for a in args.values()] == [
            "deltoid", "deltoid", "deltoid",
        ]
        assert [a.shadow_samples for a in args.values()] == [0, 128, 0]

    @pytest.mark.parametrize("command", ["run", "dash", "serve"])
    def test_every_front_end_takes_every_pipeline_dimension(
        self, tmp_path, monkeypatch, command
    ):
        """One argv sets every pipeline dimension on each front end,
        and each reads it into the same :class:`PipelineConfig`."""
        from repro.cluster import ClusterConfig
        from repro.faults import FaultPlan, moderate_plan
        from repro.framework.pipeline import PipelineConfig

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        plan = tmp_path / "plan.json"
        moderate_plan(seed=5).save(plan)
        slo = tmp_path / "slo.json"
        argv = [
            "--hosts", "3",
            "--cores", "2",
            "--fastpath-bytes", "4096",
            "--chaos", str(plan),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--checkpoint-every", "512",
            "--cluster", "4",
            "--aggregators", "2",
            "--listen", "127.0.0.2:9000",
            "--slo", str(slo),
            "--shadow-samples", "16",
            "--recorder-out", str(tmp_path / "dump.json"),
        ]
        args = build_parser().parse_args([command, *argv])
        assert _pipeline_config(args, None) == PipelineConfig(
            num_hosts=4,
            cores=2,
            fastpath_bytes=4096,
            faults=FaultPlan.load(plan),
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=512,
            cluster=ClusterConfig(
                aggregators=2, listen_host="127.0.0.2", listen_port=9000
            ),
            slo=str(slo),
            shadow_samples=16,
            recorder_path=str(tmp_path / "dump.json"),
        )

    def test_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        main(["generate", str(path), "--flows", "300"])
        capsys.readouterr()
        code = main(
            [
                "run",
                "--trace-file",
                str(path),
                "--task",
                "heavy_hitter",
                "--solution",
                "flowradar",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out

    def test_bad_task_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--task", "bogus"])

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--hosts", "num_hosts must be >= 1, got 0"),
            ("--cores", "cores must be >= 1, got 0"),
        ],
    )
    def test_zero_hosts_or_cores_is_a_usage_error(
        self, capsys, flag, message
    ):
        with pytest.raises(SystemExit) as exited:
            main(["run", "--flows", "200", flag, "0"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize(
        "flag, value", [("--aggregators", "3"), ("--listen", ":9000")]
    )
    def test_cluster_flags_without_cluster_are_a_usage_error(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exited:
            main([command, "--flows", "200", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            "error: --aggregators and --listen need --cluster N"
        )
        assert "Traceback" not in err

    def test_prom_alone_writes_the_metrics(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--prom`` turns telemetry on by itself; without ``--trace``
        no span tree is printed and no Chrome trace is written."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--flows", "300", "--prom", "m.prom"]) == 0
        assert "sketchvisor_switch_packets_total" in (
            (tmp_path / "m.prom").read_text()
        )
        assert "wrote Prometheus metrics to m.prom" in (
            capsys.readouterr().out
        )
        assert not (tmp_path / "epoch_trace.json").exists()

    def test_multicore_run(self, capsys):
        code = main(
            [
                "run",
                "--task",
                "heavy_hitter",
                "--solution",
                "flowradar",
                "--flows",
                "400",
                "--cores",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cores           : 2" in out
        assert "recall" in out

    def test_multicore_profile_writes_no_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        """The span tree and Chrome trace are --trace's, not --profile's."""
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "run",
                "--solution", "flowradar",
                "--flows", "400",
                "--cores", "2",
                "--profile",
                "--profile-hz", "0",
            ]
        )
        assert code == 0
        assert "stage profile" in capsys.readouterr().out
        assert not (tmp_path / "epoch_trace.json").exists()

    def test_repro_run_profile_artifacts(self, tmp_path, capsys):
        flame = tmp_path / "flame.html"
        folded = tmp_path / "stacks.folded"
        code = main(
            [
                "run",
                "--task",
                "heavy_hitter",
                "--solution",
                "univmon",
                "--flows",
                "400",
                "--profile",
                "--profile-hz",
                "200",
                "--flame-out",
                str(flame),
                "--folded-out",
                str(folded),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "stage profile" in captured
        assert "epoch attribution" in captured
        assert flame.read_text().startswith("<!DOCTYPE html>")
        assert folded.exists()

    def test_convert_roundtrip(self, tmp_path, capsys):
        npz = tmp_path / "t.npz"
        pcap = tmp_path / "t.pcap"
        csv = tmp_path / "t.csv"
        main(["generate", str(npz), "--flows", "120"])
        assert main(["convert", str(npz), str(pcap)]) == 0
        assert main(["convert", str(pcap), str(csv)]) == 0
        out = capsys.readouterr().out
        assert "converted" in out
        assert csv.read_text().startswith("timestamp,")

    def test_bench_summary_missing_dir(self, tmp_path):
        assert (
            main(
                [
                    "bench-summary",
                    "--results-dir",
                    str(tmp_path / "none"),
                ]
            )
            == 1
        )

    def test_bench_summary_lists_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig01.txt").write_text("Title line\n====\nrow\n")
        code = main(
            ["bench-summary", "--results-dir", str(results), "--full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "row" in out

    def test_dataplane_choices(self, capsys):
        code = main(
            [
                "run",
                "--task",
                "cardinality",
                "--solution",
                "kmin",
                "--flows",
                "300",
                "--dataplane",
                "ideal",
                "--recovery",
                "nr",
            ]
        )
        assert code == 0
        assert "ideal" in capsys.readouterr().out


class TestAccuracyCLI:
    def _slo_file(self, tmp_path, threshold=1.1):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "name": "recall-floor",
                            "metric": (
                                "sketchvisor_accuracy_empirical_hh_recall"
                            ),
                            "op": ">=",
                            "threshold": threshold,
                        }
                    ]
                }
            )
        )
        return path

    def test_run_with_breaching_slo(self, tmp_path, capsys):
        dump = tmp_path / "recorder.json"
        code = main(
            [
                "run",
                "--task", "heavy_hitter",
                "--solution", "deltoid",
                "--flows", "600",
                "--shadow-samples", "64",
                "--slo", str(self._slo_file(tmp_path)),
                "--recorder-out", str(dump),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ACCURACY_SLO_BREACH" in out
        assert "empirical ARE" in out
        assert "flight recorder" in out
        loaded = json.loads(dump.read_text())
        assert loaded["reason"] == "slo_breach"
        assert loaded["events"][-1]["kind"] == "slo_breach"

    def test_run_with_satisfied_slo(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--task", "heavy_hitter",
                "--solution", "deltoid",
                "--flows", "600",
                "--shadow-samples", "64",
                "--slo", str(self._slo_file(tmp_path, threshold=0.0)),
            ]
        )
        assert code == 0
        assert "ACCURACY_SLO_BREACH" not in capsys.readouterr().out

    # Heavy changer runs the trace's halves as consecutive epochs.
    @pytest.mark.parametrize("task", ["heavy_hitter", "heavy_changer"])
    def test_telemetry_format_and_output(self, tmp_path, capsys, task):
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "run",
                "--task", task,
                "--flows", "400",
                "--prom", str(prom),
            ]
        )
        assert code == 0
        text = prom.read_text()
        assert "# TYPE sketchvisor_switch_packets_total counter" in text
        snapshot_path = tmp_path / "snapshot.json"
        code = main(
            [
                "run",
                "--task", task,
                "--flows", "400",
                "--json", str(snapshot_path),
            ]
        )
        assert code == 0
        snapshot = json.loads(snapshot_path.read_text())
        assert "sketchvisor_switch_packets_total" in snapshot["metrics"]

    def test_telemetry_includes_durability_counters(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "run",
                "--flows", "400",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--prom", "-",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sketchvisor_checkpoint_writes_total" in out

    def test_dash_plain_and_html(self, tmp_path, capsys):
        html = tmp_path / "report.html"
        code = main(
            [
                "dash",
                "--epochs", "2",
                "--flows", "400",
                "--shadow-samples", "32",
                "--plain",
                "--html", str(html),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out
        assert "throughput_gbps" in out
        document = html.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "viz-root" in document
        payload = json.loads(
            document.split('id="dash-data">')[1].split("</script>")[0]
        )
        assert len(payload["rows"]) == 2


class TestCoresCompose:
    """``run --cores`` goes through the one epoch driver, so it
    composes with every other pipeline flag."""

    LINES = ("recall", "precision", "relative error", "throughput",
             "fast-path bytes")

    def _run(self, capsys, *flags) -> tuple[int, dict[str, str]]:
        code = main(["run", "--flows", "600", "--cores", "2", *flags])
        lines = {}
        for line in capsys.readouterr().out.splitlines():
            name, colon, value = line.partition(":")
            if colon:
                lines.setdefault(name.strip(), value.strip())
        return code, lines

    def _crash_plan(self, tmp_path, cell: int):
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        path = tmp_path / f"crash_cell_{cell}.json"
        FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    FaultKind.DATAPLANE_CRASH,
                    epoch=0,
                    host=cell,
                    packet_offset=500,
                )
            ],
        ).save(path)
        return str(path)

    def test_cores_with_hosts(self, capsys):
        code, lines = self._run(capsys, "--hosts", "2")
        assert code == 0
        assert lines["hosts"] == "2"
        assert lines["cores"] == "2"
        assert "recall" in lines

    def test_cores_with_cluster_sends_one_frame_per_host(
        self, capsys, monkeypatch
    ):
        import repro.cluster.transport as transport

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        accepted = []
        accept_frame = transport.accept_frame

        def counting(frame, *args):
            verdict, report = accept_frame(frame, *args)
            accepted.append(None if report is None else report.host_id)
            return verdict, report

        monkeypatch.setattr(transport, "accept_frame", counting)
        code, lines = self._run(capsys, "--cluster", "4")
        assert code == 0
        assert lines["cluster"].startswith("4 host(s) -> ")
        assert sorted(accepted) == [0, 1, 2, 3]

    def test_cores_with_chaos_loses_the_host_of_a_crashed_core(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without a checkpoint directory a crashed core is lost, and
        so is its host: cell 3 is core 1 of host 1."""
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        code, lines = self._run(
            capsys,
            "--hosts", "2",
            "--chaos", self._crash_plan(tmp_path, cell=3),
        )
        assert code == 0
        assert lines["chaos"].endswith("1 host(s) missing")
        assert lines["degraded epoch"].startswith("hosts (1,) missing")

    def test_cores_with_checkpoint_dir_recovers_a_crashed_core(
        self, tmp_path, capsys
    ):
        """A dp_crash on core 1 restores from that core's checkpoints
        and replays: the same answer as the uncrashed run."""
        clean_code, clean = self._run(
            capsys, "--checkpoint-dir", str(tmp_path / "clean")
        )
        code, crashed = self._run(
            capsys,
            "--checkpoint-dir", str(tmp_path / "crashed"),
            "--checkpoint-every", "256",
            "--chaos", self._crash_plan(tmp_path, cell=1),
        )
        assert clean_code == code == 0
        assert "1 host(s) recovered" in crashed["durability"]
        assert (tmp_path / "crashed" / "host_0001").is_dir()
        for name in self.LINES:
            assert crashed[name] == clean[name], name


class TestClusterCli:
    """``run --cluster`` exit codes and the ``--soak`` loop."""

    def _quorum_fail_plan(self, tmp_path):
        """Pin PARTITION on 3 of 4 hosts: below the 50% quorum."""
        from repro.faults import FaultPlan
        from repro.faults.plan import FaultKind, FaultSpec

        path = tmp_path / "quorum_fail.json"
        FaultPlan(
            seed=3,
            specs=[
                FaultSpec(kind=FaultKind.PARTITION, host=host)
                for host in (0, 1, 2)
            ],
        ).save(path)
        return path

    def test_cluster_below_quorum_exits_nonzero(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "run",
                "--cluster", "4",
                "--aggregators", "2",
                "--flows", "300",
                "--chaos", str(self._quorum_fail_plan(tmp_path)),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "QUORUM FAILED" in captured.err
        assert "quorum requires 2" in captured.err

    def test_soak_runs_multiple_epochs(self, tmp_path, capsys):
        dump = tmp_path / "soak_recorder.json"
        code = main(
            [
                "run",
                "--cluster", "8",
                "--aggregators", "3",
                "--flows", "300",
                "--soak", "2",
                "--recorder-out", str(dump),
                "--prom", str(tmp_path / "soak.prom"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch   0:" in out
        assert "epoch   1:" in out
        assert "soak" in out
        assert "0 quorum failure(s)" in out
        assert json.loads(dump.read_text())["reason"] == "soak"
        # The export is written after the loop and covers both epochs.
        prom = (tmp_path / "soak.prom").read_text()
        assert 'sketchvisor_controller_epochs_total{quality="full"} 2' in prom
        assert "sketchvisor_cluster_aggregators 3" in prom

    def test_soak_quorum_failures_exit_nonzero(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "run",
                "--cluster", "4",
                "--aggregators", "2",
                "--flows", "300",
                "--chaos", str(self._quorum_fail_plan(tmp_path)),
                "--soak", "2",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "QUORUM FAILED" in out
        assert "2 quorum failure(s)" in out
