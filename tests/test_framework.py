"""Registry (Table 1) and the end-to-end pipeline."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.recovery import RecoveryMode
from repro.durability import DEFAULT_CHECKPOINT_EVERY
from repro.faults import FaultPlan
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.framework.registry import TASK_REGISTRY, create_task
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import Telemetry
from repro.traffic.anomalies import inject_heavy_changes


class TestRegistry:
    def test_all_seven_tasks_present(self):
        assert set(TASK_REGISTRY) == {
            "heavy_hitter",
            "heavy_changer",
            "ddos",
            "superspreader",
            "cardinality",
            "flow_size_distribution",
            "entropy",
        }

    def test_table1_solution_lists(self):
        assert TASK_REGISTRY["heavy_hitter"][1] == (
            "flowradar",
            "revsketch",
            "univmon",
            "deltoid",
        )
        assert TASK_REGISTRY["ddos"][1] == ("twolevel",)
        assert TASK_REGISTRY["cardinality"][1] == ("fm", "kmin", "lc")

    def test_create_task(self):
        task = create_task("heavy_hitter", "deltoid", threshold=1000)
        assert isinstance(task, HeavyHitterTask)
        assert task.threshold == 1000

    def test_create_task_validation(self):
        with pytest.raises(ConfigError):
            create_task("bogus", "deltoid")
        with pytest.raises(ConfigError):
            create_task("heavy_hitter", "twolevel", threshold=1)

    def test_every_registered_pair_constructs(self):
        for task_name, (_cls, solutions) in TASK_REGISTRY.items():
            for solution in solutions:
                kwargs = {}
                if task_name in ("heavy_hitter", "heavy_changer"):
                    kwargs["threshold"] = 1000
                task = create_task(task_name, solution, **kwargs)
                sketch = task.create_sketch(seed=1)
                assert sketch.memory_bytes() > 0


class TestPipeline:
    def test_recovery_modes_ordered(self, medium_trace, medium_truth):
        threshold = 0.005 * medium_truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        recalls = {}
        for mode in (
            RecoveryMode.NO_RECOVERY,
            RecoveryMode.SKETCHVISOR,
        ):
            pipeline = SketchVisorPipeline(task, recovery=mode)
            result = pipeline.run_epoch(medium_trace, medium_truth)
            recalls[mode] = result.score.recall
        assert (
            recalls[RecoveryMode.SKETCHVISOR]
            > recalls[RecoveryMode.NO_RECOVERY]
        )

    def test_ideal_mode_no_fastpath_traffic(
        self, medium_trace, medium_truth
    ):
        threshold = 0.005 * medium_truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        pipeline = SketchVisorPipeline(
            task, dataplane=DataPlaneMode.IDEAL
        )
        result = pipeline.run_epoch(medium_trace, medium_truth)
        assert result.fastpath_byte_fraction == 0.0
        assert result.score.recall >= 0.95

    def test_multi_host_accuracy(self, medium_trace, medium_truth):
        threshold = 0.005 * medium_truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        pipeline = SketchVisorPipeline(
            task, config=PipelineConfig(num_hosts=4)
        )
        result = pipeline.run_epoch(medium_trace, medium_truth)
        assert result.network.num_hosts == 4
        assert result.score.recall >= 0.9

    def test_heavy_changer_via_pair(self, small_trace):
        epoch_a, epoch_b, _changers = inject_heavy_changes(
            small_trace, small_trace, num_changers=3, change_bytes=300_000
        )
        task = HeavyChangerTask("flowradar", threshold=150_000)
        pipeline = SketchVisorPipeline(task)
        pipeline.run_epoch(epoch_a)
        result = pipeline.run_epoch(epoch_b)
        assert result.score.recall >= 0.9

    def test_heavy_changer_answers_from_second_epoch(self, small_trace):
        hc = SketchVisorPipeline(HeavyChangerTask("deltoid", threshold=1))
        assert hc.run_epoch(small_trace) is None
        result = hc.run_epoch(small_trace)
        assert result.answer == {}
        assert result.score.extra == {"reported": 0, "true": 0}

    def test_mg_fastpath_mode_uses_misra_gries(self, small_trace):
        from repro.fastpath.misra_gries import MisraGriesTopK

        task = HeavyHitterTask("deltoid", threshold=10_000)
        pipeline = SketchVisorPipeline(
            task, dataplane=DataPlaneMode.MG_FASTPATH
        )
        hosts = pipeline._build_hosts()
        assert isinstance(hosts[0].fastpath, MisraGriesTopK)

    def test_throughput_property(self, small_trace, small_truth):
        task = HeavyHitterTask("deltoid", threshold=10_000)
        pipeline = SketchVisorPipeline(task)
        result = pipeline.run_epoch(small_trace, small_truth)
        assert result.throughput_gbps > 0


ENV_SWITCHES = (
    "REPRO_TELEMETRY",
    "REPRO_PROFILE",
    "REPRO_CHAOS",
    "REPRO_CHECKPOINT_DIR",
    "REPRO_CHECKPOINT_EVERY",
)


#: The checkpoint fields of a config the checkpoint switches left alone.
NO_CHECKPOINT = (None, DEFAULT_CHECKPOINT_EVERY)


def _given(name):
    """A value passed to ``PipelineConfig`` explicitly."""
    return {
        "telemetry": Telemetry,
        "faults": lambda: FaultPlan(seed=5),
        "checkpoint_dir": lambda: "given-dir",
    }[name]()


class TestEnvSwitches:
    """What ``PipelineConfig()`` resolves the five ``REPRO_*`` switches
    to: one table, read in one place."""

    # env set, fields given, expected telemetry ("plain" / "profiled" /
    # None), chaos plan seed (None: no plan), (checkpoint dir, every).
    TABLE = [
        pytest.param({}, (), None, None, NO_CHECKPOINT, id="unset"),
        pytest.param(
            {"REPRO_TELEMETRY": "1"}, (), "plain", None, NO_CHECKPOINT,
            id="telemetry-on",
        ),
        pytest.param(
            {"REPRO_TELEMETRY": "0"}, (), None, None, NO_CHECKPOINT,
            id="telemetry-zero",
        ),
        pytest.param(
            {"REPRO_PROFILE": "1"}, (), "profiled", None, NO_CHECKPOINT,
            id="profile-on",
        ),
        pytest.param(
            {"REPRO_PROFILE": "0"}, (), None, None, NO_CHECKPOINT,
            id="profile-zero",
        ),
        pytest.param(
            {"REPRO_PROFILE": "1"}, ("telemetry",), "profiled", None,
            NO_CHECKPOINT, id="profile-given-telemetry",
        ),
        pytest.param(
            {"REPRO_TELEMETRY": "1"}, ("telemetry",), "plain", None,
            NO_CHECKPOINT, id="telemetry-given",
        ),
        pytest.param(
            {"REPRO_CHAOS": "1"}, (), None, 0, NO_CHECKPOINT,
            id="chaos-on",
        ),
        pytest.param(
            {"REPRO_CHAOS": "0"}, (), None, None, NO_CHECKPOINT,
            id="chaos-zero",
        ),
        pytest.param(
            {"REPRO_CHAOS": "99"}, (), None, 99, NO_CHECKPOINT,
            id="chaos-seeded",
        ),
        pytest.param(
            {"REPRO_CHAOS": "yes"}, (), None, 0, NO_CHECKPOINT,
            id="chaos-word",
        ),
        pytest.param(
            {"REPRO_CHAOS": "99"}, ("faults",), None, 5, NO_CHECKPOINT,
            id="chaos-given",
        ),
        pytest.param(
            {"REPRO_CHECKPOINT_DIR": "env-dir"}, (), None, None,
            ("env-dir", DEFAULT_CHECKPOINT_EVERY), id="checkpoint-dir",
        ),
        pytest.param(
            {
                "REPRO_CHECKPOINT_DIR": "env-dir",
                "REPRO_CHECKPOINT_EVERY": "123",
            },
            (), None, None, ("env-dir", 123),
            id="checkpoint-dir-and-every",
        ),
        pytest.param(
            {"REPRO_CHECKPOINT_EVERY": "123"}, (), None, None,
            NO_CHECKPOINT, id="checkpoint-every-alone",
        ),
        pytest.param(
            {
                "REPRO_CHECKPOINT_DIR": "env-dir",
                "REPRO_CHECKPOINT_EVERY": "123",
            },
            ("checkpoint_dir",), None, None,
            ("given-dir", DEFAULT_CHECKPOINT_EVERY), id="checkpoint-given",
        ),
    ]

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in ENV_SWITCHES:
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize(
        "env, given, telemetry, chaos_seed, checkpoint", TABLE
    )
    def test_resolves(
        self, monkeypatch, env, given, telemetry, chaos_seed, checkpoint
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        fields = {name: _given(name) for name in given}
        config = PipelineConfig(**fields)
        if "telemetry" in fields:
            assert config.telemetry is fields["telemetry"]
        if telemetry is None:
            assert config.telemetry is None
        else:
            assert isinstance(config.telemetry, Telemetry)
            assert (config.telemetry.profiler is not None) == (
                telemetry == "profiled"
            )
        if chaos_seed is None:
            assert config.faults is None
        else:
            assert config.faults.seed == chaos_seed
            if "faults" not in fields:
                assert config.faults.active  # moderate_plan
        assert (
            config.checkpoint_dir,
            config.checkpoint_every,
        ) == checkpoint

    @pytest.mark.parametrize("every", ["zero", "abc", "-3", "0"])
    def test_malformed_checkpoint_interval_raises(
        self, monkeypatch, every
    ):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "env-dir")
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", every)
        with pytest.raises(ConfigError, match="REPRO_CHECKPOINT_EVERY"):
            PipelineConfig()
