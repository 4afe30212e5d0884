"""Tests for tuning records, the in-memory cache and the shared tuning session."""

import pytest

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnitCpuRunner, UnitGpuRunner, compile_model_batch, experiments
from repro.hwsim import CostBreakdown
from repro.rewriter import (
    SCHEMA_VERSION,
    CpuTuningConfig,
    GpuTuningConfig,
    ShardedTuningStore,
    TuningCache,
    TuningKey,
    TuningRecord,
    TuningSession,
    cost_model_fingerprint,
    params_fingerprint,
    record_staleness,
    space_fingerprint,
)
from repro.workloads import Conv2DParams, DenseParams, table1_layer


def _key(space="full@test", kind="conv2d", params=None):
    params = params or table1_layer(5)
    return TuningKey(
        kind=kind,
        params=params_fingerprint(params),
        intrinsic="x86.avx512.vpdpbusd",
        machine="cascade-lake",
        space=space,
    )


class TestFingerprints:
    def test_params_fingerprint_ignores_name(self):
        a = Conv2DParams(64, 14, 14, 128, 3, name="stage1_conv")
        b = Conv2DParams(64, 14, 14, 128, 3, name="stage4_conv")
        assert params_fingerprint(a) == params_fingerprint(b)

    def test_params_fingerprint_distinguishes_shapes(self):
        a = Conv2DParams(64, 14, 14, 128, 3)
        b = Conv2DParams(64, 14, 14, 128, 3, stride=2)
        assert params_fingerprint(a) != params_fingerprint(b)

    def test_params_fingerprint_equals_the_asdict_spelling(self):
        """``params_fingerprint`` reads fields directly; the value must stay
        what ``dataclasses.asdict`` produced, or every persisted record
        misses: every key of the nine-model zoo sweep on the three targets,
        the 16 Table I layers and a 3-D convolution."""
        import dataclasses

        from repro.models.zoo import EVALUATED_MODELS, get_model
        from repro.rewriter import tasks_from_graph
        from repro.workloads import Conv3DParams
        from repro.workloads.table1 import TABLE1_LAYERS

        def by_asdict(params):
            items = sorted(dataclasses.asdict(params).items())
            return tuple((k, v) for k, v in items if k != "name")

        swept = [
            task.params
            for model in EVALUATED_MODELS
            for target in ("x86", "arm", "cuda")
            for task in tasks_from_graph(get_model(model, fresh=True), target=target)
        ]
        assert len(swept) > 100 and {type(p) for p in swept} == {Conv2DParams, DenseParams}
        for params in [*swept, *TABLE1_LAYERS, Conv3DParams(16, 8, 28, 28, 32, 3, name="c3d")]:
            assert params_fingerprint(params) == by_asdict(params)

    def test_space_fingerprint_depends_on_candidates(self):
        full = space_fingerprint("full", [CpuTuningConfig()])
        other = space_fingerprint("full", [CpuTuningConfig(unroll_limit=4)])
        assert full != other
        assert full.startswith("full@")


class TestTuningCache:
    def test_hit_miss_accounting(self):
        cache = TuningCache()
        key = _key()
        assert cache.lookup(key) is None
        cache.insert(
            TuningRecord(
                key=key,
                best_config=CpuTuningConfig(),
                best_cost=1e-5,
                num_trials=3,
                breakdown=CostBreakdown(seconds=1e-5),
            )
        )
        assert cache.lookup(key) is not None
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_roundtrip_identical_configs_and_costs(self, tmp_path):
        records = [
            TuningRecord(
                key=_key("full@aa"),
                best_config=CpuTuningConfig(parallel_extent=1536, unroll_limit=4),
                best_cost=2.5e-5,
                num_trials=16,
                breakdown=CostBreakdown(
                    seconds=2.5e-5, compute_seconds=2e-5, detail={"macs": 1.0}
                ),
            ),
            TuningRecord(
                key=_key("tune@bb", kind="dense", params=DenseParams(1, 2048, 1000)),
                best_config=GpuTuningConfig(outer_product_p=2, fuse_spatial=True, split_k=64),
                best_cost=1.5e-6,
                num_trials=24,
                breakdown=CostBreakdown(seconds=1.5e-6, memory_seconds=1e-6),
            ),
            TuningRecord(  # a memoised library record: no config at all
                key=_key("library:onednn"),
                best_config=None,
                best_cost=4e-5,
                num_trials=0,
                breakdown=CostBreakdown(seconds=4e-5),
            ),
        ]
        store = ShardedTuningStore(tmp_path / "tuning", shards=1)
        for record in records:
            store.put(record)

        loaded = ShardedTuningStore(tmp_path / "tuning").load()
        assert len(loaded) == 3
        for record in records:
            got = loaded.lookup(record.key)
            assert got is not None
            assert got.best_config == record.best_config
            assert got.best_cost == record.best_cost
            assert got.num_trials == record.num_trials
            assert got.breakdown == record.breakdown

    def test_load_merges_and_overwrites(self, tmp_path):
        key = _key()
        stale = TuningRecord(
            key=key,
            best_config=CpuTuningConfig(),
            best_cost=9.0,
            num_trials=1,
            breakdown=CostBreakdown(seconds=9.0),
        )
        fresh = TuningRecord(
            key=key,
            best_config=CpuTuningConfig(unroll_limit=4),
            best_cost=1.0,
            num_trials=16,
            breakdown=CostBreakdown(seconds=1.0),
        )
        on_disk = ShardedTuningStore(tmp_path / "store", shards=1)
        on_disk.put(fresh)

        cache = TuningCache()
        cache.insert(stale)
        assert on_disk.load_into(cache) == 1
        assert cache.lookup(key).best_cost == 1.0


class TestCorruptAndStaleLines:
    """Line triage itself (torn, garbage, stale, non-object) is tested where
    lines are read: ``tests/rewriter/test_store.py`` and
    ``test_decode_record_line_triage`` below."""

    def test_record_staleness_reasons(self):
        record = TuningRecord(
            key=_key(),
            best_config=None,
            best_cost=1.0,
            num_trials=0,
            breakdown=CostBreakdown(seconds=1.0),
        )
        data = record.to_json()
        assert record_staleness(data) is None
        assert "schema" in record_staleness({**data, "schema": 0})
        assert "cost model" in record_staleness({**data, "cost_model": "x" * 12})

    def test_fingerprint_is_stable_within_process(self):
        assert cost_model_fingerprint() == cost_model_fingerprint()
        assert len(cost_model_fingerprint()) == 12

    def test_persisted_lines_carry_version(self, tmp_path):
        store = ShardedTuningStore(tmp_path / "store", shards=1)
        store.put(
            TuningRecord(
                key=_key(),
                best_config=CpuTuningConfig(),
                best_cost=1e-5,
                num_trials=4,
                breakdown=CostBreakdown(seconds=1e-5),
            )
        )
        data = json.loads(open(store.shard_path(0), encoding="utf-8").readline())
        assert data["schema"] == SCHEMA_VERSION
        assert data["cost_model"] == cost_model_fingerprint()


class TestTuningSession:
    def test_cache_hit_bypasses_evaluate(self):
        session = TuningSession()
        calls = []

        def evaluate(cfg):
            calls.append(cfg)
            return CostBreakdown(seconds=1.0 / (1 + cfg.unroll_limit))

        candidates = [CpuTuningConfig(unroll_limit=u) for u in (2, 4, 8)]
        key = _key()
        first = session.tune(key, candidates, evaluate)
        # len(candidates) search evaluations + 1 final evaluation of the best.
        assert len(calls) == 4
        second = session.tune(key, candidates, evaluate)
        assert len(calls) == 4  # untouched: the hit did no evaluation
        assert second.breakdown is first.breakdown
        assert session.trials_run == 3
        assert session.stats.hits == 1

    def test_runners_share_one_session(self):
        session = TuningSession()
        layer = table1_layer(5)
        a = UnitCpuRunner(tuning="full", session=session)
        b = UnitCpuRunner(tuning="full", session=session)
        first = a.conv2d_latency(layer)
        trials = session.trials_run
        second = b.conv2d_latency(layer)
        assert second is first
        assert session.trials_run == trials  # runner b tuned nothing

    def test_modes_do_not_share_records(self):
        session = TuningSession()
        layer = table1_layer(5)
        t_parallel = UnitCpuRunner(tuning="parallel", session=session).conv2d_latency(layer)
        t_full = UnitCpuRunner(tuning="full", session=session).conv2d_latency(layer)
        assert t_full.seconds <= t_parallel.seconds
        assert len(session.cache) == 2

    def test_session_save_load_roundtrip(self, tmp_path):
        root = tmp_path / "gpu"
        session = TuningSession(store=root)
        runner = UnitGpuRunner(mode="tune", session=session)
        layer = table1_layer(8)
        cold = runner.conv2d_latency(layer)

        warm_session = TuningSession(store=root)
        warm_runner = UnitGpuRunner(mode="tune", session=warm_session)
        warm = warm_runner.conv2d_latency(layer)
        assert warm_session.trials_run == 0
        assert warm.seconds == cold.seconds
        assert warm == cold

    def test_store_path_is_coerced(self, tmp_path):
        """``store=`` takes a store or the path of one (str or PathLike)."""
        store = ShardedTuningStore(tmp_path / "s")
        assert TuningSession(store=store).store is store
        for path in (tmp_path / "s", str(tmp_path / "s")):
            session = TuningSession(store=path)
            assert isinstance(session.store, ShardedTuningStore)
            assert session.store.root == str(tmp_path / "s")
        assert TuningSession().store is None


class TestExperimentSessionSharing:
    def test_figure8_second_run_does_zero_trials(self):
        session = TuningSession()
        models = ["resnet-18", "mobilenet-v2"]
        rows = experiments.figure8_cpu_end_to_end(models, session=session)
        trials_after_first = session.trials_run
        assert trials_after_first > 0
        rows_again = experiments.figure8_cpu_end_to_end(models, session=session)
        assert session.trials_run == trials_after_first
        for before, after in zip(rows, rows_again):
            assert before == after

    def test_saved_cache_reproduces_figure8(self, tmp_path):
        root = tmp_path / "fig8"
        session = TuningSession(store=root)
        rows = experiments.figure8_cpu_end_to_end(["resnet-18"], session=session)
        assert session.trials_run > 0

        warm = TuningSession(store=root)
        warm_rows = experiments.figure8_cpu_end_to_end(["resnet-18"], session=warm)
        assert warm.trials_run == 0
        for before, after in zip(rows, warm_rows):
            assert before == after

    def test_compile_model_batch_shares_cache(self):
        session = TuningSession()
        batch = compile_model_batch(
            ["resnet-18", "resnet-50"], targets=("x86",), session=session
        )
        assert [c.name for c in batch] == ["resnet-18", "resnet-50"]
        assert all(c.latency_ms > 0 for c in batch)
        # The two ResNets share layer shapes: the second compile must be
        # partly (not necessarily entirely) cache hits.
        assert session.stats.hits > 0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

_VALID = [
    TuningRecord(
        key=_key(),
        best_config=config,
        best_cost=2.5e-4,
        num_trials=3,
        breakdown=CostBreakdown(seconds=2.5e-4, compute_seconds=1e-4, detail={"macs": 64.0}),
    )
    for config in (None, CpuTuningConfig(unroll_limit=4), GpuTuningConfig(outer_product_p=2))
]


def _paths(value, prefix=()):
    """Every path into a JSON value's containers, leaves and containers alike."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for step, child in items:
        yield prefix + (step,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (step,))


def _check_gate(line):
    """``decode_record_line`` never raises; an accepted record has a hashable
    key and re-encodes to a line that decodes to the same record."""
    from repro.rewriter import decode_record_line

    record, problem = decode_record_line(line)
    assert (record is None) != (problem is None)
    assert problem in (None, "corrupt", "stale")
    if record is not None:
        hash(record.key)
        text = json.dumps(record.to_json(), sort_keys=True)
        again, _ = decode_record_line(text)
        assert json.dumps(again.to_json(), sort_keys=True) == text


class TestNonObjectLines:
    def test_decode_record_line_triage(self):
        from repro.rewriter import decode_record_line

        record = TuningRecord(
            key=_key(),
            best_config=None,
            best_cost=1.0,
            num_trials=0,
            breakdown=CostBreakdown(seconds=1.0),
        )
        good, problem = decode_record_line(json.dumps(record.to_json()))
        assert good is not None and problem is None
        assert decode_record_line("{torn")[1] == "corrupt"
        assert decode_record_line("@@@ not json @@@")[1] == "corrupt"
        for non_object in ("null", '"a string"', "[]", "42"):
            assert decode_record_line(non_object)[1] == "corrupt"
        assert decode_record_line('{"schema": %d}' % SCHEMA_VERSION)[1] == "stale"
        stale = dict(record.to_json(), schema=0)
        assert decode_record_line(json.dumps(stale))[1] == "stale"
        # Pre-versioning records carry no fingerprint: never serve them.
        legacy = record.to_json()
        del legacy["schema"], legacy["cost_model"]
        assert decode_record_line(json.dumps(legacy))[1] == "stale"

    def test_decode_record_is_the_gate_behind_the_line_decoder(self):
        from repro.rewriter import decode_record

        data = TuningRecord(
            key=_key(),
            best_config=GpuTuningConfig(outer_product_p=2),
            best_cost=1.0,
            num_trials=2,
            breakdown=CostBreakdown(seconds=1.0),
        ).to_json()
        record, problem = decode_record(data)
        assert problem is None and record.to_json() == data
        for non_object in (None, "a string", [], 42):
            assert decode_record(non_object) == (None, "corrupt")
        assert decode_record({**data, "cost_model": "x" * 12}) == (None, "stale")
        # Current envelope, broken body: corrupt, not an exception.
        assert decode_record({k: v for k, v in data.items() if k != "key"}) == (None, "corrupt")
        assert decode_record({**data, "config": {"type": "tpu"}}) == (None, "corrupt")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key.kind", {"x": 1}),
            ("key.machine", 7),
            ("key.params", [["in_channels", [64]]]),
            ("key.params", [["in_channels", None]]),
            ("key.params", ["ab"]),
            ("key.params", {"in_channels": 64}),
            ("cost", "fast"),
            ("cost", None),
            ("cost", True),
            ("cost", float("nan")),
            ("cost", float("inf")),
            ("trials", [3]),
            ("trials", 2.0),
            ("breakdown.seconds", "1"),
            ("breakdown.detail", [1]),
            ("config.unroll_limit", "4"),
            ("config.enable_unroll", 1),
            ("config", "cpu"),
        ],
    )
    def test_ill_typed_fields_are_corrupt(self, field, value):
        """A current-schema record is servable only with every field of its
        type: str key fields, (str, scalar) params, finite numbers, int
        trials, a dict detail and a config of its dataclass's field types."""
        from repro.rewriter import decode_record

        data = _VALID[1].to_json()
        assert decode_record(data)[1] is None
        *parents, name = field.split(".")
        target = data
        for step in parents:
            target = target[step]
        target[name] = value
        assert decode_record(data) == (None, "corrupt")


class TestGateFuzz:
    """The record gate never raises, whatever a line holds."""

    @given(_JSON)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json(self, value):
        _check_gate(json.dumps(value))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_valid_records(self, data):
        """One field of a valid record replaced by arbitrary JSON or deleted:
        the gate never raises, and what it accepts is a usable record."""
        record = data.draw(st.sampled_from(_VALID)).to_json()
        path = data.draw(st.sampled_from(list(_paths(record))))
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
        _check_gate(json.dumps(record))
