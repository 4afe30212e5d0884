"""Shape tests for the experiment drivers: the paper's qualitative findings.

Absolute numbers are not expected to match the paper (the machines are
analytical models), but the *shape* of every figure — who wins, by roughly
what factor, where the crossovers are — must hold.  EXPERIMENTS.md documents
the side-by-side numbers.
"""

import pytest

from repro.core import experiments
from repro.hwsim import geometric_mean

_FAST_MODELS = ["resnet-18", "resnet-50", "mobilenet-v2"]


class TestFigure1:
    def test_fp16_without_tensor_core_is_a_slowdown(self):
        rows = experiments.figure1_fp16_without_tensor_core(_FAST_MODELS)
        body = [r for r in rows if r["model"] != "geomean"]
        assert all(r["relative_fp16_vs_fp32"] < 1.0 for r in body)


class TestFigure8:
    def test_unit_beats_mxnet_and_tvm(self):
        rows = experiments.figure8_cpu_end_to_end(_FAST_MODELS)
        geo = rows[-1]
        assert geo["model"] == "geomean"
        # Paper: 1.3x over MXNet+oneDNN and 1.18x over hand-written TVM.
        assert 1.1 < geo["rel_unit"] < 3.0
        assert 1.05 < geo["unit_vs_tvm"] < 1.8
        body = [r for r in rows if r["model"] != "geomean"]
        assert all(r["rel_unit"] > 1.0 for r in body)


class TestFigure9:
    def test_unit_beats_cudnn_tensor_core(self):
        rows = experiments.figure9_gpu_end_to_end(_FAST_MODELS)
        geo = rows[-1]
        # Paper: mean 1.75x, up to 2.2x.
        assert 1.3 < geo["rel_unit"] < 3.0
        body = [r for r in rows if r["model"] != "geomean"]
        assert all(r["rel_unit"] > 1.0 for r in body)


class TestFigure10:
    @pytest.fixture(scope="class")
    def rows(self):
        return experiments.figure10_cpu_ablation()

    def test_most_layers_beat_onednn_after_tuning(self, rows):
        wins = [r for r in rows if r["rel_tune"] > 1.0]
        assert len(wins) >= 12

    def test_layers_1_and_4_lose(self, rows):
        """The residue-guard layers stay below oneDNN (the paper's observation)."""
        by_layer = {r["layer"]: r for r in rows}
        assert by_layer[1]["rel_tune"] < 1.0
        assert by_layer[4]["rel_tune"] < 1.0

    def test_unroll_contributes_most_of_the_speedup(self, rows):
        gains_unroll = geometric_mean(r["rel_unroll"] / r["rel_parallel"] for r in rows)
        gains_tune = geometric_mean(r["rel_tune"] / r["rel_unroll"] for r in rows)
        assert gains_unroll > gains_tune

    def test_tuning_never_hurts(self, rows):
        assert all(r["rel_tune"] >= r["rel_unroll"] * 0.999 for r in rows)


class TestFigure11:
    @pytest.fixture(scope="class")
    def rows(self):
        return experiments.figure11_gpu_ablation()

    def test_most_layers_beat_cudnn_after_tuning(self, rows):
        wins = [r for r in rows if r["rel_tune"] > 1.0]
        assert len(wins) >= 12

    def test_strided_layer_1_loses(self, rows):
        by_layer = {r["layer"]: r for r in rows}
        assert by_layer[1]["rel_tune"] < 1.05

    def test_tune_is_best_variant(self, rows):
        for r in rows:
            assert r["rel_tune"] >= max(r["rel_generic"], r["rel_fusedim"], r["rel_splitk"]) * 0.999


class TestFigure12:
    def test_arm_ordering(self):
        rows = experiments.figure12_arm_end_to_end(_FAST_MODELS)
        geo = rows[-1]
        # UNIT > hand-written DOT schedules > plain NEON; paper: 1.13x over manual.
        assert geo["rel_unit"] > geo["rel_manual"] > 1.5
        assert 1.02 < geo["unit_vs_manual"] < 1.5


class TestFigure13:
    def test_conv3d_mean_speedup(self):
        rows = experiments.figure13_conv3d()
        gmean = [r for r in rows if r["layer"] == "gmean"][0]
        # Paper: average 1.2x over oneDNN with per-layer spread.
        assert 1.0 < gmean["rel_unit"] < 2.0
        body = [r for r in rows if r["layer"] != "gmean"]
        assert len(body) == 11


class TestTable1AndConvergence:
    def test_table1_rows(self):
        rows = experiments.table1_characteristics()
        assert len(rows) == 16
        assert rows[0]["C"] == 288

    def test_tuning_convergence_claims(self):
        data = experiments.tuning_convergence()
        # Paper: >50% of kernels optimal at the first pair, >95% within 8.
        assert data["optimal_at_first_pair"] >= 0.5
        assert data["optimal_within_8_pairs"] >= 0.75
        assert data["num_layers"] == 16

    def test_resnet18_unique_convs(self):
        convs = experiments.resnet18_unique_convs()
        assert 8 <= len(convs) <= 11

