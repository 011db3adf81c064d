"""Profiling tests: memory meter, T-scaling, timing utilities."""

import tracemalloc

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.nn import CrossEntropyLoss, Linear, Sequential
from repro.profiling import (
    EpochTimeComparison,
    GraphMemoryMeter,
    MemoryReport,
    TimingResult,
    inference_memory,
    parameter_bytes,
    time_callable,
    training_memory,
)
from repro.optim import Adam
from repro.tensor import Tensor, autograd, no_grad
from repro.tensor.autograd import recycle_buffers
from repro.train import SNNTrainConfig, SNNTrainer


@pytest.fixture(scope="module")
def model_and_loader():
    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    images = rng.random((8, 3, 8, 8))
    labels = rng.integers(0, 5, size=8)
    return model, DataLoader(images, labels, batch_size=8)


class TestGraphMemoryMeter:
    def test_counts_graph_tensors(self, rng):
        x = Tensor(rng.normal(size=(10, 10)), requires_grad=True)
        with GraphMemoryMeter() as meter:
            ((x * 2.0) + 1.0).sum()
        assert meter.tensors_created == 3  # mul, add, sum
        assert meter.bytes_allocated >= 2 * 10 * 10 * 8

    def test_ignores_no_grad(self, rng):
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with GraphMemoryMeter() as meter:
            with no_grad():
                (x * 2.0).sum()
        assert meter.tensors_created == 0

    def test_patch_restored(self, rng):
        original = Tensor.from_op
        with GraphMemoryMeter():
            pass
        assert Tensor.from_op is original


class TestMemoryReport:
    def test_totals(self):
        report = MemoryReport(
            parameters=100.0, gradients=100.0, optimizer_state=200.0, activations=600.0
        )
        assert report.total == 1000.0
        assert report.total_megabytes == pytest.approx(1000.0 / 2**20)


class TestParameterBytes:
    def test_counts(self, rng):
        model = Sequential(Linear(4, 3, bias=False, rng=rng))
        assert parameter_bytes(model) == 4 * 3 * 8


class TestTrainingMemory:
    def test_snn_memory_grows_with_t(self, model_and_loader):
        """Fig. 3b's core claim: BPTT memory ~ linear in T."""
        model, loader = model_and_loader
        images, labels = next(iter(loader))
        criterion = CrossEntropyLoss()
        reports = {}
        for t in (2, 5):
            conversion = convert_dnn_to_snn(
                model, loader, ConversionConfig(timesteps=t)
            )
            snn = conversion.snn
            snn.train()
            reports[t] = training_memory(
                snn, lambda: criterion(snn(images), labels)
            )
        assert reports[5].activations > 2.0 * reports[2].activations

    def test_report_includes_parameter_terms(self, model_and_loader):
        model, loader = model_and_loader
        images, labels = next(iter(loader))
        criterion = CrossEntropyLoss()
        model.train()
        report = training_memory(
            model,
            lambda: criterion(model(Tensor(images)), labels),
            optimizer_state_copies=2,
        )
        params = parameter_bytes(model)
        assert report.parameters == params
        assert report.optimizer_state == 2 * params
        assert report.activations > 0


class TestOneGraphPerStep:
    """Backward releases the graph, so a training step never holds the
    previous step's graph beside its own (the trainers keep ``logits``
    and ``loss`` until the next forward)."""

    #: The second step's traced peak over the memory before the first,
    #: in graph bytes.  At T=3 one step's footprint (the graph's outputs
    #: plus its saved window packs, masks and membranes) is ~4.0 graph
    #: bytes, and a second graph beside the first takes it to ~8.0.
    MAX_PEAK_OVER_GRAPH = 5.0

    @staticmethod
    def _sgl_step(snn, optimizer, images, labels):
        optimizer.zero_grad()
        logits = snn(images)
        loss = CrossEntropyLoss()(logits, labels)
        loss.backward()
        optimizer.step()
        return logits, loss

    def _snn(self, model_and_loader):
        model, loader = model_and_loader
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3)).snn
        snn.train()
        return snn, loader

    def test_second_step_peak_stays_near_one_graph(self, model_and_loader):
        snn, loader = self._snn(model_and_loader)
        images, labels = next(iter(loader))
        with GraphMemoryMeter() as meter:
            CrossEntropyLoss()(snn(images), labels)
        graph_bytes = meter.bytes_allocated
        optimizer = Adam(snn.parameters(), lr=1e-4)
        self._sgl_step(snn, optimizer, images, labels)  # optimizer state
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            with recycle_buffers():
                held = self._sgl_step(snn, optimizer, images, labels)
                tracemalloc.reset_peak()
                held = self._sgl_step(snn, optimizer, images, labels)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del held
        assert peak - baseline < self.MAX_PEAK_OVER_GRAPH * graph_bytes

    def test_fit_leaves_no_buffer_behind(self, model_and_loader):
        snn, loader = self._snn(model_and_loader)
        pools = []

        def on_epoch_end(epoch, history):
            pools.append(autograd._spare)
            assert sum(len(buffers) for buffers in autograd._spare.values()) > 0

        SNNTrainer(SNNTrainConfig(epochs=2, lr=1e-4)).fit(
            snn, loader, on_epoch_end=on_epoch_end
        )
        assert len(pools) == 2 and pools[0] is pools[1]
        assert pools[0] == {}
        assert autograd._spare is None


class TestInferenceMemory:
    def test_dnn_report(self, model_and_loader):
        model, _ = model_and_loader
        report = inference_memory(model, (3, 8, 8), batch_size=4)
        assert report.gradients == 0.0
        assert report.activations > 0

    def test_snn_nearly_t_independent(self, model_and_loader):
        """Fig. 3b: inference memory barely moves with T."""
        model, loader = model_and_loader
        totals = {}
        for t in (2, 5):
            conversion = convert_dnn_to_snn(
                model, loader, ConversionConfig(timesteps=t)
            )
            totals[t] = inference_memory(conversion.snn, (3, 8, 8), 4).total
        assert totals[5] < 1.2 * totals[2]

    def test_snn_traced_per_step_and_mode_restored(self, model_and_loader):
        """The estimate traces the per-step working set, so it does not
        move with T at all, and it leaves the SNN's engine as it was."""
        model, loader = model_and_loader
        totals = {}
        for t in (2, 5):
            snn = convert_dnn_to_snn(
                model, loader, ConversionConfig(timesteps=t)
            ).snn
            assert snn.mode == "fused"
            totals[t] = inference_memory(snn, (3, 8, 8), 4).total
            assert snn.mode == "fused"
        assert totals[5] == totals[2]


class TestTiming:
    def test_time_callable_stats(self):
        result = time_callable(lambda: sum(range(1000)), repeats=3, warmup=1)
        assert len(result.samples) == 3
        assert result.minimum <= result.mean <= result.maximum
        assert result.minimum <= result.median <= result.maximum
        assert result.std >= 0.0

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)

    def test_warmup_runs_are_discarded(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5  # 3 warmups + 2 timed

    def test_median_odd_and_even(self):
        assert TimingResult(samples=[3.0, 1.0, 2.0]).median == 2.0
        assert TimingResult(samples=[4.0, 1.0, 2.0, 3.0]).median == 2.5

    def test_std_matches_numpy(self):
        samples = [0.1, 0.4, 0.2, 0.9]
        assert TimingResult(samples=samples).std == pytest.approx(
            np.std(samples)
        )
        assert TimingResult(samples=[0.5]).std == 0.0

    def test_percentile_interpolates(self):
        result = TimingResult(samples=[1.0, 2.0, 3.0, 4.0])
        assert result.percentile(0.0) == 1.0
        assert result.percentile(100.0) == 4.0
        assert result.percentile(50.0) == result.median
        assert result.p95 == pytest.approx(np.percentile([1, 2, 3, 4], 95))

    def test_percentile_validation(self):
        result = TimingResult(samples=[1.0])
        with pytest.raises(ValueError):
            result.percentile(101.0)
        with pytest.raises(ValueError):
            TimingResult(samples=[]).percentile(50.0)

    def test_summary_is_json_ready(self):
        import json

        summary = TimingResult(samples=[0.2, 0.1, 0.3]).summary()
        assert summary["repeats"] == 3
        assert summary["median_s"] == 0.2
        assert summary["min_s"] == 0.1 and summary["max_s"] == 0.3
        assert summary["p95_s"] <= summary["max_s"]
        json.dumps(summary)

    def test_epoch_comparison_speedups(self):
        comparison = EpochTimeComparison(
            labels=["T=2", "T=5"],
            train_seconds=[1.0, 2.4],
            inference_seconds=[0.5, 1.2],
        )
        speedups = comparison.speedup_vs("T=5")
        assert speedups == pytest.approx([2.4, 1.0])
        with pytest.raises(KeyError):
            comparison.speedup_vs("T=99")
