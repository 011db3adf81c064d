"""Profiling tests: graph meter, measured peaks, T-scaling, timing."""

import tracemalloc

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.experiments.fig3 import _one_inference_pass, _one_training_pass
from repro.nn import CrossEntropyLoss
from repro.profiling import (
    GraphMemoryMeter,
    TimingResult,
    time_callable,
    traced_peak_bytes,
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


def _graph_bytes(snn, images, labels):
    """Bytes of the op outputs one training forward records."""
    snn.train()
    with GraphMemoryMeter() as meter:
        CrossEntropyLoss()(snn(images), labels)
    return meter.bytes_allocated


def _training_peak(snn, images, labels):
    """Fig. 3's training-pass memory, read after one warm-up pass (the
    experiment reads it after its timed passes)."""
    criterion = CrossEntropyLoss()
    _one_training_pass(snn, images, labels, criterion)
    return traced_peak_bytes(
        lambda: _one_training_pass(snn, images, labels, criterion)
    )


class TestTrainingMemory:
    def test_snn_memory_grows_with_t(self, model_and_loader):
        """Fig. 3b's core claim: BPTT memory ~ linear in T."""
        model, loader = model_and_loader
        images, labels = next(iter(loader))
        graph = {}
        for t in (2, 5):
            conversion = convert_dnn_to_snn(
                model, loader, ConversionConfig(timesteps=t)
            )
            graph[t] = _graph_bytes(conversion.snn, images, labels)
        assert graph[5] > 2.0 * graph[2]

    def test_training_peak_holds_each_steps_graph(self, model_and_loader):
        """The measured training-pass peak holds the graph it builds, so
        it grows with T at least as fast as the graph.  On this tiny net
        the weight gradients and the once-run direct-encoded stem are a
        large T-independent share, so the peak itself grows ~1.5x from
        T=2 to T=5 while the graph grows ~2.4x."""
        model, loader = model_and_loader
        images, labels = next(iter(loader))
        graph, peak = {}, {}
        for t in (2, 5):
            snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=t)).snn
            graph[t] = _graph_bytes(snn, images, labels)
            peak[t] = _training_peak(snn, images, labels)
            assert peak[t] > graph[t]
        assert peak[5] - peak[2] > graph[5] - graph[2]


class TestTracedPeak:
    def test_fig3_peaks_repeat_within_1kb(self, model_and_loader):
        model, loader = model_and_loader
        images, labels = next(iter(loader))
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        first = _training_peak(snn, images, labels)
        second = _training_peak(snn, images, labels)
        assert abs(first - second) < 1024
        evals = [
            traced_peak_bytes(lambda: _one_inference_pass(snn, images))
            for _ in range(3)
        ]
        assert abs(evals[2] - evals[1]) < 1024
        assert 0 < evals[2] < first

    def test_counts_the_run_not_what_was_there(self):
        held = np.ones(1 << 16)
        peak = traced_peak_bytes(lambda: np.ones(1 << 14).sum())
        assert 8 * (1 << 14) <= peak < held.nbytes

    @pytest.mark.parametrize("tracing", [False, True])
    def test_leaves_tracemalloc_as_found(self, tracing):
        if tracing:
            tracemalloc.start()
        try:
            traced_peak_bytes(lambda: np.ones(64))
            assert tracemalloc.is_tracing() is tracing
        finally:
            if tracing:
                tracemalloc.stop()


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
