"""repro — reproduction of "Can Deep Neural Networks be Converted to
Ultra Low-Latency Spiking Neural Networks?" (Datta & Beerel, DATE 2022).

Subpackages
-----------
- :mod:`repro.tensor` — numpy autograd substrate;
- :mod:`repro.nn` — layers (incl. the trainable-threshold ReLU, Eq. 1);
- :mod:`repro.optim` — SGD/Adam + the paper's LR schedule;
- :mod:`repro.models` — VGG-11/16, ResNet-20 (BN-free, dropout);
- :mod:`repro.data` — synthetic CIFAR-like datasets, loaders;
- :mod:`repro.snn` — IF/LIF neurons (Eqs. 2-4, 8), surrogate gradients,
  direct-input temporal execution;
- :mod:`repro.conversion` — Algorithm 1 (alpha/beta scaling), baseline
  conversion rules, the Eq. 5-7 error theory;
- :mod:`repro.train` — DNN training and SNN SGL fine-tuning;
- :mod:`repro.energy` — spikes / FLOPs / compute-energy models (Sec. VI);
- :mod:`repro.profiling` — time & memory accounting (Sec. V);
- :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart
----------
>>> from repro.experiments import ExperimentConfig, get_scale, run_pipeline
>>> config = ExperimentConfig("vgg11", "cifar10", timesteps=2,
...                           scale=get_scale("tiny"))
>>> result = run_pipeline(config)
>>> sorted(result.as_row())[:2]
['architecture', 'conversion_accuracy']
"""

__version__ = "1.0.0"

__all__ = [
    "conversion",
    "data",
    "energy",
    "experiments",
    "models",
    "nn",
    "optim",
    "profiling",
    "snn",
    "tensor",
    "train",
]
