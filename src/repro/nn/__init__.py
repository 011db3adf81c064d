"""Neural-network layer library built on :mod:`repro.tensor`."""

from . import init
from .activations import ActivationRecorder, ReLU, ThresholdReLU
from .containers import Flatten, Identity, Sequential
from .conv import Conv2d
from .dropout import Dropout
from .linear import Linear
from .losses import CrossEntropyLoss, MSELoss
from .module import Module, Parameter, tap
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = [
    "ActivationRecorder",
    "AvgPool2d",
    "Conv2d",
    "CrossEntropyLoss",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MSELoss",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "ThresholdReLU",
    "init",
    "tap",
]
