"""Data substrate: synthetic CIFAR-like datasets, transforms, loader."""

from .cifar import CIFARDataset, load_cifar10, load_cifar100
from .dataloader import DataLoader
from .synthetic import (
    SyntheticImageConfig,
    SyntheticImageDataset,
    synth_cifar10,
    synth_cifar100,
)
from .transforms import (
    AdditiveGaussianNoise,
    Compose,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    Transform,
)

__all__ = [
    "AdditiveGaussianNoise",
    "CIFARDataset",
    "Compose",
    "DataLoader",
    "Normalize",
    "load_cifar10",
    "load_cifar100",
    "RandomCrop",
    "RandomHorizontalFlip",
    "SyntheticImageConfig",
    "SyntheticImageDataset",
    "Transform",
    "synth_cifar10",
    "synth_cifar100",
]
