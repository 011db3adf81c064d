"""Autograd tensor substrate: numpy arrays with reverse-mode autodiff.

Public surface:

- :class:`Tensor` — the array type; elementwise ops, matmul, reductions,
  movement, all differentiable.
- :func:`concatenate`, :func:`stack`, :func:`where`, :func:`maximum` —
  differentiable free functions.
- :mod:`ops` — relu / threshold_relu / clip / softmax family / dropout.
- :mod:`conv_ops` — conv2d (channel-major window pack + GEMM, transposed-conv
  input gradient), max/avg pooling.
- :class:`no_grad` — disable graph recording.
- :func:`check_gradients` — finite-difference validation helper.
"""

from .autograd import GradMode, Node, no_grad
from .conv_ops import (
    avg_pool2d,
    conv2d,
    conv2d_output_shape,
    global_avg_pool2d,
    max_pool2d,
)
from .gradcheck import check_gradients, numeric_gradient
from .sparse import (
    SparseSpikes,
    pack_conv_weight,
    pack_spikes,
    sparse_conv2d_gather,
    sparse_linear_gather,
)
from .ops import (
    clip,
    dropout,
    log_softmax,
    one_hot,
    relu,
    softmax,
    threshold_relu,
)
from .tensor import (
    Tensor,
    add_op_observer,
    concatenate,
    default_dtype,
    get_default_dtype,
    maximum,
    remove_op_observer,
    set_default_dtype,
    stack,
    unbroadcast,
    where,
)

__all__ = [
    "GradMode",
    "Node",
    "SparseSpikes",
    "Tensor",
    "pack_conv_weight",
    "pack_spikes",
    "sparse_conv2d_gather",
    "sparse_linear_gather",
    "add_op_observer",
    "avg_pool2d",
    "check_gradients",
    "clip",
    "concatenate",
    "conv2d",
    "conv2d_output_shape",
    "default_dtype",
    "dropout",
    "get_default_dtype",
    "set_default_dtype",
    "global_avg_pool2d",
    "log_softmax",
    "max_pool2d",
    "maximum",
    "no_grad",
    "numeric_gradient",
    "one_hot",
    "relu",
    "remove_op_observer",
    "softmax",
    "stack",
    "threshold_relu",
    "unbroadcast",
    "where",
]
