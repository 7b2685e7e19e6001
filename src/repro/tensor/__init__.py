"""Reverse-mode autodiff substrate (NumPy-backed).

Public surface::

    from repro.tensor import Tensor, functional as F
    from repro.tensor.optim import Adam
"""

from . import functional
from .gradcheck import check_gradients, numeric_gradient
from .init import glorot_normal, glorot_uniform, uniform, zeros
from .optim import SGD, Adam, Optimizer
from .sparse import CSRConstant
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad, stack

__all__ = [
    "Tensor",
    "CSRConstant",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "stack",
    "functional",
    "Adam",
    "SGD",
    "Optimizer",
    "glorot_uniform",
    "glorot_normal",
    "zeros",
    "uniform",
    "check_gradients",
    "numeric_gradient",
]
