"""Dense tensor arithmetic with reverse-mode differentiation on a tape.

Every computation in this package flows through the ``Tensor`` primitives
defined here. Forward calls record closures on the active ``Tape``;
``backward`` replays them in reverse order and sums every contribution a
tensor receives, which makes parameter sharing correct by construction. A
central finite-difference oracle (``finite_difference_check``) is the
independent route used to validate all analytic gradients.

Gradients are handed over, not copied. A tensor's first contribution
becomes its gradient as it is; a later one makes a new array, the sum of
the two. So a gradient array may be shared (``add`` hands the same ``g`` to
both inputs) or be a view of another (``reshape``, ``transpose``), and
nothing may write into one: a backward function never writes to an array
after returning it, nor to the ``g`` it is given.

One ``backward`` consumes a tape. It releases each record's backward
function once that function has run, which frees every array only the
closure saved (a scan's states, say) during the sweep. Each record keeps
its output and inputs, so the records and their outputs' gradients can
still be counted.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "no_grad",
    "backward",
    "finite_difference_check",
    "Module",
    "add", "mul", "matmul", "relu", "softmax_lastdim",
    "l2_normalize_lastdim", "layer_norm", "concat",
    "max_over_time", "reshape", "transpose",
]

# Multiply counter for instrumented FLOPs validation (see bench module).
# When not None, every multiplying primitive adds its multiply count here.
_mac_counter = None


class MacCounter:
    """Counts scalar multiplies performed by primitives while active."""

    def __init__(self):
        self.macs = 0

    def __enter__(self):
        global _mac_counter
        self._prev = _mac_counter
        _mac_counter = self
        return self

    def __exit__(self, *exc):
        global _mac_counter
        _mac_counter = self._prev
        return False


def _count_macs(n):
    if _mac_counter is not None:
        _mac_counter.macs += int(n)


class Tape:
    """Ordered record of primitive operations, replayed in reverse by backward().

    Usable as a context manager; entering makes it the active tape.
    """

    def __init__(self):
        self.records = []  # (output, inputs, backward_fn)
        self.consumed = False

    def append(self, out, inputs, backward_fn):
        self.records.append((out, inputs, backward_fn))

    def __enter__(self):
        global _active_tape
        self._prev = _active_tape
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = self._prev
        return False


_active_tape: Tape | None = None


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        global _active_tape
        self._prev = _active_tape
        _active_tape = None
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = self._prev
        return False


def _recording():
    return _active_tape is not None


def _record(out, inputs, backward_fn):
    if _active_tape is not None:
        _active_tape.append(out, inputs, backward_fn)


class Tensor:
    """A dense n-dimensional array node in the computation graph."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def accumulate_grad(self, g):
        """Take ``g`` as the gradient if none is held, else hold a new array,
        the sum of the two; neither array is written."""
        g = np.asarray(g, dtype=self.data.dtype)
        if g.shape != self.data.shape:
            raise ValueError(f"accumulate_grad: gradient shape {g.shape} "
                             f"for a tensor of shape {self.data.shape}")
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # Operator sugar; scalars and arrays are lifted to constant Tensors.
    def __add__(self, other):
        return add(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))


class Parameter(Tensor):
    """A trainable Tensor whose gradient persists across tapes until zeroed.

    ``grad`` is None until backward hands it a contribution, and None again
    after ``zero_grad``; a reader that needs zeros supplies them, so a
    model that only predicts holds no gradient buffers."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data)
        self.name = name

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Parameter({self.name or 'unnamed'}, shape={self.shape})"


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class Module:
    """A model part whose Parameters are found through its attributes."""

    def parameters(self):
        """Every Parameter held by this module or a Module attribute (or a
        list of them), in attribute order, each object once: a Parameter
        shared by two modules is listed where it is first met."""
        found = {}

        def walk(module):
            for value in vars(module).values():
                for v in value if isinstance(value, list) else (value,):
                    if isinstance(v, Parameter):
                        found.setdefault(id(v), v)
                    elif isinstance(v, Module):
                        walk(v)

        walk(self)
        return list(found.values())


def _check_finite(op_kind, *arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise FloatingPointError(f"{op_kind}: non-finite values encountered")


def _unbroadcast(g, shape):
    """Sum gradient g down to the given input shape after numpy broadcasting."""
    if g.shape == shape:
        return g
    ndiff = g.ndim - len(shape)
    if ndiff > 0:
        g = g.sum(axis=tuple(range(ndiff)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b):
    out = Tensor(a.data + b.data)
    _check_finite("add", out.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    _record(out, (a, b), bwd)
    return out


def mul(a, b):
    out = Tensor(a.data * b.data)
    _check_finite("mul", out.data)
    _count_macs(out.size)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    _record(out, (a, b), bwd)
    return out


def matmul(a, b):
    """Matrix product over the last two axes; any leading axes are stacked
    (equal on both operands, never broadcast)."""
    if (a.data.ndim < 2 or a.data.ndim != b.data.ndim
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]):
        raise ValueError(
            f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    _check_finite("matmul", out.data)
    _count_macs(out.size * a.shape[-1])

    def bwd(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    _record(out, (a, b), bwd)
    return out


def _sigmoid_np(x):
    """0.5 * (1 + tanh(x / 2)), formed in place over the tanh."""
    s = np.tanh(0.5 * x)
    s += 1.0
    s *= 0.5
    return s


def _silu_np(a):
    """SiLU of an array, and the sigmoid its derivative needs."""
    s = _sigmoid_np(a)
    return a * s, s


def _silu_grad_np(g, a, s):
    """g through the SiLU of a, whose sigmoid is s."""
    return g * (s * (1.0 + a * (1.0 - s)))


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))

    def bwd(g):
        return (g * (a.data > 0.0),)

    _record(out, (a,), bwd)
    return out


def softmax_lastdim(a, temperature):
    """Softmax over the last axis of ``a / temperature``, a positive float."""
    z = a.data / temperature
    _check_finite("softmax_lastdim", z)
    _count_macs(z.size)
    # Max-subtraction keeps the exponentials bounded.
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot) / temperature,)

    _record(out, (a,), bwd)
    return out


def l2_normalize_lastdim(a, eps=1e-12):
    norm = np.sqrt((a.data ** 2).sum(axis=-1, keepdims=True))
    if np.any(norm < eps):
        raise FloatingPointError("l2_normalize_lastdim: zero-norm row")
    y = a.data / norm
    out = Tensor(y)
    _count_macs(out.size)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / norm,)

    _record(out, (a,), bwd)
    return out


def _layer_norm_np(x, gamma, beta, eps=1e-5):
    """Layer norm over the last axis of an array, and the normalized x and
    inverse deviation its gradient needs."""
    # numpy's mean and var in their float operations, without their
    # Python-level wrappers, and the centred x computed once
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = np.square(xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_grad_np(g, gamma, xhat, inv):
    """g through the layer norm: the gradients of x, gamma and beta."""
    d = xhat.shape[-1]
    dxhat = g * gamma
    dx = inv / d * (d * dxhat
                    - dxhat.sum(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    red = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=red)
    dbeta = g.sum(axis=red)
    return dx, dgamma.reshape(gamma.shape), dbeta.reshape(gamma.shape)


def layer_norm(x, gamma, beta, eps=1e-5):
    y, xhat, inv = _layer_norm_np(x.data, gamma.data, beta.data, eps)
    out = Tensor(y)
    _count_macs(2 * out.size)

    def bwd(g):
        return _layer_norm_grad_np(g, gamma.data, xhat, inv)

    _record(out, (x, gamma, beta), bwd)
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    _record(out, tuple(tensors), bwd)
    return out


def max_over_time(a):
    """Per-feature maximum over axis 0; gradient routes to the first argmax."""
    idx = a.data.argmax(axis=0)
    out = Tensor(a.data.max(axis=0))

    def bwd(g):
        ga = np.zeros_like(a.data)
        rest = np.indices(idx.shape)
        ga[(idx,) + tuple(rest)] = g
        return (ga,)

    _record(out, (a,), bwd)
    return out


def reshape(a, shape):
    # a view where numpy can make one: no primitive writes into its input
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.shape),)

    _record(out, (a,), bwd)
    return out


def transpose(a, axes=None):
    out = Tensor(a.data.transpose(axes).copy())
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    _record(out, (a,), bwd)
    return out


def backward(loss):
    """Give every tensor on the active tape d(loss)/d(tensor), summed onto
    any gradient it holds; arrays are handed over (see the module doc).
    Each record becomes ``(output, inputs, None)`` as its backward runs,
    which frees what only that backward held."""
    tape = _active_tape
    if tape is None:
        raise RuntimeError("backward: no active tape")
    if tape.consumed:
        raise RuntimeError("backward: tape already consumed; re-record the graph")
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    records = tape.records
    for i in range(len(records) - 1, -1, -1):
        out, inputs, bwd = records[i]
        records[i] = (out, inputs, None)
        if out.grad is not None:
            for t, g in zip(inputs, bwd(out.grad)):
                t.accumulate_grad(g)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def finite_difference_check(f, params, eps=1e-5, per_coordinate=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` is a nullary function returning a scalar Tensor built from the
    given parameters. The analytic gradient is computed once via the tape;
    each coordinate of each parameter is then perturbed by +/- eps with
    recording disabled. ``per_coordinate`` limits the number of checked
    coordinates per parameter (all when None).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if per_coordinate is not None and per_coordinate < 1:
        raise ValueError(f"per_coordinate must be >= 1, got {per_coordinate}")
    params = list({id(p): p for p in params}.values())
    for p in params:
        p.zero_grad()
    with Tape():
        loss = f()
        backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad
                for p in params]

    worst = 0.0
    with no_grad():
        for p, an in zip(params, analytic):
            flat = p.data.reshape(-1)
            if per_coordinate is None or per_coordinate >= flat.size:
                coords = range(flat.size)
            else:
                coords = np.unique(np.linspace(
                    0, flat.size - 1, per_coordinate).astype(int))
            for i in coords:
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(f().data)
                flat[i] = orig - eps
                lo = float(f().data)
                flat[i] = orig
                if not (np.isfinite(hi) and np.isfinite(lo)):
                    raise FloatingPointError(
                        "finite_difference_check: non-finite loss at perturbed point")
                fd = (hi - lo) / (2.0 * eps)
                err = abs(an.reshape(-1)[i] - fd) / max(1.0, abs(fd))
                worst = max(worst, err)
    return worst
