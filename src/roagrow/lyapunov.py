"""Positive-definite Lyapunov candidate V(x) = ||v(x)||^2 and its gradients.

``v`` is a bias-free multilayer perceptron with tanh activations whose weight
matrices are built as a stack of G1'G1 + eps*I over a free block G2.  Both
blocks have trivial nullspace, so v(x) = 0 only at x = 0, which gives V(0) = 0
and V(x) > 0 elsewhere by construction rather than by training.

The reverse-mode pass here is special-purpose: it differentiates exactly the
compositions this project trains (weighted sums of V values over batches),
returning gradients with respect to the network input and to the free blocks.

V of a point is not bit-stable across batch sizes under OpenBLAS: in a batch
of 18 rows or fewer its low bits can differ from those in a larger batch, so
:meth:`PDLyapunovNet.value` keeps every block at ``VALUE_BLOCK`` rows or more.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PDLayer",
    "PDLyapunovNet",
    "Forward",
    "TapeGradient",
    "PretrainDivergence",
    "build_weight",
    "pretrain_quadratic",
    "save_net",
    "load_net",
]

CHECKPOINT_MAGIC = "ROAGROW-LYAPNET"
CHECKPOINT_VERSION = 1
MSE_CHECK_STEPS = 1000                 # pretraining checks the grid MSE this often
VALUE_BLOCK = 1024                     # least rows per block of PDLyapunovNet.value


class PretrainDivergence(RuntimeError):
    """Pretraining MSE blew up instead of decreasing."""


@dataclass
class PDLayer:
    """Free parameters of one layer; the effective weight is derived.

    ``g1`` is (q, d_in) and ``g2`` is (d_out - d_in, d_in); d_out >= d_in so
    widths never contract and the stacked weight keeps a trivial nullspace.
    """

    g1: np.ndarray
    g2: np.ndarray
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.g1.ndim != 2 or self.g2.ndim != 2:
            raise ValueError("G1 and G2 must be matrices")
        if self.g1.shape[1] != self.g2.shape[1]:
            raise ValueError("G1 and G2 must share the input dimension")

    @property
    def d_in(self) -> int:
        return self.g1.shape[1]

    @property
    def d_out(self) -> int:
        return self.d_in + self.g2.shape[0]


def build_weight(layer: PDLayer) -> np.ndarray:
    """Effective weight: [G1'G1 + eps*I ; G2], shape (d_out, d_in)."""
    top = layer.g1.T @ layer.g1
    top.flat[::layer.d_in + 1] += layer.eps
    return np.vstack([top, layer.g2]) if len(layer.g2) else top


@dataclass
class Forward:
    """The weights a forward pass built, its activations [x, h1, ..., hL]
    and V = ||hL||^2 per row."""

    ws: list
    acts: list
    v: np.ndarray


@dataclass
class TapeGradient:
    """Result of one reverse pass.

    ``d_input`` holds the per-sample gradient of the weighted output sum with
    respect to the network input; ``d_params`` holds (dG1, dG2) per layer.
    ``d_params_extra`` holds (dG1, dG2) per layer for the optional extra
    weight column, or None when no such column was given.
    """

    d_input: np.ndarray
    d_params: list
    d_params_extra: list | None = None


class PDLyapunovNet:
    """Three bias-free tanh layers with trivial-nullspace weights.

    V(x) is the squared norm of the final hidden activation.  Widths default
    to 2 -> 64 -> 64 -> 64 with q = d_in for every G1 block.
    """

    def __init__(self, layers: list):
        self.layers = layers
        dims = [layers[0].d_in] + [l.d_out for l in layers]
        for prev, layer in zip(dims, layers):
            if layer.d_in != prev:
                raise ValueError("layer input dims must chain")

    @classmethod
    def initialize(cls, rng: np.random.Generator, widths=(2, 64, 64, 64),
                   eps: float = 0.01) -> "PDLyapunovNet":
        """Uniform init in [-s, s] with s = 1/sqrt(fan_in) for both blocks."""
        layers = []
        for d_in, d_out in zip(widths[:-1], widths[1:]):
            if d_out < d_in:
                raise ValueError("widths must be non-contracting")
            s = 1.0 / np.sqrt(d_in)
            g1 = rng.uniform(-s, s, size=(d_in, d_in))
            g2 = rng.uniform(-s, s, size=(d_out - d_in, d_in))
            layers.append(PDLayer(g1, g2, eps))
        return cls(layers)

    def copy(self) -> "PDLyapunovNet":
        return PDLyapunovNet([PDLayer(l.g1.copy(), l.g2.copy(), l.eps)
                              for l in self.layers])

    # -- forward -----------------------------------------------------------

    def forward(self, x) -> Forward:
        """One pass over a batch (n, 2), kept for a reverse pass over it."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ws = [build_weight(l) for l in self.layers]
        acts = [x]
        for w in ws:
            z = acts[-1] @ w.T
            acts.append(np.tanh(z, out=z))
        return Forward(ws, acts, np.einsum("ij,ij->i", acts[-1], acts[-1]))

    def value(self, x) -> np.ndarray:
        """V(x) = ||v(x)||^2 for a batch (n, 2); returns (n,).  Keeps no
        activations: blocks of ``VALUE_BLOCK`` rows or more, or the whole batch."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ws = [build_weight(l) for l in self.layers]
        v = []
        for h in np.array_split(x, max(1, len(x) // VALUE_BLOCK)):
            for w in ws:
                h = h @ w.T
                np.tanh(h, out=h)
            v.append(np.einsum("ij,ij->i", h, h))
        return np.concatenate(v)

    # -- reverse mode ------------------------------------------------------

    def backward(self, x: np.ndarray, out_weights: np.ndarray,
                 extra_weights: np.ndarray | None = None,
                 fwd: Forward | None = None) -> TapeGradient:
        """Reverse pass for S = sum_i out_weights[i] * V(x[i]).

        Returns per-sample input gradients (row i is the gradient of
        ``out_weights[i] * V(x[i])``) and parameter gradients of S.

        ``fwd``, this net's :meth:`forward` of ``x`` taken by a caller that
        needed V for the weights, replaces the pass's own forward.

        ``extra_weights`` (m,) is a second weight column for the first m rows
        of ``x``.  The parameter gradient of sum_i extra_weights[i] * V(x[i])
        is carried through the same sweep, on the cached activations, and
        returned as ``d_params_extra``, so a caller can treat the two sums
        differently (clip one, not the other) without a second pass.
        """
        if fwd is None:
            fwd = self.forward(x)
        ws, acts = fwd.ws, fwd.acts
        out_weights = np.asarray(out_weights, dtype=float)
        delta = 2.0 * out_weights[:, None] * acts[-1]      # dS/dh_L
        d_weights = [None] * len(ws)
        m = 0 if extra_weights is None else len(extra_weights)
        if m:
            extra = np.asarray(extra_weights, dtype=float)
            delta_x = 2.0 * extra[:, None] * acts[-1][:m]
            dx_weights = [None] * len(ws)
        for ell in range(len(ws) - 1, -1, -1):
            dz = np.square(acts[ell + 1])                  # through tanh:
            np.subtract(1.0, dz, out=dz)                   # the slope, then dz
            if m:
                dz_x = delta_x * dz[:m]
                # np.dot: matmul takes a slow loop for a single row (m = 1)
                dx_weights[ell] = np.dot(dz_x.T, acts[ell][:m])
                delta_x = dz_x @ ws[ell] if ell else None
            dz *= delta
            d_weights[ell] = dz.T @ acts[ell]
            delta = dz @ ws[ell]
        return TapeGradient(
            d_input=delta, d_params=self._free_block_grads(d_weights),
            d_params_extra=self._free_block_grads(dx_weights) if m else None)

    def _free_block_grads(self, d_weights: list) -> list:
        """Map gradients w.r.t. the stacked weights onto (dG1, dG2)."""
        return [(layer.g1 @ (dw[:layer.d_in] + dw[:layer.d_in].T), dw[layer.d_in:])
                for layer, dw in zip(self.layers, d_weights)]

    def grad_x(self, x) -> np.ndarray:
        """Per-sample gradient of V w.r.t. the input, shape (n, 2)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.backward(x, np.ones(len(x))).d_input

    # -- parameter vector utilities -----------------------------------------

    def flat_params(self) -> np.ndarray:
        return np.concatenate([np.concatenate([l.g1.ravel(), l.g2.ravel()])
                               for l in self.layers])

    def set_flat_params(self, vec: np.ndarray):
        pos = 0
        for layer in self.layers:
            n1 = layer.g1.size
            layer.g1 = vec[pos:pos + n1].reshape(layer.g1.shape).copy()
            pos += n1
            n2 = layer.g2.size
            layer.g2 = vec[pos:pos + n2].reshape(layer.g2.shape).copy()
            pos += n2
        if pos != len(vec):
            raise ValueError("parameter vector length mismatch")

    def sgd_step(self, d_params: list, lr: float):
        """In-place plain SGD update."""
        for layer, (d_g1, d_g2) in zip(self.layers, d_params):
            layer.g1 -= lr * d_g1
            layer.g2 -= lr * d_g2


def quadratic_target(x: np.ndarray, coeff: float = 0.1) -> np.ndarray:
    """The pretraining target coeff * (theta^2 + omega^2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return coeff * (x[:, 0] ** 2 + x[:, 1] ** 2)


def pretrain_quadratic(net: PDLyapunovNet, grid_points: np.ndarray,
                       target: np.ndarray, rng: np.random.Generator,
                       lr: float = 0.001, steps: int = 10_000,
                       batch: int = 256) -> dict:
    """Fit V to ``target``, one value per grid point, by mini-batch SGD on
    the grid points (:func:`quadratic_target` gives the isotropic shape).

    Mutates ``net`` and returns {initial_mse, final_mse}; raises
    :class:`PretrainDivergence` if the grid MSE grows 10x over its initial
    value at any check (every ``MSE_CHECK_STEPS`` steps).  A check on the
    last step serves as the final MSE.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    target_all = np.asarray(target, dtype=float)
    if target_all.shape != (len(grid_points),):
        raise ValueError("target must provide one value per grid point")

    def grid_mse() -> float:
        return float(np.mean((net.value(grid_points) - target_all) ** 2))

    initial = mse = grid_mse()
    n = len(grid_points)
    for step in range(steps):
        idx = rng.integers(0, n, size=min(batch, n))
        xb = grid_points[idx]
        fwd = net.forward(xb)
        err = fwd.v - target_all[idx]
        # d/dtheta mean(err^2) via weights 2*err/m on each sample's V
        tape = net.backward(xb, 2.0 * err / len(xb), fwd=fwd)
        net.sgd_step(tape.d_params, lr)
        if (step + 1) % MSE_CHECK_STEPS == 0:
            mse = grid_mse()
            if not np.isfinite(mse) or mse > 10.0 * initial:
                raise PretrainDivergence(
                    f"pretraining diverged at step {step + 1}: "
                    f"mse {mse:.4g} vs initial {initial:.4g}")
    final = mse if steps % MSE_CHECK_STEPS == 0 else grid_mse()
    if steps > 0 and final >= initial:
        raise PretrainDivergence(
            f"pretraining failed to reduce the grid MSE ({initial:.4g} -> {final:.4g})")
    return {"initial_mse": initial, "final_mse": final}


# -- checkpoint format -------------------------------------------------------
#
# ASCII header, one field per line, terminated by a blank line, followed by
# the raw little-endian float64 payload: for each layer, G1 then G2 in
# row-major order.
#
#   ROAGROW-LYAPNET 1
#   eps <float>
#   widths <d0> <d1> ... <dL>
#   <blank line>
#
# q = d_in for every G1 block, so all shapes follow from the widths.


def save_net(net: PDLyapunovNet, path):
    widths = [net.layers[0].d_in] + [l.d_out for l in net.layers]
    header = io.StringIO()
    header.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
    header.write(f"eps {net.layers[0].eps!r}\n")
    header.write("widths " + " ".join(str(w) for w in widths) + "\n\n")
    payload = net.flat_params().astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        fh.write(payload)


def load_net(path) -> PDLyapunovNet:
    """Read a checkpoint; a malformed file, or a payload shorter or longer
    than its header's widths need, raises a ValueError that names the
    defect."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, payload = blob.partition(b"\n\n")
    lines = head.decode("ascii", "replace").splitlines()
    if not lines or lines[0] != f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}":
        raise ValueError(f"not a version-{CHECKPOINT_VERSION} {CHECKPOINT_MAGIC} file")
    if len(lines) < 3:
        raise ValueError(f"checkpoint header is truncated: {len(lines)} of 3 lines")
    try:
        (key_eps, eps), (key_widths, *widths) = lines[1].split(), lines[2].split()
        widths = [int(w) for w in widths]
        if (key_eps, key_widths) != ("eps", "widths") or len(widths) < 2:
            raise ValueError
        net = PDLyapunovNet([PDLayer(np.zeros((d_in, d_in)), np.zeros((d_out - d_in, d_in)),
                                     float(eps))
                             for d_in, d_out in zip(widths[:-1], widths[1:])])
    except ValueError:
        raise ValueError(f"malformed checkpoint header {lines[1:3]}: expected "
                         "'eps <positive float>' and 'widths <d0> <d1> ...' with "
                         "non-decreasing widths") from None
    n_bytes = 8 * len(net.flat_params())
    if len(payload) != n_bytes:
        defect = "truncated" if len(payload) < n_bytes else "too long"
        raise ValueError(f"checkpoint payload is {defect}: expected {n_bytes} "
                         f"bytes for widths {widths}, got {len(payload)}")
    net.set_flat_params(np.frombuffer(payload, dtype="<f8").astype(float))
    return net
