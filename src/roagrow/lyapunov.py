"""Positive-definite Lyapunov candidate V(x) = ||v(x)||^2 and its gradients.

``v`` is a bias-free multilayer perceptron with tanh activations whose weight
matrices are built as a stack of G1'G1 + eps*I over a free block G2.  Both
blocks have trivial nullspace, so v(x) = 0 only at x = 0, which gives V(0) = 0
and V(x) > 0 elsewhere by construction rather than by training.

The reverse-mode pass here is special-purpose: it differentiates exactly the
compositions this project trains (weighted sums of V values over batches),
with respect to the free blocks or to the network input.  It runs in a
:class:`Workspace`, whose arrays a training loop reuses from step to step;
:meth:`PDLyapunovNet.grad_x` runs one for the input gradient.

Training runs in float32 and everything that certifies runs in float64.
Both training loops step in a float32 workspace, but ``params`` stay float64
master weights: one estimation step moves them by at most 5e-6 in norm,
a few float32 spacings per parameter near 0.1, which float32 would round
away in part or in whole.  :meth:`PDLyapunovNet.value`
(grid values, line search, labels), :meth:`~PDLyapunovNet.grad_x` (the
policy gradient) and checkpoints are float64.

V of a point is not bit-stable across batch sizes under OpenBLAS: in a batch
of 18 rows or fewer its low bits can differ from those in a larger batch, so
:meth:`PDLyapunovNet.value` keeps every block at ``VALUE_BLOCK`` rows or more.
"""

from __future__ import annotations

import io

import numpy as np

__all__ = [
    "PDLyapunovNet",
    "Workspace",
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


def build_weight(g1: np.ndarray, g2: np.ndarray, eps: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Effective weight: [G1'G1 + eps*I ; G2], shape (d_out, d_in), written
    into ``out`` when it is given."""
    d_in = g1.shape[1]
    if out is None:
        out = np.empty((d_in + len(g2), d_in))
    top = np.matmul(g1.T, g1, out=out[:d_in])
    top.flat[::d_in + 1] += eps
    out[d_in:] = g2
    return out


class PDLyapunovNet:
    """Three bias-free tanh layers with trivial-nullspace weights.

    V(x) is the squared norm of the final hidden activation.  Widths default
    to 2 -> 64 -> 64 -> 64 with q = d_in for every G1 block.

    ``params`` is the one parameter vector, laid out like the checkpoint
    payload: per layer, G1 (d_in, d_in) then G2 (d_out - d_in, d_in), both
    row-major.  It changes only in place, so ``layers``, the (G1, G2) views
    into it, stay valid.  Widths never contract, which keeps every stacked
    weight's nullspace trivial.
    """

    def __init__(self, params: np.ndarray, widths, eps: float):
        self.widths, self.eps = self._checked(widths, eps)
        self.params = np.asarray(params, dtype=float)
        n = sum(d_in * d_out for d_in, d_out in zip(self.widths, self.widths[1:]))
        if self.params.shape != (n,):
            raise ValueError(f"expected {n} parameters, got shape {self.params.shape}")
        self.layers = self.blocks(self.params)

    @staticmethod
    def _checked(widths, eps) -> tuple:
        widths, eps = tuple(int(w) for w in widths), float(eps)
        if not 0 < eps < np.inf:
            raise ValueError("eps must be a positive finite float")
        if any(d_out < d_in for d_in, d_out in zip(widths, widths[1:])):
            raise ValueError(f"widths must be non-contracting, got {widths}")
        return widths, eps

    def blocks(self, vec: np.ndarray) -> list:
        """(G1, G2) views, one pair per layer, into ``vec``, a vector laid out
        like ``params`` (the parameters themselves, or a gradient)."""
        out, pos = [], 0
        for d_in, d_out in zip(self.widths, self.widths[1:]):
            g1 = vec[pos:pos + d_in * d_in].reshape(d_in, d_in)
            pos += d_in * d_in
            g2 = vec[pos:pos + (d_out - d_in) * d_in].reshape(d_out - d_in, d_in)
            pos += (d_out - d_in) * d_in
            out.append((g1, g2))
        return out

    @classmethod
    def initialize(cls, rng: np.random.Generator, widths=(2, 64, 64, 64),
                   eps: float = 0.01) -> "PDLyapunovNet":
        """Uniform init in [-s, s] with s = 1/sqrt(fan_in) for both blocks.
        Invalid widths or eps raise before ``rng`` draws anything."""
        widths, eps = cls._checked(widths, eps)
        blocks = []
        for d_in, d_out in zip(widths[:-1], widths[1:]):
            s = 1.0 / np.sqrt(d_in)
            blocks += [rng.uniform(-s, s, size=d_in * d_in),
                       rng.uniform(-s, s, size=(d_out - d_in) * d_in)]
        return cls(np.concatenate(blocks), widths, eps)

    def copy(self) -> "PDLyapunovNet":
        return PDLyapunovNet(self.params.copy(), self.widths, self.eps)

    def value(self, x) -> np.ndarray:
        """V(x) = ||v(x)||^2 for a batch (n, 2); returns (n,).  Keeps no
        activations: blocks of ``VALUE_BLOCK`` rows or more, or the whole batch."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ws = [build_weight(g1, g2, self.eps) for g1, g2 in self.layers]
        v = []
        for h in np.array_split(x, max(1, len(x) // VALUE_BLOCK)):
            for w in ws:
                h = h @ w.T
                np.tanh(h, out=h)
            v.append(np.einsum("ij,ij->i", h, h))
        return np.concatenate(v)

    def grad_x(self, x) -> tuple:
        """``(V, dV/dx)`` per sample, shapes (n,) and (n, 2), from one
        forward pass; no parameter gradient is formed."""
        work = Workspace(self)
        v = work.forward(x)
        work.backward(np.ones(len(v)), d_input=True)
        return v, work.delta[0]

    def sgd_step(self, grad: np.ndarray, lr: float):
        """In-place plain SGD update of the float64 ``params``."""
        self.params -= lr * grad


class Workspace:
    """The arrays of a forward and a reverse pass of ``net``, all of
    ``dtype``: the weights that :func:`build_weight` builds, the activations,
    the backpropagated deltas, the weight gradients and the flat gradient and
    its squares.  A pass over a batch with as many rows as the last one reuses
    them; another row count reallocates the row-sized ones.  Reuse is
    invisible: every pass gives the bits that a fresh workspace gives.

    In float32, each forward first casts the net's float64 ``params`` into a
    float32 copy and builds the weights from that, so every product and
    ``tanh`` runs in float32; the net's ``params`` stay float64.

    One SGD step is :meth:`forward`, :meth:`backward`, then :meth:`clip` when
    the gradient is capped.  Results live in the workspace's own arrays and
    the next pass overwrites them; :meth:`backward` overwrites the hidden
    activations with their tanh slopes, so it follows each forward once.
    """

    def __init__(self, net: PDLyapunovNet, dtype=np.float64):
        self.net, self.dtype = net, np.dtype(dtype)
        # the net's params, or the copy in dtype that each forward refreshes
        self.params = (net.params if self.dtype == net.params.dtype
                       else np.empty(net.params.shape, self.dtype))
        shapes = list(zip(net.widths, net.widths[1:]))
        self.ws, self.dw, self.dw_x = ([np.empty((d_out, d_in), self.dtype)
                                        for d_in, d_out in shapes] for _ in range(3))
        self.sym = [np.empty((d_in, d_in), self.dtype) for d_in, _ in shapes]
        self.grad = np.empty_like(self.params)
        self.grad_extra = np.empty_like(self.params)
        # (G1, G2) views of the flat vectors
        self.layers = net.blocks(self.params)
        self.grad_blocks = net.blocks(self.grad)
        self.extra_blocks = net.blocks(self.grad_extra)
        # each non-empty block of grad, in layout order, beside the array
        # that receives its squares
        self.squares = [(g, s) for pair, s_pair in zip(
                            self.grad_blocks, net.blocks(np.empty_like(self.params)))
                        for g, s in zip(pair, s_pair) if g.size]
        self.n = self.m = -1

    def _size(self, n: int):
        if n != self.n:
            self.n = n
            self.acts = [None] + [np.empty((n, d), self.dtype)
                                  for d in self.net.widths[1:]]
            self.delta = [np.empty((n, d), self.dtype) for d in self.net.widths]
            self.v = np.empty(n, self.dtype)

    def _size_extra(self, m: int):
        if m != self.m:
            self.m = m
            self.dz_x = [np.empty((m, d), self.dtype) for d in self.net.widths[1:]]
            self.delta_x = [np.empty((m, d), self.dtype) for d in self.net.widths]

    def release(self):
        """Free the row-sized arrays, so that they are not held beside a
        grid pass; the next :meth:`forward` allocates them again."""
        self.n = self.m = -1
        self.acts = self.delta = self.v = self.dz_x = self.delta_x = None

    def forward(self, x) -> np.ndarray:
        """V of each row of the batch ``x`` (n, 2), kept with the activations
        for :meth:`backward`."""
        x = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        self._size(len(x))
        self.acts[0] = h = x
        if self.params is not self.net.params:
            self.params[...] = self.net.params
        for (g1, g2), w in zip(self.layers, self.ws):
            build_weight(g1, g2, self.net.eps, w)
        for w, h_next in zip(self.ws, self.acts[1:]):
            h = np.matmul(h, w.T, out=h_next)
            np.tanh(h, out=h)
        return np.einsum("ij,ij->i", h, h, out=self.v)

    def backward(self, out_weights, extra_weights=None, d_input: bool = False):
        """Reverse pass of the last :meth:`forward` for
        S = sum_i out_weights[i] * V(x[i]).

        By default ``grad`` holds the gradient of S laid out like the net's
        ``params``; with ``d_input``, ``delta[0]`` holds the per-row gradient
        of S w.r.t. the input instead, and no parameter gradient is formed.
        ``extra_weights`` (m,) is a second weight column for the first m
        rows; the gradient of its sum goes to ``grad_extra``, from the same
        sweep over the cached activations, so a caller can treat the two
        sums differently (clip one, not the other).
        """
        acts, ws, n_layers = self.acts, self.ws, len(self.ws)
        out_weights = np.asarray(out_weights, dtype=self.dtype)
        delta = np.multiply(2.0 * out_weights[:, None], acts[-1],
                            out=self.delta[-1])            # dS/dh_L
        m = 0 if extra_weights is None else len(extra_weights)
        self._size_extra(m)
        if m:
            extra = np.asarray(extra_weights, dtype=self.dtype)
            delta_x = np.multiply(2.0 * extra[:, None], acts[-1][:m],
                                  out=self.delta_x[-1])
        for ell in range(n_layers - 1, -1, -1):
            # through tanh: the slope, in place of the activation that
            # no later layer reads, then dz
            dz = np.square(acts[ell + 1], out=acts[ell + 1])
            np.subtract(1.0, dz, out=dz)
            if m:
                dz_x = np.multiply(delta_x, dz[:m], out=self.dz_x[ell])
                # np.dot: matmul takes a slow loop for a single row (m = 1)
                np.dot(dz_x.T, acts[ell][:m], out=self.dw_x[ell])
                if ell:
                    delta_x = np.matmul(dz_x, ws[ell], out=self.delta_x[ell])
            dz *= delta
            if not d_input:
                np.matmul(dz.T, acts[ell], out=self.dw[ell])
            if ell or d_input:
                delta = np.matmul(dz, ws[ell], out=self.delta[ell])
        if not d_input:
            self._free_block_grads(self.dw, self.grad_blocks)
        if m:
            self._free_block_grads(self.dw_x, self.extra_blocks)

    def _free_block_grads(self, d_weights: list, blocks: list):
        """Map gradients w.r.t. the stacked weights onto ``blocks``, the
        (G1, G2) views of a flat vector laid out like ``params``."""
        for (g1, _), (d_g1, d_g2), dw, sym in zip(
                self.layers, blocks, d_weights, self.sym):
            d_in = len(g1)
            np.add(dw[:d_in], dw[:d_in].T, out=sym)
            np.matmul(g1, sym, out=d_g1)
            d_g2[...] = dw[d_in:]

    def clip(self, max_norm: float) -> np.ndarray:
        """``grad`` scaled to a norm of at most ``max_norm``, then the extra
        column's gradient added uncapped; returns ``grad``."""
        grad = self.grad
        # block by block: a flat dot product differs in its low bits
        norm = np.sqrt(sum(np.square(g, out=s).sum() for g, s in self.squares))
        if norm > max_norm:
            grad *= max_norm / norm
        if self.m:
            grad += self.grad_extra
        return grad


def quadratic_target(x: np.ndarray, coeff: float = 0.1) -> np.ndarray:
    """The pretraining target coeff * (theta^2 + omega^2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return coeff * (x[:, 0] ** 2 + x[:, 1] ** 2)


def pretrain_quadratic(net: PDLyapunovNet, grid_points: np.ndarray,
                       target: np.ndarray, rng: np.random.Generator,
                       lr: float = 0.001, steps: int = 10_000,
                       batch: int = 256) -> dict:
    """Fit V to ``target``, one value per grid point, by mini-batch SGD on
    the grid points (:func:`quadratic_target` gives the isotropic shape),
    stepping in a float32 :class:`Workspace`; the grid MSE is float64.

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
    work = Workspace(net, np.float32)
    for step in range(steps):
        idx = rng.integers(0, n, size=min(batch, n))
        xb = grid_points[idx]
        err = work.forward(xb) - target_all[idx]
        # d/dtheta mean(err^2) via weights 2*err/m on each sample's V
        work.backward(2.0 * err / len(xb))
        net.sgd_step(work.grad, lr)
        if (step + 1) % MSE_CHECK_STEPS == 0:
            work.release()
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
# the raw little-endian float64 payload, ``PDLyapunovNet.params``: for each
# layer, G1 then G2 in row-major order.
#
#   ROAGROW-LYAPNET 1
#   eps <float>
#   widths <d0> <d1> ... <dL>
#   <blank line>
#
# q = d_in for every G1 block, so all shapes follow from the widths.


def save_net(net: PDLyapunovNet, path):
    header = io.StringIO()
    header.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
    header.write(f"eps {net.eps!r}\n")
    header.write("widths " + " ".join(str(w) for w in net.widths) + "\n\n")
    payload = net.params.astype("<f8").tobytes()
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
        net = PDLyapunovNet(np.zeros(sum(a * b for a, b in zip(widths, widths[1:]))),
                            widths, float(eps))
    except ValueError:
        raise ValueError(f"malformed checkpoint header {lines[1:3]}: expected "
                         "'eps <positive finite float>' and 'widths <d0> <d1> ...' "
                         "with non-decreasing widths") from None
    n_bytes = 8 * len(net.params)
    if len(payload) != n_bytes:
        defect = "truncated" if len(payload) < n_bytes else "too long"
        raise ValueError(f"checkpoint payload is {defect}: expected {n_bytes} "
                         f"bytes for widths {widths}, got {len(payload)}")
    net.params[:] = np.frombuffer(payload, dtype="<f8")
    return net
