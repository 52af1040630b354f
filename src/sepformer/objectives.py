"""Training objectives and evaluation metrics.

The training loss is negative scale-invariant SNR under an exhaustive
utterance-level permutation search. SI-SNR uses a soft ceiling: a tau
fraction of the projected-target energy is added to the residual, so a
perfect estimate tops out at 10*log10(1/tau) = 30 dB while gradients stay
alive near the ceiling. SI-SNR improvement over the mixture is read off
a permutation search's result, by the training loop and by reporting
alike. Adam (betas and epsilon are module constants) follows global-norm
gradient clipping in a small deterministic training loop with
plateau-halved learning rate.

SI-SNR is one tape record: its arithmetic runs in numpy and its backward
is closed form, to the estimate and to the target, so a PIT loss over Ns
sources records Ns^2 + Ns entries. The residual is kept as a vector; its
energy is never taken as a difference of energies, which would cancel
near the ceiling. Adam keeps its moments in two flat buffers, in the
order of the parameter dict, and updates all parameters with whole-buffer
ops; each element sees the per-tensor expression, so the result is the
same bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import ndkernel as nd
from .ndkernel import Tape, Tensor

__all__ = [
    "SISNR_TAU", "UndefinedTargetError", "TrainingDivergedError",
    "has_energy", "si_snr", "si_snr_db", "pit_loss", "PitResult",
    "si_snr_improvement", "ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS",
    "OptimState", "init_optim_state", "clip_gradients", "adam_step",
    "PlateauScheduler", "TraceRow", "write_trace", "train_toy",
]

SISNR_TAU = 1e-3
_LOG10_SCALE = 10.0 / math.log(10.0)


class UndefinedTargetError(ValueError):
    """Metrics are undefined for a zero-energy target."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending step index."""

    def __init__(self, step, value):
        super().__init__("non-finite loss %r at step %d" % (value, step))
        self.step = step


def has_energy(x):
    """Whether array ``x`` is nonzero after mean removal, as SI-SNR needs."""
    return bool(np.any(x - x.mean()))


def si_snr(estimate, target):
    """Scale-invariant SNR in dB as a differentiable 0-d tensor.

    Both signals are zero-meaned, the estimate is projected onto the
    target, and the ratio of projected energy to residual energy (plus the
    tau soft-clip term) is returned on a log scale. Invariant to rescaling
    either argument; maximum 30 dB. The arithmetic runs in numpy and the
    tape gets one record, whose backward is the closed form below.
    """
    estimate, target = nd.as_tensor(estimate), nd.as_tensor(target)
    if estimate.shape != target.shape or estimate.data.ndim != 1:
        raise ValueError("signals must be 1-d and equal length, got %r / %r"
                         % (estimate.shape, target.shape))
    if not has_energy(target.data):
        raise UndefinedTargetError("target has zero energy after mean removal")
    c = -1.0 / target.shape[0]
    e0 = estimate.data + estimate.data.sum() * c
    s0 = target.data + target.data.sum() * c
    energy = (s0 * s0).sum()
    alpha = (e0 * s0).sum() / energy
    proj = s0 * alpha
    # the residual stays an explicit vector: its energy taken as
    # e0.e0 - (e0.s0)^2 / s0.s0 instead would cancel near the ceiling
    resid = e0 - proj
    proj_energy = (proj * proj).sum()
    resid_energy = (resid * resid).sum() + proj_energy * SISNR_TAU
    out = Tensor((np.log(proj_energy) - np.log(resid_energy))
                 * _LOG10_SCALE)

    def backward(g):
        # V = k (ln P - ln R) with P = p.p, R = r.r + tau P, p = alpha s0,
        # r = e0 - p and alpha = (e0.s0) / E, E = s0.s0. The gradient to p
        # (r held) is gp = cp p + cr r, and r adds -cr r to e0. Through
        # alpha, with ga = gp.s0 / E, gp reaches e0 as ga s0 and s0 as
        # alpha gp + ga (e0 - 2 p) = alpha gp + ga (r - p). Mean removal
        # then centres both gradients.
        k = 2.0 * g * _LOG10_SCALE
        cr = k / resid_energy
        cp = k * (1.0 / proj_energy - SISNR_TAU / resid_energy)
        gp = cp * proj + cr * resid
        ga = (gp * s0).sum() / energy
        ge = ga * s0 - cr * resid
        gs = alpha * gp + ga * (resid - proj)
        ge -= ge.mean()
        gs -= gs.mean()
        return ge, gs

    nd._record(out, (estimate, target), backward)
    return out


def si_snr_db(estimate, target):
    """Float convenience wrapper around :func:`si_snr`."""
    return si_snr(estimate, target).item()


@dataclass
class PitResult:
    """Outcome of the exhaustive permutation search."""

    permutation: tuple          # estimate index -> target index
    mean_db: float              # mean SI-SNR under the best permutation


def pit_loss(estimates, targets):
    """Permutation-invariant loss: minus the best mean SI-SNR.

    All source-to-target assignments are enumerated (sources <= 3, so at
    most 6); ties go to the lexicographically smallest permutation. The
    returned loss tensor differentiates through the winning assignment.
    """
    if len(estimates) != len(targets):
        raise ValueError("got %d estimates but %d targets"
                         % (len(estimates), len(targets)))
    ns = len(estimates)
    if not 1 <= ns <= 3:
        raise ValueError("permutation search supports 1..3 sources, got %d"
                         % ns)
    targets = [nd.as_tensor(t) for t in targets]
    pairs = [[si_snr(e, t) for t in targets] for e in estimates]
    matrix = np.array([[p.item() for p in row] for row in pairs])
    best_perm = None
    best_mean = -np.inf
    for perm in permutations(range(ns)):
        mean = matrix[range(ns), perm].mean()
        if mean > best_mean:
            best_mean, best_perm = mean, perm
    if best_perm is None:
        # non-finite metric matrix; keep the identity assignment so the
        # caller sees the non-finite loss instead of a crash here
        best_perm = tuple(range(ns))
        best_mean = float(matrix[range(ns), best_perm].mean())
    # minus the winning pairs' mean, one tape record that hands each pair
    # the gradient times -1/ns
    picked = tuple(pairs[i][j] for i, j in enumerate(best_perm))
    c = -1.0 / ns
    loss = Tensor(sum((p.data for p in picked[1:]), picked[0].data) * c)
    nd._record(loss, picked, lambda g: (g * c,) * ns)
    return loss, PitResult(best_perm, float(best_mean))


def si_snr_improvement(mixture, targets, pit):
    """SI-SNRi of the estimates that :func:`pit_loss` scored as ``pit``:
    their mean SI-SNR minus the mixture's against the targets it paired
    with them."""
    baseline = np.mean([si_snr_db(mixture, targets[j])
                        for j in pit.permutation])
    return pit.mean_db - float(baseline)


# ---------------------------------------------------------------------------
# optimizer

# Adam's decay rates of the first and second moments, and the epsilon
# added to the root of the second
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam accumulators: ``m`` and ``v`` are flat buffers holding every
    parameter's entries, in the order of the parameter dict."""

    lr: float
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def init_optim_state(params, lr):
    n = sum(t.size for t in params.values())
    return OptimState(lr=lr, m=np.zeros(n), v=np.zeros(n))


def clip_gradients(grads, max_norm):
    """Scale the whole gradient set so its global l2 norm is <= max_norm.

    Returns the pre-clip norm; ``grads`` is modified in place.
    """
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def adam_step(params, grads, state):
    """Bias-corrected Adam update, in place; expects pre-clipped grads.

    The gradients are concatenated once, in ``params`` order, and the
    update runs over whole buffers before each tensor takes its slice.
    Every element sees the expression of a per-tensor update in the same
    order, so the result does not depend on the grouping.
    """
    g = np.concatenate([grads[name].reshape(-1) for name in params])
    if state.m.shape != g.shape or state.v.shape != g.shape:
        raise ValueError("optimizer state holds %d / %d moment entries, "
                         "the parameters %d" % (state.m.size, state.v.size,
                                                g.size))
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    step = m / (1 - b1 ** t)
    step *= state.lr
    vhat = v / (1 - b2 ** t)
    np.sqrt(vhat, out=vhat)
    vhat += ADAM_EPS
    step /= vhat
    start = 0
    for tensor in params.values():
        stop = start + tensor.size
        tensor.data -= step[start:stop].reshape(tensor.shape)
        start = stop


class PlateauScheduler:
    """Halve the learning rate after ``PLATEAU_PATIENCE`` evaluations
    without improvement (strictly higher metric resets the counter)."""

    def __init__(self, state):
        self.state = state
        self.best = -np.inf
        self.stall = 0

    def update(self, metric):
        if metric > self.best:
            self.best = metric
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= PLATEAU_PATIENCE:
                self.state.lr *= 0.5
                self.stall = 0


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TraceRow:
    """One training step: ``grad_norm`` is the global gradient norm before
    clipping, ``tape_records`` the number of ops the step's tape recorded;
    of ``wall_ms``, ``forward_ms`` went to the separation and the PIT loss,
    ``backward_ms`` to the tape's replay."""

    step: int
    loss: float
    lr: float
    si_snri: float
    wall_ms: float
    grad_norm: float
    tape_records: int
    forward_ms: float
    backward_ms: float


TRACE_HEADER = ("step,loss,lr,si_snri,wall_ms,grad_norm,tape_records,"
                "forward_ms,backward_ms")


def write_trace(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in rows:
            fh.write("%d,%.17g,%.17g,%.17g,%.6g,%.17g,%d,%.6g,%.6g\n"
                     % (r.step, r.loss, r.lr, r.si_snri, r.wall_ms,
                        r.grad_norm, r.tape_records, r.forward_ms,
                        r.backward_ms))


# train_toy's fixed schedule: the global-norm clip, and the learning rate
# halves after PLATEAU_PATIENCE evaluations, one every EVAL_EVERY steps,
# without a better SI-SNRi
CLIP_NORM = 5.0
PLATEAU_PATIENCE = 3
EVAL_EVERY = 100


def train_toy(model, data_fn, steps, lr=1.5e-4):
    """Desk-scale training: batch size 1, Adam, clipped gradients, PIT loss.

    ``data_fn(step)`` must deterministically return (mixture, targets) as
    1-d arrays; a constant item makes this an overfit run. Returns the
    per-step trace (:func:`write_trace` saves it). Raises
    :class:`TrainingDivergedError` on a non-finite loss, naming the step.
    """
    params = model.parameters()
    state = init_optim_state(params, lr=lr)
    scheduler = PlateauScheduler(state)
    rows = []
    for step in range(steps):
        mixture, targets = data_fn(step)
        t0 = time.perf_counter()
        with Tape() as tape:
            loss, pit = pit_loss(model.separate(mixture).estimates, targets)
            tape_records = len(tape._records)
            t1 = time.perf_counter()
            grads_list = tape.gradient(loss, params.values())
        t2 = time.perf_counter()
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise TrainingDivergedError(step, loss_value)
        grads = dict(zip(params.keys(), grads_list))
        grad_norm = clip_gradients(grads, CLIP_NORM)
        adam_step(params, grads, state)
        si_snri = si_snr_improvement(mixture, targets, pit)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rows.append(TraceRow(step, loss_value, state.lr, si_snri, wall_ms,
                             grad_norm, tape_records, (t1 - t0) * 1e3,
                             (t2 - t1) * 1e3))
        if (step + 1) % EVAL_EVERY == 0:
            scheduler.update(si_snri)
    return rows
