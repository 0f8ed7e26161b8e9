"""One-pass SGD on the high-dimensional single-index model.

A teacher label y = phi(w_star . x) is fit by a student
yhat = sigma((w_frozen + u * w) . x) with trainable magnitude u and trainable
unit direction w, from fresh standard Gaussian batches (each sample is used
exactly once).  The frozen part is either aligned (mu * w_star) or mixed
(mu * w_star + (1 - mu) * xi with xi a fixed unit vector orthogonal to
w_star).

Updates use the batch mean of per-sample gradients of (y - yhat)^2 (or of
the correlation objective 1 - y*yhat), after which w is renormalized to the
unit sphere.  One SGD step at learning rate gamma corresponds to a flow-time
increment 2*gamma/delta of the reduced description.

Randomness is counter-based: step t of a run draws from
Philox(key=(seed, stream), counter=(0,0,0,t)), so trajectories are
reproducible per (seed, stream, step) and independent of execution order.
step_rng builds that generator; a run keeps one Philox per stream
(counter_stream) and resets it to each step's counter, which yields the
same draws bit for bit.

Every step runs through one kernel, _step, which also returns the residuals
y - yhat of the batch it consumed.  It draws through the run's frame
sampler, _Workspace (the reset generators, a preallocated frame, one
d-vector of scratch), and runs its d-vector passes in place, in the order
of the plain expressions, so every bit is kept.  Its two samplers differ
only in how the batch is drawn, and produce identical process laws:

* "literal"   materializes the full (batch, d) Gaussian matrix;
* "subspace"  draws only the coordinates along the active frame
  (w_star, [xi,] w), built by orthonormal_frame, plus a single d-vector
  for the orthogonal remainder of the batch-mean gradient, which has the
  exact conditional law N(0, |c|^2 (I - F F^T)) given the frame
  coordinates (_Workspace.lift).

The subspace sampler is the default; it makes the cost per step
O(batch + d) instead of O(batch * d).  Held-out test errors, of records and
of measure_test_mse alike, draw frame coordinates through the same sampler.
init_state builds xi and the off-w_star part of w with orthonormal_frame.
The committee simulator draws its batches and lifts its gradient through
_Workspace too, with the teachers as fixed rows and the adapters as free
ones.

Since a draw depends only on (seed, stream, counter, shape), a long run
draws ahead on a second core: a worker process forked for the run
(_Workspace.drawing_ahead) draws its batches and held-out samples with the
same generator code into a ring in shared memory, and batch takes them from
there.  The main draws in line whatever the worker has not started, so the
two share the draws, and the bits are the same either way.  No setting
chooses this.  A run stays in line when it makes fewer than _ENGAGE_ITEMS
such draws, for the literal sampler, for steps with d > 10 000 (whose
d-vectors OpenBLAS already spreads over the cores), inside a daemonic
process, and off x86-64 Linux.  A worker that dies costs time only: the run
goes on in line and ends with one RuntimeWarning.
"""
from __future__ import annotations

import math
import os
import signal
import sys
import time
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .activations import ActivationSpec, LabelTransform, transform_teacher
from .ode import BLOWUP_LIMIT, NumericalBlowupError
from .theory import ModelConfig, OrderParameterState, default_delta, population_loss

_INIT_STREAM = 0
_TRAIN_STREAM = 1
_MEASURE_STREAM = 2


@dataclass(frozen=True)
class Curriculum:
    """Two-stage label schedule: train on squared labels, then raw ones.

    Stage 1 presents the square of the teacher output and ends at the first
    step with m >= switch_threshold; stage 2 resumes with the raw teacher.
    Test error is always measured against the raw teacher.
    """

    switch_threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.switch_threshold < 1.0):
            raise ValueError("switch_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one SGD run."""

    teacher: ActivationSpec
    student: ActivationSpec
    mu: float
    d: int
    batch_size: int
    learning_rate: float
    n_steps: int
    seed: int = 0
    frozen_mode: str = "aligned"
    objective: str = "mse"
    sampler: str = "subspace"
    align_threshold: float = 0.98
    record_every: int = 1
    init_magnitude: float | None = None
    init_overlap: float | None = None
    curriculum: Curriculum | None = None
    stop_when_aligned: bool = False
    k_max: int = 25

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie strictly inside (0, 1)")
        if self.d < 4:
            raise ValueError("d must be at least 4")
        if self.batch_size < 1 or self.n_steps < 1:
            raise ValueError("batch_size and n_steps must be positive")
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if self.init_magnitude is not None and not math.isfinite(self.init_magnitude):
            raise ValueError("init_magnitude must be finite")
        if self.frozen_mode not in ("aligned", "mixed"):
            raise ValueError("frozen_mode must be 'aligned' or 'mixed'")
        if self.objective not in ("mse", "correlation"):
            raise ValueError("objective must be 'mse' or 'correlation'")
        if self.sampler not in ("subspace", "literal"):
            raise ValueError("sampler must be 'subspace' or 'literal'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not (0.0 < self.align_threshold <= 1.0):
            raise ValueError("align_threshold must lie in (0, 1]")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must lie in [0, 2**64)")


def step_rng(seed: int, stream: int, step: int) -> np.random.Generator:
    """Counter-based generator for one step of one stream of one run, keyed by
    the exact uint64 pair (seed, stream): a list would pass seeds >= 2**63 through float64."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, step]))


def counter_stream(seed: int, stream: int):
    """step -> the generator step_rng(seed, stream, step) would build, served
    by one Philox per stream whose state each call resets to key
    (seed, stream), counter (0, 0, 0, step) and an empty buffer; the
    generator one call returns is reset by the next."""
    gen = step_rng(seed, stream, 0)
    bitgen = gen.bit_generator
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": bitgen.state["state"]["key"].tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def at(step: int) -> np.random.Generator:
        counter[3] = step
        bitgen.state = state
        return gen

    return at


def epoch_time_scale(cfg: SimConfig) -> float:
    """Flow-time increment of one SGD step: 2 * learning_rate / delta."""
    return 2.0 * cfg.learning_rate / default_delta(cfg.student)


def scaled_learning_rate(base_rate: float, student: ActivationSpec) -> float:
    """base_rate * delta for the student (delta = 1/(k! k) when pure Hermite)."""
    return base_rate * default_delta(student)


@dataclass(frozen=True, eq=False)
class SimState:
    """Instantaneous simulator state (all direction vectors unit norm)."""

    u: float
    omega: np.ndarray
    omega_star: np.ndarray
    omega_tilde: np.ndarray
    xi: np.ndarray | None
    step: int

    @property
    def m(self) -> float:
        return float(self.omega @ self.omega_star)


def init_state(cfg: SimConfig) -> SimState:
    """Draw the initial geometry.

    w_star is a random unit vector; w starts with overlap exactly
    init_overlap (default +1/sqrt(d)) against w_star, the rest of it random
    in the orthogonal complement; u starts at init_magnitude (default
    1/sqrt(d)).  In mixed mode xi is a random unit vector orthogonal to
    w_star and the frozen part is mu*w_star + (1-mu)*xi.
    """
    rng = step_rng(cfg.seed, _INIT_STREAM, 0)
    overlap = cfg.init_overlap if cfg.init_overlap is not None else 1.0 / np.sqrt(cfg.d)
    if not (-1.0 < overlap < 1.0):
        raise ValueError("init_overlap must lie strictly inside (-1, 1)")
    mixed = cfg.frozen_mode == "mixed"
    # frame rows w_star, [xi,] g, drawn in that order; g is w's direction off w_star
    F = np.empty((2 + mixed, cfg.d))
    for row in F:
        rng.standard_normal(out=row)
    w_star = F[0]
    w_star /= math.sqrt(w_star @ w_star)
    scratch = np.empty(cfg.d)
    F = orthonormal_frame(F, F[:1], scratch)
    xi = F[1] if mixed else None
    # g becomes w in place, and the scratch vector becomes omega_tilde
    omega = F[-1]
    omega *= np.sqrt(1.0 - overlap * overlap)
    omega += np.multiply(w_star, overlap, out=scratch)
    omega /= math.sqrt(omega @ omega)
    omega_tilde = np.multiply(w_star, cfg.mu, out=scratch)
    if xi is not None:
        omega_tilde += (1.0 - cfg.mu) * xi
    u0 = cfg.init_magnitude if cfg.init_magnitude is not None else 1.0 / np.sqrt(cfg.d)
    return SimState(
        u=float(u0), omega=omega, omega_star=w_star, omega_tilde=omega_tilde, xi=xi, step=0
    )


def _teacher_for_stage(cfg: SimConfig, stage: int) -> ActivationSpec:
    if cfg.curriculum is not None and stage == 1:
        return transform_teacher(cfg.teacher, LabelTransform("square"))
    return cfg.teacher


def orthonormal_frame(F: np.ndarray, rows, scratch: np.ndarray) -> np.ndarray:
    """Gram-Schmidt in place on the rows of the (f, d) array F, whose first
    len(rows) rows hold rows, orthonormal already; residuals are taken
    against rows itself, so the dot products see its memory layout.  Each
    later row becomes its normalized residual against the rows kept before
    it, or is dropped when that residual vanishes.  Returns the view of F's
    kept rows; scratch is a d-vector the residuals pass through."""
    basis = list(rows)
    for v in F[len(basis):]:
        for b in basis:
            v -= np.multiply(v @ b, b, out=scratch)
        nrm = math.sqrt(v @ v)
        if nrm > 1e-10:
            basis.append(np.divide(v, nrm, out=F[len(basis)]))
    return F[:len(basis)]


class _Workspace:
    """The frame sampler of one run, which both SGD simulators draw through:
    a counter_stream per random stream, the (f, d) frame whose fixed rows
    (the non-None entries of fixed) are copied in once, and one d-vector
    res.  frame() Gram-Schmidts the free rows against the fixed ones, with
    res as scratch; batch() draws a batch's frame coordinates and then, for
    a step, the residual into res (_draw); lift(c, coords) forms the
    batch-mean gradient and uses that residual up.  No state holds any of
    it.  Inside drawing_ahead(), batch() takes the draws of a worker process
    when it has made them (_Ahead), with the same bits; the block ends the
    worker, on return and on any exception alike."""

    def __init__(self, seed: int, fixed, n_free: int, d: int):
        self.train = counter_stream(seed, _TRAIN_STREAM)
        self.measure = counter_stream(seed, _MEASURE_STREAM)
        self.fixed = [row for row in fixed if row is not None]
        self.rows = np.empty((len(self.fixed) + n_free, d))
        self.rows[:len(self.fixed)] = self.fixed
        self.res = np.empty(d)
        self.ahead = None

    def frame(self, free_rows) -> np.ndarray:
        """The orthonormal frame of the fixed rows and free_rows, kept for
        batch and lift; residuals are taken against the fixed rows' memory."""
        self.rows[len(self.fixed):] = free_rows
        self.F = orthonormal_frame(self.rows, self.fixed, self.res)
        return self.F

    @contextmanager
    def drawing_ahead(self, n_steps: int, batch_size: int, record_every: int = 0):
        """Within the block, a worker process draws the run's schedule of
        batches (_schedule) ahead for batch() to take, when the run is long
        enough to repay it (_Ahead.start); the worker is gone on leaving."""
        self.ahead = _Ahead.start(self, n_steps, batch_size, record_every)
        try:
            yield
        finally:
            ahead, self.ahead = self.ahead, None
            if ahead is not None:
                ahead.stop()

    def batch(self, stream, step: int, n: int, residual: bool = True) -> np.ndarray:
        """(n, f) standard normal frame coordinates from counter step of
        stream, then (when residual) the standard normal residual in res:
        taken from the worker when it drew this item with this shape, else
        drawn here by _draw."""
        if self.ahead is not None:
            key = (_TRAIN_STREAM if stream is self.train else _MEASURE_STREAM, step)
            coords = self.ahead.take(key, n, self.F.shape[0], residual, self.res)
            if coords is not None:
                return coords
        coords, _ = _draw(stream(step), np.empty((n, self.F.shape[0])), self.res if residual else None)
        return coords

    def lift(self, c: np.ndarray, coords: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Batch-mean gradient mean(c_i x_i) as a d-vector, from the batch's
        weights c and frame coordinates: its frame part (c @ coords) / batch
        is exact, the rest has the law N(0, scale^2 (I - F^T F)), scale =
        |c| / batch, drawn as scale times the residual projected off the
        frame.  The gradient is written to out; the residual is used up."""
        F = self.F
        np.matmul(F.T, F @ self.res, out=out)
        res = np.subtract(self.res, out, out=self.res)
        res *= math.sqrt(c @ c) / len(c)
        return np.add(np.matmul(F.T, (c @ coords) / len(c), out=out), res, out=out)


# A run draws ahead only with this many schedule items or more, since the
# fork and the join cost about as much as 50 in-line step draws; steps whose
# residual has more than _INLINE_D entries stay in line, since OpenBLAS
# already spreads those d-vectors over the cores.  The ring stays within
# _RING_BYTES, and the worker at most _MAX_SLOTS items ahead, so a run that
# stops early wastes few draws.
_ENGAGE_ITEMS = 256
_INLINE_D = 10_000
_RING_BYTES = 1 << 20
_MAX_SLOTS = 64
# the ring's protocol needs the stores of one process to reach the other in
# program order, as on x86-64; fork is POSIX
_CAN_DRAW_AHEAD = sys.platform == "linux" and os.uname().machine == "x86_64"


def _schedule(n_steps: int, record_every: int, steps: bool):
    """(stream, counter) of each draw a run makes through batch, in order:
    step t's batch on counter t - 1 of the training stream (when steps),
    then, when record_every, the held-out draws of its records on the
    measurement stream: block 0 for the initial state at step 1, and block t
    for step t at every record_every-th step and the last."""
    for t in range(1, n_steps + 1):
        if steps:
            yield _TRAIN_STREAM, t - 1
        if record_every and t == 1:
            yield _MEASURE_STREAM, 0
        if record_every and (t % record_every == 0 or t == n_steps):
            yield _MEASURE_STREAM, t


def _draw(rng: np.random.Generator, coords: np.ndarray, res: np.ndarray | None) -> tuple:
    """Every draw of a schedule item, in line, held or the worker's: standard
    normals into coords, then into res when given; returns (coords, res)."""
    rng.standard_normal(out=coords)
    if res is not None:
        rng.standard_normal(out=res)
    return coords, res


def _slot_item(slot: np.ndarray, n: int, f: int, d: int) -> tuple:
    """An item's (n, f) coordinates and residual (None if d is 0) as views of its slot."""
    return slot[:n * f].reshape(n, f), slot[n * f:n * f + d] if d else None


def _draw_ahead(items, streams: dict, shapes: dict, ctrl, slots, parent: int) -> None:
    """The worker: draws each item of the schedule that the main has not
    claimed into its slot, by _draw with the run's counter_streams, and
    marks it started, then drawn or skipped (see _Ahead).  Returns once the
    schedule is done, or when its parent is gone, which it checks while it
    waits for a slot."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main stops it
    n_slots = len(slots)
    for j, (stream, counter) in enumerate(items):
        spins = 0
        while ctrl[1] <= j - n_slots:  # the main still reads this slot's last item
            spins += 1
            if spins % 1024 == 0:  # the worker is well ahead: it naps
                if os.getppid() != parent:
                    return
                time.sleep(1e-4)
        if ctrl[0] > j:
            continue
        status = 2 + j % n_slots
        ctrl[status] = 3 * j + 1
        if ctrl[0] > j:  # the main claimed it meanwhile and draws it in line
            ctrl[status] = 3 * j + 3
            continue
        _draw(streams[stream](counter), *_slot_item(slots[j % n_slots], *shapes[stream]))
        ctrl[status] = 3 * j + 2


class _Ahead:
    """A worker process that draws one run's schedule ahead of its main loop
    into a ring of slots in shared memory.  The control words are the
    number of items the main has claimed, the number it has released, then
    for each slot 3j + 1, 3j + 2 or 3j + 3 when the worker has started,
    drawn or skipped item j in it.  The main claims each item before it
    looks at its slot.  If the worker has not started the item, the main
    draws it in line, and the worker, which reads the claim again after
    marking the item started, skips it; so the main never waits for the
    worker to reach an item.  While the worker ends an item the main needs,
    the main claims and draws the next items the worker has not started,
    and holds them, so the two share the draws.  Either way the main gets
    the bits of an in-line draw, and copies them out of a slot before
    releasing it."""

    @classmethod
    def start(cls, ws: _Workspace, n_steps: int, batch_size: int, record_every: int):
        """The worker of a run with ws's frame, or None when the run stays in
        line: a run with fewer than _ENGAGE_ITEMS draws to take ahead, a
        ring slot over _RING_BYTES / 2, or no fork on this platform."""
        f, d = ws.rows.shape
        steps = d <= _INLINE_D
        n_records = (1 + n_steps // record_every + (n_steps % record_every > 0)) if record_every else 0
        shapes = {_TRAIN_STREAM: (batch_size, f, d), _MEASURE_STREAM: (_TEST_SAMPLES_PER_RECORD, f, 0)}
        slot_len = max(steps * (batch_size * f + d), bool(record_every) * _TEST_SAMPLES_PER_RECORD * f)
        n_slots = min(_MAX_SLOTS, _RING_BYTES // (8 * slot_len)) if slot_len else 0
        if steps * n_steps + n_records < _ENGAGE_ITEMS or n_slots < 2 or not _CAN_DRAW_AHEAD:
            return None
        import mmap
        import multiprocessing

        if multiprocessing.current_process().daemon:  # may have no children
            return None
        self = cls()
        buf = mmap.mmap(-1, 8 * (2 + n_slots + n_slots * slot_len))  # shared, zeroed
        self.ctrl = memoryview(buf)[:8 * (2 + n_slots)].cast("q")
        self.slots = np.frombuffer(buf, offset=8 * (2 + n_slots)).reshape(n_slots, slot_len)
        self.shapes, self.streams = shapes, {_TRAIN_STREAM: ws.train, _MEASURE_STREAM: ws.measure}
        # the keys of items j, j + 1, ... as far as the main has looked ahead
        self.items, self.keys, self.j = _schedule(n_steps, record_every, steps), deque(), 0
        self.claimed, self.held = 0, {}  # items claimed; item -> its draw, made here
        self.proc = multiprocessing.get_context("fork").Process(
            target=_draw_ahead, daemon=True,
            args=(_schedule(n_steps, record_every, steps), self.streams, shapes, self.ctrl,
                  self.slots, os.getpid()),
        )
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns of forking beside OpenBLAS's threads; the
                # worker calls no BLAS
                warnings.simplefilter("ignore", DeprecationWarning)
                self.proc.start()
        except OSError as exc:
            warnings.warn(f"no draw-ahead worker ({exc}); the run draws in line", RuntimeWarning)
            return None
        return self

    def item(self, k: int):
        """The (stream, counter) of item k >= j, or None past the schedule."""
        while len(self.keys) <= k - self.j:
            self.keys.append(next(self.items, None))
        return self.keys[k - self.j]

    def claim(self, k: int) -> bool:
        """Claims the items before k; whether the worker has not started
        item k - 1, so that the main draws it."""
        self.claimed = self.ctrl[0] = k
        return self.ctrl[2 + (k - 1) % len(self.slots)] < 3 * k - 2

    def take(self, key, n: int, f: int, residual: bool, res: np.ndarray) -> np.ndarray | None:
        """When key, a (stream, counter) pair, is the schedule's next item j,
        claims it, and returns its (n, f) coordinates, with its residual
        copied into res, if the worker or the main drew it ahead with that
        shape.  Returns None for the main to draw the item in line otherwise."""
        j = self.j
        if key != self.item(j):
            return None
        self.keys.popleft()
        self.j = j + 1
        drawn = self.held.pop(j, None)
        if drawn is None and (j < self.claimed or not self.claim(j + 1)):
            drawn = self.from_worker(j, key[0])
        if self.shapes[key[0]] != (n, f, residual * len(res)):
            drawn = None  # the frame lost a row
        if drawn is not None and residual:
            res[:] = drawn[1]
        self.ctrl[1] = j + 1
        return None if drawn is None else drawn[0]

    def from_worker(self, j: int, stream: int):
        """Item j out of its slot, copied, once the worker has drawn it; None
        when it skipped the item or died.  While it draws, the main draws the
        next unclaimed items the worker has not started, up to two past j,
        and holds them."""
        ctrl, status, spins = self.ctrl, 2 + j % len(self.slots), 0
        while ctrl[status] == 3 * j + 1:
            k = self.claimed
            if k < j + 3 and self.item(k) is not None:
                if self.claim(k + 1):
                    self.held[k] = self.draw(*self.item(k))
            else:
                spins += 1
                if spins % 4096 == 0 and not self.proc.is_alive():
                    return None
        if ctrl[status] != 3 * j + 2:
            return None
        coords, res = _slot_item(self.slots[j % len(self.slots)], *self.shapes[stream])
        return coords.copy(), res

    def draw(self, stream: int, counter: int):
        """The coordinates and residual of an item, drawn here by _draw."""
        n, f, d = self.shapes[stream]
        return _draw(self.streams[stream](counter), np.empty((n, f)), np.empty(d) if d else None)

    def stop(self) -> None:
        """Ends the worker, and warns once if it had died before."""
        died = self.proc.exitcode
        self.proc.terminate()
        self.proc.join()
        if died not in (None, 0):
            warnings.warn(
                f"the draw-ahead worker exited with code {died}; the run drew in line from then on",
                RuntimeWarning,
            )


def _step(
    cfg: SimConfig, state: SimState, teacher: ActivationSpec, literal: bool, ws: _Workspace
) -> tuple[SimState, np.ndarray]:
    """One SGD step on the batch of counter state.step, drawn in full
    (literal) or as frame coordinates plus one residual d-vector, through
    the run's workspace.  Returns the updated state and the residuals
    y - yhat of that batch at state, from which a record takes the batch's
    training error."""
    B = cfg.batch_size
    if literal:
        x = ws.train(state.step).standard_normal((B, cfg.d))
        a_star, a_w, a_tilde = x @ state.omega_star, x @ state.omega, x @ state.omega_tilde
    else:
        # a_w and a_tilde through the frame coordinates of w (which may leave
        # the frame only by rounding) and of the frozen part
        F = ws.frame(state.omega)
        x = ws.batch(ws.train, state.step, B)
        a_star, a_w, a_tilde = x[:, 0], x @ (F @ state.omega), x @ (F @ state.omega_tilde)
    y = teacher.evaluate(a_star)
    pre = a_tilde + state.u * a_w
    eps = y - cfg.student.evaluate(pre)
    dpre = cfg.student.slope(pre)
    # c_i with -grad_w(sample i) = u c_i x_i and -grad_u(sample i) = c_i (w . x_i)
    c = 2.0 * eps * dpre if cfg.objective == "mse" else y * dpre
    u_new = state.u + cfg.learning_rate * float((c * a_w).sum() / B)
    # mean(c_i x_i), lifted to the batch-mean gradient as a d-vector on the
    # subspace path; the fresh gradient array becomes the new w in place
    w_new = (c @ x) / B if literal else ws.lift(c, x, np.empty(cfg.d))
    w_new *= cfg.learning_rate * state.u
    np.add(state.omega, w_new, out=w_new)
    w_new /= math.sqrt(w_new @ w_new)
    new = SimState(u_new, w_new, state.omega_star, state.omega_tilde, state.xi, state.step + 1)
    return new, eps


def sgd_step(cfg: SimConfig, state: SimState, teacher: ActivationSpec | None = None) -> SimState:
    """One literal SGD step: materializes the (batch, d) Gaussian batch.

    This is the reference implementation of the update contract; the
    subspace sampler reproduces its law at O(batch + d) cost.
    """
    ws = _Workspace(cfg.seed, (state.omega_star, state.xi), 1, cfg.d)
    return _step(cfg, state, teacher or cfg.teacher, True, ws)[0]


_TEST_SAMPLES_PER_RECORD = 10_000


def _held_out_errors(
    cfg: SimConfig, state: SimState, n: int, block: int, ws: _Workspace
) -> np.ndarray:
    """Squared errors (y - yhat)^2 of n fresh held-out samples.

    The error depends on an input only through its projections onto
    (w_star, [xi,] w), so the samples are drawn as (n, f) frame coordinates
    from the measurement stream's counter block, which is exact in law for
    both frozen modes.  Labels always come from the task teacher,
    independent of any curriculum stage.
    """
    F = ws.frame(state.omega)
    w_coords, tilde_coords = F @ state.omega, F @ state.omega_tilde
    coords = ws.batch(ws.measure, block, n, residual=False)
    y = cfg.teacher.evaluate(coords[:, 0])
    yhat = cfg.student.evaluate(coords @ tilde_coords + state.u * (coords @ w_coords))
    return (y - yhat) ** 2


class TestMseEstimate(NamedTuple):
    """Monte Carlo test error with its reduced-theory counterpart."""

    mc: float
    series: float
    stderr: float


def measure_test_mse(
    cfg: SimConfig, state: SimState, n_samples: int = 100_000, block: int = 0
) -> TestMseEstimate:
    """Fresh-sample MC estimate of E[(y - yhat)^2] next to the series value.

    The n_samples inputs are drawn as frame coordinates from counter block
    `block` of the measurement stream, like a record's; stderr is the ddof-0
    standard deviation of the squared errors over sqrt(n_samples).  The
    series value is twice the reduced population loss at the measured
    (u, m), m clipped to [-1, 1]; in mixed mode it is the aligned-theory
    prediction, so the gap between the two columns is itself the
    concentration statement.
    """
    ws = _Workspace(cfg.seed, (state.omega_star, state.xi), 1, cfg.d)
    sq = _held_out_errors(cfg, state, int(n_samples), block, ws)
    mc = float(np.mean(sq))
    stderr = float(np.std(sq) / np.sqrt(sq.size))
    model = ModelConfig(teacher=cfg.teacher, student=cfg.student, mu=cfg.mu, k_max=cfg.k_max)
    reduced = OrderParameterState(state.u, max(-1.0, min(1.0, state.m)))
    series = 2.0 * population_loss(model, reduced)
    return TestMseEstimate(mc=mc, series=series, stderr=stderr)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Recorded trajectory and exit statistics of one SGD run.

    exit_step is the first step index with max(|u|, |m|) >= mu (the
    reduced-theory escape convention); aligned_step the first with
    m >= align_threshold (the empirical convention); switch_step the
    curriculum stage boundary.  Any of them is None when never reached.
    t_epoch counts SGD steps; multiply by epoch_time_scale(cfg) for flow
    time.
    """

    t_epoch: np.ndarray
    u: np.ndarray
    m: np.ndarray
    m_eff: np.ndarray
    r: np.ndarray
    train_mse: np.ndarray
    test_mse: np.ndarray
    exit_step: int | None
    aligned_step: int | None
    switch_step: int | None
    init_u: float
    init_m: float
    final_state: SimState


def run_simulation(cfg: SimConfig) -> RunResult:
    """Run one-pass SGD for cfg.n_steps steps (or until aligned, if asked).

    Records every record_every-th step: the order parameters (geometry read
    off the actual vectors, so the mixed frozen mode reports its true
    preactivation variance), the batch training error of the step just
    taken, and a fresh held-out Monte Carlo test error.  Raises
    NumericalBlowupError when u or m stops being finite or |u| exceeds
    BLOWUP_LIMIT.
    """
    state = init_state(cfg)
    ws = _Workspace(cfg.seed, (state.omega_star, state.xi), 1, cfg.d)
    literal = cfg.sampler == "literal"
    mu = cfg.mu

    rows: list[tuple[float, ...]] = []  # one per record, in RunResult's field order

    def record(step: int, s: SimState, eps: np.ndarray) -> None:
        # combined = omega_tilde + u * omega, in the workspace's scratch
        combined = np.add(s.omega_tilde, np.multiply(s.omega, s.u, out=ws.res), out=ws.res)
        m_eff, r = float(combined @ s.omega_star), float(combined @ combined)
        test = _held_out_errors(cfg, s, _TEST_SAMPLES_PER_RECORD, step, ws)
        rows.append((
            float(step), s.u, s.m, m_eff, r,
            float((eps * eps).sum()) / cfg.batch_size, float(np.mean(test)),
        ))

    stage = 1 if cfg.curriculum is not None else 2
    teacher = _teacher_for_stage(cfg, stage)
    exit_step = aligned_step = switch_step = None
    init_u, init_m = state.u, state.m

    # the literal sampler draws in line, records and all
    with ws.drawing_ahead(0 if literal else cfg.n_steps, cfg.batch_size, cfg.record_every):
        for step in range(1, cfg.n_steps + 1):
            prev = state
            state, eps = _step(cfg, state, teacher, literal, ws)
            if step == 1:
                # the initial state is paired with the first batch's error
                record(0, prev, eps)
            m = state.m
            # false for NaN as well as for magnitudes beyond the limit
            if not (abs(state.u) <= BLOWUP_LIMIT and math.isfinite(m)):
                raise NumericalBlowupError(f"SGD diverged at step {step}")
            if step % cfg.record_every == 0 or step == cfg.n_steps:
                # training error of the batch this step consumed, paired with
                # the post-update state
                record(step, state, eps)
            if exit_step is None and max(abs(state.u), abs(m)) >= mu:
                exit_step = step
            if stage == 1 and m >= cfg.curriculum.switch_threshold:
                stage = 2
                teacher = _teacher_for_stage(cfg, stage)
                switch_step = step
            if aligned_step is None and m >= cfg.align_threshold:
                aligned_step = step
                if cfg.stop_when_aligned:
                    break

    return RunResult(
        *map(np.array, zip(*rows)),
        exit_step=exit_step,
        aligned_step=aligned_step,
        switch_step=switch_step,
        init_u=init_u,
        init_m=init_m,
        final_state=state,
    )


class DriftEstimate(NamedTuple):
    """Mean one-step increments of (u, m) with their standard errors."""

    du: float
    dm: float
    du_stderr: float
    dm_stderr: float
    n_batches: int


def measure_drift(cfg: SimConfig, state: SimState, n_batches: int) -> DriftEstimate:
    """Average the one-step updates over n_batches fresh batches from state.

    Each batch uses its own counter (one-pass discipline preserved); the
    state itself is never advanced.
    """
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    du = np.empty(n_batches)
    dm = np.empty(n_batches)
    m0 = state.m
    ws = _Workspace(cfg.seed, (state.omega_star, state.xi), 1, cfg.d)
    for j in range(n_batches):
        nxt, _ = _step(cfg, replace(state, step=j), cfg.teacher, cfg.sampler == "literal", ws)
        du[j] = nxt.u - state.u
        dm[j] = nxt.m - m0
    return DriftEstimate(
        du=float(np.mean(du)),
        dm=float(np.mean(dm)),
        du_stderr=float(np.std(du, ddof=1) / np.sqrt(n_batches)),
        dm_stderr=float(np.std(dm, ddof=1) / np.sqrt(n_batches)),
        n_batches=n_batches,
    )
