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

Every step runs through one kernel, _Lockstep.step, and every draw through
one counter-based sampler, _Workspace.
"""
from __future__ import annotations

import math
import numbers
import os
import signal
import sys
import time
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .activations import ActivationSpec
from .hermite import hermite_value_and_slope
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
        _check_run_fields(self, ("d", "batch_size", "n_steps", "record_every", "seed"))
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie strictly inside (0, 1)")
        if self.d < 4:
            raise ValueError("d must be at least 4")
        if self.init_magnitude is not None and not math.isfinite(self.init_magnitude):
            raise ValueError("init_magnitude must be finite")
        if self.init_overlap is not None and not (-1.0 < self.init_overlap < 1.0):
            raise ValueError("init_overlap must lie strictly inside (-1, 1)")
        if self.frozen_mode not in ("aligned", "mixed"):
            raise ValueError("frozen_mode must be 'aligned' or 'mixed'")
        if self.objective not in ("mse", "correlation"):
            raise ValueError("objective must be 'mse' or 'correlation'")
        if self.sampler not in ("subspace", "literal"):
            raise ValueError("sampler must be 'subspace' or 'literal'")
        if not (0.0 < self.align_threshold <= 1.0):
            raise ValueError("align_threshold must lie in (0, 1]")


def _check_run_fields(cfg, integers) -> None:
    """The checks of the fields a SimConfig and a CommitteeConfig share:
    raises ValueError naming the first of cfg's fields integers whose value
    is not an integer (a NumPy integer is one), or a batch_size, n_steps,
    learning_rate, record_every or seed out of its range."""
    for name in integers:
        if not isinstance(getattr(cfg, name), numbers.Integral):
            raise ValueError(f"{name} must be an integer")
    if cfg.batch_size < 1 or cfg.n_steps < 1:
        raise ValueError("batch_size and n_steps must be positive")
    if not (0.0 < cfg.learning_rate < math.inf):
        raise ValueError("learning_rate must be positive and finite")
    if cfg.record_every < 1:
        raise ValueError("record_every must be >= 1")
    if not (0 <= cfg.seed < 2**64):
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
    w_star and the frozen part is mu*w_star + (1-mu)*xi.  w_star, [xi,] and
    w are the rows of one (f, d) array, in that order.
    """
    rng = step_rng(cfg.seed, _INIT_STREAM, 0)
    overlap = cfg.init_overlap if cfg.init_overlap is not None else 1.0 / np.sqrt(cfg.d)
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
    omega_tilde = _frozen_part(cfg.mu, w_star, xi, scratch)
    u0 = cfg.init_magnitude if cfg.init_magnitude is not None else 1.0 / np.sqrt(cfg.d)
    return SimState(
        u=float(u0), omega=omega, omega_star=w_star, omega_tilde=omega_tilde, xi=xi, step=0
    )


def _frozen_part(mu, w_star: np.ndarray, xi: np.ndarray | None, out: np.ndarray, spare=None) -> np.ndarray:
    """The frozen part mu * w_star [+ (1 - mu) * xi], written to out and
    returned; spare, of out's shape or None for a new array, holds
    (1 - mu) * xi on the way.  With a column of mu, a row a member."""
    np.multiply(w_star, mu, out=out)
    if xi is not None:
        out += np.multiply(xi, 1.0 - mu, out=spare)
    return out


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


def _dots(a: np.ndarray, b: np.ndarray):
    """The dot products of the rows of a with those of b, or with the one
    vector b: a Python float for 1-D a, else a (G, 1) column.  Each is the
    ddot of a 1-D a @ b, where a matrix-vector a @ b (a gemv) rounds
    otherwise."""
    return float(a @ b) if a.ndim == 1 else np.matmul(a[:, None, :], b[..., None])[:, 0]


class _Workspace:
    """The sampler that a run, or a lockstep group, and the committee
    simulator draw through: a counter_stream per random stream, res, the
    caller's d-vector for a step's residual, and label, the teacher as a
    function of a batch's frame coordinates, which the worker of
    drawing_ahead runs after a fork, so it must be a pure function of its
    argument.  The frames are the caller's too; a lone _Lockstep's res is
    the row of its frozen part, so that the run holds f + 3 d-vectors."""

    def __init__(self, seed: int, res: np.ndarray, label):
        self.train = counter_stream(seed, _TRAIN_STREAM)
        self.measure = counter_stream(seed, _MEASURE_STREAM)
        self.res = res
        self.label = label
        self.ahead = None

    @contextmanager
    def drawing_ahead(self, n_steps: int, batch_size: int, f: int, record_every: int = 0):
        """Within the block, a worker process draws the run's schedule of
        batches (_schedule) in a frame of f rows ahead for batch() to take,
        with the same bits, when the run is long enough to repay it
        (_Ahead.start); the worker is gone on leaving, on return and on any
        exception alike."""
        self.ahead = _Ahead.start(self, n_steps, batch_size, f, record_every)
        try:
            yield
        finally:
            ahead, self.ahead = self.ahead, None
            if ahead is not None:
                ahead.stop()

    def batch(self, stream, step: int, n: int, f: int, residual: bool = True) -> tuple:
        """(n, f) standard normal frame coordinates from counter step of
        stream, then (when residual, for a step) the standard normal
        residual in res, and the batch's labels label(coords), else None:
        taken from the worker when it drew this item with this shape, else
        drawn (_draw) and labelled here."""
        drawn = None
        if self.ahead is not None:
            key = (_TRAIN_STREAM if stream is self.train else _MEASURE_STREAM, step)
            drawn = self.ahead.take(key, n, f, residual, self.res)
        if drawn is None:
            drawn = _draw(stream(step), np.empty((n, f)), self.res if residual else None), None
        coords, y = drawn
        if residual and y is None:
            y = self.label(coords)
        return coords, y

    def lift(self, c: np.ndarray, coords: np.ndarray, F: np.ndarray, out: np.ndarray,
             spare=None) -> np.ndarray:
        """Batch-mean gradient mean(c_i x_i) as a d-vector, from the batch's
        weights c and frame coordinates: its frame part (c @ coords) / batch
        is exact, the rest has the law N(0, scale^2 (I - F^T F)), scale =
        |c| / batch, given the frame coordinates, drawn as scale times the
        residual projected off the frame F.  With a group's frames, c and out
        carry its member axis, and every member lifts the one residual.  The
        gradient is written to out; spare, of out's shape, holds the frame
        part on the way (the residual when None, for a lone frame), and the
        residual is used up."""
        n, res = c.shape[-1], self.res
        c_row = c[..., None, :]
        # (F @ res) @ F and (c @ coords / n) @ F are the gemv of F.T @ v
        np.matmul((F @ res)[..., None, :], F, out=out[..., None, :])
        np.subtract(res, out, out=out)
        out *= np.sqrt(_dots(c, c)) / n
        spare = res if spare is None else spare
        np.matmul(np.matmul(c_row, coords) / n, F, out=spare[..., None, :])
        return np.add(spare, out, out=out)


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


def _draw(rng: np.random.Generator, coords: np.ndarray, res: np.ndarray | None) -> np.ndarray:
    """Every draw of a schedule item, in line, held or the worker's: standard
    normals into coords, then into res when given; returns coords."""
    rng.standard_normal(out=coords)
    if res is not None:
        rng.standard_normal(out=res)
    return coords


def _slot_item(slot: np.ndarray, n: int, f: int, d: int) -> tuple:
    """An item's (n, f) coordinates, residual and labels as views of its
    slot, in the order coordinates, labels, residual; a record's item (d is
    0) has neither residual nor labels, which are then None."""
    coords = slot[:n * f].reshape(n, f)
    if not d:
        return coords, None, None
    return coords, slot[n * f + n:n * f + n + d], slot[n * f:n * f + n]


def _draw_ahead(items, streams: dict, shapes: dict, label, ctrl, slots, parent: int) -> None:
    """The worker: draws each item of the schedule that the main has not
    claimed into its slot, by _draw with the run's counter_streams, labels
    a step's batch by label, and marks the item started, then drawn or
    skipped (see _Ahead).  It raises on every floating-point error that the
    main does not ignore, and on any warning, so that a labelling which
    raises or warns skips its item, which the main then draws and labels in
    line.  Returns once the schedule is done, or when its parent is gone,
    which it checks while it waits for a slot."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main stops it
    np.seterr(**{kind: "ignore" if how == "ignore" else "raise" for kind, how in np.geterr().items()})
    warnings.simplefilter("error")
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
        coords, res, y = _slot_item(slots[j % n_slots], *shapes[stream])
        _draw(streams[stream](counter), coords, res)
        if y is not None:
            try:
                labels = label(coords)
                if labels.shape != y.shape or labels.dtype != y.dtype:
                    raise TypeError("labels of another shape or type than in line")
                y[:] = labels
            except Exception:
                ctrl[status] = 3 * j + 3
                continue
        ctrl[status] = 3 * j + 2


class _Ahead:
    """A worker process that draws and labels one run's schedule ahead of
    its main loop into a ring of slots in shared memory.  The control words
    are the number of items the main has claimed, the number it has
    released, then for each slot 3j + 1, 3j + 2 or 3j + 3 when the worker
    has started, drawn (and labelled) or skipped item j in it.  The main
    claims each item before it looks at its slot.  If the worker has not
    started the item, the main draws it in line, and the worker, which
    reads the claim again after marking the item started, skips it; so the
    main never waits for the worker to reach an item, and gets the bits of
    an in-line draw either way.  The coordinates and labels it takes from a
    slot are views of it, which stay put until the main releases the slot,
    when it takes the next item."""

    @classmethod
    def start(cls, ws: _Workspace, n_steps: int, batch_size: int, f: int, record_every: int):
        """The worker of a run through ws with a frame of f rows, or None when
        the run stays in line: a run with fewer than _ENGAGE_ITEMS draws to
        take ahead, a ring slot over _RING_BYTES / 2, or no fork on this
        platform."""
        d = len(ws.res)
        steps = d <= _INLINE_D
        n_records = (1 + n_steps // record_every + (n_steps % record_every > 0)) if record_every else 0
        shapes = {_TRAIN_STREAM: (batch_size, f, d), _MEASURE_STREAM: (_TEST_SAMPLES_PER_RECORD, f, 0)}
        slot_len = max(steps * (batch_size * (f + 1) + d), bool(record_every) * _TEST_SAMPLES_PER_RECORD * f)
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
        # each slot's item as views, for each stream the schedule draws from
        self.views = {stream: [_slot_item(slot, *shapes[stream]) for slot in self.slots]
                      for stream, used in ((_TRAIN_STREAM, steps), (_MEASURE_STREAM, record_every)) if used}
        # the keys of items j, j + 1, ... as far as the main has looked ahead
        self.items, self.keys, self.j = _schedule(n_steps, record_every, steps), deque(), 0
        self.claimed, self.held = 0, {}  # items claimed; item -> its draw, made here
        self.proc = multiprocessing.get_context("fork").Process(
            target=_draw_ahead, daemon=True,
            args=(_schedule(n_steps, record_every, steps), self.streams, shapes, ws.label,
                  self.ctrl, self.slots, os.getpid()),
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

    def take(self, key, n: int, f: int, residual: bool, res: np.ndarray) -> tuple | None:
        """When key, a (stream, counter) pair, is the schedule's next item j,
        releases the items before it, claims it, and returns its (n, f)
        coordinates and the worker's labels (None for a record, or for an
        item the main drew), with its residual copied into res, if the worker
        or the main drew it ahead with that shape.  Returns None for the main
        to draw the item in line otherwise."""
        j = self.j
        if key != self.item(j):
            return None
        self.ctrl[1] = j
        self.keys.popleft()
        self.j = j + 1
        drawn = self.held.pop(j, None)
        if drawn is None and (j < self.claimed or not self.claim(j + 1)):
            drawn = self.from_worker(j, key[0])
        if self.shapes[key[0]] != (n, f, residual * len(res)):
            drawn = None  # the frame lost a row
        if drawn is not None and residual:
            res[:] = drawn[1]
        return None if drawn is None else (drawn[0], drawn[2])

    def from_worker(self, j: int, stream: int):
        """Item j's (coordinates, residual, labels), views of its slot, once
        the worker has drawn it; None when it skipped the item or died.
        While it draws, the main draws the next unclaimed items the worker
        has not started, up to two past j, and holds them, so the two share
        the draws."""
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
        return self.views[stream][j % len(self.slots)]

    def draw(self, stream: int, counter: int):
        """The coordinates and residual of an item, drawn here by _draw, and
        no labels yet: batch labels it when it is taken."""
        n, f, d = self.shapes[stream]
        res = np.empty(d) if d else None
        return _draw(self.streams[stream](counter), np.empty((n, f)), res), res, None

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


def _teacher_label(cfg: SimConfig):
    """The labels of a batch from its frame coordinates, whose column 0 is w_star's."""
    evaluate = cfg.teacher.evaluate
    return lambda coords: evaluate(coords[:, 0])


@dataclass(eq=False)
class _Member:
    """What a run of a lockstep group keeps to itself: its place i among
    the configs, its config, its fixed vectors and initial (u, m), its
    records (tuples in RunResult's field order) and its events."""

    i: int
    cfg: SimConfig
    omega_star: np.ndarray
    xi: np.ndarray | None
    init_u: float
    init_m: float
    rows: list = field(default_factory=list)
    exit_step: int | None = None
    aligned_step: int | None = None
    switch_step: int | None = None


class _Lockstep:
    """Runs that step together (configs with one _lockstep_key) as one
    array program over a leading member axis: each member's direction w and
    frozen part omega_tilde side by side in wt (G, 2, d), so that one
    product projects both, and its frame of (w_star, [xi,] w) in frames
    (G, f, d), whose fixed rows are copied in once; the members' mu,
    magnitudes u, learning rates lr and overlaps m = w . w_star are (G, 1)
    columns, and F is the frames of the current w, once made.  The frozen
    part is made, not kept: wt's second row is remade from the fixed rows
    (_frozen_part, init_state's operations) each time a frame is projected
    and for a final state; in between it is the scratch of frame() and of
    the lift.  A lone run is the group of one, stepped without the member
    axis: its views are 1-D rows, its scalars Python floats, and its
    workspace's residual wt's second row; given no states, it draws its
    initial state, and its frame is that state's rows w_star, [xi,] w, whose
    last row frame() overwrites once wt holds w.  So it holds f + 3
    d-vectors, the frame rows, w, the residual and the gradient, the fewest
    the lift allows, as it needs the residual and the gradient at once.
    Each stacked operation is, row by row, the one of a lone run (a dot
    product a ddot, _dots; a matrix-vector product one gemv a member; a
    reduction along a contiguous row), so each member gets the bits of its
    run alone."""

    def __init__(self, cfgs: list[SimConfig], states: list[SimState] | None = None):
        own = states is None  # drawn here, where no caller keeps them, so the run owns their memory
        states = [init_state(c) for c in cfgs] if own else states
        if any((st.xi is None) != (c.frozen_mode == "aligned") for c, st in zip(cfgs, states)):
            raise ValueError("xi must be None in aligned mode and a vector in mixed mode")
        cfg, s = cfgs[0], states[0]
        G, d = len(cfgs), cfg.d
        self.cfg, self.literal, self.lone = cfg, cfg.sampler == "literal", G == 1
        self.sqrt = math.sqrt if self.lone else np.sqrt
        self.fixed = [row for row in (s.omega_star, s.xi) if row is not None]
        self.star, self.xi = s.omega_star, s.xi
        self.mu = self.scalars([c.mu for c in cfgs])
        self.lr = self.scalars([c.learning_rate for c in cfgs])
        self.u = self.scalars([st.u for st in states])
        # each st.m is read before v, which may be a state's w, is written
        self.members = [_Member(i, c, st.omega_star, st.xi, st.u, st.m)
                        for i, (c, st) in enumerate(zip(cfgs, states))]
        self.wt = np.empty((G, 2, d))
        for row, st in zip(self.wt, states):
            row[0] = st.omega
        self.ws = _Workspace(cfg.seed, self.wt[0, 1] if self.lone else np.empty(d), _teacher_label(cfg))
        if own and self.lone:
            self.frames = s.omega_star.base[None]  # init_state's (f, d) rows
        else:
            self.frames = np.empty((G, len(self.fixed) + 1, d))
            self.frames[:, :len(self.fixed)] = self.fixed
        self.F = self.grad = self.p = self.u_next = self.eps = None
        self.square = [c.curriculum is not None for c in cfgs]  # which members square their labels
        self.bind()
        self.m = _dots(self.w, self.star)
        # a state's frozen part must be the one the kernel remakes; record 0
        # takes its geometry now, through the free rows v, as record does
        _frozen_part(self.mu, self.star, self.xi, self.tilde, self.v)
        for row, st in zip(self.wt[:, 1], states):
            tilde = np.asarray(st.omega_tilde)
            if tilde.dtype != row.dtype or not np.array_equal(tilde.view(np.uint64), row.view(np.uint64)):
                raise ValueError("omega_tilde must be its config's frozen part, mu * omega_star "
                                 "[+ (1 - mu) * xi], bit for bit")
        combined = np.add(self.tilde, np.multiply(self.w, self.u, out=self.v), out=self.v)
        self.start = (_dots(combined, self.star), _dots(combined, combined))

    def scalars(self, xs):
        """xs, a sequence of one value a member, as the members' scalar: a
        Python float for a lone run, else a (G, 1) column."""
        return float(xs[0]) if self.lone else np.reshape(xs, (-1, 1))

    def listed(self, x) -> list:
        """The members' scalar x as a list of Python floats."""
        return [x] if self.lone else np.ravel(x).tolist()

    def bind(self) -> None:
        """The views the kernel takes, made again when the members change:
        wt, w, omega_tilde, the frame rows and their free rows v, without
        the member axis for a lone run."""
        member = 0 if self.lone else slice(None)
        self.wtv, self.rows = self.wt[member], self.frames[member]
        self.w, self.tilde = self.wtv[..., 0, :], self.wtv[..., 1, :]
        self.v = self.rows[..., -1, :]

    def project(self) -> np.ndarray:
        """F @ w and F @ omega_tilde of each member, (2, f, 1) a member, made
        once per frame, and the frame first when it is not made yet; the
        frozen part is remade for it, through the gradient's buffer, which
        is free whenever a frame is projected."""
        if self.p is None:
            if self.F is None:
                self.frame()
            _frozen_part(self.mu, self.star, self.xi, self.tilde, self.grad)
            self.p = np.matmul(self.F[..., None, :, :], self.wtv[..., None])
        return self.p

    def frame(self) -> None:
        """Makes each member's frame of (w_star, [xi,] w) as orthonormal_frame
        would: w's residual against the fixed rows, normalized; against
        w_star it takes m, which holds w . w_star, the dot product
        orthonormal_frame takes.  Where that residual vanishes, a lone run's
        frame drops the row, as orthonormal_frame does, and a group raises."""
        v, scratch = self.v, self.tilde  # the frozen part's row, remade after it (project)
        np.subtract(self.w, np.multiply(self.m, self.star, out=scratch), out=v)
        for b in self.fixed[1:]:  # xi, in mixed mode
            v -= np.multiply(_dots(v, b), b, out=scratch)
        nrm = self.sqrt(_dots(v, v))
        if nrm > 1e-10 if self.lone else (nrm > 1e-10).all():
            v /= nrm
            self.F = self.rows
        elif self.lone:
            self.F = self.rows[:-1]
        else:
            raise ArithmeticError("a member's frame lost its row")
        self.p = None

    def step(self, counter: int, square=()) -> None:
        """One SGD step of every member from its (u, w), in the geometry of
        its omega_tilde, on the batch of the training stream's counter:
        drawn in full by the literal sampler, else as frame coordinates plus
        one residual d-vector through the workspace, in the frames of w.
        The labels are the task teacher's, squared for the members that
        square names (a curriculum's stage 1).  Leaves the residuals
        y - yhat of the batch at (u, w) in eps, from which a record takes
        the batch's training error, the new magnitudes in u_next and the
        batch-mean gradients in grad, for advance."""
        cfg, ws, B = self.cfg, self.ws, self.cfg.batch_size
        if self.grad is None:
            # made here, once the run has let go of its initial states, so that
            # a lone run's gradient reuses the memory of its initial omega_tilde
            self.grad = np.empty(self.w.shape)
        # the literal sampler projects too: it reads the remade frozen part in
        # wt, and its first record, taken while the gradient is in use, finds
        # its frame made
        p = self.project()
        if self.literal:
            x = ws.train(counter).standard_normal((B, cfg.d))
            y = cfg.teacher.evaluate(x @ self.star)
            a = np.matmul(x, self.wtv[..., None])
        else:
            # a_w and a_tilde through the frame coordinates of w (which may
            # leave the frame only by rounding) and of the frozen part
            x, y = ws.batch(ws.train, counter, B, self.F.shape[-2])
            a = np.matmul(x, p)
        a_w = a[..., 0, :, 0]
        if any(square):
            y2 = y ** 2  # transform_teacher's square, on the task teacher's labels
            y = y2 if all(square) else np.where(np.array(square)[:, None], y2, y)
        pre = a[..., 1, :, 0] + self.u * a_w
        k = cfg.student.pure_hermite_degree
        if k is not None and k >= 2:
            yhat, dpre = hermite_value_and_slope(k, pre)
        else:
            yhat, dpre = cfg.student.evaluate(pre), cfg.student.slope(pre)
        self.eps = eps = y - yhat
        # c_i with -grad_w(sample i) = u c_i x_i and -grad_u(sample i) = c_i (w . x_i)
        c = 2.0 * eps * dpre if cfg.objective == "mse" else y * dpre
        self.u_next = self.u + self.lr * (self.scalars(np.add.reduce(c * a_w, axis=-1, keepdims=True)) / B)
        # mean(c_i x_i), lifted to the batch-mean gradient as a d-vector on
        # the subspace path
        if self.literal:
            np.divide(np.matmul(c[..., None, :], x)[..., 0, :], B, out=self.grad)
        else:
            ws.lift(c, x, self.F, self.grad, self.tilde)

    def advance(self, into: np.ndarray | None = None) -> None:
        """The new directions w + learning_rate * u * grad, renormalized,
        over w (whose frames then go), or into the array into; their
        overlaps with w_star go to m."""
        new = self.w if into is None else into
        self.grad *= self.lr * self.u
        np.add(self.w, self.grad, out=new)
        new /= self.sqrt(_dots(new, new))
        self.m = _dots(new, self.star)
        if into is None:
            self.F = self.p = None

    def held_out(self, block: int, n: int) -> list[np.ndarray]:
        """Squared errors (y - yhat)^2 of n fresh held-out samples at each
        member's (u, w), in its geometry, one array per member.

        The error depends on an input only through its projections onto
        (w_star, [xi,] w), so the samples are drawn as (n, f) frame
        coordinates from the measurement stream's counter block, which is
        exact in law for both frozen modes, and labelled once for the
        group, by the task teacher.  The student's side goes member by
        member: at n = 10 000, every (G, n) temporary would take fresh pages
        from the system.
        """
        p = self.project()
        coords, _ = self.ws.batch(self.ws.measure, block, n, self.F.shape[-2], residual=False)
        y, student = self.cfg.teacher.evaluate(coords[:, 0]), self.cfg.student
        return [(y - student.evaluate(coords @ q[1, :, 0] + u * (coords @ q[0, :, 0]))) ** 2
                for u, q in zip(np.ravel(self.u), p.reshape((-1,) + p.shape[-3:]))]

    def record(self, step: int) -> None:
        """Appends each member's record at step: its order parameters
        (geometry read off the actual vectors, so the mixed frozen mode
        reports its true preactivation variance), the training error of the
        batch of eps, and a held-out Monte Carlo test error."""
        test = [np.mean(sq) for sq in self.held_out(step, _TEST_SAMPLES_PER_RECORD)]
        geometry = self.start  # record 0's, while the gradient is in use
        if step:  # omega_tilde + u w in the gradient's buffer, free after advance
            combined = np.add(self.tilde, np.multiply(self.w, self.u, out=self.grad), out=self.grad)
            geometry = (_dots(combined, self.star), _dots(combined, combined))
        train = np.add.reduce(self.eps * self.eps, axis=-1) / self.cfg.batch_size
        values = (self.u, self.m, *geometry, train, test)
        for member, row in zip(self.members, zip(*(np.ravel(v).tolist() for v in values))):
            member.rows.append((float(step),) + row)

    def result(self, j: int, step: int) -> RunResult:
        """Member j's RunResult, its final state the current one, at step."""
        member = self.members[j]
        _frozen_part(self.mu, self.star, self.xi, self.tilde, self.grad)
        wt = self.wt[j] if len(self.wt) == 1 else self.wt[j].copy()
        return RunResult(
            *map(np.array, zip(*member.rows)),
            exit_step=member.exit_step,
            aligned_step=member.aligned_step,
            switch_step=member.switch_step,
            init_u=member.init_u,
            init_m=member.init_m,
            final_state=SimState(float(np.ravel(self.u)[j]), wt[0], member.omega_star, wt[1], member.xi, step),
        )

    def leave(self, js: list[int], outcomes: list, outcome) -> None:
        """Members js leave the group, each with outcome(j) at its place in
        outcomes; the others stay in their order, and their frames are made
        again when next needed (a lone run has none to keep)."""
        for j in js:
            outcomes[self.members[j].i] = outcome(j)
        keep = [j for j in range(len(self.members)) if j not in js]
        self.members = [self.members[j] for j in keep]
        if keep:
            self.square = [self.square[j] for j in keep]
            for name in ("mu", "lr", "u", "u_next", "m", "wt", "grad", "eps", "frames"):
                setattr(self, name, getattr(self, name)[keep])
            self.F = self.p = None
            self.bind()

    def run(self) -> list:
        """Steps the members through their configs' schedule, and returns
        each member's RunResult, or the NumericalBlowupError its run raises,
        at its place among the configs."""
        cfg, ws = self.cfg, self.ws
        outcomes: list = [None] * len(self.members)
        # the literal sampler draws in line, records and all
        with ws.drawing_ahead(0 if self.literal else cfg.n_steps, cfg.batch_size, self.frames.shape[-2],
                              cfg.record_every):
            for step in range(1, cfg.n_steps + 1):
                self.step(step - 1, self.square)
                if step == 1:
                    self.record(0)  # the initial state is paired with the first batch's error
                self.advance()
                self.u = self.u_next
                us, ms = self.listed(self.u), self.listed(self.m)
                # false for NaN as well as for magnitudes beyond the limit
                blown = [j for j, (u, m) in enumerate(zip(us, ms))
                         if not (abs(u) <= BLOWUP_LIMIT and math.isfinite(m))]
                if blown:
                    self.leave(blown, outcomes, lambda j: NumericalBlowupError(f"SGD diverged at step {step}"))
                if self.members and (step % cfg.record_every == 0 or step == cfg.n_steps):
                    # training error of the batch this step consumed, paired
                    # with the post-update state, whose frame the next step reuses
                    self.record(step)
                if len(us) != len(self.members):
                    us, ms = self.listed(self.u), self.listed(self.m)
                stopped = []
                for j, (member, u, m) in enumerate(zip(self.members, us, ms)):
                    if member.exit_step is None and max(abs(u), abs(m)) >= member.cfg.mu:
                        member.exit_step = step
                    if self.square[j] and m >= member.cfg.curriculum.switch_threshold:
                        self.square[j], member.switch_step = False, step
                    if member.aligned_step is None and m >= member.cfg.align_threshold:
                        member.aligned_step = step
                        if member.cfg.stop_when_aligned:
                            stopped.append(j)
                if stopped:
                    self.leave(stopped, outcomes, lambda j: self.result(j, step))
                if not self.members:
                    break
        for j, member in enumerate(self.members):
            outcomes[member.i] = self.result(j, step)
        return outcomes


def sgd_step(cfg: SimConfig, state: SimState, teacher: ActivationSpec | None = None) -> SimState:
    """One literal SGD step: materializes the (batch, d) Gaussian batch.

    This is the reference implementation of the update contract; the
    subspace sampler reproduces its law at O(batch + d) cost.
    """
    cfg = replace(cfg, sampler="literal", teacher=cfg.teacher if teacher is None else teacher)
    group = _Lockstep([cfg], [state])
    group.step(state.step)
    w = np.empty(cfg.d)
    group.advance(w)
    return SimState(float(group.u_next), w, state.omega_star, state.omega_tilde, state.xi, state.step + 1)


_TEST_SAMPLES_PER_RECORD = 10_000


class TestMseEstimate(NamedTuple):
    """Monte Carlo test error with its reduced-theory counterpart."""

    mc: float
    series: float
    stderr: float


def measure_test_mse(
    cfg: SimConfig, state: SimState, n_samples: int = 100_000, block: int = 0
) -> TestMseEstimate:
    """Fresh-sample MC estimate of E[(y - yhat)^2] next to the series value.

    The n_samples inputs are drawn as a record's (_Lockstep.held_out), from
    counter block `block`; stderr is the ddof-0 standard deviation of the
    squared errors over sqrt(n_samples).  The series value is twice the
    reduced population loss at the measured (u, m), m clipped to [-1, 1];
    in mixed mode it is the aligned-theory prediction, so the gap between
    the two columns is itself the concentration statement.
    """
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError("n_samples must be an integer >= 2")
    if not isinstance(block, numbers.Integral) or not 0 <= block < 2**64:
        raise ValueError("block must be an integer in [0, 2**64)")
    [sq] = _Lockstep([cfg], [state]).held_out(block, int(n_samples))
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


def _lockstep_key(cfg: SimConfig) -> tuple:
    """All of a config that decides its run's draws, its labels and its step
    formula: configs with one key can step together, whatever their mu,
    learning rate, initial u and m, align threshold, curriculum and stop."""
    return (cfg.seed, cfg.d, cfg.batch_size, cfg.n_steps, cfg.record_every, cfg.sampler,
            cfg.frozen_mode, cfg.objective, cfg.teacher, cfg.student)


def lockstep_groups(cfgs) -> list[list[int]]:
    """The indices of cfgs by lockstep group (one _lockstep_key), in order of
    first appearance.  Activation specs are keyed by their functions, so
    configs step together only when they share their specs' objects."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_lockstep_key(cfg), []).append(i)
    return list(groups.values())


def run_lockstep(cfgs) -> list[RunResult | NumericalBlowupError] | None:
    """run_simulation of each config of one lockstep group (lockstep_groups),
    stepped together: per config its RunResult, or the NumericalBlowupError
    its run raises, bit for bit those of its run alone; or None when a
    warning fired or an operation raised in the group, which stops there
    (so that each run, run alone, has its own warnings and errors)."""
    cfgs = list(cfgs)
    if len(lockstep_groups(cfgs)) != 1:
        raise ValueError("run_lockstep takes the configs of one lockstep group")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _Lockstep(cfgs).run()
    except Exception:
        return None


def run_simulation(cfg: SimConfig) -> RunResult:
    """Run one-pass SGD for cfg.n_steps steps (or until aligned, if asked),
    recording the initial state, every record_every-th step and the last
    (_Lockstep.record), with f + 3 d-vectors held for f frame rows
    (_Lockstep).  Raises NumericalBlowupError when u or m stops being
    finite or |u| exceeds BLOWUP_LIMIT.
    """
    [outcome] = _Lockstep([cfg]).run()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    if not isinstance(n_batches, numbers.Integral) or n_batches < 2:
        raise ValueError("n_batches must be an integer >= 2")
    du = np.empty(n_batches)
    dm = np.empty(n_batches)
    m0 = state.m
    group = _Lockstep([cfg], [state])  # its first step makes the state's frame, kept for all
    w = np.empty(cfg.d)
    for j in range(n_batches):
        group.step(j)
        group.advance(w)
        du[j] = group.u_next - state.u
        dm[j] = group.m - m0
    return DriftEstimate(
        du=float(np.mean(du)),
        dm=float(np.mean(dm)),
        du_stderr=float(np.std(du, ddof=1) / np.sqrt(n_batches)),
        dm_stderr=float(np.std(dm, ddof=1) / np.sqrt(n_batches)),
        n_batches=n_batches,
    )
