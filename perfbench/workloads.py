"""The four benchmark workloads: their operations, cold calls and checks.

A workload turns a seed into a fixed experiment set.  ``rep`` runs the set
once (the timed part) and returns light summaries of every operation;
``check`` judges those summaries afterwards, outside the timed region.
An operation is one run, flow, curve, scan or CLI cell.  Every check is
tolerance-based, so a change that moves trajectories in law (a new
sampler, say) still passes while a wrong result does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

from searchphase import (
    CommitteeConfig,
    FlowSettings,
    ModelConfig,
    OrderParameterState,
    SimConfig,
    builtin,
    epoch_time_scale,
    find_singularities,
    integrate_flow,
    linearize_search_phase,
    run_simulation,
    tau_curve,
    verify_descent,
)

TEST_SAMPLES_PER_RECORD = 10_000  # held-out draws behind each SGD record

# Computed (not measured) traffic of one subspace SGD step through arrays of
# length d, in d-vector passes (reads plus writes of 8-byte floats), counted
# operation by operation for the aligned mode at this commit.  ``_frame``
# (copy, Gram-Schmidt against w_star, norm, scale, stacking F, F @ w,
# F @ w_tilde): 16 reads, 6 writes.  ``_sgd_step_subspace`` (residual draw,
# its projection off F, gradient assembly, update, renormalisation): 17
# reads, 9 writes.  The m = w . w_star read-out after the step: 2 reads.
D_VECTOR_PASSES_PER_STEP = 16 + 6 + 17 + 9 + 2


def step_bytes(d: int) -> int:
    return 8 * d * D_VECTOR_PASSES_PER_STEP

LINEAR = builtin("linear")
HE3 = builtin("hermite3")


def _matching(act, mu, k_max):
    return ModelConfig(teacher=act, student=act, mu=mu, k_max=k_max)


def _sgd_summary(cfg: SimConfig, res) -> dict:
    """What the checks need from a RunResult, without its d-vectors."""
    steps = cfg.n_steps
    if cfg.stop_when_aligned and res.aligned_step is not None:
        steps = res.aligned_step
    omega = res.final_state.omega
    return {
        "cfg": cfg,
        "t_epoch": res.t_epoch,
        "u": res.u,
        "m": res.m,
        "exit_step": res.exit_step,
        "aligned_step": res.aligned_step,
        "init_u": res.init_u,
        "init_m": res.init_m,
        "omega_norm": float(np.linalg.norm(omega)),
        "steps": steps,
        "records": len(res.t_epoch),
    }


def _sgd_op(tracer, cfg: SimConfig) -> dict:
    with tracer.span("run_simulation", "sgd") as sp:
        res = run_simulation(cfg)
        out = _sgd_summary(cfg, res)
        sp.count(sgd_steps=out["steps"], sgd_records=out["records"],
                 test_samples=out["records"] * TEST_SAMPLES_PER_RECORD,
                 computed_bytes=out["steps"] * step_bytes(cfg.d))
    return out


def _run_name(cfg: SimConfig) -> str:
    return f"run d={cfg.d} mu={cfg.mu} seed={cfg.seed}"


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


class FlowReference:
    """Reduced flows the SGD checks compare against, computed once per key.

    The flow only depends on (activation, mu, k_max, start state), which
    repeats across seeds and reps, so the cache keeps the checks cheap.
    RK4 at the step sizes used here is accurate far below the 0.05
    tracking tolerance.
    """

    def __init__(self):
        self._cache = {}

    def get(self, act, mu, k_max, u0, m0, t_max, dt):
        key = (act.name, mu, k_max, round(u0, 12), round(m0, 12), dt)
        rec = self._cache.get(key)
        if rec is None or rec.t[-1] < t_max and rec.t_exit is None:
            rec = integrate_flow(
                _matching(act, mu, k_max),
                OrderParameterState(u0, m0),
                FlowSettings(dt=dt, t_max=t_max, record_every=1, stop_at_exit=True),
            )
            self._cache[key] = rec
        return rec


def tracks_flow(run: dict, act, k_max: int, flows: FlowReference, dt: float, tol=0.05) -> bool:
    """Criterion 09's rule: through the search phase (max(|u|,|m|) < mu and
    flow time before the flow's exit), SGD (u, m) stays within tol of the
    reduced flow started from the run's own initial state, step by step."""
    cfg = run["cfg"]
    tt = run["t_epoch"] * epoch_time_scale(cfg)
    rec = flows.get(act, cfg.mu, k_max, run["init_u"], run["init_m"], float(tt[-1]) + 1.0, dt)
    search = np.maximum(np.abs(run["u"]), np.abs(run["m"])) < cfg.mu
    if rec.t_exit is not None:
        search &= tt <= rec.t_exit
    if not search.any():
        return False
    u_ode = np.interp(tt, rec.t, rec.u)
    m_ode = np.interp(tt, rec.t, rec.m)
    return bool(
        np.max(np.abs(run["u"][search] - u_ode[search])) < tol
        and np.max(np.abs(run["m"][search] - m_ode[search])) < tol
    )


def path_distance(u: np.ndarray, m: np.ndarray, rec) -> float:
    """Largest distance from the points (u, m) to the flow's path, the
    polyline through the recorded flow states (time plays no part)."""
    a = np.stack([rec.u[:-1], rec.m[:-1]], axis=1)
    ab = np.stack([np.diff(rec.u), np.diff(rec.m)], axis=1)
    length2 = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    worst = 0.0
    points = np.stack([u, m], axis=1)
    for start in range(0, len(points), 64):
        x = points[start:start + 64, None, :]  # (chunk, 1, 2) against (segments, 2)
        t = np.clip(np.sum((x - a) * ab, axis=2) / length2, 0.0, 1.0)
        gap = x - (a + t[..., None] * ab)
        worst = max(worst, float(np.max(np.min(np.sum(gap * gap, axis=2), axis=1))))
    return float(np.sqrt(worst))


class Workload:
    name = ""
    # the counts steps_per_s adds up: SGD steps, or RK4 steps of the flow
    step_counts = ("sgd_steps", "committee_steps")

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def rep(self, tracer) -> list:
        """Run the experiment set once; one entry per operation.

        An entry is the operation's summary, or the exception it raised.
        """
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        """Names of the operations whose check failed (one per operation)."""
        raise NotImplementedError

    def attempted(self, outputs: list) -> int:
        return len(outputs)

    def cold_call(self) -> None:
        """The workload's first call, shortened: paid once per process."""
        raise NotImplementedError

    def info(self, reps: list) -> dict:
        """Information about the results (not a gate), from all reps."""
        return {}

    def cleanup(self, reps: list) -> None:
        """Remove what the reps left on disk."""


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        return exc


class SgdSearch(Workload):
    """Criterion 09's protocol, widened to six seeds."""

    name = "sgd_search"
    MUS = (0.1, 0.5, 0.8, 0.9)

    def configs(self, n_steps=2000):
        seeds = [6 * self.seed + i for i in range(6)]
        return [
            SimConfig(teacher=LINEAR, student=LINEAR, mu=mu, d=1000, batch_size=500,
                      learning_rate=0.2, n_steps=n_steps, seed=s, record_every=1,
                      stop_when_aligned=True, k_max=2)
            for s in seeds for mu in self.MUS
        ]

    def rep(self, tracer):
        return [_guarded(_sgd_op, tracer, cfg) for cfg in self.configs()]

    def cold_call(self):
        run_simulation(self.configs(n_steps=1)[0])

    def check(self, outputs):
        """Criterion 09's ordering per seed, and its flow tracking applied to
        the seed-mean path: at lr=0.2 a single run's exit time jitters by
        +-20% between seeds, so the step-by-step rule of criterion 09 holds
        for its pinned seeds but not for every seed."""
        failed = []
        runs = {}
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                failed.append(f"raised #{i}: {out!r}")
                continue
            cfg = out["cfg"]
            runs[(cfg.seed, cfg.mu)] = out
            if out["aligned_step"] is None or not _finite(out["u"], out["m"]):
                failed.append(_run_name(cfg))
        seeds = sorted({seed for seed, _ in runs})
        for seed in seeds:
            steps = [runs[(seed, mu)]["aligned_step"] if (seed, mu) in runs else None
                     for mu in self.MUS]
            if None not in steps and not all(a < b for a, b in zip(steps, steps[1:])):
                failed += [_run_name(runs[(seed, mu)]["cfg"]) for mu in self.MUS]
        for mu in self.MUS:
            group = [runs[(seed, mu)] for seed in seeds if (seed, mu) in runs]
            if group and self.mean_path_gap(group) >= 0.05:
                failed += [_run_name(r["cfg"]) for r in group]
        return failed

    def mean_path_gap(self, group) -> float:
        """Distance from the seed-mean (u, m) path, over the steps where
        every run is still in its search phase, to the reduced flow's path."""
        flows = self.__dict__.setdefault("_flows", FlowReference())
        n = min(len(r["t_epoch"]) for r in group)
        u = np.mean([r["u"][:n] for r in group], axis=0)
        m = np.mean([r["m"][:n] for r in group], axis=0)
        mu = group[0]["cfg"].mu
        search = np.all([np.maximum(np.abs(r["u"][:n]), np.abs(r["m"][:n])) < mu for r in group], axis=0)
        first = group[0]
        t_max = float(n * epoch_time_scale(first["cfg"])) + 1.0
        rec = flows.get(LINEAR, mu, 2, first["init_u"], first["init_m"], t_max, dt=0.1)
        if not search.any():
            return float("inf")
        return path_distance(u[search], m[search], rec)

    def info(self, reps):
        return {"aligned_steps": [o["aligned_step"] for o in reps[0] if isinstance(o, dict)]}


class SgdSteps(Workload):
    """Bare step cost: HE3 at the criterion-10 hot path plus a linear d sweep."""

    name = "sgd_steps"
    DIMS = (1000, 10_000, 100_000)

    def configs(self):
        he3 = SimConfig(teacher=HE3, student=HE3, mu=0.325, d=1000, batch_size=500,
                        learning_rate=5.5e-5, n_steps=25_000, seed=self.seed,
                        record_every=500, k_max=25)
        lin = [
            SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=d, batch_size=500,
                      learning_rate=0.05, n_steps=400, seed=3 * self.seed + i,
                      record_every=50, k_max=2)
            for d in self.DIMS for i in range(3)
        ]
        big = SimConfig(teacher=LINEAR, student=LINEAR, mu=0.5, d=1_000_000, batch_size=500,
                        learning_rate=0.05, n_steps=60, seed=self.seed, record_every=50,
                        k_max=2)
        return [he3] + lin + [big]

    def rep(self, tracer):
        return [_guarded(_sgd_op, tracer, cfg) for cfg in self.configs()]

    def cold_call(self):
        from dataclasses import replace

        run_simulation(replace(self.configs()[0], n_steps=1))

    def exit_times(self, outputs):
        """Exit flow time of every linear run, grouped by d; None when a run
        is missing.  A run that has not exited within its budget enters at
        the budget, a lower bound."""
        runs = [o for o in outputs if isinstance(o, dict) and o["cfg"].d in self.DIMS
                and o["cfg"].mu == 0.5]
        if len(runs) != 3 * len(self.DIMS):
            return None
        return {d: [(r["exit_step"] or r["cfg"].n_steps) * epoch_time_scale(r["cfg"])
                    for r in runs if r["cfg"].d == d] for d in self.DIMS}

    def exit_slope(self, outputs):
        """(least-squares slope of exit flow time against log d, tau/2)."""
        times = self.exit_times(outputs)
        if times is None:
            return None
        x = np.log([d for d in self.DIMS for _ in times[d]])
        y = [t for d in self.DIMS for t in times[d]]
        half_tau = linearize_search_phase(_matching(LINEAR, 0.5, 2)).tau / 2.0
        return float(np.polyfit(x, y, 1)[0]), half_tau

    def check(self, outputs):
        """HE3 tracks the flow step by step (criterion 09's rule).  Linear
        runs below d=1e5 exit; the mean exit time rises with d, with a slope
        against log d between tau/2 / 2.5 and 2.5 tau/2.

        A slope within 25% of tau/2 is not what this budget delivers; it
        fails for about half the seeds: over 40 seed sets the 3-seed
        slope is 3.06 +- 0.66 against tau/2 = 2.41, because at d=1e5 the
        noise floor (lr d / B = 10) delays the exit.  The band kept here
        still fails a flat, inverted or grossly rescaled law.
        """
        flows = self.__dict__.setdefault("_flows", FlowReference())
        failed = []
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                failed.append(f"raised #{i}: {out!r}")
                continue
            cfg = out["cfg"]
            ok = _finite(out["u"], out["m"]) and abs(out["omega_norm"] - 1.0) < 1e-9
            if cfg.student is HE3:
                ok = ok and tracks_flow(out, HE3, 25, flows, dt=0.05)
            elif cfg.d < 100_000:
                ok = ok and out["exit_step"] is not None
            if not ok:
                failed.append(_run_name(cfg))
        times = self.exit_times(outputs)
        ok = times is not None
        if ok:
            means = [np.mean(times[d]) for d in self.DIMS]
            slope, half_tau = self.exit_slope(outputs)
            ok = (all(a < b for a, b in zip(means, means[1:]))
                  and half_tau / 2.5 <= slope <= 2.5 * half_tau)
        if not ok:
            failed += [_run_name(o["cfg"]) for o in outputs
                       if isinstance(o, dict) and o["cfg"].d in self.DIMS and o["cfg"].mu == 0.5]
        return failed

    def info(self, reps):
        fit = self.exit_slope(reps[0])
        return {} if fit is None else {"exit_slope": fit[0], "half_tau": fit[1]}


class ReducedFlow(Workload):
    """Criterion 12's mu=0.3 flows, criterion 06's curves, criteria 02/03's scans."""

    name = "reduced_flow"
    step_counts = ("rk4_steps",)
    FLOWS = (("linear", 0.01, 60.0, 2), ("erf", 0.02, 400.0, 40), ("hermite2", 0.01, 200.0, 25))
    CURVES = (("erf", 60, (0.05, 0.95, 19)), ("sigmoid", 40, (0.05, 0.95, 19)),
              ("relu", 25, (0.3, 0.95, 14)))
    SCANS = ("hermite3", "hermite5", "hermite7")
    MU = 0.3

    def start(self):
        """Flow start state: criterion 12's (1e-3, 1e-3) at seed 0, jittered
        by at most 25% per coordinate for other seeds."""
        if self.seed == 0:
            return 1e-3, 1e-3
        rng = np.random.default_rng(self.seed)
        u0, m0 = 1e-3 * rng.uniform(0.8, 1.25, size=2)
        return float(u0), float(m0)

    def _flow(self, tracer, name, dt, t_max, k_max):
        u0, m0 = self.start()
        with tracer.span("integrate_flow", "ode") as sp:
            rec = integrate_flow(
                _matching(builtin(name), self.MU, k_max),
                OrderParameterState(u0, m0),
                FlowSettings(dt=dt, t_max=t_max, record_every=5),
            )
            steps = int(round(t_max / dt))
            sp.count(rk4_steps=steps)
        return {"kind": "flow", "name": name, "rec": rec, "steps": steps}

    def _curve(self, tracer, name, k_max, grid):
        act = builtin(name)
        with tracer.span("tau_curve", "theory"):
            curve = tau_curve(act, act, np.linspace(*grid), k_max=k_max)
        return {"kind": "curve", "name": name, "curve": curve}

    def _scan(self, tracer, name):
        act = builtin(name)
        with tracer.span("find_singularities", "theory"):
            roots = find_singularities(act, act, k_max=25)
        return {"kind": "scan", "name": name, "roots": roots}

    def rep(self, tracer):
        out = [_guarded(self._flow, tracer, *f) for f in self.FLOWS]
        out += [_guarded(self._curve, tracer, *c) for c in self.CURVES]
        out += [_guarded(self._scan, tracer, s) for s in self.SCANS]
        return out

    def cold_call(self):
        for name, dt, t_max, k_max in self.FLOWS:
            integrate_flow(_matching(builtin(name), self.MU, k_max), OrderParameterState(*self.start()),
                           FlowSettings(dt=dt, t_max=dt))

    def check(self, outputs):
        failed = []
        roots = {}
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                failed.append(f"raised #{i}: {out!r}")
                continue
            name = out["name"]
            if out["kind"] == "flow":
                rep = verify_descent(out["rec"])
                ok = (rep.n_fit_points >= 10 and rep.r_squared >= 0.99 and rep.sign_constant
                      and rep.loss_monotone and rep.terminal_m_eff_gap <= 1e-3)
            elif out["kind"] == "curve":
                # criterion 06: nondecreasing in mu; erf and sigmoid series
                # certified converged (relu's is not, and is not required to be)
                c = out["curve"]
                ok = bool(_finite(c.tau) and np.all(c.tau > 0) and np.all(np.diff(c.tau) >= -1e-9))
                if name != "relu":
                    ok = ok and bool(np.all(c.converged))
            else:
                roots[name] = out["roots"]
                ok = len(out["roots"]) == 1 and 0.0 < out["roots"][0] < 1.0
                if name == "hermite3":
                    ok = ok and abs(out["roots"][0] - 0.325) <= 0.02
            if not ok:
                failed.append(f"{out['kind']} {name}")
        if all(len(roots.get(s, ())) == 1 for s in self.SCANS):
            r = [roots[s][0] for s in self.SCANS]
            if not r[0] < r[1] < r[2]:
                failed += [f"scan {s}" for s in self.SCANS]
        return failed

    def info(self, reps):
        ok = [o for o in reps[0] if isinstance(o, dict)]
        return {
            "roots": {o["name"]: o["roots"] for o in ok if o["kind"] == "scan"},
            "t_exit": {o["name"]: o["rec"].t_exit for o in ok if o["kind"] == "flow"},
        }


class CliSweep(Workload):
    """``searchphase.cli.main`` in process: tau, sgd, committee, compare."""

    name = "cli_sweep"
    SGD_STEPS, SGD_RECORD_EVERY, SGD_MUS = 2000, 10, (0.1, 0.5, 0.9)
    COMMITTEE_STEPS, COMMITTEE_RECORD_EVERY, RANKS = 3000, 10, (1, 2, 3)

    def commands(self, out: str):
        mus = ",".join(str(m) for m in self.SGD_MUS)
        seeds = f"{2 * self.seed},{2 * self.seed + 1}"
        return [
            ("tau", ["tau", "--activations", "linear", "--mu", mus, "--out", f"{out}/tau"]),
            ("sgd", ["sgd", "--mu", mus, "--seeds", seeds, "--n-steps", str(self.SGD_STEPS),
                     "--record-every", str(self.SGD_RECORD_EVERY), "--out", f"{out}/sgd"]),
            ("committee", ["committee", "--mu", "0.5", "--ranks", ",".join(map(str, self.RANKS)),
                           "--n-steps", str(self.COMMITTEE_STEPS), "--seed", str(self.seed),
                           "--out", f"{out}/committee"]),
            ("compare", ["compare", "--theory", f"{out}/tau/tau_linear.csv",
                         "--experiment", f"{out}/sgd/sgd_summary.csv", "--out", f"{out}/compare"]),
        ]

    def new_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cli-", dir=self.scratch)

    def run_cli(self, tracer, out: str) -> list:
        from searchphase.cli import main

        results = []
        for sub, argv in self.commands(out):
            buf = io.StringIO()
            with tracer.span(f"main {sub}", "cli") as sp:
                try:
                    with contextlib.redirect_stdout(buf):
                        code = main(argv)
                except Exception as exc:  # reported as failed cells
                    code = exc
                    sp.ok = False
                if sub == "sgd":
                    runs = len(self.SGD_MUS) * 2
                    records = runs * (self.SGD_STEPS // self.SGD_RECORD_EVERY + 1)
                    sp.count(sgd_steps=runs * self.SGD_STEPS, sgd_records=records,
                             test_samples=records * TEST_SAMPLES_PER_RECORD,
                             computed_bytes=runs * self.SGD_STEPS * step_bytes(1000))
                elif sub == "committee":
                    sp.count(committee_steps=len(self.RANKS) * self.COMMITTEE_STEPS)
            results.append({"sub": sub, "code": code, "stdout": buf.getvalue()})
        return results

    def rep(self, tracer):
        out = self.new_dir()
        results = self.run_cli(tracer, out)
        return [{"dir": out, "commands": results}]

    def cold_call(self):
        from searchphase.cli import main

        out = self.new_dir()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main(self.commands(out)[0][1])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    # -- checks --------------------------------------------------------------

    @staticmethod
    def _manifest(path):
        try:
            with open(os.path.join(path, "manifest.json")) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def cells(self, rep_out: dict) -> list[tuple[str, str, dict]]:
        """(subcommand, cell name, manifest entry) for every cell run."""
        out = []
        for cmd in rep_out["commands"]:
            manifest = self._manifest(os.path.join(rep_out["dir"], cmd["sub"]))
            entries = manifest["cells"] if manifest else [{"name": f"{cmd['sub']}?", "status": "missing"}]
            out += [(cmd["sub"], e["name"], e) for e in entries]
        return out

    def attempted(self, outputs):
        return sum(len(self.cells(o)) for o in outputs)

    @staticmethod
    def onsets(cells) -> list:
        return [e.get("summary", {}).get("onset_epoch") for s, _, e in cells if s == "committee"]

    @staticmethod
    def onset_spread(onsets) -> float:
        return (max(onsets) - min(onsets)) / float(np.mean(onsets))

    def check(self, outputs):
        """Every subcommand exits 0 with all cells [ok]; compare reports
        Spearman 1; the committee onsets agree across ranks within 20%.
        (Criterion 14 asks 10% of its pinned seed; over seeds 0-29 the
        spread of one seed's three onsets reaches 15.6%, 2 seeds in 30
        exceed 10%.)"""
        failed = []
        for rep_out in outputs:
            commands = {c["sub"]: c for c in rep_out["commands"]}
            cells = self.cells(rep_out)
            onsets = self.onsets(cells)
            for sub, name, entry in cells:
                ok = (commands[sub]["code"] == 0 and entry.get("status") == "ok"
                      and f"[ok] {name}" in commands[sub]["stdout"])
                if ok and sub == "compare":
                    ok = entry["summary"].get("spearman") == 1.0
                if ok and sub == "committee":
                    ok = None not in onsets and self.onset_spread(onsets) < 0.20
                if not ok:
                    failed.append(f"cell {name}")
        return failed

    def digests(self, rep_out: dict) -> dict[str, str]:
        """SHA-256 of every CSV the sweep wrote (information, not a gate)."""
        out = {}
        for root, _, files in os.walk(rep_out["dir"]):
            for f in sorted(files):
                if f.endswith(".csv"):
                    path = os.path.join(root, f)
                    with open(path, "rb") as fh:
                        rel = os.path.relpath(path, rep_out["dir"])
                        out[rel] = hashlib.sha256(fh.read()).hexdigest()
        return dict(sorted(out.items()))

    def info(self, reps):
        cells = self.cells(reps[0][0])
        onsets = self.onsets(cells)
        spearman = [e.get("summary", {}).get("spearman") for s, _, e in cells if s == "compare"]
        digests = [self.digests(rep[0]) for rep in reps]
        return {
            "committee_onsets": onsets,
            "committee_onset_spread": self.onset_spread(onsets) if None not in onsets else None,
            "spearman": spearman,
            "csv_sha256": digests[0],
            "csv_identical_across_reps": all(d == digests[0] for d in digests),
        }

    def cleanup(self, reps):
        for rep in reps:
            for o in rep:
                shutil.rmtree(o["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (SgdSearch, SgdSteps, ReducedFlow, CliSweep)}
