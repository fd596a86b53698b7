"""Spans around the program's layers, installed from the benchmark's own files.

The wrappers go around the module attributes the program calls through
(``sim.rk4_step`` and the ``rhs`` it receives, ``sim.run``,
``sim.write_trajectory_csv``, the settle/window/fit functions, and
``config.build_run_setup``), and around ``Game.profile_gradient`` and each
``Plant.drift`` through ``dataclasses.replace`` on the objects
``build_run_setup`` returns.  A wrapped function the program no longer calls
simply records nothing; its layer is then reported as absent.

Fine spans (one per RHS evaluation, gradient or drift call) are folded into
per-name totals as they close, so memory stays flat over a long run; coarse
spans (runs, CSV writes, setups) are kept whole and written out at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
import weakref

import numpy as np

from nashseek import config, control, game as game_mod, graph, sim

COARSE = {"run", "csv", "setup"}


class Tracer:
    """Per-thread span stacks; self time is a span minus the spans it encloses."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.spans = []          # coarse spans: (name, thread, start, end)
        self.records = 0
        self.csv_bytes = 0
        self.state_floats = 0

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table, local.stack = {}, []
            with self._lock:
                self._tables.append(local.table)
        return local

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            local = self._thread_state()
            frame = [time.perf_counter(), 0.0]
            local.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
                duration = end - frame[0]
                entry = local.table.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if local.stack:
                    local.stack[-1][1] += duration
                if name in COARSE:
                    self.spans.append((name, threading.get_ident(), frame[0], end))
        return traced

    def add(self, attr, amount):
        with self._lock:
            setattr(self, attr, getattr(self, attr) + amount)

    def totals(self) -> dict:
        """name -> (calls, total seconds, self seconds), over all threads."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, self_s) in table.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    patches = []

    def patch(module, attr, make):
        original = getattr(module, attr, None)
        if original is not None:
            setattr(module, attr, make(original))
            patches.append((module, attr, original))

    def rk4(original):
        traced_step = tracer.wrap("rk4_step", original)
        traced_rhs = weakref.WeakKeyDictionary()   # one wrapper per rhs closure

        def step(rhs, state, t, dt):
            tracer.state_floats = int(np.size(state))
            wrapped = traced_rhs.get(rhs)
            if wrapped is None:
                wrapped = traced_rhs[rhs] = tracer.wrap("rhs", rhs)
            return traced_step(wrapped, state, t, dt)
        return step

    def run(original):
        traced_run = tracer.wrap("run", original)

        def run_and_count(*args, **kwargs):
            trajectory = traced_run(*args, **kwargs)
            tracer.add("records", len(trajectory.times))
            return trajectory
        return run_and_count

    def write_csv(original):
        traced_write = tracer.wrap("csv", original)

        def write_and_measure(trajectory, path):
            traced_write(trajectory, path)
            tracer.add("csv_bytes", os.path.getsize(path))
        return write_and_measure

    def build(original):
        traced_build = tracer.wrap("setup", original)

        def build_and_wrap(cfg):
            setup = traced_build(cfg)
            replace = {}
            if getattr(setup.game, "profile_gradient", None) is not None:
                replace["game"] = dataclasses.replace(
                    setup.game, profile_gradient=tracer.wrap("gradient", setup.game.profile_gradient))
            if any(getattr(p, "drift", None) is not None for p in setup.plants):
                replace["plants"] = [
                    p if p.drift is None else dataclasses.replace(p, drift=tracer.wrap("drift", p.drift))
                    for p in setup.plants]
            return dataclasses.replace(setup, **replace)
        return build_and_wrap

    patch(sim, "rk4_step", rk4)
    patch(sim, "run", run)
    patch(sim, "write_trajectory_csv", write_csv)
    for name in ("settle_time", "mid_decay_window", "fit_exponential_rate"):
        patch(sim, name, lambda original: tracer.wrap("post", original))
    patch(config, "build_run_setup", build)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, sweep_wall_s) -> tuple[dict, list]:
    """Per-layer metrics of one traced workload run, and the names of absent layers."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def seconds(name, column=1):
        return t.get(name, (0, 0.0, 0.0))[column]

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    steps, rhs_evals, runs = calls("rk4_step"), calls("rhs"), calls("run")
    metrics = {
        "sim.steps": steps,
        "sim.rhs_evals": rhs_evals,
        "sim.records": tracer.records,
        "sim.rhs_us": per(seconds("rhs"), rhs_evals, 1e6),
        "sim.rk4_self_us": per(seconds("rk4_step", 2), steps, 1e6),
        "sim.loop_self_us": per(seconds("run", 2), steps, 1e6),
        "sim.post_s": per(seconds("post"), runs),
        "sim.csv_write_s": seconds("csv"),
        "sim.csv_bytes": tracer.csv_bytes,
        "sim.state_floats": tracer.state_floats,
        "game.gradient_us": per(seconds("gradient"), calls("gradient"), 1e6),
        "game.gradient_calls_per_rhs": per(calls("gradient"), rhs_evals),
        "scenarios.drift_calls_per_rhs": per(calls("drift"), rhs_evals),
        "scenarios.drift_us_per_rhs": per(seconds("drift"), rhs_evals, 1e6),
        "cli.sweep_cells": runs if sweep_wall_s else 0,
        "cli.sweep_concurrency": per(seconds("run"), sweep_wall_s) if sweep_wall_s else 0.0,
    }
    source = {"sim.steps": "rk4_step", "sim.rk4_self_us": "rk4_step", "sim.state_floats": "rk4_step",
              "sim.rhs_evals": "rhs", "sim.rhs_us": "rhs", "sim.records": "run",
              "sim.loop_self_us": "run", "sim.post_s": "post", "sim.csv_write_s": "csv",
              "sim.csv_bytes": "csv", "game.gradient_us": "gradient",
              "game.gradient_calls_per_rhs": "gradient", "scenarios.drift_calls_per_rhs": "drift",
              "scenarios.drift_us_per_rhs": "drift"}
    absent = [name for name, span in source.items() if calls(span) == 0]
    if not sweep_wall_s:
        absent += ["cli.sweep_cells", "cli.sweep_concurrency"]
    return metrics, absent


def _time_call(fn, repeats: int, min_batch_s: float = 2e-3) -> list:
    """Microseconds per call, one sample per batch of calls long enough to time."""
    fn()
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - start >= min_batch_s or batch >= 1 << 16:
            break
        batch *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch * 1e6)
    return samples


def layer_calls(setup, seed: int, repeats: int) -> dict:
    """Microsecond samples per layer call on a fixed state drawn from the seed.

    A layer the workload does not use (drift on turbines, the observer in
    state mode) maps to None.
    """
    rng = np.random.default_rng(seed)
    n = setup.plants[0].order_n
    n_players = setup.graph.n_nodes
    m = setup.game.decision_dim
    chain = rng.normal(size=(n, n_players, m))
    x = chain[0]
    x_hat = x[None, :, :] + 0.1 * rng.normal(size=(n_players, n_players, m))
    y = rng.normal(size=(n_players, m))
    z = chain + 0.01 * rng.normal(size=chain.shape)
    profiles = x_hat.copy()
    profiles[np.arange(n_players), np.arange(n_players), :] = x
    grads = game_mod.gradient_matrix(setup.game, profiles)
    levels = chain[1:]
    gains = setup.gains
    drifts = [(i, p.drift, p.w) for i, p in enumerate(setup.plants) if p.drift is not None]

    def all_drifts():
        for i, drift, w in drifts:
            drift(chain[:, i, :], w)

    def feedback():
        control.stacked_control_input(levels, grads, y, gains)
        control.stacked_aux_rate(levels, grads, gains)

    calls = {
        "game.gradient_matrix_us": lambda: game_mod.gradient_matrix(setup.game, profiles),
        "scenarios.drift_us": all_drifts if drifts else None,
        "control.feedback_us": feedback,
        "control.observer_us": (lambda: control.stacked_observer_rate(z, x, gains, setup.observer))
        if setup.algo == sim.MODE_OUTPUT else None,
        "control.consensus_us": lambda: control.stacked_estimate_rate(x_hat, x, setup.graph, gains.alpha3),
    }
    return {name: None if fn is None else _time_call(fn, repeats) for name, fn in calls.items()}


def certificate_samples(setup, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        graph.estimation_certificate(setup.graph)
        samples.append(time.perf_counter() - start)
    return samples
