"""Whole-pass protocol parameter optimization.

The security analysis requires one parameter set (intensities, their
probabilities, basis bias) for the whole accumulation block, and the
post-processing minimum elevation is itself a parameter. The search runs
over (mu, nu, share, p_sum, p_z), where p_sum = p_mu + p_nu and share =
p_mu / p_sum, each in a constant box but for nu, which stays NU_MARGIN
below mu: a deterministic coarse grid crossed with an exhaustive 1-degree
scan of the minimum elevation, then coordinate-wise golden-section
refinement from START_COUNT starts. The pass sets the elevation grid: the
whole degrees from its lowest sample, rounded down, to its highest, so the
first cut keeps every sample and every cut keeps one.

For speed, the coarse (mu, nu, p_mu, p_nu) blocks form one array that is
evaluated one chunk of CHUNK_BLOCKS blocks at a time, from cut sums to row
maxima. A row of the grid is one block with one p_z value, a cell one row at
one cut. Per chunk, channel.leading_sums gives every block's tallies at
every cut, and the finite-key kernel runs on every cell.
The refinement's line searches and passes are generators that yield the
rows they need and receive their values; _lockstep drives the starts
together, one kernel call per round on the rows of every live search, each
search seeing the values it would see alone. A line search asks for the
point a golden-section step needs and the new point of every later step
along the path the values in hand predict, then replays the sequential
steps from those values: the same points whatever the prediction, in under
a fifth of the rounds. A line search depends only on the other coordinates,
so a coordinate is not searched again until another one has moved. A run
of rows of one (mu, nu, p_mu, p_nu) block, as a p_z line search asks for,
takes its cut sums once. The final evaluation is one more row, and the
scalar path's tallies at its cut are that row's, bit for bit.

The starts are the best rows, each its first maximum in grid order, of
the START_COUNT nu grid indices whose best rows rank highest by value, ties
going to the lower row; they are kept in grid order, so the grid's first
maximum is one of them. A single grid can hold optima in distinct basins
that differ mostly in nu, and starts from distinct nu indices reach more of
them than the best rows alone. The result is the first maximum over the
refined starts, in start order.

When the calling process may run on more than one CPU, it keeps one worker,
forked at its first such pass, that runs each call it is piped, a function
of this module by name with its arguments, and pipes back the result. A
pass makes two calls: the coarse grid, from which the calling process picks
the starts, then the refinement of every second start, while the calling
process formats the trace rows and refines the others. So the chosen
parameters and the trace are the same on any number of CPUs, and one CPU
does it all. Only a whole pickled message counts as the worker's success.
A failed pass or the process's exit kills and reaps the worker; a process
forked later forks its own. The worker ignores SIGINT, exits when its task
pipe closes, and runs only elementwise numpy code, never BLAS, whose thread
pool a fork does not carry over.
"""
from __future__ import annotations

import atexit
import math
import os
import pickle
import signal
import traceback
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .channel import DetectorSpec, SourceSpec, descending_samples, expected_tallies, leading_sums, sifted_rows
from .finitekey import SecurityParams, SklResult, asymptotic_rate, skl_from_tallies, skl_real_arrays
from .linkbudget import AtmosphereModel, ReceiverSpec, TransmitterSpec, compute_breakdowns
from .orbit import GroundStation, OrbitSpec, PassGeometry, synth_pass

MU_BOX = (0.1, 1.0)
NU_MARGIN = 0.01
NU_MIN = 0.01
# share = p_mu / p_sum, and p_sum = p_mu + p_nu per protocol: one decoy
# sends no vacuum pulses, two keep at least 1% of them.
SHARE_BOX = (0.2, 0.95)
P_SUM_BOX = {1: (1.0, 1.0), 2: (0.21, 0.99)}
P_Z_BOX = (0.3, 0.97)
# Coarse blocks per finite-key kernel call: large enough to amortise the
# per-call overhead, small enough that a chunk's temporaries stay in cache.
CHUNK_BLOCKS = 24
# Refinement starts per search, each the best coarse row of its own nu index.
START_COUNT = 3
PARAM_NAMES = ("mu", "nu", "p_mu", "p_nu", "p_z")
# The coordinates searched, in refinement order, and the span that scales
# each one's golden-section tolerance.
SEARCH_NAMES = ("mu", "nu", "share", "p_sum", "p_z")
DIM_SPAN = {"mu": MU_BOX[1] - MU_BOX[0], "nu": MU_BOX[1] - NU_MIN,
            "share": SHARE_BOX[1] - SHARE_BOX[0], "p_sum": P_SUM_BOX[2][1] - P_SUM_BOX[2][0],
            "p_z": P_Z_BOX[1] - P_Z_BOX[0]}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OptimizerError(ValueError):
    """Raised for invalid optimizer configurations or parameter vectors."""


class SearchWorkerError(RuntimeError):
    """Raised when the optimizer worker cannot start, has exited, fails or
    sends an incomplete result: an internal error, not invalid input."""


@dataclass(frozen=True)
class ParamVector:
    """Protocol parameters subject to whole-pass optimization."""

    mu: float
    nu: float
    p_mu: float
    p_nu: float
    p_z: float
    min_elevation_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.nu < self.mu <= 1.0:
            raise OptimizerError(f"require 0 < nu < mu <= 1, got (mu={self.mu}, nu={self.nu})")
        if not (self.p_mu > 0 and self.p_nu > 0 and self.p_mu + self.p_nu <= 1.0 + 1e-12):
            raise OptimizerError(
                f"require p_mu, p_nu > 0 with p_mu + p_nu <= 1, got ({self.p_mu}, {self.p_nu})"
            )
        if not 0.0 < self.p_z < 1.0:
            raise OptimizerError(f"require 0 < p_z < 1, got {self.p_z}")
        if not 0.0 <= self.min_elevation_deg <= 90.0:
            raise OptimizerError(
                f"min_elevation_deg must be within [0, 90], got {self.min_elevation_deg}"
            )


@dataclass(frozen=True)
class OptimizerConfig:
    """Deterministic search configuration."""

    coarse_grid_steps: int = 4
    refine_iterations: int = 4
    rel_tolerance: float = 1e-2

    def __post_init__(self) -> None:
        # Two decoys make g**5 rows; 16 steps, 1M rows and ~0.2 GB, keep a typo from exhausting memory.
        if not 2 <= self.coarse_grid_steps <= 16:
            raise OptimizerError(f"coarse_grid_steps must be within [2, 16], got {self.coarse_grid_steps}")
        if self.refine_iterations < 0:
            raise OptimizerError(f"refine_iterations must be >= 0, got {self.refine_iterations}")
        if not self.rel_tolerance > 0:
            raise OptimizerError(f"rel_tolerance must be > 0, got {self.rel_tolerance}")


@dataclass(frozen=True)
class HardwareStack:
    """Everything on the optical path plus the protocol source template."""

    transmitter: TransmitterSpec
    receiver: ReceiverSpec
    atmosphere: AtmosphereModel
    detector: DetectorSpec
    source: SourceSpec


def source_with_params(template: SourceSpec, params: ParamVector, n_decoys: int) -> SourceSpec:
    """Template source with the candidate protocol parameters applied.

    The single optimized basis bias is applied on both sides.
    """
    return replace(
        template,
        signal_intensity=params.mu,
        decoy_intensity=params.nu,
        p_mu=params.p_mu,
        p_nu=params.p_nu,
        p_z_alice=params.p_z,
        p_z_bob=params.p_z,
        vacuum_included=(n_decoys == 2),
    )


class _PassChannel:
    """Per-pass precomputation: the cut grid and the pass's descending_samples over it."""

    def __init__(self, pass_geometry: PassGeometry, hardware: HardwareStack,
                 security: SecurityParams, n_decoys: int):
        self.security = security
        self.n_decoys = n_decoys
        self.detector = hardware.detector
        self.template = hardware.source
        elevations = pass_geometry.samples.elevation_deg
        if not len(elevations):
            raise OptimizerError("the pass has no samples")
        breakdowns = compute_breakdowns(
            pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
        )
        self.pulses_per_sample = hardware.source.pulse_rate_hz * pass_geometry.sample_dt_s
        # The whole degrees from the lowest sample, rounded down, to the
        # highest: a lower cut keeps the same samples as the first and a
        # higher one none. Ties go to the first, a cut the station can use.
        self.cuts = np.arange(math.floor(elevations.min()), math.floor(elevations.max()) + 1.0)
        self.eta_sorted, self.eta_unique, self.eta_inverse, self.cut_kept = descending_samples(
            elevations, breakdowns.eta * hardware.detector.efficiency, self.cuts)

    def cut_sums(self, blocks: np.ndarray) -> np.ndarray:
        """leading_sums of (mu, nu, p_mu, p_nu) blocks over every cut: shape
        (9, blocks, n_cuts). A run of one block, as in a p_z line search, is
        summed once."""
        first = np.r_[True, (blocks[1:] != blocks[:-1]).any(axis=1)]
        if not first.all():
            return self.cut_sums(blocks[first])[:, np.cumsum(first) - 1]
        mu, nu, p_mu, p_nu = blocks.T
        return leading_sums(self.eta_unique, self.eta_inverse, self.cut_kept, mu, nu, p_mu, p_nu,
                            _p_vac(p_mu, p_nu, self.n_decoys), self.pulses_per_sample,
                            self.template, self.detector)

    def skl_chunk(self, blocks: np.ndarray, p_z_values: np.ndarray) -> np.ndarray:
        """Unfloored key length of (mu, nu, p_mu, p_nu) blocks and p_z
        values over the cut grid. p_z_values is either a 1-D grid crossed
        with every block, giving rows block-major, or a column with one p_z
        per block, giving one row per block; shape (rows, n_cuts). The Z/X
        split is a sifting factor applied to cut_sums, so one presift serves
        the whole p_z grid.
        """
        cut = self.cut_sums(blocks)[:, :, None, :]  # (9, blocks, 1, cuts)
        p_z = np.asarray(p_z_values, dtype=float)[..., None]
        t = {name: row.reshape(-1, len(self.cuts))
             for name, row in sifted_rows(cut[0:3], cut[3:6], cut[6:9], p_z, p_z).items()}
        # One (rows, 1) column per parameter, each block repeated per p_z row.
        mu, nu, p_mu, p_nu = (np.repeat(x, p_z.shape[-2])[:, None] for x in blocks.T)
        l_real, _ = skl_real_arrays(t, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys),
                                    self.security, self.n_decoys)
        return l_real

    def objective(self, blocks: np.ndarray, p_z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best unfloored key length over the cut grid and its cut index,
        per row of skl_chunk(blocks, p_z_values); ties resolve to the lower
        elevation (np.argmax takes the first maximum)."""
        l_real = self.skl_chunk(blocks, p_z_values)
        cut_idx = np.argmax(l_real, axis=1)
        return l_real[np.arange(len(l_real)), cut_idx], cut_idx


def _p_vac(p_mu, p_nu, n_decoys: int):
    """Vacuum-intensity probability; zero, shaped like p_mu, for one decoy."""
    return 1.0 - p_mu - p_nu if n_decoys == 2 else 0.0 * p_mu


def _golden_steps(a: float, b: float, x1: float, x2: float) -> tuple[tuple, tuple]:
    """The two successors of the golden-section state (a, b, x1, x2): the
    interval [a, x2], kept when f(x1) >= f(x2), whose new point is its x1,
    and [x1, b], whose new point is its x2."""
    return (a, x2, x2 - _GOLDEN * (x2 - a), x1), (x1, b, x2, x1 + _GOLDEN * (b - x1))


def _peak(known: dict[float, float]) -> float:
    """Predicted abscissa of the maximum of a line from its known values,
    abscissa to value: the vertex of the parabola through the best point,
    the first maximum in abscissa order, and its nearest known neighbours;
    -inf or inf when the best point is the outermost one, toward that end;
    the one known point if only one is, and -inf, the way ties send a step,
    if none is. Total: ties, plateaus and non-finite values never raise."""
    xs = sorted(known)
    if len(xs) < 2:
        return xs[0] if xs else -math.inf
    i = max(range(len(xs)), key=[known[x] for x in xs].__getitem__)
    if not 0 < i < len(xs) - 1:
        return math.inf if i else -math.inf
    (a, fa), (b, fb), (c, fc) = ((x, known[x]) for x in xs[i - 1:i + 2])
    p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
    vertex = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q) if p != q else b
    return vertex if a <= vertex <= c else b


def _golden_max(rows, lo: float, hi: float, abs_tol: float, guess: tuple[float, float] | None = None,
                max_iter: int = 80):
    """Golden-section maximization on [lo, hi] of a line whose abscissae xs,
    a 1-D array, are the rows rows(xs): a generator that yields rows(xs) for
    the abscissae it needs, receives their values and returns (x, value).
    guess, if given, is a point (x, value) of the line, such as the start.

    The steps are the sequential ones, reading values from a cache. A miss
    asks for the points needed and, up to where the search stops, the new
    point of each later step along the path the values in hand predict (the
    point a step adds depends only on the interval): left, to [a, x2], where
    both interior values are cached and the first is not the smaller, as the
    search goes, else where the _peak of the cached values and the guess lies
    at or below the midpoint of the interior points. So the search visits the
    points of one evaluation per step whatever the prediction, and a wrong
    one costs one more ask."""
    if hi <= lo:
        return lo, float((yield rows(np.array([lo])))[0])
    cache: dict[float, float] = {}

    def ahead(state: tuple, done: int) -> list[float]:
        """The new point of each step from state, after done steps, along
        the predicted path, up to where the search stops."""
        known = dict([guess] if guess is not None else [])
        known.update(cache)
        peak, xs = _peak(known), []
        while done < max_iter and state[1] - state[0] > abs_tol:
            left, right = _golden_steps(*state)
            x1, x2 = state[2:]
            if x1 in cache and x2 in cache:
                state = left if cache[x1] >= cache[x2] else right
            else:
                state = left if peak <= 0.5 * (x1 + x2) else right
            xs.append(state[2] if state is left else state[3])
            done += 1
        return xs

    def values(points: tuple, state: tuple, done: int):
        """The values at points, the new interior points of state after done
        steps, asked for with the points ahead on a miss."""
        if any(x not in cache for x in points):
            xs = [x for x in dict.fromkeys((*points, *ahead(state, done)))
                  if x not in cache]
            cache.update(zip(xs, (yield rows(np.array(xs))).tolist()))
        return [cache[x] for x in points]

    state = (lo, hi, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
    f1, f2 = yield from values(state[2:], state, 0)
    best_x, best_f = (state[2], f1) if f1 >= f2 else (state[3], f2)
    for done in range(max_iter):
        if state[1] - state[0] <= abs_tol:
            break
        left, right = _golden_steps(*state)
        if f1 >= f2:
            state, f2 = left, f1
            (f1,) = yield from values(state[2:3], state, done + 1)
        else:
            state, f1 = right, f2
            (f2,) = yield from values(state[3:], state, done + 1)
        if f1 > best_f:
            best_x, best_f = state[2], f1
        if f2 > best_f:
            best_x, best_f = state[3], f2
    return best_x, best_f


def _params(rows: np.ndarray) -> np.ndarray:
    """Rows (mu, nu, p_mu, p_nu, ...) of search rows (mu, nu, share, p_sum, ...)."""
    mu, nu, share, p_sum = rows[:, :4].T
    return np.column_stack([mu, nu, share * p_sum, p_sum - share * p_sum, rows[:, 4:]])


def _coarse_blocks(config: OptimizerConfig, n_decoys: int) -> np.ndarray:
    """Deterministic (mu, nu, p_mu, p_nu) blocks, an (n_blocks, 4) array: the
    _params of the grid (mu, nu, share, p_sum), mu outermost; p_z is gridded
    per block. A sum box of zero width is one grid value."""
    g = config.coarse_grid_steps
    lo, hi = P_SUM_BOX[n_decoys]
    mu = np.linspace(*MU_BOX, g)
    nu = np.linspace(NU_MIN, mu - NU_MARGIN, g, axis=-1)
    share = np.linspace(*SHARE_BOX, g)
    p_sum = np.linspace(lo, hi, g if hi > lo else 1)
    grids = np.broadcast_arrays(mu[:, None, None, None], nu[:, :, None, None], share[:, None], p_sum)
    return _params(np.stack(grids, axis=-1).reshape(-1, 4))


def _box(dim: str, point: dict, n_decoys: int) -> tuple[float, float]:
    """Search interval of one coordinate at point; only mu and nu bound each other."""
    if dim == "mu":
        return max(MU_BOX[0], point["nu"] + NU_MARGIN), MU_BOX[1]
    if dim == "nu":
        return NU_MIN, point["mu"] - NU_MARGIN
    return {"share": SHARE_BOX, "p_sum": P_SUM_BOX[n_decoys], "p_z": P_Z_BOX}[dim]


def _refine(point: dict, value: float, n_decoys: int, config: OptimizerConfig):
    """Coordinate-wise golden-section ascent from the parameter dict point,
    whose value is value: a generator that yields arrays of parameter rows
    (mu, nu, p_mu, p_nu, p_z), receives their values and returns (point,
    value). Each of SEARCH_NAMES is searched in its box to a tolerance of
    rel_tolerance times its DIM_SPAN, and a move is kept only when it raises
    value; a coordinate is skipped when no other one has moved since its last
    search or its box is empty, and the ascent ends when every one would be.
    point is the start if no move is kept, else the row that gave value."""
    lo, hi = P_SUM_BOX[n_decoys]
    # A sum box of zero width holds the sum, which p_mu + p_nu can round away from.
    p_sum = point["p_mu"] + point["p_nu"] if hi > lo else lo
    at = dict(point, share=point["p_mu"] / p_sum, p_sum=p_sum)

    def rows(dim: str, xs) -> np.ndarray:
        search = np.tile([at[k] for k in SEARCH_NAMES], (len(xs), 1))
        search[:, SEARCH_NAMES.index(dim)] = xs
        return _params(search)

    stale = set()
    for _ in range(config.refine_iterations):
        for dim in SEARCH_NAMES:
            lo, hi = _box(dim, at, n_decoys)
            if hi > lo and dim not in stale:
                x, fx = yield from _golden_max(lambda xs: rows(dim, xs), lo, hi,
                                               config.rel_tolerance * DIM_SPAN[dim], (at[dim], value))
                if fx > value:
                    point = dict(zip(PARAM_NAMES, rows(dim, [x])[0].tolist()))
                    at[dim], value = x, fx
                    stale.clear()
            stale.add(dim)
        if len(stale) == len(SEARCH_NAMES):  # a box can change only when a coordinate moves
            break
    return point, value


def _lockstep(f, searches: list) -> list:
    """Results of the generator searches, each asking for arrays of rows
    and receiving their values, driven together: each round makes one call
    of f, which maps rows to values, on the asks of every live search
    concatenated in search order, and sends each search its own slice, the
    values it would receive alone."""
    results, asks, sends = [None] * len(searches), {}, dict.fromkeys(range(len(searches)))
    while sends:
        for i, values in sends.items():
            try:
                asks[i] = searches[i].send(values)
            except StopIteration as stop:
                results[i] = stop.value
                asks.pop(i, None)
        rows = list(asks.values())
        ends = np.cumsum([len(r) for r in rows[:-1]])
        sends = dict(zip(asks, np.split(f(np.concatenate(rows)), ends))) if rows else {}
    return results


def _coarse_shard(channel: _PassChannel, blocks: np.ndarray,
                  p_z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best unfloored key length and its cut index for every row of blocks
    crossed with p_z_values, block-major and p_z-minor, evaluated in chunks
    of CHUNK_BLOCKS."""
    chunks = [channel.objective(blocks[start:start + CHUNK_BLOCKS], p_z_values)
              for start in range(0, len(blocks), CHUNK_BLOCKS)]
    return tuple(np.concatenate(arrays) for arrays in zip(*chunks))


def _starts(values: np.ndarray, steps: int) -> list[int]:
    """Rows of the coarse values to refine from: the best row of each of
    the START_COUNT nu grid indices whose best rows rank highest, in grid
    order; see the module docstring. steps is the grid's step count."""
    nu_index = np.arange(len(values)) // (len(values) // steps**2) % steps
    best = [int(rows[np.argmax(values[rows])])
            for rows in (np.flatnonzero(nu_index == k) for k in range(steps))]
    return sorted(sorted(best, key=lambda row: (-values[row], row))[:START_COUNT])


def _trace_text(channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray,
                values: np.ndarray, cut_idx: np.ndarray) -> str:
    """Coarse rows of the optimizer trace for blocks crossed with
    p_z_values: one line per grid row in grid order, with its best cut and
    value, each ending in a newline. Cells are Python-float reprs; each
    distinct grid coordinate, p_z value and cut is formatted once. Rows are
    joined a chunk of CHUNK_BLOCKS blocks at a time, so each chunk's
    temporaries reuse the memory of the one before."""
    cells = {x: repr(x) for x in set(blocks.ravel().tolist())}
    p_z_cells = [repr(p_z) for p_z in p_z_values.tolist()]
    cut_cells = [repr(cut) for cut in channel.cuts.tolist()]
    parts = []
    for start in range(0, len(blocks), CHUNK_BLOCKS):
        chunk = blocks[start:start + CHUNK_BLOCKS].tolist()
        heads = [head + p_z for head in ("coarse,%s,%s,%s,%s," % tuple(map(cells.get, b))
                                         for b in chunk) for p_z in p_z_cells]
        rows = slice(start * len(p_z_cells), (start + len(chunk)) * len(p_z_cells))
        parts.append("\n".join(map(",".join, zip(
            heads, map(cut_cells.__getitem__, cut_idx[rows].tolist()), map(repr, values[rows].tolist())
        ))))
    return "\n".join(parts + [""])  # one copy, ending in a newline


def _refine_starts(channel, starts, n_decoys, config) -> list[tuple[dict, float]]:
    """(point, value) of each start (point, value), refined in lockstep."""
    searches = [_refine(point, value, n_decoys, config) for point, value in starts]
    return _lockstep(lambda xs: channel.objective(xs[:, :4], xs[:, 4:])[0], searches)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork is missing."""
    forks = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if forks else 1


_worker = None  # (owner pid, pid, task pipe, result pipe) of this process's worker


def _write(pipe: BinaryIO, message) -> None:
    """Write message to the unbuffered pipe, pickled after its length in 8 bytes."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    data = memoryview(len(payload).to_bytes(8, "little") + payload)
    while data:  # a write may take only part of it
        data = data[pipe.write(data):]


def _send(call: tuple) -> tuple[int, BinaryIO]:
    """Write call (name, *args) to this process's worker, forked if need be; (pid, result pipe) for _join."""
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        _stop_worker()  # a parent's worker is left running
        (task_read, task_write), (result_read, result_write) = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise SearchWorkerError(f"cannot fork an optimizer worker: {exc}") from exc
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(task_write)
                os.close(result_read)
                with open(task_read, "rb") as tasks, open(result_write, "wb", buffering=0) as results:
                    while header := tasks.read(8):  # until the task pipe ends
                        name, *args = pickle.loads(tasks.read(int.from_bytes(header, "little")))
                        _write(results, globals()[name](*args))
                os._exit(0)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(1)
        os.close(task_read)
        os.close(result_write)
        _worker = (os.getpid(), pid, open(task_write, "wb", buffering=0), open(result_read, "rb"))
    try:
        _write(_worker[2], call)
    except BrokenPipeError as exc:
        raise SearchWorkerError(f"optimizer worker {_worker[1]} has exited") from exc
    return _worker[1], _worker[3]


@atexit.register
def _stop_worker() -> None:
    """Kill and reap this process's worker; of a parent's, close only this process's copies of its pipes."""
    global _worker
    if _worker is not None:
        if _worker[0] == os.getpid():
            os.kill(_worker[1], signal.SIGKILL)
            os.waitpid(_worker[1], 0)
        _worker[2].close()
        _worker[3].close()
    _worker = None


def _join(worker: tuple[int, BinaryIO]):
    """The next message of the worker (pid, result pipe), read whole. A
    missing or truncated pickle means the worker failed."""
    pid, pipe = worker
    payload = pipe.read(int.from_bytes(pipe.read(8), "little"))
    try:
        return pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise SearchWorkerError(f"optimizer worker {pid} sent an incomplete result "
                                f"({len(payload)} bytes)") from exc


def optimize_pass(
    pass_geometry: PassGeometry,
    hardware: HardwareStack,
    security: SecurityParams,
    n_decoys: int,
    config: OptimizerConfig | None = None,
    trace_path: str | Path | None = None,
) -> tuple[ParamVector, SklResult]:
    """Maximize the whole-pass secure key length.

    Returns the best parameter vector (including the post-processing
    minimum elevation) and its key length, recomputed through the scalar
    tally/bound path for the returned vector. Deterministic for a given
    config. When trace_path is set, every coarse candidate and the final
    point are logged for the dominance audit.
    """
    config = config or OptimizerConfig()
    channel = _PassChannel(pass_geometry, hardware, security, n_decoys)
    blocks, p_z_values = _coarse_blocks(config, n_decoys), np.linspace(*P_Z_BOX, config.coarse_grid_steps)
    try:
        worker = _send(("_coarse_shard", channel, blocks, p_z_values)) if _usable_cpus() > 1 else None
        values, cut_idx = _join(worker) if worker else _coarse_shard(channel, blocks, p_z_values)
        rows = _starts(values, config.coarse_grid_steps)
        block, j = np.divmod(rows, len(p_z_values))
        points = np.column_stack([blocks[block], p_z_values[j]]).tolist()
        starts = [(dict(zip(PARAM_NAMES, point)), float(values[row])) for point, row in zip(points, rows)]
        # The worker refines every second start, the calling process the rest.
        if worker:
            _send(("_refine_starts", channel, starts[1::2], n_decoys, config))
        if trace_path is not None:
            text = _trace_text(channel, blocks, p_z_values, values, cut_idx)
        refined = _refine_starts(channel, starts[0::2] if worker else starts, n_decoys, config)
        for i, result in enumerate(_join(worker) if worker else ()):
            refined.insert(2 * i + 1, result)  # back in start order
    except BaseException:
        _stop_worker()  # its pipe may hold messages of this pass
        raise
    # The first maximum in start order wins.
    point, _ = max(refined, key=lambda result: result[1])
    final = [point[k] for k in PARAM_NAMES]
    best, best_cut = channel.objective(np.array([final[:4]]), np.array([final[4:]]))
    value = float(best[0])
    # A whole-degree cut may lie below the station's own cut; every cut up
    # to the lowest sample keeps the same samples, so report the station's.
    cut = max(float(channel.cuts[best_cut[0]]), pass_geometry.min_elevation_deg)
    params = ParamVector(*final, min_elevation_deg=cut)
    if trace_path is not None:
        Path(trace_path).write_text("".join([
            "stage,mu,nu,p_mu,p_nu,p_z,min_elevation_deg,skl_real\n", text,
            "final,%r,%r,%r,%r,%r,%r,%r\n" % (*astuple(params), value),
        ]))
    return params, evaluate_params(pass_geometry, hardware, security, n_decoys, params)


def evaluate_params(
    pass_geometry: PassGeometry,
    hardware: HardwareStack,
    security: SecurityParams,
    n_decoys: int,
    params: ParamVector,
) -> SklResult:
    """Scalar-path key length for a fixed parameter vector."""
    source = source_with_params(hardware.source, params, n_decoys)
    breakdowns = compute_breakdowns(
        pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
    )
    tallies = expected_tallies(
        pass_geometry, breakdowns, source, hardware.detector, params.min_elevation_deg
    )
    return skl_from_tallies(tallies, source, security)


def pointwise_asymptotic_profile(
    pass_geometry: PassGeometry,
    hardware: HardwareStack,
    security: SecurityParams,
    n_decoys: int = 2,
    config: OptimizerConfig | None = None,
) -> list[tuple[float, float]]:
    """Per-sample asymptotic rate, protocol parameters re-optimized at each
    point in time; returns (t_s, skr_per_pulse) pairs."""
    config = config or OptimizerConfig()
    breakdowns = compute_breakdowns(
        pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
    )
    p_z_values = np.linspace(*P_Z_BOX, config.coarse_grid_steps)
    blocks = _coarse_blocks(config, n_decoys)
    rows = np.column_stack([np.repeat(blocks, len(p_z_values), axis=0),
                            np.tile(p_z_values, len(blocks))])

    def rate(eta, mu, nu, p_mu, p_nu, p_z):
        return asymptotic_rate(
            eta, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, n_decoys), p_z * p_z,
            hardware.source, hardware.detector, security,
        )

    profile = []
    for t_s, eta in zip(pass_geometry.samples.t_s.tolist(), breakdowns.eta.tolist()):
        rates = rate(eta, *rows.T)
        idx = int(np.argmax(rates))
        start = dict(zip(PARAM_NAMES, rows[idx].tolist()))
        [(_, best)] = _lockstep(lambda xs: rate(eta, *xs.T),
                                [_refine(start, float(rates[idx]), n_decoys, config)])
        profile.append((t_s, best))
    return profile


def sweep_max_elevation(
    orbit: OrbitSpec,
    min_elevation_deg: float,
    max_elevations_deg: list[float],
    hardware: HardwareStack,
    security: SecurityParams,
    n_decoys: int,
    config: OptimizerConfig | None = None,
    sample_dt_s: float = 1.0,
) -> list[dict[str, float]]:
    """Optimized SKL for passes of different peak elevations.

    Peak elevations at or below the station cut produce an empty pass and a
    zero-key row.
    """
    rows = []
    for max_elev in max_elevations_deg:
        if max_elev <= min_elevation_deg:
            rows.append({"max_elevation_deg": float(max_elev), "skl_bits": 0.0})
            continue
        station = GroundStation(min_elevation_deg=min_elevation_deg, max_elevation_deg=max_elev)
        pass_geometry = synth_pass(orbit, station, sample_dt_s)
        params, result = optimize_pass(pass_geometry, hardware, security, n_decoys, config)
        rows.append({"max_elevation_deg": float(max_elev), "skl_bits": float(result.skl_bits),
                     **asdict(params)})
    return rows
