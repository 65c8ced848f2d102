"""Whole-pass protocol parameter optimization.

The security analysis requires one parameter set (intensities, their
probabilities, basis bias) for the whole accumulation block, and the
post-processing minimum elevation is itself a parameter. The search is a
deterministic coarse grid over the continuous parameters crossed with an
exhaustive 1-degree scan of the minimum elevation, followed by
coordinate-wise golden-section refinement. The elevation grid starts at the
last cut at or below the pass's lowest sample, since every lower cut keeps
the same samples.

For speed, the coarse (mu, nu, p_mu, p_nu) blocks form one array that is
evaluated in chunks of CHUNK_BLOCKS: per chunk, the per-sample detection
statistics of every block are summed over the samples in descending
elevation, which yields the tallies of every elevation cut at once, and one
finite-key kernel call covers every block, p_z value and cut of the chunk.
The refinement calls the same kernel with one row per candidate point: on
each call it evaluates the point a golden-section step needs together with
every point the next LOOKAHEAD steps could need, then replays the
sequential steps from those values, so it visits the same points in about a
quarter of the calls. The final evaluation is one more row.

The chunk list is split into contiguous runs, one per CPU this process may
run on. The first run is evaluated in the calling process and each other
one in a child made with os.fork, which sends each grid row's best value
and cut index back over a pipe as two arrays. Results are joined in grid
order, so the chosen parameters and the trace are the same on any number
of CPUs. When a trace is asked for and more than one CPU is usable, one
more child, forked the same way, formats the trace's coarse rows while the
calling process refines; the calling process then appends the final row
and writes the file. On one CPU the same formatting runs inline. The
children run only elementwise numpy code and string formatting, never
BLAS, whose thread pool a fork does not carry over.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .channel import DetectorSpec, SourceSpec, expected_tallies, presift_rows, sifted_rows
from .finitekey import (
    SecurityParams,
    SklResult,
    asymptotic_rate,
    skl_from_tallies,
    skl_real_arrays,
)
from .linkbudget import AtmosphereModel, ReceiverSpec, TransmitterSpec, compute_breakdowns
from .orbit import GroundStation, OrbitSpec, PassGeometry, synth_pass

MIN_ELEVATION_GRID = np.arange(20.0, 81.0, 1.0)
MU_BOX = (0.1, 1.0)
NU_MARGIN = 0.01
NU_MIN = 0.01
P_MU_BOX = (0.2, 0.95)
P_NU_BOX = (0.01, 0.79)
P_Z_BOX = (0.3, 0.97)
MAX_P_SUM = 0.99  # two-decoy: keep at least 1% vacuum pulses
# Golden-section steps whose candidate points each refinement kernel call
# evaluates ahead: 2 + 2 + 4 + 8 rows on the first call of a search and
# 1 + 2 + 4 + 8 on each later one, against one row per step.
LOOKAHEAD = 3
# Coarse blocks per finite-key kernel call: large enough to amortise the
# per-call overhead, small enough that a chunk's temporaries stay in cache.
CHUNK_BLOCKS = 24
PARAM_NAMES = ("mu", "nu", "p_mu", "p_nu", "p_z")
# Coordinates refined per protocol, and the span that scales each one's
# golden-section tolerance.
REFINED_DIMS = {1: ("mu", "nu", "p_mu", "p_z"), 2: ("mu", "nu", "p_mu", "p_nu", "p_z")}
DIM_SPAN = {
    "mu": MU_BOX[1] - MU_BOX[0],
    "nu": MU_BOX[1] - NU_MIN,
    "p_mu": P_MU_BOX[1] - P_MU_BOX[0],
    "p_nu": P_NU_BOX[1] - P_NU_BOX[0],
    "p_z": P_Z_BOX[1] - P_Z_BOX[0],
}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OptimizerError(ValueError):
    """Raised for invalid optimizer configurations or parameter vectors."""


class CoarseSearchError(RuntimeError):
    """Raised when a forked optimizer worker, a coarse search shard or the
    trace writer, cannot start, fails or sends an incomplete result: an
    internal error, not invalid input."""


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
        if not 20.0 <= self.min_elevation_deg <= 80.0:
            raise OptimizerError(
                f"min_elevation_deg must be within [20, 80], got {self.min_elevation_deg}"
            )


@dataclass(frozen=True)
class OptimizerConfig:
    """Deterministic search configuration."""

    coarse_grid_steps: int = 8
    refine_iterations: int = 2
    rel_tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if self.coarse_grid_steps < 2:
            raise OptimizerError(f"coarse_grid_steps must be >= 2, got {self.coarse_grid_steps}")
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
    """Per-pass precomputation: elevation-sorted transmissions, the cut
    grid and the suffix-sum bookkeeping shared by all candidate evaluations."""

    def __init__(
        self,
        pass_geometry: PassGeometry,
        hardware: HardwareStack,
        security: SecurityParams,
        n_decoys: int,
    ):
        self.security = security
        self.n_decoys = n_decoys
        self.detector = hardware.detector
        self.template = hardware.source
        breakdowns = compute_breakdowns(
            pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
        )
        elevations = pass_geometry.samples.elevation_deg
        order = np.argsort(elevations, kind="stable")
        # Samples in descending elevation (the stable ascending order
        # reversed), so that a forward running sum gives every cut's tallies.
        self.eta_sorted = breakdowns.eta[order[::-1]] * hardware.detector.efficiency
        self.pulses_per_sample = hardware.source.pulse_rate_hz * pass_geometry.sample_dt_s
        # Every cut at or below the lowest sample keeps all the samples; the
        # grid starts at the last of them, so ties go to a cut the station
        # can use rather than to one below its horizon.
        below = np.count_nonzero(MIN_ELEVATION_GRID <= elevations.min()) if len(elevations) else 0
        self.cuts = MIN_ELEVATION_GRID[max(below - 1, 0):]
        # cut_kept[j]: number of samples with elevation >= cut j, the
        # leading run of the descending order
        self.cut_kept = len(elevations) - np.searchsorted(elevations[order], self.cuts, side="left")

    def skl_chunk(self, blocks: np.ndarray, p_z_values: np.ndarray) -> np.ndarray:
        """Unfloored key length of (mu, nu, p_mu, p_nu) blocks and p_z
        values over the cut grid. p_z_values is either a 1-D grid crossed
        with every block, giving rows block-major, or a column with one p_z
        per block, giving one row per block; shape (rows, n_cuts).

        The presift rows of every block are summed over the samples in
        descending elevation, which gives the tallies of every cut at once;
        the Z/X split is a sifting factor applied afterwards, so one presift
        serves the whole p_z grid.
        """
        mu, nu, p_mu, p_nu = blocks.T
        clicks, err_z, err_x, f_dead = presift_rows(
            self.eta_sorted, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys),
            self.template, self.detector,
        )
        per_sample = np.concatenate([clicks, err_z, err_x])
        per_sample *= self.pulses_per_sample * f_dead
        # running[..., k]: the sum over the k highest samples
        running = np.empty(per_sample.shape[:-1] + (per_sample.shape[-1] + 1,))
        running[..., 0] = 0.0
        np.cumsum(per_sample, axis=-1, out=running[..., 1:])
        cut = running[..., self.cut_kept][:, :, None, :]  # (9, blocks, 1, cuts)
        p_z = np.asarray(p_z_values, dtype=float)[..., None]
        per_block = p_z.shape[-2]
        t = {
            name: row.reshape(len(blocks) * per_block, -1)
            for name, row in sifted_rows(cut[0:3], cut[3:6], cut[6:9], p_z, p_z).items()
        }
        mu, nu, p_mu, p_nu = (np.repeat(x, per_block)[:, None] for x in blocks.T)
        l_real, _ = skl_real_arrays(
            t, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys), self.security, self.n_decoys
        )
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


def _golden_max(f, lo: float, hi: float, abs_tol: float, max_iter: int = 80) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] of f, which maps a 1-D array
    of abscissae to their values; returns (x, f(x)).

    The steps are the sequential ones, reading values from a cache. On a
    miss, one call of f evaluates the points needed and every point the
    next LOOKAHEAD steps could need: which way a step goes depends on the
    values, but its two candidates depend only on the interval and its
    interior points. So the search visits the points, and returns the
    result, of one evaluation per step, in about 1/(LOOKAHEAD + 1) of the
    calls.
    """
    if hi <= lo:
        return lo, float(f(np.array([lo]))[0])
    cache: dict[float, float] = {}

    def ahead(state: tuple, done: int, depth: int) -> list[float]:
        """Points the next depth steps from state could evaluate, up to
        where the search stops."""
        if depth == 0 or done == max_iter or state[1] - state[0] <= abs_tol:
            return []
        left, right = _golden_steps(*state)
        return [left[2], right[3], *ahead(left, done + 1, depth - 1),
                *ahead(right, done + 1, depth - 1)]

    def values(points: tuple, state: tuple, done: int) -> list[float]:
        """f at points, the new interior points of state after done steps."""
        if any(x not in cache for x in points):
            xs = [x for x in dict.fromkeys((*points, *ahead(state, done, LOOKAHEAD)))
                  if x not in cache]
            cache.update(zip(xs, f(np.array(xs)).tolist()))
        return [cache[x] for x in points]

    state = (lo, hi, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
    f1, f2 = values(state[2:], state, 0)
    best_x, best_f = (state[2], f1) if f1 >= f2 else (state[3], f2)
    for done in range(max_iter):
        if state[1] - state[0] <= abs_tol:
            break
        left, right = _golden_steps(*state)
        if f1 >= f2:
            state, f2 = left, f1
            (f1,) = values(state[2:3], state, done + 1)
        else:
            state, f1 = right, f2
            (f2,) = values(state[3:], state, done + 1)
        if f1 > best_f:
            best_x, best_f = state[2], f1
        if f2 > best_f:
            best_x, best_f = state[3], f2
    return best_x, best_f


def _coarse_blocks(config: OptimizerConfig, n_decoys: int) -> np.ndarray:
    """Deterministic (mu, nu, p_mu, p_nu) blocks as an (n_blocks, 4) array,
    mu outermost and p_nu innermost; p_z is gridded per block. Two decoys
    grid p_nu up to the smaller of its box edge and MAX_P_SUM - p_mu,
    skipping p_mu values that leave no room; one decoy ties p_nu to
    1 - p_mu."""
    g = config.coarse_grid_steps
    mu = np.linspace(*MU_BOX, g)
    nu = np.linspace(NU_MIN, mu - NU_MARGIN, g, axis=-1)
    p_mu = np.linspace(*P_MU_BOX, g)
    if n_decoys == 2:
        nu_hi = np.minimum(P_NU_BOX[1], MAX_P_SUM - p_mu)
        room = nu_hi > P_NU_BOX[0]
        p_mu = p_mu[room]
        p_nu = np.linspace(P_NU_BOX[0], nu_hi[room], g, axis=-1)
    else:
        p_nu = (1.0 - p_mu)[:, None]
    grids = np.broadcast_arrays(
        mu[:, None, None, None], nu[:, :, None, None], p_mu[:, None], p_nu
    )
    return np.stack(grids, axis=-1).reshape(-1, 4)


def _box(dim: str, point: dict, n_decoys: int) -> tuple[float, float]:
    """Search interval of one coordinate with the others held at point."""
    if dim == "mu":
        return max(MU_BOX[0], point["nu"] + NU_MARGIN), MU_BOX[1]
    if dim == "nu":
        return NU_MIN, point["mu"] - NU_MARGIN
    if dim == "p_mu":
        cap = MAX_P_SUM - point["p_nu"] if n_decoys == 2 else P_MU_BOX[1]
        return P_MU_BOX[0], min(P_MU_BOX[1], cap)
    if dim == "p_nu":
        return P_NU_BOX[0], min(P_NU_BOX[1], MAX_P_SUM - point["p_mu"])
    return P_Z_BOX


def _moved(point: dict, dim: str, xs, n_decoys: int) -> np.ndarray:
    """Rows (mu, nu, p_mu, p_nu, p_z) of point with coordinate dim set to
    each of xs; one decoy ties p_nu to 1 - p_mu."""
    rows = np.tile([point[k] for k in PARAM_NAMES], (len(xs), 1))
    rows[:, PARAM_NAMES.index(dim)] = xs
    if n_decoys == 1:
        rows[:, 3] = 1.0 - rows[:, 2]
    return rows


def _refine(f, point: dict, value: float, n_decoys: int, config: OptimizerConfig) -> tuple[dict, float]:
    """Coordinate-wise golden-section ascent of f, which maps an array of
    parameter rows (mu, nu, p_mu, p_nu, p_z) to their values, starting from
    the parameter dict point with value f(point). Each coordinate is
    searched in its box to a tolerance of rel_tolerance times the box span,
    and a move is kept only when it raises value. Returns (point, value)."""
    for _ in range(config.refine_iterations):
        for dim in REFINED_DIMS[n_decoys]:
            lo, hi = _box(dim, point, n_decoys)
            if hi <= lo:
                continue
            x, fx = _golden_max(
                lambda xs: f(_moved(point, dim, xs, n_decoys)),
                lo, hi, abs_tol=config.rel_tolerance * DIM_SPAN[dim],
            )
            if fx > value:
                point = dict(zip(PARAM_NAMES, _moved(point, dim, [x], n_decoys)[0].tolist()))
                value = fx
    return point, value


def _coarse_shard(
    channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best unfloored key length and its cut index for every row of blocks
    crossed with p_z_values, block-major and p_z-minor, evaluated in chunks
    of CHUNK_BLOCKS."""
    chunks = [channel.objective(blocks[start:start + CHUNK_BLOCKS], p_z_values)
              for start in range(0, len(blocks), CHUNK_BLOCKS)]
    return tuple(np.concatenate(arrays) for arrays in zip(*chunks))


def _trace_text(channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray,
                values: np.ndarray, cut_idx: np.ndarray) -> str:
    """Header and coarse rows of the optimizer trace: one row per grid point
    in grid order, with its best cut and value. Cells are Python-float
    reprs; each distinct grid coordinate, p_z value and cut is formatted
    once. Rows are joined a chunk of CHUNK_BLOCKS blocks at a time, so each
    chunk's temporaries reuse the memory of the one before."""
    cells = {x: repr(x) for x in set(blocks.ravel().tolist())}
    p_z_cells = [repr(p_z) for p_z in p_z_values.tolist()]
    cut_cells = [repr(cut) for cut in channel.cuts.tolist()]
    parts = ["stage,mu,nu,p_mu,p_nu,p_z,min_elevation_deg,skl_real"]
    for start in range(0, len(blocks), CHUNK_BLOCKS):
        chunk = blocks[start:start + CHUNK_BLOCKS].tolist()
        heads = [head + p_z for head in ("coarse,%s,%s,%s,%s," % tuple(map(cells.get, b))
                                         for b in chunk) for p_z in p_z_cells]
        rows = slice(start * len(p_z_cells), (start + len(chunk)) * len(p_z_cells))
        parts.append("\n".join(map(",".join, zip(
            heads, map(cut_cells.__getitem__, cut_idx[rows].tolist()), map(repr, values[rows].tolist())
        ))))
    return "\n".join(parts + [""])  # one copy, ending in a newline


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork is missing."""
    forks = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if forks else 1


@contextmanager
def _children() -> Iterator[dict[int, BinaryIO]]:
    """Map of forked children not yet joined, pid to result pipe; each one
    left when the block exits, normally or not, is killed and reaped."""
    children: dict[int, BinaryIO] = {}
    try:
        yield children
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(children: dict[int, BinaryIO], fn, *args) -> int:
    """Run fn(*args) in a forked child, entered in children with the read
    end of the pipe that carries its pickled result; returns its pid. The
    child leaves only through os._exit, with status 0 once the whole result
    is written."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise CoarseSearchError(f"cannot fork an optimizer worker: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(fn(*args), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    children[pid] = open(read_fd, "rb")
    return pid


def _join(children: dict[int, BinaryIO], pid: int):
    """Result of the forked child pid, which is reaped and leaves children."""
    with children[pid] as pipe:
        # Drain the pipe before waiting: a child blocks on a full pipe.
        payload = pipe.read()
    # Unpickle while the child exits; a bad payload is reported after the
    # exit status, which explains it when the child failed.
    try:
        result, error = pickle.loads(payload), None
    except (EOFError, pickle.UnpicklingError) as exc:
        result, error = None, exc
    _, status = os.waitpid(pid, 0)
    del children[pid]
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise CoarseSearchError(f"optimizer worker {pid} failed (exit status {code})")
    if error is not None:
        raise CoarseSearchError(
            f"optimizer worker {pid} sent an incomplete result ({len(payload)} bytes)"
        ) from error
    return result


def _coarse_search(
    channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_coarse_shard over the whole grid, split into contiguous runs of
    chunks, one per usable CPU. The first run is evaluated here, each other
    one in a forked child; the results are joined in grid order, so they do
    not depend on the number of CPUs. No child outlives the call."""
    n_chunks = -(-len(blocks) // CHUNK_BLOCKS)
    n_shards = min(_usable_cpus(), n_chunks)
    edges = [CHUNK_BLOCKS * (n_chunks * i // n_shards) for i in range(n_shards + 1)]
    shards = [blocks[lo:hi] for lo, hi in zip(edges, edges[1:])]
    with _children() as children:
        pids = [_fork(children, _coarse_shard, channel, shard, p_z_values) for shard in shards[1:]]
        results = [_coarse_shard(channel, shards[0], p_z_values)]
        results += [_join(children, pid) for pid in pids]
    return tuple(np.concatenate(arrays) for arrays in zip(*results))


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
    blocks = _coarse_blocks(config, n_decoys)
    p_z_values = np.linspace(*P_Z_BOX, config.coarse_grid_steps)
    values, cut_idx = _coarse_search(channel, blocks, p_z_values)
    # The first maximum in grid order wins.
    row = int(np.argmax(values))
    block, j = divmod(row, len(p_z_values))
    start = dict(zip(PARAM_NAMES, (*blocks[block].tolist(), float(p_z_values[j]))))
    coarse = (channel, blocks, p_z_values, values, cut_idx)
    with _children() as children:
        # With a CPU to spare, a child formats the coarse trace while the
        # refinement runs here.
        forked = trace_path is not None and _usable_cpus() > 1
        writer = _fork(children, _trace_text, *coarse) if forked else None
        point, _ = _refine(
            lambda rows: channel.objective(rows[:, :4], rows[:, 4:])[0],
            start, float(values[row]), n_decoys, config,
        )
        final = [point[k] for k in PARAM_NAMES]
        best, best_cut = channel.objective(np.array([final[:4]]), np.array([final[4:]]))
        value = float(best[0])
        params = ParamVector(*final, min_elevation_deg=float(channel.cuts[best_cut[0]]))
        if trace_path is not None:
            text = _join(children, writer) if forked else _trace_text(*coarse)
            # CPython appends in place once this line has run a few times.
            text += "final,%r,%r,%r,%r,%r,%r,%r\n" % (*astuple(params), value)
            Path(trace_path).write_text(text)
    result = evaluate_params(pass_geometry, hardware, security, n_decoys, params)
    return params, result


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
    return skl_from_tallies(tallies, source, security, n_decoys)


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
    mu_c, nu_c, p_mu_c, p_nu_c = np.repeat(blocks, len(p_z_values), axis=0).T
    p_z_c = np.tile(p_z_values, len(blocks))

    def rate(eta, mu, nu, p_mu, p_nu, p_z):
        return asymptotic_rate(
            eta, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, n_decoys), p_z * p_z,
            hardware.source, hardware.detector, security,
        )

    profile = []
    for t_s, eta in zip(pass_geometry.samples.t_s.tolist(), breakdowns.eta.tolist()):
        rates = rate(eta, mu_c, nu_c, p_mu_c, p_nu_c, p_z_c)
        idx = int(np.argmax(rates))
        start = {k: float(v[idx]) for k, v in zip(PARAM_NAMES, (mu_c, nu_c, p_mu_c, p_nu_c, p_z_c))}
        _, best = _refine(
            lambda rows: rate(eta, *rows.T), start, float(rates[idx]), n_decoys, config
        )
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
        rows.append(
            {
                "max_elevation_deg": float(max_elev),
                "skl_bits": float(result.skl_bits),
                "mu": params.mu,
                "nu": params.nu,
                "p_mu": params.p_mu,
                "p_nu": params.p_nu,
                "p_z": params.p_z,
                "min_elevation_deg": params.min_elevation_deg,
            }
        )
    return rows
