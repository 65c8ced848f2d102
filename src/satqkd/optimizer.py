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
statistics of every block are folded into suffix sums over the
elevation-sorted samples, which yields the tallies of every elevation cut at
once, and one finite-key kernel call covers every block, p_z value and cut
of the chunk. Refinement and the final evaluation use the same kernel on a
single row.

The chunk list is split into contiguous runs, one per CPU this process may
run on. The first run is evaluated in the calling process and each other
one in a child made with os.fork, which sends its best candidate and its
trace rows back over a pipe. Results are merged in grid order, so the
chosen parameters and the trace are the same on any number of CPUs. The
children run only elementwise numpy code, never BLAS, whose thread pool a
fork does not carry over.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
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
    """Raised when a coarse search worker cannot start, fails or sends an
    incomplete result: an internal error, not invalid input."""


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
        self.eta_sorted = breakdowns.eta[order] * hardware.detector.efficiency
        self.pulses_per_sample = hardware.source.pulse_rate_hz * pass_geometry.sample_dt_s
        # Every cut at or below the lowest sample keeps all the samples; the
        # grid starts at the last of them, so ties go to a cut the station
        # can use rather than to one below its horizon.
        below = np.count_nonzero(MIN_ELEVATION_GRID <= elevations.min()) if len(elevations) else 0
        self.cuts = MIN_ELEVATION_GRID[max(below - 1, 0):]
        # cut_start[j]: first sorted index with elevation >= cut j
        self.cut_start = np.searchsorted(elevations[order], self.cuts, side="left")

    def skl_chunk(self, blocks: np.ndarray, p_z_values: np.ndarray) -> np.ndarray:
        """Unfloored key length of (mu, nu, p_mu, p_nu) blocks crossed with
        p_z values; shape (len(blocks) * len(p_z_values), n_cuts), rows
        block-major.

        The presift rows of every block are suffix-summed over the
        elevation-sorted samples, which gives the tallies of every cut at
        once; the Z/X split is a sifting factor applied afterwards, so one
        presift serves the whole p_z grid.
        """
        mu, nu, p_mu, p_nu = blocks.T
        clicks, err_z, err_x, f_dead = presift_rows(
            self.eta_sorted, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys),
            self.template, self.detector,
        )
        per_sample = np.concatenate([clicks, err_z, err_x]) * (self.pulses_per_sample * f_dead)
        suffix = np.cumsum(per_sample[..., ::-1], axis=-1)[..., ::-1]
        suffix = np.concatenate([suffix, np.zeros(suffix.shape[:-1] + (1,))], axis=-1)
        cut = suffix[..., self.cut_start][:, :, None, :]  # (9, blocks, 1, cuts)
        p_z = np.asarray(p_z_values, dtype=float)[:, None]
        n_rows = len(blocks) * len(p_z)
        t = {
            name: row.reshape(n_rows, -1)
            for name, row in sifted_rows(cut[0:3], cut[3:6], cut[6:9], p_z, p_z).items()
        }
        mu, nu, p_mu, p_nu = (np.repeat(x, len(p_z))[:, None] for x in blocks.T)
        l_real, _ = skl_real_arrays(
            t, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys), self.security, self.n_decoys
        )
        return l_real

    def objective(self, mu: float, nu: float, p_mu: float, p_nu: float, p_z: float) -> tuple[float, int]:
        """Best unfloored key length over the cut grid and its cut index;
        ties resolve to the lower elevation (np.argmax takes the first
        maximum)."""
        l_real = self.skl_chunk(np.array([[mu, nu, p_mu, p_nu]]), np.array([p_z]))[0]
        idx = int(np.argmax(l_real))
        return float(l_real[idx]), idx


def _p_vac(p_mu, p_nu, n_decoys: int):
    """Vacuum-intensity probability; zero, shaped like p_mu, for one decoy."""
    return 1.0 - p_mu - p_nu if n_decoys == 2 else 0.0 * p_mu


def _golden_max(f, lo: float, hi: float, abs_tol: float, max_iter: int = 80) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]; returns (x, f(x))."""
    if hi <= lo:
        return lo, f(lo)
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(max_iter):
        if b - a <= abs_tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def _coarse_blocks(config: OptimizerConfig, n_decoys: int) -> np.ndarray:
    """Deterministic (mu, nu, p_mu, p_nu) blocks as an (n_blocks, 4) array;
    p_z is gridded per block."""
    g = config.coarse_grid_steps
    blocks = []
    for mu in np.linspace(*MU_BOX, g):
        for nu in np.linspace(NU_MIN, mu - NU_MARGIN, g):
            for p_mu in np.linspace(*P_MU_BOX, g):
                if n_decoys == 2:
                    nu_hi = min(P_NU_BOX[1], MAX_P_SUM - p_mu)
                    if nu_hi <= P_NU_BOX[0]:
                        continue
                    p_nu_values = np.linspace(P_NU_BOX[0], nu_hi, g)
                else:
                    p_nu_values = [1.0 - p_mu]
                blocks.extend((mu, nu, p_mu, p_nu) for p_nu in p_nu_values)
    return np.array(blocks, dtype=float).reshape(-1, 4)


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


def _moved(point: dict, dim: str, x: float, n_decoys: int) -> dict:
    """point with coordinate dim set to x; one decoy ties p_nu to 1 - p_mu."""
    out = dict(point, **{dim: x})
    if n_decoys == 1:
        out["p_nu"] = 1.0 - out["p_mu"]
    return out


def _refine(f, point: dict, value: float, n_decoys: int, config: OptimizerConfig) -> tuple[dict, float]:
    """Coordinate-wise golden-section ascent of f over parameter dicts,
    starting from point with f(point) = value. Each coordinate is searched
    in its box to a tolerance of rel_tolerance times the box span, and a
    move is kept only when it raises value. Returns (point, value)."""
    for _ in range(config.refine_iterations):
        for dim in REFINED_DIMS[n_decoys]:
            lo, hi = _box(dim, point, n_decoys)
            if hi <= lo:
                continue
            x, fx = _golden_max(
                lambda x: f(_moved(point, dim, x, n_decoys)),
                lo, hi, abs_tol=config.rel_tolerance * DIM_SPAN[dim],
            )
            if fx > value:
                point, value = _moved(point, dim, x, n_decoys), fx
    return point, value


def _coarse_shard(
    channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray, traced: bool
) -> tuple[float, tuple[float, ...], list[str]]:
    """First maximum of the coarse grid over blocks crossed with p_z_values,
    evaluated in chunks of CHUNK_BLOCKS. Returns (value, (mu, nu, p_mu, p_nu,
    p_z), trace rows); the rows are formatted only when traced."""
    p_z_cells = [repr(p_z) for p_z in p_z_values.tolist()]
    best = (-math.inf, (0.5, 0.1, 0.7, 0.15, 0.9))
    rows: list[str] = []
    for start in range(0, len(blocks), CHUNK_BLOCKS):
        chunk = blocks[start:start + CHUNK_BLOCKS]
        matrix = channel.skl_chunk(chunk, p_z_values)
        cut_idx = np.argmax(matrix, axis=1)
        row_best = matrix[np.arange(len(matrix)), cut_idx]
        # Rows are block-major, p_z-minor. The first maximum of the whole
        # grid wins: argmax takes the first within a chunk, and a later
        # chunk wins only when strictly greater.
        row = int(np.argmax(row_best))
        if row_best[row] > best[0]:
            block, j = divmod(row, len(p_z_values))
            best = (float(row_best[row]), (*chunk[block].tolist(), float(p_z_values[j])))
        if traced:
            # Cells are Python-float reprs, each block's formatted once.
            heads = [
                head + p_z
                for head in ("coarse,%r,%r,%r,%r," % tuple(b) for b in chunk.tolist())
                for p_z in p_z_cells
            ]
            rows.extend(
                "%s,%r,%r" % cells
                for cells in zip(heads, channel.cuts[cut_idx].tolist(), row_best.tolist())
            )
    return (*best, rows)


def _fork_shard(
    channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray, traced: bool
) -> tuple[int, BinaryIO]:
    """Run _coarse_shard in a forked child; returns its pid and the read end
    of the pipe that carries its pickled result. The child leaves only
    through os._exit, with status 0 once the whole result is written."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise CoarseSearchError(f"cannot fork a coarse search worker: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(
                _coarse_shard(channel, blocks, p_z_values, traced), pickle.HIGHEST_PROTOCOL
            )
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _coarse_search(
    channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray, traced: bool
) -> tuple[float, tuple[float, ...], list[str]]:
    """_coarse_shard over the whole grid, split into contiguous runs of
    chunks, one per available CPU. The first run is evaluated here, each
    other one in a forked child; results are merged in grid order, a later
    run winning only when strictly greater, so the outcome and the trace
    rows do not depend on the number of CPUs. No child outlives the call."""
    n_chunks = -(-len(blocks) // CHUNK_BLOCKS)
    n_shards = 1
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        n_shards = min(len(os.sched_getaffinity(0)), n_chunks)
    edges = [CHUNK_BLOCKS * (n_chunks * i // n_shards) for i in range(n_shards + 1)]
    shards = [blocks[lo:hi] for lo, hi in zip(edges, edges[1:])]
    workers: list[tuple[int, BinaryIO]] = []
    reaped: set[int] = set()
    try:
        for shard in shards[1:]:
            workers.append(_fork_shard(channel, shard, p_z_values, traced))
        results = [_coarse_shard(channel, shards[0], p_z_values, traced)]
        for pid, pipe in workers:
            # Drain the pipe before waiting: a child blocks on a full pipe.
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise CoarseSearchError(f"coarse search worker {pid} failed (exit status {code})")
            try:
                results.append(pickle.loads(payload))
            except (EOFError, pickle.UnpicklingError) as exc:
                raise CoarseSearchError(
                    f"coarse search worker {pid} sent an incomplete result ({len(payload)} bytes)"
                ) from exc
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    value, cand, rows = results[0]
    for shard_value, shard_cand, shard_rows in results[1:]:
        if shard_value > value:
            value, cand = shard_value, shard_cand
        rows += shard_rows
    return value, cand, rows


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
    value, cand, trace_rows = _coarse_search(
        channel, _coarse_blocks(config, n_decoys),
        np.linspace(*P_Z_BOX, config.coarse_grid_steps), traced=trace_path is not None,
    )
    point, _ = _refine(
        lambda c: channel.objective(**c)[0], dict(zip(PARAM_NAMES, cand)), value, n_decoys, config
    )
    values = tuple(point[k] for k in PARAM_NAMES)
    value, cut_idx = channel.objective(*values)
    params = ParamVector(
        *(float(v) for v in values), min_elevation_deg=float(channel.cuts[cut_idx])
    )
    if trace_path is not None:
        trace_rows.append("final,%r,%r,%r,%r,%r,%r,%r" % (*astuple(params), value))
        header = "stage,mu,nu,p_mu,p_nu,p_z,min_elevation_deg,skl_real\n"
        Path(trace_path).write_text(header + "\n".join(trace_rows) + "\n")
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
            lambda c: float(rate(eta, **c)), start, float(rates[idx]), n_decoys, config
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
