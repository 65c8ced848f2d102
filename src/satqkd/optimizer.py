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
one cut, and the search needs only each row's first maximum over its cells,
so the coarse grid prunes within rows, exactly. Per chunk, the per-sample
detection statistics of every block are summed over the samples in
descending elevation, which yields the tallies of every cut at once. The Z
half of the finite-key kernel runs on every cell and gives the upper bound B
of the key length (see `finitekey`) at the cut's phase-error floor: the
smallest one-photon X error rate of the samples the cut keeps, at most
0.5. A cell that fails the Z checks or has B <= 0 is exactly 0.0.
The X half runs on each row's cell of largest B, the probe, which gives an
exact value L, and then only on the candidates, the cells with B >= L: every
other cell lies below L, so each row's value and cut, and the trace, are
those of the full kernel bit for bit. The refinement calls the full kernel
with one row per candidate point (pruning its 15-row calls cost more than it
saved): on each call it evaluates the point a golden-section step needs
together with every point the next LOOKAHEAD steps could need, then replays
the sequential steps from those values, so it visits the same points in
about a quarter of the calls. The final evaluation is one more row.

The starts are the best rows, each its first maximum in grid order, of
the START_COUNT nu grid indices whose best rows rank highest by value, ties
going to the lower row; they are kept in grid order, so the grid's first
maximum is one of them. A single grid can hold optima in distinct basins
that differ mostly in nu, and starts from distinct nu indices reach more of
them than the best rows alone. The result is the first maximum over the
refined starts, in start order.

The calling process evaluates the whole coarse grid and formats its trace
rows. When it may run on more than one CPU, every start after the first is
refined in its own child made with os.fork, which sends its refined point
and value back over a pipe; the calling process refines the first start and
then joins the children in start order, so the chosen parameters and the
trace are the same on any number of CPUs. A whole pickled result is the only
sign of a child's success that is read, and every child of a pass is
killed, if still running, and reaped when the pass ends. The children run
only elementwise numpy code, never BLAS, whose thread pool a fork does not
carry over.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .channel import (
    DetectorSpec,
    SourceSpec,
    background_yield,
    basis_rows,
    expected_tallies,
    one_photon,
    presift_rows,
    sifted_rows,
)
from .finitekey import (
    SecurityParams,
    SklResult,
    _decoy_setup,
    _ec_leakage,
    _floored,
    _key_length,
    _x_half,
    _z_half,
    asymptotic_rate,
    skl_from_tallies,
    skl_real_arrays,
)
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
# Golden-section steps whose candidate points each refinement kernel call
# evaluates ahead: 2 + 2 + 4 + 8 rows on the first call of a search and
# 1 + 2 + 4 + 8 on each later one, against one row per step.
LOOKAHEAD = 3
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
    """Raised when a forked child that refines a start cannot start, fails
    or sends an incomplete result: an internal error, not invalid input."""


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
        elevations = pass_geometry.samples.elevation_deg
        if not len(elevations):
            raise OptimizerError("the pass has no samples")
        breakdowns = compute_breakdowns(
            pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
        )
        order = np.argsort(elevations, kind="stable")
        # Samples in descending elevation (the stable ascending order
        # reversed), so that a forward running sum gives every cut's tallies.
        self.eta_sorted = breakdowns.eta[order[::-1]] * hardware.detector.efficiency
        self.pulses_per_sample = hardware.source.pulse_rate_hz * pass_geometry.sample_dt_s
        # The whole degrees from the lowest sample, rounded down, to the
        # highest: a lower cut keeps the same samples as the first and a
        # higher one none. Ties go to the first, a cut the station can use.
        self.cuts = np.arange(math.floor(elevations.min()), math.floor(elevations.max()) + 1.0)
        # cut_kept[j] >= 1: number of samples with elevation >= cut j, the
        # leading run of the descending order
        self.cut_kept = len(elevations) - np.searchsorted(elevations[order], self.cuts, side="left")
        # phi_floor[j]: the smallest one-photon X error rate of the samples
        # cut j keeps, at most 0.5 (the domain of h; e1 can exceed it at
        # extreme Y0), below the kernel's phase-error bound phi at cut j
        # wherever it does not abort; see `finitekey`.
        y0 = background_yield(self.detector, self.template.pulse_rate_hz)
        e1 = one_photon(self.eta_sorted, y0, self.template.misalignment_x)[1]
        self.phi_floor = np.minimum.accumulate(np.append(0.5, e1))[self.cut_kept]

    def cut_sums(self, blocks: np.ndarray) -> np.ndarray:
        """Presift rows of (mu, nu, p_mu, p_nu) blocks summed over the
        samples each cut keeps: shape (9, blocks, n_cuts), the rows being
        clicks, Z errors and X errors, each over (mu, nu, vac).

        The presift rows of every block are summed over the samples in
        descending elevation, which gives the sums of every cut at once.
        """
        mu, nu, p_mu, p_nu = blocks.T
        clicks, err_z, err_x, f_dead = presift_rows(
            self.eta_sorted, mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys),
            self.template, self.detector,
        )
        per_sample = np.concatenate([clicks, err_z, err_x])
        per_sample *= self.pulses_per_sample * f_dead
        # Column k of the running sum is the sum over the k + 1 highest samples.
        return np.cumsum(per_sample, axis=-1)[..., self.cut_kept - 1]

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
        columns = self._columns(blocks, p_z.shape[-2])
        l_real, _ = skl_real_arrays(t, *columns, self.security, self.n_decoys)
        return l_real

    def _columns(self, blocks: np.ndarray, per_block: int) -> list:
        """Columns (mu, nu, p_mu, p_nu, p_vac) of the rows of blocks, each
        block repeated per_block times; shape (rows, 1) each."""
        mu, nu, p_mu, p_nu = (np.repeat(x, per_block)[:, None] for x in blocks.T)
        return [mu, nu, p_mu, p_nu, _p_vac(p_mu, p_nu, self.n_decoys)]

    def objective(self, blocks: np.ndarray, p_z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best unfloored key length over the cut grid and its cut index,
        per row of skl_chunk(blocks, p_z_values); ties resolve to the lower
        elevation (np.argmax takes the first maximum)."""
        l_real = self.skl_chunk(blocks, p_z_values)
        cut_idx = np.argmax(l_real, axis=1)
        return l_real[np.arange(len(l_real)), cut_idx], cut_idx

    def pruned_objective(self, blocks: np.ndarray, p_z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """objective(blocks, p_z_values) for a 1-D p_z grid, the same values
        and cut indices, with the X half of the kernel run only on the cells
        (row, cut) that can still be their row's first maximum; see the
        module docstring."""
        stage = self._z_stage(blocks, p_z_values)
        bound = stage.pop("bound")
        values = np.zeros(bound.shape)
        # Probe each row at its cut of largest bound; then only the cells
        # whose bound reaches the probe's value can be the first maximum.
        probe = np.argmax(bound, axis=1)
        rows = np.flatnonzero(bound[np.arange(len(bound)), probe] > 0.0)
        probe = rows * bound.shape[1] + probe[rows]
        values.ravel()[probe] = self._x_key(stage, probe, p_z_values)
        # A bound of at least the smallest positive double is positive.
        cand = bound >= np.maximum(values.max(axis=1, keepdims=True), 5e-324)
        del bound
        cand.ravel()[probe] = False
        cells = np.flatnonzero(cand)
        del cand
        values.ravel()[cells] = self._x_key(stage, cells, p_z_values)
        cut_idx = np.argmax(values, axis=1)
        return values[np.arange(len(values)), cut_idx], cut_idx

    def _z_stage(self, blocks: np.ndarray, p_z_values: np.ndarray) -> dict:
        """Z half of the kernel over blocks crossed with a 1-D p_z grid: the
        bound B of every cell ("bound", -inf where the Z checks fail) and the
        cells' "s_z0_low", "s_z1_low" and "lam_ec", each (rows, n_cuts); the
        cut_sums of blocks, "cut", and their _decoy_setup constants, "d"."""
        cut = self.cut_sums(blocks)
        p_z = p_z_values[:, None]
        t = {name: row.reshape(-1, len(self.cuts))
             for name, row in basis_rows(cut[0:3, :, None], cut[3:6, :, None], p_z, p_z, "z").items()}
        d = _decoy_setup(*self._columns(blocks, len(p_z_values)), self.security, self.n_decoys)
        z = _z_half(t, d)
        del t
        _, lam_ec = _ec_leakage(z["n_z"], z["m_z"], self.security)
        bound = _key_length(z["s_z0_low"], z["s_z1_low"], self.phi_floor, lam_ec,
                            self.security, self.n_decoys)["l_real"]
        bound += 1e-9 * np.abs(bound) + 1.0  # rounding slack
        np.copyto(bound, -np.inf, where=~z["z_ok"])
        return {"bound": bound, "s_z0_low": z["s_z0_low"], "s_z1_low": z["s_z1_low"],
                "lam_ec": lam_ec, "cut": cut, "d": d}

    def _x_key(self, stage: dict, cells: np.ndarray, p_z_values: np.ndarray) -> np.ndarray:
        """Unfloored key length of the flat cells: the X half of the kernel
        and the key-length formula on their entries of the _z_stage arrays."""
        n_cuts, per_block = len(self.cuts), len(p_z_values)
        rows = cells // n_cuts
        block = rows // per_block
        sums = cells - (rows - block) * n_cuts  # flat (block, cut) index
        cut = stage["cut"].reshape(9, -1)
        clicks, errors = cut[0:3].take(sums, axis=1), cut[6:9].take(sums, axis=1)
        p_z = p_z_values.take(rows - block * per_block)
        d = {name: value.ravel().take(rows) if np.ndim(value) else value
             for name, value in stage["d"].items()}
        s_z1 = stage["s_z1_low"].ravel().take(cells)
        # Every cell read here passed the Z checks.
        x = _x_half(basis_rows(clicks, errors, p_z, p_z, "x"), s_z1, True, d, self.security)
        l_real = _key_length(stage["s_z0_low"].ravel().take(cells), s_z1, x["phi_up"],
                             stage["lam_ec"].ravel().take(cells), self.security, self.n_decoys)["l_real"]
        return _floored(l_real, x["aborted"])[0]


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


def _refine(f, point: dict, value: float, n_decoys: int, config: OptimizerConfig) -> tuple[dict, float]:
    """Coordinate-wise golden-section ascent of f, which maps an array of
    parameter rows (mu, nu, p_mu, p_nu, p_z) to their values, starting from
    the parameter dict point with value f(point). Each of SEARCH_NAMES is
    searched in its box to a tolerance of rel_tolerance times its DIM_SPAN,
    and a move is kept only when it raises value. Returns (point, value),
    point being the start if no move is kept, else the row that gave value."""
    lo, hi = P_SUM_BOX[n_decoys]
    # A sum box of zero width holds the sum, which p_mu + p_nu can round away from.
    p_sum = point["p_mu"] + point["p_nu"] if hi > lo else lo
    at = dict(point, share=point["p_mu"] / p_sum, p_sum=p_sum)

    def rows(dim: str, xs) -> np.ndarray:
        search = np.tile([at[k] for k in SEARCH_NAMES], (len(xs), 1))
        search[:, SEARCH_NAMES.index(dim)] = xs
        return _params(search)

    for _ in range(config.refine_iterations):
        for dim in SEARCH_NAMES:
            lo, hi = _box(dim, at, n_decoys)
            if hi <= lo:
                continue
            x, fx = _golden_max(lambda xs: f(rows(dim, xs)), lo, hi,
                                config.rel_tolerance * DIM_SPAN[dim])
            if fx > value:
                point = dict(zip(PARAM_NAMES, rows(dim, [x])[0].tolist()))
                at[dim], value = x, fx
    return point, value


def _coarse_shard(
    channel: _PassChannel, blocks: np.ndarray, p_z_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best unfloored key length and its cut index for every row of blocks
    crossed with p_z_values, block-major and p_z-minor, evaluated in chunks
    of CHUNK_BLOCKS."""
    chunks = [channel.pruned_objective(blocks[start:start + CHUNK_BLOCKS], p_z_values)
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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork is missing."""
    forks = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if forks else 1


@contextmanager
def _children() -> Iterator[dict[int, BinaryIO]]:
    """Map of forked children, pid to result pipe. When the block exits,
    normally or not, every child is killed, if it is still running, and
    reaped: this is the one place that ends children."""
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
    child writes the pickle only once fn has returned, then leaves through
    os._exit at once, so a whole pickle means it succeeded."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise SearchWorkerError(f"cannot fork an optimizer worker: {exc}") from exc
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
    """Result of the forked child pid, read from its pipe to the end. An
    empty or truncated pickle means the child failed; the child itself is
    left for _children to reap, without waiting for it to exit."""
    with children[pid] as pipe:
        payload = pipe.read()
    try:
        return pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise SearchWorkerError(
            f"optimizer worker {pid} sent an incomplete result ({len(payload)} bytes)"
        ) from exc


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
    values, cut_idx = _coarse_shard(channel, blocks, p_z_values)
    rows = _starts(values, config.coarse_grid_steps)

    def refine(row: int) -> tuple[dict, float]:
        block, j = divmod(row, len(p_z_values))
        start = dict(zip(PARAM_NAMES, (*blocks[block].tolist(), float(p_z_values[j]))))
        return _refine(lambda xs: channel.objective(xs[:, :4], xs[:, 4:])[0],
                       start, float(values[row]), n_decoys, config)

    with _children() as children:
        pids = [_fork(children, refine, row) for row in rows[1:]] if _usable_cpus() > 1 else []
        if trace_path is not None:
            text = _trace_text(channel, blocks, p_z_values, values, cut_idx)
        # Starts without a child are refined here; the children's follow, in start order.
        refined = [*map(refine, rows[:len(rows) - len(pids)]),
                   *(_join(children, pid) for pid in pids)]
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
        # Children still exiting do so while the scalar path runs.
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
        _, best = _refine(lambda xs: rate(eta, *xs.T), start, float(rates[idx]), n_decoys, config)
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
