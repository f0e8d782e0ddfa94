"""Experiment harness: regime classification, parameter sweeps against an
entropy-solution reference, record persistence, and sweep summaries.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .grids import (
    Field,
    GridSpec,
    Trajectory,
    lp_norm,
    read_manifest,
    read_snapshot_binary,
    write_snapshot_binary,
    write_manifest,
)
from .model import (
    EntropyPair,
    FluxSpec,
    diffusion_preset,
    flux_preset,
    make_entropy_pair,
)
from .reference import lax_oleinik_reference, reference_solve
from .solver import InitialData, SolveParams, initial_preset, solve, \
    solve_many

__all__ = [
    "SweepConfig",
    "RunRecord",
    "classify_regime",
    "run_sweep",
    "compare_to_reference",
    "quadratic_entropy_pair",
]


def quadratic_entropy_pair(flux: FluxSpec) -> EntropyPair:
    """eta = u^2/2 with its derivatives and q(u) = int_0^u v f'(v) dv."""
    return make_entropy_pair(
        eta=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
        eta_prime=lambda u: np.asarray(u, dtype=float),
        eta_second=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        flux=flux,
        eta_third=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )


# ---------------------------------------------------------------------------
# regime classification


def classify_regime(r: float, m: float, gamma: float, has_h3: bool = True) -> str:
    """Strongest convergence regime a configuration satisfies.

    Strict exponent inequality gamma > threshold stands in for the
    asymptotic smallness condition on delta relative to eps.
    """
    if not np.all(np.isfinite((r, m, gamma))):
        raise ValueError(f"r, m and gamma must be finite, got {r}, {m}, {gamma}")
    if r < 0:
        raise ValueError("r must be >= 0")
    if m < 0:
        raise ValueError("growth exponent m must be >= 0")
    # quadratic-or-stronger diffusion: any m is admissible (the working
    # integrability exponent can be raised arbitrarily when r > 1)
    if r >= 2 and gamma > 3.0 / (r + 1.0):
        return "thm31"
    if r == 1 and m <= 1 and has_h3 and gamma > 2.0:
        return "thm32"
    if r >= 1 and m <= 2.0 * r / (r + 1.0) and has_h3 and \
            gamma > (r + 3.0) / (r + 1.0):
        return "thm33"
    return "unsupported"


# ---------------------------------------------------------------------------
# comparison to reference


def _restrict_to(values: np.ndarray, n_coarse: int) -> np.ndarray:
    """Averages over blocks of k cells per axis, k = n_fine / n_coarse."""
    n_fine = values.shape[0]
    if n_fine % n_coarse != 0:
        raise ValueError(f"grids are incommensurate: {n_fine} vs {n_coarse}")
    blocks = values.reshape((n_coarse, n_fine // n_coarse) * values.ndim)
    return blocks.mean(axis=tuple(range(1, 2 * values.ndim, 2)))


def compare_to_reference(f: Field, ref: Field, p_list=(1, 2, np.inf)) -> dict:
    """L^p distances between two fields, after cell-averaging the finer
    one down to the coarser grid."""
    if abs(f.grid.length - ref.grid.length) > 1e-12 * ref.grid.length or \
            f.grid.dim != ref.grid.dim:
        raise ValueError("domains do not match")
    n = min(f.grid.n, ref.grid.n)
    a = _restrict_to(f.values, n)
    b = _restrict_to(ref.values, n)
    grid = GridSpec(n=n, length=ref.grid.length, dim=ref.grid.dim)
    d = Field(grid, a - b)
    out = {}
    for p in p_list:
        key = "Linf" if p == np.inf else f"L{p:g}"
        out[key] = lp_norm(d, p)
    return out


# ---------------------------------------------------------------------------
# sweep configuration and execution


@dataclass(frozen=True)
class SweepConfig:
    """A (eps, delta=c*eps^gamma, grid) experiment matrix.

    epsilons and grid_ns are paired entry by entry (same length); eps=0
    entries run the pure dispersive regime with delta read from delta_ladder.
    Construction raises ValueError or LookupError for a config no run can
    use, so every instance can be swept.
    """

    # problem
    flux: str = "burgers"
    diffusion: str = "linear"
    initial: str = "smoothed_riemann"
    initial_args: tuple[tuple[str, float], ...] = ()  # hashable (key, value) pairs
    length: float = 2.0
    dim: int = 1
    t_end: float = 0.5
    # ladder
    epsilons: tuple[float, ...] = (0.04, 0.02, 0.01, 0.005)
    grid_ns: tuple[int, ...] = (512, 1024, 2048, 4096)
    gamma: float = 2.5
    coeff: float = 1.0
    delta_ladder: tuple[float, ...] = ()  # used only when the eps entry is 0
    # numerics
    ref_n: int = 8192
    cfl_safety: float = 0.4
    sample_count: int = 65
    workers: int = 1
    # diagnostics
    diagnostics: tuple[str, ...] = ("production", "kruzkov", "young")
    # bump support [0.55, 1.45] x [0.05, 0.45]: the default shock path
    # 1.1 + t/2 stays right of center, so the grad-theta pairings keep one sign
    theta_center: float = 1.0
    theta_t_center: float = 0.25
    theta_radius: float = 0.45
    theta_t_radius: float = 0.2
    kruzkov_k: float = 0.5
    # the Kruzkov pairing watches the region just ahead of the entropy
    # shock, where dispersive fronts overrun it; support [1.2, 1.6]
    kru_center: float = 1.4
    kru_t_center: float = 0.25
    kru_radius: float = 0.2
    kru_t_radius: float = 0.2
    window_center: float = 1.3
    window_halfwidth: float = 0.06
    window_t: tuple[float, float] = (0.4, 0.5)
    # output
    out_dir: str = "sweep_out"

    def __post_init__(self):
        # a nan or inf would surface only inside the runs, as a blow-up
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if f.name == "initial_args":
                items = [v for _, v in value]
            if any(isinstance(v, float) and not np.isfinite(v) for v in items):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if len(self.epsilons) != len(self.grid_ns):
            raise ValueError("epsilons and grid_ns ladders must pair up")
        if not self.epsilons:
            raise ValueError("the ladder is empty: epsilons and grids hold no entry")
        for idx, eps in enumerate(self.epsilons):
            if not eps > 0 and idx >= len(self.delta_ladder):
                raise ValueError(f"deltas: epsilons[{idx}] = 0 needs deltas[{idx}], "
                                 f"but deltas has length {len(self.delta_ladder)}")
        if self.gamma <= 0 or self.coeff <= 0:
            raise ValueError("gamma and coeff must be positive")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # the default enables every diagnostic there is
        unknown = set(self.diagnostics) - set(SweepConfig.diagnostics)
        if unknown:
            raise ValueError(f"unknown diagnostics {sorted(unknown)}; have "
                             f"{', '.join(SweepConfig.diagnostics)}")
        # a bump does not wrap around the periodic seam: one cut there
        # breaks every pairing that integrates by parts in space
        for name, c, r, t_r in (
                ("production", self.theta_center, self.theta_radius,
                 self.theta_t_radius),
                ("kruzkov", self.kru_center, self.kru_radius, self.kru_t_radius)):
            if name in self.diagnostics and \
                    not (r > 0 and t_r > 0 and r <= c <= self.length - r):
                raise ValueError(
                    f"{name} bump: need radius, t_radius > 0 and radius <= "
                    f"center <= length - radius; got center {c}, radius "
                    f"{r}, t_radius {t_r}, length {self.length}")
        # a window that reads no sample time, or no cell of some grid,
        # would record young_var = nan
        window = _run_window(self)
        times = np.linspace(0.0, self.t_end, self.sample_count)
        grids = [GridSpec(n=n, length=self.length, dim=self.dim)
                 for n in self.grid_ns]
        if "young" in self.diagnostics and not (
                window.samples(times) and all(window.cells(g).any() for g in grids)):
            raise ValueError(f"young window x {window.space[0]}, t {window.t} "
                             f"holds no sample time or no cell of some grid")
        GridSpec(n=self.ref_n, length=self.length, dim=self.dim)  # or raise
        for n in self.grid_ns:
            if max(n, self.ref_n) % min(n, self.ref_n):
                raise ValueError(f"grids are incommensurate: {n} vs ref_n "
                                 f"{self.ref_n}")
        for idx in range(len(self.epsilons)):
            self.initial_data().build(_entry(self, idx)[0])

    def initial_data(self) -> InitialData:
        return initial_preset(self.initial, **dict(self.initial_args))

    def problem_key(self) -> dict:
        return {
            "flux": self.flux,
            "diffusion": self.diffusion,
            "initial": self.initial,
            "initial_args": list(self.initial_args),
            "length": self.length,
            "dim": self.dim,
            "t_end": self.t_end,
            "ref_n": self.ref_n,
        }


@dataclass
class RunRecord:
    epsilon: float
    delta: float
    gamma: float
    N: int
    dx: float
    dt_min: float
    steps: int
    blowup: bool
    taint: bool
    L1: float
    L2: float
    Linf: float
    mu1: float
    mu2: float
    mu3: float
    kruzkov_pos: float
    young_var: float

    def csv_row(self) -> str:
        vals = (getattr(self, col) for col in RECORD_COLUMNS)
        return ",".join(str(int(v)) if isinstance(v, (int, np.integer))
                        else repr(float(v)) for v in vals)


RECORD_COLUMNS = [f.name for f in fields(RunRecord)]


def _hash_payload(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@functools.cache
def _code_key() -> str:
    """sha256 over numpy's version and the name and bytes of every module
    of this package: part of every cache key, so an edit to any module, or
    another numpy, never reads a record or reference computed before it."""
    digest = hashlib.sha256(np.__version__.encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"\0{path.name}\0{len(source)}\0".encode() + source)
    return digest.hexdigest()


def _reference_path(cfg: SweepConfig) -> Path:
    payload = cfg.problem_key() | {"code": _code_key()}
    del payload["diffusion"]   # the entropy solution does not depend on it
    return Path(cfg.out_dir) / f"reference_{_hash_payload(payload)}.ddl"


def ensure_reference(cfg: SweepConfig) -> Field:
    """Entropy-solution reference at the fine grid, cached on disk by a
    content hash of the problem less its diffusion and of the code that
    computes it.

    A flux declared quadratic gets the exact Lax-Oleinik solution of the
    gridded data, every other flux the Engquist-Osher solve; both are 1-d,
    and in 2-d run on each diagonal of the grid.
    """
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    path = _reference_path(cfg)
    if path.exists():
        return read_snapshot_binary(path)
    grid = GridSpec(n=cfg.ref_n, length=cfg.length, dim=cfg.dim)
    u0 = cfg.initial_data().build(grid)
    flux = flux_preset(cfg.flux)
    if flux.quadratic:
        ref = _per_line(u0, lax_oleinik_reference, cfg.t_end)
    else:
        ref = _per_line(u0, reference_solve, flux, cfg.t_end)
    # per-process name: sweeps sharing an out_dir never share a tmp file
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    write_snapshot_binary(ref, tmp)
    os.replace(tmp, path)
    return ref


def _per_line(u0: Field, oracle, *args) -> Field:
    """``oracle(u0, *args)`` of a 1-d oracle; in 2-d, the oracle run on each
    diagonal, along which u_t + f(u)_x + f(u)_y = u_t + f(u)_s, s = (x + y)/2.
    Line d, the cells (k + d mod n, k) for k = 0 ... n-1, closes after n cells
    spaced dx in s, so the oracle reads it as a 1-d grid of n cells and length L."""
    if u0.grid.dim == 1:
        return oracle(u0, *args)
    k = np.arange(u0.grid.n)
    cells = ((k[:, None] + k) % len(k), k)
    line = GridSpec(n=len(k), length=u0.grid.length)
    out = np.empty(u0.grid.shape)
    out[cells] = [oracle(Field(line, v), *args).values for v in u0.values[cells]]
    return Field(u0.grid, out)


def _run_window(cfg: SweepConfig) -> diag.Window:
    lo = cfg.window_center - cfg.window_halfwidth
    hi = cfg.window_center + cfg.window_halfwidth
    return diag.Window(space=((lo, hi),) * cfg.dim, t=tuple(cfg.window_t))


def _entry(cfg: SweepConfig, idx: int) -> tuple:
    """Grid and solver parameters of one ladder entry."""
    grid = GridSpec(n=cfg.grid_ns[idx], length=cfg.length, dim=cfg.dim)
    params = SolveParams(
        flux=flux_preset(cfg.flux),
        diffusion=diffusion_preset(cfg.diffusion),
        epsilon=cfg.epsilons[idx], delta=_delta_at(cfg, idx),
        t_end=cfg.t_end, cfl_safety=cfg.cfl_safety,
        sample_count=cfg.sample_count,
    )
    return grid, params


def execute_group(cfg: SweepConfig, idxs: list) -> list:
    """execute_run of each ladder entry of idxs, which share a grid: more
    than one are solved together by solve_many.  A lone entry is solved in
    its execute_run, through solve, the call perfbench's layer trace times
    as solver.solve; solve_many([p]) would give the same trajectory."""
    if len(idxs) == 1:
        return [execute_run(cfg, idxs[0])]
    grid = _entry(cfg, idxs[0])[0]
    trajs = solve_many(cfg.initial_data(), [_entry(cfg, i)[1] for i in idxs],
                       grid)
    return [execute_run(cfg, i, traj) for i, traj in zip(idxs, trajs)]


def execute_run(cfg: SweepConfig, idx: int,
                traj: Trajectory | None = None) -> tuple:
    """Solve one ladder entry, unless traj is its solve, and evaluate its
    per-run diagnostics.

    Returns (record, final): the record's L1, L2 and Linf are NaN, for
    ``run_sweep`` to fill in against the reference; final is the field at
    t_end, or None after a blow-up.
    """
    grid, params = _entry(cfg, idx)
    eps, delta = params.epsilon, params.delta
    flux, diffusion = params.flux, params.diffusion
    if traj is None:
        traj = solve(cfg.initial_data(), params, grid)

    nan = float("nan")
    mu1 = mu2 = mu3 = kru = young = nan
    if not traj.blowup:
        if "production" in cfg.diagnostics:
            theta = diag.bump_over(cfg.theta_center, cfg.theta_t_center,
                                   cfg.theta_radius, cfg.theta_t_radius,
                                   dim=cfg.dim)
            pair = quadratic_entropy_pair(flux)
            rep = diag.entropy_production(traj, pair, theta, eps, delta, diffusion)
            mu1, mu2, mu3 = rep.mu1, rep.mu2, rep.mu3
        if "kruzkov" in cfg.diagnostics:
            theta = diag.bump_over(cfg.kru_center, cfg.kru_t_center,
                                   cfg.kru_radius, cfg.kru_t_radius, dim=cfg.dim)
            val = diag.kruzkov_residual(traj, flux, cfg.kruzkov_k, grid.dx, theta)
            kru = max(0.0, val)
        if "young" in cfg.diagnostics:
            young = float(np.var(diag.window_samples(traj, _run_window(cfg))))

    record = RunRecord(
        epsilon=eps, delta=delta, gamma=cfg.gamma, N=grid.n, dx=grid.dx,
        dt_min=traj.params.get("dt_min", 0.0),
        steps=traj.params.get("steps", 0),
        blowup=traj.blowup, taint=traj.taint, L1=nan, L2=nan, Linf=nan,
        mu1=mu1, mu2=mu2, mu3=mu3, kruzkov_pos=kru, young_var=young,
    )
    return record, None if traj.blowup else traj.final()


def _delta_at(cfg: SweepConfig, idx: int) -> float:
    eps = cfg.epsilons[idx]
    return cfg.coeff * eps**cfg.gamma if eps > 0 else cfg.delta_ladder[idx]


def _record_path(cfg: SweepConfig, idx: int) -> Path:
    """Every config field except where the sweep runs and the other ladder
    entries, plus this entry's values and the code key."""
    payload = asdict(cfg)
    for name in ("out_dir", "workers", "epsilons", "grid_ns", "delta_ladder"):
        del payload[name]
    payload.update(epsilon=cfg.epsilons[idx], delta=_delta_at(cfg, idx),
                   N=cfg.grid_ns[idx], code=_code_key())
    return Path(cfg.out_dir) / f"run_{_hash_payload(payload)}.json"


def run_sweep(cfg: SweepConfig) -> list:
    """Run every ladder entry, persist records, and write the summary.

    cfg was checked when it was built, so nothing here rejects it.  Records
    already on disk under an entry's key (its config values and the
    code key) are reused, and the reference is needed only when some entry
    is pending.  The pending entries of each grid are split into at most
    `workers` groups, each one task whose entries are solved together.
    Tasks run finest grid (longest solve) first, through one map: with
    workers > 1, a pool of at most one process per task starts them all
    while this process builds the reference; otherwise the reference is
    built first and the tasks run here in turn.  The distances to the
    reference are computed here from each entry's final field.  A blow-up
    is recorded, with NaN distances, and the sweep continues; records.csv
    and summary.json are written even when every run blew up.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pending = []
    records: dict = {}
    for idx in range(len(cfg.epsilons)):
        path = _record_path(cfg, idx)
        if path.exists():
            records[idx] = RunRecord(**read_manifest(path))
        else:
            pending.append(idx)

    by_grid: dict = {}
    for idx in pending:
        by_grid.setdefault(cfg.grid_ns[idx], []).append(idx)
    tasks = sorted((idxs[k::cfg.workers] for idxs in by_grid.values()
                    for k in range(min(cfg.workers, len(idxs)))),
                   key=lambda idxs: -cfg.grid_ns[idxs[0]])
    run = functools.partial(execute_group, cfg)
    with (ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks)))
          if cfg.workers > 1 and tasks else contextlib.nullcontext()) as pool:
        # pool.map starts every task at once; the builtin map is lazy, so
        # serially the reference is built first
        results = (pool.map if pool else map)(run, tasks)
        ref = ensure_reference(cfg) if tasks else None
        results = list(results)

    for idx, (rec, final) in zip(itertools.chain(*tasks),
                                 itertools.chain(*results)):
        if final is not None:
            rec = replace(rec, **compare_to_reference(final, ref))
        records[idx] = rec
        path = _record_path(cfg, idx)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        write_manifest(tmp, asdict(rec))
        os.replace(tmp, path)

    ordered = [records[i] for i in range(len(cfg.epsilons))]
    _write_records_csv(out / "records.csv", ordered)
    summary = summarize(cfg, ordered)
    write_manifest(out / "summary.json", summary)
    return ordered


def _write_records_csv(path, records):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def _monotone_decreasing(vals) -> bool:
    vals = [v for v in vals if np.isfinite(v)]
    return len(vals) >= 2 and all(b < a for a, b in zip(vals, vals[1:]))


def summarize(cfg: SweepConfig, records) -> dict:
    eps = [r.epsilon for r in records]
    diffusion = diffusion_preset(cfg.diffusion)
    flux = flux_preset(cfg.flux)
    tag = classify_regime(diffusion.r, flux.m, cfg.gamma, diffusion.claims_h3) \
        if all(e > 0 for e in eps) else "dispersive"
    summary = {
        "config": cfg.problem_key() | {
            "epsilons": list(cfg.epsilons),
            "grid_ns": list(cfg.grid_ns),
            "gamma": cfg.gamma,
            "coeff": cfg.coeff,
            "delta_ladder": list(cfg.delta_ladder),
        },
        "theorem_tag": tag,
        "monotone": {
            col: _monotone_decreasing([getattr(r, col) for r in records])
            for col in ("L1", "L2", "Linf", "kruzkov_pos", "young_var")
        },
        "slopes": {
            col: diag.loglog_fit(eps, [getattr(r, col) for r in records])
            for col in ("L1", "mu1", "mu3")
        },
        "blowups": sum(r.blowup for r in records),
    }
    return summary
