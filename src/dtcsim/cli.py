"""Command-line interface: reproduce each figure-family dataset as CSV + manifest.

Subcommands
-----------
evolve     stroboscopic magnetization / negativity / purity traces
spectrum   eigenvalue cloud of the two-period effective generator
gap-sweep  disorder-averaged Liouvillian gap versus disorder strength
twosite    two-site effective coupling and gap curves
validate   run the fast invariant suite and exit nonzero on failure

Configuration is resolved in precedence order: built-in defaults, then a JSON
config file (--config), then DTCSIM_* environment variables, then explicit
flags.  All numeric output uses 17 significant digits so that reruns with the
same config and seeds, on the same numpy/BLAS build and thread environment,
are byte identical (manifest wall time aside).

Example:
    dtcsim evolve --gamma-t 0.02 --n-periods 200 --out runs/fig2
    dtcsim gap-sweep --w-over-j0 0,5,10,15,20,25,30 --realizations 20
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    HERM_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    InitialStateSpec,
    SweepSpec,
    build_initial_state,
    disorder_gap_sweep,
    ode_oracle_evolve,
    run_stroboscopic,
)
from .observables import default_partition
from .operators import MAX_SITES, SpinNetworkConfig, sample_disorder
from .spectra import spectrum_2T
from .twosite import (
    analytic_effective_coupling,
    coupling_gamma_crossings,
    critical_disorder_estimate,
    two_site_gap_curve,
    two_site_numeric_coupling,
)

ENV_PREFIX = "DTCSIM_"
OUTPUT_SCHEMA = "dtcsim-output-v1"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (drive in paper-style dimensionless units)."""

    experiment: str = "evolve"
    n: int = 6
    j0_t_over_2pi: float = 0.2
    alpha: float = 1.51
    gamma_t: float = 0.02
    epsilon: float = 0.0
    w_t_over_2pi: float = 0.0
    t1: float = 0.5
    t2: float = 0.5
    g: float | None = None          # defaults to a perfect pi pulse
    initial_state: str | None = None  # defaults to _default_initial_state(n)
    n_periods: int = 200
    w_over_j0_values: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_realizations: int = 20
    base_seed: int = 12345
    disorder_seed: int = 0
    twosite_points: int = 129
    out: str = "dtcsim_out"

    def period(self) -> float:
        return self.t1 + self.t2

    def spin_config(self) -> SpinNetworkConfig:
        period = self.period()
        j0 = self.j0_t_over_2pi * 2.0 * np.pi / period
        strength = self.w_t_over_2pi * 2.0 * np.pi / period
        disorder = (
            sample_disorder(self.n, strength, self.disorder_seed)
            if strength > 0
            else np.zeros(self.n)
        )
        return SpinNetworkConfig(
            n_sites=self.n,
            j0=j0,
            alpha=self.alpha,
            g=np.pi / (2.0 * self.t1) if self.g is None else self.g,
            epsilon=self.epsilon,
            t1=self.t1,
            t2=self.t2,
            gamma=self.gamma_t / period,
            disorder=disorder,
        )

    def initial_state_spec(self) -> InitialStateSpec:
        text = _default_initial_state(self.n) if self.initial_state is None else self.initial_state
        if text == "mixed_b":
            return InitialStateSpec(kind="mixed_B")
        if text.startswith("seed:"):
            return InitialStateSpec(kind="seed_size", seed_sites=int(text[5:]))
        return InitialStateSpec(kind="pure_pattern", pattern=text)


def _default_initial_state(n: int) -> str:
    """``1`` on region A of the default partition and ``+`` on region B."""
    partition = default_partition(n)
    return "1" * len(partition.sites_a) + "+" * len(partition.sites_b)


_VALIDATORS = {
    "n": lambda v: 1 <= v <= MAX_SITES,
    "j0_t_over_2pi": lambda v: v > 0,
    "alpha": lambda v: v >= 0,
    "gamma_t": lambda v: v >= 0,
    "epsilon": lambda v: v >= 0,
    "w_t_over_2pi": lambda v: v >= 0,
    "t1": lambda v: v > 0,
    "t2": lambda v: v > 0,
    "n_periods": lambda v: v >= 1,
    "n_realizations": lambda v: v >= 1,
    "twosite_points": lambda v: v >= 2,
    "base_seed": lambda v: v >= 0,
    "disorder_seed": lambda v: v >= 0,
}

#: Settings an experiment does not model: whether the value is one it runs,
#: and what it runs instead.
_UNMODELLED = {
    "twosite": {
        "t1": (lambda c: c.t1 == c.t2, "the two-site model has t1 = t2"),
        "epsilon": (lambda c: c.epsilon == 0.0, "the two-site model has a perfect pi pulse"),
        "g": (lambda c: c.g is None, "the two-site model has a perfect pi pulse"),
        "w_t_over_2pi": (lambda c: c.w_t_over_2pi == 0.0,
                         "twosite scans the disorder gap on its own grid"),
        "disorder_seed": (lambda c: c.disorder_seed == RunConfig.disorder_seed,
                          "twosite scans the disorder gap on its own grid"),
        "alpha": (lambda c: c.alpha == RunConfig.alpha,
                  "the two-site model has a single coupling J0"),
        "n": (lambda c: c.n == RunConfig.n, "the two-site model has two sites"),
        "initial_state": (lambda c: c.initial_state == RunConfig.initial_state,
                          "twosite computes couplings and gaps, not a trajectory"),
    },
    "gap-sweep": {
        "w_t_over_2pi": (lambda c: c.w_t_over_2pi == 0.0,
                         "gap-sweep draws its own disorder from w_over_j0_values"),
        "disorder_seed": (lambda c: c.disorder_seed == RunConfig.disorder_seed,
                          "gap-sweep seeds its realizations from base_seed"),
    },
}

#: Value types accepted for the numeric RunConfig fields, by annotation.
_NUMBER_TYPES = {
    "int": (numbers.Integral,),
    "float": (numbers.Real,),
    "float | None": (numbers.Real, type(None)),
}


def parse_config(path: str | None = None, overrides: dict | None = None,
                 env: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from file, environment and flag overrides.

    Unknown keys are rejected; non-numeric values of numeric keys and
    out-of-range values raise ConfigError naming the offending key.  Flags
    win over environment, environment over file.  Environment values are
    JSON-decoded, except for text keys, which keep the raw text.  An unset
    initial_state resolves from n (see :func:`_default_initial_state`); an
    ``out`` that is, or lies under, an existing file and a setting the
    experiment does not model are refused.
    """
    known = {f.name for f in fields(RunConfig)}
    text_keys = {f.name for f in fields(RunConfig) if f.type in ("str", "str | None")}
    merged: dict = {}

    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(data)

    env = os.environ if env is None else env
    for key, raw in env.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower()
        if name in text_keys:
            merged[name] = raw
        elif name in known:
            try:
                merged[name] = json.loads(raw)
            except json.JSONDecodeError:
                merged[name] = raw

    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    if "w_over_j0_values" in merged:
        values = merged["w_over_j0_values"]
        if isinstance(values, str):
            values = [v for v in values.split(",") if v.strip()]
        try:
            merged["w_over_j0_values"] = tuple(float(v) for v in values)
        except (TypeError, ValueError):
            raise ConfigError(f"w_over_j0_values must be a list of numbers: {values!r}") from None

    config = RunConfig(**merged)
    for f in fields(config):
        kinds = _NUMBER_TYPES.get(f.type)
        value = getattr(config, f.name)
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
    for key, check in _VALIDATORS.items():
        value = getattr(config, key)
        if not check(value):
            raise ConfigError(f"{key} is out of range: {value!r}")
    w = config.w_over_j0_values
    if not w or not all(np.isfinite(w)) or any(v < 0 for v in w):
        raise ConfigError("w_over_j0_values must be a non-empty list of finite, "
                          f"non-negative numbers: {list(w)!r}")
    for key, (runs, instead) in _UNMODELLED.get(config.experiment, {}).items():
        if not runs(config):
            raise ConfigError(f"{key} = {getattr(config, key)!r} is not modelled by "
                              f"{config.experiment}: {instead}")
    out = Path(config.out)
    blocker = next((p for p in (out, *out.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise ConfigError(f"out must name a directory, but {str(blocker)!r} is not a directory")
    if config.initial_state is None:
        config = replace(config, initial_state=_default_initial_state(config.n))
    return config


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def _write_table(path: Path, experiment: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {OUTPUT_SCHEMA} package=dtcsim/{__version__} experiment={experiment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format(v) for v in row) + "\n")


def _write_manifest(path: Path, config: RunConfig, outputs: list[str],
                    wall_time: float, extra: dict | None = None) -> None:
    manifest = {
        "schema": OUTPUT_SCHEMA,
        "package_version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(config).items()},
        "outputs": outputs,
        "wall_time_seconds": wall_time,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: RunConfig) -> int:
    """Execute one experiment; write its table and manifest; return exit status."""
    if config.experiment == "twosite":  # the model has two sites; record no other count
        config = replace(config, n=2, initial_state=_default_initial_state(2))
    start = time.perf_counter()

    try:
        if config.experiment not in _RUNNERS:
            raise ConfigError(f"unknown experiment {config.experiment!r}")
        rows, header, extra = _RUNNERS[config.experiment](config)
    except (ConfigError, ValueError, RuntimeError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(config.out)  # created only once there is a table to write
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = config.experiment.replace("-", "_")
    table_path = out_dir / f"{stem}.csv"
    _write_table(table_path, config.experiment, header, rows)
    manifest_path = out_dir / f"{stem}_manifest.json"
    _write_manifest(manifest_path, config, [table_path.name],
                    time.perf_counter() - start, extra)
    print(f"wrote {table_path} and {manifest_path}")
    return 0


def _run_evolve(config: RunConfig):
    spin = config.spin_config()
    rho0 = build_initial_state(config.initial_state_spec(), spin.n_sites)
    trace = run_stroboscopic(rho0, spin, config.n_periods)
    header = (["n"] + [f"mz_{l}" for l in range(spin.n_sites)]
              + ["negativity", "purity", "excitations"])
    rows = [
        [int(n)] + list(trace.magnetization[i])
        + [trace.negativity[i], trace.purity[i], trace.excitations[i]]
        for i, n in enumerate(trace.periods)
    ]
    extra = {"numerics": {
        **asdict(trace.worst_margins),
        "tolerances": {"trace": TRACE_TOL, "hermiticity": HERM_TOL,
                       "positivity": POSITIVITY_TOL},
    }}
    return rows, header, extra


def _run_spectrum(config: RunConfig):
    lams = spectrum_2T(config.spin_config())
    underflowed = int(np.sum(~np.isfinite(lams)))
    if underflowed:
        raise ValueError(
            f"{underflowed} of {lams.size} two-period multipliers underflowed to 0, "
            "so their rates log(mu) / 2T are not finite; lower gamma_t")
    return [[lam.real, lam.imag] for lam in lams], ["re_lambda", "im_lambda"], {}


def _run_gap_sweep(config: RunConfig):
    spin = config.spin_config()
    j0 = spin.j0
    sweep = SweepSpec(
        config=spin,
        w_values=tuple(w * j0 for w in config.w_over_j0_values),
        n_realizations=config.n_realizations,
        base_seed=config.base_seed,
    )
    result = disorder_gap_sweep(sweep)
    period = config.period()
    header = ["W_over_J0", "mean_gapT", "min_gapT", "max_gapT", "n_realizations"]
    rows = [
        [config.w_over_j0_values[i], result.mean[i] * period,
         result.min[i] * period, result.max[i] * period, config.n_realizations]
        for i in range(len(config.w_over_j0_values))
    ]
    extra = {"failures": [list(f) for f in result.failures],
             "seeds": [list(s) for s in result.seeds]}
    return rows, header, extra


def _run_twosite(config: RunConfig):
    spin = config.spin_config()
    j0, gamma, t2 = spin.j0, spin.gamma, spin.t2
    period = config.period()
    x_values = np.linspace(0.0, np.pi, config.twosite_points)  # w * t2 / 2pi
    w_values = x_values * 2.0 * np.pi / t2
    gaps = two_site_gap_curve(j0, gamma, t2, w_values)
    header = ["w_t2_over_2pi", "w_over_j0", "k_analytic", "k_numeric", "gapT"]
    rows = []
    for x, w, gap in zip(x_values, w_values, gaps):
        ka = analytic_effective_coupling(j0, w, t2).coupling_magnitude
        kn = two_site_numeric_coupling(j0, w, t2).coupling_magnitude
        rows.append([x, w / j0, ka, kn,
                     (gap.gap if gap.gap is not None else float("nan")) * period])
    crossings = coupling_gamma_crossings(j0, gamma, t2)
    extra = {
        "gamma_crossings_w_over_j0": [c / j0 for c in crossings],
        "critical_disorder_estimate_w_over_j0": critical_disorder_estimate(j0, gamma, t2) / j0,
    }
    return rows, header, extra


_RUNNERS = {"evolve": _run_evolve, "spectrum": _run_spectrum,
            "gap-sweep": _run_gap_sweep, "twosite": _run_twosite}


def run_validation_suite() -> int:
    """Fast invariant suite over small systems; prints one line per check."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report, do not abort the suite
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    from .floquet import block_propagator, floquet_2T_sector_blocks, floquet_map, floquet_map_2T
    from .operators import (
        excitation_number_operator,
        hamiltonian_interaction,
        hamiltonian_kick,
    )
    from .spectra import excitation_superop_commutant_check, sector_eigenvalues, spectral_distance
    from .superop import devectorize, liouvillian, lindblad_rhs, vectorize

    cfg = SpinNetworkConfig(n_sites=3, j0=0.9, alpha=1.2, gamma=0.05,
                            disorder=np.array([0.3, 0.0, 0.7]))

    def hermitian_hamiltonians():
        for H in (hamiltonian_kick(cfg), hamiltonian_interaction(cfg)):
            assert np.abs(H - H.conj().T).max() < 1e-12

    def u1_symmetry():
        H2 = hamiltonian_interaction(cfg)
        N_op = excitation_number_operator(cfg.n_sites)
        assert np.abs(H2 @ N_op - N_op @ H2).max() < 1e-12

    def generator_trace_preserving():
        L = liouvillian(hamiltonian_interaction(cfg), cfg.n_sites, cfg.gamma)
        left = vectorize(np.eye(cfg.dim, dtype=complex))
        assert np.abs(left @ L).max() < 1e-12

    def rhs_route_equivalence():
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
        rho = raw + raw.conj().T
        rho /= np.trace(rho)
        H2 = hamiltonian_interaction(cfg)
        L = liouvillian(H2, cfg.n_sites, cfg.gamma)
        direct = lindblad_rhs(rho, H2, cfg.n_sites, cfg.gamma)
        assert np.abs(direct - devectorize(L @ vectorize(rho))).max() < 1e-12

    def map_contracts():
        dmap = floquet_map(cfg)
        left = vectorize(np.eye(cfg.dim, dtype=complex))
        assert np.abs(left @ dmap.matrix - left).max() < 1e-10
        assert np.abs(np.linalg.eigvals(dmap.matrix)).max() <= 1.0 + 1e-8

    def map_vs_oracle():
        spec = InitialStateSpec(kind="seed_size", seed_sites=1)
        rho0 = build_initial_state(spec, cfg.n_sites)
        via_map = devectorize(floquet_map(cfg).matrix @ vectorize(rho0))
        via_ode = ode_oracle_evolve(rho0, cfg, 1, dt=cfg.period / 2000.0)
        assert np.abs(via_map - via_ode).max() < 1e-6

    def block_step_vs_dense_map():
        rho_dense = rho_block = build_initial_state(
            InitialStateSpec(kind="seed_size", seed_sites=1), cfg.n_sites)
        prop, dmap = block_propagator(cfg), floquet_map(cfg)
        for _ in range(4):
            rho_block, rho_dense = prop.apply(rho_block), dmap.apply(rho_dense)
            assert np.abs(rho_block - rho_dense).max() < 1e-12

    def commutant_residual():
        assert excitation_superop_commutant_check(cfg) < 1e-10

    def block_vs_dense_spectrum():
        dense = np.linalg.eigvals(floquet_map_2T(cfg).matrix)
        pooled = np.exp(sector_eigenvalues(floquet_2T_sector_blocks(cfg), 2.0 * cfg.period)
                        * 2.0 * cfg.period)
        assert spectral_distance(dense, pooled) < 1e-8

    def twosite_routes_agree():
        for w in (0.0, 1.7, 9.3, 24.0):
            ka = analytic_effective_coupling(1.2566, w, 0.5)
            kn = two_site_numeric_coupling(1.2566, w, 0.5)
            if not (ka.branch_flag or kn.branch_flag):
                assert abs(ka.coupling_magnitude - kn.coupling_magnitude) < 1e-8

    check("hamiltonians_hermitian", hermitian_hamiltonians)
    check("interaction_u1_symmetry", u1_symmetry)
    check("generator_trace_preserving", generator_trace_preserving)
    check("rhs_route_equivalence", rhs_route_equivalence)
    check("map_contracts", map_contracts)
    check("map_vs_ode_oracle", map_vs_oracle)
    check("block_step_vs_dense_map", block_step_vs_dense_map)
    check("excitation_commutant", commutant_residual)
    check("block_vs_dense_spectrum", block_vs_dense_spectrum)
    check("twosite_routes_agree", twosite_routes_agree)

    failed = 0
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  {detail}" if detail else ""))
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--j0-t-over-2pi", type=float, dest="j0_t_over_2pi")
    parser.add_argument("--gamma-t", type=float, dest="gamma_t")
    parser.add_argument("--t1", type=float, dest="t1")
    parser.add_argument("--t2", type=float, dest="t2")
    parser.add_argument("--out", dest="out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dtcsim",
        description="Floquet-Lindblad spin-network simulator (tables + manifests)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    # no abbreviated flags: twosite would read --g as --gamma-t
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_evolve = add_parser("evolve", help="stroboscopic observable traces")
    p_evolve.add_argument("--initial-state", dest="initial_state",
                          help="site pattern like 111+++, or mixed_b, or seed:K")
    p_evolve.add_argument("--n-periods", type=int, dest="n_periods")

    p_spectrum = add_parser("spectrum", help="two-period generator eigenvalues")

    p_sweep = add_parser("gap-sweep", help="disorder-averaged Liouvillian gap")
    p_sweep.add_argument("--w-over-j0", dest="w_over_j0_values",
                         help="comma-separated disorder strengths in units of J0")
    p_sweep.add_argument("--realizations", type=int, dest="n_realizations")
    p_sweep.add_argument("--base-seed", type=int, dest="base_seed")

    p_twosite = add_parser("twosite", help="two-site coupling and gap curves")
    p_twosite.add_argument("--points", type=int, dest="twosite_points")

    add_parser("validate", help="run the fast invariant suite")

    for p in (p_evolve, p_spectrum, p_sweep, p_twosite):
        _add_common_flags(p)
    for p in (p_evolve, p_spectrum, p_sweep):  # twosite models two sites and a perfect pulse
        p.add_argument("--n", type=int, dest="n")
        p.add_argument("--alpha", type=float, dest="alpha")
        p.add_argument("--epsilon", type=float, dest="epsilon")
        p.add_argument("--g", type=float, dest="g")
    for p in (p_evolve, p_spectrum):  # gap-sweep and twosite set the disorder themselves
        p.add_argument("--w-t-over-2pi", type=float, dest="w_t_over_2pi")
        p.add_argument("--disorder-seed", type=int, dest="disorder_seed")

    args = vars(parser.parse_args(argv))
    experiment = args.pop("experiment")
    if experiment == "validate":
        return run_validation_suite()
    config_path = args.pop("config", None)
    args["experiment"] = experiment
    try:
        config = parse_config(config_path, overrides=args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
