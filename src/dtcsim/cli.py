"""Command-line interface: reproduce each figure-family dataset as CSV + manifest.

Subcommands
-----------
evolve     stroboscopic magnetization / negativity / purity traces
spectrum   eigenvalue cloud of the two-period effective generator
gap-sweep  disorder-averaged Liouvillian gap versus disorder strength
twosite    two-site effective coupling and gap curves
validate   run the fast invariant suite and exit nonzero on failure

Settings resolve as :func:`parse_config` describes, and a refused setting
exits with status 2.  All numeric output uses 17 significant digits, so reruns
with the same config and seeds, on the same numpy/BLAS build and thread
environment, are byte identical (manifest wall time aside).
"""

from __future__ import annotations

import argparse
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
    dtc_settling_period,
    ode_oracle_evolve,
    run_stroboscopic,
)
from .floquet import block_propagator
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
            count = int(text[5:]) if text[5:].isdigit() else None  # None is refused
            return InitialStateSpec(kind="seed_size", seed_sites=count)
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

#: The RunConfig fields each subcommand reads.  Its flags are registered from
#: this table and its manifest records exactly these fields; parse_config
#: refuses any other field whose value is not the RunConfig default.
_READS = {
    "evolve": ("n", "j0_t_over_2pi", "alpha", "gamma_t", "epsilon", "w_t_over_2pi", "t1",
               "t2", "g", "initial_state", "n_periods", "disorder_seed", "out"),
    "spectrum": ("n", "j0_t_over_2pi", "alpha", "gamma_t", "epsilon", "w_t_over_2pi", "t1",
                 "t2", "g", "disorder_seed", "out"),
    "gap-sweep": ("n", "j0_t_over_2pi", "alpha", "gamma_t", "epsilon", "t1", "t2", "g",
                  "w_over_j0_values", "n_realizations", "base_seed", "out"),
    "twosite": ("j0_t_over_2pi", "gamma_t", "t1", "t2", "twosite_points", "out"),
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

    Flags win over environment, environment over file.  Environment values
    are JSON-decoded, except for text keys, which keep the raw text.
    Unknown keys, every unknown ``DTCSIM_*`` name included, are refused, and
    so are non-numeric, non-finite and out-of-range values and a field the
    experiment does not read (``_READS``) set to other than its default,
    each with a ConfigError naming the key.  An unset initial_state resolves
    from n (:func:`_default_initial_state`); an ``out`` that is, or lies
    under, an existing file is refused, and so is an initial_state that does
    not describe a state of n sites.
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
    variables = {}  # key -> the environment variable that set it last
    for key, raw in env.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower()
        variables[name] = key
        try:
            merged[name] = raw if name in text_keys else json.loads(raw)
        except json.JSONDecodeError:
            merged[name] = raw

    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
            variables.pop(key, None)

    unknown = set(merged) - known
    if unknown:
        named = sorted(variables[k] for k in unknown if k in variables)
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}"
                          + (f" (set by {', '.join(named)})" if named else ""))

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
        if isinstance(value, (float, np.floating)) and not np.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    for key, check in _VALIDATORS.items():
        value = getattr(config, key)
        if not check(value):
            raise ConfigError(f"{key} is out of range: {value!r}")
    w = config.w_over_j0_values
    if not w or not all(np.isfinite(w)) or any(v < 0 for v in w):
        raise ConfigError("w_over_j0_values must be a non-empty list of finite, "
                          f"non-negative numbers: {list(w)!r}")
    reads = _READS.get(config.experiment)
    if reads is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name not in reads and f.name != "experiment" and value != f.default:
            raise ConfigError(f"{f.name} = {value!r} is not read by {config.experiment}, "
                              f"which reads only {', '.join(reads)}")
    if config.experiment == "twosite" and config.t1 != config.t2:
        raise ConfigError(f"t1 = {config.t1!r} differs from t2 = {config.t2!r}: "
                          "the two-site model has t1 = t2")
    out = Path(config.out)
    blocker = next((p for p in (out, *out.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise ConfigError(f"out must name a directory, but {str(blocker)!r} is not a directory")
    if config.initial_state is None:
        config = replace(config, initial_state=_default_initial_state(config.n))
    try:
        build_initial_state(config.initial_state_spec(), config.n)
    except ValueError as exc:
        raise ConfigError(f"initial_state = {config.initial_state!r} is invalid: {exc}") from None
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
    reads = ("experiment", *_READS[config.experiment])
    manifest = {
        "schema": OUTPUT_SCHEMA,
        "package_version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(config).items() if k in reads},
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
    """Stroboscopic observable traces."""
    spin = config.spin_config()
    rho0 = build_initial_state(config.initial_state_spec(), spin.n_sites)
    prop = block_propagator(spin, rho0)
    trace = run_stroboscopic(rho0, spin, config.n_periods, dynamical_map=prop)
    header = (["n"] + [f"mz_{l}" for l in range(spin.n_sites)]
              + ["negativity", "purity", "excitations"])
    rows = [
        [int(n)] + list(trace.magnetization[i])
        + [trace.negativity[i], trace.purity[i], trace.excitations[i]]
        for i, n in enumerate(trace.periods)
    ]
    stepped = [part for parts in prop.blocks.values() for part in parts if len(part)]
    extra = {"numerics": {
        **asdict(trace.worst_margins),
        "settling_period": dtc_settling_period(trace),
        # (kl, kr) and its partner (kr, kl) are stepped by one stored block
        "sector_pairs_stepped": sum(1 if kl == kr else 2 for kl, kr in prop.blocks),
        "sector_pairs": (spin.n_sites + 1) ** 2,
        "blocks_exponentiated": prop.exponentiated,
        # the parts held: parity halves at palindromic disorder, else whole blocks
        "stepped_matrices": len(stepped),
        "largest_stepped_dim": max((len(part) for part in stepped), default=0),
        "stepped_bytes": sum(part.nbytes for part in stepped),
        "tolerances": {"trace": TRACE_TOL, "hermiticity": HERM_TOL,
                       "positivity": POSITIVITY_TOL},
    }}
    return rows, header, extra


def _run_spectrum(config: RunConfig):
    """Two-period generator eigenvalues."""
    lams = spectrum_2T(config.spin_config())
    underflowed = int(np.sum(~np.isfinite(lams)))
    if underflowed:
        raise ValueError(
            f"{underflowed} of {lams.size} two-period multipliers underflowed to 0, "
            "so their rates log(mu) / 2T are not finite; lower gamma_t")
    return [[lam.real, lam.imag] for lam in lams], ["re_lambda", "im_lambda"], {}


def _run_gap_sweep(config: RunConfig):
    """Disorder-averaged Liouvillian gap."""
    spin = config.spin_config()
    j0 = spin.j0
    sweep = SweepSpec(
        config=spin,
        w_values=tuple(w * j0 for w in config.w_over_j0_values),
        n_realizations=config.n_realizations,
        base_seed=config.base_seed,
    )
    result = disorder_gap_sweep(sweep)
    period = spin.period
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
    """Two-site coupling and gap curves."""
    spin = config.spin_config()
    j0, gamma, t2, period = spin.j0, spin.gamma, spin.t2, spin.period
    x_values = np.linspace(0.0, np.pi, config.twosite_points)  # w * t2 / 2pi
    w_values = x_values * 2.0 * np.pi / t2
    gaps = two_site_gap_curve(j0, gamma, t2, w_values)
    header = ["w_t2_over_2pi", "w_over_j0", "k_analytic", "k_numeric", "gapT"]
    rows, flagged = [], np.zeros(2, dtype=int)  # branch-flagged points per route
    for x, w, gap in zip(x_values, w_values, gaps):
        ka, kn = analytic_effective_coupling(j0, w, t2), two_site_numeric_coupling(j0, w, t2)
        flagged += (ka.branch_flag, kn.branch_flag)
        rows.append([x, w / j0, ka.coupling_magnitude, kn.coupling_magnitude,
                     (gap.gap if gap.gap is not None else float("nan")) * period])
    crossings = coupling_gamma_crossings(j0, gamma, t2)
    extra = {
        "gamma_crossings_w_over_j0": [c / j0 for c in crossings],
        "critical_disorder_estimate_w_over_j0": critical_disorder_estimate(j0, gamma, t2) / j0,
        "numerics": {"branch_flag_points_analytic": int(flagged[0]),
                     "branch_flag_points_numeric": int(flagged[1])},
    }
    return rows, header, extra


_RUNNERS = {"evolve": _run_evolve, "spectrum": _run_spectrum,
            "gap-sweep": _run_gap_sweep, "twosite": _run_twosite}


def run_validation_suite() -> int:
    """Fast invariant suite over small systems; prints each residual and its bound."""
    from .floquet import (floquet_2T_sector_blocks, floquet_map, floquet_map_2T,
                          interaction_propagator, matrix_exp)
    from .operators import excitation_number_operator, hamiltonian_interaction, hamiltonian_kick
    from .spectra import excitation_superop_commutant_check, sector_eigenvalues, spectral_distance
    from .superop import devectorize, liouvillian, lindblad_rhs, vectorize

    cfg = SpinNetworkConfig(n_sites=3, j0=0.9, alpha=1.2, gamma=0.05,
                            disorder=np.array([0.3, 0.0, 0.7]))

    def hermitian_hamiltonians():
        return np.max([np.abs(H - H.conj().T).max()
                       for H in (hamiltonian_kick(cfg), hamiltonian_interaction(cfg))])

    def u1_symmetry():
        H2, N_op = hamiltonian_interaction(cfg), excitation_number_operator(cfg.n_sites)
        return np.abs(H2 @ N_op - N_op @ H2).max()

    def generator_trace_preserving():
        L = liouvillian(hamiltonian_interaction(cfg), cfg.n_sites, cfg.gamma)
        return np.abs(vectorize(np.eye(cfg.dim, dtype=complex)) @ L).max()

    def rhs_route_equivalence():
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
        rho = raw + raw.conj().T
        rho /= np.trace(rho)
        H2 = hamiltonian_interaction(cfg)
        L = liouvillian(H2, cfg.n_sites, cfg.gamma)
        direct = lindblad_rhs(rho, H2, cfg.n_sites, cfg.gamma)
        return np.abs(direct - devectorize(L @ vectorize(rho))).max()

    def map_trace_preserving():
        left = vectorize(np.eye(cfg.dim, dtype=complex))
        return np.abs(left @ floquet_map(cfg).matrix - left).max()

    def map_vs_oracle():
        rho0 = build_initial_state(InitialStateSpec(kind="seed_size", seed_sites=1), cfg.n_sites)
        via_map = devectorize(floquet_map(cfg).matrix @ vectorize(rho0))
        return np.abs(via_map - ode_oracle_evolve(rho0, cfg, 1)).max()

    def block_step_vs_dense_map():
        # the propagator evolve builds: the 9 of 10 stored pairs the state reaches
        rho_dense = rho_block = build_initial_state(
            InitialStateSpec(kind="seed_size", seed_sites=1), cfg.n_sites)
        prop, dmap = block_propagator(cfg, rho_block), floquet_map(cfg)
        errors = []
        for _ in range(4):
            rho_block, rho_dense = prop.apply(rho_block), dmap.apply(rho_dense)
            errors.append(np.abs(rho_block - rho_dense).max())
        return np.max(errors)

    def block_vs_dense_spectrum():
        dense = np.linalg.eigvals(floquet_map_2T(cfg).matrix)
        pooled = np.exp(sector_eigenvalues(floquet_2T_sector_blocks(cfg), cfg) * 2.0 * cfg.period)
        return spectral_distance(dense, pooled)

    def split_segment_vs_dense_generator():
        # palindromic disorder: every segment block is exponentiated on its
        # two reflection-parity halves; the dense generator has no blocks
        mirrored = replace(cfg, disorder=np.array([0.3, 0.0, 0.3]))
        dense = matrix_exp(liouvillian(hamiltonian_interaction(mirrored), mirrored.n_sites,
                                       mirrored.gamma) * mirrored.t2)
        return np.abs(interaction_propagator(mirrored) - dense).max()

    def twosite_routes_agree():
        # a branch-flagged point has no defined phase and is left out
        couplings = [(analytic_effective_coupling(1.2566, w, 0.5),
                      two_site_numeric_coupling(1.2566, w, 0.5)) for w in (0.0, 1.7, 9.3, 24.0)]
        return np.max([abs(ka.coupling_magnitude - kn.coupling_magnitude) for ka, kn in couplings
                       if not (ka.branch_flag or kn.branch_flag)], initial=0.0)

    # a check passes when its residual is below its bound, so a nan fails (np.max keeps one)
    checks = [
        ("hamiltonians_hermitian", 1e-12, hermitian_hamiltonians),
        ("interaction_u1_symmetry", 1e-12, u1_symmetry),
        ("generator_trace_preserving", 1e-12, generator_trace_preserving),
        ("rhs_route_equivalence", 1e-12, rhs_route_equivalence),
        ("map_trace_preserving", 1e-10, map_trace_preserving),
        ("map_contractive", 1e-8,
         lambda: np.abs(np.linalg.eigvals(floquet_map(cfg).matrix)).max() - 1.0),
        ("map_vs_ode_oracle", 1e-6, map_vs_oracle),
        ("block_step_vs_dense_map", 1e-12, block_step_vs_dense_map),
        ("excitation_commutant", 1e-10,
         lambda: excitation_superop_commutant_check(floquet_map_2T(cfg))),
        ("block_vs_dense_spectrum", 1e-8, block_vs_dense_spectrum),
        ("split_segment_vs_dense_generator", 1e-12, split_segment_vs_dense_generator),
        ("twosite_routes_agree", 1e-8, twosite_routes_agree),
    ]
    passed = 0
    for name, bound, residual in checks:
        try:
            value = float(residual())
            ok, detail = value < bound, f"{value:.1e} (bound {bound:.0e})"
        except Exception as exc:  # report, do not abort the suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        passed += ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}")
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


#: Flags not spelled like their field, and flag help beyond the field name.
_FLAGS = {
    "initial_state": ("--initial-state", "site pattern like 111+++, or mixed_b, or seed:K"),
    "w_over_j0_values": ("--w-over-j0", "comma-separated disorder strengths in units of J0"),
    "n_realizations": ("--realizations", None),
    "twosite_points": ("--points", None),
}
_FLAG_TYPES = {"int": int, "float": float, "float | None": float}


def _parser() -> argparse.ArgumentParser:
    """One subparser per experiment, with a flag for each field it reads."""
    parser = argparse.ArgumentParser(
        prog="dtcsim",
        description="Floquet-Lindblad spin-network simulator (tables + manifests)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, reads in _READS.items():
        # no abbreviated flags: twosite would read --g as --gamma-t
        p = sub.add_parser(experiment, help=_RUNNERS[experiment].__doc__, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for f in fields(RunConfig):
            if f.name in reads:
                flag, text = _FLAGS.get(f.name, ("--" + f.name.replace("_", "-"), None))
                p.add_argument(flag, dest=f.name, type=_FLAG_TYPES.get(f.type), help=text)
    sub.add_parser("validate", help=run_validation_suite.__doc__)
    return parser


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
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
