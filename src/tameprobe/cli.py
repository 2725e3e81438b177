"""Command-line front end: demos, sweeps, and estimate checks.

Exit codes: 0 expected outcome, 2 unexpected sweep outcome, 64 config or
usage error, 65 precision budget exceeded, 66 unwritable output: an output
path that cannot be written, or a standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, dataclass, field

import numpy as np

from .driver import (
    MAX_M,
    RESIDUAL_M_COARSE,
    PrecisionBudgetError,
    check_sweep,
    estimate_residual_bound,
    fix_m,
    growth_sweep,
    locate_anchor,
)
from .functions import (
    SinusoidProbe,
    SmoothFunction,
    constant,
    probe,
    zero,
)
from .maps import CirclePullback, DomainViolation, PostComposition
from .primitives import TWO_PI, Cos, Exp, Polynomial, Sin, is_finite
from .tameness import PNormSpec, check_tame_estimate

EXIT_OK = 0
EXIT_UNEXPECTED = 2
EXIT_CONFIG = 64
EXIT_BUDGET = 65
EXIT_OUTPUT = 66

DEFAULT_M_LIST = tuple(2**e for e in range(4, 13))

# variant name -> map built from the outer function phi and the winding n
VARIANTS = {
    "ex2": CirclePullback,
    "ex4": lambda phi, n: PostComposition(phi),
}


class ConfigError(ValueError):
    pass


def _finite(args: str) -> list:
    """The comma-separated numbers of a descriptor, all finite."""
    vals = [float(v) for v in args.split(",")]
    if not all(map(is_finite, vals)):
        raise ValueError("numbers must be finite")
    return vals


def parse_phi(descriptor: str):
    """Named outer-function registry: sin, cos, affine:a,b, poly:c0,..,
    t_plus_exp."""
    name, sep, args = descriptor.partition(":")
    try:
        if name in ("sin", "cos", "t_plus_exp") and sep:
            raise ValueError(f"{name} takes no numbers")
        if name == "sin":
            return Sin(omega=TWO_PI)
        if name == "cos":
            return Cos(omega=TWO_PI)
        if name == "affine":
            a, b = _finite(args)
            return Polynomial([b, a])
        if name == "poly":
            return Polynomial(_finite(args))
        if name == "t_plus_exp":
            return Exp((0.0, 1.0))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad phi descriptor {descriptor!r}: {exc}") from None
    raise ConfigError(f"unknown phi {name!r} (known: sin, cos, affine:a,b, "
                      "poly:c0,..,ck, t_plus_exp)")


def parse_x(descriptor: str, domain: str) -> SmoothFunction:
    """Base-point registry: zero | const:c | sinusoid:amp,freq[,phase]."""
    name, sep, args = descriptor.partition(":")
    try:
        if name == "zero" and sep:
            raise ValueError("zero takes no numbers")
        if name == "zero":
            return zero(domain)
        if name == "const":
            c, = _finite(args)
            return constant(c, domain)
        if name == "sinusoid":
            amp, freq, *phase = _finite(args)
            if len(phase) > 1:
                raise ValueError("sinusoid takes amp,freq[,phase]")
            return SmoothFunction(SinusoidProbe(amp, freq, *phase), domain)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad x descriptor {descriptor!r}: {exc}") from None
    raise ConfigError(f"unknown base point {name!r} (known: zero, const:c, "
                      "sinusoid:amp,freq[,phase])")


@dataclass
class ScenarioConfig:
    variant: str = "ex2"
    phi: str = "sin"
    n: int = 1
    x: str = "zero"
    k: int = 3
    l: int = 8
    m_list: tuple = DEFAULT_M_LIST
    rho1: PNormSpec = field(default_factory=PNormSpec)
    rho2: PNormSpec = field(default_factory=PNormSpec)
    format: str = "csv"
    output: str | None = None

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {', '.join(VARIANTS)}, "
                              f"got {self.variant!r}")
        try:
            check_sweep(self.k, self.l, self.m_list)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.m_list[-1] > MAX_M:
            raise ConfigError(f"m = {self.m_list[-1]} exceeds {MAX_M}")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")

    def build_map(self):
        phi = parse_phi(self.phi)
        try:
            return VARIANTS[self.variant](phi, self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# JSON type of each scalar config key that maps onto a ScenarioConfig field
CONFIG_SCALARS = {"variant": str, "phi": str, "x": str, "n": int, "k": int,
                  "l": int, "format": str, "output": str}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _typed(val, what: str, typ: type):
    """``val`` if it has JSON type ``typ``; true and false are not ints,
    and an integer is a number."""
    ok = (int, float) if typ is float else typ
    if not isinstance(val, ok) or isinstance(val, bool):
        raise ConfigError(f"{what} must be {_TYPE_NAMES[typ]}, got {val!r}")
    return val


def _finite_number(val, what: str) -> float:
    """``val`` as a float if it is a finite JSON number."""
    if not is_finite(_typed(val, what, float)):
        raise ConfigError(f"{what} must be finite, got {val!r}")
    return float(val)


def _known_keys(obj: dict, known, what: str):
    """Reject a key of ``obj`` outside ``known``: a misspelt key would
    otherwise run with its default."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown {what} key {key!r} (known: "
                              f"{', '.join(known)})")


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``. Beside a decode error, an
    integer of more than 4300 digits is a plain ValueError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from None


CONFIG_KEYS = tuple(CONFIG_SCALARS) + ("m_list", "rho1", "rho2")
PNORM_KEYS = ("truncation",)


def _config_from_args(args) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        data = _read_json(args.config, "config")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        _known_keys(data, CONFIG_KEYS, "config")
        for key, typ in CONFIG_SCALARS.items():
            if key in data:
                setattr(cfg, key, _typed(data[key], key, typ))
        if "m_list" in data:
            if not isinstance(data["m_list"], list):
                raise ConfigError("m_list must be a list of integers, "
                                  f"got {data['m_list']!r}")
            cfg.m_list = tuple(_typed(m, "m_list entry", int)
                               for m in data["m_list"])
        for key in ("rho1", "rho2"):
            if key in data:
                spec = data[key]
                if not isinstance(spec, dict):
                    raise ConfigError(f"{key} must be a JSON object, got "
                                      f"{spec!r}")
                _known_keys(spec, PNORM_KEYS, key)
                if "truncation" in spec:
                    _typed(spec["truncation"], f"{key} truncation", int)
                try:
                    setattr(cfg, key, PNormSpec(**spec))
                except ValueError as exc:
                    raise ConfigError(f"bad {key} in config: {exc}") from None
    # a flag given overrides its key, an empty string too; demo and
    # check-tame have no --format or --output
    for key in CONFIG_SCALARS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if args.m_list is not None:
        try:
            cfg.m_list = tuple(int(v) for v in args.m_list.split(","))
        except ValueError:
            raise ConfigError(f"bad m list {args.m_list!r}") from None
    cfg.validate()
    return cfg


CSV_HEADER = "m,p_km1_z,rho1_z,rho1_u,top_deriv_s0,predicted,Tz_sup,rho2_v"


def _record_row(r) -> str:
    m, *vals = astuple(r)
    return ",".join([str(r.m)] + [format(v, ".17g") for v in vals])


def _print_table(result):
    print(CSV_HEADER.replace(",", "\t"))
    for r in result.records:
        print(_record_row(r).replace(",", "\t"))


def cmd_demo(cfg: ScenarioConfig) -> int:
    map_spec = cfg.build_map()
    x = parse_x(cfg.x, map_spec.domain_tag)
    result = growth_sweep(map_spec, x, cfg.rho1, cfg.rho2, cfg.k, cfg.l,
                          cfg.m_list)
    _print_table(result)
    print(f"t0 = {result.t0:.12g}  s0 = {result.s0:.12g}  "
          f"|phi_deriv(t0)| = {result.deriv_mag:.12g}")
    slope = "n/a" if result.slope is None else format(result.slope, ".6g")
    print(f"fitted slope = {slope}")
    print(f"estimate violated = {result.violation}")
    if result.degenerate:
        # only phi's leading derivative was checked, not v itself
        lead = "phi" + "'" * map_spec.lead_order
        print(f"degenerate anchor: {lead} vanishes on the anchor grid, "
              "so no sqrt(m) growth is predicted")
        expected = not result.violation
    elif result.slope is None:
        # a certificate stands on the sqrt(m) growth the fit measures
        print("no certificate: a single m, or a top_deriv_s0 of 0, "
              "fits no slope, so no sqrt(m) growth was seen")
        expected = False
    else:
        try:
            m_est = estimate_residual_bound(result)
        except DomainViolation as exc:   # at an m the user's list lacks
            *coarse, last = RESIDUAL_M_COARSE
            print("no certificate: the residual bound reads m = "
                  f"{', '.join(map(str, coarse))} and {last}, and {exc}")
            return EXIT_UNEXPECTED
        m_star = fix_m(cfg.k, cfg.l, m_est, result.deriv_mag)
        print(f"residual bound M = {m_est:.12g}; certified m = {m_star}")
        expected = result.violation
    return EXIT_OK if expected else EXIT_UNEXPECTED


def cmd_sweep(cfg: ScenarioConfig) -> int:
    if not cfg.output:
        raise ConfigError("sweep requires an output path")
    map_spec = cfg.build_map()
    x = parse_x(cfg.x, map_spec.domain_tag)
    result = growth_sweep(map_spec, x, cfg.rho1, cfg.rho2, cfg.k, cfg.l,
                          cfg.m_list)
    if cfg.format == "csv":
        body = "\n".join([CSV_HEADER] + [_record_row(r) for r in result.records])
        body += "\n"
    else:
        body = json.dumps([dict(zip(CSV_HEADER.split(","), astuple(r)))
                           for r in result.records], indent=2)
        body += "\n"
    try:
        with open(cfg.output, "w") as fh:
            fh.write(body)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def _explicit_probe(entry: dict, domain: str):
    """(z, u) of a probe entry that gives both: a sinusoid z and a
    constant u."""
    zd, ud = entry["z"], entry["u"]
    if not (isinstance(zd, dict) and isinstance(ud, dict)
            and {"amplitude", "frequency"} <= zd.keys() and "constant" in ud):
        raise ConfigError(f"bad probe entry {entry!r}: z needs amplitude "
                          "and frequency, u needs constant")
    _known_keys(entry, ("z", "u"), "probe entry")
    _known_keys(zd, ("amplitude", "frequency", "phase"), "probe z")
    _known_keys(ud, ("constant",), "probe u")
    freq = _finite_number(zd["frequency"], "probe z frequency")
    if not 0.0 < abs(freq) <= MAX_M:
        raise ConfigError(f"probe z frequency must be nonzero with magnitude "
                          f"at most {MAX_M}, got {freq!r}")
    amp = _finite_number(zd["amplitude"], "probe z amplitude")
    phase = _finite_number(zd.get("phase", 0.0), "probe z phase")
    u = constant(_finite_number(ud["constant"], "probe u constant"), domain)
    try:
        return SmoothFunction(SinusoidProbe(amp, freq, phase), domain), u
    except ValueError as exc:
        raise ConfigError(f"bad probe entry {entry!r}: {exc}") from None


def _load_probes(path: str, cfg: ScenarioConfig, map_spec, x):
    entries = _read_json(path, "probe")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("probe file must be a nonempty JSON list")
    domain = map_spec.domain_tag
    _, s0, _, _ = locate_anchor(map_spec, x)
    u = constant(1.0 / cfg.l, domain)
    probes = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"bad probe entry {entry!r}")
        if "z" in entry and "u" in entry:
            probes.append(_explicit_probe(entry, domain))
        elif "m" in entry and "k" in entry:
            _known_keys(entry, ("m", "k", "s0"), "probe entry")
            m = _typed(entry["m"], "probe m", int)
            k = _typed(entry["k"], "probe k", int)
            if m > MAX_M:
                raise ConfigError(f"probe m = {m} exceeds {MAX_M}")
            s0_entry = _finite_number(entry.get("s0", s0), "probe s0")
            try:
                probes.append((probe(m, k, s0_entry, domain), u))
            except ValueError as exc:
                raise ConfigError(f"bad probe entry {entry!r}: {exc}") from None
        else:
            raise ConfigError(f"probe entry needs (m, k) or (z, u): {entry!r}")
    return probes


def cmd_check_tame(cfg: ScenarioConfig, probe_path: str) -> int:
    map_spec = cfg.build_map()
    x = parse_x(cfg.x, map_spec.domain_tag)
    probes = _load_probes(probe_path, cfg, map_spec, x)
    report = check_tame_estimate(map_spec, x, cfg.rho1, cfg.rho2, probes)
    print(f"satisfied = {report.satisfied}")
    print(f"probes checked = {report.samples_checked}, "
          f"skipped (rho1(z) > 1) = {report.skipped_large_z}, "
          f"domain exits = {len(report.domain_exits)}")
    for z, u, lhs, rhs in report.witnesses:
        node = z.node
        print(f"witness: z = sinusoid(amp={node.amplitude:.6g}, "
              f"freq={node.frequency:.6g}), lhs = {lhs:.12g} > rhs = {rhs:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tameprobe",
        description="Oscillatory-probe falsification of uniform "
                    "directional-derivative estimates on smooth-function spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("variant", nargs="?", choices=tuple(VARIANTS),
                       help="map variant")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--phi", help="outer function descriptor")
        p.add_argument("--n", type=int, help="winding number (ex2)")
        p.add_argument("--x", help="base point descriptor")
        p.add_argument("--k", type=int, help="odd derivative order")
        p.add_argument("--l", type=int, help="seminorm level for u (eps0 = 1/l)")
        p.add_argument("--m-list", help="comma-separated ascending m values")

    p = sub.add_parser("demo", help="run a sweep and report the outcome")
    add_common(p)

    p = sub.add_parser("sweep", help="run a sweep and write a table")
    add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", "-o", help="output path")

    p = sub.add_parser("check-tame", help="check the uniform estimate on probes")
    add_common(p)
    p.add_argument("--probes", required=True, help="JSON probe file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        # a value that overflows to inf, or the NaN made from it, is caught
        # where it is used and ends as PrecisionBudgetError (exit 65); numpy's
        # warning about it would only precede that error line
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "demo":
                return cmd_demo(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg)
            return cmd_check_tame(cfg, args.probes)
    except (ConfigError, DomainViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; the interpreter's exit flush would
        # raise again, so stdout goes to devnull (Python's signal docs,
        # "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OUTPUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
