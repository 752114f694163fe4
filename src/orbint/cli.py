"""Command-line front end: preset catalogue, evaluation commands, identity
suite, and deterministic JSON output.

Exit codes: 0 success, 2 validation error (including non-finite numbers,
numbers past the int-to-str digit limit, JSON input that is not UTF-8 or is
nested too deeply, and a result that overflows), 3 singular evaluation point (also
numerically: 0.0 as a root factor or denominator), 4 identity-suite or internal
consistency-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import (
    ConsistencyError, LimitPathError, ReconstructionError, SingularPointError, ValidationError,
)
from .ktrace import lds_character, lds_character_sum, tau_generator, tau_numerator, tau_value_to_json
from .realform import (
    LATTICES,
    KClass,
    RealFormSpec,
    build_real_form,
    generator_key,
    kclass_from_json,
    real_form,
)
from .rootsys import (
    Weight, build_datum, parse_rational, poincare_polynomial, positive_roots, weight_from_fundamental, weyl_group,
    weyl_order,
)
from .stable import continuity_check, formal_degree, lpacket_sum, stable_tau
from .tannaka import DIM_TOL, run_reconstruction
from .toruschar import (
    TorusPoint,
    _csum,
    negated_system,
    parse_torus_point,
    serialize_torus_point,
    transformed_system,
)

# argparse takes a value that starts with "-" and is not a plain number (such
# as -1,0) for an option, so such a value is given with "="
DASH_VALUE = "; a value that starts with - needs the = spelling, e.g. {}"

# Config fields, their defaults, and the type of value each one's command-line
# flag produces (a list's item type in a 1-tuple), in JSON order.
_CONFIG_FIELDS = {
    "preset": (None, str),
    "datum": (None, str),
    "matrix": (None, ((int,),)),
    "symmetrizer": (None, (str,)),
    "compact_indices": (None, (int,)),
    "spin_sign": (None, int),
    "lattice": (None, str),
    "verbosity": (0, int),
}


def _has_type(value, kind) -> bool:
    """``type(value) is kind`` (so a bool is no int), item by item for a list kind."""
    if isinstance(kind, tuple):
        return isinstance(value, list) and all(_has_type(item, kind[0]) for item in value)
    return type(value) is kind


class Config:
    """CLI configuration; accepted configs round-trip through JSON unchanged.
    Mutable: ``merge_args`` fills a copy in from the command line."""

    __slots__ = tuple(_CONFIG_FIELDS)

    def __init__(self, **fields):
        unknown = set(fields) - set(_CONFIG_FIELDS)
        if unknown:
            raise TypeError(f"unknown config fields {sorted(unknown)}")
        for name, (default, _) in _CONFIG_FIELDS.items():
            setattr(self, name, fields.get(name, default))

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    def replace(self, **changes) -> "Config":
        return Config(**{**self.to_json(), **changes})

    def __eq__(self, other):
        if other.__class__ is Config:
            return self.to_json() == other.to_json()
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.to_json().items())
        return f"Config({fields})"

    @staticmethod
    def from_json(data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValidationError(f"unknown config fields {sorted(unknown)}")
        for name, value in data.items():
            default, kind = _CONFIG_FIELDS[name]
            if not (_has_type(value, kind) or (value is None and default is None)):
                raise ValidationError(f"config field {name!r} has the wrong type: {value!r}")
        return Config(**data)


def load_config(path: str | None) -> Config:
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read config {path}: {err}") from err
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deeply
        raise ValidationError(f"config {path} is not valid JSON: {err}") from err
    return Config.from_json(data)


def merge_args(config: Config, args: argparse.Namespace) -> Config:
    out = config.replace()
    for field in ("preset", "datum", "spin_sign", "lattice"):
        value = getattr(args, field, None)
        if value is not None:
            setattr(out, field, value)
    if getattr(args, "matrix", None) is not None:
        out.matrix = _parse_matrix(args.matrix)
    if getattr(args, "symmetrizer", None) is not None:
        out.symmetrizer = [t.strip() for t in args.symmetrizer.split(",")]
    if getattr(args, "compact_indices", None) is not None:
        try:
            out.compact_indices = [int(t) for t in args.compact_indices.split(",") if t.strip()]
        except ValueError:
            raise ValidationError(f"--compact-indices must be integers: {args.compact_indices!r}") from None
    if getattr(args, "verbose", False):
        out.verbosity = max(out.verbosity, 1)
    return out


def _parse_matrix(text: str) -> list:
    rows = [r for r in text.split(";") if r.strip()]
    try:
        return [[int(x) for x in row.split(",")] for row in rows]
    except ValueError:
        raise ValidationError(f"--matrix entries must be integers: {text!r}") from None


def resolve_datum(config: Config):
    if config.matrix is not None:
        return build_datum(config.matrix, config.symmetrizer)
    if config.datum is not None:
        return build_datum(config.datum)
    if config.preset is not None:
        return resolve_spec(config).datum
    raise ValidationError("no Cartan datum given (use --type, --matrix, or a preset)")


def resolve_spec(config: Config) -> RealFormSpec:
    if config.preset is not None:
        spec = real_form(config.preset)
    elif config.compact_indices is not None:
        spec = build_real_form(
            resolve_datum(config.replace(preset=None, compact_indices=None)),
            config.compact_indices,
        )
    else:
        raise ValidationError("no real form given (use --preset or --compact-indices)")
    if config.spin_sign is not None:
        if config.spin_sign not in (1, -1):
            raise ValidationError("spin_sign must be +1 or -1")
        spec = spec._replace(spin_sign=int(config.spin_sign))
    if config.lattice is not None:
        if config.lattice not in LATTICES:
            raise ValidationError(f"unknown character lattice {config.lattice!r}")
        spec = spec._replace(lattice=config.lattice)
    return spec


def parse_weight(text: str) -> Weight:
    return weight_from_fundamental(t.strip() for t in text.split(",") if t.strip())


def parse_class(spec: RealFormSpec, args) -> KClass:
    if getattr(args, "kclass", None):
        try:
            data = json.loads(args.kclass)
        except (ValueError, RecursionError) as err:  # not JSON, an integer past the int-to-str limit, or nested too deeply
            raise ValidationError(f"--class is not valid JSON: {err}") from err
        return kclass_from_json(spec, data)
    if getattr(args, "lam", None):
        return KClass.generator(generator_key(spec, parse_weight(args.lam)))
    raise ValidationError("give --lambda or --class")


def emit(obj) -> None:
    try:
        text = jsonio.dumps(obj)
    except ValueError as err:  # a value that overflowed to inf or nan
        raise ValidationError(f"the result is not finite: {err}") from err
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_datum(config: Config, args) -> int:
    datum = resolve_datum(config)
    emit(
        {
            "name": datum.name,
            "rank": datum.rank,
            "cartan": [list(row) for row in datum.cartan],
            "symmetrizer": [str(d) for d in datum.symmetrizer],
            "positive_roots2": [list(r.coords2) for r in positive_roots(datum)],
            "weyl_order": weyl_order(datum),
        }
    )
    return 0


def cmd_weyl(config: Config, args) -> int:
    datum = resolve_datum(config)
    lengths = poincare_polynomial(datum)
    record = {
        "order": sum(lengths),
        "length_histogram": {str(k): count for k, count in enumerate(lengths)},
    }
    if config.verbosity:
        record["elements"] = [
            {"matrix": [list(row) for row in w.matrix], "sign": w.sign, "length": w.length}
            for w in weyl_group(datum)
        ]
    emit(record)
    return 0


def _tau_record(spec: RealFormSpec, lam: Weight, g: TorusPoint, verbose: bool) -> dict:
    key = generator_key(spec, lam)
    value = tau_generator(spec, key, g)
    record = {"lambda2": list(lam.coords2), "t": serialize_torus_point(g)}
    record.update(tau_value_to_json(value))
    if verbose:
        record["conditioning"] = value.conditioning
        numerator = tau_numerator(spec, key)
        record["numerator"] = {"route": numerator.route, "terms": len(numerator.terms.signs)}
    return record


def cmd_tau(config: Config, args) -> int:
    spec = resolve_spec(config)
    g = parse_torus_point(args.t)
    emit(_tau_record(spec, parse_weight(args.lam), g, bool(config.verbosity)))
    return 0


def cmd_stable(config: Config, args) -> int:
    spec = resolve_spec(config)
    g = parse_torus_point(args.t)
    x = parse_class(spec, args)
    emit({"t": serialize_torus_point(g), "value": stable_tau(spec, x, g)})
    return 0


def cmd_packet(config: Config, args) -> int:
    spec = resolve_spec(config)
    g = parse_torus_point(args.t)
    lam_hc = parse_weight(args.lam_hc)
    emit(
        {
            "Lambda2": list(lam_hc.coords2),
            "t": serialize_torus_point(g),
            "value": lpacket_sum(spec, lam_hc, g),
        }
    )
    return 0


def cmd_limit(config: Config, args) -> int:
    spec = resolve_spec(config)
    x = parse_class(spec, args)
    # a ray direction, exact and not reduced mod 2: 0.1 is 1/10, 2 is no torus point
    direction = [parse_rational(t) for t in args.direction.split(",") if t.strip()]
    report = continuity_check(spec, x, direction)
    try:
        extrapolated, deviation = complex(report.limit), float(report.deviation)
    except OverflowError as err:  # an exact limit past the float range
        raise ValidationError(f"the result is not finite: {err}") from err
    emit(
        {
            "direction": [str(c) for c in direction],
            "limit": report.limit,
            "extrapolated": extrapolated,
            "tau_e": report.tau_e_value,
            "deviation": deviation,
            "passed": report.passed,
        }
    )
    return 0


def _parse_systems(spec: RealFormSpec, text: str):
    pos = spec.positive_system
    group = None  # built only for a w<k> token
    systems = []
    for token in (t.strip() for t in text.split(",") if t.strip()):
        if token in ("id", "+"):
            systems.append(pos)
        elif token in ("neg", "-"):
            systems.append(negated_system(pos))
        elif token.startswith("w") and token[1:].isdigit():
            index = int(token[1:])
            group = group or weyl_group(spec.datum)
            if index >= group.order:
                raise ValidationError(f"element index {index} out of range")
            systems.append(transformed_system(group.elements[index], pos))
        else:
            raise ValidationError(f"unknown positive-system token {token!r}")
    if not systems:
        raise ValidationError("no positive systems given")
    return systems


def cmd_schmid(config: Config, args) -> int:
    spec = resolve_spec(config)
    g = parse_torus_point(args.t)
    lam_hc = parse_weight(args.lam_hc)
    systems = _parse_systems(spec, args.systems)
    terms = [lds_character(spec, lam_hc, system, g) for system in systems]
    emit(
        {
            "Lambda2": list(lam_hc.coords2),
            "t": serialize_torus_point(g),
            "terms": terms,
            "value": _csum(terms),
        }
    )
    return 0


def cmd_tannaka(config: Config, args) -> int:
    spec = resolve_spec(config)
    keys = [
        generator_key(spec, parse_weight(token))
        for token in args.lambdas.split(";")
        if token.strip()
    ]
    report = run_reconstruction(
        spec, keys, axis_count=args.axis_count, weight_bound=args.bound,
        candidate_bound=args.candidate_bound,
    )
    record = {
        "labels": [list(lab.coords2) for lab in report.labels],
        "dims": [{"lambda2": list(lab.coords2), "dim": report.dims[lab]} for lab in report.labels],
        "reference_label2": list(report.reference_label.coords2),
        "highest_weights": [
            {"lambda2": list(lab.coords2), "weight2": list(report.highest_weights[lab].coords2)}
            for lab in report.labels
        ],
        "noncompact_weights2": sorted([list(w.coords2) for w in report.noncompact_weights]),
        "noncompact_residual": report.noncompact_residual,
        "spin_power": report.spin_power,
    }
    if config.verbosity:
        record["dim_margin"] = report.dims.margin  # the worst |raw - round(raw)| / DIM_TOL
        record["spinor_margin"] = report.noncompact_residual / DIM_TOL  # the same for the spinor's coefficients
    emit(record)
    return 0


def cmd_demo_sl2(config: Config, args) -> int:
    import math

    spec = real_form("sl2r")
    g = parse_torus_point(args.t)
    record = _tau_record(spec, Weight((0,)), g, bool(config.verbosity))  # refuses a singular t
    phi = 2 * math.pi * float(g.coords[0])
    expected = 1 / (2j * math.sin(phi))
    x = KClass.generator(generator_key(spec, Weight((0,))))
    pos = spec.positive_system
    emit(
        {
            "t": serialize_torus_point(g),
            "phi": phi,
            "tau": record,
            "expected": expected,
            "abs_error": abs(record["value"] - expected),
            "stable": stable_tau(spec, x, g),
            "lds_plus": lds_character(spec, Weight((0,)), pos, g),
            "lds_minus": lds_character(spec, Weight((0,)), negated_system(pos), g),
            "packet_sum": lds_character_sum(spec, Weight((0,)), [pos, negated_system(pos)], g),
            "formal_degree": formal_degree(spec, Weight((0,))),
        }
    )
    return 0


def cmd_check(config: Config, args) -> int:
    from .verify import run_checks  # only this command needs the identity suite

    names = [t.strip() for t in args.only.split(",")] if args.only else None
    presets = [config.preset] if config.preset else None
    results = run_checks(names, presets)
    for r in results:
        sys.stderr.write(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f} s): {r.detail}\n")
    emit(
        {
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
    )
    return 0 if all(r.passed for r in results) else 4


# ---------------------------------------------------------------------------

def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="real-form preset (sl2r, su21, sp4r, compact(X))")
    parser.add_argument("--type", dest="datum", help="Cartan type name, e.g. A2")
    parser.add_argument("--matrix", help="explicit Cartan matrix, rows ; separated")
    parser.add_argument("--symmetrizer", help="comma-separated positive rationals")
    parser.add_argument("--compact-indices", dest="compact_indices",
                        help="comma-separated indices into all_roots(datum)")
    parser.add_argument("--spin-sign", dest="spin_sign", type=int, choices=(1, -1))
    parser.add_argument("--lattice", choices=("spin_descent", "integral"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbint",
        description="Orbital-integral functionals on K-theory generators from root data",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, spec: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if spec:
            _add_spec_options(p)
        p.set_defaults(func=func)
        return p

    command("datum", cmd_datum, "describe a Cartan datum")
    command("weyl", cmd_weyl, "Weyl group summary")

    p = command("tau", cmd_tau, "orbital-integral value on one generator")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="generator highest weight, fundamental coordinates" + DASH_VALUE.format("--lambda=-1,0"))
    p.add_argument("--t", required=True, help="torus point, e.g. 1/5 or 0.2,0.3")

    p = command("stable", cmd_stable, "stable orbital integral of a class")
    p.add_argument("--lambda", dest="lam", help="single-generator class" + DASH_VALUE.format("--lambda=-1,0"))
    p.add_argument("--class", dest="kclass", help="JSON list of {lambda2, coeff}")
    p.add_argument("--t", required=True)

    p = command("packet", cmd_packet, "L-packet character sum at a parameter")
    p.add_argument("--Lambda", dest="lam_hc", required=True,
                   help="Harish-Chandra parameter, fundamental coordinates")
    p.add_argument("--t", required=True)

    p = command("limit", cmd_limit, "near-identity limit of the stable integral")
    p.add_argument("--lambda", dest="lam", help="single-generator class" + DASH_VALUE.format("--lambda=-1,0"))
    p.add_argument("--class", dest="kclass", help="JSON list of {lambda2, coeff}")
    p.add_argument("--direction", required=True,
                   help="ray direction, rationals or decimals taken exactly, e.g. 1,2/3 or 0.4,1")

    p = command("schmid", cmd_schmid, "sum of characters over positive systems")
    p.add_argument("--Lambda", dest="lam_hc", required=True)
    p.add_argument("--systems", default="id",
                   help="comma list of id|neg|w<k> (w<k>: k-th Weyl element applied to R+)")
    p.add_argument("--t", required=True)

    p = command("tannaka", cmd_tannaka, "synthesize a tau-family and reconstruct it")
    p.add_argument("--lambdas", required=True,
                   help="semicolon-separated generator weights, e.g. 0,0;1,0;0,1"
                   + DASH_VALUE.format("--lambdas=-1,0;0,0"))
    p.add_argument("--axis-count", dest="axis_count", type=int, default=None)
    p.add_argument("--bound", type=int, default=None,
                   help="highest-weight search box (default: min(6, (axis count - 1) // 2))")
    p.add_argument("--candidate-bound", dest="candidate_bound", type=int, default=3)

    p = command("demo-sl2", cmd_demo_sl2, "the rank-one worked example end to end", spec=False)
    p.add_argument("--t", default="1/5")

    p = command("check", cmd_check, "run the identity suite", spec=False)
    p.add_argument("--preset", help="restrict preset-dependent checks to one preset")
    p.add_argument("--only", help="comma-separated check names")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse before 3.12 reads "--flag=--" as an empty list
        parser.error("an option was given '--' as its value")
    try:
        config = merge_args(load_config(args.config), args)
        return args.func(config, args)
    except SingularPointError as err:
        sys.stderr.write(f"singular evaluation point: {err}\n")
        return 3
    except LimitPathError as err:
        sys.stderr.write(f"singular limit path: {err}\n")
        return 3
    except (ValidationError, ReconstructionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ConsistencyError as err:
        sys.stderr.write(f"consistency check failed: {err}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
