"""Command-line front end: set generators, analyses, verification campaigns.

Exit codes: 0 success, 1 campaign found a hard counterexample, 2 bad input
(malformed .fset or config, invalid flags).  Integers print exactly; reals
print with 6 significant digits.  Reports and .fset files are written only
after the computation that fills them has finished, so a failing run leaves
no partial output behind.
"""

from __future__ import annotations

import sys
from functools import wraps

import click

from .directions import direction_set, sort_directions
from .errors import ConfigError, NumericalInconsistencyError, SizeCapError
from .generators import FAMILIES, GENERATOR_NAMES
from .harness import GENERATORS, KINDS, MODES, CampaignConfig, check_salem_threshold, run_campaign, write_report
from .incidence import nu_brute, nu_spectral, nu_sweep
from .pointset import format_fset, read_fset, write_fset
from .salem import difference_profile, salem_report

# ConfigError and FsetParseError are ValueErrors
_INPUT_ERRORS = (SizeCapError, NumericalInconsistencyError, ValueError, OSError)


def _guarded(func):
    """Input and consistency errors exit 2 with a one-line message."""

    @wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _join(vec) -> str:
    return ",".join(str(c) for c in vec)


@click.group()
def main() -> None:
    """Exact direction-set and Fourier experiments over prime-field grids."""


@main.command("gen")
@click.option("--family", type=click.Choice(GENERATOR_NAMES), required=True)
@click.option("--q", type=int, default=None, help="Field modulus (prime).")
@click.option("--d", type=int, default=None, help="Ambient dimension.")
@click.option("--k", type=int, default=None, help="Subspace dimension.")
@click.option("--m", type=int, default=None, help="Containing-subspace dimension (subspace-random).")
@click.option("--n", type=int, default=None, help="Number of points to draw.")
@click.option("--seed", type=int, default=None, help="Draw seed.")
@click.option("--shift", default=None, help="Translation vector, comma-separated (affine-subspace).")
@click.option("--in", "in_path", type=click.Path(), default=None, help="Base .fset to embed (embedded).")
@click.option("--out", type=click.Path(), default=None, help="Output .fset path (default stdout).")
@_guarded
def gen_cmd(family, q, d, k, m, n, seed, shift, in_path, out) -> None:
    """Write a generated point set in .fset form."""
    provided = {
        name: value
        for name, value in (
            ("q", q), ("d", d), ("k", k), ("m", m), ("n", n),
            ("seed", seed), ("shift", shift), ("in", in_path),
        )
        if value is not None
    }
    generate, wanted = FAMILIES[family]
    missing = [p for p in wanted if p not in provided]
    extra = [p for p in provided if p not in wanted]
    if missing:
        raise ConfigError(f"family {family} needs --{', --'.join(missing)}")
    if extra:
        raise ConfigError(f"family {family} does not take --{', --'.join(extra)}")
    convert = {"shift": _parse_vector, "in": read_fset}
    E = generate(*(convert.get(p, int)(provided[p]) for p in wanted))
    if out is None:
        click.echo(format_fset(E), nl=False)
    else:
        write_fset(E, out)


@main.command("directions")
@click.option("--in", "in_path", type=click.Path(), required=True, help="Input .fset file.")
@click.option("--list", "show_list", is_flag=True, help="Also print the canonical representatives.")
@_guarded
def directions_cmd(in_path, show_list) -> None:
    """Print |D(E)|, the number of directions the set determines."""
    E = read_fset(in_path)
    dirs = direction_set(E)
    click.echo(str(len(dirs)))
    if show_list:
        for vec in sort_directions(dirs, E.q):
            click.echo(" ".join(str(c) for c in vec))


@main.command("nu")
@click.option("--in", "in_path", type=click.Path(), required=True, help="Input .fset file.")
@click.option("--k", type=int, required=True, help="Slope length, 1 <= k <= d-1.")
@click.option("--t", "slope_text", default=None, help="Slope tuple, comma-separated; omit to sweep all.")
@click.option("--method", type=click.Choice(("spectral", "brute")), default="spectral", show_default=True)
@_guarded
def nu_cmd(in_path, k, slope_text, method) -> None:
    """Count ordered pairs whose difference follows a slope tuple."""
    E = read_fset(in_path)
    count = nu_spectral if method == "spectral" else nu_brute
    if slope_text is not None:
        slope = _parse_vector(slope_text)
        if len(slope) != k:
            raise ConfigError(f"slope {slope_text!r} has {len(slope)} entries, expected k = {k}")
        if any(not 0 <= t < E.q for t in slope):
            raise ConfigError(f"slope entries must lie in [0, {E.q})")
        rep = count(E, slope)
        click.echo(f"slope {_join(rep.slope)}")
        click.echo(f"nu {rep.nu}")
        click.echo(f"nu_nondegenerate {rep.nu_nondegenerate}")
        click.echo(f"main_term {rep.main_term}")
        click.echo(f"diagonal_term {rep.diagonal_term}")
        click.echo(f"remainder {rep.remainder:.6g}")
        return
    for rep in nu_sweep(E, k, method):
        click.echo(
            f"slope={_join(rep.slope)} nu={rep.nu} "
            f"nondegenerate={rep.nu_nondegenerate} remainder={rep.remainder:.6g}"
        )


@main.command("salem")
@click.option("--in", "in_path", type=click.Path(), required=True, help="Input .fset file.")
@click.option(
    "--threshold", default=CampaignConfig.salem_threshold, show_default=True, help="Flatness classification bound."
)
@_guarded
def salem_cmd(in_path, threshold) -> None:
    """Print the measured spectral-flatness constant of a set."""
    check_salem_threshold(threshold)
    rep = salem_report(read_fset(in_path))
    click.echo(f"q {rep.q}")
    click.echo(f"d {rep.dim}")
    click.echo(f"size {rep.set_size}")
    click.echo(f"max_nonzero_coeff {rep.max_nonzero_coeff:.6g}")
    click.echo(f"salem_constant {rep.salem_constant:.6g}")
    click.echo(f"threshold {threshold:.6g}")
    click.echo(f"salem {'true' if rep.is_salem_at(threshold) else 'false'}")


@main.command("diff")
@click.option("--in", "in_path", type=click.Path(), required=True, help="Input .fset file.")
@_guarded
def diff_cmd(in_path) -> None:
    """Print difference-multiplicity statistics of a set."""
    E = read_fset(in_path)
    prof = difference_profile(E)
    click.echo(f"q {prof.q}")
    click.echo(f"d {prof.dim}")
    click.echo(f"size {E.cardinality}")
    click.echo(f"support {prof.support_size}")
    click.echo(f"total {prof.total}")
    click.echo(f"mu_zero {prof.mu_of((0,) * prof.dim)}")
    click.echo(f"max_multiplicity {prof.max_multiplicity()}")


def _finish_campaign(result, out_prefix: str | None) -> None:
    if out_prefix is not None:
        for fmt in ("csv", "json"):
            path = f"{out_prefix}.{fmt}"
            write_report(result, fmt, path)
            click.echo(f"wrote {path}")
    click.echo(f"campaign {result.kind}")
    click.echo(f"rows {len(result.rows)}")
    click.echo(f"hard_failures {result.hard_failure_count}")
    click.echo(f"soft_flags {result.soft_flag_count}")
    for record in result.counterexamples[:10]:
        where = f"q={record['q']} d={record['d']} k={record['k']} size={record['size']}"
        trial = "" if record["trial"] is None else f" trial={record['trial']}"
        click.echo(f"counterexample {record['severity']} {record['reason']} {where}{trial}")
    if len(result.counterexamples) > 10:
        click.echo(f"... {len(result.counterexamples) - 10} more in the JSON report")
    click.echo(f"ok {'true' if result.ok else 'false'}")
    sys.exit(0 if result.ok else 1)


def _config_option(key: str, **kwargs):
    """The verify option named by config key `key`, defaulting to CampaignConfig's class attribute."""
    default = getattr(CampaignConfig, key)
    return click.option(f"--{key.replace('_', '-')}", default=default, show_default=True, **kwargs)


# Every option but --out sets one config key: --campaign sets kind, --size sizes, the rest their own.
@main.command("verify")
@click.option("--campaign", "kind", type=click.Choice(KINDS), required=True)
@click.option("--q", type=int, multiple=True, required=True)
@click.option("--d", type=int, multiple=True, required=True)
@click.option("--k", type=int, multiple=True)
@click.option("--size", "sizes", multiple=True, help="Size or expression in q, d, k; repeatable.")
@_config_option("trials")
@_config_option("seed")
@_config_option("mode", type=click.Choice(MODES))
@_config_option("generator", type=click.Choice(GENERATORS))
@_config_option("salem_threshold")
@_config_option("ratio_floor")
@click.option("--out", "out_prefix", type=click.Path(), default=None, help="Report path prefix.")
@_guarded
def verify_cmd(out_prefix, **keys) -> None:
    """Run one verification campaign from command-line flags."""
    _finish_campaign(run_campaign(CampaignConfig.from_mapping(keys)), out_prefix)


@main.command("sweep")
@click.argument("config_file", type=click.Path())
@click.option("--out", "out_prefix", type=click.Path(), default=None, help="Override the config's output prefix.")
@_guarded
def sweep_cmd(config_file, out_prefix) -> None:
    """Run the campaign described by a JSON config file."""
    config = CampaignConfig.from_file(config_file)
    _finish_campaign(run_campaign(config), out_prefix or config.output)


if __name__ == "__main__":
    main()
