"""Command line driver for the staged feature-selection pipeline.

Usage errors (bad flags, bad config, malformed input schema) exit with
code 2; runtime failures (missing artifacts, held locks, numeric aborts)
exit with 1. Artifact paths are printed to stdout, progress to stderr.
"""

import sys

import click

from . import __version__, pipeline
from .baselines import METHODS
from .data import DataError
from .pipeline import ConfigError, RunConfig, load_config_file, resolve_config


def _config(ctx) -> RunConfig:
    params = ctx.obj
    try:
        file_values = (load_config_file(params["config"])
                       if params["config"] else None)
        overrides = {}
        for key in ("seed", "out_dir"):
            if params[key] is not None:
                overrides[key] = params[key]
        cfg = resolve_config(file_values, overrides)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from None
    return cfg


def _run(cfg, stage_fn, *args, **kwargs):
    """Run one stage, print its artifact paths, map failures to exit codes."""
    try:
        result = stage_fn(cfg, *args, **kwargs)
    except (DataError, ConfigError) as exc:
        raise click.UsageError(str(exc)) from None
    except click.ClickException:
        raise
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for artifact in result if isinstance(result, list) else [result]:
        click.echo(str(artifact))


@click.group()
@click.option("--config", "config", type=click.Path(), default=None,
              envvar="GANFS_CONFIG",
              help="JSON run configuration (also via $GANFS_CONFIG).")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Run directory for artifacts and the manifest.")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, config, seed, out_dir):
    """Rank flow features by discriminator sensitivity and benchmark them."""
    ctx.ensure_object(dict)
    ctx.obj.update(config=config, seed=seed, out_dir=out_dir)


@main.command()
@click.argument("inputs", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def preprocess(ctx, inputs):
    """Clean raw flow CSVs into normalized train/test artifacts."""
    _run(_config(ctx), pipeline.preprocess_stage, inputs)


@main.command(name="train-gan")
@click.pass_context
def train_gan_cmd(ctx):
    """Train the adversarial pair on the attack rows of the train set."""
    cfg = _config(ctx)

    def progress(log):
        if log.epoch == 1 or log.epoch % 50 == 0 or log.epoch == cfg.epochs:
            click.echo(
                f"epoch {log.epoch}/{cfg.epochs} "
                f"d_real {log.d_loss_real:.4f} d_fake {log.d_loss_fake:.4f} "
                f"g {log.g_loss:.4f} d_acc {log.d_accuracy:.3f}", err=True)

    _run(cfg, pipeline.train_gan_stage, progress=progress)


@main.command()
@click.pass_context
def rank(ctx):
    """Write the sensitivity ranking from the trained discriminator."""
    _run(_config(ctx), pipeline.rank_stage)


@main.command()
@click.option("--method", required=True, type=click.Choice(METHODS),
              help="Classical selector to rank with.")
@click.pass_context
def baseline(ctx, method):
    """Rank features with a classical selector for comparison."""
    _run(_config(ctx), pipeline.baseline_stage, method)


@main.command()
@click.pass_context
def evaluate(ctx):
    """Benchmark every ranking in the run directory on the test split."""
    _run(_config(ctx), pipeline.evaluate_stage)


@main.command()
@click.pass_context
def report(ctx):
    """Summarize rankings and metrics into a markdown report."""
    _run(_config(ctx), pipeline.report_stage)


@main.command()
@click.option("--n", type=int, default=1000, show_default=True,
              help="Number of records to generate.")
@click.pass_context
def synth(ctx, n):
    """Sample synthetic attack records from the trained generator."""
    _run(_config(ctx), pipeline.synth_stage, n)


if __name__ == "__main__":
    main()
