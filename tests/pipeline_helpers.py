"""Running a whole setting in one call, which only the tests do."""

from pathlib import Path

from o2olab import runner


def run_pipeline(config: runner.ExperimentConfig, jobs: int = 1) -> Path:
    """Run every stage in order, generating the dataset only when there is
    none; returns the analysis file's path."""
    if not runner.Paths(config).dataset.exists():
        runner.cmd_gen_data(config)
    runner.cmd_pretrain(config, jobs=jobs)
    runner.cmd_classify(config)
    runner.cmd_finetune(config, jobs=jobs)
    return runner.cmd_report(config)
