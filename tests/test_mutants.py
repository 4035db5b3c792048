"""The mutant catalogue in tests/mutants.py is current: each entry's text
occurs once in its file, its kill tests exist, and the runner's per-mutant
timeout over all the mutants to kill fits the CI job that runs them."""

import re

import pytest

import mutants

WORKFLOW = mutants.ROOT / ".github" / "workflows" / "tests.yml"


def job_timeout_minutes(job: str) -> int:
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"  {job}:")
    for line in lines[start + 1 :]:
        if re.match(r"  \S", line):
            break
        found = re.fullmatch(r"    timeout-minutes: (\d+)", line)
        if found:
            return int(found.group(1))
    raise AssertionError(f"job {job} sets no timeout-minutes")


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_entry_is_current(mutant):
    assert mutants.stale(mutant) is None
    assert mutant.text != mutant.replacement
    # a mutant is killed by named tests, or equivalent for a stated reason
    assert bool(mutant.kill) != bool(mutant.equivalent)
    for target in mutant.kill:
        assert (mutants.ROOT / target.split("::")[0]).is_file(), target


def test_names_are_unique():
    names = [m.name for m in mutants.CATALOGUE]
    assert len(names) == len(set(names))


def test_timeouts_fit_the_ci_job():
    killable = sum(1 for m in mutants.CATALOGUE if m.kill)
    assert killable * mutants.TIMEOUT < job_timeout_minutes("mutants") * 60
