"""Run every `analyze` command of the report corpus at seeds 0-19 and print
each one whose verdict or exit code depends on the seed.

    python tools/seed_census.py

A verdict should depend on the problem and the point, not on the sampling
seed.  Each `analyze` command of tools/report_corpus.py runs in-process,
as that script runs it, once per seed with `--seed S` appended.  Commands
that set their own seed (by flag or environment) are left out, and so is
the human twin of a `--json` command, which reports the same verdict and
exit code.  For each command whose (verdict, exit code) pair varies, the
script prints every pair with its count of seeds.  Always exits 0: it
reports, it does not judge.  Needs only the standard library and numpy.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import report_corpus  # noqa: E402  (puts the package's src on the path)
from clarke_kkt import cli  # noqa: E402

SEEDS = range(20)


def census_commands():
    """The corpus's analyze argv templates that the census runs, in corpus order."""
    templates = [argv for argv, env in report_corpus.commands()
                 if argv[0] == "analyze" and not env and not any(t.startswith("--seed") for t in argv)]
    return [argv for argv in templates if "--json" in argv or argv + ["--json"] not in templates]


def outcome(code, stdout):
    """(verdict, exit code) of one run; the verdict is '-' when no JSON report was written."""
    try:
        return json.loads(stdout)["verdict"], code
    except (ValueError, KeyError):
        return "-", code


def main():
    os.environ.pop(cli.SEED_ENV, None)
    start = time.perf_counter()
    templates = census_commands()
    varying = []
    with tempfile.TemporaryDirectory() as tmp:
        files = report_corpus._problem_files(Path(tmp))
        for template in templates:
            command = [token.format(**files) for token in template]
            counts = Counter(outcome(*report_corpus.run(command + ["--seed", str(seed)], {})[:2])
                             for seed in SEEDS)
            if len(counts) > 1:
                varying.append((" ".join(template), counts))
    print(f"seed census: {len(templates)} analyze commands at seeds {SEEDS[0]}-{SEEDS[-1]}, "
          f"{time.perf_counter() - start:.1f} s")
    for key, counts in varying:
        pairs = ", ".join(f"{verdict} (exit {code}) at {n}" for (verdict, code), n in counts.most_common())
        print(f"{key}: {pairs}")
    print(f"{len(varying)} of {len(templates)} commands vary with the seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
