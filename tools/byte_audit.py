#!/usr/bin/env python3
"""Record the exit code and the sha256 of every artifact of every golden job.

Usage, from the repository root::

    python3 tools/byte_audit.py OUT.json
    python3 tools/byte_audit.py --diff A.json B.json

Runs each job of ``perfbench.jobs.all_golden_jobs()`` once through
``roughstep.cli.main`` into a temporary directory and writes sorted JSON
``{job key: [exit code, [file, sha256], ...]}``.  Two trees that give the same
behaviour write the same file, so ``cmp`` of two such files is the audit.
``--diff`` runs no job: it prints one line per job whose exit code or any
file's sha256 differs between two such records, naming what differs, or
``identical``, and exits 1 or 0 accordingly.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs as joblib  # noqa: E402
from roughstep.cli import main as cli_main  # noqa: E402


def audit(key: str, subcommand: str, config: dict, work: Path) -> list:
    """``[exit code, [file, sha256], ...]`` of one job, files in sorted order."""
    cfg, out = work / f"{key.replace('/', '_')}.json", work / key
    cfg.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main([subcommand, "--config", str(cfg), "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    return [rc] + [[p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()]
                   for p in files]


def diff(a: dict, b: dict, names: list) -> list[str]:
    """One line per job of records ``a`` and ``b``, called ``names``, whose exit code
    or files differ."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {names[key in b]}")
            continue
        (rc_a, *files_a), (rc_b, *files_b) = a[key], b[key]
        sha_a, sha_b = dict(files_a), dict(files_b)
        what = [f"exit {rc_a} -> {rc_b}"] if rc_a != rc_b else []
        what += [f for f in sorted(sha_a.keys() | sha_b.keys()) if sha_a.get(f) != sha_b.get(f)]
        if what:
            lines.append(f"{key}: {', '.join(what)}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--diff":
        lines = diff(*(json.loads(Path(f).read_text()) for f in argv[1:]), argv[1:])
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    if len(argv) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        record = {job.key: audit(job.key, job.subcommand, job.config, Path(tmp))
                  for job in joblib.all_golden_jobs()}
    Path(argv[0]).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    n_files = sum(len(v) - 1 for v in record.values())
    print(f"{len(record)} jobs, {n_files} files written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
