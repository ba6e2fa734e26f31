"""Output checks of one pass, and the sha256 digests of what it wrote."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
    return h.hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under `root`."""
    root = Path(root)
    if not root.is_dir():
        return {}
    return {p.relative_to(root).as_posix(): file_sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def combined_digest(digests: dict[str, str]) -> str:
    """One sha256 over the sorted `path digest` lines."""
    lines = "".join(f"{path} {d}\n" for path, d in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_card(checks: dict) -> list[str]:
    agg = json.loads(Path(checks["card"]).read_text())["aggregate"]
    tol = checks.get("tol", 0.0)
    problems = []
    if "composite" in checks:
        got = agg["composite"]["mean"]
        if not abs(got - checks["composite"]) <= tol:
            problems.append(f"composite {got!r}, expected {checks['composite']!r}")
    for sid, want in checks.get("scores", {}).items():
        got = agg["scores"][sid]["mean"]
        if not abs(got - want) <= tol:
            problems.append(f"{sid} {got!r}, expected {want!r}")
    return problems


def _check_store(checks: dict) -> list[str]:
    board = json.loads(Path(checks["store"]).read_text())
    got = {ds: sorted(e["method"] for e in entries) for ds, entries in board["datasets"].items()}
    if got != checks["methods"]:
        return [f"store holds {sum(map(len, got.values()))} methods, "
                f"expected exactly the {sum(map(len, checks['methods'].values()))} scored"]
    return []


def check_command(cmd: dict, exit_code: int, crash: str | None) -> list[str]:
    """Problems with one command's exit code and outputs; empty when correct."""
    problems = []
    if crash:
        problems.append(f"raised {crash}")
    if exit_code != cmd["exit"]:
        problems.append(f"exit code {exit_code}, expected {cmd['exit']}")
    checks = cmd["checks"]
    try:
        if "card" in checks:
            problems += _check_card(checks)
        if "store" in checks:
            problems += _check_store(checks)
        missing = [f for f in checks.get("files", []) if not Path(f).is_file()]
        if missing:
            problems.append(f"{len(missing)} report files missing, first {missing[0]}")
        if "same_bytes" in checks:
            ours = tree_digests(Path(_argv_value(cmd["argv"], "--out")))
            if ours != tree_digests(Path(checks["same_bytes"])):
                problems.append(f"output differs from {checks['same_bytes']}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
