"""Answer gate: every CLI call's output against reference fingerprints.

The reference (``reference.json``, written by ``record_reference.py``) maps
each call's answer key to the exit code, the sha256 of stdout and the
answer fields: min_diameter, witness_total and candidates_examined for a
search, the check and failure counts for a verify sweep.  The answer key
drops ``--workers``, so a parallel search is held to the serial search's
stdout byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def answer_key(argv: list[str]) -> str:
    kept: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == "--workers":
            skip = True
        else:
            kept.append(token)
    return " ".join(kept)


def fingerprint(argv: list[str], exit_code: int, stdout: bytes) -> dict:
    fp: dict = {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest()}
    try:
        if argv[0] == "search":
            payload = json.loads(stdout)
            for field in ("min_diameter", "witness_total", "candidates_examined"):
                fp[field] = payload[field]
        elif argv[0] == "verify":
            # Last line: "<claim>: <checks> checks, <failures> failures"
            words = stdout.decode().strip().splitlines()[-1].split()
            fp["checks"], fp["failures"] = int(words[1]), int(words[3])
    except (ValueError, KeyError, IndexError) as exc:
        fp["unparsed"] = f"{type(exc).__name__}: {exc}"
    return fp


def items(fp: dict) -> int:
    """Work a call did: candidates examined by a search, checks by a sweep."""
    return fp.get("candidates_examined", fp.get("checks", 0))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def mismatch(reference: dict, argv: list[str], fp: dict) -> str | None:
    """None when the call's fingerprint equals the reference, else why not."""
    key = answer_key(argv)
    expected = reference.get(key)
    if expected is None:
        return f"{key}: no reference fingerprint"
    diffs = [
        f"{field} {fp.get(field)!r} != {expected.get(field)!r}"
        for field in sorted(set(expected) | set(fp))
        if fp.get(field) != expected.get(field)
    ]
    return f"{key}: " + "; ".join(diffs) if diffs else None
