"""Paths and exact-value encoding shared by the benchmark's scripts."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

WORKLOADS = ("pairs", "large", "quantitative")


def use_checkout_source() -> None:
    """Import mpcalc from this checkout's src/ and nowhere else.

    Exits with status 2 when the sources are missing, so a copy of the
    benchmark without the program fails instead of measuring something
    installed elsewhere.
    """
    if not (SOURCE / "mpcalc" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mpcalc sources under {SOURCE}\n")
        sys.exit(2)
    if sys.path[:1] != [str(SOURCE)]:
        sys.path.insert(0, str(SOURCE))


def frac(value) -> str:
    """Exact text form of a rational, as the parser and Fraction read it."""
    return str(Fraction(value))


def fracs(values) -> list[str] | None:
    return None if values is None else [frac(v) for v in values]


def theta_of(texts) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in texts)
