"""The benchmark's input space: which designs, sizes, stimuli and faults
each workload draws from.  Every pool is finite so that
``reference.json`` can hold the exact simulated counts of each member;
a run's ``--seed`` only chooses the order in which members are drawn.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

from repro.apps.registry import CASE_BUILDERS, suite_case
from repro.compiler.pipeline import compile_function
from repro.core.kernelcache import datapath_digest, fsm_digest

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

APPS = tuple(CASE_BUILDERS)

#: regress-cold: the compile-option grid the structures are drawn from
OPT_LEVELS = (0, 1, 2)
CHAIN_LIMITS = (0, 1, 2, 3)
SHARING = ("none", "expensive", "all")
#: stimulus seed every regress-cold verification uses
COLD_STIMULUS = 0

#: soak-warm: the Table I sizes of ``BENCH_suite.json``
TABLE1_SIZES: Dict[str, dict] = {
    "fdct1": {"pixels": 32768}, "fdct2": {"pixels": 8192},
    "idct": {"pixels": 8192}, "hamming": {"n_words": 8192},
    "fir": {"n_out": 4096, "taps": 8}, "matmul": {"n": 20},
    "threshold": {"n_pixels": 16384}, "popcount": {"n_words": 8192},
}
SOAK_BACKENDS = ("compiled", "traced", "batched")
#: stimulus sets per batched dispatch
SOAK_BATCH = 4
#: stimulus seeds per app whose counts the reference holds
SOAK_SEEDS = 48
#: stimulus seed the set-up warms the kernels with (outside the pool)
WARMUP_SEED = 1_000_000

#: serve-open: the serve bench sizes of ``BENCH_serve.json``
SERVE_SIZES: Dict[str, dict] = {
    "fdct1": {"pixels": 1024}, "fdct2": {"pixels": 512},
    "idct": {"pixels": 512}, "hamming": {"n_words": 512},
    "fir": {"n_out": 256, "taps": 8}, "matmul": {"n": 8},
    "threshold": {"n_pixels": 1024}, "popcount": {"n_words": 512},
}
#: enough new seeds per app for 20 requests/s over 40 s
SERVE_SEEDS = 64

#: fault-campaign: repro.inject faultload pools and seed mutant pools
INJECT_APPS = ("fdct1", "hamming", "threshold")
INJECT_KINDS = ("stuck", "reg_flip", "mem_flip")
INJECT_POOL = 240
INJECT_POOL_SEED = 2005
INJECT_HANG_FACTOR = 4
MUTANT_APPS = ("threshold", "hamming")
#: ``core.faults.enumerate_faults(limit_per_kind=...)``
MUTANT_LIMIT_PER_KIND = 24
#: cycle cap for each mutant's verification (the unmutated designs
#: finish in under 2.2k cycles; a hanging mutant stops here)
MUTANT_MAX_CYCLES = 20_000
#: stimulus seed of every fault-campaign verification
FAULT_STIMULUS = 0


def compile_structure(app: str, opt: int, chain: int, sharing: str):
    case = suite_case(app)
    design = compile_function(
        case.func, case.arrays, dict(case.params), name=app,
        opt_level=opt, chain_limit=chain, n_partitions=case.n_partitions,
        sharing=sharing)
    return case, design


def structure_id(app: str, opt: int, chain: int, sharing: str) -> str:
    return f"{app}/o{opt}/c{chain}/{sharing}"


def parse_structure(ident: str) -> Tuple[str, int, int, str]:
    app, opt, chain, sharing = ident.split("/")
    return app, int(opt[1:]), int(chain[1:]), sharing


def structure_digest(design) -> str:
    blob = "".join(datapath_digest(config.datapath) + fsm_digest(config.fsm)
                   for config in design.configurations)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def distinct_structures() -> List[str]:
    """Every grid point whose compiled structure is new (first wins)."""
    seen: Dict[str, str] = {}
    for app, opt, chain, sharing in itertools.product(
            APPS, OPT_LEVELS, CHAIN_LIMITS, SHARING):
        _, design = compile_structure(app, opt, chain, sharing)
        seen.setdefault(structure_digest(design),
                        structure_id(app, opt, chain, sharing))
    return list(seen.values())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def shuffled(items, seed: int, salt: str) -> list:
    items = list(items)
    random.Random(f"{salt}:{seed}").shuffle(items)
    return items
