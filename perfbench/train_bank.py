"""Train one market seed's revpred bank the program's way.

    python3 perfbench/train_bank.py <bank-root> <seed>

``run.py`` starts one of these per prepared seed, once per checkout.
The last line of standard output is one JSON object:
``{"seed": 0, "seconds": 91.2, "trainings": 1}``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    bank_root, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    from repro.analysis.context import build_context
    from repro.sweep.banks import BankCache

    started = time.monotonic()
    context = build_context(seed, bank_cache=BankCache(bank_root))
    context.revpred_bank
    print(
        json.dumps(
            {
                "seed": seed,
                "seconds": time.monotonic() - started,
                "trainings": context.bank_trainings,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
