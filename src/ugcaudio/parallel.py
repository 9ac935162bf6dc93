"""The package's one worker count, shared by every thread pool it runs.

`pipeline.fingerprint_clips` fingerprints WORKERS clips at once, and
`match_classifier.double_cv` predicts WORKERS k-NN folds at once. Both read
`parallel.WORKERS` when they run, so one assignment changes both.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


# One per CPU this process may run on, at most 2. The work handed to the
# pools runs in numpy calls that release the interpreter lock. Each
# fingerprint worker holds one more clip and its working set: on the
# perfbench organise workload, peak RSS is 90 MB with 2 workers and 103 MB
# with 4.
WORKERS = min(2, available_cpus())
