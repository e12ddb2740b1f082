"""In-process verdict service for ``forge verdicts --service
verdict_service:make_service``.

Lookups always miss, so every new sample costs quota; each submission
completes on its first poll with a 60-engine report.  ``make_service``
records the instances it creates in ``created`` so the benchmark can read
their call counts after ``forge`` returns.
"""

import hashlib
import time

from advforge import scoring

ENGINES = tuple(f"engine{i:02d}" for i in range(60))
TOP_GROUP = ENGINES[:8]

created = []


def report_for(sha256: str, fetched_at: float) -> scoring.MultiEngineReport:
    """A deterministic 60-engine report: which engines detect comes from
    the sample hash."""
    bits = int(hashlib.sha256(sha256.encode()).hexdigest(), 16)
    engines = {}
    for i, name in enumerate(ENGINES):
        detected = bool(bits >> i & 1)
        engines[name] = {"detected": detected,
                         "result": "Synthetic.Generic" if detected else None}
    return scoring.MultiEngineReport.from_engines(
        sha256, fetched_at, engines, top_group=TOP_GROUP)


class InstantService(scoring.VerdictService):
    def __init__(self):
        self.lookups = self.submits = self.polls = 0
        self.submitted = {}

    def lookup(self, sha256):
        self.lookups += 1
        return None

    def submit(self, sha256, data):
        self.submits += 1
        analysis_id = f"an-{sha256[:16]}"
        self.submitted[analysis_id] = sha256
        return analysis_id

    def poll(self, analysis_id):
        self.polls += 1
        return report_for(self.submitted[analysis_id], time.time())


def make_service():
    service = InstantService()
    created.append(service)
    return service
