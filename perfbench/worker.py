"""Stand-in sample generator run by ``forge harness run`` as a worker.

    python3 worker.py GENERATOR INPUT_DIR OUTPUT_DIR LOG_FILE

Writes ``<sha256 of input>.bin`` for every input and one log line per
file, ``<name> <unix time>``, which the benchmark reads back to measure
how long the harness takes to notice a finished worker.  It imports
nothing from advforge, so a worker costs one interpreter start-up.
"""

import hashlib
import sys
import time
from pathlib import Path

PAD_TEXT = (b"Portable runtime strings: locale, charset, terminal, console. "
            b"Copyright respective owners. All rights reserved. ")
STAMP_BLOCKS = 16


def transform(generator: str, data: bytes) -> bytes:
    """The generator's output for one input: new overlay bytes only, so the
    result stays a valid PE."""
    if generator == "padder":
        size = len(data) // 4
        return data + (PAD_TEXT * (size // len(PAD_TEXT) + 1))[:size]
    if generator == "stamper":
        digest = hashlib.sha256(data).digest()
        blocks = []
        for _ in range(STAMP_BLOCKS):
            digest = hashlib.sha256(digest).digest()
            blocks.append(digest)
        return data + b"".join(blocks)
    raise ValueError(f"unknown generator {generator!r}")


def main(argv) -> int:
    generator, input_dir, output_dir, log_file = argv
    with open(log_file, "a") as log:
        for path in sorted(Path(input_dir).iterdir()):
            data = path.read_bytes()
            name = hashlib.sha256(data).hexdigest() + ".bin"
            (Path(output_dir) / name).write_bytes(transform(generator, data))
            log.write(f"{path.name} {time.time():.6f}\n")
            log.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
