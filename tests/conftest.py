from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from advforge import synth


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    """60 synthetic PE files, built without touching the serializer."""
    out = tmp_path_factory.mktemp("corpus")
    synth.write_corpus(out, 60, seed=7)
    return out


@pytest.fixture(scope="session")
def corpus_files(corpus_dir) -> list[Path]:
    return sorted(corpus_dir.iterdir())


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


class StubHandler(BaseHTTPRequestHandler):
    """Scripted /score endpoint; behavior keyed by request path."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if self.path == "/score":
            body = json.dumps({"score": 0.25}).encode()
        elif self.path == "/echo-size":
            body = json.dumps({"score": min(length / 10000.0, 1.0)}).encode()
        elif self.path == "/missing":
            body = json.dumps({"confidence": 0.9}).encode()
        elif self.path == "/notjson":
            body = b"plainly not json"
        elif self.path == "/outofrange":
            body = json.dumps({"score": 3.5}).encode()
        elif self.path == "/boom":
            self.send_response(500)
            self.end_headers()
            return
        elif self.path == "/slow":
            time.sleep(1.0)
            body = json.dumps({"score": 0.25}).encode()
        else:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def handle(self):
        try:
            super().handle()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and hung up before the reply

    def log_message(self, fmt, *args):
        pass


@pytest.fixture(scope="module")
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
