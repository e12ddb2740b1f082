"""Loopback stand-in for a remote classifier, speaking forge's HTTP scorer
protocol: POST the file bytes, read back ``{"score": <float>}``.

    python3 classifier.py SCORES_JSON

SCORES_JSON maps sha256 to the score precomputed at set-up; an unknown
body gets 404.  The server binds 127.0.0.1 on a free port, prints the
port on one line, and serves until terminated.
"""

import hashlib
import json
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer


def main(argv) -> int:
    with open(argv[0]) as fh:
        table = json.load(fh)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            score = table.get(hashlib.sha256(body).hexdigest())
            if score is None:
                self.send_error(404)
                return
            payload = json.dumps({"score": score}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
