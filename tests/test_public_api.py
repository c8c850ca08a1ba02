import json
import os
import subprocess
import sys
from pathlib import Path

import chainplan
from chainplan.llm import fingerprint


def test_every_public_name_resolves():
    missing = [name for name in chainplan.__all__ if not hasattr(chainplan, name)]
    assert missing == []
    assert len(set(chainplan.__all__)) == len(chainplan.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from chainplan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(chainplan.__all__)


# Modules an offline run never uses: the HTTP/TLS client and OpenSSL's hashes.
HEAVY_MODULES = ("urllib.request", "http.client", "ssl", "hashlib", "_hashlib")

_LAZY_IMPORT_PROBE = '''
import json, sys
before = set(sys.modules)
import chainplan
loaded = sorted(set(sys.argv[1:]) & (set(sys.modules) - before))

from chainplan.llm import fingerprint, post_json
from chainplan.registry import fixture_tools_path, load_registry

vector = chainplan.HashEmbeddingProvider().embed("who am i")
version = load_registry(fixture_tools_path()).version
prompt_fingerprint = fingerprint("plan  it")
hashes = sorted({"hashlib", "_hashlib"} & set(sys.modules))

import urllib.request

class Response:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return b'{"patched": true}'

urllib.request.urlopen = lambda request, timeout: Response()
print(json.dumps({
    "loaded": loaded,
    "hashes": hashes,
    "vector": vector,
    "version": version,
    "fingerprint": prompt_fingerprint,
    "posted": post_json("http://127.0.0.1:9/unused", {}),
}))
'''


def test_import_loads_no_http_tls_or_openssl_hash_module():
    # a fresh interpreter: this one already holds hashlib and the HTTP client
    source = str(Path(chainplan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_PROBE, *HEAVY_MODULES], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    probe = json.loads(out.stdout)
    assert probe["loaded"] == []
    # embedding, the registry version and a fingerprint take SHA-256 from the
    # interpreter's built-in module, never from OpenSSL
    assert probe["hashes"] == []
    # each hash gives what the suite's pins give, and post_json
    # calls the urlopen in place when it runs, a patched one included
    assert probe["vector"] == chainplan.HashEmbeddingProvider().embed("who am i")
    assert probe["version"] == "395ebb18f33c"
    assert probe["fingerprint"] == fingerprint("plan  it")
    assert probe["posted"] == {"patched": True}
