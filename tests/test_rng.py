"""SHA-256 behind substream seeds and the config digest.

`rng` takes `sha256` from CPython's builtin SHA-2 module and falls back to
`hashlib` only on a build without one. Both must give the same bytes, and a
normal run must not load OpenSSL. pytest may import `hashlib` itself, so the
module checks run in a fresh interpreter.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_pipeline import base_config
from yieldtree.pipeline import config_from_dict
from yieldtree.rng import derive_seed

SRC = str(Path(__file__).resolve().parents[1] / "src")

# derive_seed's values from when it called hashlib.sha256 directly.
KNOWN_SEEDS = {(1, 0): 11990938716539812860, (7, "low_yield"): 15253059867979230836}

HASH_VALUES = """
import json, sys
from yieldtree.pipeline import config_from_dict
from yieldtree.rng import derive_seed
doc = json.loads(sys.argv[1])
print(json.dumps({
    "seeds": [derive_seed(*parts) for parts in doc["seeds"]],
    "config_digest": config_from_dict(doc["config"]).config_digest,
    "openssl": "_hashlib" in sys.modules,
}))
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _canonical_sha256(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


def test_derive_seed_known_answers():
    for parts, seed in KNOWN_SEEDS.items():
        assert derive_seed(*parts) == seed


def test_config_digest_is_sha256_of_canonical_json(tmp_path):
    doc = base_config(str(tmp_path / "out"), n_batches=12)
    assert config_from_dict(doc).config_digest == _canonical_sha256(doc)


def test_hashlib_fallback_gives_the_same_values(tmp_path):
    doc = base_config(str(tmp_path / "out"), n_batches=12)
    blocked = 'import sys; sys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
    report = json.loads(_python(blocked + HASH_VALUES, json.dumps({"seeds": list(KNOWN_SEEDS), "config": doc})))
    assert report["openssl"]  # the fallback path really ran
    assert report["seeds"] == list(KNOWN_SEEDS.values())
    assert report["config_digest"] == _canonical_sha256(doc)


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no builtin SHA-256 module",
)
def test_run_loads_no_openssl(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config(str(tmp_path / "out"), n_batches=12)), encoding="utf-8")
    code = (
        "import sys\n"
        "from yieldtree.pipeline import load_config, run_pipeline\n"
        "run_pipeline(load_config(sys.argv[1]))\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    assert _python(code, str(config)) == "[]"
    assert (tmp_path / "out" / "manifest.json").is_file()
