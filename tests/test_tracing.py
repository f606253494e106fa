"""The benchmark's tracer finds every name it wraps in skrates and puts each one back."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from skbench.trace import COUNTED, TARGETS, Tracer  # noqa: E402


def _bound() -> dict:
    """What each traced (module, attribute) is bound to right now."""
    out = {}
    for module_name, attr, *_ in TARGETS + COUNTED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[module_name, attr] = owner
    return out


def test_install_wraps_every_name_and_uninstall_restores_it():
    before = _bound()
    tracer = Tracer()
    try:
        tracer.install()
        during = _bound()
    finally:
        tracer.uninstall()
    for key, original in before.items():
        assert during[key] is not original, key
        assert during[key].__wrapped__ is original, key
    after = _bound()
    assert all(after[key] is original for key, original in before.items())
