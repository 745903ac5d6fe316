"""Every test of ``test_md4.py`` again, on the RFC 1320 Python code.

The star import hands pytest the same test functions under this module's
name; the autouse fixture routes ``md4_digest`` through the Python code
for each of them, whatever backend the platform selected.
"""

import pytest

from repro.crypto import md4
from tests.support import force_python_md4
from tests.unit.test_md4 import *  # noqa: F401,F403  (the tests themselves)


@pytest.fixture(autouse=True)
def python_backend(monkeypatch):
    force_python_md4(monkeypatch)


def test_the_python_code_is_what_runs_here():
    assert md4._digest is md4._python_digest
