"""Hypothesis profiles for the suite under ``tests/`` (tier-1).

The property tests draw whole protocol histories.  Left to Hypothesis's
default they draw *fresh* ones on every run — tier-1 could go red on a
history nobody had seen, and ``.hypothesis/`` would then replay it into
every later run of that checkout.  A gate has to ask the same question
every time:

* ``tier1`` (loaded here, the default): derandomised, no example
  database — the same examples on every run, on every machine — and
  nothing that reads the wall clock: no deadline, no ``too_slow``
  health check (on a fresh checkout the first ``st.text()`` draw builds
  Hypothesis's unicode tables, which alone used to trip it);
* ``explore``: Hypothesis's own random search, with the database and a
  reproduction blob, for hunting.  Reach it from the command line::

      PYTHONPATH=src python -m pytest tests/properties -q --hypothesis-profile=explore

  (CI runs exactly that as a non-gating step.)  What it finds lands as
  a pinned example in its own test, the way
  ``test_five_lossy_messages_survive_a_reconfiguration`` did.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("explore", print_blob=True)
# ``--hypothesis-profile`` is applied by the plugin's ``pytest_configure``,
# after this module is imported, so the command line overrides this.
settings.load_profile("tier1")
