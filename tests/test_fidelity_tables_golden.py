"""Byte-exact pin of the paper's fidelity energy tables.

``tests/goldens/fidelity-tables.json`` holds every cell of the
calibrated (trial-0) Figure 8, 10 and 13 tables and the six Figure 6
configurations on one short clip, each joule value as ``repr(float)``.
Unlike the banded pins in ``test_calibration_regression.py``, any
change in the last bit of any cell fails here: a simulator speed-up
must leave these bytes alone.  Re-bless only for an intended model
change, with the reason in CHANGES.md::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, '.'); \\
        from tests.test_fidelity_tables_golden import bless; bless()"
"""

import json
import os

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "fidelity-tables.json")


def render():
    """The golden document's exact text for the current code."""
    from repro.experiments import (MAP_CONFIGS, SPEECH_CONFIGS, VIDEO_CONFIGS,
                                   WEB_CONFIGS, measure_map, measure_speech,
                                   measure_video, measure_web, trial_costs)
    from repro.workloads import IMAGES, MAPS, UTTERANCES
    from repro.workloads.videos import VideoClip

    costs = trial_costs(0)
    clip = VideoClip("short", 20.0, 12.0, 16_250)
    figures = (
        ("fig06-video", VIDEO_CONFIGS, (clip,), measure_video),
        ("fig08-speech", SPEECH_CONFIGS, UTTERANCES, measure_speech),
        ("fig10-map", MAP_CONFIGS, MAPS, measure_map),
        ("fig13-web", WEB_CONFIGS, IMAGES, measure_web),
    )
    doc = {
        figure: {
            config: {obj.name: repr(measure(obj, config, costs=costs))
                     for obj in objects}
            for config in configs
        }
        for figure, configs, objects, measure in figures
    }
    return json.dumps(doc, indent=1) + "\n"


def bless():
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(render())


def test_fidelity_tables_byte_identical():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    assert render() == golden
