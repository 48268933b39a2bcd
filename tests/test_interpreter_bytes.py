"""tests/interpreter_bytes.py's config files, loaded in process: two that run, three refused."""

from __future__ import annotations

import pytest

from dabss.config import load_config
from dabss.errors import ConfigError
from tests import interpreter_bytes


def test_the_configs_cover_running_designs_and_refused_files(tmp_path):
    refused = {"unknown-key": "unknown key(s) in 'sweep': n",
               "boolean": "'converter.Ro' must be a number, got True",
               "missing-key": "missing required key 'converter.Vr'"}
    configs = interpreter_bytes.configs()
    assert list(configs) == ["readme", "cli-workload", *refused]
    for name, text in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        if name in refused:
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value) == refused[name]
        else:
            assert load_config(path).sweep.points == (25 if name == "readme" else 5)
