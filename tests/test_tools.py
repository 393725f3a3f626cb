import os
import subprocess
import sys
from pathlib import Path

import daepos

CLI_DIGESTS = Path(__file__).parents[1] / "tools" / "cli_digests.py"


def test_cli_digests_listing_is_the_same_on_a_rerun(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(daepos.__file__).parents[1])}
    listings = []
    for name in ("first", "second"):
        result = subprocess.run(
            [sys.executable, str(CLI_DIGESTS), str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        listings.append(result.stdout)
    assert listings[0] == listings[1]
    paths = [line.split("  ", 1)[1] for line in listings[0].splitlines()]
    assert paths == sorted(paths)
    for family in ("linear", "knn", "forest", "network"):
        assert f"predict/{family}_xy.txt" in paths and f"models/{family}_plain.npz" in paths
    assert {"ingest/zenodo.csv", "run/report.csv", "run/user_rf_xy_pairs.csv", "run/user_nn_pairs.csv"} <= set(paths)
    assert {"errors/folds.txt", "errors/absent.txt", "errors/width.txt"} <= set(paths)
