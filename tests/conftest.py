"""Suite-wide guards."""
import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_is_left_running():
    """Fails a test that leaves a child process running, such as a
    draw-ahead worker its run did not join; the process is ended first."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"processes left running: {left}")
