import pytest

from sceneact.config import config_from_dict
from sceneact.rng import RngStream
from sceneact.synthdata import generate_dataset
from sceneact.training import train_short_term


@pytest.fixture(scope="session")
def default_run():
    """One full training run on the default benchmark; shared by the
    acceptance criteria that need a trained model."""
    cfg = config_from_dict({})
    dataset = generate_dataset(cfg.scenario)
    state = train_short_term(
        dataset, cfg.model, cfg.loss, cfg.optimizer, RngStream(cfg.seed),
        windowing=cfg.windowing,
    )
    return cfg, dataset, state
