"""Read and parse an input file as the CLI does: ingest.read_input reads
its bytes and a loader parses them."""

from h2cost.ingest import (
    REFERENCE_DATASET,
    load_config,
    load_state_profiles,
    read_input,
)


def read_dataset(path=REFERENCE_DATASET, strict=True):
    """The Dataset of the state CSV at path, by default the packaged one."""
    return load_state_profiles(read_input(path, "dataset"), path, strict)


def read_config(path):
    """(registry, SMR params, scenarios) of the JSON config at path, or the
    built-in defaults for None."""
    return load_config(None if path is None else read_input(path, "config"),
                       path)
