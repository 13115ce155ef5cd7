"""Ray Data stages: map_batches bodies and shuffles."""
