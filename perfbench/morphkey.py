"""Representation-independent key of a pinj-based garbage-carrying morphism."""


def morphism_key(m) -> str:
    """Garbage size and core graph, read from the stable JSON form."""
    data = m.to_json()
    graph = ";".join(f"{x}.{y}" for x, y in sorted(map(tuple, data["core"]["graph"])))
    return f"{data['garbage_shape'][0]}|{graph}"
