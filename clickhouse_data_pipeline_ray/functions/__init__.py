def grow_from_one(concurrency: int | tuple) -> tuple:
    """An actor pool's ``concurrency`` that starts one actor and grows to
    ``concurrency`` (a ``(lo, hi)`` range is kept as given): a fixed pool of
    n starts n actors even for a one-block input, and all but one of them
    never get work."""
    return (1, concurrency) if isinstance(concurrency, int) else concurrency
