"""Tour of the label spaces: the unit inventory, the three topologies,
and the rank distance the rest of the pipeline is built on.
"""

from tempomine import (
    UNIT_SECONDS,
    TemporalDimension,
    label_space,
    logsec,
    nearest_unit,
    rank_distance,
)


def main() -> None:
    print("duration unit inventory (name, canonical seconds, log-seconds):")
    for unit, seconds in UNIT_SECONDS.items():
        print(f"  {unit:<8} {seconds:>13,d}  {logsec(unit):7.3f}")

    print()
    print("snapping raw quantities to the nearest unit in log space:")
    for label, seconds in [
        ("1.75 days", 1.75 * 86_400),
        ("36 hours", 36 * 3_600),
        ("90 minutes", 90 * 60),
        ("twice a month", 30 * 86_400 / 2),
    ]:
        print(f"  {label:<14} -> {nearest_unit(seconds)}")

    print()
    print("every dimension and its topology:")
    for dim in TemporalDimension:
        space = label_space(dim)
        print(f"  {dim.value:<16} {space.topology.value:<12} {len(space)} labels")

    months = TemporalDimension.TYPICAL_MONTH
    print()
    print("rank distance wraps on a ring: December is one step from January")
    print(f"  d(January, December) = {rank_distance('January', 'December', months)}")
    print(f"  d(January, July)     = {rank_distance('January', 'July', months)}")

    durations = TemporalDimension.DURATION
    print()
    print("rank distance on the ordered duration scale:")
    print(f"  d(second, minute)  = {rank_distance('second', 'minute', durations)}")
    print(f"  d(second, century) = {rank_distance('second', 'century', durations)}")


if __name__ == "__main__":
    main()
