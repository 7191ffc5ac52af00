"""Tour of the label spaces: the unit inventory, the three topologies,
and the distance functions the rest of the pipeline is built on.
"""

from tempomine import (
    UNIT_SECONDS,
    TemporalDimension,
    Topology,
    all_label_spaces,
    circular_distance,
    label_space,
    linear_distance,
    logsec,
    nearest_unit,
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
    for dim, space in all_label_spaces().items():
        print(f"  {dim.value:<16} {space.topology.value:<12} {len(space)} labels")

    months = label_space(TemporalDimension.TYPICAL_MONTH)
    print()
    print("circular distance wraps: December is one step from January")
    print(f"  d(January, December) = {circular_distance('January', 'December', months)}")
    print(f"  d(January, July)     = {circular_distance('January', 'July', months)}")

    durations = label_space(TemporalDimension.DURATION)
    print()
    print("rank distance on the ordered duration scale:")
    print(f"  d(second, minute)  = {linear_distance('second', 'minute', durations)}")
    print(f"  d(second, century) = {linear_distance('second', 'century', durations)}")


if __name__ == "__main__":
    main()
