"""Soft targets visualized as text bars.

A gold label is expanded into a distribution over its whole space so the
loss rewards near misses: probability decays with distance from the gold,
wrapping around on circular spaces.
"""

from tempomine import TemporalDimension, label_space, soft_target, weight_table


def show(dimension: TemporalDimension, gold: str, **kwargs) -> None:
    space = label_space(dimension)
    target = soft_target(dimension, gold, **kwargs)
    extras = ", ".join(f"{k}={v}" for k, v in kwargs.items())
    print(f"{dimension.value} / gold={gold}" + (f" ({extras})" if extras else ""))
    for label, p in zip(space.labels, target):
        marker = " <- gold" if label == gold else ""
        print(f"  {label:<10} {p:6.3f} {'#' * round(p * 60)}{marker}")
    print()


def main() -> None:
    show(TemporalDimension.DURATION, "day")
    show(TemporalDimension.TYPICAL_WEEK, "Sunday")  # mass wraps to Saturday
    show(TemporalDimension.DURATION, "day", sigma_log=8.0)  # flatter, same argmax
    show(TemporalDimension.HIERARCHY, "before")  # categorical stays one-hot

    print("inverse-frequency instance weights (clipped to [0.1, 10]):")
    counts = {"second": 9_000, "minute": 900, "hour": 100}
    weights = weight_table(counts)
    for label, count in counts.items():
        print(f"  {label:<8} count={count:>5,d}  weight={weights[label]:.3f}")


if __name__ == "__main__":
    main()
