"""From one SRL parse to mined tuples.

Builds a sentence record by hand, runs the rule table over its temporal
arguments, and prints what each rule family recovered.
"""

from tempomine import extract_sentence, parse_sentence

# "they hiked for 3 days before the festival and trained four times per week"
# with two verb frames, each carrying its own ARGM-TMP span
RECORD = {
    "doc_id": "demo",
    "sent_index": 0,
    "tokens": [
        "they", "hiked", "for", "3", "days", "before", "the", "festival",
        "and", "trained", "four", "times", "per", "week",
    ],
    "frames": [
        {
            "verb_index": 1,
            "args": [
                {"role": "ARGM-TMP", "span": [2, 5]},
                {"role": "ARGM-TMP", "span": [5, 8]},
            ],
        },
        {
            "verb_index": 9,
            "args": [
                {"role": "ARGM-TMP", "span": [10, 14]},
            ],
        },
    ],
}


def main() -> None:
    sentence = parse_sentence(RECORD)
    print("sentence:", " ".join(sentence.tokens))
    print()

    for tup in extract_sentence(sentence):
        event = list(tup.event_tokens)
        event[tup.verb_index] = f"[{event[tup.verb_index]}]"
        print(f"{tup.dimension.value:<12} = {tup.value}")
        print(f"  event (argument span removed, verb bracketed): {' '.join(event)}")
        if tup.arg_tmp_event_tokens:
            print(f"  embedded event: {' '.join(tup.arg_tmp_event_tokens)}")
        print()

    # the rule table refuses non-temporal lookalikes instead of guessing
    trap = parse_sentence({
        "doc_id": "demo",
        "sent_index": 1,
        "tokens": ["she", "asked", "for", "a", "second", "chance"],
        "frames": [
            {"verb_index": 1, "args": [{"role": "ARGM-TMP", "span": [2, 6]}]},
        ],
    })
    print("'for a second chance' mines", len(extract_sentence(trap)), "tuples")


if __name__ == "__main__":
    main()
