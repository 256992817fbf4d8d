"""Build a small semi-synthetic quality dataset and look at what came out.

The generator pairs real (here: rendered mock) images with text written to
hit one of four quality levels.  Labels come for free from the generation
level, and a keyword-overlap oracle can recover them from the content alone,
which is what makes the data trustworthy for training.

Run: python3 demos/build_quality_data.py
"""

from collections import Counter

from unifilter.records import CaptionSample, InterleavedDoc
from unifilter.synthgen import (
    LEVEL_NAMES,
    build_dataset,
    derive_keywords,
    keyword_overlap_label,
    make_mock_sources,
)

PER_LEVEL = 6
SEED = 7


def main():
    counts = {level: PER_LEVEL for level in range(4)}
    images, doc_groups = make_mock_sources(4 * PER_LEVEL, 4 * PER_LEVEL, SEED)
    train, val, report = build_dataset(images, doc_groups, counts, seed=SEED)
    samples = train + val

    print(f"generated {len(train)} train + {len(val)} val samples")
    print(f"requested per level: {report.requested}")
    print()

    print("one caption per level (image keywords in brackets):")
    for level in range(4):
        sample = next(s for s in samples if s.label == level
                      and isinstance(s.record, CaptionSample))
        keywords = derive_keywords(sample.record.image)
        text = sample.record.text
        clip = text if len(text) <= 100 else text[:97] + "..."
        print(f"  [{level} {LEVEL_NAMES[level]:16s}] {keywords}")
        print(f"    {clip!r}")
    print()

    docs = [s for s in samples if isinstance(s.record, InterleavedDoc)]
    lengths = [len(s.record.items) for s in docs]
    print(f"interleaved documents: {len(docs)}, "
          f"items per doc {min(lengths)}..{max(lengths)}")
    print()

    # the oracle must agree with every label, or the dataset is not learnable
    agree = sum(1 for s in samples if keyword_overlap_label(s) == s.label)
    print(f"keyword oracle agreement: {agree}/{len(samples)}")
    assert agree == len(samples)

    by_level = Counter(s.level_name for s in samples)
    print(f"level balance: {dict(sorted(by_level.items()))}")
    print("ok")


if __name__ == "__main__":
    main()
