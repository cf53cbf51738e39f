# Classifier vs search oracle over the whole built-in catalog.
# Prints the TSV report; a Disagree row anywhere would mean one of the
# two sides is wrong.

import time

from jrl.harness import crosscheck, default_catalog, has_disagreement, report_lines

start = time.perf_counter()
records = crosscheck(default_catalog())
elapsed = time.perf_counter() - start

for line in report_lines(records):
    print(line)

agree = sum(1 for r in records if r.status == "Agree")
print(f"\n{len(records)} pairs in {elapsed:.2f}s: "
      f"{agree} agree, disagreements: {has_disagreement(records)}")
