"""
Correcting Solana's reported throughput for consensus votes
===========================================================

Solana counts its consensus votes as transactions, so its reported tx/s is
not comparable with other networks. Each daily record of nonvote vs total
transaction counts yields the nonvote share; reported throughput scales by
the day's share, and the postulated 50,000 tx/s maximum scales by the mean
share across all records.
"""

from posenergy.ingestion import bundled, load_snapshots
from posenergy.solana import (
    DEFAULT_POSTULATED_MAX_TPS,
    adjusted_max_tps,
    average_tps,
    mean_nonvote_ratio,
    nonvote_ratio,
    nonvote_tps,
)

records = sorted(
    load_snapshots(bundled("solana_votes.csv")).vote_records, key=lambda r: r.date
)

print(f"{'date':<12} {'reported':>9} {'avg tx/s':>9} {'share':>7} {'nonvote tx/s':>13}")
for record in records:
    print(
        f"{record.date.isoformat():<12} {record.reported_tps:>9.0f} "
        f"{average_tps(record):>9.0f} {nonvote_ratio(record):>7.3f} "
        f"{nonvote_tps(record):>13.0f}"
    )

mean_share = mean_nonvote_ratio(records)
adjusted = adjusted_max_tps(DEFAULT_POSTULATED_MAX_TPS, records)
print()
print(f"mean nonvote share: {mean_share:.4f}")
print(f"adjusted maximum throughput: {DEFAULT_POSTULATED_MAX_TPS:,.0f} x {mean_share:.4f} "
      f"= {adjusted:,.0f} tx/s")
