#!/usr/bin/env bash
# The CI replay-determinism gate (ISSUE 5): proves on every compiler in
# the matrix that the compressed dual-stack pipeline is bit-identical,
# end to end, against fixtures committed to the repo:
#
#   1. importing the committed gzip'd dual-stack window reproduces the
#      committed golden journal BYTE FOR BYTE (decode + monotone clock +
#      journal encoder determinism, through the gzip transport);
#   2. replaying the committed journal at shards 1 and 4 yields the
#      committed canonical alert list (replay + sharded detection
#      determinism — any N, same merged output);
#   3. the freshly imported journal replays to the same alerts too;
#   4. a --compress import (gzip'd cold segments) replays and queries to
#      the SAME alerts and query results — never byte-compared (.gz
#      output is zlib-version-dependent), always record-compared;
#   5. journal_query reproduces the committed query.txt, and a
#      footer-pruned query reports the segment skip (the index gate).
#
# Regenerate fixtures with tests/golden/make_golden.sh after an
# INTENTIONAL format/importer change.
#
# Usage: tests/golden/check_replay.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
GOLD_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
OWNED=(--owned 10.0.0.0/23=65001
       --owned 192.0.2.0/24=65002
       --owned 2001:db8::/32=65003)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# 1. Fresh import of the committed compressed window == committed journal.
"$BUILD_DIR/mrt2journal" --journal "$tmp/journal" \
  "$GOLD_DIR/dual_stack.mrt.gz" > "$tmp/import.json"
diff <(cd "$GOLD_DIR/journal" && ls) <(cd "$tmp/journal" && ls)
for seg in "$GOLD_DIR"/journal/*; do
  cmp "$seg" "$tmp/journal/$(basename "$seg")"
done
echo "ok: fresh import reproduces the golden journal byte-for-byte"

# 2. Committed journal replays to the committed alerts at shards 1 and 4.
for shards in 1 4; do
  "$BUILD_DIR/journal_alerts" --journal "$GOLD_DIR/journal" "${OWNED[@]}" \
    --shards "$shards" > "$tmp/alerts_$shards.txt"
  diff "$GOLD_DIR/alerts.txt" "$tmp/alerts_$shards.txt"
done
echo "ok: golden journal replays bit-identically at shards 1 and 4"

# 3. The fresh journal replays to the same alerts.
"$BUILD_DIR/journal_alerts" --journal "$tmp/journal" "${OWNED[@]}" \
  --shards 4 > "$tmp/alerts_fresh.txt"
diff "$GOLD_DIR/alerts.txt" "$tmp/alerts_fresh.txt"
echo "ok: freshly imported journal replays to the golden alerts"

# 4. Compressed import: sealed segments stored as seg-*.aj.gz must
# replay and query record-identically. No .gz byte comparison, ever.
"$BUILD_DIR/mrt2journal" --journal "$tmp/journal_gz" --compress \
  "$GOLD_DIR/dual_stack.mrt.gz" > /dev/null
ls "$tmp/journal_gz" | grep -q '\.aj\.gz$' || {
  echo "FAIL: --compress import produced no compressed segment"; exit 1; }
"$BUILD_DIR/journal_alerts" --journal "$tmp/journal_gz" "${OWNED[@]}" \
  --shards 4 > "$tmp/alerts_gz.txt"
diff "$GOLD_DIR/alerts.txt" "$tmp/alerts_gz.txt"
"$BUILD_DIR/journal_query" --journal "$tmp/journal_gz" \
  --prefix 10.0.0.0/23 --type announce > "$tmp/query_gz.txt" 2> /dev/null
diff "$GOLD_DIR/query.txt" "$tmp/query_gz.txt"
echo "ok: compressed import replays and queries identically to raw"

# 5. journal_query golden output, and the index actually prunes: a
# query whose footer proves no match must skip the (only) segment.
"$BUILD_DIR/journal_query" --journal "$GOLD_DIR/journal" \
  --prefix 10.0.0.0/23 --type announce > "$tmp/query.txt" 2> /dev/null
diff "$GOLD_DIR/query.txt" "$tmp/query.txt"
"$BUILD_DIR/journal_query" --journal "$GOLD_DIR/journal" \
  --source no-such-feed --count > /dev/null 2> "$tmp/query_stats.txt"
grep -q 'scanned 0/1 segment(s) (1 skipped via index)' "$tmp/query_stats.txt" || {
  echo "FAIL: footer did not prune the segment:"; cat "$tmp/query_stats.txt"; exit 1; }
echo "ok: journal_query matches the golden output and footers prune"

# 6. journal_alerts projects the ownership table into the read filter:
# the golden replay reports its scan counters (and still reproduces the
# golden alerts — the projection is alert-preserving), and ownership of
# space the footer proves absent skips the (only) segment without
# decoding a single record.
"$BUILD_DIR/journal_alerts" --journal "$GOLD_DIR/journal" "${OWNED[@]}" \
  > "$tmp/alerts_pruned.txt" 2> "$tmp/alerts_pruned_stats.txt"
diff "$GOLD_DIR/alerts.txt" "$tmp/alerts_pruned.txt"
grep -q 'index: scanned 1/1 segment(s) (0 skipped via index); 15 record(s) decoded' \
  "$tmp/alerts_pruned_stats.txt" || {
  echo "FAIL: ownership projection did not report scan counters:";
  cat "$tmp/alerts_pruned_stats.txt"; exit 1; }
"$BUILD_DIR/journal_alerts" --journal "$GOLD_DIR/journal" \
  --owned 172.16.0.0/24=65009 > "$tmp/alerts_absent.txt" \
  2> "$tmp/alerts_absent_stats.txt"
grep -q 'index: scanned 0/1 segment(s) (1 skipped via index); 0 record(s) decoded' \
  "$tmp/alerts_absent_stats.txt" || {
  echo "FAIL: ownership projection did not prune the segment:";
  cat "$tmp/alerts_absent_stats.txt"; exit 1; }
[ -s "$tmp/alerts_absent.txt" ] && {
  echo "FAIL: pruned replay produced alerts:"; cat "$tmp/alerts_absent.txt"; exit 1; }
echo "ok: journal_alerts ownership projection prunes via footers"

echo "replay-determinism gate passed"
