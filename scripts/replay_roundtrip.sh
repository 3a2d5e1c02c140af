#!/usr/bin/env sh
# replay_roundtrip.sh — end-to-end check of the capture subsystem via
# the CLI: simulate → export pcap → convert back → replay, asserting
#
#   1. a seed fixes a recording's bytes: two processes recording the
#      month at -workers 2 and 8 write identical files, and QSND → pcap
#      → QSND is byte-identical (every record preserved);
#   2. replaying either container, at a different worker count,
#      reproduces the recorded run's headline JSON exactly;
#   3. the pcap replays to the same document — ingest_* lines included —
#      whether it is opened as a file (memory-mapped) or piped through
#      /dev/stdin (streamed), at different worker counts;
#   4. `replay -alerts` — the same replay with the detector bank — writes
#      the same headline and the same alert bytes from the file and from
#      the pipe.
#
# Usage: scripts/replay_roundtrip.sh [scale]   (default 0.005)
# Used by the CI replay-roundtrip job; run locally after touching
# internal/capture, internal/telescope, or the engine/replay paths.
set -eu

scale="${1:-0.005}"
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/quicsand" ./cmd/quicsand
sim="-seed 5 -scale $scale -thin 16384"

# Record the month (workers=2) and keep its headline JSON as the
# reference analysis.
"$tmp/quicsand" record $sim -workers 2 -o "$tmp/month.qsnd" -fig headline-json > "$tmp/direct.json"

# A second process at another worker count must write the same bytes:
# the template handshakes are signed with the generator's embedded
# identity, so nothing but the seed decides a payload.
"$tmp/quicsand" record $sim -workers 8 -o "$tmp/month.w8.qsnd" -fig headline-json > /dev/null
cmp "$tmp/month.qsnd" "$tmp/month.w8.qsnd" || {
    echo "FAIL: two recordings of one seed differ (-workers 2 vs 8)" >&2; exit 1; }

"$tmp/quicsand" convert -i "$tmp/month.qsnd" -o "$tmp/month.pcap"
"$tmp/quicsand" convert -i "$tmp/month.pcap" -o "$tmp/month2.qsnd"
cmp "$tmp/month.qsnd" "$tmp/month2.qsnd" || {
    echo "FAIL: QSND -> pcap -> QSND not byte-identical" >&2; exit 1; }

# Replay documents carry ingest_* provenance lines the live document
# does not; strip them before diffing (everything else must match).
grep -v '"ingest_' "$tmp/direct.json" > "$tmp/direct.stripped.json"
for input in month.qsnd month.pcap; do
    "$tmp/quicsand" replay $sim -workers 8 -i "$tmp/$input" -fig headline-json > "$tmp/replay.json"
    grep -v '"ingest_' "$tmp/replay.json" > "$tmp/replay.stripped.json"
    diff -u "$tmp/direct.stripped.json" "$tmp/replay.stripped.json" || {
        echo "FAIL: replay of $input diverged from the recorded run" >&2; exit 1; }
done

# File replays are memory-mapped, so the loop above no longer touches
# the streamed reader: a pipe cannot be mapped and keeps it exercised
# from outside the test binary. replay.json still holds the mapped pcap
# replay at -workers 8.
cat "$tmp/month.pcap" | "$tmp/quicsand" replay $sim -workers 3 -i /dev/stdin -fig headline-json > "$tmp/piped.json"
diff -u "$tmp/replay.json" "$tmp/piped.json" || {
    echo "FAIL: piped (streamed) pcap replay diverged from the file (mapped) replay" >&2; exit 1; }

# The same pair with the detectors attached: one replay path, so the
# headline is the document above and the alert stream is the same bytes
# either way.
"$tmp/quicsand" replay $sim -workers 8 -i "$tmp/month.pcap" -alerts "$tmp/alerts.file.jsonl" -fig headline-json > "$tmp/alerts.file.json"
cat "$tmp/month.pcap" | "$tmp/quicsand" replay $sim -workers 3 -i /dev/stdin -alerts "$tmp/alerts.pipe.jsonl" -fig headline-json > "$tmp/alerts.pipe.json"
diff -u "$tmp/replay.json" "$tmp/alerts.file.json" && diff -u "$tmp/alerts.file.json" "$tmp/alerts.pipe.json" || {
    echo "FAIL: replay -alerts headline diverged (plain vs -alerts, or file vs pipe)" >&2; exit 1; }
cmp "$tmp/alerts.file.jsonl" "$tmp/alerts.pipe.jsonl" || {
    echo "FAIL: replay -alerts wrote different alerts from the file and from the pipe" >&2; exit 1; }

echo "replay round trip OK (scale $scale): reproducible recording, lossless convert + bit-identical replays, mapped = piped, with and without -alerts" >&2
