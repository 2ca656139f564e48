// The observation record codec: compact, delta-encoded, per-segment state.
//
// One encoded record is ~20-30 bytes for a typical stream observation
// (vs ~150+ for the in-memory form): varint integers everywhere,
// timestamps as zigzag deltas (event_time delta-chained record to
// record, delivered_at as an offset from its own event_time — both are
// small and usually positive), prefixes as only their meaningful
// address bytes, and source names interned per segment (the first
// occurrence carries the string inline; every later record spends one
// or two bytes on the id). Segment ids are first-sight order within the
// segment, so the bytes never depend on the process-wide SourceId order:
// the encoder maps global to segment ids through a flat vector, and the
// decoder maps back once per inline definition.
//
// Encoder and decoder are deliberately symmetric state machines: both
// maintain (source table, previous event time), both reset() at segment
// boundaries, and the round-trip property test in tests/journal_test.cpp
// drives them over randomized batches. The encoder's steady state —
// every source already interned — performs no heap allocations
// (tests/detection_alloc_test.cpp enforces this through the writer tap).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "feeds/observation.hpp"
#include "journal/format.hpp"

namespace artemis::journal {

class RecordEncoder {
 public:
  /// Forgets interned sources and the timestamp chain (call at segment
  /// boundaries; segments must decode standalone). Keeps buffer capacity.
  void reset();

  /// Appends one framed record — varint length, payload, CRC32 — to
  /// `out`. Steady state (source already interned, `out` at capacity)
  /// allocates nothing.
  void encode(const feeds::Observation& obs, std::vector<std::uint8_t>& out);

  std::size_t source_table_size() const { return sources_.size(); }

  /// The segment's sources, segment-id order (== first-sight order). The
  /// writer snapshots this at seal time for the segment's index footer.
  const std::vector<feeds::SourceId>& sources() const { return sources_; }

 private:
  std::vector<feeds::SourceId> sources_;  ///< segment id -> global id
  /// Global id -> segment id + 1 (0: not yet in this segment). Grows to
  /// the largest global id seen; reset() clears only the used entries.
  std::vector<std::uint32_t> segment_ids_;
  std::int64_t prev_event_us_ = 0;
  std::vector<std::uint8_t> scratch_;  ///< payload staging (framing needs its size)
};

class RecordDecoder {
 public:
  /// Mirror of RecordEncoder::reset().
  void reset();

  /// Decodes one CRC-verified payload into `obs`, reusing its heap
  /// buffers (string/vector capacity) when possible. Throws JournalError
  /// on a malformed payload — with a valid CRC that means a codec bug or
  /// deliberate tampering, never a torn write.
  void decode(const std::uint8_t* payload, std::size_t size,
              feeds::Observation& obs);

  /// True when the last decoded payload was *idempotent*: re-decoding
  /// the identical bytes would yield the identical observation and leave
  /// the decoder state unchanged (zero event-time delta, no inline
  /// source definition) — the precondition for the reader's run-memo
  /// fast path.
  bool last_payload_idempotent() const { return last_idempotent_; }

 private:
  std::vector<feeds::SourceId> sources_;  ///< segment id -> global id
  std::int64_t prev_event_us_ = 0;
  std::vector<bgp::Asn> hops_;  ///< AS-path staging, capacity reused
  bool last_idempotent_ = false;
};

}  // namespace artemis::journal
