// Adaptive-granularity hybrid decoder: per-GOP dispatch between the two
// paper granularities on one shared worker pool.
//
// The dispatcher is serve::DecodeServer's. At pop time the policy decides,
// from queue depth and an online cost model (src/sched AdaptivePolicy /
// CostEwma — the same arithmetic the virtual-time sweeps in
// simulate_adaptive validated):
//
//   throughput mode — the pipeline is deep: run the GOP whole, exactly the
//     GOP decoder's task (decode_gop), zero inter-worker communication;
//   latency mode — the queue is shallow or the GOP is a predicted
//     straggler: explode the GOP into per-picture tasks that any worker
//     may claim, so all workers cooperate on the frames closest to
//     display. Pictures keep GOP-private references (closed GOPs), so
//     exploded GOPs of different indices decode concurrently and every
//     picture decodes byte-identically to the GOP decoder's sequential
//     loop (both run decode_one_picture).
//
// A one-shot decode is the only session of a private server; this header
// is the adapter that reports it as a RunResult. Recovery semantics are
// the GOP decoder's: quarantine confines a fault to its own GOP in both
// modes, and playback checksums equal the fixed GOP decoder's on clean and
// damaged streams alike.
#pragma once

#include <cstdint>
#include <span>

#include "mpeg2/frame.h"
#include "parallel/display.h"
#include "parallel/stats.h"
#include "serve/server.h"

namespace pmp2::parallel {

/// Decodes `stream` as the only session of a private DecodeServer built
/// from `server`, and reports the session as a one-shot run: scan time,
/// per-worker stats (idle derived from the session's wall time), the
/// dispatch split, pool counters, recovery events, hang evidence, and the
/// tracker's peak frame bytes.
[[nodiscard]] RunResult decode_as_session(
    const serve::ServerConfig& server, std::span<const std::uint8_t> stream,
    serve::SessionConfig session = {});

struct AdaptiveDecoderConfig {
  int workers = 4;
  /// Tracks frame-buffer bytes (RunResult::peak_frame_bytes).
  mpeg2::MemoryTracker* tracker = nullptr;
};

/// The default one-shot configuration: closed GOPs required, no recovery
/// (a corrupt slice fails the run), unbounded GOP queue. Callers that need
/// recovery, a watchdog or hooks call decode_as_session directly.
class AdaptiveDecoder {
 public:
  explicit AdaptiveDecoder(const AdaptiveDecoderConfig& config)
      : config_(config) {}

  /// Frames are delivered in display order through `on_frame` (may be
  /// empty).
  [[nodiscard]] RunResult decode(std::span<const std::uint8_t> stream,
                                 const FrameCallback& on_frame = {});

 private:
  AdaptiveDecoderConfig config_;
};

}  // namespace pmp2::parallel
