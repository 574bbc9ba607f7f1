#include "parallel/adaptive/adaptive_decoder.h"

#include <algorithm>
#include <utility>

namespace pmp2::parallel {

RunResult decode_as_session(const serve::ServerConfig& server,
                            std::span<const std::uint8_t> stream,
                            serve::SessionConfig session) {
  serve::SessionResult r;
  {
    // Destroyed before the result is read: the pool has joined, so the
    // hooks (tracer, profiler) are quiescent when the caller reads them.
    serve::DecodeServer solo(server);
    r = solo.wait(solo.submit(stream, std::move(session)));
  }
  RunResult result;
  result.ok = r.ok;
  result.wall_s = r.wall_s;
  result.scan_s = r.scan_s;
  result.pictures = r.pictures;
  result.checksum = r.checksum;
  result.stream_bytes = stream.size();
  if (server.tracker) result.peak_frame_bytes = server.tracker->peak_bytes();
  result.concealed_slices = r.concealed_slices;
  result.concealed_pictures = r.concealed_pictures;
  result.quarantined_gops = r.quarantined_gops;
  result.errors = std::move(r.errors);
  result.errors_dropped = r.errors_dropped;
  result.workers = std::move(r.workers);
  result.gop_mode_gops = r.gop_mode_gops;
  result.exploded_gops = r.exploded_gops;
  result.pool_hits = r.pool_hits;
  result.pool_misses = r.pool_misses;
  result.hung = r.hung;
  if (r.hung) {
    const bool display = std::any_of(
        result.errors.begin(), result.errors.end(), [](const ErrorRecord& e) {
          return e.cause == RecoveryCause::kDisplayTimeout;
        });
    result.hang.where = display ? "display" : "coordinator";
    result.hang.waited_ns = server.watchdog_ns;
    result.hang.pictures_delivered = r.pictures_delivered;
    result.hang.pictures_indexed = r.pictures;
  }
  derive_idle(result);
  return result;
}

RunResult AdaptiveDecoder::decode(std::span<const std::uint8_t> stream,
                                  const FrameCallback& on_frame) {
  serve::ServerConfig server;
  server.workers = config_.workers;
  server.tracker = config_.tracker;
  serve::SessionConfig session;
  session.max_queued_gops = 0;
  session.quarantine_gops = false;
  session.on_frame = on_frame;
  return decode_as_session(server, stream, std::move(session));
}

}  // namespace pmp2::parallel
