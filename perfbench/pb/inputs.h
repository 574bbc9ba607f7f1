// Seeded benchmark inputs: the streams every workload decodes and serves,
// and the open-loop arrival schedule of its serving stage.
//
// Encoding is the expensive part of set-up, so the seed picks the scene
// content of a few encoded closed GOPs ("clips") and the benchmark tiles
// those GOPs into long streams, as the paper built its streams by
// repeating a clip. The program under test only ever sees the bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kPlayback704, kServeSegments };

[[nodiscard]] bool parse_workload(std::string_view name, Workload& out);
[[nodiscard]] const char* workload_name(Workload w);

/// One elementary stream decoded or served as a unit, with the sequential
/// decoder's verdict and display-order checksum taken at set-up.
struct Stream {
  std::vector<std::uint8_t> bytes;
  int width = 0;
  int height = 0;
  int gops = 0;
  int pictures = 0;
  bool reference_ok = false;
  std::uint64_t reference_checksum = 0;

  [[nodiscard]] std::int64_t macroblocks() const {
    return static_cast<std::int64_t>((width + 15) / 16) *
           ((height + 15) / 16) * pictures;
  }
};

/// Everything set-up produces. `files` feed the decoder stage (each one
/// decoded by every decoder); `segments` are the requests of the serving
/// stage, drawn by `segment_weights` (one weight per segment).
struct Inputs {
  Workload workload = Workload::kPlayback704;
  std::uint64_t seed = 0;
  std::vector<Stream> files;
  std::vector<Stream> segments;
  std::vector<double> segment_weights;
  int encoded_pictures = 0;
  double encode_s = 0.0;  // summed wall time of the streamgen calls
};

/// Builds the inputs of `workload` from `seed`, encoding clips on up to
/// `threads` threads, and decodes each stream once with the sequential
/// decoder for its reference checksum.
[[nodiscard]] Inputs build_inputs(Workload workload, std::uint64_t seed,
                                  int threads);

/// Splits an encoded stream into its header (everything before the first
/// GOP) and its GOPs (group start code up to the next GOP, sequence header
/// or sequence end code).
struct GopUnits {
  std::span<const std::uint8_t> header;
  std::vector<std::span<const std::uint8_t>> gops;
};
[[nodiscard]] GopUnits split_gops(std::span<const std::uint8_t> stream);

/// Header + the chosen GOPs in order + sequence_end_code. Every unit must
/// come from a stream with the same sequence header.
[[nodiscard]] std::vector<std::uint8_t> tile_gops(
    std::span<const std::uint8_t> header,
    const std::vector<std::span<const std::uint8_t>>& gops);

/// Byte image of the inputs (streams, geometry, references, weights) for
/// the hand-over from the set-up process to the measuring one, and for the
/// determinism check. encode_s is timing, not input, and is left out.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Inputs& in);
[[nodiscard]] bool deserialize(std::span<const std::uint8_t> bytes,
                               Inputs& out);

/// One open-loop request: due `due_s` seconds after the serving stage
/// starts, for segment `segment`, timed in phase `phase` (0 = light,
/// 1 = peak; -1 = untimed warm-up).
struct Arrival {
  double due_s = 0.0;
  int segment = 0;
  int phase = 0;
};

struct Phase {
  const char* name;
  double rate_per_s;  // mean arrival rate
  int requests;       // arrivals in the phase (a fixed count, so every
                      // seed supports the same percentiles)
  /// 0: Poisson arrivals (independent users). Otherwise real-time viewers:
  /// rate_per_s * period_s viewers, each due every period_s seconds from
  /// a seeded offset (a viewer asks for the next segment as the last one
  /// plays out). `requests` should then be a multiple of the viewers, or
  /// the last period's requests may fall due after the phase ends.
  double period_s = 0.0;
};

/// Seeded open-loop schedule: `warmup` untimed requests (phase -1) like
/// the first phase, then each phase back to back. A phase of n requests at
/// rate r lasts n / r seconds (Poisson arrivals are conditioned on that
/// count) and serves each segment in proportion to its weight. Warm-up and
/// timed arrivals each count their due times from their own start, so the
/// server can drain between them.
[[nodiscard]] std::vector<Arrival> make_schedule(
    std::uint64_t seed, const std::vector<Phase>& phases, int warmup,
    const std::vector<double>& segment_weights);

}  // namespace perfbench
