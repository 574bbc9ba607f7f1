#include "pb/inputs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "bitstream/startcode.h"
#include "mpeg2/decoder.h"
#include "mpeg2/kernels/kernels.h"
#include "parallel/stats.h"
#include "streamgen/stream_factory.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using pmp2::Rng;
using pmp2::streamgen::StreamSpec;

// Workload constants. Every stream is 30 pictures/s, progressive 4:2:0,
// one slice per macroblock row (the encoder's and the paper's layout).
constexpr int kFileGops = 20;      // playback_704 tiles
constexpr int kPlaybackClips = 2;  // distinct 13-picture GOPs

constexpr std::uint64_t kMagic = 0x31747570'6e696270ULL;  // "pbinput1", LE

struct Clip {
  StreamSpec spec;
  std::vector<std::uint8_t> bytes;
  double encode_s = 0.0;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a * 0x9E3779B97F4A7C15ULL + b);
  return rng.next_u64();
}

StreamSpec clip_spec(int width, int height, std::int64_t bit_rate, int gop,
                     int gops, std::uint64_t seed) {
  StreamSpec s;
  s.width = width;
  s.height = height;
  s.bit_rate = bit_rate;
  s.gop_size = gop;
  s.pictures = gop * gops;
  s.seed = seed;
  return s;
}

// Encodes every clip through the public streamgen entry point, largest
// first, on up to `threads` threads. streamgen pins the (bit-exact) scalar
// kernel backend while it runs; the caller's backend is restored after.
void encode_clips(std::vector<Clip>& clips, int threads) {
  const auto backend = pmp2::mpeg2::kernels::active_backend();
  std::vector<std::size_t> order(clips.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const auto cost = [&](const StreamSpec& s) {
      return static_cast<std::int64_t>(s.width) * s.height * s.pictures;
    };
    return cost(clips[a].spec) > cost(clips[b].spec);
  });
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < order.size();) {
      Clip& c = clips[order[k]];
      const pmp2::WallTimer t;
      c.bytes = pmp2::streamgen::generate_stream(c.spec);
      c.encode_s = t.elapsed_s();
    }
  };
  const int n = std::max(1, std::min<int>(threads, static_cast<int>(clips.size())));
  {
    std::vector<std::jthread> pool;  // joined on scope exit, throw or not
    for (int i = 1; i < n; ++i) pool.emplace_back(work);
    work();
  }
  pmp2::mpeg2::kernels::set_backend(backend);
}

Stream make_stream(std::span<const std::uint8_t> header,
                   const std::vector<std::span<const std::uint8_t>>& gops,
                   int width, int height, int pictures_per_gop) {
  Stream s;
  s.bytes = tile_gops(header, gops);
  s.width = width;
  s.height = height;
  s.gops = static_cast<int>(gops.size());
  s.pictures = s.gops * pictures_per_gop;
  return s;
}

void take_reference(Stream& s) {
  pmp2::mpeg2::Decoder dec;
  std::uint64_t digest = 0;
  int frames = 0;
  const auto st = dec.decode_stream(s.bytes, [&](pmp2::mpeg2::FramePtr f) {
    digest = pmp2::parallel::chain_frame_checksum(digest, *f);
    ++frames;
  });
  s.reference_ok = st.ok && frames == s.pictures;
  s.reference_checksum = digest;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;
  bool ok = true;
  std::uint64_t u64() {
    if (pos + 8 > in.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[pos + i]} << (8 * i);
    pos += 8;
    return v;
  }
};

void put_stream(std::vector<std::uint8_t>& out, const Stream& s) {
  put_u64(out, static_cast<std::uint64_t>(s.width));
  put_u64(out, static_cast<std::uint64_t>(s.height));
  put_u64(out, static_cast<std::uint64_t>(s.gops));
  put_u64(out, static_cast<std::uint64_t>(s.pictures));
  put_u64(out, s.reference_ok ? 1 : 0);
  put_u64(out, s.reference_checksum);
  put_u64(out, s.bytes.size());
  out.insert(out.end(), s.bytes.begin(), s.bytes.end());
}

bool get_stream(Reader& r, Stream& s) {
  s.width = static_cast<int>(r.u64());
  s.height = static_cast<int>(r.u64());
  s.gops = static_cast<int>(r.u64());
  s.pictures = static_cast<int>(r.u64());
  s.reference_ok = r.u64() != 0;
  s.reference_checksum = r.u64();
  const std::uint64_t n = r.u64();
  if (!r.ok || r.pos + n > r.in.size()) return false;
  s.bytes.assign(r.in.begin() + static_cast<std::ptrdiff_t>(r.pos),
                 r.in.begin() + static_cast<std::ptrdiff_t>(r.pos + n));
  r.pos += n;
  return true;
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  for (const Workload w : {Workload::kPlayback704, Workload::kServeSegments}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPlayback704: return "playback_704";
    case Workload::kServeSegments: return "serve_segments";
  }
  return "?";
}

GopUnits split_gops(std::span<const std::uint8_t> stream) {
  GopUnits out;
  const auto codes = pmp2::scan_all_startcodes(stream);
  std::uint64_t gop_start = 0;
  bool in_gop = false;
  for (const auto& sc : codes) {
    const auto kind = static_cast<pmp2::StartcodeKind>(sc.code);
    const bool boundary = kind == pmp2::StartcodeKind::kGroup ||
                          kind == pmp2::StartcodeKind::kSequenceHeader ||
                          kind == pmp2::StartcodeKind::kSequenceEnd;
    if (!boundary) continue;
    if (in_gop) {
      out.gops.push_back(stream.subspan(gop_start, sc.byte_offset - gop_start));
      in_gop = false;
    }
    if (kind == pmp2::StartcodeKind::kGroup) {
      if (out.gops.empty() && out.header.empty()) {
        out.header = stream.first(sc.byte_offset);
      }
      gop_start = sc.byte_offset;
      in_gop = true;
    }
  }
  if (in_gop) out.gops.push_back(stream.subspan(gop_start));
  return out;
}

std::vector<std::uint8_t> tile_gops(
    std::span<const std::uint8_t> header,
    const std::vector<std::span<const std::uint8_t>>& gops) {
  std::vector<std::uint8_t> out(header.begin(), header.end());
  for (const auto& g : gops) out.insert(out.end(), g.begin(), g.end());
  for (const std::uint8_t b : {0x00, 0x00, 0x01, 0xB7}) out.push_back(b);
  return out;
}

Inputs build_inputs(Workload workload, std::uint64_t seed, int threads) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  const std::uint64_t base = mix(seed, static_cast<std::uint64_t>(workload));

  std::vector<Clip> clips;
  auto add_clip = [&](int w, int h, std::int64_t rate, int gop, int gops) {
    clips.push_back({clip_spec(w, h, rate, gop, gops,
                               mix(base, clips.size() + 1)),
                     {}, 0.0});
  };
  switch (workload) {
    case Workload::kPlayback704:
      for (int i = 0; i < kPlaybackClips; ++i) add_clip(704, 480, 5'000'000, 13, 1);
      break;
    case Workload::kServeSegments:
      // Two distinct GOPs per resolution of the paper's small/middle sizes.
      for (const auto& r : pmp2::streamgen::paper_resolutions()) {
        if (r.width > 704) continue;
        add_clip(r.width, r.height, r.bit_rate, 13, 1);
        add_clip(r.width, r.height, r.bit_rate, 13, 1);
      }
      break;
  }
  encode_clips(clips, threads);
  for (const Clip& c : clips) {
    in.encoded_pictures += c.spec.pictures;
    in.encode_s += c.encode_s;
  }

  // Pool of GOP units per resolution, in clip order.
  struct Pool {
    int width, height, pictures_per_gop;
    std::span<const std::uint8_t> header;
    std::vector<std::span<const std::uint8_t>> gops;
  };
  std::vector<Pool> pools;
  for (const Clip& c : clips) {
    const GopUnits u = split_gops(c.bytes);
    if (pools.empty() || pools.back().width != c.spec.width) {
      pools.push_back({c.spec.width, c.spec.height, c.spec.gop_size, u.header, {}});
    }
    pools.back().gops.insert(pools.back().gops.end(), u.gops.begin(), u.gops.end());
  }

  Rng rng(mix(base, 0));
  auto single_gop_segments = [&](const Pool& p) {
    for (const auto& g : p.gops) {
      in.segments.push_back(make_stream(p.header, {g}, p.width, p.height,
                                        p.pictures_per_gop));
      in.segment_weights.push_back(1.0);
    }
  };
  auto long_file = [&](const Pool& p, int tiles) {
    std::vector<std::span<const std::uint8_t>> order;
    for (int i = 0; i < tiles; ++i) {
      order.push_back(p.gops[rng.next_below(static_cast<std::uint32_t>(p.gops.size()))]);
    }
    in.files.push_back(make_stream(p.header, order, p.width, p.height,
                                   p.pictures_per_gop));
  };
  switch (workload) {
    case Workload::kPlayback704:
      long_file(pools[0], kFileGops);
      single_gop_segments(pools[0]);
      break;
    case Workload::kServeSegments: {
      // Every ordered pair of a resolution's GOPs is one 2-GOP segment;
      // resolutions are drawn 1:2:1 (176x120 : 352x240 : 704x480).
      static constexpr double kResolutionWeight[] = {1.0, 2.0, 1.0};
      for (std::size_t r = 0; r < pools.size(); ++r) {
        const Pool& p = pools[r];
        const double w = kResolutionWeight[r] /
                         static_cast<double>(p.gops.size() * p.gops.size());
        for (const auto& a : p.gops) {
          for (const auto& b : p.gops) {
            in.segments.push_back(make_stream(p.header, {a, b}, p.width,
                                              p.height, p.pictures_per_gop));
            in.segment_weights.push_back(w);
          }
        }
      }
      in.files = in.segments;
      break;
    }
  }

  // Sequential references, one stream per thread.
  std::vector<Stream*> all;
  for (auto& s : in.files) all.push_back(&s);
  for (auto& s : in.segments) all.push_back(&s);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < all.size();) take_reference(*all[k]);
  };
  {
    std::vector<std::jthread> pool;
    for (int i = 1; i < std::max(1, threads); ++i) pool.emplace_back(work);
    work();
  }
  return in;
}

std::vector<std::uint8_t> serialize(const Inputs& in) {
  std::vector<std::uint8_t> out;
  put_u64(out, kMagic);
  put_u64(out, static_cast<std::uint64_t>(in.workload));
  put_u64(out, in.seed);
  put_u64(out, static_cast<std::uint64_t>(in.encoded_pictures));
  put_u64(out, in.files.size());
  for (const auto& s : in.files) put_stream(out, s);
  put_u64(out, in.segments.size());
  for (std::size_t i = 0; i < in.segments.size(); ++i) {
    put_stream(out, in.segments[i]);
    std::uint64_t w;
    std::memcpy(&w, &in.segment_weights[i], 8);
    put_u64(out, w);
  }
  return out;
}

bool deserialize(std::span<const std::uint8_t> bytes, Inputs& out) {
  Reader r{bytes};
  if (r.u64() != kMagic) return false;
  out = Inputs{};
  out.workload = static_cast<Workload>(r.u64());
  out.seed = r.u64();
  out.encoded_pictures = static_cast<int>(r.u64());
  out.files.resize(r.u64());
  for (auto& s : out.files) {
    if (!get_stream(r, s)) return false;
  }
  const std::uint64_t n = r.u64();
  if (!r.ok || n > bytes.size()) return false;
  out.segments.resize(n);
  out.segment_weights.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!get_stream(r, out.segments[i])) return false;
    const std::uint64_t w = r.u64();
    std::memcpy(&out.segment_weights[i], &w, 8);
  }
  return r.ok && r.pos == bytes.size();
}

std::vector<Arrival> make_schedule(std::uint64_t seed,
                                   const std::vector<Phase>& phases,
                                   int warmup,
                                   const std::vector<double>& segment_weights) {
  Rng rng(mix(seed, 0x5C4ED));
  // A phase of n requests at rate r lasts n / r seconds. Poisson arrivals
  // are conditioned on n arrivals in it: sorted uniform times. Viewers
  // repeat their seeded offset every period; when n is a whole number of
  // periods' worth this fills exactly the phase. The segments
  // are a shuffled deck holding each segment in proportion to its weight
  // (largest remainder), so every seed serves the same mix.
  auto phase = [&](int n, const Phase& ph, double start_s, int tag) {
    const double rate = ph.rate_per_s;
    double total_w = 0.0;
    for (const double w : segment_weights) total_w += w;
    std::vector<int> deck;
    std::vector<std::pair<double, int>> remainders;
    for (std::size_t i = 0; i < segment_weights.size(); ++i) {
      const double exact = n * segment_weights[i] / total_w;
      const int whole = static_cast<int>(exact);
      deck.insert(deck.end(), static_cast<std::size_t>(whole), static_cast<int>(i));
      remainders.push_back({exact - whole, static_cast<int>(i)});
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; static_cast<int>(deck.size()) < n; ++i) {
      deck.push_back(remainders[i % remainders.size()].second);
    }
    for (std::size_t i = deck.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(deck[i - 1], deck[rng.next_below(static_cast<std::uint32_t>(i))]);
    }
    const double length = n / rate;
    std::vector<double> due(static_cast<std::size_t>(n));
    if (ph.period_s > 0) {
      const int viewers = std::max(1, static_cast<int>(std::lround(rate * ph.period_s)));
      std::vector<double> offset(static_cast<std::size_t>(viewers));
      for (double& o : offset) o = rng.next_double() * ph.period_s;
      std::sort(offset.begin(), offset.end());
      for (int i = 0; i < n; ++i) {
        due[static_cast<std::size_t>(i)] =
            start_s + (i / viewers) * ph.period_s +
            offset[static_cast<std::size_t>(i % viewers)];
      }
    } else {
      for (double& d : due) d = start_s + rng.next_double() * length;
      std::sort(due.begin(), due.end());
    }
    std::vector<Arrival> out;
    for (int i = 0; i < n; ++i) {
      out.push_back({due[static_cast<std::size_t>(i)], deck[static_cast<std::size_t>(i)], tag});
    }
    return std::pair{out, start_s + length};
  };
  std::vector<Arrival> out = phase(warmup, phases.front(), 0.0, -1).first;
  double t = 0.0;  // timed arrivals are due relative to the end of the warm-up
  for (std::size_t p = 0; p < phases.size(); ++p) {
    auto [arrivals, end] = phase(phases[p].requests, phases[p], t,
                                 static_cast<int>(p));
    out.insert(out.end(), arrivals.begin(), arrivals.end());
    t = end;
  }
  return out;
}

}  // namespace perfbench
