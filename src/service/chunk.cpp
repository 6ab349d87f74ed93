#include "service/chunk.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/assert.hpp"
#include "common/file_io.hpp"
#include "obs/provenance.hpp"
#include "protocols/factory.hpp"

namespace pp::service {
namespace {

constexpr const char* kMagic = "poprank-chunk-v2";
constexpr u64 kFingerprintSeed = 0xf1e9e7b1a5ed5eedULL;

// Doubles travel as their u64 bit pattern: "%.17g" round-trips on one
// libc, but the cache must be bit-exact across any producer/consumer
// pair, so no decimal detour.
u64 double_bits(double v) { return std::bit_cast<u64>(v); }
double bits_double(u64 b) { return std::bit_cast<double>(b); }

// The checksum line that closes a chunk file: "sum <16 hex digits>\n".
std::string sum_line(std::string_view payload) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sum %016" PRIx64 "\n",
                obs::fnv1a64(payload));
  return buf;
}

// The payload of a chunk file (everything before its sum line) when the
// file ends in a sum line that matches it and the end marker; nullopt for
// any other file, so a torn or altered file is rejected before a single
// field of it is read.
std::optional<std::string_view> verified_payload(std::string_view file) {
  constexpr std::string_view kEnd = "end\n";
  constexpr u64 kSumLine = 4 + 16 + 1;  // "sum " + hex + '\n'
  if (file.size() < kSumLine + kEnd.size() ||
      file.substr(file.size() - kEnd.size()) != kEnd) {
    return std::nullopt;
  }
  const std::string_view payload =
      file.substr(0, file.size() - kEnd.size() - kSumLine);
  if (file.substr(payload.size(), kSumLine) != sum_line(payload)) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace

std::vector<ChunkSpec> chunk_ranges(u64 trials, u64 chunk_trials) {
  PP_ASSERT(chunk_trials >= 1);
  std::vector<ChunkSpec> out;
  out.reserve((trials + chunk_trials - 1) / chunk_trials);
  for (u64 begin = 0; begin < trials; begin += chunk_trials) {
    ChunkSpec c;
    c.index = out.size();
    c.begin = begin;
    c.end = begin + chunk_trials < trials ? begin + chunk_trials : trials;
    out.push_back(c);
  }
  return out;
}

u64 default_chunk_trials(u64 trials) {
  // ~16 chunks per point: a resumed sweep redoes at most 1/16 of an
  // interrupted point, and the cache directory stays browsable.  Never a
  // function of the pool size (see header).
  const u64 chunks = 16;
  const u64 per = (trials + chunks - 1) / chunks;
  return per >= 1 ? per : 1;
}

u64 behaviour_fingerprint(const TrialSpec& spec) {
  PP_ASSERT_MSG(obs::spec_is_replayable(spec),
                "behaviour fingerprint needs a registry protocol and n");
  TrialSpec canon = spec;
  canon.n = std::min(spec.n, preferred_population(spec.protocol, 64));
  canon.max_interactions = std::min(spec.max_interactions, 200 * canon.n);
  canon.label = "behaviour-fingerprint";
  const std::string kv = obs::spec_to_kv(canon);

  static std::mutex mu;
  static std::map<std::string, u64> memo;
  const std::lock_guard<std::mutex> lock(mu);
  if (const auto it = memo.find(kv); it != memo.end()) return it->second;
  std::vector<u64> counts;
  const TrialRecord r =
      run_one_trial(canon, /*trial_index=*/0, kFingerprintSeed, &counts);
  std::string bytes = std::to_string(r.interactions) + " " +
                      std::to_string(r.productive_steps) + " " +
                      std::to_string(r.fault_events) + " " +
                      std::to_string(double_bits(r.parallel_time)) + " " +
                      (r.silent ? "1" : "0") + (r.valid ? "1" : "0") + ":";
  for (const u64 c : counts) bytes += std::to_string(c) + ",";
  const u64 fingerprint = obs::fnv1a64(bytes);
  memo.emplace(kv, fingerprint);
  return fingerprint;
}

std::string chunk_key_material(const TrialSpec& spec, u64 master_seed,
                               const ChunkSpec& chunk) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016" PRIx64,
                behaviour_fingerprint(spec));
  std::string out = obs::spec_to_kv(spec);
  out += "master_seed=" + std::to_string(master_seed) + ";";
  out += "chunk=" + std::to_string(chunk.begin) + "-" +
         std::to_string(chunk.end) + ";";
  out += "fingerprint=" + std::string(fingerprint) + ";";
  out += "format=3;";
  return out;
}

std::string chunk_file_name(const std::string& key_material) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "chunk-%016" PRIx64 ".result",
                obs::fnv1a64(key_material));
  return buf;
}

std::string serialize_chunk(const std::string& key_material,
                            const ChunkSpec& chunk, const TrialRange& range) {
  PP_ASSERT(range.begin == chunk.begin && range.end == chunk.end);
  PP_ASSERT(range.records.size() == chunk.end - chunk.begin);
  std::ostringstream out;
  out << kMagic << "\n";
  out << "key " << key_material << "\n";
  out << "range " << chunk.begin << " " << chunk.end << "\n";
  for (const TrialRecord& r : range.records) {
    out << "trial " << r.trial << " " << r.seed << " " << r.interactions
        << " " << r.productive_steps << " " << r.fault_events << " "
        << double_bits(r.parallel_time) << " " << (r.silent ? 1 : 0) << " "
        << (r.valid ? 1 : 0) << "\n";
  }
  out << "counters";
  for (const u64 v : range.counters.counter) out << " " << v;
  out << "\n";
  for (u64 s = 0; s < obs::kNumSketches; ++s) {
    out << "sketch " << s;
    for (const u64 v : range.counters.sketch[s]) out << " " << v;
    out << "\n";
  }
  // wall_us is outside the determinism contract (it records the compute
  // cost of whichever process filled the cache) but kept for diagnostics.
  out << "wall_us " << range.counters.wall_us << "\n";
  std::string file = out.str();
  file += sum_line(file);
  file += "end\n";
  return file;
}

ChunkLoad load_chunk(const std::string& dir, const std::string& key_material,
                     const ChunkSpec& chunk) {
  ChunkLoad out;
  const std::string path = dir + "/" + chunk_file_name(key_material);
  const std::optional<std::string> content = read_file(path);
  if (!content.has_value()) {
    out.status = CacheProbe::kMiss;
    return out;
  }
  out.status = CacheProbe::kStale;  // until every check below passes

  // The checksum first: only a payload that hashes to its sum line is
  // parsed at all (verify the bytes, then what they claim).
  const std::optional<std::string_view> payload = verified_payload(*content);
  if (!payload.has_value()) return out;
  std::istringstream in{std::string(*payload)};
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return out;
  if (!std::getline(in, line) || line != "key " + key_material) return out;
  if (!std::getline(in, line) ||
      line != "range " + std::to_string(chunk.begin) + " " +
                  std::to_string(chunk.end)) {
    return out;
  }

  TrialRange range;
  range.begin = chunk.begin;
  range.end = chunk.end;
  range.records.reserve(chunk.end - chunk.begin);
  for (u64 t = chunk.begin; t < chunk.end; ++t) {
    std::istringstream ls;
    if (!std::getline(in, line)) return out;
    ls.str(line);
    std::string tag;
    TrialRecord r;
    u64 pt_bits = 0, silent = 0, valid = 0;
    ls >> tag >> r.trial >> r.seed >> r.interactions >> r.productive_steps >>
        r.fault_events >> pt_bits >> silent >> valid;
    if (!ls || tag != "trial" || r.trial != t) return out;
    r.parallel_time = bits_double(pt_bits);
    r.silent = silent != 0;
    r.valid = valid != 0;
    range.records.push_back(r);
  }

  {
    if (!std::getline(in, line)) return out;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "counters") return out;
    for (u64& v : range.counters.counter) ls >> v;
    if (!ls) return out;
  }
  for (u64 s = 0; s < obs::kNumSketches; ++s) {
    if (!std::getline(in, line)) return out;
    std::istringstream ls(line);
    std::string tag;
    u64 idx = 0;
    ls >> tag >> idx;
    if (tag != "sketch" || idx != s) return out;
    for (u64& v : range.counters.sketch[s]) ls >> v;
    if (!ls) return out;
  }
  {
    if (!std::getline(in, line)) return out;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag >> range.counters.wall_us;
    if (!ls || tag != "wall_us") return out;
  }
  if (in.peek() != std::char_traits<char>::eof()) return out;

  out.status = CacheProbe::kHit;
  out.range = std::move(range);
  return out;
}

std::string store_chunk(const std::string& dir,
                        const std::string& key_material,
                        const ChunkSpec& chunk, const TrialRange& range) {
  const std::string path = dir + "/" + chunk_file_name(key_material);
  if (!write_file_atomic(path, serialize_chunk(key_material, chunk, range))) {
    return "";
  }
  return path;
}

const char* cache_probe_name(CacheProbe p) {
  switch (p) {
    case CacheProbe::kHit:
      return "hit";
    case CacheProbe::kMiss:
      return "miss";
    case CacheProbe::kStale:
      return "stale";
  }
  return "?";
}

}  // namespace pp::service
