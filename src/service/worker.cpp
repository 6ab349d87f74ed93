#include "service/worker.hpp"

#include <time.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/file_io.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "service/chunk.hpp"

namespace pp::service {
namespace {

constexpr const char* kWorkerFlag = "--poprank-service-worker=";
constexpr const char* kWorkerIdFlag = "--poprank-service-worker-id=";
constexpr const char* kJobMagic = "poprank-job-v1";

/// Worker exit statuses (the coordinator logs nonzero ones).
enum : int {
  kExitOk = 0,
  kExitBadJob = 4,
  kExitBadSpec = 5,
  kExitCrashInjected = 6,
};

/// The job descriptor, parsed from `<job-dir>/job.kv` (written once by
/// the coordinator before any worker is spawned).
struct JobFile {
  std::string spec_kv;
  std::string chunks_dir;
  u64 master_seed = 0;
  u64 trials = 0;
  u64 chunk_trials = 0;
};

bool parse_job_file(const std::string& content, JobFile* out) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != kJobMagic) return false;
  bool have_spec = false, have_chunks = false;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string tag = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (tag == "spec") {
      out->spec_kv = value;
      have_spec = true;
    } else if (tag == "chunks_dir") {
      out->chunks_dir = value;
      have_chunks = true;
    } else if (tag == "master_seed") {
      out->master_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (tag == "trials") {
      out->trials = std::strtoull(value.c_str(), nullptr, 10);
    } else if (tag == "chunk_trials") {
      out->chunk_trials = std::strtoull(value.c_str(), nullptr, 10);
    }
    // Unknown tags are skipped: older workers tolerate newer job files.
  }
  return have_spec && have_chunks && out->trials >= 1 &&
         out->chunk_trials >= 1;
}

void append_status(const std::string& job_dir, u64 worker_id, NodeStatus s) {
  append_line(job_dir + "/workers/w" + std::to_string(worker_id) + ".status",
              std::string(node_status_name(s)) + " " +
                  std::to_string(obs::now_us()));
}

}  // namespace

const char* node_status_name(NodeStatus s) {
  switch (s) {
    case NodeStatus::kJoining:
      return "joining";
    case NodeStatus::kOnline:
      return "online";
    case NodeStatus::kRecovering:
      return "recovering";
    case NodeStatus::kOffline:
      return "offline";
  }
  return "?";
}

void sleep_ms(u64 ms) {
  timespec req;
  req.tv_sec = static_cast<time_t>(ms / 1000);
  req.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (nanosleep(&req, &req) != 0 && errno == EINTR) {
  }
}

int worker_main(const std::string& job_dir, u64 worker_id) {
  // The job file is written before the first spawn, so a failed read is a
  // hard error, not a race — but give a slow filesystem a moment anyway.
  std::optional<std::string> job_content;
  for (int attempt = 0; attempt < 50; ++attempt) {
    job_content = read_file(job_dir + "/job.kv");
    if (job_content.has_value()) break;
    sleep_ms(10);
  }
  JobFile job;
  if (!job_content.has_value() || !parse_job_file(*job_content, &job)) {
    std::fprintf(stderr, "[service] w%llu: unreadable job file in %s\n",
                 static_cast<unsigned long long>(worker_id), job_dir.c_str());
    return kExitBadJob;
  }

  TrialSpec spec;
  {
    // spec_from_kv asserts on malformed input; the coordinator only
    // shards specs that round-trip, so reaching here with a bad one
    // means the job file was corrupted — fail loudly either way.
    spec = obs::spec_from_kv(job.spec_kv);
    if (!obs::spec_is_replayable(spec)) return kExitBadSpec;
  }

  // Membership: a leftover status file for this id means a previous
  // incarnation died mid-job — re-register through kRecovering (the
  // mmts-style rejoin) instead of kJoining.
  const std::string status_path =
      job_dir + "/workers/w" + std::to_string(worker_id) + ".status";
  append_status(job_dir, worker_id,
                path_exists(status_path) ? NodeStatus::kRecovering
                                         : NodeStatus::kJoining);
  append_status(job_dir, worker_id, NodeStatus::kOnline);

  // Fault-injection hook for the service tests: worker 0 crashes hard
  // (lease left dangling, no offline record) right after claiming its
  // k-th chunk, once per job — the marker file keeps the respawned
  // incarnation from crash-looping.
  u64 crash_after = 0;
  if (worker_id == 0) {
    if (const char* env = std::getenv("POPRANK_SERVICE_CRASH_AFTER")) {
      crash_after = std::strtoull(env, nullptr, 10);
    }
  }
  const std::string crash_marker = job_dir + "/workers/w0.crashed";

  const std::vector<ChunkSpec> chunks =
      chunk_ranges(job.trials, job.chunk_trials);
  const std::string done_marker = job_dir + "/done";
  u64 claims = 0;

  while (true) {
    u64 remaining = 0;
    bool progressed = false;
    for (const ChunkSpec& chunk : chunks) {
      const std::string material =
          chunk_key_material(spec, job.master_seed, chunk);
      const std::string result_path =
          job.chunks_dir + "/" + chunk_file_name(material);
      if (path_exists(result_path)) continue;
      ++remaining;

      const std::string lease_path =
          job_dir + "/leases/chunk-" + std::to_string(chunk.index) + ".lease";
      std::string holder = "w";
      holder += std::to_string(worker_id);
      if (!create_exclusive(lease_path, holder + " 0")) continue;  // lost race

      ++claims;
      if (crash_after != 0 && claims >= crash_after &&
          !path_exists(crash_marker) &&
          create_exclusive(crash_marker, "crashed")) {
        // Simulated hard death: no cleanup, no offline transition, the
        // lease stays behind for the coordinator's expiry sweep.
        std::_Exit(kExitCrashInjected);
      }

      // Heartbeat after every trial: the coordinator treats a lease whose
      // content stops changing as a dead holder.  An atomic rewrite (not
      // an append) keeps the file one readable record.
      u64 beat = 0;
      const TrialRange range = run_trial_range(
          spec, job.master_seed, chunk.begin, chunk.end, [&](u64 trial) {
            ++beat;
            write_file_atomic(lease_path, holder + " " + std::to_string(beat) +
                                              " trial=" +
                                              std::to_string(trial));
          });
      store_chunk(job.chunks_dir, material, chunk, range);
      remove_file(lease_path);
      progressed = true;
      --remaining;
    }
    if (remaining == 0) break;           // every chunk has a result
    if (path_exists(done_marker)) break;  // coordinator gave up / finished
    if (!progressed) sleep_ms(20);  // all remaining chunks leased elsewhere
  }

  append_status(job_dir, worker_id, NodeStatus::kOffline);
  return kExitOk;
}

bool maybe_run_worker(int argc, char** argv) {
  std::string job_dir;
  u64 worker_id = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kWorkerFlag, 0) == 0) {
      job_dir = arg.substr(std::strlen(kWorkerFlag));
    } else if (arg.rfind(kWorkerIdFlag, 0) == 0) {
      worker_id =
          std::strtoull(arg.c_str() + std::strlen(kWorkerIdFlag), nullptr, 10);
    }
  }
  if (job_dir.empty()) return false;
  std::exit(worker_main(job_dir, worker_id));
}

}  // namespace pp::service
