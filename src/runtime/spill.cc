#include "runtime/spill.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <vector>

#include "runtime/serde.h"
#include "util/file.h"
#include "util/strings.h"

namespace trance {
namespace runtime {
namespace spill {

namespace {

namespace fs = std::filesystem;

/// Process-wide manager sequence; keeps concurrent clusters (tests run many)
/// in disjoint directories while staying deterministic per process.
std::atomic<uint64_t>& InstanceCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

std::string BaseDir(const SpillConfig& config) {
  if (!config.dir.empty()) return config.dir;
  if (const char* env = std::getenv("TRANCE_SPILL_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  return ec ? std::string("/tmp") : tmp.string();
}

/// Stage names become path components; keep them shell- and fs-safe.
std::string SanitizeTag(const std::string& tag) {
  std::string out;
  out.reserve(tag.size());
  for (char ch : tag) {
    bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
              (ch >= '0' && ch <= '9') || ch == '-' || ch == '_' || ch == '.';
    out.push_back(ok ? ch : '_');
  }
  return out.empty() ? std::string("stage") : out;
}

}  // namespace

SpillManager::SpillManager(SpillConfig config) : config_(std::move(config)) {
  uint64_t id = InstanceCounter().fetch_add(1);
  root_ = (fs::path(BaseDir(config_)) /
           ("trance-spill-" + std::to_string(::getpid()) + "-" +
            std::to_string(id)))
              .string();
}

SpillManager::~SpillManager() {
  bool created;
  {
    std::lock_guard<std::mutex> lock(mu_);
    created = root_created_;
  }
  if (created) {
    std::error_code ec;
    fs::remove_all(root_, ec);  // best effort; temp dirs are reaped anyway
  }
}

std::string SpillManager::RunPath(uint64_t job, const std::string& tag,
                                  size_t partition, size_t run) const {
  return (fs::path(root_) / ("job" + std::to_string(job)) /
          (SanitizeTag(tag) + "-p" + std::to_string(partition) + "-r" +
           std::to_string(run) + ".trs"))
      .string();
}

uint64_t SpillManager::on_disk_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return on_disk_bytes_;
}

Status SpillManager::AccountRun(const std::string& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.max_spill_bytes > 0 &&
      on_disk_bytes_ + bytes > config_.max_spill_bytes) {
    return Status::ResourceExhausted(
        "spill byte budget exhausted: run '" + path + "' needs " +
        FormatBytes(bytes) + " with " + FormatBytes(on_disk_bytes_) +
        " already on disk > budget " + FormatBytes(config_.max_spill_bytes));
  }
  on_disk_bytes_ += bytes;
  return Status::OK();
}

namespace {

Status EnsureParentDir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    return Status::Internal("spill: cannot create run directory for '" +
                            path + "': " + ec.message());
  }
  return Status::OK();
}

}  // namespace

void SpillManager::RemoveRun(const std::string& path, uint64_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    on_disk_bytes_ -= bytes;
  }
  std::error_code ec;
  fs::remove(path, ec);
}

Status SpillManager::SpillAndRestoreBlock(uint64_t job, const std::string& tag,
                                          size_t partition,
                                          const Schema& schema,
                                          column::PartitionBlock* block,
                                          StageStats* c) {
  struct Run {
    std::string path;
    uint64_t bytes;
  };
  std::vector<Run> runs;  // charged runs; the cleanup below removes each
  std::string file;       // one run file at a time, reused
  auto write_run = [&](size_t begin, size_t end) -> Status {
    file.clear();
    serde::AppendFileHeader(&file);
    serde::AppendBlockRecord(*block, begin, end, &file);
    Run run{RunPath(job, tag, partition, runs.size()), file.size()};
    // The file's size is known before it exists: charge the budget first,
    // so a run the budget refuses never reaches the disk.
    TRANCE_RETURN_NOT_OK(AccountRun(run.path, run.bytes));
    runs.push_back(run);
    {
      std::lock_guard<std::mutex> lock(mu_);
      root_created_ = true;
    }
    TRANCE_RETURN_NOT_OK(EnsureParentDir(run.path));
    TRANCE_RETURN_NOT_OK(WriteFile(run.path, file));
    total_runs_.fetch_add(1);
    c->spill_bytes_written += run.bytes;
    c->spill_runs += 1;
    return Status::OK();
  };
  auto spill_and_restore = [&]() -> Status {
    // Phase 1: a run ends at the row whose RowBytesAt brings it to
    // max_run_bytes; each range is serialized straight from the block. The
    // block is released wholesale after the last run lands.
    const size_t n = block->NumRows();
    size_t begin = 0;
    uint64_t run_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      run_bytes += block->RowBytesAt(i);
      if (run_bytes >= config_.max_run_bytes) {
        TRANCE_RETURN_NOT_OK(write_run(begin, i + 1));
        begin = i + 1;
        run_bytes = 0;
      }
    }
    if (begin < n || runs.empty()) TRANCE_RETURN_NOT_OK(write_run(begin, n));
    *block = column::PartitionBlock(schema);
    // Phase 2: one merge pass — read each run whole and decode it into the
    // fresh block's typed columns, in run order. The decoder appends one
    // value at a time, so the block's footprint matches a never-spilled
    // block of the same rows.
    for (const Run& run : runs) {
      TRANCE_RETURN_NOT_OK(ReadFile(run.path, &file));
      TRANCE_RETURN_NOT_OK(serde::ReadBlockFile(file, run.path, block));
      c->spill_bytes_read += file.size();
    }
    return Status::OK();
  };
  Status s = spill_and_restore();
  for (const Run& run : runs) RemoveRun(run.path, run.bytes);
  TRANCE_RETURN_NOT_OK(s);
  c->spill_merge_passes += 1;
  return Status::OK();
}

}  // namespace spill
}  // namespace runtime
}  // namespace trance
