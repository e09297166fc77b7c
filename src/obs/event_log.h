// Bounded, thread-safe structured event log (JSONL).
//
// The runtime emits one JSON object per line for the lifecycle moments an
// operator (human or tool) wants to replay after the fact: job and stage
// start/finish, shuffles, fault injections, retry/backoff decisions,
// memory-cap checks, and heavy-key handling. Every event carries the ids
// needed to join it against the Chrome trace and EXPLAIN ANALYZE output
// (job id, stage sequence number, partition, attempt).
//
// Determinism contract (tested at 1/4/8 threads): event CONTENT — types,
// ids, counts, sim-time — is bit-identical at any thread count, because
// every Emit() happens on the driver thread at a stage barrier, in stage
// order. Wall-clock readings are confined to fields whose names start with
// `wall_` (added via Event::Wall), so a consumer can strip them and compare
// logs structurally; nothing else in an event may depend on the machine or
// thread count.
//
// Sinks: by default events land in a bounded in-memory ring (oldest dropped
// first, with a drop counter so truncation is visible). When the
// TRANCE_EVENT_LOG environment variable names a file, each event is also
// appended there as it is emitted.
#ifndef TRANCE_OBS_EVENT_LOG_H_
#define TRANCE_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace trance {
namespace obs {

class EventLog;

/// Builder for one event. Appends fields in call order, renders to a single
/// JSON object line on Emit(). Field names must be unique per event; the
/// `type` field is set by the constructor.
class Event {
 public:
  Event(EventLog* log, const std::string& type);

  Event& Str(const std::string& key, const std::string& value);
  Event& U64(const std::string& key, uint64_t value);
  Event& I64(const std::string& key, int64_t value);
  Event& F64(const std::string& key, double value);
  /// Wall-clock field: the key is forced to carry the `wall_` prefix so
  /// consumers can strip nondeterministic fields mechanically.
  Event& Wall(const std::string& key, double value);

  /// Renders and appends to the log (no-op when the log is disabled).
  void Emit();

 private:
  EventLog* log_;
  std::string line_;
  bool any_ = false;
};

/// The log itself. One global instance (GlobalEventLog) is shared by the
/// runtime; tests may construct private instances.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit EventLog(size_t capacity = kDefaultCapacity);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Cheap global kill switch — Emit() is a relaxed load + early-out when
  /// disabled, so an always-on runtime call site costs ~nothing.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops buffered events and resets the drop counter (file sink is left
  /// alone: the file is an append-only history).
  void Clear();

  /// Snapshot of the buffered JSONL lines, oldest first.
  std::vector<std::string> Lines() const;

  /// Number of events evicted from the ring since the last Clear().
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// All buffered lines joined with '\n' (trailing newline included when
  /// non-empty) — the JSONL document.
  std::string ToJsonl() const;

  /// (Re)reads TRANCE_EVENT_LOG and opens/closes the file sink accordingly.
  /// Called once at construction; tests call it after setenv.
  void ReopenFileSinkFromEnv();

 private:
  friend class Event;
  void Append(std::string line);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<std::string> ring_;
  std::FILE* file_ = nullptr;
};

/// Process-wide log used by the runtime. Disabled until something (bench
/// harness, tests, user code) enables it.
EventLog& GlobalEventLog();

}  // namespace obs
}  // namespace trance

#endif  // TRANCE_OBS_EVENT_LOG_H_
