#include "obs/event_log.h"

#include <cstdlib>

#include "obs/json.h"

namespace trance {
namespace obs {

// ------------------------------------------------------------------ Event

Event::Event(EventLog* log, const std::string& type) : log_(log) {
  line_ = "{\"type\":\"" + JsonEscape(type) + "\"";
  any_ = true;
}

namespace {
std::string FieldKey(const std::string& key) {
  return ",\"" + JsonEscape(key) + "\":";
}

std::string FormatF64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

Event& Event::Str(const std::string& key, const std::string& value) {
  line_ += FieldKey(key) + "\"" + JsonEscape(value) + "\"";
  return *this;
}

Event& Event::U64(const std::string& key, uint64_t value) {
  line_ += FieldKey(key) + std::to_string(value);
  return *this;
}

Event& Event::I64(const std::string& key, int64_t value) {
  line_ += FieldKey(key) + std::to_string(value);
  return *this;
}

Event& Event::F64(const std::string& key, double value) {
  line_ += FieldKey(key) + FormatF64(value);
  return *this;
}

Event& Event::Wall(const std::string& key, double value) {
  const std::string k =
      key.rfind("wall_", 0) == 0 ? key : "wall_" + key;
  return F64(k, value);
}

void Event::Emit() {
  if (!log_ || !log_->enabled()) return;
  line_ += '}';
  log_->Append(std::move(line_));
  line_.clear();
}

// --------------------------------------------------------------- EventLog

EventLog::EventLog(size_t capacity) : capacity_(capacity) {
  ReopenFileSinkFromEnv();
}

EventLog::~EventLog() {
  if (file_) std::fclose(file_);
}

void EventLog::ReopenFileSinkFromEnv() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const char* path = std::getenv("TRANCE_EVENT_LOG");
  if (path && *path) {
    file_ = std::fopen(path, "a");
  }
}

void EventLog::Append(std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_) {
    std::fputs(line.c_str(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }
  if (capacity_ == 0) return;
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ring_.push_back(std::move(line));
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::vector<std::string> EventLog::Lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(ring_.begin(), ring_.end());
}

std::string EventLog::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& line : ring_) {
    out += line;
    out += '\n';
  }
  return out;
}

EventLog& GlobalEventLog() {
  static EventLog* log = new EventLog();
  return *log;
}

}  // namespace obs
}  // namespace trance
