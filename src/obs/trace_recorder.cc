// Copyright 2026 The pasjoin Authors.
#include "obs/trace_recorder.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

namespace pasjoin::obs {

namespace {

/// Thread-local cache of (recorder identity -> shard). One entry suffices:
/// the engine attaches at most one recorder per run, and a miss only costs
/// the (rare) registration slow path.
struct TlsShardCache {
  uint64_t recorder_id = 0;
  void* shard = nullptr;
};
thread_local TlsShardCache tls_shard_cache;

/// The calling thread's logical track (set by ScopedTrack).
thread_local int32_t tls_current_track = kDriverTrack;

std::atomic<uint64_t> next_recorder_id{1};

/// Chrome trace tid of a logical track: driver = 0, worker w = w + 1.
int32_t TrackTid(int32_t track) { return track + 1; }

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendMicros(std::string* out, int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  out->append(buf);
}

void AppendValue(std::string* out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out->append(buf);
}

void AppendValue(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out->append(buf);
}

/// Appends `"name":value` for each pair, comma-separated.
template <typename T>
void AppendNamedValues(std::string* out,
                       const std::vector<std::pair<const char*, T>>& values) {
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out->append(",");
    first = false;
    out->append("\"");
    AppendEscaped(out, name);
    out->append("\":");
    AppendValue(out, value);
  }
}

}  // namespace

TraceRecorder::TraceRecorder(size_t max_events_per_thread)
    : epoch_(std::chrono::steady_clock::now()),
      max_events_per_thread_(max_events_per_thread),
      recorder_id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() {
  // Invalidate this thread's cache entry so a future recorder reusing this
  // address cannot inherit a stale shard. Other threads' caches are keyed by
  // recorder_id_, which is never reused, so their stale entries only miss.
  if (tls_shard_cache.recorder_id == recorder_id_) {
    tls_shard_cache = TlsShardCache{};
  }
}

TraceRecorder::Shard* TraceRecorder::GetShard() {
  if (tls_shard_cache.recorder_id == recorder_id_) {
    return static_cast<Shard*>(tls_shard_cache.shard);
  }
  MutexLock lock(&mu_);
  auto shard = std::make_unique<Shard>();
  shard->thread_ordinal = static_cast<uint32_t>(shards_.size());
  shard->events.reserve(std::min<size_t>(max_events_per_thread_, 1024));
  Shard* raw = shard.get();
  shards_.push_back(std::move(shard));
  tls_shard_cache.recorder_id = recorder_id_;
  tls_shard_cache.shard = raw;
  return raw;
}

void TraceRecorder::Append(const TraceEvent& event) {
  Shard* shard = GetShard();
  if (shard->events.size() >= max_events_per_thread_) {
    ++shard->dropped;
    return;
  }
  shard->events.push_back(event);
  shard->events.back().thread = shard->thread_ordinal;
}

void TraceRecorder::Instant(const char* name, const char* category,
                            int32_t track) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.type = 'i';
  e.start_ns = NowNs();
  e.track = track;
  Append(e);
}

uint64_t TraceRecorder::dropped_events() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->dropped;
  return total;
}

size_t TraceRecorder::thread_count() const {
  MutexLock lock(&mu_);
  return shards_.size();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(&mu_);
    for (const auto& shard : shards_) {
      out.insert(out.end(), shard->events.begin(), shard->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

void TraceRecorder::AppendJson(std::string* out) const {
  const std::vector<TraceEvent> events = Snapshot();
  out->append("{\"traceEvents\":[");
  bool first = true;
  auto comma = [&] {
    if (!first) out->append(",\n");
    first = false;
  };

  // One named timeline per logical track (Perfetto shows these as threads).
  std::set<int32_t> tracks;
  for (const TraceEvent& e : events) tracks.insert(e.track);
  tracks.insert(kDriverTrack);
  for (int32_t track : tracks) {
    comma();
    char buf[160];
    if (track == kDriverTrack) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":\"driver\"}}",
                    TrackTid(track));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                    "\"name\":\"thread_name\","
                    "\"args\":{\"name\":\"worker %d\"}}",
                    TrackTid(track), track);
    }
    out->append(buf);
  }

  for (const TraceEvent& e : events) {
    comma();
    out->append("{\"name\":\"");
    AppendEscaped(out, e.name != nullptr ? e.name : "");
    out->append("\",\"cat\":\"");
    AppendEscaped(out, e.category != nullptr ? e.category : "");
    out->append("\",\"ph\":\"");
    out->push_back(e.type);
    out->append("\"");
    if (e.type == 'i') out->append(",\"s\":\"t\"");
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"pid\":0,\"tid\":%d,\"ts\":",
                  TrackTid(e.track));
    out->append(buf);
    AppendMicros(out, e.start_ns);
    if (e.type == 'X') {
      out->append(",\"dur\":");
      AppendMicros(out, e.duration_ns);
    }
    out->append(",\"args\":{\"thread\":");
    std::snprintf(buf, sizeof(buf), "%u", e.thread);
    out->append(buf);
    for (int a = 0; a < e.num_args; ++a) {
      out->append(",\"");
      AppendEscaped(out, e.arg_names[a]);
      std::snprintf(buf, sizeof(buf), "\":%" PRId64, e.arg_values[a]);
      out->append(buf);
    }
    if (e.str_name != nullptr && e.str_value != nullptr) {
      out->append(",\"");
      AppendEscaped(out, e.str_name);
      out->append("\":\"");
      AppendEscaped(out, e.str_value);
      out->append("\"");
    }
    out->append("}}");
  }
  out->append("],\n\"displayTimeUnit\":\"ms\",\n\"pasjoin_counters\":{");

  AppendNamedValues(out, exported_.counters);
  out->append("},\n\"pasjoin_gauges\":{");
  AppendNamedValues(out, exported_.gauges);
  out->append("},\n\"pasjoin_dropped_events\":");
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, dropped_events());
  out->append(buf);
  out->append("}\n");
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  std::string json;
  AppendJson(&json);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file for writing: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_err = std::fclose(f);
  if (written != json.size() || close_err != 0) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

int32_t TraceRecorder::CurrentTrack() { return tls_current_track; }

ScopedTrack::ScopedTrack(const TraceRecorder* recorder, int32_t track)
    : active_(recorder != nullptr) {
  if (!active_) return;
  previous_ = tls_current_track;
  tls_current_track = track;
}

ScopedTrack::~ScopedTrack() {
  if (active_) tls_current_track = previous_;
}

}  // namespace pasjoin::obs
