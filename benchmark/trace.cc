#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace coskq::bench {

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    uint64_t request, double start_us, double end_us) {
  spans_.push_back(Span{name, id, parent, request, start_us,
                        end_us > start_us ? end_us - start_us : 0.0});
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_us[s.parent] += s.dur_us;
    }
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_us += s.dur_us;
    const auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    t.self_us += s.dur_us > covered ? s.dur_us - covered : 0.0;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, s.start_us, s.dur_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace coskq::bench
