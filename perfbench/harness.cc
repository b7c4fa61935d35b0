#include "harness.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double TicksPerNs() {
  static const double kRate = [] {
#if defined(__x86_64__)
    const auto w0 = std::chrono::steady_clock::now();
    const uint64_t t0 = Ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t t1 = Ticks();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - w0)
                          .count();
    return static_cast<double>(t1 - t0) / ns;
#else
    return 1.0;
#endif
  }();
  return kRate;
}

std::string MetricSet::Json(bool with_samples) const {
  std::ostringstream o;
  o.precision(17);
  o << "{";
  bool first = true;
  for (const auto& [name, m] : m_) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
      << ", \"unit\": \"" << m.unit << "\"";
    if (with_samples && m.samples != 0) o << ", \"samples\": " << m.samples;
    o << "}";
    first = false;
  }
  o << "}";
  return o.str();
}

uint32_t SpanLog::NameId(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
  const double per_ns = ns_rate_ > 0 ? ns_rate_ : TicksPerNs();
  f.setf(std::ios::fixed);
  f.precision(1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i + 1) << '\t' << s.parent << '\t' << s.req << '\t' << names_[s.name]
      << '\t' << static_cast<double>(s.start - origin) / per_ns << '\t'
      << static_cast<double>(s.end - origin) / per_ns << '\n';
  }
  return static_cast<bool>(f);
}

// Read-back spans hold nanoseconds x 1024 in their integer start/end
// fields, which keeps the file's sub-nanosecond digit.
namespace {
constexpr double kReadScale = 1024.0;
}  // namespace

bool SpanLog::Read(const std::string& path, SpanLog* out) {
  std::ifstream f(path);
  if (!f) return false;
  *out = SpanLog();
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    uint64_t id = 0, parent = 0, req = 0;
    std::string name;
    double start = 0, end = 0;
    if (!(in >> id >> parent >> req >> name >> start >> end)) return false;
    if (id != out->spans_.size() + 1 || parent >= id) return false;
    out->spans_.push_back(Span{out->NameId(name), static_cast<uint32_t>(parent),
                               req, static_cast<uint64_t>(start * kReadScale),
                               static_cast<uint64_t>(end * kReadScale)});
  }
  out->ns_rate_ = kReadScale;
  return true;
}

double SpanLog::DurNs(const Span& s) const {
  return static_cast<double>(s.end - s.start) /
         (ns_rate_ > 0 ? ns_rate_ : TicksPerNs());
}

std::map<uint64_t, double> DurationsByReq(const SpanLog& log,
                                          const std::string& name) {
  std::map<uint64_t, double> out;
  for (const Span& s : log.spans()) {
    if (log.Name(s.name) == name) out[s.req] += log.DurNs(s);
  }
  return out;
}

std::vector<double> RungSelfNs(const SpanLog& log, const std::string& upper,
                               const std::string& lower) {
  const std::map<uint64_t, double> up = DurationsByReq(log, upper);
  const std::map<uint64_t, double> lo = DurationsByReq(log, lower);
  std::vector<double> out;
  out.reserve(up.size());
  for (const auto& [req, d] : up) {
    const auto it = lo.find(req);
    if (it != lo.end()) out.push_back(d - it->second);
  }
  return out;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::map<std::string, uint64_t> DirFiles(const std::string& dir) {
  std::map<std::string, uint64_t> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code ec2;
    if (e.is_regular_file(ec2)) {
      out[e.path().filename().string()] = e.file_size(ec2);
    }
  }
  return out;
}

}  // namespace perfbench
