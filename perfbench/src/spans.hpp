// In-memory span log for the traced run: one span around each call the
// benchmark makes into a layer (name, start, end, parent), kept in a
// vector and written out once the run ends, so recording costs one
// clock read and one push per span. The end-to-end run passes a null
// log and records nothing.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0;  // host seconds since the log was created
    double end_s = 0;
    int parent = -1;     // index into spans(), -1 for a root
  };

  [[nodiscard]] double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  int Open(std::string name) {
    spans_.push_back(Span{std::move(name), Now(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = Now();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Writes the spans as one JSON array; false if the file cannot be
  // written.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"parent\":%d}%s\n",
                   i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fputs("]\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

// Opens a span on construction and closes it on destruction; a no-op
// when the log is null.
class Scope {
 public:
  Scope(SpanLog* log, std::string name) : log_(log) {
    if (log_ != nullptr) index_ = log_->Open(std::move(name));
  }
  ~Scope() {
    if (log_ != nullptr) log_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

}  // namespace perfbench
