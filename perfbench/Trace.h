//===- perfbench/Trace.h - Spans recorded around layer calls ----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. The program itself has no tracing at its layer
/// boundaries yet, so the traced run calls each layer's public entry point
/// from the benchmark and records one span per call: the layer name, start,
/// end, the span that caused it (the job's root span) and the job id that
/// all spans of one job share. Spans stay in memory; the benchmark writes
/// them out as a Chrome trace when it ends.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_PERFBENCH_TRACE_H
#define RAP_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rapbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Span {
  const char *Name = ""; ///< "job" for a root, else a layer call
  uint32_t Job = 0;
  int32_t Parent = -1; ///< index of the causing span; -1 for a job root
  Clock::time_point Start;
  Clock::time_point End;
};

/// Seconds per layer span name within one job, plus the job's wall time.
struct JobTrace {
  double WallS = 0;
  std::map<std::string, double> Layer;

  double covered() const {
    double S = 0;
    for (const auto &[Name, Sec] : Layer)
      S += Sec;
    return S;
  }
  double get(const std::string &Name) const {
    auto It = Layer.find(Name);
    return It == Layer.end() ? 0.0 : It->second;
  }
};

class Tracer {
public:
  /// Opens a job's root span; returns its index for span() and endJob().
  int32_t beginJob() {
    Spans.push_back({"job", NextJob++, -1, Clock::now(), {}});
    return static_cast<int32_t>(Spans.size() - 1);
  }

  /// Closes the root span and sums the job's layer spans by name. Layer
  /// spans do not nest, so the part of the job no span covers is
  /// WallS - covered().
  JobTrace endJob(int32_t Root) {
    Spans[Root].End = Clock::now();
    JobTrace T;
    T.WallS = secondsBetween(Spans[Root].Start, Spans[Root].End);
    for (size_t I = Root + 1; I != Spans.size(); ++I)
      if (Spans[I].Parent == Root)
        T.Layer[Spans[I].Name] +=
            secondsBetween(Spans[I].Start, Spans[I].End);
    return T;
  }

  /// Runs \p Fn as one call into layer \p Name caused by job \p Root.
  template <typename Fn>
  decltype(auto) span(int32_t Root, const char *Name, Fn &&F) {
    size_t I = Spans.size();
    Spans.push_back({Name, Spans[Root].Job, Root, Clock::now(), {}});
    struct Closer {
      std::vector<Span> &Spans;
      size_t I;
      ~Closer() { Spans[I].End = Clock::now(); }
    } C{Spans, I};
    return F();
  }

  /// Writes every span as a Chrome trace ("X" events, microseconds from
  /// the first span), one track per job.
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    Clock::time_point Epoch = Spans.empty() ? Clock::now() : Spans[0].Start;
    std::fprintf(Out, "{\"traceEvents\":[");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                   I ? "," : "", S.Name, S.Job,
                   secondsBetween(Epoch, S.Start) * 1e6,
                   secondsBetween(S.Start, S.End) * 1e6, S.Parent);
    }
    std::fprintf(Out, "\n]}\n");
    return std::fclose(Out) == 0;
  }

private:
  std::vector<Span> Spans;
  uint32_t NextJob = 0;
};

} // namespace rapbench

#endif // RAP_PERFBENCH_TRACE_H
