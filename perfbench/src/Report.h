//===- perfbench/src/Report.h - Results, metrics and host print -*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run's results and the three ways they are written: a human table on
/// stdout (every metric by name, with unit and sample count), a full JSON
/// results document under the output directory (host and build
/// fingerprint, every metric, per-unit rows with the sha256 and size of
/// each unit's emitted C, failures), and the one-line summary that ends
/// stdout, which carries exactly the metrics BENCHMARK.json declares for
/// the run's mode.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Number of samples behind the value (1 for a count or a single
  /// measurement).
  size_t Samples = 1;
};

/// One compiled unit's row: each program gets its own.
struct UnitRow {
  std::string Name;
  /// Status name of the unit's last compile ("ok", "resource-exhausted"...).
  std::string Status;
  std::string Sha256;
  size_t Bytes = 0;
  double CompileMsP50 = 0;
  size_t Samples = 0;
  /// Budget work units of one compile.
  double WorkUnits = -1;
  /// GFLOPS of the unit's generated code; negative when not run.
  double Gflops = -1;
  /// Remark shown after the row, e.g. the known defect it carries.
  std::string Note;
};

struct RunResult {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  bool Trace = false;
  /// Operations attempted, and those whose output was wrong or whose status
  /// was not the expected one.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Operations that did not produce ok output, known defects included.
  uint64_t NotOk = 0;
  std::vector<std::string> Failures;
  /// Known defects seen, with how often: not ok, but not failed checks.
  std::vector<std::pair<std::string, uint64_t>> KnownDefects;
  /// False when peak_rss_mb may include an earlier workload's peak (a
  /// later workload of one process whose peak could not be reset).
  bool PeakRssComparable = true;
  /// The metrics the summary line carries in untraced (EndToEnd) and traced
  /// (Layers) runs, plus workload-specific metrics that only the table and
  /// the results document carry.
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers;
  std::vector<Metric> Extra;
  std::vector<UnitRow> Units;
  /// Raw JSON documents attached verbatim to the results document (e.g.
  /// the server's metrics).
  std::vector<std::pair<std::string, std::string>> Attachments;

  /// A wrong output or an unexpected status: counts as failed and not ok.
  void fail(const std::string &What);
  /// A known defect behaving as documented: counts as not ok only.
  void knownDefect(const std::string &What);
  /// Operations that ran into a known defect.
  uint64_t knownDefectCount() const;
};

void setMetric(std::vector<Metric> &Ms, const std::string &Name, double Value,
               const std::string &Unit, size_t Samples = 1);

/// Names and units of the metrics BENCHMARK.json declares.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};
const std::vector<MetricSpec> &endToEndSpec();
const std::vector<MetricSpec> &perLayerSpec();

/// Host and build fingerprint written into every result.
struct HostInfo {
  unsigned Nproc = 0;
  std::vector<std::string> Caches;
  std::string CcVersion;
  std::string BuildType;
  bool Sanitize = false;
  /// False for sanitizer and unoptimized builds: never compare them with an
  /// optimized baseline.
  bool Valid = true;
  std::string InvalidReason;
};
HostInfo hostInfo();

/// Resets the peak resident set size to the current one (Linux
/// clear_refs); false when the kernel refuses.
bool resetPeakRss();
/// Peak resident set size of this process since start or the last
/// successful resetPeakRss, in MiB.
double peakRssMb();

void printTable(std::FILE *Out, const RunResult &R, const HostInfo &H);
std::string resultJson(const RunResult &R, const HostInfo &H);
/// The final stdout line. Fails (returns false, Msg set) when a declared
/// metric is missing from R.
bool summaryLine(const RunResult &R, std::string &Line, std::string &Msg);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
