/**
 * @file
 * Console / CSV reporting shared by every bench: fixed-width tables
 * matching the rows the paper's figures plot, plus the machine-readable
 * perf-tracking record (BENCH_<name>.json) every bench can emit.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/json.h"
#include "src/obs/phase_profiler.h"

namespace fleetio {

/** Minimal fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; cells beyond the header count are dropped. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    void print(std::ostream &os) const;

    /** Render as CSV (cells quoted/escaped per RFC 4180). */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers. */
std::string fmtDouble(double v, int precision = 2);
std::string fmtPercent(double fraction, int precision = 1);
std::string fmtLatencyMs(SimTime ns, int precision = 2);

/** Ratio guarded against a zero base. */
double normalizeTo(double value, double base);

/** One-line summary of an experiment (policy, util, P99s, BWs). */
void printExperimentSummary(const ExperimentResult &res,
                            std::ostream &os);

/** Detailed per-tenant table for an experiment. */
void printExperimentDetail(const ExperimentResult &res, std::ostream &os);

/** One-line fault-injection outcome; prints nothing on a clean run. */
void printFaultSummary(const ExperimentResult &res, std::ostream &os);

/** One-line agent-supervision outcome (trips / restores / fallback
 *  windows / lease releases); prints nothing on a healthy run. */
void printSupervisionSummary(const ExperimentResult &res,
                             std::ostream &os);

/** One-line elastic-churn outcome (arrivals / admissions / removals /
 *  tier stepdowns); prints nothing on a static run. */
void printChurnSummary(const ExperimentResult &res, std::ostream &os);

/** Root-cause observability outcome (verdict counts by cause, drift
 *  flags); prints nothing when attribution was off. */
void printAttributionSummary(const ExperimentResult &res,
                             std::ostream &os);

// jsonEscape / jsonNumber come from src/obs/json.h (the single JSON
// escaping implementation, shared with the trace/metrics exporters).

/**
 * Perf-tracking record of one bench run: a wall-clock timer started at
 * construction, per-cell metrics, and a JSON serializer emitting the
 * fleetio-bench-v1 schema (see DESIGN.md §7) with cells/sec and
 * events/sec so the perf trajectory is comparable across commits.
 *
 * Writing is opt-in: writeIfEnabled() emits BENCH_<name>.json when
 * --json is on the command line or FLEETIO_BENCH_JSON is set
 * (value "0" disables; a value with a '/' is the output directory).
 */
class BenchReport
{
  public:
    /** @p name becomes the "bench" field and the output file name. */
    explicit BenchReport(std::string name);

    /** Record one grid cell from a full experiment result. Per-phase
     *  wall/sim-event attribution (res.phases) accumulates into the
     *  report's "phases" JSON block. */
    void addCell(const std::string &label, const ExperimentResult &res);

    /** Record one custom cell (benches whose cells are not
     *  ExperimentResults). @p sim_events may be 0 when unknown. */
    void addCell(const std::string &label,
                 const std::map<std::string, double> &metrics,
                 std::uint64_t sim_events = 0);

    /** Attach a top-level scalar (e.g. "accuracy", "events_per_sec_eq"). */
    void setMetric(const std::string &key, double value);

    /** Record the worker count the sweep ran with. */
    void setJobs(unsigned jobs) { jobs_ = jobs; }

    /** Wall seconds since construction. */
    double elapsedSeconds() const;

    /** Sum of per-cell sim_events recorded so far. */
    std::uint64_t totalSimEvents() const;

    /** Serialize the full record as JSON. */
    void writeJson(std::ostream &os) const;

    /**
     * Write BENCH_<name>.json if JSON output is enabled (see class
     * docs) and print a one-line confirmation to @p log.
     * @return true when a file was written.
     */
    bool writeIfEnabled(int argc = 0, const char *const *argv = nullptr,
                        std::ostream &log = std::cerr) const;

  private:
    struct Cell
    {
        std::string label;
        std::map<std::string, double> metrics;
        std::uint64_t sim_events = 0;
    };

    struct PhaseTotal
    {
        double wall_seconds = 0.0;
        std::uint64_t sim_events = 0;
    };

    std::string name_;
    unsigned jobs_ = 1;
    std::vector<Cell> cells_;
    std::map<std::string, double> metrics_;
    std::map<std::string, PhaseTotal> phase_totals_;
    // fleetio-lint: allow(nondeterminism): perf-tracking wall clock —
    // measures the harness itself, never observed by the simulation.
    std::chrono::steady_clock::time_point start_;
};

}  // namespace fleetio
