/** @file Tests for the trace recorder and Chrome JSON export. */
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/probe.h"
#include "src/obs/trace.h"

namespace fleetio {
namespace {

using obs::CounterKind;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TraceRecorder;
using obs::TraceRing;

// ---------------------------------------------------------------------
// Minimal JSON parser: just enough to parse-validate the exporter's
// output (objects, arrays, strings with escapes, numbers, null). Any
// syntax error fails the parse, so a malformed exporter cannot pass.
// ---------------------------------------------------------------------

struct JsonParser
{
    const std::string &s;
    std::size_t i = 0;
    std::size_t values = 0;  ///< total JSON values parsed

    explicit JsonParser(const std::string &text) : s(text) {}

    void ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r')) {
            ++i;
        }
    }

    bool lit(const char *w)
    {
        const std::size_t n = std::char_traits<char>::length(w);
        if (s.compare(i, n, w) != 0)
            return false;
        i += n;
        return true;
    }

    bool string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
                const char c = s[i];
                if (c == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i;
                        if (i >= s.size() || !isxdigit(s[i]))
                            return false;
                    }
                } else if (c != '"' && c != '\\' && c != '/' &&
                           c != 'b' && c != 'f' && c != 'n' &&
                           c != 'r' && c != 't') {
                    return false;
                }
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i;  // closing quote
        return true;
    }

    bool number()
    {
        const std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() && isdigit(s[i]))
            ++i;
        if (i < s.size() && s[i] == '.') {
            ++i;
            while (i < s.size() && isdigit(s[i]))
                ++i;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            while (i < s.size() && isdigit(s[i]))
                ++i;
        }
        return i > start && isdigit(s[i - 1]);
    }

    bool value()
    {
        ++values;
        ws();
        if (i >= s.size())
            return false;
        const char c = s[i];
        if (c == '{') {
            ++i;
            ws();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            while (true) {
                ws();
                if (!string())
                    return false;
                ws();
                if (i >= s.size() || s[i] != ':')
                    return false;
                ++i;
                if (!value())
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != '}')
                return false;
            ++i;
            return true;
        }
        if (c == '[') {
            ++i;
            ws();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != ']')
                return false;
            ++i;
            return true;
        }
        if (c == '"')
            return string();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    bool parseDocument()
    {
        if (!value())
            return false;
        ws();
        return i == s.size();
    }
};

TEST(TraceRing, RetainsUpToCapacity)
{
    TraceRing ring(8);
    for (std::uint64_t k = 0; k < 5; ++k) {
        TraceEvent ev;
        ev.ts = k;
        ring.push(ev);
    }
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.pushed(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (std::uint64_t k = 0; k < 5; ++k)
        EXPECT_EQ(snap[k].ts, k);
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops)
{
    TraceRing ring(8);
    for (std::uint64_t k = 0; k < 20; ++k) {
        TraceEvent ev;
        ev.ts = k;
        ring.push(ev);
    }
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.pushed(), 20u);
    EXPECT_EQ(ring.dropped(), 12u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest-first, i.e. 12..19.
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(snap[k].ts, 12 + k);
}

TEST(TraceRecorder, MacroIsANoOpOnNullRecorder)
{
    // Must compile and do nothing (the guard every instrumentation
    // site in the simulator relies on): a null probe skips the call,
    // and a probe with no recorder installed drops the event.
    obs::Probe *null_probe = nullptr;
    FLEETIO_PROBE(null_probe, windowBoundary(123, 0));
    obs::Probe no_recorder;
    FLEETIO_PROBE(&no_recorder, windowBoundary(123, 0));
    EXPECT_FALSE(no_recorder.active());
}

TEST(TraceRecorder, CountsEventsAndNamesTracks)
{
    TraceRecorder rec(64);
    rec.setTrackName(obs::tenantTrack(0), "tenant-zero");
    rec.ioSubmit(100, 0, 1, IoType::kRead, 4);
    rec.ioDispatch(110, 0, 1, 2, 10);
    rec.ioComplete(150, 0, 1, IoType::kRead, 50);
    EXPECT_EQ(rec.eventCount(), 3u);
    EXPECT_EQ(rec.droppedCount(), 0u);
    EXPECT_EQ(rec.ringCount(), 1u);

    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("tenant-zero"), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
}

TEST(TraceRecorder, PerThreadRingsPreserveEachThreadsOrder)
{
    TraceRecorder rec(1u << 12);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rec, t]() {
            for (std::uint64_t k = 0; k < kPerThread; ++k) {
                TraceEvent ev;
                ev.ts = k;                     // per-thread sequence
                ev.id = std::uint64_t(t);      // thread tag
                ev.type = TraceEventType::kWindowBoundary;
                rec.record(ev);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(rec.ringCount(), std::size_t(kThreads));
    EXPECT_EQ(rec.eventCount(), std::size_t(kThreads) * kPerThread);
    EXPECT_EQ(rec.droppedCount(), 0u);

    // The export merges by (ts, ring, position): within one ts every
    // thread's events stay contiguous per ring, so for each thread tag
    // the ts sequence in export order must be non-decreasing — each
    // thread's own order survives the merge.
    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    JsonParser p(out);
    EXPECT_TRUE(p.parseDocument()) << "export is not valid JSON";
}

TEST(TraceRecorder, ChromeJsonParsesBackAndHasRequiredFields)
{
    TraceRecorder rec(256);
    rec.setTrackName(obs::tenantTrack(0), "VDI \"quoted\"\n-0");
    rec.ioSubmit(1000, 0, 42, IoType::kWrite, 8);
    rec.ioDispatch(1100, 0, 42, 3, 100);
    rec.ioComplete(2000, 0, 42, IoType::kWrite, 1000);
    rec.gcBatch(2100, 0, 3, 17);
    rec.gcOp(2200, TraceEventType::kGcErase, 3);
    rec.gsbEvent(2300, TraceEventType::kGsbCreate, 0, 7, 2);
    rec.agentDecide(2400, 0, 5);
    rec.agentReward(2500, 0, -0.25);
    rec.agentTrip(2600, 0, 1);
    rec.windowBoundary(2700, 9);
    rec.counterSample(2800, obs::kTrackController,
                      CounterKind::kUtilization, 0.5);

    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();

    JsonParser p(out);
    ASSERT_TRUE(p.parseDocument()) << "export is not valid JSON:\n"
                                   << out;
    EXPECT_GT(p.values, 20u);

    // Track-name metadata and the async begin/end pair share a name so
    // Perfetto can pair them.
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(out.find("process_name"), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"write\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    // The quote and newline in the track name must arrive escaped.
    EXPECT_NE(out.find("VDI \\\"quoted\\\"\\n-0"), std::string::npos);
    EXPECT_EQ(out.find("VDI \"quoted\""), std::string::npos);
}

TEST(TraceRecorder, ExportIsSortedByTimestamp)
{
    TraceRecorder rec(256);
    rec.windowBoundary(300, 2);
    rec.windowBoundary(100, 0);
    rec.windowBoundary(200, 1);
    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    // ts are exported in microseconds: 0.1, 0.2, 0.3.
    const auto a = out.find("\"ts\":0.1");
    const auto b = out.find("\"ts\":0.2");
    const auto c = out.find("\"ts\":0.3");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(c, std::string::npos);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

TEST(TraceEnv, EnableKnobSemantics)
{
    unsetenv("FLEETIO_TRACE");
    EXPECT_FALSE(obs::traceEnabledFromEnv());
    setenv("FLEETIO_TRACE", "0", 1);
    EXPECT_FALSE(obs::traceEnabledFromEnv());
    setenv("FLEETIO_TRACE", "1", 1);
    EXPECT_TRUE(obs::traceEnabledFromEnv());
    unsetenv("FLEETIO_TRACE");

    unsetenv("FLEETIO_TRACE_DIR");
    EXPECT_EQ(obs::traceDirFromEnv(), ".");
    setenv("FLEETIO_TRACE_DIR", "/tmp/somewhere", 1);
    EXPECT_EQ(obs::traceDirFromEnv(), "/tmp/somewhere");
    unsetenv("FLEETIO_TRACE_DIR");
}

TEST(TraceEnv, UnwritableTraceDirIsReported)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort};
    spec.policy = PolicyKind::kHardwareIsolation;
    spec.opts.geo = testGeometry();
    spec.opts.window = msec(50);
    spec.warm_run = msec(100);
    spec.measure = msec(200);

    const std::string dir =
        ::testing::TempDir() + "fleetio_missing_trace_dir/sub";
    setenv("FLEETIO_TRACE", "1", 1);
    setenv("FLEETIO_TRACE_DIR", dir.c_str(), 1);
    ::testing::internal::CaptureStderr();
    const ExperimentResult res = runExperiment(spec);
    const std::string err = ::testing::internal::GetCapturedStderr();
    unsetenv("FLEETIO_TRACE");
    unsetenv("FLEETIO_TRACE_DIR");

    EXPECT_GT(res.sim_events, 0u);
    // One line per artifact, naming the path that was not written.
    const std::string prefix =
        "fleetio: could not write " + dir + "/fleetio_run";
    std::set<std::string> reported;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind(prefix, 0) == 0)
            reported.insert(line.substr(line.find('.', prefix.size())));
    }
    EXPECT_EQ(reported,
              (std::set<std::string>{".attribution.json", ".metrics.csv",
                                     ".metrics.json", ".trace.json"}))
        << err;
}

}  // namespace
}  // namespace fleetio
