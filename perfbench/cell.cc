/**
 * @file
 * One benchmark cell per process (perfbench/run.py starts one process
 * per cell so every cell starts with an empty calibratedSlo cache, as a
 * standalone run does).
 *
 *   fleetbench_cell --workload W --seed N --measure-sec S --mode M
 *                   [--trace-out FILE]
 *
 * Modes:
 *   plain   runExperiment() timed from outside; end-to-end numbers.
 *   obs     the same with every TestbedOptions::obs switch on.
 *   traced  the same cell driven through the public Testbed / Policy /
 *           FleetIoController calls, one Testbed::run per decision
 *           window, with spans recorded around each call, followed by
 *           replay microbenches of the sim, ssd and rl layers sized from
 *           the cell. Writes Chrome trace-event JSON to FILE.
 *
 * Prints one JSON object on stdout.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/agent.h"
#include "src/core/fleetio_controller.h"
#include "src/harness/experiment.h"
#include "src/harness/testbed.h"
#include "src/obs/json.h"
#include "src/policies/fleetio_policy.h"
#include "src/policies/policy.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/ssd/flash_device.h"
#include "src/ssd/ftl.h"
#include "src/ssd/geometry.h"

using namespace fleetio;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

// ---------------------------------------------------------------------
// Workloads: the three paper cells.

struct Workload
{
    const char *name;
    std::vector<WorkloadKind> kinds;
    PolicyKind policy;
};

std::optional<Workload>
findWorkload(const std::string &name)
{
    using K = WorkloadKind;
    const std::vector<Workload> all = {
        // §4.2 pair, FleetIO default Variant (the quickstart cell).
        {"fleetio-vdi-terasort", {K::kVdiWeb, K::kTeraSort},
         PolicyKind::kFleetIo},
        // §4.2 pair, Software Isolation: no learning, shared channels.
        {"swiso-ycsb-pagerank", {K::kYcsbB, K::kPageRank},
         PolicyKind::kSoftwareIsolation},
        // Table 5 mix5: 8 vSSDs under FleetIO.
        {"fleetio-mix8",
         {K::kVdiWeb, K::kVdiWeb, K::kVdiWeb, K::kVdiWeb, K::kTeraSort,
          K::kTeraSort, K::kPageRank, K::kMlPrep},
         PolicyKind::kFleetIo},
    };
    for (const auto &w : all) {
        if (name == w.name)
            return w;
    }
    return std::nullopt;
}

ExperimentSpec
makeSpec(const Workload &w, std::uint64_t seed, std::uint64_t measure_sec)
{
    ExperimentSpec spec;
    spec.workloads = w.kinds;
    spec.policy = w.policy;
    spec.opts.window = msec(100);
    spec.opts.seed = seed;
    spec.warm_run = sec(2);
    spec.measure = sec(measure_sec);
    return spec;
}

// ---------------------------------------------------------------------
// Output: a flat JSON object.

class JsonOut
{
  public:
    void num(const std::string &key, double v) { add(key, jsonNumber(v)); }
    void str(const std::string &key, const std::string &v)
    {
        add(key, "\"" + jsonEscape(v) + "\"");
    }
    void print() const { std::printf("{%s}\n", body_.c_str()); }

  private:
    void add(const std::string &key, const std::string &raw)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + raw;
    }
    std::string body_;
};

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Simulated outcome: digest + the end-to-end simulated metrics.

std::uint64_t
fnv(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnvValue(std::uint64_t h, T v)
{
    return fnv(h, &v, sizeof v);
}

/** FNV-1a over every simulated field the cell reports. */
std::uint64_t
digest(const ExperimentResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &t : r.tenants) {
        h = fnv(h, t.workload.data(), t.workload.size());
        h = fnvValue(h, t.avg_bw_mbps);
        h = fnvValue(h, t.iops);
        h = fnvValue(h, t.p50);
        h = fnvValue(h, t.p95);
        h = fnvValue(h, t.p99);
        h = fnvValue(h, t.p999);
        h = fnvValue(h, t.slo_violation);
        h = fnvValue(h, t.requests);
    }
    h = fnvValue(h, r.avg_util);
    h = fnvValue(h, r.p95_util);
    h = fnvValue(h, r.write_amp);
    h = fnvValue(h, r.sim_events);
    h = fnvValue(h, r.gsb_revokes);
    return h;
}

void
emitSimulated(JsonOut &out, const ExperimentResult &r)
{
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  (unsigned long long)digest(r));
    out.str("digest", hex);
    double vio = 0.0;
    std::vector<double> ls_p95;
    double min_requests = -1.0;
    for (const auto &t : r.tenants) {
        if (!t.bandwidth_intensive) {
            vio += t.slo_violation;
            ls_p95.push_back(double(t.p95) / 1e6);
        }
        if (min_requests < 0 || double(t.requests) < min_requests)
            min_requests = double(t.requests);
    }
    // P95 of the median LS tenant: in mix8 a VDI-Web tenant's P99 ranges
    // 6-32 ms across seeds, so P99 and the mean over tenants are too
    // seed-dependent to gate on (see perfbench/README.md).
    out.num("ls_p95_ms", median(ls_p95));
    out.num("ls_p99_ms", r.meanLatencySensitiveP99() / 1e6);
    out.num("ls_slo_violation",
            ls_p95.empty() ? 0.0 : vio / double(ls_p95.size()));
    out.num("bi_bw_mbps", r.meanBandwidthIntensiveBw());
    out.num("util", r.avg_util);
    out.num("write_amp", r.write_amp);
    out.num("min_tenant_requests", min_requests);
    out.num("tenants", double(r.tenants.size()));
    out.num("sim_events", double(r.sim_events));
}

/** The collect step of runExperiment, for the traced run. */
ExperimentResult
collect(Testbed &tb, Policy &policy, SimTime measure)
{
    ExperimentResult res;
    res.policy = policy.name();
    res.measured = measure;
    res.sim_events = tb.eq().dispatched();
    res.avg_util = tb.avgUtilization();
    res.p95_util = tb.p95Utilization();
    res.write_amp = tb.device().writeAmplification();
    res.gsb_revokes = tb.gsb().revokedCount();
    for (auto *v : tb.vssds().active()) {
        TenantResult t;
        t.workload = tb.workload(v->id()).name();
        t.bandwidth_intensive =
            isBandwidthIntensive(tb.tenantKind(v->id()));
        t.avg_bw_mbps = v->bandwidth().totalMBps(measure);
        t.iops = double(v->latency().totalCount()) / toSeconds(measure);
        t.p50 = v->latency().quantile(0.50);
        t.p95 = v->latency().quantile(0.95);
        t.p99 = v->latency().quantile(0.99);
        t.p999 = v->latency().quantile(0.999);
        t.slo_violation = v->latency().sloViolation();
        t.requests = v->latency().totalCount();
        t.slo = v->config().slo;
        res.tenants.push_back(std::move(t));
    }
    policy.collectStats(res);
    return res;
}

// ---------------------------------------------------------------------
// plain / obs modes: runExperiment timed from outside.

int
runPlain(const ExperimentSpec &spec, bool obs_on)
{
    ExperimentSpec s = spec;
    if (obs_on) {
        s.opts.obs.trace = true;
        s.opts.obs.metrics = true;
        s.opts.obs.attribution = true;
        s.opts.obs.drift = true;
    }
    const auto t0 = Clock::now();
    const ExperimentResult r = runExperiment(s);
    const double cell_s = secondsBetween(t0, Clock::now());

    JsonOut out;
    out.num("cell_s", cell_s);
    double setup = 0.0, measure_s = 0.0;
    for (const auto &p : r.phases) {
        out.num("phase." + p.name + "_s", p.wall_seconds);
        if (p.name == "calibrate" || p.name == "build" ||
            p.name == "warmup")
            setup += p.wall_seconds;
        if (p.name == "measure")
            measure_s = p.wall_seconds;
    }
    out.num("setup_s", setup);
    out.num("sim_speed", toSeconds(spec.measure) / measure_s);
    out.num("peak_rss_mb", peakRssMb());
    emitSimulated(out, r);
    out.print();
    return 0;
}

// ---------------------------------------------------------------------
// traced mode: spans recorded around each public call.

struct Span
{
    std::string name;
    int parent = -1;
    Clock::time_point t0{}, t1{};
    // Window spans only.
    std::uint64_t events = 0;
    std::uint64_t pending = 0;
    std::uint64_t opt_steps = 0;
    bool window = false;

    double ms() const { return secondsBetween(t0, t1) * 1e3; }
};

class SpanLog
{
  public:
    int open(const std::string &name, int parent)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.t0 = Clock::now();
        spans_.push_back(std::move(s));
        return int(spans_.size()) - 1;
    }
    void close(int id) { spans_[std::size_t(id)].t1 = Clock::now(); }
    Span &at(int id) { return spans_[std::size_t(id)]; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the part covered by direct children, in ms. */
    std::vector<double> selfMs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].ms();
        for (const auto &s : spans_) {
            if (s.parent >= 0)
                self[std::size_t(s.parent)] -= s.ms();
        }
        return self;
    }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
     *  @return false when the file could not be written. */
    bool writeChrome(const std::string &path, const std::string &cell) const
    {
        std::ofstream os(path);
        const auto origin = spans_.empty() ? Clock::now() : spans_[0].t0;
        const std::vector<double> self = selfMs();
        os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"cell\": \""
           << jsonEscape(cell) << "\"}, \"traceEvents\": [\n";
        os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": 1, \"args\": {\"name\": \"fleetbench_cell\"}}";
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double ts =
                std::chrono::duration<double, std::micro>(s.t0 - origin)
                    .count();
            const double dur =
                std::chrono::duration<double, std::micro>(s.t1 - s.t0)
                    .count();
            std::snprintf(buf, sizeof buf,
                          ",\n{\"name\": \"%s\", \"cat\": \"%s\", "
                          "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                          "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                          "{\"self_us\": %.3f",
                          s.name.c_str(),
                          s.window ? "window" : "phase", ts, dur,
                          self[i] * 1e3);
            os << buf;
            if (s.window) {
                std::snprintf(buf, sizeof buf,
                              ", \"events\": %llu, \"pending\": %llu, "
                              "\"optimizer_steps\": %llu",
                              (unsigned long long)s.events,
                              (unsigned long long)s.pending,
                              (unsigned long long)s.opt_steps);
                os << buf;
            }
            os << "}}";
        }
        os << "\n]}\n";
        os.flush();
        return bool(os);
    }

  private:
    std::vector<Span> spans_;
};

std::uint64_t
optimizerSteps(FleetIoController *ctrl, Testbed &tb)
{
    if (ctrl == nullptr)
        return 0;
    std::uint64_t s = 0;
    for (auto *v : tb.vssds().active()) {
        if (FleetIoAgent *a = ctrl->agent(v->id()))
            s += a->trainer().optimizerSteps();
    }
    return s;
}

std::size_t
rolloutSize(FleetIoController *ctrl, Testbed &tb)
{
    if (ctrl == nullptr)
        return 0;
    std::size_t n = 0;
    for (auto *v : tb.vssds().active()) {
        if (FleetIoAgent *a = ctrl->agent(v->id()))
            n = std::max(n, a->rolloutSize());
    }
    return n;
}

// --- sim: EventQueue scheduleAt + step at a fixed depth ---------------

/** A self-rescheduling event whose capture fills the 96-B inline slot. */
struct ReplayEvent
{
    EventQueue *eq;
    std::uint64_t *state;
    std::array<std::uint64_t, 10> pad;

    void operator()()
    {
        std::uint64_t x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        pad[0] += x;
        eq->scheduleAfter(SimTime(1 + x % 100000), ReplayEvent(*this));
    }
};
static_assert(sizeof(ReplayEvent) == EventQueue::kInlineCallbackBytes,
              "replay callback must fill the inline slot exactly");

double
eqReplayNs(std::size_t depth)
{
    constexpr std::uint64_t kSteps = 400'000;
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        EventQueue eq;
        std::uint64_t state = 0x9E3779B97F4A7C15ull + std::uint64_t(rep);
        for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
            eq.scheduleAt(SimTime(1 + (i * 7919) % 100000),
                          ReplayEvent{&eq, &state, {}});
        }
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kSteps; ++i)
            eq.step();
        reps.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                       double(kSteps));
    }
    return median(reps);
}

// --- ssd: Ftl::allocateWrite / lookup on benchGeometry -----------------

struct FtlReplay
{
    double alloc_ns = 0.0;
    double lookup_ns = 0.0;
};

FtlReplay
ftlReplay()
{
    const SsdGeometry geo = benchGeometry();
    std::vector<double> alloc, lookup;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        EventQueue eq;
        FlashDevice dev(geo, eq);
        std::vector<ChannelId> chans(geo.num_channels);
        for (ChannelId c = 0; c < geo.num_channels; ++c)
            chans[c] = c;
        Ftl ftl(dev, Ftl::Config{0, geo.totalBlocks(), chans});
        const std::uint64_t pages = ftl.logicalPages();
        Ppa ppa = kNoPpa;
        auto t0 = Clock::now();
        std::uint64_t written = 0;
        for (Lpa lpa = 0; lpa < pages; ++lpa)
            written += ftl.allocateWrite(lpa, ppa);
        alloc.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                        double(std::max<std::uint64_t>(written, 1)));

        Rng rng(0x5eed0000ull + std::uint64_t(rep));
        const std::uint64_t lookups = 4 * pages;
        t0 = Clock::now();
        for (std::uint64_t i = 0; i < lookups; ++i)
            sink += ftl.lookup(Lpa(rng.uniformInt(pages)));
        lookup.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                         double(lookups));
    }
    // Using the lookups' result keeps them from being optimized away.
    if (sink == 0)
        std::fprintf(stderr, "ftl replay: no lookups mapped\n");
    return {median(alloc), median(lookup)};
}

// --- rl: FleetIoAgent decide / imitate / train -------------------------

struct RlReplay
{
    double decide_us = 0.0;
    double imitate_us = 0.0;
    double update_ms = 0.0;
};

rl::Vector
randomState(Rng &rng, std::size_t dim)
{
    rl::Vector s(dim);
    for (double &x : s)
        x = rng.uniform();
    return s;
}

RlReplay
rlReplay(const FleetIoConfig &cfg, std::size_t rollout)
{
    const std::size_t dim = cfg.stateDim();
    Rng rng(0xA11CEull);
    RlReplay out;

    {
        FleetIoAgent agent(0, cfg, 7);
        agent.setTraining(true);
        // Once a minibatch is stored, every imitate() call runs two
        // behaviour-cloning minibatch updates (about 150x a decide()),
        // hence fewer calls.
        constexpr std::size_t kDecides = 3000, kImitates = 320;
        std::vector<rl::Vector> states;
        for (std::size_t i = 0; i < kDecides; ++i)
            states.push_back(randomState(rng, dim));
        auto t0 = Clock::now();
        for (const auto &s : states)
            agent.decide(s);
        out.decide_us =
            secondsBetween(t0, Clock::now()) * 1e6 / double(kDecides);

        const std::vector<std::size_t> actions =
            agent.mapper().encode(agent.decide(states[0]));
        t0 = Clock::now();
        for (std::size_t i = 0; i < kImitates; ++i)
            agent.imitate(states[i], actions, 1.0);
        out.imitate_us =
            secondsBetween(t0, Clock::now()) * 1e6 / double(kImitates);
    }

    std::vector<double> updates;
    FleetIoAgent agent(1, cfg, 11);
    agent.setTraining(true);
    for (int rep = 0; rep < 5; ++rep) {
        for (std::size_t i = 0; i < rollout; ++i) {
            agent.decide(randomState(rng, dim));
            agent.completeTransition(rng.uniform(-1.0, 1.0));
        }
        const rl::Vector boot = randomState(rng, dim);
        const auto t0 = Clock::now();
        agent.train(boot);
        updates.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    out.update_ms = median(updates);
    return out;
}

/** Layer counters of a finished cell (read before teardown). */
void
emitCounters(JsonOut &out, Testbed &tb, FleetIoController *ctrl)
{
    const FlashDevice &dev = tb.device();
    std::uint64_t migrated = 0, issued = 0, completed = 0;
    double max_backlog_share = 0.0;
    for (auto *v : tb.vssds().active()) {
        migrated += v->gc().pagesMigrated();
        const auto &wl = tb.workload(v->id());
        issued += wl.issued();
        completed += wl.completed();
        const double backlog =
            double(wl.issued()) - double(wl.completed());
        max_backlog_share = std::max(
            max_backlog_share,
            backlog / double(std::max<std::uint64_t>(wl.issued(), 1)));
    }
    out.num("ssd.host_reads", double(dev.hostReads()));
    out.num("ssd.host_writes", double(dev.hostWrites()));
    out.num("ssd.gc_pages_migrated", double(migrated));
    out.num("ssd.erases", double(dev.erases()));
    out.num("ssd.write_amp", dev.writeAmplification());
    out.num("workloads.requests_issued", double(issued));
    out.num("workloads.requests_completed", double(completed));
    out.num("max_backlog_share", max_backlog_share);
    const GsbManager &gsb = tb.gsb();
    out.num("harvest.gsb_created", double(gsb.createdCount()));
    out.num("harvest.gsb_harvested", double(gsb.harvestedCount()));
    out.num("harvest.gsb_revoked", double(gsb.revokedCount()));
    out.num("harvest.useful_ratio",
            gsb.createdCount() ? double(gsb.harvestedCount()) /
                                     double(gsb.createdCount())
                               : 0.0);
    double decisions = 0.0, accept = 0.0;
    if (ctrl != nullptr) {
        decisions = double(ctrl->windows() * ctrl->numAgents());
        const auto &adm = ctrl->admission();
        if (adm.processed() > 0)
            accept = double(adm.processed() - adm.rejected()) /
                     double(adm.processed());
    }
    out.num("core.decisions", decisions);
    out.num("core.admission_accept_ratio", accept);
    out.num("rl.optimizer_steps", double(optimizerSteps(ctrl, tb)));
}

/** Per-window statistics. @return the mean pending depth. */
double
emitWindowStats(JsonOut &out, const SpanLog &log, double ns_per_event)
{
    std::vector<double> teacher, ppo, upd, meas, depth;
    std::uint64_t teacher_events = 0;
    double depth_max = 0.0;
    for (const Span &s : log.spans()) {
        if (!s.window)
            continue;
        depth.push_back(double(s.pending));
        depth_max = std::max(depth_max, double(s.pending));
        if (s.name == "teacher_window") {
            teacher.push_back(s.ms());
            teacher_events += s.events;
        } else if (s.name == "ppo_window") {
            ppo.push_back(s.ms());
        } else if (s.name == "update_window") {
            upd.push_back(s.ms());
        } else {
            meas.push_back(s.ms());
        }
    }
    out.num("sim.measure_window_ms.p50", percentile(meas, 0.5));
    out.num("sim.measure_window_ms.p90", percentile(meas, 0.9));
    out.num("sim.queue_depth.mean", mean(depth));
    out.num("sim.queue_depth.max", depth_max);
    out.num("core.teacher_window_ms.p50", percentile(teacher, 0.5));
    out.num("core.teacher_window_ms.p98", percentile(teacher, 0.98));
    out.num("core.teacher_self_ms",
            teacher.empty() ? 0.0
                            : mean(teacher) -
                                  double(teacher_events) /
                                      double(teacher.size()) *
                                      ns_per_event / 1e6);
    out.num("core.ppo_window_ms.p50", percentile(ppo, 0.5));
    out.num("rl.update_window_extra_ms",
            upd.empty() || ppo.empty() ? 0.0 : mean(upd) - mean(ppo));
    return mean(depth);
}

/** Top-level span times and their coverage of the cell span. */
void
emitPhases(JsonOut &out, const SpanLog &log, int cell)
{
    double top = 0.0;
    std::map<std::string, double> phase_s;
    for (const Span &s : log.spans()) {
        if (s.parent == cell) {
            top += s.ms() / 1e3;
            phase_s[s.name] += s.ms() / 1e3;
        }
    }
    const double cell_s = log.spans()[std::size_t(cell)].ms() / 1e3;
    out.num("traced_cell_s", cell_s);
    out.num("trace.top_level_coverage", top / cell_s);
    out.num("harness.calibrate_s", phase_s["calibrate"]);
    out.num("harness.build_s", phase_s["build"]);
    out.num("ssd.warmup_fill_s", phase_s["warmup_fill"]);
    out.num("harness.warm_run_s", phase_s["warm_run"]);
    out.num("harness.prepare_s", phase_s["prepare"]);
    out.num("harness.collect_s", phase_s["collect"]);
}

int
runTraced(const Workload &w, const ExperimentSpec &spec,
          const std::string &trace_out)
{
    SpanLog log;
    const int cell = log.open("cell", -1);

    // 1. calibrate: one span per calibratedSlo call.
    const int calibrate = log.open("calibrate", cell);
    std::vector<SimTime> slos;
    for (WorkloadKind kind : spec.workloads) {
        const int s = log.open("calibratedSlo", calibrate);
        slos.push_back(
            calibratedSlo(kind, spec.workloads.size(), spec.opts));
        log.close(s);
    }
    log.close(calibrate);

    // 2. build.
    const int build = log.open("build", cell);
    auto tb = std::make_unique<Testbed>(spec.opts);
    std::unique_ptr<Policy> policy;
    FleetIoPolicy *fleet = nullptr;
    if (w.policy == PolicyKind::kFleetIo) {
        auto p = std::make_unique<FleetIoPolicy>();
        fleet = p.get();
        policy = std::move(p);
    } else {
        policy = makePolicy(w.policy);
    }
    policy->setup(*tb, spec.workloads, slos);
    FleetIoController *ctrl = fleet ? fleet->controller() : nullptr;
    log.close(build);

    // 3. warm-up: fill, then the warm run.
    const int fill = log.open("warmup_fill", cell);
    tb->warmupFill();
    log.close(fill);
    const int warm = log.open("warm_run", cell);
    tb->startWorkloads();
    tb->run(spec.warm_run);
    log.close(warm);

    const SimTime window = spec.opts.window;
    std::uint64_t update_rollouts = 0, updates = 0;
    std::size_t last_rollout = rolloutSize(ctrl, *tb);
    auto runWindow = [&](int parent, bool prepare) {
        const int s = log.open("window", parent);
        const std::uint64_t ev0 = tb->eq().dispatched();
        const std::uint64_t st0 = optimizerSteps(ctrl, *tb);
        tb->run(window);
        log.close(s);
        Span &sp = log.at(s);
        sp.window = true;
        sp.events = tb->eq().dispatched() - ev0;
        sp.pending = tb->eq().pending();
        sp.opt_steps = optimizerSteps(ctrl, *tb) - st0;
        if (!prepare)
            sp.name = "measure_window";
        else if (ctrl->windows() <=
                 std::uint64_t(ctrl->config().teacher_windows))
            sp.name = "teacher_window";
        else
            sp.name = sp.opt_steps > 0 ? "update_window" : "ppo_window";
        if (sp.opt_steps > 0) {
            update_rollouts += last_rollout + 1;
            ++updates;
        }
        last_rollout = rolloutSize(ctrl, *tb);
    };

    // 4. prepare: FleetIoPolicy::prepare runs train_windows windows in
    // one Testbed::run; here they run one window at a time.
    const int prepare = log.open("prepare", cell);
    if (fleet != nullptr) {
        const int n = FleetIoPolicy::Variant{}.train_windows;
        for (int i = 0; i < n; ++i)
            runWindow(prepare, true);
    } else {
        policy->prepare(*tb);
    }
    log.close(prepare);

    // 5. measure.
    const int measure = log.open("measure", cell);
    policy->beforeMeasure(*tb);
    tb->beginMeasurement();
    tb->startChurn();
    const std::uint64_t measure_ev0 = tb->eq().dispatched();
    const std::uint64_t ops0 = tb->scheduler().dispatchedOps();
    const auto measure_t0 = Clock::now();
    const std::uint64_t n_measure = spec.measure / window;
    for (std::uint64_t i = 0; i < n_measure; ++i)
        runWindow(measure, false);
    const double measure_run_s = secondsBetween(measure_t0, Clock::now());
    const std::uint64_t measure_events =
        tb->eq().dispatched() - measure_ev0;
    const std::uint64_t measure_ops =
        tb->scheduler().dispatchedOps() - ops0;
    tb->endMeasurement();
    log.close(measure);

    // 6. collect.
    const int coll = log.open("collect", cell);
    const ExperimentResult res = collect(*tb, *policy, spec.measure);
    log.close(coll);

    JsonOut out;
    emitCounters(out, *tb, ctrl);
    out.num("virt.ops_dispatched", double(measure_ops));
    out.num("virt.ns_per_op",
            measure_ops ? measure_run_s * 1e9 / double(measure_ops) : 0.0);
    std::uint64_t measured_requests = 0;
    for (const auto &t : res.tenants)
        measured_requests += t.requests;
    out.num("sim.events_per_request",
            measured_requests ? double(measure_events) /
                                    double(measured_requests)
                              : 0.0);
    // The replays run at the controller's config (state width, network
    // shape); without a controller, at the defaults, which have the same
    // shapes.
    const FleetIoConfig rl_cfg =
        ctrl != nullptr ? ctrl->config() : FleetIoConfig{};

    // 7. teardown (runExperiment destroys policy, then testbed).
    const int teardown = log.open("teardown", cell);
    policy.reset();
    tb.reset();
    log.close(teardown);
    log.close(cell);

    const double ns_per_event =
        measure_events ? measure_run_s * 1e9 / double(measure_events) : 0.0;
    out.num("sim.ns_per_event", ns_per_event);
    const double mean_depth = emitWindowStats(out, log, ns_per_event);
    emitPhases(out, log, cell);

    if (!trace_out.empty() && !log.writeChrome(trace_out, w.name)) {
        std::fprintf(stderr, "fleetbench_cell: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }

    // Replay microbenches, sized from this cell.
    const std::size_t replay_depth = std::size_t(std::llround(mean_depth));
    std::size_t rollout = 0;
    if (updates > 0) {
        rollout = std::size_t(update_rollouts / updates);
    } else {
        // No update observed (no learning policy): the smallest rollout
        // PpoTrainer accepts at the controller's update cadence.
        const std::size_t every =
            std::size_t(std::max(rl_cfg.train_interval_windows, 1));
        rollout = (rl_cfg.ppo.minibatch + every - 1) / every * every;
    }
    out.num("replay.depth", double(replay_depth));
    out.num("replay.state_dim", double(rl_cfg.stateDim()));
    out.num("replay.rollout", double(rollout));
    out.num("sim.eq_replay_ns", eqReplayNs(replay_depth));
    const FtlReplay ftl = ftlReplay();
    out.num("ssd.ftl_alloc_replay_ns", ftl.alloc_ns);
    out.num("ssd.ftl_lookup_replay_ns", ftl.lookup_ns);
    const RlReplay rl = rlReplay(rl_cfg, rollout);
    out.num("rl.decide_replay_us", rl.decide_us);
    out.num("rl.imitate_replay_us", rl.imitate_us);
    out.num("rl.ppo_update_replay_ms", rl.update_ms);

    emitSimulated(out, res);
    out.print();
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "fleetbench_cell: %s\nusage: fleetbench_cell --workload W "
                 "--seed N --measure-sec S --mode plain|obs|traced "
                 "[--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || errno != 0 || s[0] == '-')
        usage(what);
    return std::uint64_t(v);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode = "plain", trace_out;
    std::uint64_t seed = 1, measure_sec = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = parseU64(v, "bad --seed");
        else if (a == "--measure-sec")
            measure_sec = parseU64(v, "bad --measure-sec");
        else if (a == "--mode")
            mode = v;
        else if (a == "--trace-out")
            trace_out = v;
        else
            usage(("unknown argument " + a).c_str());
    }
    const std::optional<Workload> w = findWorkload(workload);
    if (!w)
        usage(("unknown workload '" + workload + "'").c_str());
    if (measure_sec == 0 || measure_sec > 3600)
        usage("--measure-sec must be in [1, 3600]");

    const ExperimentSpec spec = makeSpec(*w, seed, measure_sec);
    if (mode == "plain")
        return runPlain(spec, false);
    if (mode == "obs")
        return runPlain(spec, true);
    if (mode == "traced")
        return runTraced(*w, spec, trace_out);
    usage(("unknown mode '" + mode + "'").c_str());
}
