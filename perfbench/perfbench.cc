/**
 * @file
 * gpsm benchmark harness: measures the simulator's host cost (wall
 * time, CPU time, memory) of producing figure-style sweeps.
 *
 *   gpsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * One process runs one workload. Set-up generates the workload's
 * datasets through core::prefetchDatasets; the measured phase then
 * submits the whole config set to core::ExperimentPool with kWorkers
 * workers — a closed loop: a worker takes the next config only after
 * its previous one returned — repeatedly, cold each time, for as
 * many whole sweeps as fit in S seconds (at least one). Every
 * config's kernel answer is checked against a NativeView run of the
 * same kernel on the same graph.
 *
 * With --trace 0 the last stdout line holds the end-to-end metrics;
 * with --trace 1 it holds the per-layer metrics of a traced run
 * (traced.cc). Lines before it, prefixed "# ", print the simulated
 * output identity: every sim.* value and a digest of every RunResult
 * field, so two builds can be shown to simulate identically.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/kernels.hh"
#include "core/metrics.hh"
#include "core/replay.hh"
#include "core/runner.hh"
#include "core/views.hh"
#include "graph/datasets.hh"
#include "graph/reorder.hh"
#include "perfbench.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace perfbench
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

/** Kron at the figure benches' default scale. */
constexpr std::uint64_t kDivisor = 256;
/** Scale of the self-check (tiny, seconds in total). */
constexpr std::uint64_t kSelfCheckDivisor = 4096;
/** Set-up is repeated this many times; setup_s is the median. */
constexpr int kSetupReps = 5;
/** Per-config watchdog: a config past it counts as failed. */
constexpr double kConfigTimeoutSeconds = 120.0;

/** Table 1's node is 64 GiB; "x GiB" scales with the modeled node
 *  (the figure benches' paperGiB). */
std::int64_t
paperGiB(double gib, const SystemConfig &sys)
{
    const double scale = static_cast<double>(sys.node.bytes) /
                         (64.0 * 1024 * 1024 * 1024);
    return static_cast<std::int64_t>(gib * 1024 * 1024 * 1024 * scale);
}

ExperimentConfig
baseConfig(App app, std::uint64_t seed, std::uint64_t divisor)
{
    ExperimentConfig cfg;
    cfg.sys = SystemConfig::scaled();
    cfg.app = app;
    cfg.dataset = "kron";
    cfg.scaleDivisor = divisor;
    cfg.seed = seed;
    return cfg;
}

/** WSS + 3 GB-equivalent slack (the paper's §4.3 pressure set-up). */
ExperimentConfig
pressured(App app, std::uint64_t seed, std::uint64_t divisor)
{
    ExperimentConfig cfg = baseConfig(app, seed, divisor);
    cfg.thpMode = vm::ThpMode::Never;
    cfg.constrainMemory = true;
    cfg.slackBytes = paperGiB(3.0, cfg.sys);
    return cfg;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Restarts the kernel's peak-RSS (VmHWM) tracking at the current
 *  RSS. */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** VmHWM: peak resident set since the last resetPeakRss(). */
double
peakRssMiB()
{
    double kib = 0.0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
                break;
        std::fclose(f);
    }
    return kib / 1024.0;
}

/** FNV-1a over every RunResult field, in resultMetrics() order. */
std::uint64_t
resultDigest(const std::vector<RunResult> &results)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const RunResult &r : results) {
        for (const auto &[name, value] : resultMetrics(r)) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &value, sizeof bits);
            for (int i = 0; i < 8; ++i) {
                h ^= (bits >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        }
    }
    return h;
}

/** Flushes core's dataset cache (8 entries, FIFO) by prefetching 8
 *  tiny datasets, so the next prefetchDatasets call generates cold. */
void
flushDatasetCache()
{
    std::vector<ExperimentConfig> tiny;
    for (std::uint64_t i = 0; i < 8; ++i) {
        ExperimentConfig cfg = baseConfig(App::Bfs, 1 + i, 1u << 13);
        tiny.push_back(cfg);
    }
    prefetchDatasets(tiny, 1);
}

/** Median wall time of kSetupReps cold prefetchDatasets calls; the
 *  last one leaves the cache filled for the sweeps. */
double
measureSetup(const Workload &w)
{
    std::vector<double> reps;
    for (int i = 0; i < kSetupReps; ++i) {
        flushDatasetCache();
        const double t0 = now();
        prefetchDatasets(w.configs, kWorkers);
        reps.push_back(now() - t0);
    }
    return median(reps);
}

/** One cold submission of the whole config set. */
struct SweepSample
{
    std::vector<RunOutcome> outcomes;
    double wall = 0.0;
    double cpu = 0.0;
    double busy = 0.0;
    double peakRss = 0.0;
    std::uint64_t accesses = 0;
    bool cold = true;
    ReplayStats replay;
};

SweepSample
runSweep(const Workload &w)
{
    // Cold-run guard: nothing an earlier sweep computed may serve this
    // one. The dataset cache stays warm on purpose (it is set-up).
    clearExperimentMemo();
    resetReplayCache();
    ReplayOptions ro;
    ro.enabled = w.replay;
    setReplay(ro);
    const MemoStats memo_before = experimentMemoStats();

    SweepSample s;
    std::mutex mtx;
    ExperimentPool pool(kWorkers);
    PoolOptions po;
    po.timeoutSeconds = kConfigTimeoutSeconds;
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const double t0 = now();
    s.outcomes = pool.runOutcomes(
        w.configs, po,
        [&](std::size_t, const ExperimentConfig &cfg, const RunResult &,
            double wall, bool) {
            std::lock_guard<std::mutex> lock(mtx);
            s.busy += wall;
            std::fprintf(stderr, "  %7.3f s  %s\n", wall,
                         cfg.label().c_str());
        });
    s.wall = now() - t0;
    s.cpu = cpuSeconds() - cpu0;
    s.peakRss = peakRssMiB();
    for (const RunOutcome &o : s.outcomes)
        if (o.ok())
            s.accesses += o.result->accesses;
    s.cold = experimentMemoStats().hits == memo_before.hits &&
             !resultJournalStats().enabled;
    s.replay = replayStats();
    return s;
}

/** Failures of one sweep: errors, timeouts, wrong answers. */
std::size_t
countFailures(const Workload &w, const SweepSample &s,
              const std::vector<KernelAnswer> &reference)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < s.outcomes.size(); ++i) {
        const RunOutcome &o = s.outcomes[i];
        if (!o.ok()) {
            std::fprintf(stderr, "FAILED [%s] %s: %s\n",
                         experimentErrorKindName(o.error->kind),
                         w.configs[i].label().c_str(),
                         o.error->message.c_str());
            ++failed;
            continue;
        }
        const KernelAnswer got{o.result->kernelOutput,
                               o.result->checksum};
        if (!(got == reference[i])) {
            std::fprintf(stderr, "WRONG ANSWER %s\n",
                         w.configs[i].label().c_str());
            ++failed;
        }
    }
    return failed;
}

std::vector<KernelAnswer>
referenceAnswers(const Workload &w, GraphSet &graphs)
{
    std::map<std::string, KernelAnswer> memo;
    std::vector<KernelAnswer> out;
    for (const ExperimentConfig &cfg : w.configs) {
        const std::string key = streamFingerprint(cfg);
        auto it = memo.find(key);
        if (it == memo.end())
            it = memo.emplace(key, nativeAnswer(cfg, graphs.of(cfg)))
                     .first;
        out.push_back(it->second);
    }
    return out;
}

std::vector<RunResult>
resultsOf(const SweepSample &s)
{
    std::vector<RunResult> out;
    for (const RunOutcome &o : s.outcomes)
        out.push_back(o.ok() ? *o.result : RunResult{});
    return out;
}

/** Prints the simulated-output identity of one sweep. */
void
printIdentity(const Workload &w, const std::vector<RunResult> &results)
{
    std::printf("# workload %s: %zu configs, RunResult digest %016llx\n",
                w.name.c_str(), results.size(),
                static_cast<unsigned long long>(resultDigest(results)));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        std::printf("#   %-58s kernel %.9g s, accesses %llu, walks "
                    "%llu, huge %.4f\n",
                    w.configs[i].label().c_str(), r.kernelSeconds,
                    static_cast<unsigned long long>(r.accesses),
                    static_cast<unsigned long long>(r.walks),
                    r.hugeFractionOfFootprint);
    }
    for (const HeadlineRow &row : headlineRows(w, results)) {
        std::printf("# headline %s: %.4fx over 4KB | %.2f%% of "
                    "unbounded | %.3f%% of footprint  (paper: "
                    "1.26-1.57x | 77.3-96.3%% | 0.58-2.92%%; "
                    "unvalidated: scaled synthetic datasets, no "
                    "hardware reference)\n",
                    appName(row.app), row.speedupVs4k,
                    100.0 * row.fracOfUnbounded, 100.0 * row.hugeFraction);
    }
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * Proves the checker can fail: one tiny sweep per workload on a seed
 * other than the benchmark's must pass, and the same outcomes checked
 * against one corrupted reference checksum must count one failure.
 */
bool
selfCheck(std::uint64_t seed)
{
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        const Workload w = makeWorkload(name, seed, kSelfCheckDivisor);
        GraphSet graphs;
        graphs.build(w);
        std::vector<KernelAnswer> ref = referenceAnswers(w, graphs);
        const SweepSample s = runSweep(w);
        const std::size_t clean = countFailures(w, s, ref);
        ref.back().checksum ^= 1;
        std::fprintf(stderr, "self-check %s: expecting one wrong "
                             "answer below\n",
                     name.c_str());
        const std::size_t corrupted = countFailures(w, s, ref);
        std::printf("# self-check %s seed %llu: %zu failures clean, %zu "
                    "with one corrupted checksum\n",
                    name.c_str(), static_cast<unsigned long long>(seed),
                    clean, corrupted);
        ok = ok && s.cold && clean == 0 && corrupted == 1;
    }
    return ok;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: gpsm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "headline_live", "frag_sweep_replay", "ooc_evict"};
    return names;
}

std::vector<HeadlineRow>
headlineRows(const Workload &w, const std::vector<RunResult> &results)
{
    std::vector<HeadlineRow> rows;
    if (w.name != "headline_live")
        return rows;
    // (4 KB, unbounded THP, DBG+madvise) triples per app; the selective
    // run is charged its preprocessing, as in §5.1.2.
    for (std::size_t i = 0; i + 2 < results.size(); i += 3) {
        const RunResult &r4k = results[i];
        const RunResult &unb = results[i + 1];
        const RunResult &sel = results[i + 2];
        rows.push_back({w.configs[i].app, speedupOver(r4k, sel),
                        unb.kernelSeconds /
                            (sel.kernelSeconds + sel.preprocessSeconds),
                        sel.hugeFractionOfFootprint});
    }
    return rows;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t divisor)
{
    Workload w;
    w.name = name;
    if (name == "headline_live") {
        // bench/headline_summary for BFS and PageRank.
        for (App app : {App::Bfs, App::Pr}) {
            ExperimentConfig base = pressured(app, seed, divisor);
            base.fragLevel = 0.5;
            ExperimentConfig unbounded = baseConfig(app, seed, divisor);
            unbounded.thpMode = vm::ThpMode::Always;
            ExperimentConfig sel = base;
            sel.thpMode = vm::ThpMode::Madvise;
            sel.reorder = graph::ReorderMethod::Dbg;
            sel.madvise = MadviseSelection::propertyOnly(0.2);
            w.configs.insert(w.configs.end(), {base, unbounded, sel});
        }
    } else if (name == "frag_sweep_replay") {
        // bench/fig09_frag_sweep for BFS and SSSP, replay on.
        w.replay = true;
        for (App app : {App::Bfs, App::Sssp}) {
            const ExperimentConfig base = pressured(app, seed, divisor);
            w.configs.push_back(base);
            for (double frag : {0.0, 0.25, 0.5, 0.75}) {
                ExperimentConfig nat = base;
                nat.thpMode = vm::ThpMode::Always;
                nat.fragLevel = frag;
                ExperimentConfig opt = nat;
                opt.order = AllocOrder::PropertyFirst;
                w.configs.insert(w.configs.end(), {nat, opt});
            }
        }
    } else if (name == "ooc_evict") {
        // bench/ablation_out_of_core without its in-core rows.
        for (vm::ThpMode mode : {vm::ThpMode::Never, vm::ThpMode::Always}) {
            for (mem::EvictionKind ev :
                 {mem::EvictionKind::Clock, mem::EvictionKind::Lru}) {
                for (double ratio : {1.5, 2.0, 4.0}) {
                    ExperimentConfig cfg =
                        baseConfig(App::Bfs, seed, divisor);
                    cfg.thpMode = mode;
                    cfg.oocRatio = ratio;
                    cfg.oocEviction = ev;
                    w.configs.push_back(cfg);
                }
            }
        }
    } else {
        w.name.clear();
    }
    return w;
}

namespace
{

std::string
baseKey(const ExperimentConfig &cfg)
{
    return cfg.dataset + (cfg.app == App::Sssp ? "/weighted" : "/plain");
}

} // anonymous namespace

double
GraphSet::build(const Workload &w)
{
    double seconds = 0.0;
    for (const ExperimentConfig &cfg : w.configs) {
        const std::string key = baseKey(cfg);
        if (graphs.count(key) != 0)
            continue;
        const double t0 = now();
        auto g = std::make_shared<graph::CsrGraph>(graph::makeDataset(
            graph::datasetByName(cfg.dataset), cfg.scaleDivisor,
            cfg.app == App::Sssp, cfg.seed));
        seconds += now() - t0;
        graphs.emplace(key, std::move(g));
    }
    return seconds;
}

const graph::CsrGraph &
GraphSet::base(const ExperimentConfig &cfg) const
{
    return *graphs.at(baseKey(cfg));
}

const graph::CsrGraph &
GraphSet::of(const ExperimentConfig &cfg)
{
    if (cfg.reorder == graph::ReorderMethod::None)
        return base(cfg);
    const std::string key =
        baseKey(cfg) + "/" + graph::reorderMethodName(cfg.reorder);
    auto it = graphs.find(key);
    if (it == graphs.end()) {
        const graph::CsrGraph &g = base(cfg);
        it = graphs
                 .emplace(key, std::make_shared<graph::CsrGraph>(
                                   graph::applyMapping(
                                       g, graph::reorderMapping(
                                              g, cfg.reorder,
                                              cfg.seed))))
                 .first;
    }
    return *it->second;
}

KernelAnswer
nativeAnswer(const ExperimentConfig &cfg, const graph::CsrGraph &g,
             double *seconds)
{
    KernelAnswer a;
    double t0 = 0.0;
    if (cfg.app == App::Pr) {
        NativeView<double> view(g, {.needValues = false, .needAux = true});
        view.load(1.0 / g.numNodes());
        t0 = now();
        a.output = pagerank(view, cfg.prMaxIters, cfg.prDamping,
                            cfg.prEpsilon)
                       .iterations;
        if (seconds != nullptr)
            *seconds = now() - t0;
        a.checksum = propChecksum(view.propRaw());
        return a;
    }
    NativeView<std::uint64_t> view(
        g, {.needValues = cfg.app == App::Sssp, .needAux = false});
    view.load(unreachedDist);
    const graph::NodeId root = defaultRoot(g);
    t0 = now();
    if (cfg.app == App::Bfs)
        a.output = bfs(view, root);
    else if (cfg.app == App::Sssp)
        a.output = sssp(view, root, cfg.ssspDelta);
    else
        std::abort(); // no workload runs label propagation
    if (seconds != nullptr)
        *seconds = now() - t0;
    a.checksum = propChecksum(view.propRaw());
    return a;
}

} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload = argv[++i];
        else if (arg == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && has_value)
            trace = std::atoi(argv[++i]);
        else
            return usage();
    }

    // GPSM_MMU_MEMO, GPSM_PROF, GPSM_RESULT_JOURNAL and friends change
    // what is timed; the benchmark runs with none of them.
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "GPSM_", 5) == 0) {
            std::fprintf(stderr, "refusing to run with %s set\n", *env);
            return 2;
        }
    }

    const Workload w = makeWorkload(workload, seed, kDivisor);
    if (w.name.empty() || seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage();

    // The held-out-seed self-check runs first, at tiny scale, so a
    // checker that cannot fail never reports a result.
    double t0 = now();
    if (!selfCheck(seed + 1)) {
        std::fprintf(stderr, "self-check failed\n");
        return 1;
    }
    std::printf("# self-check %.3f s\n", now() - t0);

    t0 = now();
    const double setup_s = measureSetup(w);
    std::printf("# set-up %.3f s (%d cold prefetches)\n", now() - t0,
                kSetupReps);
    t0 = now();
    GraphSet graphs;
    const double generate_s = graphs.build(w);
    const std::vector<KernelAnswer> reference =
        referenceAnswers(w, graphs);
    std::printf("# native reference %.3f s\n", now() - t0);

    std::vector<SweepSample> samples;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool cold = true;
    const double start = now();
    do {
        samples.push_back(runSweep(w));
        const SweepSample &s = samples.back();
        attempted += s.outcomes.size();
        failed += countFailures(w, s, reference);
        cold = cold && s.cold;
        // Start another sweep only if it should end within the
        // window. The traced run needs one untraced sweep only.
    } while (trace == 0 && now() - start + samples.back().wall <= seconds);

    // Every sweep must simulate exactly the same thing.
    const std::vector<RunResult> results = resultsOf(samples.front());
    const std::uint64_t digest = resultDigest(results);
    for (const SweepSample &s : samples)
        if (resultDigest(resultsOf(s)) != digest)
            cold = false;
    printIdentity(w, results);

    std::vector<Metric> metrics;
    if (trace == 0) {
        std::vector<double> wall, cpu, rate, rss;
        for (const SweepSample &s : samples) {
            wall.push_back(s.wall);
            rss.push_back(s.peakRss);
            cpu.push_back(s.cpu);
            rate.push_back(static_cast<double>(s.accesses) / s.wall /
                           1e6);
        }
        std::printf("# %zu sweeps, sweep_s", samples.size());
        for (double x : wall)
            std::printf(" %.3f", x);
        std::printf(", peak MiB");
        for (double x : rss)
            std::printf(" %.1f", x);
        std::printf("\n");
        metrics = {
            {"setup_s", setup_s, "s"},
            {"sweep_s", median(wall), "s"},
            {"cpu_s", median(cpu), "s"},
            {"maccess_per_s", median(rate), "M/s"},
            {"peak_rss_mib", median(rss), "MiB"},
            {"success_ratio",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(attempted),
             "ratio"},
        };
    } else {
        const SweepSample &s = samples.front();
        UntracedSweep base;
        base.results = results;
        base.wallSeconds = s.wall;
        base.busySeconds = s.busy;
        base.replayed = s.replay.replayed;
        base.replayFallbacks = s.replay.fallbacks;
        base.compiledOverflows = s.replay.compiledOverflows;
        const std::size_t mismatched =
            runTraced(w, graphs, base, reference, generate_s, metrics);
        attempted += w.configs.size();
        failed += mismatched;
    }

    const bool correct = failed == 0 && cold;
    if (!cold)
        std::fprintf(stderr, "cold-run guard violated\n");
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
