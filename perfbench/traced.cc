/**
 * @file
 * The traced run: per-layer host cost, measured from outside.
 *
 * runExperiment() is a single call, so its layers cannot be timed
 * from outside it. The traced run therefore re-executes every config
 * of a workload by calling the layers' public functions in the order
 * runExperiment() calls them: dataset reorder, machine aging, view
 * load and khugepaged, each inside a span, then the kernel or its
 * replay. Its counters must equal the untraced RunResults exactly,
 * which proves it simulates what runExperiment() simulates.
 *
 * Per-access costs come from knockouts on each distinct kernel access
 * stream of the workload (its first config): the live kernel, the
 * same kernel recording its stream, compileTrace, replayCompiled on a
 * fresh machine (MMU dispatch), the same replay with the cache model
 * off (translation only), a standalone CacheModel fed the stream, and
 * the streaming decoder. Out-of-core configs also replay against
 * their in-core twin, which isolates the file-cache cost per read.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/replay.hh"
#include "core/views.hh"
#include "graph/reorder.hh"
#include "mem/fragmenter.hh"
#include "mem/memhog.hh"
#include "perfbench.hh"
#include "util/bitops.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace perfbench
{

namespace
{

/** Mmu counters at one instant. */
struct Snap
{
    std::uint64_t accesses = 0, dtlbMisses = 0, stlbHits = 0, walks = 0;
    std::uint64_t cycles = 0, translation = 0;
    std::uint64_t cacheAccesses = 0, cacheMisses = 0;

    static Snap
    take(tlb::Mmu &mmu)
    {
        Snap s{mmu.accesses.value(), mmu.dtlbMisses.value(),
               mmu.stlbHits.value(), mmu.walks.value(),
               mmu.totalCycles(), mmu.translationCycles.value()};
        if (const tlb::CacheModel *c = mmu.cacheModel()) {
            s.cacheAccesses = c->accesses.value();
            s.cacheMisses = c->misses.value();
        }
        return s;
    }
};

/** What one config's traced execution measured. */
struct ConfigTrace
{
    /** @name Spans, seconds @{ */
    double reorder = 0.0;
    double age = 0.0;
    double load = 0.0;
    double khugepaged = 0.0;
    /** @} */
    std::uint64_t loadFaults = 0;
    std::uint64_t kernelCycles = 0;
    std::uint64_t translationCycles = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    /** The RunResult fields the traced run reproduces. */
    RunResult counters;
};

/**
 * One machine set up as runExperiment() sets it up for a config, up
 * to the first kernel access. Members are destroyed view first and
 * machine last, as in runExperiment().
 */
template <typename PropT>
struct Prepared
{
    std::unique_ptr<SimMachine> machine;
    std::unique_ptr<mem::Memhog> hog;
    std::unique_ptr<mem::Fragmenter> frag;
    std::unique_ptr<SimView<PropT>> view;
    Snap beforeKernel;
};

template <typename PropT>
void
prepare(const ExperimentConfig &cfg, const graph::CsrGraph &g,
        bool enable_cache, Prepared<PropT> &p, ConfigTrace &t)
{
    vm::ThpConfig thp = cfg.thpMode == vm::ThpMode::Always
                            ? vm::ThpConfig::always()
                        : cfg.thpMode == vm::ThpMode::Madvise
                            ? vm::ThpConfig::madvise()
                            : vm::ThpConfig::never();
    thp.khugepagedEnabled =
        thp.mode != vm::ThpMode::Never && cfg.khugepagedAfterInit;
    thp.khugepagedMinPresent = cfg.khugepagedMinPresent;
    thp.khugepagedScanPages = cfg.khugepagedScanPages;
    thp.khugepagedHotFirst = cfg.khugepagedHotFirst;
    thp.hugeFaultRetries = cfg.hugeFaultRetries;

    SystemConfig sys = cfg.sys;
    sys.enableCache = sys.enableCache && enable_cache;
    const std::uint64_t wss = workingSetBytes(cfg);
    if (cfg.oocRatio != 0.0) {
        // runExperiment's out-of-core node sizing.
        sys.fileBackedCsr = true;
        sys.fileCacheEviction = cfg.oocEviction;
        const std::uint64_t huge = sys.hugePageBytes();
        std::uint64_t bytes = alignUp(
            static_cast<std::uint64_t>(static_cast<double>(wss) /
                                       cfg.oocRatio),
            huge);
        bytes = std::max(bytes, 8 * huge);
        sys.node.bytes = bytes;
        sys.node.hugeWatermarkBytes =
            std::min(sys.node.hugeWatermarkBytes, bytes / 8);
    }
    p.machine = std::make_unique<SimMachine>(sys, thp);
    SimMachine &m = *p.machine;
    p.hog = std::make_unique<mem::Memhog>(m.node());
    p.frag = std::make_unique<mem::Fragmenter>(m.node());

    double t0 = now();
    if (cfg.constrainMemory) {
        const std::int64_t target =
            static_cast<std::int64_t>(wss) + cfg.slackBytes;
        const auto floor =
            static_cast<std::int64_t>(cfg.sys.hugePageBytes());
        p.hog->occupyAllBut(
            static_cast<std::uint64_t>(std::max(target, floor)));
    }
    if (cfg.fragLevel > 0.0)
        p.frag->fragment(cfg.fragLevel);
    t.age = now() - t0;

    const vm::AddressSpace &space = m.space();
    const std::uint64_t faults0 = space.minorFaults.value() +
                                  space.hugeFaults.value() +
                                  space.majorFaults.value();
    t0 = now();
    typename SimView<PropT>::Options vopts;
    vopts.order = cfg.order;
    vopts.needValues = cfg.app == App::Sssp;
    vopts.needAux = cfg.app == App::Pr;
    vopts.fileSource = cfg.fileSource;
    vopts.giantProperty = cfg.giantProperty;
    p.view = std::make_unique<SimView<PropT>>(m, g, vopts);
    if (cfg.thpMode == vm::ThpMode::Madvise) {
        if (cfg.madvise.vertex)
            p.view->adviseVertexArray();
        if (cfg.madvise.edge)
            p.view->adviseEdgeArray();
        if (cfg.madvise.values && cfg.app == App::Sssp)
            p.view->adviseValuesArray();
        if (cfg.madvise.propertyFraction > 0.0)
            p.view->advisePropertyFraction(cfg.madvise.propertyFraction);
    }
    if constexpr (std::is_same_v<PropT, double>)
        p.view->load(1.0 / g.numNodes());
    else
        p.view->load(unreachedDist);
    t.load = now() - t0;
    t.loadFaults = space.minorFaults.value() + space.hugeFaults.value() +
                   space.majorFaults.value() - faults0;

    t0 = now();
    if (cfg.khugepagedAfterInit)
        m.runKhugepaged();
    t.khugepaged = now() - t0;
    p.beforeKernel = Snap::take(m.mmu());
}

template <typename PropT>
KernelAnswer
runKernel(const ExperimentConfig &cfg, SimView<PropT> &view,
          const graph::CsrGraph &g)
{
    KernelAnswer a;
    if constexpr (std::is_same_v<PropT, double>) {
        a.output = pagerank(view, cfg.prMaxIters, cfg.prDamping,
                            cfg.prEpsilon)
                       .iterations;
    } else if (cfg.app == App::Bfs) {
        a.output = bfs(view, defaultRoot(g));
    } else {
        a.output = sssp(view, defaultRoot(g), cfg.ssspDelta);
    }
    a.checksum = propChecksum(view.propRaw());
    return a;
}

/** Fills @p t's counters the way runExperiment() fills a RunResult. */
template <typename PropT>
void
collect(Prepared<PropT> &p, const KernelAnswer &answer, ConfigTrace &t)
{
    SimMachine &m = *p.machine;
    const Snap after = Snap::take(m.mmu());
    const Snap &b = p.beforeKernel;
    RunResult &r = t.counters;
    r.accesses = after.accesses - b.accesses;
    r.dtlbMisses = after.dtlbMisses - b.dtlbMisses;
    r.stlbHits = after.stlbHits - b.stlbHits;
    r.walks = after.walks - b.walks;
    t.kernelCycles = after.cycles - b.cycles;
    t.translationCycles = after.translation - b.translation;
    t.cacheAccesses = after.cacheAccesses - b.cacheAccesses;
    t.cacheMisses = after.cacheMisses - b.cacheMisses;
    r.kernelSeconds = m.config().costs.seconds(t.kernelCycles);

    const vm::AddressSpace &space = m.space();
    r.minorFaults = space.minorFaults.value();
    r.hugeFaults = space.hugeFaults.value();
    r.majorFaults = space.majorFaults.value();
    r.hugeFallbacks = space.hugeFallbacks.value();
    r.compactionRuns = m.node().compactionRuns.value();
    r.compactionPagesMigrated = m.node().compactionPagesMigrated.value();
    if (m.config().fileBackedCsr) {
        const mem::AddressSpaceCache &fc = m.fileCache();
        r.fileReads = fc.storageReads.value();
        r.fileWritebacks = fc.writebacks.value();
        r.fileEvictions = fc.evictions.value();
    }
    r.checksum = answer.checksum;
    r.kernelOutput = answer.output;
}

/** Field-by-field equality of everything the traced run reproduces. */
bool
sameCounters(const RunResult &a, const RunResult &b)
{
    return a.accesses == b.accesses && a.dtlbMisses == b.dtlbMisses &&
           a.stlbHits == b.stlbHits && a.walks == b.walks &&
           a.kernelSeconds == b.kernelSeconds &&
           a.minorFaults == b.minorFaults &&
           a.hugeFaults == b.hugeFaults &&
           a.majorFaults == b.majorFaults &&
           a.hugeFallbacks == b.hugeFallbacks &&
           a.compactionRuns == b.compactionRuns &&
           a.compactionPagesMigrated == b.compactionPagesMigrated &&
           a.fileReads == b.fileReads &&
           a.fileWritebacks == b.fileWritebacks &&
           a.fileEvictions == b.fileEvictions &&
           a.checksum == b.checksum && a.kernelOutput == b.kernelOutput;
}

/** Calls @p fn(i) for i < n on kWorkers threads, each taking the next
 *  index only when its previous call returned. */
template <typename Fn>
void
parallelFor(std::size_t n, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mtx;
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++) {
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mtx);
                    error = std::current_exception();
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/** Dispatches on the config's property type. */
template <typename Fn>
void
withProp(const ExperimentConfig &cfg, Fn fn)
{
    if (cfg.app == App::Pr)
        fn(double{});
    else
        fn(std::uint64_t{});
}

/**
 * One config the way runExperiment() runs it, replay decisions
 * included (through the same process-wide replay cache the sweep
 * used), with a span around each layer call before the kernel.
 */
ConfigTrace
traceConfig(const ExperimentConfig &cfg, const GraphSet &graphs,
            bool replay)
{
    ConfigTrace t;
    const graph::CsrGraph &base = graphs.base(cfg);
    graph::CsrGraph reordered;
    const graph::CsrGraph *gp = &base;
    if (cfg.reorder != graph::ReorderMethod::None) {
        const double t0 = now();
        reordered = graph::applyMapping(
            base, graph::reorderMapping(base, cfg.reorder, cfg.seed));
        t.reorder = now() - t0;
        gp = &reordered;
    }
    const graph::CsrGraph &g = *gp;

    withProp(cfg, [&](auto tag) {
        using PropT = decltype(tag);
        Prepared<PropT> p;
        prepare(cfg, g, true, p, t);
        tlb::Mmu &mmu = p.machine->mmu();

        std::shared_ptr<const RecordedTrace> replayed;
        std::string key;
        bool claimed = false;
        if (replay) {
            key = streamFingerprint(cfg);
            replayed = replayLookup(key);
            if (!replayed) {
                claimed = replayClaimRecording(key);
                if (!claimed)
                    noteReplayFallback();
            }
        }
        KernelAnswer answer;
        if (replayed) {
            const auto compiled = compiledLookup(key, *replayed);
            if (compiled)
                replayCompiled(*compiled, mmu);
            else
                replayTrace(*replayed, mmu);
            answer = {replayed->kernelOutput, replayed->checksum};
        } else {
            std::unique_ptr<TraceRecorder> recorder;
            if (claimed) {
                recorder = std::make_unique<TraceRecorder>(
                    replayOptions().maxTraceBytes);
                mmu.setAccessRecorder(recorder.get());
            }
            answer = runKernel(cfg, *p.view, g);
            if (claimed) {
                mmu.setAccessRecorder(nullptr);
                if (recorder->overflowed())
                    replayAbandon(key, true);
                else
                    replayPublish(key, std::make_shared<RecordedTrace>(
                                           recorder->take(
                                               answer.output,
                                               answer.checksum)));
            }
        }
        collect(p, answer, t);
    });
    return t;
}

/** Knockout measurements of one distinct stream. */
struct StreamKnockout
{
    std::size_t config = 0; ///< workload index of the representative
    double live = 0.0, record = 0.0, native = 0.0, compile = 0.0;
    std::uint64_t accesses = 0, records = 0;
    std::shared_ptr<const RecordedTrace> trace;
    std::shared_ptr<const CompiledTrace> compiled;
    /** Dispatch, cache-off, cache-model and streaming-decoder
     *  replays, seconds. */
    double dispatch = 0.0, translate = 0.0, cache = 0.0, stream = 0.0;
};

/** Replays @p k's stream on a fresh machine set up for @p cfg;
 *  @return dispatch seconds, @p t receives the counters. */
double
replayOn(const ExperimentConfig &cfg, const graph::CsrGraph &g,
         const StreamKnockout &k, bool compiled, bool enable_cache,
         ConfigTrace &t)
{
    double seconds = 0.0;
    withProp(cfg, [&](auto tag) {
        using PropT = decltype(tag);
        Prepared<PropT> p;
        prepare(cfg, g, enable_cache, p, t);
        const double t0 = now();
        if (compiled)
            replayCompiled(*k.compiled, p.machine->mmu());
        else
            replayTrace(*k.trace, p.machine->mmu());
        seconds = now() - t0;
        collect(p, {k.trace->kernelOutput, k.trace->checksum}, t);
    });
    return seconds;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // anonymous namespace

std::size_t
runTraced(const Workload &w, GraphSet &graphs, const UntracedSweep &sweep,
          const std::vector<KernelAnswer> &reference,
          double generate_seconds, std::vector<Metric> &out)
{
    const std::size_t n = w.configs.size();
    std::size_t mismatched = 0;

    // 1. The traced sweep: every config, closed loop on kWorkers.
    resetReplayCache();
    ReplayOptions ro;
    ro.enabled = w.replay;
    setReplay(ro);
    for (const ExperimentConfig &cfg : w.configs)
        graphs.of(cfg); // host copies of reordered graphs, built once
    std::vector<ConfigTrace> traces(n);
    const double traced0 = now();
    parallelFor(n, [&](std::size_t i) {
        traces[i] = traceConfig(w.configs[i], graphs, w.replay);
    });
    const double traced_wall = now() - traced0;
    resetReplayCache();
    for (std::size_t i = 0; i < n; ++i) {
        const bool same = sameCounters(traces[i].counters,
                                       sweep.results[i]) &&
                          traces[i].counters.checksum ==
                              reference[i].checksum;
        if (!same) {
            std::fprintf(stderr, "TRACED MISMATCH %s\n",
                         w.configs[i].label().c_str());
            ++mismatched;
        }
    }

    // 2. Knockouts on each distinct stream's first config.
    std::vector<StreamKnockout> streams;
    {
        std::map<std::string, std::size_t> seen;
        for (std::size_t i = 0; i < n; ++i)
            if (seen.emplace(streamFingerprint(w.configs[i]), i).second) {
                streams.emplace_back();
                streams.back().config = i;
            }
    }
    const std::uint64_t budget = ReplayOptions{}.maxTraceBytes;
    std::atomic<std::size_t> knockout_mismatch{0};
    parallelFor(streams.size(), [&](std::size_t s) {
        StreamKnockout &k = streams[s];
        const ExperimentConfig &cfg = w.configs[k.config];
        const graph::CsrGraph &g = graphs.of(cfg);
        nativeAnswer(cfg, g, &k.native);
        withProp(cfg, [&](auto tag) {
            using PropT = decltype(tag);
            // Live, recording, live again: the first run warms the
            // host allocator, so only the second live run is compared
            // with the recording one.
            const auto kernel = [&](TraceRecorder *recorder) {
                ConfigTrace t;
                Prepared<PropT> p;
                prepare(cfg, g, true, p, t);
                p.machine->mmu().setAccessRecorder(recorder);
                const double t0 = now();
                const KernelAnswer a = runKernel(cfg, *p.view, g);
                const double seconds = now() - t0;
                p.machine->mmu().setAccessRecorder(nullptr);
                collect(p, a, t);
                k.accesses = t.counters.accesses;
                if (!sameCounters(t.counters, sweep.results[k.config]))
                    ++knockout_mismatch;
                return std::make_pair(seconds, a);
            };
            kernel(nullptr);
            TraceRecorder recorder(budget);
            const auto [record_s, a] = kernel(&recorder);
            k.record = record_s;
            if (!recorder.overflowed()) {
                k.trace = std::make_shared<RecordedTrace>(
                    recorder.take(a.output, a.checksum));
            }
            k.live = kernel(nullptr).first;
        });
        if (k.trace && k.trace->records * sizeof(CompiledRecord) <= budget) {
            const double t0 = now();
            k.compiled =
                std::make_shared<CompiledTrace>(compileTrace(*k.trace));
            k.compile = now() - t0;
            k.records = k.trace->records;
        }
    });

    // Replay knockouts: per stream, compiled dispatch with and without
    // the cache model, the standalone cache model and the streaming
    // decoder; per out-of-core config, dispatch against its in-core
    // twin.
    enum class Kind
    {
        Dispatch,
        CacheOff,
        CacheModel,
        StreamDecoder,
    };
    struct Task
    {
        std::size_t stream;
        Kind kind;
    };
    std::vector<Task> tasks;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        if (streams[s].compiled)
            for (Kind kind : {Kind::Dispatch, Kind::CacheOff,
                              Kind::CacheModel})
                tasks.push_back({s, kind});
        if (streams[s].trace)
            tasks.push_back({s, Kind::StreamDecoder});
    }
    struct OocTask
    {
        std::size_t config, stream;
        double ooc = 0.0, incore = 0.0;
        std::uint64_t reads = 0;
    };
    std::vector<OocTask> ooc;
    for (std::size_t i = 0; i < n; ++i) {
        if (w.configs[i].oocRatio == 0.0)
            continue;
        for (std::size_t s = 0; s < streams.size(); ++s)
            if (streams[s].compiled &&
                streamFingerprint(w.configs[streams[s].config]) ==
                    streamFingerprint(w.configs[i]))
                ooc.push_back({i, s});
    }
    parallelFor(tasks.size() + ooc.size(), [&](std::size_t j) {
        if (j >= tasks.size()) {
            OocTask &o = ooc[j - tasks.size()];
            const ExperimentConfig &cfg = w.configs[o.config];
            ExperimentConfig twin = cfg;
            twin.oocRatio = 0.0;
            const graph::CsrGraph &g = graphs.of(cfg);
            ConfigTrace t, t_in;
            o.ooc = replayOn(cfg, g, streams[o.stream], true, true, t);
            o.incore =
                replayOn(twin, g, streams[o.stream], true, true, t_in);
            o.reads = t.counters.fileReads;
            if (!sameCounters(t.counters, sweep.results[o.config]))
                ++knockout_mismatch;
            return;
        }
        const Task &task = tasks[j];
        StreamKnockout &k = streams[task.stream];
        const ExperimentConfig &cfg = w.configs[k.config];
        const graph::CsrGraph &g = graphs.of(cfg);
        ConfigTrace t;
        switch (task.kind) {
          case Kind::Dispatch:
            k.dispatch = replayOn(cfg, g, k, true, true, t);
            break;
          case Kind::CacheOff:
            k.translate = replayOn(cfg, g, k, true, false, t);
            return; // cycles differ by design with the cache off
          case Kind::CacheModel: {
            tlb::CacheModel cache(cfg.sys.cacheLevels,
                                  cfg.sys.memoryCycles);
            const double t0 = now();
            for (const CompiledRecord &r : k.compiled->records) {
                if (r.flags & CompiledRecord::flagRun)
                    cache.accessRun(r.addr, r.stride, r.count);
                else
                    cache.access(r.addr);
            }
            k.cache = now() - t0;
            return;
          }
          case Kind::StreamDecoder:
            k.stream = replayOn(cfg, g, k, false, true, t);
            break;
        }
        if (!sameCounters(t.counters, sweep.results[k.config]))
            ++knockout_mismatch;
    });
    if (knockout_mismatch != 0) {
        std::fprintf(stderr, "%zu replay knockouts disagree with the "
                             "untraced results\n",
                     knockout_mismatch.load());
        mismatched += knockout_mismatch;
    }

    // 3. Aggregate.
    double reorder = 0, age = 0, load = 0, khuge = 0;
    std::uint64_t load_faults = 0, cycles = 0, translation = 0;
    std::uint64_t cache_acc = 0, cache_miss = 0;
    RunResult sum;
    for (const ConfigTrace &t : traces) {
        reorder += t.reorder;
        age += t.age;
        load += t.load;
        khuge += t.khugepaged;
        load_faults += t.loadFaults;
        cycles += t.kernelCycles;
        translation += t.translationCycles;
        cache_acc += t.cacheAccesses;
        cache_miss += t.cacheMisses;
        const RunResult &r = t.counters;
        sum.accesses += r.accesses;
        sum.dtlbMisses += r.dtlbMisses;
        sum.walks += r.walks;
        sum.minorFaults += r.minorFaults;
        sum.hugeFaults += r.hugeFaults;
        sum.hugeFallbacks += r.hugeFallbacks;
        sum.compactionRuns += r.compactionRuns;
        sum.compactionPagesMigrated += r.compactionPagesMigrated;
        sum.fileReads += r.fileReads;
        sum.fileWritebacks += r.fileWritebacks;
        sum.fileEvictions += r.fileEvictions;
    }
    double live = 0, record = 0, native = 0, compile = 0;
    double dispatch = 0, translate = 0, cache = 0, stream = 0;
    double live_acc = 0, compiled_acc = 0, stream_acc = 0, records = 0;
    double trace_bytes = 0;
    for (const StreamKnockout &k : streams) {
        const double acc = static_cast<double>(k.accesses);
        live += k.live;
        record += k.record;
        native += k.native;
        live_acc += acc;
        if (k.trace) {
            stream += k.stream;
            stream_acc += acc;
            trace_bytes += static_cast<double>(k.trace->bytes.size());
        }
        if (k.compiled) {
            compile += k.compile;
            records += static_cast<double>(k.records);
            dispatch += k.dispatch;
            translate += k.translate;
            cache += k.cache;
            compiled_acc += acc;
            trace_bytes += static_cast<double>(k.compiled->byteSize());
        }
    }
    double ooc_extra = 0, ooc_reads = 0;
    for (const OocTask &o : ooc) {
        ooc_extra += o.ooc - o.incore;
        ooc_reads += static_cast<double>(o.reads);
    }
    // Simulated headline figures, mean over headline_live's apps.
    double speedup = 0, unbounded = 0, huge = 0;
    const std::vector<HeadlineRow> rows = headlineRows(w, sweep.results);
    for (const HeadlineRow &row : rows) {
        speedup += row.speedupVs4k / rows.size();
        unbounded += row.fracOfUnbounded / rows.size();
        huge += row.hugeFraction / rows.size();
    }

    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double acc = d(sum.accesses);
    out = {
        {"graph.generate_s", generate_seconds, "s"},
        {"graph.reorder_s", reorder, "s"},
        {"mem.age_s", age, "s"},
        {"mem.compaction_runs", d(sum.compactionRuns), "count"},
        {"mem.pages_migrated", d(sum.compactionPagesMigrated), "count"},
        {"mem.filecache.storage_reads", d(sum.fileReads), "count"},
        {"mem.filecache.writebacks", d(sum.fileWritebacks), "count"},
        {"mem.filecache.evictions", d(sum.fileEvictions), "count"},
        {"mem.filecache_ns_per_read", 1e9 * ratio(ooc_extra, ooc_reads),
         "ns"},
        {"vm.load_s", load, "s"},
        {"vm.load_ns_per_fault", 1e9 * ratio(load, d(load_faults)), "ns"},
        {"vm.khugepaged_s", khuge, "s"},
        {"vm.minor_faults", d(sum.minorFaults), "count"},
        {"vm.huge_faults", d(sum.hugeFaults), "count"},
        {"vm.huge_fallbacks", d(sum.hugeFallbacks), "count"},
        {"vm.huge_success_ratio",
         ratio(d(sum.hugeFaults), d(sum.hugeFaults + sum.hugeFallbacks)),
         "ratio"},
        {"tlb.dispatch_ns_per_access", 1e9 * ratio(dispatch, compiled_acc),
         "ns"},
        {"tlb.translate_ns_per_access",
         1e9 * ratio(translate, compiled_acc), "ns"},
        {"tlb.cache_ns_per_access", 1e9 * ratio(cache, compiled_acc),
         "ns"},
        {"tlb.accesses", acc, "count"},
        {"tlb.dtlb_miss_ratio", ratio(d(sum.dtlbMisses), acc), "ratio"},
        {"tlb.walk_ratio", ratio(d(sum.walks), acc), "ratio"},
        {"tlb.cache_miss_ratio", ratio(d(cache_miss), d(cache_acc)),
         "ratio"},
        {"core.kernel_ns_per_access", 1e9 * ratio(live, live_acc), "ns"},
        {"core.native_ns_per_access", 1e9 * ratio(native, live_acc),
         "ns"},
        {"core.record_overhead_ratio", ratio(record, live), "ratio"},
        {"core.compile_ns_per_record", 1e9 * ratio(compile, records),
         "ns"},
        {"core.stream_replay_ns_per_access",
         1e9 * ratio(stream, stream_acc), "ns"},
        {"core.replay_hit_ratio",
         ratio(d(sweep.replayed), d(sweep.replayed + sweep.replayFallbacks)),
         "ratio"},
        {"core.compiled_overflows", d(sweep.compiledOverflows), "count"},
        {"core.trace_mib", trace_bytes / (1024.0 * 1024.0), "MiB"},
        {"core.pool_busy_ratio",
         ratio(sweep.busySeconds, kWorkers * sweep.wallSeconds), "ratio"},
        {"sim.kernel_cycles", d(cycles), "cycles"},
        {"sim.translation_share", ratio(d(translation), d(cycles)),
         "ratio"},
        {"sim.speedup_vs_4k", speedup, "x"},
        {"sim.frac_of_unbounded", unbounded, "ratio"},
        {"sim.huge_fraction", huge, "ratio"},
        {"trace.overhead_ratio", ratio(traced_wall, sweep.wallSeconds),
         "ratio"},
    };
    for (const Metric &m : out) {
        if (m.name.rfind("sim.", 0) == 0)
            std::printf("# %s %.17g\n", m.name.c_str(), m.value);
    }
    return mismatched;
}

} // namespace perfbench
