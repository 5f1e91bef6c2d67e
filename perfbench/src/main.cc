/**
 * @file
 * perfbench: simulate a workload's capture, then time repeated
 * operations on it (or, with --trace 1, drive every layer one call
 * at a time under spans) and print one JSON result line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --workdir DIR [--trace-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/attack_pipeline.hh"
#include "attack/litmus.hh"
#include "attack/sessions.hh"
#include "checks.hh"
#include "common/logging.hh"
#include "crypto/chacha.hh"
#include "crypto/sha256.hh"
#include "crypto/xts.hh"
#include "exec/dump_io.hh"
#include "exec/thread_pool.hh"
#include "scenario.hh"
#include "simd/simd.hh"
#include "trace.hh"

using namespace coldboot;
using namespace perfbench;

namespace
{

/** Width of the global pool every operation runs on. */
constexpr unsigned kPoolWidth = 2;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
    std::string trace_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                have_seconds = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--workdir") {
                args.workdir = value;
            } else if (flag == "--trace-out") {
                args.trace_out = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (args.workload.empty() || !have_seed || !have_seconds ||
        args.seconds <= 0.0 || args.workdir.empty())
        usage("--workload, --seed, --seconds (> 0) and --workdir are "
              "required");
    return args;
}

double
safeRatio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Runs of each single-layer ceiling measurement; the best counts. */
constexpr int kCeilingRuns = 3;

/**
 * The best of kCeilingRuns calls of @p measure: a ceiling is what a
 * layer reaches undisturbed, so slower runs only add host noise.
 */
template <typename Fn>
double
bestOf(Fn measure, bool lower_is_better)
{
    double best = measure();
    for (int i = 1; i < kCeilingRuns; ++i) {
        double v = measure();
        best = lower_is_better ? std::min(best, v) : std::max(best, v);
    }
    return best;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** User + system CPU seconds of the whole process so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Metrics in emission order, each with its unit. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit)
    {
        if (!values_.count(name))
            order_.push_back(name);
        values_[name] = {value, unit};
    }

    bool has(const std::string &name) const
    {
        return values_.count(name) != 0;
    }

    std::string json() const
    {
        std::string out = "{";
        char buf[128];
        for (size_t i = 0; i < order_.size(); ++i) {
            const auto &[value, unit] = values_.at(order_[i]);
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": "
                          "\"%s\"}",
                          i ? ", " : "", order_[i].c_str(), value, unit);
            out += buf;
        }
        return out + "}";
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, const char *>> values_;
};

/** BENCHMARK.json's per_layer list; traced runs report all of it. */
const std::vector<std::string> kPerLayerMetrics = {
    "platform.boot_s", "platform.fill_s", "platform.fill_mib_s",
    "platform.transfer_s", "platform.capture_write_s",
    "volume.mount_s", "volume.decrypt_s", "dram.bits_flipped",
    "crypto.chacha8_keystream_mib_s", "crypto.sha256_mib_s",
    "exec.dump_open_s", "exec.pool.tasks", "exec.pool.steals",
    "exec.pool.idle_s", "attack.mine_s", "attack.mine.scan_mib_s",
    "attack.mine.blocks", "attack.mine.litmus_hits",
    "attack.mine.clusters", "attack.mine.keys", "attack.mine.exact_keys",
    "attack.litmus_ceiling_mib_s", "attack.search_s",
    "attack.search.attempts", "attack.search.ns_per_attempt",
    "attack.search.attempts_per_hit", "attack.search.litmus_hits",
    "attack.search.reconstructions_tried",
    "attack.search.reconstructions_verified",
    "simd.hamming_ceiling_ns", "attack.search.kernel_ratio",
    "attack.pair_s", "attack.pair.pairs",
    "attack.descramble.mine_step_s", "attack.descramble.write_step_s",
    "attack.descramble.write_mib_s", "trace.overhead_s",
};

//
// The operations under test. Each takes only the capture file (plus
// the volume container's planted sector, which an attacker holding
// the encrypted disk has); ground truth enters only in the checks.
//

attack::PipelineParams
attackParams(const WorkloadSpec &spec)
{
    attack::PipelineParams params;
    if (spec.kind == OpKind::Triage)
        params.miner.scan_limit_bytes = 0; // the whole capture
    params.search.scan_bytes = spec.search_bytes;
    return params;
}

/** Decrypt the planted sector with every recovered pair. */
std::vector<std::vector<uint8_t>>
decryptWithPairs(const std::vector<attack::RecoveredXtsKeys> &pairs,
                 const Capture &cap)
{
    std::vector<std::vector<uint8_t>> plains;
    for (const auto &pair : pairs) {
        crypto::XtsAes xts(pair.data_key, pair.tweak_key);
        std::vector<uint8_t> plain(cap.sector_ciphertext.size());
        xts.decryptSector(kPlantedSector, cap.sector_ciphertext, plain);
        plains.push_back(std::move(plain));
    }
    return plains;
}

/** What one operation produced, for the checks. */
struct OpResult
{
    attack::PipelineReport report;
    std::vector<std::vector<uint8_t>> plaintexts;
    attack::DescrambleResult descramble;
};

OpResult
runOperation(const WorkloadSpec &spec, const Capture &cap,
             const std::string &out_path)
{
    OpResult r;
    auto dump = exec::openDumpSource(cap.path);
    if (spec.kind == OpKind::Descramble) {
        attack::DescrambleSession session(*dump, out_path);
        session.runToCompletion();
        r.descramble = session.result();
        return r;
    }
    r.report = attack::runColdBootAttack(*dump, attackParams(spec));
    if (spec.kind == OpKind::Attack)
        r.plaintexts = decryptWithPairs(r.report.xts_pairs, cap);
    return r;
}

/**
 * The checks of one operation's output ("" = all passed). The
 * descrambled image is deleted once checked, so the next operation
 * writes a new file: rewriting one in place would make ext4 flush the
 * old image to disk when the new one is closed (its replace-via-
 * truncate rule), and the operation would time the disk.
 */
std::string
checkOperation(const WorkloadSpec &spec, const Capture &cap,
               const OpResult &r, const std::string &out_path)
{
    switch (spec.kind) {
    case OpKind::Attack:
        return checkAttack(r.report.xts_pairs, r.plaintexts, cap);
    case OpKind::Descramble: {
        auto dump = exec::openDumpSource(cap.path);
        std::string why = checkDescrambledFile(out_path, *dump,
                                               r.descramble.sha256_hex,
                                               cap.truth_keys);
        std::error_code ec;
        std::filesystem::remove(out_path, ec);
        return why;
    }
    case OpKind::Triage:
        return checkTriage(r.report, cap.bytes);
    }
    return "unknown workload kind";
}

/**
 * Checks of the capture itself. Every operation of a run reads the
 * same capture, so they hold for every operation or for none; they
 * run once, after the timed operations.
 */
std::string
checkCapture(const WorkloadSpec &spec, const Capture &cap)
{
    if (spec.kind != OpKind::Triage)
        return "";
    auto dump = exec::openDumpSource(cap.path);
    return checkNoKeyPeriodRepeats(*dump);
}

struct RunOutcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> wrong;
};

void
printResult(const RunOutcome &o, const Metrics &metrics)
{
    for (const auto &w : o.wrong)
        std::fprintf(stderr, "perfbench: check failed: %s\n", w.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                o.wrong.empty() ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                metrics.json().c_str());
    std::fflush(stdout);
}

/** Untraced mode: repeat the operation for --seconds. */
void
runTimed(const WorkloadSpec &spec, const Args &args,
         const std::string &capture_path, const std::string &out_path)
{
    Capture cap = simulateCaptureInChild(spec, args.seed, capture_path);
    const double setup_s = sinceStart();

    RunOutcome o;
    std::vector<double> walls, cpus;
    const double loop_start = sinceStart();
    while (true) {
        ++o.attempted;
        double cpu0 = processCpuSeconds();
        double t0 = sinceStart();
        try {
            OpResult r = runOperation(spec, cap, out_path);
            walls.push_back(sinceStart() - t0);
            cpus.push_back(processCpuSeconds() - cpu0);
            std::string why = checkOperation(spec, cap, r, out_path);
            if (!why.empty())
                o.wrong.push_back(why);
        } catch (const std::exception &e) {
            ++o.failed;
            std::fprintf(stderr, "perfbench: operation failed: %s\n",
                         e.what());
        }
        // Whole operations only: stop when the next one would end
        // past --seconds.
        double elapsed = sinceStart() - loop_start;
        double per_op = elapsed / static_cast<double>(o.attempted);
        if (elapsed + per_op > args.seconds)
            break;
    }

    if (walls.empty())
        throw std::runtime_error("every operation failed");
    std::string why = checkCapture(spec, cap);
    if (!why.empty())
        o.wrong.push_back("capture: " + why);
    Metrics m;
    m.set("setup_s", setup_s, "s");
    m.set("op_s", median(walls), "s");
    m.set("cpu_s", median(cpus), "s");
    m.set("peak_rss_mib", peakRssMiB(), "MiB");
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu operations, setup %.3f s, "
                 "op %.4f s median (%.4f-%.4f), cpu %.4f s median\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(args.seed), walls.size(),
                 setup_s, median(walls),
                 *std::min_element(walls.begin(), walls.end()),
                 *std::max_element(walls.begin(), walls.end()),
                 median(cpus));
    printResult(o, m);
}

//
// Traced mode
//

/** The attack's three stages, one public call each, under spans. */
struct StagedAttack
{
    attack::PipelineReport report;
    std::vector<std::vector<uint8_t>> plaintexts;
    double open_s = 0.0;
    double mine_s = 0.0;
    double search_s = 0.0;
    double pair_s = 0.0;
};

StagedAttack
runStagedAttack(Tracer &tracer, uint64_t op, const Capture &cap,
                const attack::PipelineParams &params, bool decrypt)
{
    StagedAttack st;
    std::unique_ptr<exec::DumpSource> dump;
    st.open_s = timed(tracer, "exec.dump_open", op,
                      [&] { dump = exec::openDumpSource(cap.path); });
    auto &rep = st.report;
    st.mine_s = timed(tracer, "attack.mine", op, [&] {
        rep.mined_keys = attack::mineScramblerKeys(*dump, params.miner,
                                                   &rep.miner_stats);
    });
    st.search_s = timed(tracer, "attack.search", op, [&] {
        for (auto key_size : params.key_sizes) {
            attack::SearchParams sp = params.search;
            sp.key_size = key_size;
            attack::SearchStats stats;
            auto found = attack::searchAesKeyTables(
                *dump, rep.mined_keys, sp, &stats);
            rep.recovered.insert(rep.recovered.end(), found.begin(),
                                 found.end());
            auto &s = rep.search_stats;
            s.blocks_scanned += stats.blocks_scanned;
            s.descramble_attempts += stats.descramble_attempts;
            s.litmus_hits += stats.litmus_hits;
            s.reconstructions_tried += stats.reconstructions_tried;
            s.reconstructions_verified += stats.reconstructions_verified;
            s.seconds += stats.seconds;
        }
    });
    st.pair_s = timed(tracer, "attack.pair", op, [&] {
        rep.xts_pairs = attack::pairXtsKeys(rep.recovered);
    });
    if (decrypt)
        timed(tracer, "crypto.xts_decrypt", op, [&] {
            st.plaintexts = decryptWithPairs(rep.xts_pairs, cap);
        });
    return st;
}

/** A DescrambleSession driven one step() at a time under spans. */
struct StagedDescramble
{
    attack::DescrambleResult result;
    double open_s = 0.0;
    double mine_step_s = 0.0;
    double write_step_s = 0.0;
    /** The mine step's error ("" when it found a key). */
    std::string mine_error;
};

StagedDescramble
runStagedDescramble(Tracer &tracer, uint64_t op, const Capture &cap,
                    const std::string &out_path)
{
    StagedDescramble st;
    std::unique_ptr<exec::DumpSource> dump;
    st.open_s = timed(tracer, "exec.dump_open", op,
                      [&] { dump = exec::openDumpSource(cap.path); });
    attack::DescrambleSession session(*dump, out_path);
    st.mine_step_s =
        timed(tracer, "attack.descramble.mine_step", op, [&] {
            try {
                session.step();
            } catch (const std::runtime_error &e) {
                // An encrypted capture yields no key: the session
                // fails here and its write step does nothing.
                st.mine_error = e.what();
            }
        });
    st.write_step_s = timed(tracer, "attack.descramble.write_step", op,
                            [&] { session.step(); });
    st.result = session.result();
    return st;
}

void
setAttackLayerMetrics(Metrics &m, const StagedAttack &st,
                      const Capture &cap, double hamming_ns)
{
    const auto &ms = st.report.miner_stats;
    const auto &ss = st.report.search_stats;
    double attempts = static_cast<double>(ss.descramble_attempts);
    m.set("attack.mine_s", st.mine_s, "s");
    m.set("attack.mine.scan_mib_s",
          safeRatio(static_cast<double>(ms.blocks_scanned) * 64 / kMiB,
                    st.mine_s),
          "MiB/s");
    m.set("attack.mine.blocks", static_cast<double>(ms.blocks_scanned),
          "count");
    m.set("attack.mine.litmus_hits", static_cast<double>(ms.litmus_hits),
          "count");
    m.set("attack.mine.clusters", static_cast<double>(ms.clusters),
          "count");
    m.set("attack.mine.keys",
          static_cast<double>(st.report.mined_keys.size()), "count");
    m.set("attack.mine.exact_keys",
          static_cast<double>(
              countExactKeys(st.report.mined_keys, cap.truth_keys)),
          "count");
    m.set("attack.search_s", st.search_s, "s");
    m.set("attack.search.attempts", attempts, "count");
    double ns_per_attempt = safeRatio(st.search_s * 1e9, attempts);
    m.set("attack.search.ns_per_attempt", ns_per_attempt, "ns");
    m.set("attack.search.attempts_per_hit",
          safeRatio(attempts, static_cast<double>(ss.litmus_hits)),
          "count");
    m.set("attack.search.litmus_hits",
          static_cast<double>(ss.litmus_hits), "count");
    m.set("attack.search.reconstructions_tried",
          static_cast<double>(ss.reconstructions_tried), "count");
    m.set("attack.search.reconstructions_verified",
          static_cast<double>(ss.reconstructions_verified), "count");
    m.set("attack.search.kernel_ratio",
          safeRatio(ns_per_attempt, hamming_ns), "ratio");
    m.set("attack.pair_s", st.pair_s, "s");
    m.set("attack.pair.pairs",
          static_cast<double>(st.report.xts_pairs.size()), "count");
}

void
setDescrambleLayerMetrics(Metrics &m, const StagedDescramble &st)
{
    m.set("attack.descramble.mine_step_s", st.mine_step_s, "s");
    m.set("attack.descramble.write_step_s", st.write_step_s, "s");
    m.set("attack.descramble.write_mib_s",
          safeRatio(static_cast<double>(st.result.lines) * 64 / kMiB,
                    st.write_step_s),
          "MiB/s");
}

/** scramblerKeyLitmus alone, serially, over the first @p bytes. */
double
litmusCeilingMiBs(const exec::DumpSource &dump, uint64_t bytes,
                  unsigned max_bit_errors)
{
    exec::ChunkBuffer buf;
    uint64_t hits = 0;
    double t0 = sinceStart();
    for (uint64_t off = 0; off < bytes; off += 1 << 20) {
        uint64_t len = std::min<uint64_t>(1 << 20, bytes - off);
        auto chunk = dump.chunk(off, len, buf);
        for (uint64_t i = 0; i < len; i += 64)
            hits += attack::scramblerKeyLitmus(chunk.subspan(i, 64),
                                               max_bit_errors);
    }
    double secs = sinceStart() - t0;
    std::fprintf(stderr, "perfbench: litmus ceiling: %llu hits\n",
                 static_cast<unsigned long long>(hits));
    return safeRatio(static_cast<double>(bytes) / kMiB, secs);
}

/** ns of one 64-byte simd::hammingDistance on cache-resident lines. */
double
hammingCeilingNs(const exec::DumpSource &dump)
{
    constexpr uint64_t kLines = 256; // 16 KiB: stays in L1
    constexpr uint64_t kCalls = 1 << 23;
    exec::ChunkBuffer buf;
    auto lines = dump.chunk(0, kLines * 64 + 64, buf);
    std::vector<uint8_t> hot(lines.begin(), lines.end());
    uint64_t sum = 0;
    double t0 = sinceStart();
    for (uint64_t i = 0; i < kCalls; ++i) {
        const uint8_t *a = hot.data() + (i % kLines) * 64;
        sum += simd::hammingDistance(a, a + 64, 64);
    }
    double secs = sinceStart() - t0;
    std::fprintf(stderr, "perfbench: hamming ceiling checksum %llu\n",
                 static_cast<unsigned long long>(sum));
    return secs * 1e9 / static_cast<double>(kCalls);
}

/** ChaCha8 keystream XOR over @p bytes, through the crypto API. */
double
chacha8MiBs(uint64_t bytes, uint64_t seed)
{
    std::vector<uint8_t> key(32), nonce(8);
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<uint8_t>(seed * 131 + i);
    crypto::ChaCha chacha(key, nonce, 8);
    std::vector<uint8_t> in(1 << 20, 0), out(1 << 20);
    double t0 = sinceStart();
    for (uint64_t off = 0; off < bytes; off += in.size())
        chacha.crypt(off / 64, in, out);
    double secs = sinceStart() - t0;
    return safeRatio(static_cast<double>(bytes) / kMiB, secs);
}

/** SHA-256 over 64 MiB of capture bytes (cycled if smaller). */
double
sha256MiBs(const exec::DumpSource &dump)
{
    constexpr uint64_t kBytes = 64ull << 20;
    constexpr uint64_t kChunk = 1ull << 20;
    exec::ChunkBuffer buf;
    crypto::Sha256 sha;
    double t0 = sinceStart();
    for (uint64_t done = 0; done < kBytes;) {
        uint64_t off = done % dump.size();
        uint64_t len = std::min({kChunk, dump.size() - off, kBytes - done});
        sha.update(dump.chunk(off, len, buf));
        done += len;
    }
    auto digest = sha.finish();
    double secs = sinceStart() - t0;
    std::fprintf(stderr, "perfbench: sha256 ceiling digest byte %u\n",
                 digest[0]);
    return safeRatio(static_cast<double>(kBytes) / kMiB, secs);
}

/**
 * ThreadPool::stats() after waking every worker. A worker's park is
 * credited to idle_seconds only when it wakes, so without this the
 * delta over an operation would also count the time the workers were
 * parked before it started.
 */
exec::PoolStats
settledPoolStats()
{
    auto &pool = exec::ThreadPool::global();
    exec::ThreadPool::TaskGroup wake(pool);
    for (unsigned i = 0; i < pool.workerCount(); ++i)
        wake.run([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    wake.wait();
    return pool.stats();
}

void
runTraced(const WorkloadSpec &spec, const Args &args,
          const std::string &capture_path, const std::string &out_path)
{
    Tracer tracer(true);
    Metrics m;
    RunOutcome o;
    auto expect = [&](const std::string &what, const std::string &why) {
        if (!why.empty())
            o.wrong.push_back(what + ": " + why);
    };

    // Op 0: set-up, one span per layer call.
    Capture cap;
    {
        Scope setup(tracer, "setup", 0);
        cap = simulateCapture(spec, args.seed, capture_path, tracer);
    }
    m.set("platform.boot_s", cap.times.boot, "s");
    m.set("platform.fill_s", cap.times.fill, "s");
    m.set("platform.fill_mib_s",
          safeRatio(static_cast<double>(cap.bytes) / kMiB, cap.times.fill),
          "MiB/s");
    m.set("platform.transfer_s", cap.times.transfer, "s");
    m.set("platform.capture_write_s", cap.times.capture_write, "s");
    m.set("volume.mount_s", cap.times.mount, "s");
    m.set("volume.decrypt_s", cap.times.decrypt, "s");
    m.set("dram.bits_flipped", static_cast<double>(cap.bits_flipped),
          "count");

    // Op 1: the workload's operation as one untraced call; the
    // reference for the staged run's results.
    OpResult oneshot;
    ++o.attempted;
    timed(tracer, "op.untraced", 1,
          [&] { oneshot = runOperation(spec, cap, out_path); });
    expect("one-shot operation",
           checkOperation(spec, cap, oneshot, out_path));
    expect("capture", checkCapture(spec, cap));

    // Op 2: the same operation, one layer call at a time.
    const attack::PipelineParams params = attackParams(spec);
    const std::string staged_out = out_path + ".staged";
    auto pool0 = settledPoolStats();
    StagedAttack attack_st;
    StagedDescramble desc_st;
    ++o.attempted;
    double staged_s = 0.0;
    {
        Scope staged(tracer, "op.staged", 2);
        if (spec.kind == OpKind::Descramble)
            desc_st = runStagedDescramble(tracer, 2, cap, staged_out);
        else
            attack_st = runStagedAttack(tracer, 2, cap, params,
                                        spec.kind == OpKind::Attack);
        staged_s = staged.seconds();
    }
    auto pool1 = settledPoolStats();
    double idle = 0.0;
    for (size_t w = 0; w < pool1.per_worker.size(); ++w)
        idle += pool1.per_worker[w].idle_seconds -
                (w < pool0.per_worker.size()
                     ? pool0.per_worker[w].idle_seconds
                     : 0.0);
    m.set("exec.pool.tasks",
          static_cast<double>(pool1.tasksExecuted() -
                              pool0.tasksExecuted()),
          "count");
    m.set("exec.pool.steals",
          static_cast<double>(pool1.steals() - pool0.steals()), "count");
    m.set("exec.pool.idle_s", idle, "s");
    m.set("exec.dump_open_s",
          spec.kind == OpKind::Descramble ? desc_st.open_s
                                          : attack_st.open_s,
          "s");

    if (spec.kind == OpKind::Descramble) {
        const auto &a = oneshot.descramble;
        const auto &b = desc_st.result;
        if (a.sha256_hex != b.sha256_hex || a.lines != b.lines ||
            a.mined_keys != b.mined_keys ||
            a.key_occurrences != b.key_occurrences)
            expect("staged descramble", "differs from the one-shot run");
    } else {
        expect("staged attack",
               compareReports(attack_st.report, oneshot.report));
        if (spec.kind == OpKind::Attack)
            expect("staged attack",
                   checkAttack(attack_st.report.xts_pairs,
                               attack_st.plaintexts, cap));
        else
            expect("staged triage", checkTriage(attack_st.report, cap.bytes));
    }

    // Op 3: the one-shot operation again. Unlike op 1, which also
    // paid for the process's first run of the code, it starts as
    // warm as op 2 did: the reference time for the tracing overhead.
    ++o.attempted;
    OpResult again;
    double untraced_s = timed(tracer, "op.untraced", 3, [&] {
        again = runOperation(spec, cap, out_path);
    });
    expect("second one-shot operation",
           checkOperation(spec, cap, again, out_path));
    m.set("trace.overhead_s", staged_s - untraced_s, "s");

    // Op 4: the layers the workload's own operation does not drive.
    auto dump = exec::openDumpSource(cap.path);
    double hamming_ns = 0.0;
    {
        Scope ceiling(tracer, "simd.hamming_ceiling", 4);
        hamming_ns = bestOf([&] { return hammingCeilingNs(*dump); }, true);
    }
    m.set("simd.hamming_ceiling_ns", hamming_ns, "ns");
    if (spec.kind == OpKind::Descramble) {
        // Mining with the session's default parameters must find
        // every ground-truth key; the search is windowed to the
        // volume's key table.
        attack::PipelineParams windowed;
        windowed.search.scan_start =
            (cap.keytable_addr - (64 << 10)) & ~uint64_t{63};
        windowed.search.scan_bytes = 192 << 10;
        attack_st = runStagedAttack(tracer, 4, cap, windowed, false);
        expect("mined keys", checkMinedKeys(attack_st.report.mined_keys,
                                            cap.truth_keys));
        setDescrambleLayerMetrics(m, desc_st);
    } else {
        desc_st = runStagedDescramble(tracer, 4, cap, staged_out);
        setDescrambleLayerMetrics(m, desc_st);
    }
    setAttackLayerMetrics(m, attack_st, cap, hamming_ns);
    std::error_code ec;
    std::filesystem::remove(staged_out, ec);

    // Op 5: single-layer ceilings on the same bytes.
    {
        Scope s(tracer, "attack.litmus_ceiling", 5);
        m.set("attack.litmus_ceiling_mib_s",
              bestOf(
                  [&] {
                      return litmusCeilingMiBs(
                          *dump,
                          attack_st.report.miner_stats.blocks_scanned * 64,
                          params.miner.litmus_max_bit_errors);
                  },
                  false),
              "MiB/s");
    }
    {
        Scope s(tracer, "crypto.chacha8_keystream", 5);
        m.set("crypto.chacha8_keystream_mib_s",
              bestOf([&] { return chacha8MiBs(cap.bytes, args.seed); },
                     false),
              "MiB/s");
    }
    {
        Scope s(tracer, "crypto.sha256", 5);
        m.set("crypto.sha256_mib_s",
              bestOf([&] { return sha256MiBs(*dump); }, false), "MiB/s");
    }

    for (const auto &name : kPerLayerMetrics)
        if (!m.has(name))
            throw std::logic_error("traced run did not set " + name);
    if (!tracer.parentsResolve())
        o.wrong.push_back("trace: a span's parent does not resolve");
    if (!args.trace_out.empty()) {
        std::ofstream f(args.trace_out, std::ios::binary);
        f << tracer.chromeJson();
        if (!f)
            throw std::runtime_error("cannot write " + args.trace_out);
        std::fprintf(stderr, "perfbench: trace written to %s (%zu spans)\n",
                     args.trace_out.c_str(), tracer.spans().size());
    }
    printResult(o, m);
}

/** Removes the run's scratch directory on every exit path. */
class WorkDir
{
  public:
    explicit WorkDir(std::string path) : path_(std::move(path))
    {
        std::filesystem::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string file(const char *name) const { return path_ + "/" + name; }

  private:
    std::string path_;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (spec == nullptr)
        usage(("unknown workload " + args.workload).c_str());

    setLogLevel(LogLevel::Warn);
    exec::setThreadOverride(kPoolWidth);
    std::fprintf(stderr,
                 "perfbench: nproc %u, pool width %u, simd %s, build %s\n",
                 std::thread::hardware_concurrency(), kPoolWidth,
                 simd::backendName(simd::activeBackend()),
                 PERFBENCH_BUILD_TYPE);

    try {
        WorkDir work(args.workdir);
        if (args.trace)
            runTraced(*spec, args, work.file("capture.img"),
                      work.file("descrambled.img"));
        else
            runTimed(*spec, args, work.file("capture.img"),
                     work.file("descrambled.img"));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
