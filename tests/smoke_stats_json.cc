/**
 * @file
 * Pure-ctest smoke test for the coldboot-tool observability exports
 * (no Python, no third-party JSON): build a tiny cold-boot dump
 * in-process, run `coldboot-tool attack <dump> --stats-json --trace`
 * as a subprocess, then validate with the in-tree JSON parser that
 *
 *  - the stats file parses and carries the required keys, with
 *    `attack.pipeline.bytes_scanned` nonzero;
 *  - the trace file parses as a bare Chrome trace_event array of
 *    complete events ({"name","ph":"X","ts","dur","pid","tid"})
 *    containing the mine / search / pair stage spans, and possibly
 *    flow-start/flow-finish pairs (`ph: "s"` / `ph: "f"`, `bp: "e"`,
 *    `cat: "flow"`, matched by `id`) linking pool tasks to their
 *    submit sites (DESIGN.md §12).
 *
 * The attack runs twice: once at the pool width the environment
 * selects (`COLDBOOT_THREADS`, else the core count), and once with
 * `--threads 4` and a separate trace file, which must hold at least
 * one flow pair, so the multi-thread export is checked on any host.
 *
 * Usage: smoke_stats_json <path-to-coldboot-tool>
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/json.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    } else {
        std::printf("ok: %s\n", what.c_str());
    }
}

std::string
strField(const obs::json::Value &ev, const char *key)
{
    const auto *v = ev.find(key);
    return v != nullptr ? v->str : std::string();
}

/**
 * Validate a --trace artifact against the Chrome trace_event export
 * format of DESIGN.md §12: every event has name/ts/pid/tid and a phase
 * of X (complete slice, with dur), s (flow start) or f (flow finish,
 * bp=e); flow events carry cat=flow and an id, each id occurs as
 * exactly one s and one f, and no s is stamped after its f (equal
 * timestamps are possible at µs resolution). The attack's stage spans
 * must be present by name. @p label prefixes every check message.
 *
 * @return the number of matched s/f flow pairs.
 */
size_t
checkTrace(const std::string &trace_path, const std::string &label)
{
    auto trace = obs::json::parseFile(trace_path);
    check(trace.has_value(), label + "trace JSON parses");
    if (!trace)
        return 0;
    check(trace->isArray(), label + "trace JSON is a bare array");

    struct FlowEnds
    {
        int starts = 0;
        int finishes = 0;
        double start_ts = 0.0;
        double finish_ts = 0.0;
    };
    std::set<std::string> names;
    std::map<std::string, FlowEnds> flows;
    bool fields_ok = !trace->array.empty();
    bool phase_ok = true;
    bool dur_ok = true;
    bool flow_fields_ok = true;
    for (const auto &ev : trace->array) {
        const auto *name = ev.find("name");
        const auto *ts = ev.find("ts");
        fields_ok = fields_ok && ev.isObject() && name && ts &&
                    ev.find("pid") && ev.find("tid");
        if (name)
            names.insert(name->str);
        std::string ph = strField(ev, "ph");
        if (ph == "X") {
            dur_ok = dur_ok && ev.find("dur") != nullptr;
        } else if (ph == "s" || ph == "f") {
            const auto *id = ev.find("id");
            flow_fields_ok = flow_fields_ok && id &&
                             strField(ev, "cat") == "flow" &&
                             (ph == "s" || strField(ev, "bp") == "e");
            if (!id || !ts)
                continue;
            FlowEnds &ends = flows[id->str];
            if (ph == "s") {
                ++ends.starts;
                ends.start_ts = ts->number;
            } else {
                ++ends.finishes;
                ends.finish_ts = ts->number;
            }
        } else {
            phase_ok = false;
        }
    }
    size_t pairs = 0;
    bool flows_ordered = true;
    for (const auto &kv : flows) {
        const FlowEnds &ends = kv.second;
        if (ends.starts != 1 || ends.finishes != 1)
            continue;
        ++pairs;
        if (ends.start_ts > ends.finish_ts)
            flows_ordered = false;
    }
    check(fields_ok, label + "every trace event has name/ts/pid/tid");
    check(phase_ok, label + "every trace event has ph X, s or f");
    check(dur_ok, label + "every X event has dur");
    check(flow_fields_ok,
          label + "every s/f event has id and cat=flow, every f bp=e");
    check(pairs == flows.size(),
          label + "every flow id has exactly one s and one f");
    check(flows_ordered,
          label + "every flow start is stamped no later than its finish");
    for (const char *span : {"mine", "search", "pair",
                             "attack.pipeline"})
        check(names.count(span) == 1, label + span);
    return pairs;
}

/** A 2 MiB victim dump, mirroring `coldboot-tool simulate-victim`. */
void
writeTinyDump(const std::string &dump_path)
{
    constexpr uint64_t capacity = MiB(2);
    constexpr uint64_t seed = 42;

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, seed);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, capacity,
                              dram::DecayParams{}, seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);

    auto vf = volume::VolumeFile::create("hunter2", 16, seed + 3);
    auto mounted = volume::MountedVolume::mount(
        victim, vf, "hunter2", capacity * 3 / 4 + 16);
    std::vector<uint8_t> secret(volume::sectorBytes, 0);
    std::memcpy(secret.data(), "smoke", 5);
    mounted->writeSector(3, secret);

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     seed + 4);
    auto cold = coldBootTransfer(victim, attacker, 0);
    cold.dump.saveRaw(dump_path);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: smoke_stats_json <coldboot-tool>\n");
        return 2;
    }
    std::string tool = argv[1];
    std::string dump_path = "smoke_stats_dump.img";
    std::string stats_path = "smoke_stats_out.json";
    std::string trace_path = "smoke_stats_trace.json";
    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());

    writeTinyDump(dump_path);

    std::string cmd = "\"" + tool + "\" attack \"" + dump_path +
                      "\" --stats-json \"" + stats_path +
                      "\" --trace \"" + trace_path + "\"";
    std::printf("+ %s\n", cmd.c_str());
    int rc = std::system(cmd.c_str());
    // rc 0 = keys recovered, 1*256 = none found; both still must
    // produce the observability artifacts.
    check(rc != -1, "coldboot-tool subprocess launched");

    // --- stats JSON ---
    auto stats = obs::json::parseFile(stats_path);
    check(stats.has_value(), "stats JSON parses");
    if (stats) {
        check(stats->isObject(), "stats JSON is an object");
        const auto *meta = stats->find("meta");
        check(meta && meta->find("wall_seconds"),
              "stats meta.wall_seconds present");
        const auto *tree = stats->find("stats");
        check(tree != nullptr, "stats.stats present");
        if (tree) {
            // (memctrl.* counters live in simulate-victim runs; the
            // attack command only ever sees the saved dump.)
            for (const char *key :
                 {"attack.pipeline.bytes_scanned",
                  "attack.pipeline.mib_per_second",
                  "attack.miner.blocks_scanned",
                  "attack.miner.litmus_hits",
                  "attack.search.blocks_scanned"}) {
                check(tree->find(key) != nullptr, key);
            }
            const auto *scanned =
                tree->find("attack.pipeline.bytes_scanned");
            if (scanned) {
                const auto *value = scanned->find("value");
                check(value && value->number > 0.0,
                      "attack.pipeline.bytes_scanned > 0");
            }
        }
    }

    // --- Chrome trace, pool width from the environment ---
    checkTrace(trace_path, "");

    // --- Chrome trace, pool width 4: tasks cross threads, so the
    // trace must carry flow pairs whatever the host's core count ---
    std::string trace4_path = "smoke_stats_trace_threads4.json";
    std::remove(trace4_path.c_str());
    std::string cmd4 = "\"" + tool + "\" attack \"" + dump_path +
                       "\" --threads 4 --trace \"" + trace4_path + "\"";
    std::printf("+ %s\n", cmd4.c_str());
    check(std::system(cmd4.c_str()) != -1,
          "coldboot-tool --threads 4 subprocess launched");
    check(checkTrace(trace4_path, "--threads 4: ") > 0,
          "--threads 4: trace holds at least one s/f flow pair");

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_stats_json: all checks passed\n");
    return 0;
}
