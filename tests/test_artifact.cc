/**
 * @file
 * Tests for the machine-readable benchmark artifact layer and the
 * parallel Figure-4 sweep driver: bitwise determinism of the parallel
 * sweep against the serial reference, stability of the deterministic
 * artifact sections across same-seed builds, schema validation of the
 * artifact document, and (when the bench binaries are available) an
 * end-to-end check that a real bench run writes a valid artifact.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "bench/bench_util.hh"
#include "core/sweep.hh"
#include "sim/json.hh"
#include "trace/workloads.hh"

namespace vmp
{
namespace
{

// ------------------------------------------------------- sweep driver

void
expectSameResults(const std::vector<core::FastSimResult> &a,
                  const std::vector<core::FastSimResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].refs, b[i].refs) << "cell " << i;
        EXPECT_EQ(a[i].misses, b[i].misses) << "cell " << i;
        EXPECT_EQ(a[i].supervisorRefs, b[i].supervisorRefs)
            << "cell " << i;
        EXPECT_EQ(a[i].supervisorMisses, b[i].supervisorMisses)
            << "cell " << i;
    }
}

TEST(Sweep, CellGridCoversEveryWorkload)
{
    const auto names = trace::workloadNames();
    const auto cells =
        core::fig4Cells({KiB(64), KiB(128)}, {128, 256}, 4);
    // Grid is {size x page} points, one cell per workload each.
    EXPECT_EQ(cells.size(), 2 * 2 * names.size());
    // Workload-major within each point, so a merge by group size
    // reproduces the per-point averages.
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_NE(cells[i].label.find(names[i]), std::string::npos)
            << cells[i].label;
}

TEST(Sweep, ParallelBitwiseIdenticalToSerial)
{
    // All four atum workloads across a small {size x page} grid; the
    // parallel driver must produce bit-identical counts to the serial
    // reference for any thread count (results land in pre-sized slots
    // indexed by cell, so scheduling order cannot matter).
    const auto cells =
        core::fig4Cells({KiB(64), KiB(128)}, {128, 256}, 4);
    const auto serial = core::runSweepSerial(cells);
    ASSERT_EQ(serial.size(), cells.size());

    for (const unsigned threads : {2u, 4u}) {
        core::SweepOptions options;
        options.threads = threads;
        const auto parallel = core::runSweep(cells, options);
        expectSameResults(serial, parallel);
    }
}

TEST(Sweep, MergeAveragesWorkloadGroups)
{
    const auto cells = core::fig4Cells({KiB(64)}, {256}, 4);
    const auto results = core::runSweepSerial(cells);
    const auto merged =
        core::mergeWorkloadGroups(results, cells.size());
    ASSERT_EQ(merged.size(), 1u);
    std::uint64_t refs = 0, misses = 0;
    for (const auto &r : results) {
        refs += r.refs;
        misses += r.misses;
    }
    EXPECT_EQ(merged.front().refs, refs);
    EXPECT_EQ(merged.front().misses, misses);
}

TEST(Sweep, RepeatedRunsAreDeterministic)
{
    // Two same-seed sweeps (fresh generators each time) are identical.
    const auto cells = core::fig4Cells({KiB(64)}, {256, 512}, 4);
    core::SweepOptions options;
    options.threads = 4;
    const auto first = core::runSweep(cells, options);
    const auto second = core::runSweep(cells, options);
    expectSameResults(first, second);
}

// -------------------------------------------------- error propagation

TEST(Sweep, ThrowingCellSurfacesOnCallingThread)
{
    // A cell whose workload config is invalid throws FatalError from
    // its generator. The sweep must deliver that exception to the
    // caller — an exception escaping a worker thread would
    // std::terminate the whole process instead.
    auto cells = core::fig4Cells({KiB(64)}, {256}, 4);
    ASSERT_GE(cells.size(), 3u);
    cells[2].workload.totalRefs = 0; // invalid: generator throws
    for (const unsigned threads : {1u, 4u}) {
        core::SweepOptions options;
        options.threads = threads;
        EXPECT_THROW(core::runSweep(cells, options), FatalError)
            << "threads=" << threads;
    }
}

TEST(Sweep, OtherCellsSurviveAFailingCell)
{
    // parallelMapOutcomes isolates the failure: every healthy cell
    // still produces its (deterministic) result, only the bad cell
    // carries an exception.
    auto cells = core::fig4Cells({KiB(64)}, {256}, 4);
    const auto reference = core::runSweepSerial(cells);
    cells[1].workload.totalRefs = 0;

    core::SweepOptions options;
    options.threads = 4;
    const auto outcomes = core::parallelMapOutcomes(
        cells.size(),
        [&](std::size_t i) {
            trace::SyntheticGen gen(cells[i].workload);
            core::FastCacheSim sim(cells[i].config);
            return sim.run(gen);
        },
        options);

    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i == 1) {
            EXPECT_TRUE(outcomes[i].error);
            continue;
        }
        ASSERT_FALSE(outcomes[i].error) << "cell " << i;
        EXPECT_EQ(outcomes[i].value.refs, reference[i].refs)
            << "cell " << i;
        EXPECT_EQ(outcomes[i].value.misses, reference[i].misses)
            << "cell " << i;
    }
}

TEST(Sweep, LowestIndexErrorWinsDeterministically)
{
    // With several failing cells, parallelMap rethrows the lowest
    // index regardless of scheduling — the same error a serial loop
    // would have hit first.
    const std::size_t count = 16;
    core::SweepOptions options;
    options.threads = 4;
    for (int round = 0; round < 4; ++round) {
        try {
            core::parallelMap(
                count,
                [](std::size_t i) -> int {
                    if (i == 3 || i == 11)
                        throw std::runtime_error(
                            "cell " + std::to_string(i));
                    return static_cast<int>(i);
                },
                options);
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "cell 3");
        }
    }
}

// ---------------------------------------------------------- artifacts

bench::Artifact
makeArtifact()
{
    bench::BenchOptions opts;
    opts.jsonOut = "unused.json";
    bench::Artifact artifact("fig4", opts);
    Json metrics = Json::object();
    metrics["miss_ratio"] = Json(0.0024);
    metrics["refs"] = Json(std::uint64_t{400000});
    artifact.add("128K/256B", bench::cacheConfigJson(KiB(128), 256, 4),
                 std::move(metrics));
    artifact.note("unit-test artifact");
    return artifact;
}

/** Validate the fixed artifact schema (version 1.1). */
void
expectValidArtifact(const Json &doc)
{
    EXPECT_EQ(doc.get("schema").asString(), bench::kArtifactSchema);
    EXPECT_DOUBLE_EQ(doc.get("schema_version").asNumber(),
                     bench::kArtifactSchemaVersion);
    EXPECT_TRUE(doc.get("bench").isString());
    EXPECT_TRUE(doc.get("notes").isArray());
    EXPECT_TRUE(doc.get("host").isObject());
    EXPECT_TRUE(doc.get("host").get("wall_clock_s").isNumber());

    // v1.1 provenance section.
    const Json &meta = doc.get("meta");
    ASSERT_TRUE(meta.isObject());
    EXPECT_TRUE(meta.get("git_sha").isString());
    EXPECT_FALSE(meta.get("git_sha").asString().empty());
    EXPECT_TRUE(meta.get("compiler").isString());
    EXPECT_FALSE(meta.get("compiler").asString().empty());
    EXPECT_GE(meta.get("threads").asUint(), 1u);

    const Json &results = doc.get("results");
    ASSERT_TRUE(results.isArray());
    for (const auto &row : results.items()) {
        EXPECT_TRUE(row.get("label").isString());
        ASSERT_TRUE(row.get("config").isObject());
        ASSERT_TRUE(row.get("metrics").isObject());
        for (const auto &member : row.get("config").members())
            EXPECT_TRUE(member.second.isNumber() ||
                        member.second.isString() ||
                        member.second.isBool())
                << row.get("label").asString() << "." << member.first;
        for (const auto &member : row.get("metrics").members())
            EXPECT_TRUE(member.second.isNumber() ||
                        member.second.isObject())
                << row.get("label").asString() << "." << member.first;
    }
}

TEST(Artifact, DocumentMatchesSchema)
{
    const Json doc = makeArtifact().toJson();
    expectValidArtifact(doc);
    EXPECT_EQ(doc.get("bench").asString(), "fig4");
    ASSERT_EQ(doc.get("results").size(), 1u);
    const Json &row = doc.get("results").at(0);
    EXPECT_EQ(row.get("label").asString(), "128K/256B");
    EXPECT_EQ(row.get("config").get("cache_bytes").asUint(),
              KiB(128));
    EXPECT_DOUBLE_EQ(row.get("metrics").get("miss_ratio").asNumber(),
                     0.0024);
}

TEST(Artifact, DeterministicSectionsAreByteIdentical)
{
    // Two artifacts built from the same inputs agree on every section
    // except the volatile "host" block (wall clock), which is why the
    // schema quarantines volatility there.
    const Json a = makeArtifact().toJson();
    const Json b = makeArtifact().toJson();
    EXPECT_EQ(a.get("schema"), b.get("schema"));
    EXPECT_EQ(a.get("bench"), b.get("bench"));
    EXPECT_EQ(a.get("results"), b.get("results"));
    EXPECT_EQ(a.get("notes"), b.get("notes"));
    EXPECT_EQ(a.get("results").dump(), b.get("results").dump());
}

TEST(Artifact, RoundTripsThroughParser)
{
    const Json doc = makeArtifact().toJson();
    const Json parsed = Json::parse(doc.dump());
    EXPECT_EQ(parsed, doc);
    expectValidArtifact(parsed);
}

// ------------------------------------------- end-to-end bench binary

#ifdef VMP_BENCH_DIR

Json
runBenchToArtifact(const std::string &bench,
                   const std::string &out_path)
{
    const std::string binary = std::string(VMP_BENCH_DIR) + "/" + bench;
    const std::string cmd = binary + " --json-out " + out_path +
        " > /dev/null 2>&1";
    if (std::system(cmd.c_str()) != 0)
        return Json();
    std::ifstream is(out_path);
    std::stringstream ss;
    ss << is.rdbuf();
    return Json::parse(ss.str());
}

TEST(Artifact, BenchBinaryWritesValidArtifact)
{
    const std::string binary =
        std::string(VMP_BENCH_DIR) + "/bench_table1";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binaries not built";

    const std::string path_a = "test_artifact_table1_a.json";
    const std::string path_b = "test_artifact_table1_b.json";
    const Json a = runBenchToArtifact("bench_table1", path_a);
    const Json b = runBenchToArtifact("bench_table1", path_b);
    ASSERT_TRUE(a.isObject()) << "bench_table1 run failed";
    ASSERT_TRUE(b.isObject()) << "bench_table1 rerun failed";
    expectValidArtifact(a);
    EXPECT_EQ(a.get("bench").asString(), "table1");
    EXPECT_GT(a.get("results").size(), 0u);

    // Same-seed reruns agree on every deterministic section.
    EXPECT_EQ(a.get("results").dump(), b.get("results").dump());
    EXPECT_EQ(a.get("notes").dump(), b.get("notes").dump());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Artifact, BadCommandLineExitsOneWithMessage)
{
    const std::string binary =
        std::string(VMP_BENCH_DIR) + "/bench_table1";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binaries not built";

    // Each bad command line must be rejected at parse time with exit
    // status 1 and a message naming the problem (never an uncaught
    // exception, which aborts with 134).
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"--priority-levels 0", "--priority-levels wants an integer "
                                "in 1..8, got '0'"},
        {"--priority-levels=9", "--priority-levels wants an integer "
                                "in 1..8, got '9'"},
        {"--threads abc", "--threads wants an integer"},
        {"--threads -2", "--threads wants an integer"},
        {"--seed-base 12x", "--seed-base wants an integer"},
        {"--seed-base", "--seed-base requires a value"},
        {"--json-out", "--json-out requires a value"},
        {"--arbitration lottery",
         "unknown arbitration discipline 'lottery'"},
    };
    for (const auto &[args, message] : cases) {
        const std::string cmd =
            binary + " --no-json " + args + " 2>&1";
        FILE *pipe = popen(cmd.c_str(), "r");
        ASSERT_NE(pipe, nullptr) << cmd;
        std::string output;
        char buf[256];
        while (std::fgets(buf, sizeof(buf), pipe))
            output += buf;
        const int status = pclose(pipe);
        ASSERT_TRUE(WIFEXITED(status)) << args << ": " << output;
        EXPECT_EQ(WEXITSTATUS(status), 1) << args << ": " << output;
        EXPECT_NE(output.find("bench_table1: "), std::string::npos)
            << args << ": " << output;
        EXPECT_NE(output.find(message), std::string::npos)
            << args << ": " << output;
    }
}

#endif // VMP_BENCH_DIR

} // namespace
} // namespace vmp
