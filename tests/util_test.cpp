/**
 * @file
 * Unit tests for the util module: RNG, strings, options, CSV, tables,
 * stats, log levels.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/Csv.hpp"
#include "util/Logging.hpp"
#include "util/Options.hpp"
#include "util/Random.hpp"
#include "util/Stats.hpp"
#include "util/StringUtils.hpp"
#include "util/Table.hpp"

using namespace gsuite;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneIsZero)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextBelow(1), 0u);
    EXPECT_EQ(rng.nextBelow(0), 0u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMomentsAreSane)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(5);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(3);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n "), "");
    EXPECT_EQ(trim("ab"), "ab");
}

TEST(StringUtils, ToLower)
{
    EXPECT_EQ(toLower("GCN-Model"), "gcn-model");
}

TEST(StringUtils, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StringUtils, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("gsuite-mp", "gsuite"));
    EXPECT_FALSE(startsWith("mp", "gsuite"));
    EXPECT_TRUE(endsWith("file.csv", ".csv"));
    EXPECT_FALSE(endsWith("csv", "file.csv"));
}

TEST(StringUtils, ParseInt)
{
    int64_t v = 0;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt(" -7 ", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(parseInt("4x", v));
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("1.5", v));
}

TEST(StringUtils, ParseDouble)
{
    double v = 0;
    EXPECT_TRUE(parseDouble("3.25", v));
    EXPECT_DOUBLE_EQ(v, 3.25);
    EXPECT_FALSE(parseDouble("abc", v));
}

TEST(StringUtils, ParseBool)
{
    bool v = false;
    EXPECT_TRUE(parseBool("true", v));
    EXPECT_TRUE(v);
    EXPECT_TRUE(parseBool("OFF", v));
    EXPECT_FALSE(v);
    EXPECT_FALSE(parseBool("maybe", v));
}

TEST(StringUtils, FormatCount)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(11606919), "11,606,919");
}

TEST(StringUtils, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
}

TEST(Options, SetGetAndDefaults)
{
    OptionSet o;
    o.set("dataset", "cora");
    EXPECT_TRUE(o.has("dataset"));
    EXPECT_EQ(o.getString("dataset"), "cora");
    EXPECT_EQ(o.getString("missing", "dflt"), "dflt");
    EXPECT_EQ(o.getInt("missing", 4), 4);
}

TEST(Options, ParseArgsFormats)
{
    // Note: a bare flag consumes the next token unless it is another
    // option, so flags go last or use the --flag=true form.
    const char *argv[] = {"prog", "--layers", "3",      "--model=gin",
                          "pos1", "--quiet",  nullptr};
    OptionSet o;
    const auto pos = o.parseArgs(6, argv);
    EXPECT_EQ(o.getInt("layers", 0), 3);
    EXPECT_EQ(o.getString("model"), "gin");
    EXPECT_TRUE(o.getBool("quiet", false));
    ASSERT_EQ(pos.size(), 1u);
    EXPECT_EQ(pos[0], "pos1");
}

TEST(Options, LaterValuesOverride)
{
    OptionSet o;
    o.set("k", "1");
    o.set("k", "2");
    EXPECT_EQ(o.getInt("k", 0), 2);
    EXPECT_EQ(o.keys().size(), 1u);
}

TEST(Options, ConfigFileRoundTrip)
{
    const std::string path = "/tmp/gsuite_test_opts.conf";
    {
        std::ofstream f(path);
        f << "# comment\n\ndataset = pubmed\nlayers=4\n; also "
             "comment\n";
    }
    OptionSet o;
    o.loadFile(path);
    EXPECT_EQ(o.getString("dataset"), "pubmed");
    EXPECT_EQ(o.getInt("layers", 0), 4);
    std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters)
{
    const std::string path = "/tmp/gsuite_test.csv";
    {
        CsvWriter w(path);
        EXPECT_TRUE(w.enabled());
        w.header({"a", "b"});
        w.row({"x,y", "he said \"hi\""});
    }
    std::ifstream f(path);
    std::string l1, l2;
    std::getline(f, l1);
    std::getline(f, l2);
    EXPECT_EQ(l1, "a,b");
    EXPECT_EQ(l2, "\"x,y\",\"he said \"\"hi\"\"\"");
    std::remove(path.c_str());
}

TEST(Csv, DisabledWriterIsNoOp)
{
    CsvWriter w("");
    EXPECT_FALSE(w.enabled());
    w.row({"ignored"}); // must not crash
}

TEST(Csv, FmtDouble)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

TEST(Table, RendersAlignedColumns)
{
    TablePrinter t("title");
    t.header({"col1", "c2"});
    t.row({"a", "bbbb"});
    t.separator();
    t.row({"cc"});
    const std::string out = t.render();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("col1"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    // Header separator line plus explicit separator.
    EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Stats, SetGet)
{
    StatSet s;
    s.set("x", 5);
    s.set("x", 1);
    EXPECT_DOUBLE_EQ(s.get("x"), 1);
    EXPECT_DOUBLE_EQ(s.get("unknown"), 0);
}

TEST(Logging, LevelFromEnvironmentAcceptsOnlyLevelsThatPrint)
{
    // SUITE_LOG_LEVEL is read once per process, so each value is read
    // in a child: threadsafe death tests re-execute the binary, which
    // inherits the environment set here.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto exitsWithLevel = [](LogLevel want) {
        std::exit(logLevel() == want ? 0 : 1);
    };
    for (const char *value : {"debug", "3"}) {
        setenv("SUITE_LOG_LEVEL", value, 1);
        EXPECT_EXIT(exitsWithLevel(LogLevel::Normal),
                    ::testing::ExitedWithCode(0),
                    "not recognized .want quiet.normal.verbose or 0-2.");
    }
    setenv("SUITE_LOG_LEVEL", "2", 1);
    EXPECT_EXIT(exitsWithLevel(LogLevel::Verbose),
                ::testing::ExitedWithCode(0), "^$");
    unsetenv("SUITE_LOG_LEVEL");
}
