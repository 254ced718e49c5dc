/**
 * @file
 * The one append-only journal (common/journal.hh), table-driven over
 * the three journals built on it — the inject campaign journal, the
 * ruusimd recovery journal and the campaign-queue journal: header
 * bytes and record round trips, torn-tail forgiveness with its valid
 * extent, newline isolation on resume, interior damage and missing
 * headers refused, a 0-byte file started afresh, and the identity pin.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/journal.hh"
#include "inject/journal.hh"
#include "serve/queue.hh"
#include "serve/server.hh"

namespace ruu
{
namespace
{

/** Parse a record line and print it again: the record round trip. */
template <typename Record, Expected<Record> (*Parse)(const std::string &),
          std::string (*Print)(const Record &)>
Expected<std::string>
reparse(const std::string &line)
{
    auto record = Parse(line);
    if (!record)
        return record.error();
    return Print(*record);
}

/** One journal kind: its header, sample records and record grammar. */
struct Kind
{
    std::string name;
    journal::Header header;
    std::string headerLine; //!< header's exact on-disk bytes
    journal::Header other;  //!< a different identity
    std::string otherField; //!< the identity field that differs
    std::vector<std::string> records;
    Expected<std::string> (*reparse)(const std::string &);
};

inject::TrialResult
trial(std::uint64_t index)
{
    inject::TrialResult result;
    result.point.index = index;
    result.point.seed = 0xfeedfacecafebeefull;
    result.point.core = "ruu";
    result.point.workload = "lll07";
    result.point.cycle = 1234;
    result.point.bit = 77;
    result.outcome = inject::Outcome::Sdc;
    result.port = "ruu[3].destTag (tag, 32 bits) bit 5";
    result.before = 17;
    result.after = 49;
    result.cycles = 999;
    result.detail = "line one\nline \"two\"";
    return result;
}

Kind
injectKind()
{
    auto header = [](std::uint64_t seed) {
        return journal::Header(inject::kJournalKind)
            .number("seed", seed)
            .number("trials", 10)
            .text("cores", "ruu,history")
            .text("workloads", "w")
            .text("config", "{\"pool\": 10}");
    };
    return {"inject",
            header(3),
            "{\"kind\": \"ruu-inject-journal\", \"version\": 1, "
            "\"seed\": 3, \"trials\": 10, \"cores\": \"ruu,history\", "
            "\"workloads\": \"w\", \"config\": \"{\\\"pool\\\": 10}\"}",
            header(4),
            "seed",
            {inject::trialToLine(trial(42)), inject::trialToLine(trial(43))},
            reparse<inject::TrialResult, inject::parseTrialLine,
                    inject::trialToLine>};
}

Kind
serveKind()
{
    auto header = [](const char *cache) {
        return journal::Header(serve::kServeJournalKind).text("cache", cache);
    };
    serve::JobRecord a{7, 8, 9}, b{0xdeadbeefcafef00dull, 1, 4242};
    return {"serve",
            header("/tmp/some cache \"dir\""),
            "{\"kind\": \"ruu-serve-journal\", \"version\": 1, "
            "\"cache\": \"/tmp/some cache \\\"dir\\\"\"}",
            header("/somewhere/else"),
            "cache",
            {serve::jobRecordToLine(a), serve::jobRecordToLine(b)},
            reparse<serve::JobRecord, serve::parseJobRecordLine,
                    serve::jobRecordToLine>};
}

Kind
queueKind()
{
    auto header = [](const char *cache) {
        return journal::Header(serve::kQueueJournalKind).text("cache", cache);
    };
    serve::QueueRecord admit, unit, cancel;
    admit.campaign.id = "c";
    admit.campaign.workloads = {"lll01", "lll02"};
    admit.campaign.cores = {"ruu"};
    admit.campaign.periods = {100, 250};
    serve::QueueRecord buffered = admit;
    buffered.campaign.id = "d";
    buffered.campaign.ibuffers = true;
    unit.type = serve::QueueRecord::Type::Unit;
    unit.id = "c";
    unit.unit = 1;
    unit.key = 11;
    unit.checksum = 22;
    unit.bytes = 33;
    cancel.type = serve::QueueRecord::Type::Cancel;
    cancel.id = "c";
    return {"queue",
            header("/tmp/cache"),
            "{\"kind\": \"ruu-serve-queue\", \"version\": 1, "
            "\"cache\": \"/tmp/cache\"}",
            header("/tmp/elsewhere"),
            "cache",
            {serve::queueRecordToLine(admit),
             serve::queueRecordToLine(unit),
             serve::queueRecordToLine(cancel),
             serve::queueRecordToLine(buffered)},
            reparse<serve::QueueRecord, serve::parseQueueRecordLine,
                    serve::queueRecordToLine>};
}

class JournalKinds : public ::testing::TestWithParam<Kind>
{
  protected:
    void
    SetUp() override
    {
        _path = ::testing::TempDir() + "journal_" + GetParam().name +
                "_" + std::to_string(::getpid()) + ".jsonl";
        std::filesystem::remove(_path);
    }

    void TearDown() override { std::filesystem::remove(_path); }

    /** The kind's parser, collecting reprinted records into @p out. */
    journal::RecordParser
    collect(std::vector<std::string> &out) const
    {
        auto reprint = GetParam().reparse;
        return [&out, reprint](const std::string &line) -> Expected<bool> {
            auto printed = reprint(line);
            if (!printed)
                return printed.error();
            out.push_back(*printed);
            return true;
        };
    }

    Expected<journal::Extent>
    read(std::vector<std::string> &records) const
    {
        records.clear();
        return journal::read(_path, GetParam().header.kind,
                             collect(records));
    }

    /** Create-or-resume the journal, appending @p lines after. */
    Expected<bool>
    openAndAppend(const std::vector<std::string> &lines,
                  std::vector<std::string> *replayed = nullptr) const
    {
        std::vector<std::string> ignored;
        io::AppendFile file;
        auto opened = journal::open(file, _path, GetParam().header,
                                    collect(replayed ? *replayed : ignored),
                                    "mismatch");
        if (!opened)
            return opened;
        for (const std::string &line : lines)
            if (auto wrote = file.appendLine(line); !wrote)
                return wrote;
        return true;
    }

    std::string
    contents() const
    {
        std::ifstream in(_path, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    void
    write(const std::string &text) const
    {
        std::ofstream out(_path, std::ios::binary);
        out << text;
    }

    std::string _path;
};

TEST_P(JournalKinds, CreateAppendReadAndResumeRoundTrip)
{
    const Kind &kind = GetParam();
    ASSERT_TRUE(openAndAppend(kind.records).ok());

    std::string expected = kind.headerLine + "\n";
    for (const std::string &line : kind.records)
        expected += line + "\n";
    EXPECT_EQ(contents(), expected) << "on-disk bytes changed";

    std::vector<std::string> records;
    auto extent = read(records);
    ASSERT_TRUE(extent.ok()) << extent.error().message();
    EXPECT_EQ(records, kind.records);
    EXPECT_FALSE(extent->tornTail);
    EXPECT_EQ(extent->validBytes, expected.size());
    EXPECT_TRUE(journal::checkHeader(extent->header, kind.header, "").ok());

    // Resuming replays every record and appends after them.
    std::vector<std::string> replayed;
    ASSERT_TRUE(openAndAppend({kind.records[0]}, &replayed).ok());
    EXPECT_EQ(replayed, kind.records);
    EXPECT_EQ(contents(), expected + kind.records[0] + "\n");
}

TEST_P(JournalKinds, TornTailIsForgivenMeasuredAndTruncatedOnResume)
{
    const Kind &kind = GetParam();
    ASSERT_TRUE(openAndAppend(kind.records).ok());
    std::string clean = contents();

    // A writer killed mid-append leaves half a record line.
    std::string fragment =
        kind.records[0].substr(0, kind.records[0].size() / 2);
    write(clean + fragment);
    std::vector<std::string> records;
    auto extent = read(records);
    ASSERT_TRUE(extent.ok()) << extent.error().message();
    EXPECT_TRUE(extent->tornTail);
    EXPECT_EQ(extent->tornLine, fragment);
    EXPECT_EQ(extent->validBytes, clean.size());
    EXPECT_EQ(records, kind.records);

    // Resume drops the fragment before appending, so it can never
    // resurface as an interior line.
    ASSERT_TRUE(openAndAppend({kind.records[0]}).ok());
    EXPECT_EQ(contents(), clean + kind.records[0] + "\n");
    extent = read(records);
    ASSERT_TRUE(extent.ok()) << extent.error().message();
    EXPECT_FALSE(extent->tornTail);
    EXPECT_EQ(records.size(), kind.records.size() + 1);
}

TEST_P(JournalKinds, ResumeIsolatesAnUnterminatedFinalRecord)
{
    const Kind &kind = GetParam();
    ASSERT_TRUE(openAndAppend(kind.records).ok());
    std::string clean = contents();
    write(clean.substr(0, clean.size() - 1)); // the '\n' never landed

    // Still a whole record, so not a torn tail...
    std::vector<std::string> records;
    auto extent = read(records);
    ASSERT_TRUE(extent.ok()) << extent.error().message();
    EXPECT_FALSE(extent->tornTail);
    EXPECT_EQ(records, kind.records);

    // ...and the next append starts on a fresh line instead of fusing
    // with it.
    ASSERT_TRUE(openAndAppend({kind.records[0]}).ok());
    EXPECT_EQ(contents(), clean + kind.records[0] + "\n");
    ASSERT_TRUE(read(records).ok());
    EXPECT_EQ(records.size(), kind.records.size() + 1);
}

TEST_P(JournalKinds, InteriorDamageIsRefusedWithItsLineNumber)
{
    const Kind &kind = GetParam();
    write(kind.headerLine + "\nnot a record\n" + kind.records[0] + "\n");
    std::vector<std::string> records;
    auto extent = read(records);
    ASSERT_FALSE(extent.ok());
    EXPECT_NE(extent.error().message().find("line 2"), std::string::npos)
        << extent.error().message();
    EXPECT_FALSE(openAndAppend({}).ok());

    // Blank lines do not hide the damage either.
    write(kind.headerLine + "\n" + kind.records[0] + "\n\ngarbage\n\n" +
          kind.records[1] + "\n");
    EXPECT_FALSE(read(records).ok());
}

TEST_P(JournalKinds, MissingOrForeignHeaderIsRefused)
{
    const Kind &kind = GetParam();
    std::vector<std::string> records;
    write(kind.records[0] + "\n");
    EXPECT_FALSE(read(records).ok());
    write("hello\n");
    EXPECT_FALSE(read(records).ok());
    EXPECT_FALSE(openAndAppend({}).ok());
    EXPECT_EQ(contents(), "hello\n") << "a refused open touched the file";
    write("\n");
    EXPECT_FALSE(openAndAppend({}).ok());
    write("");
    EXPECT_FALSE(read(records).ok());

    // Another journal's kind, or a version this reader cannot speak.
    std::string foreign = kind.headerLine;
    foreign.replace(foreign.find("ruu-"), 4, "xyz-");
    write(foreign + "\n");
    EXPECT_FALSE(read(records).ok());
    std::string future = kind.headerLine;
    future.replace(future.find("\"version\": 1"), 12, "\"version\": 2");
    write(future + "\n");
    auto extent = read(records);
    ASSERT_FALSE(extent.ok());
    EXPECT_NE(extent.error().message().find("unsupported version 2"),
              std::string::npos);
}

TEST_P(JournalKinds, EmptyFileIsCreatedAfresh)
{
    // A crash between creating the file and writing its header leaves
    // zero bytes: no durable record, so resume starts the journal over
    // instead of refusing it forever.
    const Kind &kind = GetParam();
    write("");
    ASSERT_TRUE(openAndAppend(kind.records).ok());
    std::string expected = kind.headerLine + "\n";
    for (const std::string &line : kind.records)
        expected += line + "\n";
    EXPECT_EQ(contents(), expected);
}

TEST_P(JournalKinds, IdentityPinRefusesAnotherHeader)
{
    const Kind &kind = GetParam();
    ASSERT_TRUE(openAndAppend(kind.records).ok());
    std::string before = contents();

    io::AppendFile file;
    std::vector<std::string> records;
    auto opened = journal::open(file, _path, kind.other, collect(records),
                                "journal pins another identity");
    ASSERT_FALSE(opened.ok());
    const std::string &message = opened.error().message();
    EXPECT_EQ(message.find("journal pins another identity: " +
                           kind.otherField + " is "),
              0u)
        << message;
    EXPECT_FALSE(file.isOpen());
    EXPECT_EQ(contents(), before) << "a refused open touched the file";
}

INSTANTIATE_TEST_SUITE_P(
    AllJournals, JournalKinds,
    ::testing::Values(injectKind(), serveKind(), queueKind()),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return info.param.name;
    });

} // namespace
} // namespace ruu
