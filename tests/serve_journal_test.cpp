/// Tests of the crash-safe job journal (serve/journal.hpp): line
/// round-trips, CRC detection, and the central recovery property — for
/// *every* truncation point of a journal file, replay returns exactly
/// the records whose lines are complete, never a torn or corrupt one.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/journal.hpp"
#include "util/error.hpp"

namespace spmap {
namespace {

/// A unique path under /tmp; removed on destruction.
class TempPath {
 public:
  TempPath() {
    static int counter = 0;
    path_ = "/tmp/spmap_journal_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(++counter) + ".journal";
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

Json record(const std::string& type, std::uint64_t job) {
  Json r = Json::object();
  r.set("type", Json(type));
  r.set("job", Json(job));
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ServeJournal, Crc32MatchesKnownVectors) {
  // The IEEE 802.3 check value: crc32("123456789") = 0xcbf43926.
  EXPECT_EQ(crc32_ieee("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(crc32_ieee("", 0), 0x00000000u);
}

TEST(ServeJournal, LineRoundTrips) {
  Json r = record("submitted", 7);
  r.set("submit", Json(Json::Object{{"mapper", Json("spff")}}));
  const std::string line = journal_line(r);
  ASSERT_EQ(line.back(), '\n');

  Json parsed;
  std::string error;
  ASSERT_TRUE(
      parse_journal_line(line.substr(0, line.size() - 1), parsed, error))
      << error;
  EXPECT_EQ(parsed.dump(), r.dump());
}

TEST(ServeJournal, ParseRejectsBadCrcBadHexAndNonObjects) {
  const std::string line = journal_line(record("started", 1));
  std::string body = line.substr(0, line.size() - 1);

  Json parsed;
  std::string error;

  // Flip one JSON byte: the CRC no longer matches.
  std::string corrupt = body;
  corrupt[body.size() - 2] ^= 0x01;
  EXPECT_FALSE(parse_journal_line(corrupt, parsed, error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  // Uppercase hex is not canonical.
  std::string upper = body;
  for (int i = 0; i < 8; ++i) upper[i] = std::toupper(upper[i]);
  if (upper != body) {
    EXPECT_FALSE(parse_journal_line(upper, parsed, error));
  }

  // Too short / missing separator / non-object payload.
  EXPECT_FALSE(parse_journal_line("deadbeef", parsed, error));
  EXPECT_FALSE(parse_journal_line("", parsed, error));
  const std::uint32_t crc = crc32_ieee("[1,2]", 5);
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  EXPECT_FALSE(
      parse_journal_line(std::string(hex) + " [1,2]", parsed, error));
}

TEST(ServeJournal, MissingFileIsAnEmptyJournal) {
  const JournalReplay replay =
      replay_journal("/tmp/spmap_journal_test_does_not_exist.journal");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.tail_dropped);
}

TEST(ServeJournal, AppendAndReplayRoundTrips) {
  TempPath path;
  {
    Journal journal(path.str());
    journal.append(record("submitted", 1));
    journal.append(record("started", 1));
    journal.append(record("terminal", 1));
    EXPECT_EQ(journal.appended(), 3u);
  }
  const JournalReplay replay = replay_journal(path.str());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_FALSE(replay.tail_dropped);
  EXPECT_EQ(replay.records[0].at("type").as_string(), "submitted");
  EXPECT_EQ(replay.records[1].at("type").as_string(), "started");
  EXPECT_EQ(replay.records[2].at("type").as_string(), "terminal");
}

TEST(ServeJournal, ReplayAcrossReopenAppends) {
  TempPath path;
  {
    Journal journal(path.str());
    journal.append(record("submitted", 1));
  }
  {
    Journal journal(path.str());  // append mode: earlier records survive
    journal.append(record("terminal", 1));
  }
  const JournalReplay replay = replay_journal(path.str());
  EXPECT_EQ(replay.records.size(), 2u);
}

/// The crash-recovery property: truncate the journal at EVERY byte
/// offset; replay must return exactly the records whose full lines fit
/// in the prefix, flag the torn tail iff there are leftover bytes, and
/// never surface a partial record.
TEST(ServeJournal, TruncationAtEveryOffsetRecoversTheCommittedPrefix) {
  TempPath path;
  std::vector<std::string> lines;
  std::string full;
  for (std::uint64_t job = 1; job <= 4; ++job) {
    Json r = record("submitted", job);
    r.set("submit", Json(Json::Object{{"mapper", Json("spff")},
                                      {"class", Json("normal")}}));
    lines.push_back(journal_line(r));
    full += lines.back();
    lines.push_back(journal_line(record("terminal", job)));
    full += lines.back();
  }

  // Per prefix length: how many whole lines fit.
  std::vector<std::size_t> whole_lines_at(full.size() + 1, 0);
  {
    std::size_t consumed = 0, count = 0;
    for (const std::string& line : lines) {
      for (std::size_t inside = 1; inside <= line.size(); ++inside) {
        whole_lines_at[consumed + inside] =
            count + (inside == line.size() ? 1 : 0);
      }
      consumed += line.size();
      ++count;
    }
  }

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_file(path.str(), full.substr(0, cut));
    const JournalReplay replay = replay_journal(path.str());
    EXPECT_EQ(replay.records.size(), whole_lines_at[cut])
        << "truncated at byte " << cut;
    std::size_t committed = 0;
    for (std::size_t i = 0; i < whole_lines_at[cut]; ++i) {
      committed += lines[i].size();
    }
    // Torn iff bytes exist past the last whole line.
    EXPECT_EQ(replay.tail_dropped, cut > committed)
        << "truncated at byte " << cut;
    EXPECT_EQ(replay.committed_bytes, committed)
        << "truncated at byte " << cut;
  }
}

TEST(ServeJournal, MidFileCorruptionStopsReplayAtTheBadLine) {
  TempPath path;
  std::string full;
  for (std::uint64_t job = 1; job <= 3; ++job) {
    full += journal_line(record("submitted", job));
  }
  // Corrupt a byte inside the SECOND line's JSON: replay keeps record 1
  // and drops everything from the bad line on (it cannot trust the rest).
  const std::size_t line_len = journal_line(record("submitted", 1)).size();
  std::string damaged = full;
  damaged[line_len + 12] ^= 0x40;
  write_file(path.str(), damaged);

  const JournalReplay replay = replay_journal(path.str());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].at("job").as_int(), 1);
  EXPECT_TRUE(replay.tail_dropped);
  EXPECT_FALSE(replay.tail_error.empty());
}

TEST(ServeJournal, RewriteCompactsAtomicallyAndKeepsAppending) {
  TempPath path;
  Journal journal(path.str());
  for (std::uint64_t job = 1; job <= 8; ++job) {
    journal.append(record("submitted", job));
    journal.append(record("terminal", job));
  }
  EXPECT_EQ(journal.appended(), 16u);

  // Compact to the last two jobs only.
  std::vector<Json> keep;
  keep.push_back(record("submitted", 7));
  keep.push_back(record("terminal", 7));
  keep.push_back(record("submitted", 8));
  keep.push_back(record("terminal", 8));
  journal.rewrite(keep);
  EXPECT_EQ(journal.appended(), 0u);

  journal.append(record("submitted", 9));

  const JournalReplay replay = replay_journal(path.str());
  ASSERT_EQ(replay.records.size(), 5u);
  EXPECT_EQ(replay.records[0].at("job").as_int(), 7);
  EXPECT_EQ(replay.records[4].at("job").as_int(), 9);
  EXPECT_FALSE(replay.tail_dropped);
  // No leftover temp file.
  EXPECT_EQ(read_file(path.str() + ".tmp"), "");
}

}  // namespace
}  // namespace spmap
