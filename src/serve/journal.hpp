#pragma once
/// \file journal.hpp
/// `spmap-journal/1`: the daemon's crash-safe job journal.
///
/// An append-only, newline-delimited record log the serving daemon
/// writes through on every job state transition and replays at startup,
/// so a restarted daemon still answers `status` — terminal results
/// included — for jobs submitted before the crash, and re-enqueues jobs
/// that were accepted but never finished.
///
/// ## On-disk format
///
/// One record is one line:
///
///     <crc32 as 8 lower-case hex chars> <compact JSON object> '\n'
///
/// The CRC (IEEE 802.3, the zlib polynomial) covers exactly the JSON
/// bytes between the single separating space and the newline. Records
/// are self-delimiting and individually checksummed, so replay can
/// recover the longest committed prefix of a journal whose tail was lost
/// mid-write (power cut, SIGKILL between write and fsync): the first
/// line that is truncated, fails its CRC, or does not parse ends the
/// replay — everything before it is exactly what was committed.
///
/// Record objects share `{"type": ..., "job": N}`; per docs/FORMATS.md:
///
///   type "submitted"  + "submit": the full wire submit body — enough to
///                       re-enqueue the job after a restart
///   type "terminal"   + "status": the terminal status body, verbatim
///                       what the `status` verb answers
///
/// The daemon's recovery skips record types it does not know, so
/// journals holding the `started`/`incumbent` progress markers of older
/// daemons recover unchanged.
///
/// ## Durability
///
/// `append(record)` fsyncs before returning, every time: each record the
/// daemon writes backs a wire acknowledgement, so none may sit unsynced.
///
/// ## Compaction
///
/// `rewrite(records)` atomically replaces the journal (write temp,
/// fsync, rename) with a consolidated snapshot — the daemon compacts to
/// one submitted + one terminal record per retained job once enough
/// appends accumulate, so the file stays bounded by the completed-job
/// retention instead of growing with traffic.
///
/// ## Thread-safety
///
/// None. The daemon writes from its IO thread only; replay happens
/// before the IO loop starts. That single-owner contract is machine
/// checked, not just prose: the daemon's `journal_` member is declared
/// `SPMAP_GUARDED_BY(io_role_)` (see src/serve/daemon.hpp and the
/// `ThreadRole` capability in src/util/mutex.hpp), so any code path
/// reaching the journal off the IO thread fails to compile under
/// `-Werror=thread-safety`.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace spmap {

/// Schema tag of the record stream (recorded in FORMATS.md; the format
/// itself is line-per-record, so the tag lives here and in the docs, not
/// in a file header — an empty journal is a valid journal).
inline constexpr const char* kJournalSchema = "spmap-journal/1";

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xffffffff) of `data` —
/// the per-record checksum of the journal format.
std::uint32_t crc32_ieee(const void* data, std::size_t size);

/// One journal line, serialized: `<crc8hex> <compact json>\n`.
std::string journal_line(const Json& record);

/// The committed prefix of a journal file (see `replay_journal`).
struct JournalReplay {
  std::vector<Json> records;  ///< valid records, in append order
  std::size_t committed_bytes = 0;  ///< file prefix the records occupy
  /// True when bytes past the committed prefix were dropped (a torn tail
  /// or corruption) — the restarted daemon logs it and truncates.
  bool tail_dropped = false;
  std::string tail_error;  ///< why the first bad line was rejected
};

/// Parses one journal line (without its '\n'). Returns false (with
/// `error` set) on a bad CRC, bad hex, or non-object JSON.
bool parse_journal_line(const std::string& line, Json& out,
                        std::string& error);

/// Replays a journal file: returns every record of the longest committed
/// prefix. A missing file is an empty (valid) journal. Throws
/// spmap::Error only on I/O errors reading an existing file.
JournalReplay replay_journal(const std::string& path);

/// The daemon-side writer. Opens in append mode (creating the file), or
/// use `rewrite` to atomically replace the contents first.
class Journal {
 public:
  explicit Journal(std::string path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const std::string& path() const { return path_; }

  /// Appends one record and fsyncs it before returning (the commit
  /// barrier of acknowledged transitions). Throws spmap::Error when the
  /// write or sync fails — and honors the `journal.append` failpoint.
  void append(const Json& record);

  /// Atomically replaces the journal with `records` (compaction): writes
  /// `<path>.tmp`, fsyncs, renames over `path`, reopens for append.
  void rewrite(const std::vector<Json>& records);

  /// Records appended since open/rewrite — the daemon's compaction
  /// trigger reads it.
  std::size_t appended() const { return appended_; }

 private:
  void open_append();
  void close_file();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t appended_ = 0;
};

}  // namespace spmap
