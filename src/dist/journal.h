// Durable run journal for the coordinator (docs/RESILIENCE.md "Crash-safe
// coordination").
//
// A write-ahead log of one coordinator run: run-open (fingerprint +
// options), every shard assignment, every accepted shard result (the raw
// Result frame payload, byte-for-byte), and run-close. Each record is one
// checksummed wire envelope (common/wire.h) appended and fsynced before the
// coordinator acts on the event it describes, so a SIGKILL at any instant
// loses at most the record being written — and that torn tail is caught by
// the envelope's length/checksum pair on replay, and cut off when the
// journal is next opened for append.
//
// Replay mirrors the checkpoint taxonomy (src/core/checkpoint.*): a missing
// journal is simply "nothing to resume", a corrupt or truncated tail is
// dropped in lenient mode and a CheckError in strict mode, and duplicate
// result records for one shard are idempotent (first wins — outcomes are
// deterministic). A restarted coordinator feeds the replayed outcomes into
// its result cache, so completed shards are never re-dispatched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string_view>

#include "core/shard.h"
#include "dist/protocol.h"

namespace mlsim::dist {

/// Journal record envelope magic ("MLJL"): distinct from every other magic
/// (trace, frame, model, checkpoints, bundle) so a journal piped anywhere
/// else — or vice versa — is rejected on the first 4 bytes.
inline constexpr std::uint32_t kJournalMagic = 0x4d4c4a4c;

/// Ceiling on one journal record's payload (a Result frame with spans is
/// the largest). Finite, so a garbage size field in a corrupt tail cannot
/// drive an unbounded allocation during replay.
inline constexpr std::uint64_t kMaxJournalRecord = 1ull << 30;

/// What one journal replay rebuilt. State describes the *last* run-open
/// section in the file (a journal reused across runs supersedes earlier
/// sections — each section re-journals the results it inherited, so the
/// last one is self-contained).
struct JournalReplay {
  /// The file existed and yielded at least one intact record.
  bool found = false;
  /// The last run-open has no matching run-close: the coordinator died (or
  /// was killed) mid-run and the results below are worth resuming.
  bool open_run = false;
  /// Status of the run-close record when one was seen (kStatusComplete or
  /// kStatusDrained).
  std::uint32_t close_status = 0;
  std::uint64_t session = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t num_shards = 0;
  RunConfig config;
  /// Completed shard outcomes, deduped by shard index (first record wins).
  std::map<std::uint64_t, core::ShardOutcome> results;
  /// Intact records decoded (all kinds, all sections).
  std::size_t records = 0;
  /// Result records dropped because their shard was already replayed.
  std::size_t duplicates = 0;
  /// Corrupt/truncated tail bytes dropped (lenient mode only).
  std::size_t dropped_bytes = 0;
};

/// Append-fsync writer plus the static replay. The writer keeps one fd open
/// in O_APPEND mode; every record is sealed individually, written whole,
/// and fsynced before the call returns — the durability point the
/// coordinator orders its side effects around.
class RunJournal {
 public:
  /// run-close statuses.
  static constexpr std::uint32_t kStatusComplete = 0;  // merged normally
  static constexpr std::uint32_t kStatusDrained = 1;   // SIGTERM/SIGINT drain

  RunJournal() = default;
  ~RunJournal();
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Open (creating if absent) for append, first truncating a torn tail
  /// (what lenient replay drops) so new records follow the last intact
  /// one. Throws IoError on filesystem failure.
  void open(const std::filesystem::path& path);
  bool enabled() const { return fd_ >= 0; }
  void close();

  void run_open(std::uint64_t session, std::uint64_t fingerprint,
                std::uint64_t num_shards, const RunConfig& cfg);
  void assign(std::uint64_t session, std::uint64_t shard,
              std::uint32_t attempt);
  /// `result_frame` is the Result message payload exactly as it crossed the
  /// wire (or as re-encoded by encode_result for cache-served shards) —
  /// replay decodes it with the same decode_result the coordinator uses.
  void result(std::uint64_t session, std::string_view result_frame);
  void run_close(std::uint64_t session, std::uint32_t status);

  /// Replay `path`. A missing file returns {found = false}. A corrupt or
  /// truncated tail is dropped when `strict` is false and throws CheckError
  /// when true; anything before the first bad byte is kept either way.
  static JournalReplay replay(const std::filesystem::path& path, bool strict);

 private:
  void append(std::uint32_t kind, std::string_view body);

  int fd_ = -1;
  std::filesystem::path path_;
};

}  // namespace mlsim::dist
