#include "dist/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/wire.h"
#include "obs/metric_names.h"
#include "obs/obs.h"

namespace mlsim::dist {

namespace {

// Record kinds. Part of the on-disk format — append only.
constexpr std::uint32_t kRecRunOpen = 1;
constexpr std::uint32_t kRecAssign = 2;
constexpr std::uint32_t kRecResult = 3;
constexpr std::uint32_t kRecRunClose = 4;

std::string journal_errno(const char* op, const std::filesystem::path& path) {
  return std::string("journal ") + op + " failed for " + path.string() + ": " +
         std::strerror(errno);
}

}  // namespace

RunJournal::~RunJournal() { close(); }

void RunJournal::open(const std::filesystem::path& path) {
  close();
  // A crashed predecessor may have left a torn record at the tail. Replay
  // stops at the first bad byte, so records appended after it would never
  // be read again: cut the file back to its intact prefix first.
  const std::size_t torn = replay(path, /*strict=*/false).dropped_bytes;
  // O_APPEND keeps every record write atomic w.r.t. the file offset; there
  // is exactly one writer.
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw IoError(journal_errno("open", path));
  fd_ = fd;
  path_ = path;
  if (torn > 0) {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) throw IoError(journal_errno("fstat", path_));
    if (::ftruncate(fd_, st.st_size - static_cast<off_t>(torn)) != 0 ||
        ::fsync(fd_) != 0) {
      throw IoError(journal_errno("truncate", path_));
    }
  }
}

void RunJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void RunJournal::append(std::uint32_t kind, std::string_view body) {
  check(enabled(), "journal append before open");
  wire::Writer w;
  w.pod(kind);
  std::string payload = w.take();
  payload.append(body);
  const std::string record = wire::seal(kJournalMagic, payload);
  std::size_t off = 0;
  while (off < record.size()) {
    const ssize_t n = ::write(fd_, record.data() + off, record.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(journal_errno("write", path_));
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync is the durability point: callers act on the journaled event
  // (dispatch the shard, count the result done) only after this returns.
  if (::fsync(fd_) != 0) throw IoError(journal_errno("fsync", path_));
  MLSIM_COUNTER_ADD(obs::names::kDistJournalRecords, 1);
  MLSIM_COUNTER_ADD(obs::names::kDistJournalBytes,
                    static_cast<std::uint64_t>(record.size()));
}

void RunJournal::run_open(std::uint64_t session, std::uint64_t fingerprint,
                          std::uint64_t num_shards, const RunConfig& cfg) {
  wire::Writer w;
  w.pod(session);
  w.pod(fingerprint);
  w.pod(num_shards);
  put_run_config(w, cfg);
  append(kRecRunOpen, w.take());
}

void RunJournal::assign(std::uint64_t session, std::uint64_t shard,
                        std::uint32_t attempt) {
  wire::Writer w;
  w.pod(session);
  w.pod(shard);
  w.pod(attempt);
  append(kRecAssign, w.take());
}

void RunJournal::result(std::uint64_t session, std::string_view result_frame) {
  wire::Writer w;
  w.pod(session);
  w.str(std::string(result_frame));
  append(kRecResult, w.take());
}

void RunJournal::run_close(std::uint64_t session, std::uint32_t status) {
  wire::Writer w;
  w.pod(session);
  w.pod(status);
  append(kRecRunClose, w.take());
}

JournalReplay RunJournal::replay(const std::filesystem::path& path,
                                 bool strict) {
  JournalReplay out;
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return out;  // missing journal: nothing to resume
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();

  const std::string context = "run journal " + path.string();
  std::size_t off = 0;
  std::string bad_tail;  // first corruption reason, empty while clean
  while (off < data.size() && bad_tail.empty()) {
    // Envelope: magic(4) version(4) checksum(8) size(8) payload. The size
    // field at offset 16 walks the concatenated records; unseal verifies
    // magic + checksum over the full candidate slice.
    if (data.size() - off < wire::kEnvelopeBytes) {
      bad_tail = "torn envelope header";
      break;
    }
    std::uint64_t size = 0;
    std::memcpy(&size, data.data() + off + 16, sizeof(size));
    if (size > kMaxJournalRecord) {
      bad_tail = "implausible record size " + std::to_string(size);
      break;
    }
    if (data.size() - off < wire::kEnvelopeBytes + size) {
      bad_tail = "torn record payload";
      break;
    }
    const std::string_view record(data.data() + off,
                                  wire::kEnvelopeBytes + size);
    try {
      const std::string_view payload =
          wire::unseal(kJournalMagic, record, context);
      wire::Reader r(payload, context);
      const auto kind = r.pod<std::uint32_t>();
      switch (kind) {
        case kRecRunOpen: {
          // A later run-open supersedes everything before it: each section
          // re-journals the results it inherited, so the last section is
          // self-contained.
          out.open_run = true;
          out.close_status = 0;
          out.session = r.pod<std::uint64_t>();
          out.fingerprint = r.pod<std::uint64_t>();
          out.num_shards = r.pod<std::uint64_t>();
          out.config = get_run_config(r);
          out.results.clear();
          out.duplicates = 0;
          break;
        }
        case kRecAssign: {
          (void)r.pod<std::uint64_t>();  // session
          (void)r.pod<std::uint64_t>();  // shard
          (void)r.pod<std::uint32_t>();  // attempt
          break;
        }
        case kRecResult: {
          const auto session = r.pod<std::uint64_t>();
          const std::string frame = r.str();
          ResultDecoded d = decode_result(frame, context);
          if (session == out.session) {
            const auto [it, inserted] =
                out.results.emplace(d.header.shard, std::move(d.outcome));
            (void)it;
            if (inserted) {
              MLSIM_COUNTER_ADD(obs::names::kDistJournalReplayedResults, 1);
            } else {
              ++out.duplicates;
            }
          }
          break;
        }
        case kRecRunClose: {
          (void)r.pod<std::uint64_t>();  // session
          out.close_status = r.pod<std::uint32_t>();
          out.open_run = false;
          break;
        }
        default:
          // A kind this build doesn't know is indistinguishable from
          // garbage that passed the checksum by construction of a newer
          // writer — treat as tail, same as corruption.
          throw CheckError("unknown journal record kind " +
                           std::to_string(kind) + " in " + context);
      }
      r.finish();
    } catch (const CheckError& e) {
      bad_tail = e.what();
      break;
    }
    out.found = true;
    ++out.records;
    off += record.size();
  }

  if (!bad_tail.empty()) {
    const std::size_t dropped = data.size() - off;
    if (strict) {
      throw CheckError(context + ": corrupt record at byte " +
                       std::to_string(off) + " (" + bad_tail + "), " +
                       std::to_string(dropped) +
                       " tail bytes (strict journal mode)");
    }
    out.dropped_bytes = dropped;
    MLSIM_COUNTER_ADD(obs::names::kDistJournalDroppedBytes,
                      static_cast<std::uint64_t>(dropped));
  }
  return out;
}

}  // namespace mlsim::dist
